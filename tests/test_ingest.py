"""File-format parsing, gap policy, and round-tripping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem import (
    IngestOptions,
    ParseError,
    TimeSeries,
    ValidationError,
    parse,
    select_range,
    serialize_column,
)
from longmem.ingest import WARN_RANGE_CLIPPED, WARN_TRUNCATED_AT_GAP

ROW_2014 = "2014  0.1  0.2  0.3  0.4  0.5  0.6  0.7  0.8  0.9  1.0  1.1  1.2"
ROW_2015 = "2015  1.3  1.4  1.5  1.6  1.7  1.8  1.9  2.0  -999.9 -999.9 -999.9 -999.9"


def cpc(text, **kwargs):
    return parse(text, IngestOptions(format="cpc_table", **kwargs))


class TestCpcTable:
    def test_two_row_table_with_trailing_absences(self):
        # 24 slots, last four missing -> 20 samples ending Aug 2015
        result = cpc(ROW_2014 + "\n" + ROW_2015 + "\n")
        ts = result.series
        assert len(ts) == 20
        assert ts.start == (2014, 1)
        assert ts.time_of(len(ts) - 1) == (2015, 8)
        assert ts.values[0] == pytest.approx(0.1)
        assert ts.values[-1] == pytest.approx(2.0)
        assert result.warnings == ()

    def test_preamble_lines_skipped(self):
        text = "STANDARDIZED DATA\n(BASE 1951-2015)\nYEAR JAN ...\n" + ROW_2014
        ts = cpc(text).series
        assert len(ts) == 12
        assert ts.start == (2014, 1)

    def test_malformed_row_after_data_reports_line(self):
        text = ROW_2014 + "\nnot-a-year 1 2 3\n"
        with pytest.raises(ParseError) as err:
            cpc(text)
        assert "line 2" in str(err.value)

    def test_wrong_token_count_rejected(self):
        with pytest.raises(ParseError) as err:
            cpc("2014 1.0 2.0\n")
        assert "13 tokens" in str(err.value)

    def test_non_consecutive_years_rejected(self):
        text = ROW_2014 + "\n" + ROW_2015.replace("2015", "2017")
        with pytest.raises(ParseError):
            cpc(text)

    def test_bad_value_token_rejected(self):
        with pytest.raises(ParseError):
            cpc("2014 0.1 0.2 0.3 0.4 0.5 x 0.7 0.8 0.9 1.0 1.1 1.2\n")

    def test_interior_gap_errors_by_default(self):
        row = "2014  0.1  0.2  -999.9  0.4  0.5  0.6  0.7  0.8  0.9  1.0  1.1  1.2"
        with pytest.raises(ValidationError) as err:
            cpc(row)
        assert "2014-03" in str(err.value)

    def test_interior_gap_truncates_when_asked(self):
        row = "2014  0.1  0.2  -999.9  0.4  0.5  0.6  0.7  0.8  0.9  1.0  1.1  1.2"
        result = cpc(row, on_gap="truncate_at_first_gap")
        assert len(result.series) == 2
        assert len(result.warnings) == 1
        assert result.warnings[0].code == WARN_TRUNCATED_AT_GAP

    def test_sentinel_matched_with_tolerance(self):
        # parsed decimal text is close to but not exactly the sentinel float
        row = ROW_2014.replace(" 1.2", " -999.9000001")
        ts = cpc(row).series
        assert len(ts) == 11

    def test_leading_absences_shift_anchor(self):
        row = "2014  -999.9  -999.9  0.3  0.4  0.5  0.6  0.7  0.8  0.9  1.0  1.1  1.2"
        ts = cpc(row).series
        assert ts.start == (2014, 3)
        assert len(ts) == 10

    def test_no_data_rows_rejected(self):
        with pytest.raises(ParseError):
            cpc("just a caption\nand another\n")

    def test_empty_document_rejected(self):
        with pytest.raises(ValidationError):
            cpc("   \n  \n")


class TestCsvPair:
    def opts(self, **kwargs):
        return IngestOptions(format="csv_pair", **kwargs)

    def test_contiguous_rows(self):
        text = "1951-01,1.5\n1951-02,0.7\n1951-03,0.2\n"
        ts = parse(text, self.opts()).series
        assert len(ts) == 3
        assert ts.start == (1951, 1)
        np.testing.assert_allclose(ts.values, [1.5, 0.7, 0.2])

    def test_missing_month_is_a_gap(self):
        text = "1951-01,1.5\n1951-03,0.2\n"
        with pytest.raises(ValidationError) as err:
            parse(text, self.opts())
        assert "1951-02" in str(err.value)

    def test_missing_month_truncates_when_asked(self):
        text = "1951-01,1.5\n1951-03,0.2\n"
        result = parse(text, self.opts(on_gap="truncate_at_first_gap"))
        assert len(result.series) == 1
        assert result.warnings[0].code == WARN_TRUNCATED_AT_GAP

    def test_year_boundary(self):
        text = "1999-12,1.0\n2000-01,2.0\n"
        ts = parse(text, self.opts()).series
        assert len(ts) == 2
        assert ts.time_of(1) == (2000, 1)

    def test_non_increasing_dates_rejected(self):
        text = "1951-02,1.0\n1951-01,2.0\n"
        with pytest.raises(ParseError):
            parse(text, self.opts())

    def test_bad_date_rejected(self):
        with pytest.raises(ParseError):
            parse("1951/01,1.0\n", self.opts())
        with pytest.raises(ParseError):
            parse("1951-13,1.0\n", self.opts())

    def test_bad_value_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("1951-01,abc\n", self.opts())
        assert "line 1" in str(err.value)

    def test_comments_and_blanks_allowed(self):
        text = "# header\n\n1951-01,1.0\n1951-02,2.0\n"
        assert len(parse(text, self.opts()).series) == 2


class TestColumn:
    def opts(self, **kwargs):
        return IngestOptions(format="column", **kwargs)

    def test_simple_column(self):
        ts = parse("1\n2\n3\n", self.opts()).series
        np.testing.assert_allclose(ts.values, [1.0, 2.0, 3.0])
        assert ts.start is None

    def test_comments_skipped(self):
        ts = parse("# comment\n1.5\n# more\n2.5\n", self.opts()).series
        assert len(ts) == 2

    def test_bad_line_reports_number(self):
        with pytest.raises(ParseError) as err:
            parse("1.0\nbogus\n", self.opts())
        assert "line 2" in str(err.value)

    def test_sentinel_interior_gap(self):
        with pytest.raises(ValidationError):
            parse("1.0\n-999.9\n2.0\n", self.opts())

    def test_sentinel_trailing_dropped(self):
        ts = parse("1.0\n2.0\n-999.9\n", self.opts()).series
        assert len(ts) == 2

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(12)
        ts = TimeSeries(values=rng.standard_normal(100), label="noise")
        back = parse(serialize_column(ts), self.opts()).series
        assert np.array_equal(back.values, ts.values)

    def test_round_trip_extreme_values(self):
        ts = TimeSeries(values=np.array([1e-300, 123456789.123456789, -2.5e300]))
        back = parse(serialize_column(ts), self.opts()).series
        assert np.array_equal(back.values, ts.values)


class TestRangeSelection:
    def table_1951_1953(self):
        rows = []
        value = 0.0
        for year in (1951, 1952, 1953):
            vals = []
            for _ in range(12):
                value += 0.1
                vals.append(f"{value:.1f}")
            rows.append(f"{year} " + " ".join(vals))
        return "\n".join(rows) + "\n"

    def test_inclusive_both_ends(self):
        text = self.table_1951_1953()
        opts = IngestOptions(format="cpc_table", range=((1951, 6), (1952, 3)))
        ts = parse(text, opts).series
        assert ts.start == (1951, 6)
        assert len(ts) == 10
        assert ts.time_of(len(ts) - 1) == (1952, 3)

    def test_commutes_with_parse(self):
        text = self.table_1951_1953()
        selected_during = parse(
            text, IngestOptions(format="cpc_table", range=((1951, 6), (1952, 3)))
        ).series
        selected_after = select_range(
            parse(text, IngestOptions(format="cpc_table")).series,
            (1951, 6),
            (1952, 3),
        )
        assert np.array_equal(selected_during.values, selected_after.values)
        assert selected_during.start == selected_after.start

    def test_range_clipped_to_data(self):
        text = self.table_1951_1953()
        opts = IngestOptions(format="cpc_table", range=((1950, 1), (1953, 12)))
        assert len(parse(text, opts).series) == 36

    @pytest.mark.parametrize(
        "requested,delivered",
        [
            (((1940, 1), (1951, 12)), "1951-01:1951-12"),
            (((1952, 6), (1960, 1)), "1952-06:1953-12"),
            (((1950, 1), (1954, 12)), "1951-01:1953-12"),
        ],
    )
    def test_clipped_range_warns(self, requested, delivered):
        opts = IngestOptions(format="cpc_table", range=requested)
        result = parse(self.table_1951_1953(), opts)
        assert [w.code for w in result.warnings] == [WARN_RANGE_CLIPPED]
        (y0, m0), (y1, m1) = requested
        message = result.warnings[0].message
        assert f"{y0:04d}-{m0:02d}:{y1:04d}-{m1:02d}" in message
        assert f"delivered {delivered}" in message

    def test_range_inside_data_does_not_warn(self):
        for requested in (((1951, 1), (1953, 12)), ((1951, 6), (1952, 3))):
            opts = IngestOptions(format="cpc_table", range=requested)
            assert parse(self.table_1951_1953(), opts).warnings == ()

    def test_empty_selection_rejected(self):
        text = self.table_1951_1953()
        opts = IngestOptions(format="cpc_table", range=((1960, 1), (1960, 12)))
        with pytest.raises(ValidationError):
            parse(text, opts)

    def test_range_on_unanchored_series_rejected(self):
        ts = parse("1\n2\n", IngestOptions(format="column")).series
        with pytest.raises(ValidationError):
            select_range(ts, (1951, 1), (1951, 2))

    def test_reversed_range_rejected(self):
        with pytest.raises(ValidationError):
            IngestOptions(format="cpc_table", range=((1952, 1), (1951, 1)))


def auto(text):
    return parse(text, IngestOptions(format="auto"))


class TestSniffing:
    def test_unsupported_layout_names_line_and_layouts(self):
        text = "# monthly index\n\n1951/01,1.0\n1951/02,2.0\n"
        with pytest.raises(ParseError) as err:
            auto(text)
        assert err.value.line == 3
        message = str(err.value)
        assert message.startswith("line 3: unsupported layout starting '1951/01,1.0'")
        for layout in ("cpc_table", "csv_pair", "column"):
            assert layout in message

    def test_unsupported_layout_after_caption_lines(self):
        with pytest.raises(ParseError) as err:
            auto("SOI (STANDARDIZED)\n1.0 2.0\n3.0 4.0\n")
        assert err.value.line == 2

    def test_integer_year_row_left_to_the_table_parser(self):
        # a short year row is still read as cpc_table, whose parser names
        # what is wrong with it
        with pytest.raises(ParseError) as err:
            auto("CAPTION\n2014 0.1 0.2 0.3\n")
        assert str(err.value) == "line 2: expected 13 tokens (year + 12 values), got 4"

    def test_text_without_data_rejected(self):
        with pytest.raises(ParseError) as err:
            auto("CAPTION\n(STANDARDIZED DATA)\n")
        assert str(err.value) == "no data rows found"


class TestOptionsValidation:
    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            IngestOptions(format="parquet")

    def test_unknown_gap_policy_rejected(self):
        with pytest.raises(ValidationError):
            IngestOptions(format="column", on_gap="ignore")

    def test_bad_range_month_rejected(self):
        with pytest.raises(ValidationError):
            IngestOptions(format="column", range=((1951, 0), (1951, 12)))

    @pytest.mark.parametrize("sentinel", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sentinel_rejected(self, sentinel):
        # nothing is close to a non-finite sentinel: absences would read as data
        with pytest.raises(ValidationError, match="missing_sentinel must be finite"):
            IngestOptions(format="cpc_table", missing_sentinel=sentinel)


# Finite floats that are never read as the missing sentinel.
FINITE = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda v: abs(v + 999.9) > 1e-3
)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=50))
    def test_serialize_then_parse_is_bit_exact(self, values):
        ts = TimeSeries(values=np.array(values), label="drawn")
        for fmt in ("column", "auto"):
            back = parse(serialize_column(ts), IngestOptions(format=fmt)).series
            assert back.values.tobytes() == ts.values.tobytes()
            assert back.start is None

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1000, 2999),
        st.integers(1, 12),
        st.lists(FINITE, min_size=1, max_size=40),
    )
    def test_auto_reads_csv_pair(self, year, month, values):
        first = year * 12 + month - 1
        text = "".join(
            f"{(first + i) // 12:04d}-{(first + i) % 12 + 1:02d},{v!r}\n"
            for i, v in enumerate(values)
        )
        ts = parse(text, IngestOptions(format="auto")).series
        assert ts.start == (year, month)
        assert ts.values.tobytes() == np.array(values).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1000, 2999),
        st.lists(
            st.lists(st.floats(-50, 50), min_size=12, max_size=12),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
    def test_auto_reads_cpc_table(self, year, rows, caption):
        lines = ["INDEX (STANDARDIZED)", "", "YEAR JAN FEB MAR APR MAY JUN JUL AUG SEP OCT NOV DEC"]
        lines = lines if caption else []
        lines += [
            " ".join([str(year + i), *(repr(v) for v in row)]) for i, row in enumerate(rows)
        ]
        ts = parse("\n".join(lines) + "\n", IngestOptions(format="auto")).series
        assert ts.start == (year, 1)
        assert ts.values.tobytes() == np.array(rows).ravel().tobytes()
