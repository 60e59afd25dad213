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
from longmem.errors import WARN_RANGE_CLIPPED, WARN_TRUNCATED_AT_GAP
from longmem.ingest import FORMATS

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
        # the header has 13 words, as a year row has 13 tokens
        header = "YEAR JAN FEB MAR APR MAY JUN JUL AUG SEP OCT NOV DEC"
        text = f"STANDARDIZED DATA\n(BASE 1951-2015)\n{header}\n{ROW_2014}"
        ts = cpc(text).series
        assert len(ts) == 12
        assert ts.start == (2014, 1)

    @pytest.mark.parametrize("fmt", ["cpc_table", "auto"])
    @pytest.mark.parametrize("year", ["1951.0", "l951"])
    def test_malformed_first_year_row_is_refused_not_skipped(self, fmt, year):
        # a row of twelve values is no caption: skipped, it would lose a year
        values = ROW_2014.split(maxsplit=1)[1]
        text = f"{year} {values}\n1952 {values}\n"
        with pytest.raises(ParseError) as err:
            parse(text, IngestOptions(format=fmt))
        assert str(err.value) == f"line 1: expected a year row, got {year!r}"

    def test_malformed_row_after_data_reports_line(self):
        text = ROW_2014 + "\nnot-a-year 1 2 3\n"
        with pytest.raises(ParseError) as err:
            cpc(text)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("fmt", ["cpc_table", "auto"])
    def test_comments_and_blanks_skipped_around_data(self, fmt):
        # a comment between or after the year rows is skipped, as in every layout
        text = f"# index\n{ROW_2014}\n# mid\n\n{ROW_2015}\n# end of table\n\n"
        want = cpc(ROW_2014 + "\n" + ROW_2015 + "\n").series
        ts = parse(text, IngestOptions(format=fmt)).series
        assert ts.start == want.start
        assert ts.values.tobytes() == want.values.tobytes()

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

    def test_anchor_is_not_written(self):
        # the column layout has no calendar: no comment line claims one
        ts = TimeSeries([1.0, 2.0, 3.0], start=(1951, 1))
        text = serialize_column(ts)
        assert text == "1.0\n2.0\n3.0\n"
        assert parse(text, self.opts()).series.start is None

    def test_round_trip_extreme_values(self):
        ts = TimeSeries(values=np.array([1e-300, 123456789.123456789, -2.5e300]))
        back = parse(serialize_column(ts), self.opts()).series
        assert np.array_equal(back.values, ts.values)


# Twelve data values, January to December 2014 in the anchored formats.
DATA = [f"{0.1 * k:.1f}" for k in range(1, 13)]
FORMAT_NAMES = ("cpc_table", "csv_pair", "column")


def document(fmt, tokens):
    """The value ``tokens`` as a document of format ``fmt``."""
    if fmt == "cpc_table":
        return "2014 " + " ".join(tokens) + "\n"
    if fmt == "csv_pair":
        return "".join(f"2014-{i + 1:02d},{t}\n" for i, t in enumerate(tokens))
    return "\n".join(tokens) + "\n"


def with_token(index, token):
    tokens = list(DATA)
    tokens[index] = token
    return tokens


@pytest.mark.parametrize("fmt", FORMAT_NAMES)
class TestMissingValues:
    """The missing-value rules every format shares."""

    def parse(self, fmt, tokens, **kwargs):
        return parse(document(fmt, tokens), IngestOptions(format=fmt, **kwargs))

    @pytest.mark.parametrize("token", ["-999.9", "-999.9000005", "-999.8999995"])
    def test_value_within_tolerance_is_absent(self, fmt, token):
        assert len(self.parse(fmt, with_token(11, token)).series) == 11
        with pytest.raises(ValidationError, match="interior gap"):
            self.parse(fmt, with_token(5, token))

    @pytest.mark.parametrize("token", ["-999.900002", "-999.899998"])
    def test_value_two_millionths_away_is_data(self, fmt, token):
        for index in (5, 11):
            values = self.parse(fmt, with_token(index, token)).series.values
            assert values.size == 12
            assert values[index] == float(token)

    def test_tolerance_follows_the_sentinel(self, fmt):
        series = self.parse(fmt, with_token(11, "7.0000005"), missing_sentinel=7).series
        assert len(series) == 11
        values = self.parse(fmt, with_token(11, "7.25"), missing_sentinel=7).series.values
        assert values[1] == 0.2
        assert values[11] == 7.25

    def test_difference_that_overflows_is_data(self, fmt):
        # |-1e308 - 1e308| overflows to inf, which is no absence and no warning
        values = self.parse(fmt, with_token(11, "-1e308"), missing_sentinel=1e308).series.values
        assert values[11] == -1e308

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("index", [0, 5, 11])
    def test_non_finite_value_is_refused_not_absent(self, fmt, token, index):
        with pytest.raises(ValidationError, match="non-finite"):
            self.parse(fmt, with_token(index, token))

    def test_all_sentinels_leave_no_usable_values(self, fmt):
        with pytest.raises(ValidationError, match="no usable values"):
            self.parse(fmt, ["-999.9"] * 12)


class TestSkippedAndSentinelMonths:
    """In csv_pair a skipped month and a sentinel month are both absences."""

    def parse(self, text, **kwargs):
        return parse(text, IngestOptions(format="csv_pair", **kwargs))

    @pytest.mark.parametrize(
        "rows, where, start, dropped",
        [
            (["2014-01,1.0", "2014-02,-999.9", "2014-04,2.0"], "2014-02", (2014, 1), 3),
            (["2014-01,1.0", "2014-03,-999.9", "2014-04,2.0"], "2014-02", (2014, 1), 3),
            (
                ["2013-12,-999.9", "2014-02,1.0", "2014-03,-999.9", "2014-04,2.0"],
                "2014-03",
                (2014, 2),
                2,
            ),
        ],
    )
    def test_first_absence_is_the_gap(self, rows, where, start, dropped):
        text = "\n".join(rows) + "\n"
        with pytest.raises(ValidationError, match=f"interior gap at {where}$"):
            self.parse(text)
        result = self.parse(text, on_gap="truncate_at_first_gap")
        assert result.series.start == start
        assert list(result.series.values) == [1.0]
        assert [w.message for w in result.warnings] == [
            f"series truncated at interior gap ({where}); {dropped} later values dropped"
        ]

    def test_leading_and_trailing_absences_trimmed(self):
        text = "2013-11,-999.9\n2014-01,1.0\n2014-02,2.0\n2014-03,-999.9\n2014-05,-999.9\n"
        series = self.parse(text).series
        assert series.start == (2014, 1)
        assert list(series.values) == [1.0, 2.0]


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


def outcome(text, opts):
    result = parse(text, opts)
    return result.series.values.tobytes(), result.series.start, result.warnings


class TestByteOrderMark:
    """A leading U+FEFF, which spreadsheet programs write, is not part of the text."""

    @pytest.mark.parametrize("explicit", [False, True], ids=["auto", "explicit"])
    @pytest.mark.parametrize(
        "layout, text, kwargs",
        [
            ("cpc_table", f"{ROW_2014}\n{ROW_2015}\n", {"range": ((2014, 1), (2015, 12))}),
            ("cpc_table", f"SOI\n\n{ROW_2014}\n{ROW_2015}\n", {}),
            ("csv_pair", "1951-01,1.5\n1951-02,0.7\n1951-04,0.2\n",
             {"on_gap": "truncate_at_first_gap"}),
            ("column", "1.0\n-999.9\n2.0\n", {"on_gap": "truncate_at_first_gap"}),
            ("column", "# monthly index\n1.0\n2.0\n", {}),
        ],
        ids=["cpc_table", "cpc_table captioned", "csv_pair", "column", "comment first"],
    )
    def test_marked_text_parses_as_text(self, explicit, layout, text, kwargs):
        opts = IngestOptions(format=layout if explicit else "auto", **kwargs)
        assert outcome("\ufeff" + text, opts) == outcome(text, opts)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_mark_and_whitespace_is_an_empty_document(self, fmt):
        with pytest.raises(ValidationError) as err:
            parse("\ufeff \n\t\n", IngestOptions(format=fmt))
        assert type(err.value) is ValidationError
        assert str(err.value) == "document is empty"


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
