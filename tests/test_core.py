"""Container validation and descriptive statistics."""

import dataclasses
import math

import numpy as np
import pytest

from longmem import (
    NumericError,
    TimeSeries,
    ValidationError,
    acf_direct,
    acf_fft,
    embed,
    pearson,
    perm_test,
    rs_statistic,
    standardize,
    summarize,
)
from longmem.core import (
    _weighted_line_fit,
    calendar_month,
    format_month,
    frozen_copy,
    month_number,
    sample_values,
)


def series(values, **kwargs):
    return TimeSeries(values=np.asarray(values, dtype=float), **kwargs)


class TestTimeSeries:
    def test_basic_construction(self):
        ts = series([1.0, 2.0, 3.0], start=(1951, 1), label="demo")
        assert len(ts) == 3
        assert ts.start == (1951, 1)
        assert ts.label == "demo"

    def test_fields_are_values_start_label(self):
        assert [f.name for f in dataclasses.fields(TimeSeries)] == ["values", "start", "label"]
        assert TimeSeries([1.0], (1951, 1), "demo").label == "demo"

    def test_values_are_copied_and_immutable(self):
        raw = np.array([1.0, 2.0, 3.0])
        ts = series(raw)
        raw[0] = 99.0
        assert ts.values[0] == 1.0
        with pytest.raises(ValueError):
            ts.values[0] = 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            series([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            series([1.0, np.nan])
        with pytest.raises(ValidationError):
            series([1.0, np.inf])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValidationError):
            TimeSeries(values=np.zeros((2, 2)))

    def test_bad_month_rejected(self):
        with pytest.raises(ValidationError):
            series([1.0], start=(1951, 13))
        with pytest.raises(ValidationError):
            series([1.0], start=(1951, 0))

    def test_time_of_maps_index_to_calendar(self):
        ts = series([0.0] * 30, start=(2014, 1))
        assert ts.time_of(0) == (2014, 1)
        assert ts.time_of(11) == (2014, 12)
        assert ts.time_of(12) == (2015, 1)
        assert ts.time_of(19) == (2015, 8)

    def test_time_of_rejects_index_outside_series(self):
        ts = series([1.0], start=(2000, 1))
        assert ts.time_of(0) == (2000, 1)
        for i in (1, 5, -1, -3):
            with pytest.raises(ValidationError, match="outside"):
                ts.time_of(i)

    def test_time_of_last_valid_index(self):
        ts = series([0.0] * 20, start=(2014, 1))
        assert ts.time_of(len(ts) - 1) == (2015, 8)
        with pytest.raises(ValidationError):
            ts.time_of(len(ts))

    def test_time_of_without_anchor_rejected(self):
        with pytest.raises(ValidationError):
            series([1.0, 2.0]).time_of(1)

    def test_with_values_keeps_metadata(self):
        ts = series([1.0, 2.0], start=(1951, 1), label="x")
        out = ts.with_values(np.array([5.0, 6.0]))
        assert out.start == (1951, 1)
        assert out.label == "x"
        assert list(out.values) == [5.0, 6.0]


class TestSummarize:
    def test_one_to_four(self):
        # mean 2.5, sample variance 5/3, std sqrt(5/3) — forced analytically
        s = summarize(series([1.0, 2.0, 3.0, 4.0]))
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.variance == pytest.approx(5.0 / 3.0)
        assert s.std_dev == pytest.approx(math.sqrt(5.0 / 3.0))
        assert s.mean_abs_dev == pytest.approx(1.0)
        assert s.cv_percent == pytest.approx(100.0 * math.sqrt(5.0 / 3.0) / 2.5)

    def test_constant_series_flags_cv_undefined(self):
        s = summarize(series([5.0, 5.0, 5.0, 5.0]))
        assert s.mean == 5.0
        assert s.std_dev == 0.0
        assert s.cv_percent is None

    def test_zero_mean_flags_cv_undefined(self):
        s = summarize(series([-1.0, 1.0]))
        assert s.mean == 0.0
        assert s.cv_percent is None

    def test_length_one_rejected(self):
        with pytest.raises(ValidationError):
            summarize(series([1.0]))

    def test_variance_matches_std_squared(self):
        rng = np.random.default_rng(5)
        s = summarize(series(rng.standard_normal(501)))
        assert s.variance == pytest.approx(s.std_dev**2, rel=1e-12)

    def test_mean_abs_dev_at_most_std(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal(100)
            s = summarize(series(x))
            assert s.mean_abs_dev <= s.std_dev + 1e-12
        del rng

    def test_median_odd_and_even(self):
        assert summarize(series([3.0, 1.0, 2.0])).median == 2.0
        assert summarize(series([4.0, 1.0, 2.0, 3.0])).median == 2.5

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 11, 776, 777, 4096])
    def test_median_bits_match_numpy(self, n):
        rng = np.random.default_rng(n)
        # values on the 0.1 grid repeat, so the middle pair is often a tie
        for x in (rng.normal(size=n), np.round(rng.normal(size=n), 1)):
            assert summarize(series(x)).median == float(np.median(x))

    def test_modes_on_grid_data(self):
        # already on the 0.1 grid: modes are exact frequency modes
        x = [0.2, 0.2, 0.2, -0.1, -0.1, 0.5]
        s = summarize(series(x), mode_resolution=0.1)
        assert s.mode_first == pytest.approx(0.2)
        assert s.mode_second == pytest.approx(-0.1)

    def test_mode_tie_breaks_to_smaller_value(self):
        # equal counts: second mode is the smaller of the remaining values
        x = [0.3, 0.3, 0.1, 0.1, 0.7, 0.7, 0.3]
        s = summarize(series(x), mode_resolution=0.1)
        assert s.mode_first == pytest.approx(0.3)
        assert s.mode_second == pytest.approx(0.1)

    def test_mode_rounding_buckets(self):
        # 0.24 and 0.16 both land on the 0.2 bucket at resolution 0.1
        s = summarize(series([0.24, 0.16, 0.24, 0.9]), mode_resolution=0.1)
        assert s.mode_first == pytest.approx(0.2)

    def test_single_distinct_value_has_no_second_mode(self):
        s = summarize(series([1.0, 1.0, 1.0]))
        assert s.mode_second is None

    def test_affine_transform_of_summary(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(256)
        for _ in range(5):
            a = float(rng.uniform(0.5, 3.0))
            b = float(rng.uniform(-2.0, 2.0))
            base = summarize(series(x))
            moved = summarize(series(a * x + b))
            assert moved.mean == pytest.approx(a * base.mean + b, rel=1e-9)
            assert moved.std_dev == pytest.approx(a * base.std_dev, rel=1e-9)
            assert moved.variance == pytest.approx(a**2 * base.variance, rel=1e-9)

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValidationError):
            summarize(series([1.0, 2.0]), mode_resolution=0.0)


class TestStandardize:
    def test_symmetric_case(self):
        out = standardize(series([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.values, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_two_point_case(self):
        # (x - 3)/sqrt(2) for x in {2, 4}
        out = standardize(series([2.0, 4.0]))
        np.testing.assert_allclose(
            out.values, [-0.7071067811865475, 0.7071067811865475], atol=1e-12
        )

    def test_output_moments(self):
        rng = np.random.default_rng(3)
        out = standardize(series(rng.uniform(5.0, 9.0, size=400)))
        assert abs(float(np.mean(out.values))) < 1e-12
        assert float(np.std(out.values, ddof=1)) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        once = standardize(series(rng.standard_normal(100)))
        twice = standardize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_keeps_anchor(self):
        out = standardize(series([1.0, 2.0, 3.0], start=(1951, 1)))
        assert out.start == (1951, 1)

    def test_constant_rejected(self):
        with pytest.raises(NumericError):
            standardize(series([2.0, 2.0, 2.0]))


class TestCalendar:
    @pytest.mark.parametrize(
        "year_month, number",
        [((0, 1), 0), ((0, 12), 11), ((1, 1), 12), ((1951, 1), 23412), ((2014, 12), 24179)],
    )
    def test_month_number(self, year_month, number):
        assert month_number(year_month) == number
        assert calendar_month(number) == year_month

    def test_round_trip_across_year_ends(self):
        for number in range(-30, 30000, 7):
            year, month = calendar_month(number)
            assert 1 <= month <= 12
            assert month_number((year, month)) == number

    @pytest.mark.parametrize(
        "year_month, text",
        [((1951, 1), "1951-01"), ((2015, 12), "2015-12"), ((800, 7), "0800-07")],
    )
    def test_format_month(self, year_month, text):
        assert format_month(year_month) == text


GOOD = [1.0, 3.0, 2.0, 5.0, 4.0]

# Every analysis that takes raw samples, called with ``x`` in one slot and
# good samples in the others.
RAW_SAMPLE_CALLS = {
    "acf_fft": lambda x: acf_fft(x, 1),
    "acf_direct": lambda x: acf_direct(x, 1),
    "perm_test first": lambda x: perm_test(x, GOOD, n_perm=100),
    "perm_test second": lambda x: perm_test(GOOD, x, n_perm=100),
    "pearson first": lambda x: pearson(x, GOOD),
    "pearson second": lambda x: pearson(GOOD, x),
    "rs_statistic": rs_statistic,
    "embed": lambda x: embed(x, 1, 1),
}

BAD_SAMPLES = {
    "nan": [1.0, np.nan, 3.0, 2.0, 4.0],
    "inf": [1.0, np.inf, 3.0, 2.0, 4.0],
    "2-d": np.arange(10.0).reshape(5, 2),
    "empty": [],
}


class TestSeriesContract:
    """Raw samples are valid exactly when they make a ``TimeSeries``."""

    @pytest.mark.parametrize("bad", BAD_SAMPLES)
    @pytest.mark.parametrize("call", RAW_SAMPLE_CALLS)
    def test_invalid_samples_rejected(self, call, bad):
        with pytest.raises(ValidationError):
            TimeSeries(BAD_SAMPLES[bad])
        with pytest.raises(ValidationError):
            RAW_SAMPLE_CALLS[call](BAD_SAMPLES[bad])

    @pytest.mark.parametrize("call", RAW_SAMPLE_CALLS)
    def test_series_and_its_samples_agree(self, call):
        def exact(result):
            if dataclasses.is_dataclass(result):
                return [np.asarray(v).tolist() for v in dataclasses.astuple(result)]
            return np.asarray(result).tolist()

        ts = series(GOOD)
        assert exact(RAW_SAMPLE_CALLS[call](ts)) == exact(RAW_SAMPLE_CALLS[call](ts.values))

    def test_sample_values_of_a_series_is_its_array(self):
        ts = series(GOOD)
        assert sample_values(ts) is ts.values
        raw = np.array(GOOD)
        checked = sample_values(raw)
        assert np.array_equal(checked, raw) and checked is not raw
        assert not checked.flags.writeable


class TestFrozenCopy:
    def test_copy_is_read_only_and_the_input_is_not(self):
        values = np.arange(4.0)
        frozen = frozen_copy(values)
        assert not frozen.flags.writeable
        assert values.flags.writeable
        values[0] = 9.0
        assert frozen[0] == 0.0

    def test_dtype(self):
        assert frozen_copy([1, 2], dtype=float).dtype == np.float64
        assert frozen_copy(np.array([1, 2])).dtype.kind == "i"


class TestLineFit:
    def test_exact_line_gives_its_slope_and_unit_r_squared(self):
        x = np.arange(10, dtype=float)
        slope, intercept, std_err, r_squared = _weighted_line_fit(x, 3.0 + 0.5 * x)
        assert (slope, intercept, std_err, r_squared) == (0.5, 3.0, 0.0, 1.0)

    def test_weights_are_relative(self):
        rng = np.random.default_rng(4)
        x = np.log2(np.arange(8, 200, 17, dtype=float))
        y = 0.7 * x + rng.normal(0.0, 0.05, x.size)
        weights = rng.uniform(0.5, 2.0, x.size)
        a = _weighted_line_fit(x, y, weights)
        b = _weighted_line_fit(x, y, 1000.0 * weights)
        assert a == pytest.approx(b, rel=1e-12)

    def test_unit_weights_are_no_weights(self):
        x = np.array([1.0, 2.0, 4.0, 5.0])
        y = np.array([0.3, 0.1, 0.9, 1.2])
        assert _weighted_line_fit(x, y) == _weighted_line_fit(x, y, np.full(4, 3.0))

    def test_one_distinct_x_rejected(self):
        with pytest.raises(ValidationError, match="slope undefined"):
            _weighted_line_fit(np.ones(4), np.arange(4.0))
