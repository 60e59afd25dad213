"""Container validation and descriptive statistics."""

import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from longmem import (
    DivergenceCurve,
    EmbeddingParams,
    GenSpec,
    IngestOptions,
    NumericError,
    TimeSeries,
    ValidationError,
    acf_direct,
    acf_fft,
    band_mean,
    embed,
    expected_rescaled_range,
    fgn_autocovariance,
    fit_h,
    fractal_correlation,
    fractal_dimension,
    generate,
    hurst_suite,
    lyap_fit,
    lyap_k,
    nth_permutation,
    pearson,
    perm_test,
    rs_statistic,
    rs_table,
    select_range,
    standardize,
    summarize,
)
from longmem.core import (
    _count,
    _dot,
    _median_and_modes,
    _standardized,
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

    def test_real_number_items_accepted(self):
        items = [1, np.int8(2), np.float32(2.5), Fraction(7, 2), 4.25]
        expected = [1.0, 2.0, 2.5, 3.5, 4.25]
        for values in (items, tuple(items), np.array(items, dtype=object)):
            assert TimeSeries(values).values.tolist() == expected
        assert TimeSeries(np.arange(3, dtype=np.uint16)).values.tolist() == [0.0, 1.0, 2.0]

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValidationError):
            TimeSeries(values=np.zeros((2, 2)))

    def test_bad_month_rejected(self):
        with pytest.raises(ValidationError):
            series([1.0], start=(1951, 13))
        with pytest.raises(ValidationError):
            series([1.0], start=(1951, 0))

    @pytest.mark.parametrize(
        "start",
        [(2000, 1.5), (2000, True), (True, 1), (2000,), (2000, 1, 1), ("2000", 1), "2000-01", 2000],
        ids=["float month", "bool month", "bool year", "one item", "three items", "str year",
             "string", "int"],
    )
    def test_start_must_be_a_pair_of_integers(self, start):
        with pytest.raises(ValidationError, match="pair of integers"):
            series([1.0, 2.0], start=start)

    def test_start_is_kept_as_a_tuple_of_ints(self):
        ts = series([1.0, 2.0], start=[np.int64(2000), np.int64(3)])
        assert ts.start == (2000, 3)
        assert all(type(v) is int for v in ts.start)
        assert ts.time_of(1) == (2000, 4)

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


# Lengths at which summarize and standardize must match numpy's own
# moment arithmetic bit for bit; numpy's pairwise sums change form at 8
# and at each block of 128.
MOMENT_LENGTHS = [2, 3, 4, 7, 8, 9, 100, 127, 128, 129, 776, 1000, 4097, 100_000]


class TestSummarize:
    @pytest.mark.parametrize("n", MOMENT_LENGTHS)
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e100])
    def test_moments_equal_numpy_bits(self, n, scale):
        x = np.random.default_rng(n).standard_normal(n) * scale + 0.3 * scale
        stats = summarize(x, mode_resolution=0.1 * scale)
        mean = np.mean(x)
        want = {
            "mean": mean,
            "std_dev": np.std(x, ddof=1),
            "variance": np.var(x, ddof=1),
            "mean_abs_dev": np.mean(np.abs(x - float(mean))),
        }
        assert {k: getattr(stats, k).hex() for k in want} == {
            k: float(v).hex() for k, v in want.items()
        }

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

    @pytest.mark.parametrize("resolution", [1e-300, 1e-30, 2.0**-50])
    def test_resolution_whose_grid_index_reaches_2_53_rejected(self, resolution):
        # 4.0 / 2**-50 is exactly 2**52; the checks below use larger indices
        with pytest.raises(ValidationError, match="too fine"):
            summarize(series([1.0, -9.0, 4.0]), mode_resolution=resolution)

    def test_grid_index_just_below_2_53_accepted(self):
        s = summarize(series([1.0, 2.0**53 - 1.0, 1.0]), mode_resolution=1.0)
        assert (s.mode_first, s.mode_second) == (1.0, 2.0**53 - 1.0)
        with pytest.raises(ValidationError, match="too fine"):
            summarize(series([1.0, -(2.0**53), 1.0]), mode_resolution=1.0)

    def test_too_fine_resolution_raises_no_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="too fine"):
                # 1e10 / 1e-300 overflows to inf, which is refused
                summarize(series([1e10, -1e10]), mode_resolution=1e-300)


def counted_median_and_modes(x, resolution):
    """The oracle: ``np.median`` and a ``Counter`` of the grid keys ranked by (-count, key)."""
    keys = np.rint(x / resolution).astype(np.int64)
    ranked = sorted(Counter(keys.tolist()).items(), key=lambda kv: (-kv[1], kv[0]))
    second = ranked[1][0] * resolution if len(ranked) > 1 else None
    return float(np.median(x)), ranked[0][0] * resolution, second


def assert_matches_oracle(x, resolution):
    """Median equal in value to ``np.median`` and never -0.0; modes equal bit for bit."""
    x = np.asarray(x, dtype=float)
    median, first, second = counted_median_and_modes(x, resolution)
    stats = summarize(x, mode_resolution=resolution)
    assert stats.median == median
    assert stats.median != 0.0 or math.copysign(1.0, stats.median) == 1.0
    # repr tells -0.0 from 0.0 and round-trips every other float exactly
    assert repr((stats.mode_first, stats.mode_second)) == repr((first, second))
    return stats


class TestMedianAndModes:
    @settings(max_examples=150, deadline=None)
    @given(
        x=arrays(
            np.float64,
            st.integers(2, 200),
            elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
        ),
        on_grid=st.booleans(),
        resolution=st.sampled_from([0.1, 0.25, 1.0]),
    )
    def test_agrees_with_counter_and_np_median(self, x, on_grid, resolution):
        # samples below 2**-400 are refused; zeroing them keeps their sign
        x[np.abs(x) < 1e-9] *= 0.0
        # rounded samples repeat, so counts tie and the middle pair often does
        assert_matches_oracle(np.round(x, 1) if on_grid else x, resolution)

    @pytest.mark.parametrize(
        "x, want",
        [
            # one distinct key from three distinct values
            ([0.31, 0.29, 0.3, 0.26], (0.30000000000000004, None)),
            # every count tied: the two smallest keys
            ([0.5, -0.2, 0.9, 0.1], (-0.2, 0.1)),
            # only negative keys, the two largest counts tied
            ([-0.3, -0.7, -0.3, -0.7, -0.1], (-0.7000000000000001, -0.30000000000000004)),
            # both sides of zero; -0.04 rounds to the key -0.0, reported as 0.0
            ([-0.2, 0.2, -0.04, 0.2, -0.2, 0.0, 0.04], (0.0, -0.2)),
        ],
        ids=["one-key", "all-tied", "negative-keys", "both-signs"],
    )
    def test_explicit_cases(self, x, want):
        stats = assert_matches_oracle(x, 0.1)
        assert repr((stats.mode_first, stats.mode_second)) == repr(want)

    @pytest.mark.parametrize(
        "x",
        [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [-0.0, -0.0, 1.0]],
        ids=["zero-first", "negative-zero-first", "two-negative-zeros"],
    )
    def test_zero_median_is_positive_zero_in_any_order(self, x):
        median = summarize(x).median
        assert (median, math.copysign(1.0, median)) == (0.0, 1.0)

    @pytest.mark.parametrize("middle", [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
    def test_zero_median_of_even_length_is_positive_zero(self, middle):
        for x in ([-1.0, *middle, 1.0], [1.0, *middle, -1.0]):
            median = summarize(x).median
            assert (median, math.copysign(1.0, median)) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "x",
        [[-9.0, 1.0, 4.0], [9.0, -1.0, -4.0]],
        ids=["negative-tail", "positive-tail"],
    )
    def test_grid_index_refused_from_either_tail_alone(self, x):
        # 9 * 2**50 passes 2**53 and 4 * 2**50 = 2**52 does not
        with pytest.raises(ValidationError, match="too fine"):
            summarize(x, mode_resolution=2.0**-50)
        assert summarize([v / 4.0 for v in x], mode_resolution=2.0**-50).n == 3

    def test_callers_samples_are_not_sorted(self):
        x = np.random.default_rng(8).standard_normal(101)
        before = x.copy()
        summarize(x)
        summarize(TimeSeries(x))
        # the helper itself, handed the caller's writeable array
        assert _median_and_modes(x, 0.1)[0] == float(np.median(before))
        assert x.tobytes() == before.tobytes()


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

    @pytest.mark.parametrize("n", MOMENT_LENGTHS)
    def test_bits_equal_numpy_arithmetic(self, n):
        x = np.random.default_rng(n).standard_normal(n) * 3.0 + 1.0
        want = (x - np.mean(x)) / np.std(x, ddof=1)
        assert standardize(x).values.tobytes() == want.tobytes()

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

    # unit scale, just under sample_values' upper bound 2**500/n and just
    # above its lower bound 2**-400
    @pytest.mark.parametrize("peak", [1.0, 0.99 * 2.0**500 / 776, 1.01 * 2.0**-400])
    def test_private_helper_is_standardize_without_the_series(self, peak):
        # lyap_k standardizes by _standardized(sample_values(ts)), without
        # building and checking a second TimeSeries: the bounds that
        # sample_values enforces already keep the result finite
        x = np.random.default_rng(6).standard_normal(776)
        ts = series(x * (peak / np.abs(x).max()))
        got = _standardized(sample_values(ts))
        assert got.tobytes() == standardize(ts).values.tobytes()
        assert np.isfinite(got).all()
        flat = series(np.full(776, peak))
        with pytest.raises(NumericError):
            _standardized(sample_values(flat))
        with pytest.raises(NumericError):
            standardize(flat)


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


# long enough for ``hurst_suite`` (32) and a short ``lyap_k`` curve
GOOD = [float(v) for v in np.arange(40) * 7 % 11]
SMALL_EMBEDDING = EmbeddingParams(m=1, theiler=0, eps=2.0, n_ref=10, s=2, k_min=1)

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
    "rs_table": lambda x: rs_table(x, min_window=2),
    "hurst_suite": hurst_suite,
    "lyap_k": lambda x: lyap_k(x, SMALL_EMBEDDING),
    "summarize": summarize,
    "standardize": lambda x: standardize(x).values,
}

BAD_SAMPLES = {
    "nan": [1.0, np.nan, 3.0, 2.0, 4.0],
    "inf": [1.0, np.inf, 3.0, 2.0, 4.0],
    "2-d": np.arange(10.0).reshape(5, 2),
    "empty": [],
    # samples are real numbers, by the rule of every real parameter
    "text": ["a", "b", "c", "d", "e"],
    "numeric text": ["1.5", "2", "3", "4", "5"],
    "bytes": [b"1.5", b"2", b"3", b"4", b"5"],
    "bools": [True, False, True, True, False],
    "a bool among floats": [1.0, 2.0, True, 3.0, 4.0],
    "numpy bools": np.array([True, False, True, True, False]),
    "complex": [1.0, 2.0, 3 + 0j, 4.0, 5.0],
    "complex array": np.array([1.0, 2.0, 3.0, 4.0, 5.0 + 1j]),
    "dicts": [{}, {}, {}, {}, {}],
    "too large for a float": [1.0, 2.0, 10**400, 4.0, 5.0],
}


class TestSeriesContract:
    """Raw samples are valid exactly when they make a ``TimeSeries``."""

    @pytest.mark.parametrize("bad", BAD_SAMPLES)
    @pytest.mark.parametrize("call", RAW_SAMPLE_CALLS)
    def test_invalid_samples_rejected(self, call, bad):
        with pytest.raises(ValidationError) as by_series:
            TimeSeries(BAD_SAMPLES[bad])
        # the series check fires, not a later rule such as a minimum length
        with pytest.raises(ValidationError, match=f"^{by_series.value}$"):
            RAW_SAMPLE_CALLS[call](BAD_SAMPLES[bad])

    @pytest.mark.parametrize("call", RAW_SAMPLE_CALLS)
    def test_series_and_its_samples_agree(self, call):
        def exact(result):
            if dataclasses.is_dataclass(result):
                return [np.asarray(v).tolist() for v in dataclasses.astuple(result)]
            return np.asarray(result).tolist()

        ts = series(GOOD)
        assert exact(RAW_SAMPLE_CALLS[call](ts)) == exact(RAW_SAMPLE_CALLS[call](ts.values))

    def test_standardize_returns_a_series_for_raw_samples(self):
        out = standardize(np.array(GOOD))
        assert isinstance(out, TimeSeries)
        assert out.start is None and out.label == ""

    def test_sample_values_of_a_series_is_its_array(self):
        ts = series(GOOD)
        assert sample_values(ts) is ts.values
        raw = np.array(GOOD)
        checked = sample_values(raw)
        assert np.array_equal(checked, raw) and checked is not raw
        assert not checked.flags.writeable


# Samples at the magnitude bound, 2**500 / n: the extremes are exactly +-bound.
AT_BOUND = (np.array(GOOD) - 5.0) / 5.0 * (2.0**500 / len(GOOD))
# Samples at the lower magnitude bound: the extremes are exactly +-2**-400.
AT_LOWER_BOUND = (np.array(GOOD) - 5.0) / 5.0 * 2.0**-400


class TestMagnitudeRule:
    """Samples too large for an analysis's sums to stay finite are refused."""

    @pytest.mark.parametrize("call", RAW_SAMPLE_CALLS)
    def test_huge_samples_refused(self, call):
        x = 1e200 * np.random.default_rng(0).standard_normal(776)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"at most 2\*\*500/n"):
                RAW_SAMPLE_CALLS[call](x)

    @pytest.mark.parametrize("call", RAW_SAMPLE_CALLS)
    def test_samples_at_the_bound_run_without_overflow(self, call):
        # summarize's own grid rule refuses the default resolution here
        run = {**RAW_SAMPLE_CALLS, "summarize": lambda x: summarize(x, 2.0**450)}[call]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(AT_BOUND)
        values = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else (result,)
        for value in values:
            if isinstance(value, (float, np.ndarray)):
                assert np.all(np.isfinite(value))

    def test_bound_is_inclusive(self):
        over = AT_BOUND.copy()
        over[np.argmax(over)] = np.nextafter(over.max(), np.inf)
        assert sample_values(AT_BOUND).max() == 2.0**500 / len(GOOD)
        with pytest.raises(ValidationError, match="may reach at most"):
            sample_values(over)

    def test_standardize_of_a_series_is_checked(self):
        with pytest.raises(ValidationError, match="may reach at most"):
            standardize(series([1e300, -1e300, 1e300]))

    @pytest.mark.parametrize("call", RAW_SAMPLE_CALLS)
    def test_tiny_samples_refused(self, call):
        # their squares underflow, so numpy's variance of them reads 0
        x = 1e-170 * np.random.default_rng(0).standard_normal(776)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"at least 2\*\*-400"):
                RAW_SAMPLE_CALLS[call](x)

    @pytest.mark.parametrize("call", RAW_SAMPLE_CALLS)
    def test_samples_at_the_lower_bound_are_not_constant(self, call):
        run = {**RAW_SAMPLE_CALLS, "summarize": lambda x: summarize(x, 2.0**-450)}[call]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(AT_LOWER_BOUND)
        values = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else (result,)
        for value in values:
            if isinstance(value, (float, np.ndarray)):
                assert np.all(np.isfinite(value))

    def test_lower_bound_is_inclusive_and_zeros_pass(self):
        under = AT_LOWER_BOUND / 2.0
        assert np.abs(sample_values(AT_LOWER_BOUND)).max() == 2.0**-400
        with pytest.raises(ValidationError, match="must reach at least"):
            sample_values(under)
        assert not sample_values(np.zeros(5)).any()
        with pytest.raises(NumericError):
            standardize(np.zeros(5))


# SOI's 0.1 grid in [-4, 4], as text parses it; numpy's variance of 776
# copies of 56 of these values is not 0
GRID_VALUES = [k / 10 for k in range(-40, 41)]

# Every analysis that refuses a constant series, with the length it needs
# and the other series it is given, of the same length, as an argument.
CONSTANT_REFUSALS = {
    "acf_fft": (2, lambda x, y: acf_fft(x, 1)),
    "acf_direct": (2, lambda x, y: acf_direct(x, 1)),
    "pearson first": (3, lambda x, y: pearson(x, y)),
    "pearson second": (3, lambda x, y: pearson(y, x)),
    "perm_test": (3, lambda x, y: perm_test(y, x, n_perm=100)),
    "standardize": (1, lambda x, y: standardize(x)),
    "rs_statistic": (2, lambda x, y: rs_statistic(x)),
    "rs_table": (16, lambda x, y: rs_table(x)),
    "hurst_suite": (32, lambda x, y: hurst_suite(x)),
}


class TestConstancyRule:
    """A series is constant exactly when all its values are equal, whatever
    numpy's rounding of their mean and variance."""

    @pytest.mark.parametrize(
        "call, n",
        [(call, n) for call, (needs, _) in CONSTANT_REFUSALS.items()
         for n in (12, 60, 776, 4096) if n >= needs],
    )
    def test_constant_series_refused_at_every_grid_value(self, call, n):
        run = CONSTANT_REFUSALS[call][1]
        y = np.random.default_rng(n).standard_normal(n)
        for v in GRID_VALUES:
            with pytest.raises(NumericError):
                run(np.full(n, v), y)

    @pytest.mark.parametrize("n", [12, 60, 776, 4096])
    def test_summary_of_a_constant_series_has_zero_spread(self, n):
        for v in GRID_VALUES:
            stats = summarize(np.full(n, v))
            assert (stats.mean, stats.median, stats.std_dev, stats.variance) == (v, v, 0.0, 0.0)
            assert stats.mean_abs_dev == 0.0
            assert stats.cv_percent is None

    def test_varying_series_near_the_floor_keeps_numpy_bits(self):
        # one value an ulp above the rest: variance far below the floor of
        # 776 equal values, so max and min decide, and numpy's bits stand
        x = np.full(776, 0.7)
        x[300] = np.nextafter(0.7, 1.0)
        stats = summarize(x)
        assert stats.variance.hex() == float(np.var(x, ddof=1)).hex() != "0x0.0p+0"
        assert stats.mean.hex() == float(np.mean(x)).hex()
        assert standardize(x).values.tobytes() == (
            (x - np.mean(x)) / np.std(x, ddof=1)
        ).tobytes()


class TestDot:
    """``core._dot``: one BLAS call up to 8192 samples, and above that the
    8192-sample chunks' BLAS dots added in index order."""

    @staticmethod
    def pair(n):
        rng = np.random.default_rng(n)
        return rng.standard_normal(n), rng.standard_normal(n)

    @pytest.mark.parametrize("n", [1, 776, 4096, 8192])
    def test_one_blas_call_up_to_the_chunk(self, n):
        a, b = self.pair(n)
        assert _dot(a, b).hex() == float(a @ b).hex()

    @pytest.mark.parametrize("n", [8193, 20_000])
    def test_chunk_dots_added_in_index_order(self, n):
        a, b = self.pair(n)
        expected = 0.0
        for lo in range(0, n, 8192):
            expected += float(a[lo : lo + 8192] @ b[lo : lo + 8192])
        assert _dot(a, b).hex() == expected.hex()


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

    @staticmethod
    def numpy_spelling(x, y, weights=None):
        """The fit written with ``np.sum`` and ``np.mean``: the oracle of its bits."""
        w = np.ones(x.size) if weights is None else weights / np.mean(weights)
        sw = np.sum(w)
        x_bar = np.sum(w * x) / sw
        y_bar = np.sum(w * y) / sw
        sxx = np.sum(w * (x - x_bar) ** 2)
        slope = np.sum(w * (x - x_bar) * (y - y_bar)) / sxx
        intercept = y_bar - slope * x_bar
        residuals = y - (intercept + slope * x)
        sse = float(np.sum(w * residuals**2))
        ssm = float(np.sum(w * (y - y_bar) ** 2))
        dof = x.size - 2
        std_err = math.sqrt((sse / dof) / sxx) if dof > 0 else 0.0
        r_squared = 1.0 - sse / ssm if ssm > 0.0 else 1.0
        return float(slope), float(intercept), std_err, r_squared

    @staticmethod
    def hexes(values):
        return [float(v).hex() for v in values]

    @pytest.mark.parametrize("size", [3, 7, 12, 40, 257])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bits_equal_numpy_spelling(self, size, weighted):
        # the fit sums with np.add.reduce, the reduction np.sum and np.mean
        # run for a 1-d float64 array; the numpy floor's CI job checks that
        rng = np.random.default_rng(size)
        x, y = rng.uniform(-3.0, 9.0, size), rng.standard_normal(size)
        weights = rng.uniform(0.01, 50.0, size) if weighted else None
        got = _weighted_line_fit(x, y, weights)
        assert self.hexes(got) == self.hexes(self.numpy_spelling(x, y, weights))

    def test_fit_h_weights_with_a_zero_scatter_point_match_numpy_spelling(self):
        # the default ladder's last window holds one block, whose scatter
        # is 0, so fit_h gives that point the largest finite weight
        table = rs_table(generate(GenSpec(kind="fgn", n=4096, seed=2, h=0.7)))
        stds = np.array([p.std_rs for p in table.points])
        nonzero = stds > 0.0
        assert nonzero.tolist() == [True] * (stds.size - 1) + [False]
        weights = np.empty(stds.size)
        weights[nonzero] = 1.0 / stds[nonzero] ** 2
        weights[~nonzero] = weights[nonzero].max()
        x = np.log2([p.window for p in table.points])
        y = np.log2([p.mean_rs for p in table.points])
        slope, _, std_err, r_squared = self.numpy_spelling(x, y, weights)
        est = fit_h(table, weighted=True)
        assert self.hexes([est.h, est.std_err, est.r_squared]) == self.hexes(
            [slope, std_err, r_squared]
        )


CURVE = DivergenceCurve(
    s_values=np.arange(12.0), ref_counts=np.ones(12, dtype=int), params=EmbeddingParams()
)

# Every integer parameter of the public API, called with ``v`` in its slot,
# and a value that is valid there.
INTEGER_PARAMETERS = {
    "rs_table min_window": (lambda v: rs_table(GOOD, min_window=v), 8),
    "rs_table scheme": (lambda v: rs_table(GOOD, scheme=[v, 16, 32]), 8),
    "expected_rescaled_range": (expected_rescaled_range, 8),
    "fgn_autocovariance max_lag": (lambda v: fgn_autocovariance(0.75, v), 4),
    "acf_fft max_lag": (lambda v: acf_fft(GOOD, v), 3),
    "acf_direct max_lag": (lambda v: acf_direct(GOOD, v), 3),
    "band_mean lo": (lambda v: band_mean(acf_fft(GOOD, 5), v, 4), 2),
    "band_mean hi": (lambda v: band_mean(acf_fft(GOOD, 5), 2, v), 4),
    "GenSpec n": (lambda v: generate(GenSpec(kind="white", n=v)), 10),
    "GenSpec seed": (lambda v: generate(GenSpec(kind="white", n=10, seed=v)), 1),
    **{
        f"EmbeddingParams {name}": (lambda v, name=name: EmbeddingParams(**{name: v}), value)
        for name, value in (
            ("m", 2), ("d", 1), ("theiler", 12), ("n_ref", 10), ("s", 12), ("k_min", 4),
            ("seed", 1),
        )
    },
    "embed m": (lambda v: embed(GOOD, v, 1), 2),
    "embed d": (lambda v: embed(GOOD, 2, v), 1),
    "lyap_fit start": (lambda v: lyap_fit(CURVE, v, 4), 0),
    "lyap_fit end": (lambda v: lyap_fit(CURVE, 0, v), 4),
    "time_of": (lambda v: series(GOOD, start=(2000, 1)).time_of(v), 1),
}


class TestIntegerRule:
    """One rule for integer parameters: a float is refused, not truncated,
    and a bool is not an integer."""

    @pytest.mark.parametrize(
        "make_bad",
        [lambda v: v + 0.5, float, np.float64, lambda v: True, str],
        ids=["fraction", "integral float", "numpy float", "bool", "str"],
    )
    @pytest.mark.parametrize("parameter", INTEGER_PARAMETERS)
    def test_non_integers_rejected(self, parameter, make_bad):
        call, valid = INTEGER_PARAMETERS[parameter]
        with pytest.raises(ValidationError, match="must be an integer"):
            call(make_bad(valid))

    @pytest.mark.parametrize("parameter", INTEGER_PARAMETERS)
    def test_numpy_integers_accepted(self, parameter):
        call, valid = INTEGER_PARAMETERS[parameter]
        assert repr(call(np.int64(valid))) == repr(call(valid))

    def test_parameters_kept_as_ints(self):
        spec = GenSpec(kind="white", n=np.int64(10), seed=np.uint32(3))
        assert type(spec.n) is int and type(spec.seed) is int
        params = EmbeddingParams(m=np.int64(3), n_ref=np.int32(50))
        assert type(params.m) is int and type(params.n_ref) is int
        assert type(acf_fft(GOOD, np.int64(3)).max_lag) is int


# Every seed of the public API, called with ``v`` in its slot, and
# ``nth_permutation``'s index, the second key word of the same Philox.
SEED_PARAMETERS = {
    "GenSpec seed": lambda v: generate(GenSpec(kind="white", n=10, seed=v)).values,
    "EmbeddingParams seed": lambda v: EmbeddingParams(seed=v).seed,
    "perm_test seed": lambda v: perm_test(GOOD, GOOD[::-1], n_perm=100, seed=v).r_sorted,
    "nth_permutation seed": lambda v: nth_permutation(v, 0, 16),
    "nth_permutation index": lambda v: nth_permutation(0, v, 16),
}


class TestSeedRule:
    """One rule for seeds: an integer in [0, 2**64), never folded into it."""

    @pytest.mark.parametrize(
        "value, message",
        [
            (-1, "must be non-negative, got -1"),
            (np.int64(-1), "must be non-negative, got -1"),
            (-(2**64), "must be non-negative"),
            (2**64, rf"must be below 2\*\*64, got {2**64}$"),
            (2**70, "must be below 2"),
        ],
    )
    @pytest.mark.parametrize("parameter", SEED_PARAMETERS)
    def test_out_of_range_refused(self, parameter, value, message):
        with pytest.raises(ValidationError, match=message):
            SEED_PARAMETERS[parameter](value)

    @pytest.mark.parametrize("parameter", SEED_PARAMETERS)
    def test_whole_range_accepted(self, parameter):
        call = SEED_PARAMETERS[parameter]
        call(0)
        top = call(2**64 - 1)
        assert np.array_equal(call(np.uint64(2**64 - 1)), top)


# Every count that sets an array's length, called with ``v`` in its slot.
COUNT_PARAMETERS = {
    **{
        f"GenSpec n {kind}": lambda v, kind=kind: GenSpec(kind=kind, n=v, **extra)
        for kind, extra in (
            ("white", {}), ("sine", {"period": 12.0}), ("logistic", {}), ("fgn", {"h": 0.7}),
        )
    },
    "perm_test n_perm": lambda v: perm_test(GOOD, GOOD[::-1], n_perm=v),
    "nth_permutation n": lambda v: nth_permutation(0, 0, v),
}


class TestCountRule:
    """One rule for counts: none so large that numpy cannot size its array."""

    @pytest.mark.parametrize("value", [2**60, 10**20], ids=["2**60", "10**20"])
    @pytest.mark.parametrize("parameter", COUNT_PARAMETERS)
    def test_counts_beyond_any_array_refused_before_allocating(self, parameter, value):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f" {value} is too large"):
                COUNT_PARAMETERS[parameter](value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("factor", [1, 2])
    def test_bound_is_numpys_largest_array(self, factor):
        top = np.iinfo(np.intp).max // (8 * factor) - 1
        assert _count(top, "n", factor) == top
        with pytest.raises(ValidationError, match=f"can size an array for is {top}$"):
            _count(top + 1, "n", factor)
        # at the bound numpy sizes the array and only the allocation fails,
        # at once; one value more and numpy cannot describe it at all
        with pytest.raises(MemoryError):
            np.empty(factor * (top + 1))
        with pytest.raises(ValueError, match="too big"):
            np.empty(factor * (top + 2))

    def test_fgn_bound_covers_its_complex_spectrum(self):
        # n + 1 complex values, 16 bytes each: numpy sizes no such array
        # once n + 1 reaches 2**59
        with pytest.raises(ValidationError, match="too large"):
            GenSpec(kind="fgn", n=2**59 - 1, h=0.7)
        with pytest.raises(ValueError, match="too big"):
            np.empty(2**59, dtype=complex)
        assert GenSpec(kind="white", n=2**59 - 1).n == 2**59 - 1


# Every real parameter of the public API, called with ``v`` in its slot,
# and a valid value there that float32 holds exactly.
REAL_PARAMETERS = {
    "GenSpec h": (lambda v: GenSpec(kind="fgn", n=8, h=v), 0.75),
    "GenSpec phi": (lambda v: GenSpec(kind="ar1", n=8, phi=v), 0.5),
    "GenSpec r": (lambda v: GenSpec(kind="logistic", n=8, r=v), 3.75),
    "GenSpec x0": (lambda v: GenSpec(kind="logistic", n=8, x0=v), 0.25),
    "GenSpec period": (lambda v: GenSpec(kind="sine", n=8, period=v), 12.0),
    "fgn_autocovariance h": (lambda v: fgn_autocovariance(v, 4), 0.75),
    "EmbeddingParams eps": (lambda v: EmbeddingParams(eps=v), 0.25),
    "lyap_fit dt": (lambda v: lyap_fit(CURVE, 0, 4, dt=v), 0.5),
    "summarize mode_resolution": (lambda v: summarize(GOOD, mode_resolution=v), 0.5),
    "IngestOptions missing_sentinel": (
        lambda v: IngestOptions(format="column", missing_sentinel=v), -999.5
    ),
    "fractal_correlation h": (fractal_correlation, 0.75),
    "fractal_dimension h": (fractal_dimension, 0.75),
}


class TestRealRule:
    """One rule for real parameters: a finite real number, not a bool, kept
    as a Python float."""

    @pytest.mark.parametrize(
        "bad, message",
        [(True, "must be a real number"), ("0.5", "must be a real number"),
         (math.nan, "must be finite"), (math.inf, "must be finite"),
         (-math.inf, "must be finite")],
        ids=["bool", "str", "nan", "inf", "-inf"],
    )
    @pytest.mark.parametrize("parameter", REAL_PARAMETERS)
    def test_non_reals_rejected(self, parameter, bad, message):
        call, _ = REAL_PARAMETERS[parameter]
        with pytest.raises(ValidationError, match=message):
            call(bad)

    @pytest.mark.parametrize("make", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("parameter", REAL_PARAMETERS)
    def test_numpy_floats_accepted(self, parameter, make):
        call, valid = REAL_PARAMETERS[parameter]
        assert repr(call(make(valid))) == repr(call(valid))

    def test_parameters_kept_as_floats(self):
        for kind, name in (("fgn", "h"), ("ar1", "phi"), ("logistic", "r"),
                           ("logistic", "x0"), ("sine", "period")):
            spec = GenSpec(kind=kind, n=8, **{name: np.float32(0.5)})
            assert type(getattr(spec, name)) is float
        assert type(GenSpec(kind="logistic", n=8).r) is float
        assert type(EmbeddingParams(eps=np.float32(0.25)).eps) is float
        assert type(lyap_fit(CURVE, 0, 4, dt=np.float32(0.5)).dt) is float
        opts = IngestOptions(format="column", missing_sentinel=np.float32(-99.5))
        assert type(opts.missing_sentinel) is float
        # an int is a real number, kept as a float
        assert repr(IngestOptions(format="column", missing_sentinel=7).missing_sentinel) == "7.0"


ANCHORED = series(GOOD, start=(2000, 1))

# Every calendar-month parameter of the public API, called with ``v`` in
# its slot; (2000, 3) is valid in each.
CALENDAR_PARAMETERS = {
    "TimeSeries start": lambda v: TimeSeries(GOOD, start=v),
    "IngestOptions range start": lambda v: IngestOptions(format="cpc_table", range=(v, (2003, 1))),
    "IngestOptions range end": lambda v: IngestOptions(format="cpc_table", range=((1999, 1), v)),
    "select_range start": lambda v: select_range(ANCHORED, v, (2002, 1)),
    "select_range end": lambda v: select_range(ANCHORED, (1999, 1), v),
}


class TestCalendarRule:
    """One rule for calendar months: a (year, month) pair of integers, not
    bools, with the month in 1..12, kept as a tuple of ints."""

    @pytest.mark.parametrize(
        "bad, message",
        [((2000, 0), "month 0 outside 1..12"), ((2000, 13), "month 13 outside 1..12"),
         ((2000, 3.0), "pair of integers"), ((True, 3), "pair of integers"),
         (2000, "pair of integers")],
        ids=["month 0", "month 13", "float month", "bool year", "int"],
    )
    @pytest.mark.parametrize("parameter", CALENDAR_PARAMETERS)
    def test_bad_months_rejected(self, parameter, bad, message):
        with pytest.raises(ValidationError, match=message):
            CALENDAR_PARAMETERS[parameter](bad)

    @pytest.mark.parametrize("parameter", CALENDAR_PARAMETERS)
    def test_numpy_integers_accepted(self, parameter):
        call = CALENDAR_PARAMETERS[parameter]
        assert repr(call([np.int64(2000), np.int32(3)])) == repr(call((2000, 3)))

    def test_error_names_the_parameter(self):
        with pytest.raises(ValidationError, match="^range end month 13 outside 1..12$"):
            select_range(ANCHORED, (2000, 1), (2000, 13))
        with pytest.raises(ValidationError, match="^start month 0 outside 1..12$"):
            TimeSeries(GOOD, start=(2000, 0))

    def test_range_kept_as_tuples_of_ints(self):
        opts = IngestOptions(format="cpc_table", range=[[np.int64(2000), 3], (2001, np.uint8(2))])
        assert opts.range == ((2000, 3), (2001, 2))
        assert type(opts.range) is tuple
        assert all(type(end) is tuple and all(type(v) is int for v in end) for end in opts.range)

    @pytest.mark.parametrize(
        "bad", [((2000, 3),), ((2000, 3), (2001, 2), (2002, 1)), "2000-03:2001-02", 2000]
    )
    def test_range_must_be_a_pair(self, bad):
        with pytest.raises(ValidationError, match="range must be a"):
            IngestOptions(format="cpc_table", range=bad)
