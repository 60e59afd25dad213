"""Autocorrelation estimators: dual-route equivalence and diagnostics."""

import tracemalloc

import numpy as np
import pytest

from longmem import (
    GenSpec,
    NumericError,
    TimeSeries,
    ValidationError,
    acf,
    acf_direct,
    acf_fft,
    band_mean,
    first_zero_crossing,
    generate,
)


def series(values):
    return TimeSeries(values=np.asarray(values, dtype=float))


class TestBasicContract:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(0)
        for compute in (acf_direct, acf_fft):
            result = compute(series(rng.standard_normal(50)), 10)
            assert result.coefficients[0] == 1.0

    def test_alternating_series_closed_form(self):
        # x = [1,-1,1,...] has r_1 = -(n-1)/n under the biased estimator
        n = 100
        x = np.array([1.0, -1.0] * (n // 2))
        result = acf_direct(series(x), 3)
        assert result.coefficients[1] == pytest.approx(-(n - 1) / n, abs=1e-12)

    def test_ar1_lag_one_near_phi(self):
        ts = generate(GenSpec(kind="ar1", n=10000, seed=0, phi=0.5))
        r1 = acf_direct(ts, 1).coefficients[1]
        assert r1 == pytest.approx(0.5, abs=0.03)

    def test_coefficients_bounded(self):
        rng = np.random.default_rng(1)
        result = acf_fft(series(rng.standard_normal(300)), 150)
        assert np.all(np.abs(result.coefficients) <= 1.0 + 1e-12)

    def test_accepts_plain_arrays(self):
        x = np.random.default_rng(2).standard_normal(64)
        a = acf_direct(x, 5)
        b = acf_direct(series(x), 5)
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-15)

    def test_result_metadata(self):
        result = acf_direct(series([1.0, 2.0, 1.0, 3.0]), 2)
        assert result.n == 4
        assert result.max_lag == 2
        assert len(result.coefficients) == 3


def smooth_ceilings(top):
    """Index m holds the smallest 2**a * 3**b * 5**c >= m, by trial division."""

    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    ceil = [0] * (top + 1)
    k = 2 * top  # a power of two lies in [top, 2 * top]
    for m in range(2 * top, 0, -1):
        if smooth(m):
            k = m
        if m <= top:
            ceil[m] = k
    return ceil


def ends_heavy(n, seed=0):
    """Small noise between a large first and last sample.

    A transform one sample too short adds d_0 * d_(n-1) to the top lag's
    sum, which here is of the order of the whole sum of squares.
    """
    x = 1e-3 * np.random.default_rng(seed).standard_normal(n)
    x[0], x[-1] = 3.0, -2.0
    return x


def length_cases():
    cases = set()
    for n in (2, 3, 17, 776, 4096, 4097):
        cases.update((n, k) for k in (1, 2, 7, n // 3, n - 1) if 1 <= k < n)
    # n + max_lag exactly 5-smooth (18, 900, 4320), then one past it
    for n, k in ((17, 1), (776, 124), (4096, 224), (4097, 223)):
        cases.update(((n, k), (n, k + 1)))
    return sorted(cases)


class TestDualRouteEquivalence:
    @pytest.mark.parametrize("n", [17, 64, 255, 777])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_fft_matches_direct(self, n, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        max_lag = n - 1
        a = acf_direct(series(x), max_lag)
        b = acf_fft(series(x), max_lag)
        np.testing.assert_allclose(
            b.coefficients, a.coefficients, rtol=0.0, atol=1e-10
        )

    @pytest.mark.parametrize("n,max_lag", length_cases())
    def test_fft_matches_direct_at_every_length(self, n, max_lag):
        x = ends_heavy(n)
        a = acf_direct(x, max_lag)
        b = acf_fft(x, max_lag)
        np.testing.assert_allclose(
            b.coefficients, a.coefficients, rtol=0.0, atol=1e-10
        )

    def test_tiny_series_exact(self):
        a = acf_direct(series([1.0, 2.0, 3.0, 4.0]), 3)
        b = acf_fft(series([1.0, 2.0, 3.0, 4.0]), 3)
        np.testing.assert_allclose(b.coefficients, a.coefficients, atol=1e-12)


class TestTransformLength:
    def test_smallest_smooth_length_by_brute_force(self):
        ceil = smooth_ceilings(20_000)
        assert [acf._fft_length(m) for m in range(1, 20_001)] == ceil[1:]

    @pytest.mark.parametrize("n,max_lag", length_cases())
    def test_one_short_transform_wraps_the_top_lag(self, monkeypatch, n, max_lag):
        # the series make a transform of n + max_lag - 1 visible
        x = ends_heavy(n)
        exact = acf_direct(x, max_lag).coefficients[-1]
        monkeypatch.setattr(acf, "_fft_length", lambda m: m - 1)
        assert abs(acf_fft(x, max_lag).coefficients[-1] - exact) > 0.1

    def test_shared_lags_agree_across_max_lag(self):
        # each max_lag takes its own length (800 and 864 here), so the
        # shared lags agree to rounding, not bit for bit
        x = generate(GenSpec(kind="fgn", n=776, h=0.7, seed=3))
        short = acf_fft(x, 20).coefficients
        long = acf_fft(x, 72).coefficients[:21]
        np.testing.assert_allclose(long, short, rtol=0.0, atol=1e-13)

    def test_memory_at_1e5(self):
        ts = generate(GenSpec(kind="fgn", n=100_000, h=0.7, seed=3))
        tracemalloc.start()
        try:
            acf_fft(ts, 365)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a transform of the power of two >= 2n peaked at 9.1 times the
        # series' bytes at n = 776 000; about 3 times remain
        assert peak <= 9.1 * ts.values.nbytes


class TestInvariances:
    def test_affine_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(200)
        base = acf_fft(series(x), 30).coefficients
        for a, b in ((2.5, 1.0), (-3.0, 7.0), (0.001, -4.0)):
            moved = acf_fft(series(a * x + b), 30).coefficients
            np.testing.assert_allclose(moved, base, atol=1e-10)

    def test_white_noise_small_tails(self):
        # loose 4/sqrt(n) bound on lags 1..20 flags gross errors only
        n = 4096
        bound = 4.0 / np.sqrt(n)
        for seed in range(20):
            ts = generate(GenSpec(kind="white", n=n, seed=seed))
            coeffs = acf_fft(ts, 20).coefficients
            assert np.max(np.abs(coeffs[1:])) <= bound


class TestZeroCrossing:
    def test_alternating_crosses_at_one(self):
        x = np.array([1.0, -1.0] * 50)
        assert first_zero_crossing(acf_direct(series(x), 10)) == 1

    def test_monotone_trend_never_crosses(self):
        result = acf_direct(series(np.arange(40.0)), 5)
        assert first_zero_crossing(result) is None

    def test_touching_zero_counts(self):
        from longmem import AcfResult

        result = AcfResult(max_lag=3, coefficients=[1.0, 0.5, 0.0, -0.2], n=50)
        assert first_zero_crossing(result) == 2


class TestBandMean:
    def test_single_lag_band_is_that_coefficient(self):
        rng = np.random.default_rng(13)
        result = acf_fft(series(rng.standard_normal(100)), 20)
        for k in (1, 7, 20):
            assert band_mean(result, k, k) == pytest.approx(
                float(result.coefficients[k]), abs=1e-15
            )

    def test_mean_over_band(self):
        from longmem import AcfResult

        result = AcfResult(max_lag=4, coefficients=[1.0, 0.4, 0.2, 0.0, -0.2], n=9)
        assert band_mean(result, 2, 4) == pytest.approx(0.0)

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(14)
        result = acf_fft(series(rng.standard_normal(50)), 10)
        with pytest.raises(ValidationError):
            band_mean(result, 0, 5)
        with pytest.raises(ValidationError):
            band_mean(result, 3, 11)
        with pytest.raises(ValidationError):
            band_mean(result, 7, 5)


class TestErrors:
    def test_constant_series_rejected(self):
        for compute in (acf_direct, acf_fft):
            with pytest.raises(NumericError):
                compute(series([3.0, 3.0, 3.0, 3.0]), 2)

    def test_max_lag_bounds(self):
        for compute in (acf_direct, acf_fft):
            with pytest.raises(ValidationError):
                compute(series([1.0, 2.0, 3.0]), 0)
            with pytest.raises(ValidationError):
                compute(series([1.0, 2.0, 3.0]), 3)
