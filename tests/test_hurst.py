"""Rescaled-range statistics, Hurst fits, and the estimator suite."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from longmem import (
    GenSpec,
    NumericError,
    RsPoint,
    TimeSeries,
    ValidationError,
    expected_rescaled_range,
    fit_h,
    fractal_correlation,
    fractal_dimension,
    generate,
    hurst_suite,
    rs_statistic,
    rs_table,
)
from longmem import hurst
from longmem.core import _moments
from longmem.hurst import (
    WARN_H_OUT_OF_RANGE,
    _block_rs_values,
    _divisor_ladder,
    _rs_points,
    _suite_ladder,
    default_window_ladder,
)


def series(values):
    return TimeSeries(values=np.asarray(values, dtype=float))


class TestRsStatistic:
    def test_hand_evaluated_four_points(self):
        # partial-sum deviations (-1.5, -2, -1.5, 0): R = 2, S = sqrt(5/3)
        assert rs_statistic([1.0, 2.0, 3.0, 4.0]) == pytest.approx(
            2.0 / math.sqrt(5.0 / 3.0), abs=1e-12
        )

    def test_hand_evaluated_two_points(self):
        # deviations (-0.5, 0): R = 0.5, S = sqrt(0.5)
        assert rs_statistic([1.0, 2.0]) == pytest.approx(
            0.5 / math.sqrt(0.5), abs=1e-12
        )

    def test_constant_block_rejected(self):
        with pytest.raises(NumericError):
            rs_statistic([3.0, 3.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            rs_statistic([1.0])

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(64)
        base = rs_statistic(x)
        assert rs_statistic(x + 17.5) == pytest.approx(base, abs=1e-10)
        assert rs_statistic(3.25 * x) == pytest.approx(base, abs=1e-10)
        assert rs_statistic(0.004 * x - 9.0) == pytest.approx(base, abs=1e-10)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(64)
        assert rs_statistic(-x) == pytest.approx(rs_statistic(x), abs=1e-10)


class TestRsTable:
    def test_sixteen_samples_two_windows(self):
        rng = np.random.default_rng(23)
        table = rs_table(series(rng.standard_normal(16)), min_window=8)
        assert [p.window for p in table] == [8, 16]
        assert [p.blocks for p in table] == [2, 1]
        assert table.points[1].std_rs == 0.0

    def test_default_ladder_structure(self):
        assert default_window_ladder(4096, 8) == [
            8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
        ]
        # non power of two: n/2 and n appear alongside the factor-2 rungs
        assert default_window_ladder(100, 8) == [8, 16, 32, 50, 100]

    def test_remainder_discarded(self):
        table = rs_table(series(np.sin(np.arange(20.0))), scheme=[8])
        assert table.points[0].blocks == 2  # 20 // 8

    def test_white_noise_slope_near_half(self):
        ts = generate(GenSpec(kind="white", n=4096, seed=0))
        table = rs_table(ts)
        lw = np.log2([p.window for p in table])
        lm = np.log2([p.mean_rs for p in table])
        slope = np.polyfit(lw, lm, 1)[0]
        assert slope == pytest.approx(0.5, abs=0.1)

    def test_zero_variance_blocks_skipped_and_counted(self):
        x = np.concatenate([np.zeros(8), np.array([1.0, 5.0, 2.0, 7.0, 1.5, 3.0, 2.2, 8.0])])
        table = rs_table(series(x), scheme=[8])
        assert table.skipped_blocks == 1
        assert table.points[0].blocks == 1

    def test_constant_series_rejected(self):
        with pytest.raises((ValidationError, NumericError)):
            rs_table(series(np.ones(64)))

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            rs_table(series(np.arange(10.0)), min_window=8)

    def test_scheme_bounds_checked(self):
        ts = series(np.random.default_rng(1).standard_normal(64))
        with pytest.raises(ValidationError):
            rs_table(ts, scheme=[8, 128])

    def test_explicit_scheme_on_a_short_series(self):
        # the min_window length rule belongs to the default ladder only
        x = np.arange(10.0) ** 2
        table = rs_table(x, scheme=[2, 5])
        assert [(p.window, p.blocks) for p in table] == [(2, 5), (5, 2)]
        assert table.points[0].mean_rs == pytest.approx(np.mean(
            [rs_statistic(x[i : i + 2]) for i in range(0, 10, 2)]
        ))
        with pytest.raises(ValidationError, match="too short for min_window 8"):
            rs_table(x)

    @pytest.mark.parametrize("scheme", [[1, 5], [2, 11], [0]])
    def test_explicit_scheme_windows_stay_in_2_n(self, scheme):
        with pytest.raises(ValidationError, match=r"lie in \[2, n\]"):
            rs_table(np.arange(10.0) ** 2, scheme=scheme)

    def test_mean_rs_positive(self):
        ts = generate(GenSpec(kind="white", n=256, seed=9))
        assert all(p.mean_rs > 0 for p in rs_table(ts))


def is_flat(block):
    """The constancy rule: all values equal, or a variance that comes out 0."""
    return block.max() == block.min() or np.std(block, ddof=1) == 0.0


def looped_block_rs(x, window):
    """Per-block reference for the row-wise pass: ``rs_statistic`` on each
    full block that is not flat, and the count of the others."""
    values, skipped = [], 0
    for b in range(x.size // window):
        block = x[b * window : (b + 1) * window]
        if is_flat(block):
            skipped += 1
        else:
            values.append(rs_statistic(block))
    return values, skipped


def trial_division_ladder(n, min_div):
    """Reference for ``_divisor_ladder``: trial division of every candidate
    length by every d in [min_div, length/2]."""
    lo = int(math.floor(0.99 * n))
    while True:
        best_len, best_divs = n, []
        for cand in range(lo, n + 1):
            d = np.arange(min_div, cand // 2 + 1)
            divs = d[cand % d == 0].tolist()
            if len(divs) >= len(best_divs):
                best_len, best_divs = cand, divs
        if len(best_divs) >= 3 or min_div <= 2:
            return best_len, best_divs
        min_div = max(2, min_div // 2)


class TestBlockPass:
    @pytest.mark.parametrize("n", [776, 4096])
    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_equals_per_block_loop_on_both_ladders(self, n, h):
        x = generate(GenSpec(kind="fgn", n=n, seed=n, h=h)).values
        opt_n, ladder = _divisor_ladder(n, min_div=min(50, n // 4))
        cases = [(x, w) for w in default_window_ladder(n)]
        cases += [(x[n - opt_n :], w) for w in ladder]
        for segment, w in cases:
            values, skipped = _block_rs_values(segment, w)
            assert (values.tolist(), skipped) == looped_block_rs(segment, w), w

    @pytest.mark.parametrize("levels", [(0.25, -1.0), (0.7, -2.8)])
    def test_flat_blocks_skipped_like_the_loop(self, levels):
        # the reference raises NumericError if a flat block reaches
        # rs_statistic; numpy's variance of 0.7s or -2.8s is not 0
        x = generate(GenSpec(kind="white", n=512, seed=4)).values.copy()
        x[:24] = levels[0]  # three flat blocks of 8, one of 16
        x[200:264] = levels[1]  # holds the flat block [200, 250) at window 50
        flat_windows = []
        for w in (2, 3, 8, 16, 50, 64, 256, 512):
            values, skipped = _block_rs_values(x, w)
            assert (values.tolist(), skipped) == looped_block_rs(x, w), w
            assert np.all(np.isfinite(values))
            if skipped:
                flat_windows.append(w)
        assert flat_windows == [2, 3, 8, 16, 50]
        table = rs_table(series(x), scheme=[8, 16])
        assert table.skipped_blocks == sum(looped_block_rs(x, w)[1] for w in (8, 16))


def two_pass_block_rs_values(x, window):
    """Oracle of the single-centring pass: ``np.std`` of each row, a masked
    copy of the rows that are not flat (max above min, nonzero ``np.std``),
    then ``np.mean`` of those rows and an out-of-place running sum."""
    nb = x.size // window
    blocks = x[: nb * window].reshape(nb, window)
    s = np.std(blocks, axis=1, ddof=1)
    varying = (blocks.max(axis=1) != blocks.min(axis=1)) & (s != 0.0)
    blocks, s = blocks[varying], s[varying]
    deviations = np.cumsum(blocks - np.mean(blocks, axis=1, keepdims=True), axis=1)
    r = np.max(deviations, axis=1) - np.min(deviations, axis=1)
    return r / s, nb - s.size


def two_pass_rs_points(x, windows):
    """Oracle of ``_rs_points``: the oracle pass, with each window's R/S
    values aggregated by ``np.mean`` and ``np.std(ddof=1)``."""
    points, skipped_total = [], 0
    for w in windows:
        values, skipped = two_pass_block_rs_values(x, w)
        skipped_total += skipped
        if not values.size:
            continue
        if is_flat(values):  # one block included
            mean, std = float(values[0]), 0.0
        else:
            mean, std = float(np.mean(values)), float(np.std(values, ddof=1))
        points.append(RsPoint(window=w, mean_rs=mean, std_rs=std, blocks=values.size))
    return points, skipped_total


def point_bits(points):
    return [(p.window, p.mean_rs.hex(), p.std_rs.hex(), p.blocks) for p in points]


def suite_bits(suite):
    return [v.hex() for v in dataclasses.astuple(suite)]


def oracle_grid_input(kind, n):
    if kind == "fgn":
        return generate(GenSpec(kind="fgn", n=n, seed=n, h=0.7)).values
    white = generate(GenSpec(kind="white", n=n, seed=n + 1)).values
    if kind == "rounded":
        return np.round(white, 1)
    if kind in ("flat", "flat_decimal"):
        low, high = (0.25, -1.0) if kind == "flat" else (0.7, -2.8)
        flat = white.copy()
        flat[: n // 4] = low
        flat[n // 2 : n // 2 + n // 8] = high
        return flat
    return white


class TestSingleCentringOracle:
    """The single-centring pass and its aggregation give the bits of the
    two-pass ``np.std``/``np.mean`` code they replaced."""

    @pytest.mark.parametrize("n", [32, 33, 776, 4096, 100_003])
    @pytest.mark.parametrize("kind", ["fgn", "white", "rounded", "flat", "flat_decimal"])
    def test_points_and_suite_match_the_two_pass_oracle(self, kind, n, monkeypatch):
        x = oracle_grid_input(kind, n)
        for w in (2, 3, n):
            values, skipped = _block_rs_values(x, w)
            want_values, want_skipped = two_pass_block_rs_values(x, w)
            assert (values.tobytes(), skipped) == (want_values.tobytes(), want_skipped), w
        for scheme in (None, [2, 3, n]):
            table = rs_table(x, scheme=scheme)
            windows = [p.window for p in table] if scheme is None else scheme
            want, want_skipped = two_pass_rs_points(x, windows)
            assert point_bits(table) == point_bits(want)
            assert table.skipped_blocks == want_skipped
        suite = hurst_suite(x)
        monkeypatch.setattr(hurst, "_rs_points", two_pass_rs_points)
        monkeypatch.setattr(hurst, "_suite_ladder", _suite_ladder.__wrapped__)
        assert suite_bits(suite) == suite_bits(hurst_suite(x))

    @settings(max_examples=150, deadline=None)
    @given(
        values=arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 2000)),
            elements=st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
        )
    )
    @example(values=np.array([[-0.0]]))  # a single -0.0 keeps its sign as the mean
    def test_moments_match_numpy(self, values):
        # one varying row and one constant row as the aggregation sees them,
        # all rows as the block pass does; every third row from the second is
        # made constant, at a value whose numpy moments are mostly not exact
        values[1::3] = values[1::3, :1]
        for a in (values[0], *values[1:2], values):
            mean, centred, variance, flat = _moments(a)
            rows = a.reshape(-1, a.shape[-1])
            equal = rows.max(axis=1) == rows.min(axis=1)
            want_mean = np.mean(rows, axis=1, keepdims=True)
            if rows.shape[1] > 1:
                want_var = np.var(rows, axis=1, ddof=1)
                want_std = np.std(rows, axis=1, ddof=1)
                assert np.sqrt(np.ravel(variance))[~equal].tobytes() == want_std[~equal].tobytes()
                want_var[equal] = 0.0
            else:
                want_var = np.zeros(rows.shape[0])  # numpy would give NaN
            want_mean[equal] = rows[equal, :1]
            want_centred = np.where(equal[:, None], 0.0, rows - want_mean)
            assert mean.tobytes() == want_mean.tobytes()
            assert centred.tobytes() == want_centred.tobytes()
            assert np.ravel(variance).tobytes() == want_var.tobytes()
            assert flat.tolist() == np.flatnonzero(equal | (want_var == 0.0)).tolist()


class TestSuiteLadderCache:
    def test_warm_call_equals_cold_call(self):
        x = generate(GenSpec(kind="fgn", n=4096, seed=11, h=0.7))
        _suite_ladder.cache_clear()
        cold = hurst_suite(x)
        assert _suite_ladder.cache_info().currsize == 1
        warm = hurst_suite(x)
        assert _suite_ladder.cache_info().hits == 1
        assert suite_bits(warm) == suite_bits(cold)

    def test_holds_the_ladder_and_its_expectations(self):
        for n in (32, 776, 4096):
            opt_n, ladder, expected = _suite_ladder(n)
            assert (opt_n, list(ladder)) == _divisor_ladder(n, min(50, n // 4))
            assert [e.hex() for e in expected] == [
                expected_rescaled_range(w).hex() for w in ladder
            ]

    def test_another_length_between_leaves_the_bits(self):
        x1 = generate(GenSpec(kind="fgn", n=776, seed=12, h=0.7))
        x2 = generate(GenSpec(kind="white", n=1000, seed=13))
        _suite_ladder.cache_clear()
        first = hurst_suite(x1)
        hurst_suite(x2)
        again = hurst_suite(x1)
        assert _suite_ladder.cache_info().currsize == 2
        assert suite_bits(again) == suite_bits(first)

    def test_cached_value_cannot_be_mutated(self):
        opt_n, ladder, expected = _suite_ladder(4096)
        assert type(ladder) is tuple and type(expected) is tuple
        with pytest.raises(TypeError):
            ladder[0] = 2
        with pytest.raises(TypeError):
            expected[0] = 0.0
        assert _suite_ladder(4096) == (opt_n, ladder, expected)

    def test_cache_is_bounded(self):
        maxsize = _suite_ladder.cache_info().maxsize
        assert maxsize is not None
        for n in range(32, 32 + maxsize + 8):
            _suite_ladder(n)
        assert _suite_ladder.cache_info().currsize == maxsize


class TestDivisorLadder:
    def test_matches_trial_division_for_every_short_length(self):
        # min_div = n // 4 is relaxed for 198 of these lengths
        for n in range(32, 3001):
            min_div = min(50, n // 4)
            assert _divisor_ladder(n, min_div) == trial_division_ladder(n, min_div), n

    @pytest.mark.parametrize("n", [99_991, 100_000, 100_003])
    def test_matches_trial_division_near_daily_scale(self, n):
        assert _divisor_ladder(n, 50) == trial_division_ladder(n, 50)


class TestFitH:
    def power_law_points(self, h, windows=(8, 16, 32, 64, 128)):
        return [
            RsPoint(window=w, mean_rs=float(w) ** h, std_rs=0.1, blocks=4)
            for w in windows
        ]

    def test_exact_power_law(self):
        est = fit_h(self.power_law_points(0.7))
        assert est.h == pytest.approx(0.7, abs=1e-12)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)
        assert est.std_err == pytest.approx(0.0, abs=1e-12)
        assert est.fractal_dimension == pytest.approx(1.0 / 0.7, rel=1e-12)
        assert est.points_used == 5
        assert est.warnings == ()

    def test_fractal_dimension_inverse_relation(self):
        est = fit_h(self.power_law_points(0.4))
        assert est.h * est.fractal_dimension == pytest.approx(1.0, abs=1e-12)

    def test_accepts_table_or_iterable(self):
        ts = generate(GenSpec(kind="white", n=512, seed=2))
        table = rs_table(ts)
        assert fit_h(table).h == fit_h(list(table)).h

    def test_weighted_prefers_low_scatter_points(self):
        # outlier with huge scatter: weighted fit should shrug it off
        points = self.power_law_points(0.6, windows=(8, 16, 32, 64))
        points.append(RsPoint(window=128, mean_rs=128.0**0.9, std_rs=50.0, blocks=2))
        unweighted = fit_h(points, weighted=False)
        weighted = fit_h(points, weighted=True)
        assert abs(weighted.h - 0.6) < abs(unweighted.h - 0.6)
        assert weighted.weighted is True

    def test_zero_scatter_gets_largest_finite_weight(self):
        points = self.power_law_points(0.6)
        points[0] = RsPoint(window=8, mean_rs=8.0**0.6, std_rs=0.0, blocks=1)
        est = fit_h(points, weighted=True)
        assert est.h == pytest.approx(0.6, abs=1e-9)

    def test_all_zero_scatter_falls_back_to_uniform(self):
        points = [
            RsPoint(window=w, mean_rs=float(w) ** 0.55, std_rs=0.0, blocks=1)
            for w in (8, 16, 32)
        ]
        est = fit_h(points, weighted=True)
        assert est.h == pytest.approx(0.55, abs=1e-12)

    def test_trending_series_fits_near_one(self):
        # strong linear trend: R/S grows ~ w, so the exponent saturates near 1
        t = np.arange(512.0)
        noise = 0.001 * np.random.default_rng(3).standard_normal(512)
        est = fit_h(rs_table(series(t + noise)))
        assert est.h > 0.9
        assert est.warnings == ()

    def test_out_of_range_exponent_flags_warning(self):
        high = fit_h(self.power_law_points(1.8))
        assert high.h == pytest.approx(1.8, abs=1e-12)
        assert any(w.code == WARN_H_OUT_OF_RANGE for w in high.warnings)
        low = fit_h(self.power_law_points(-0.2))
        assert low.h < 0.0
        assert any(w.code == WARN_H_OUT_OF_RANGE for w in low.warnings)
        assert low.fractal_dimension == math.inf or low.fractal_dimension < 0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            fit_h(self.power_law_points(0.5, windows=(8, 16)))

    def test_duplicate_windows_rejected(self):
        points = [
            RsPoint(window=8, mean_rs=2.0, std_rs=0.1, blocks=4),
            RsPoint(window=8, mean_rs=2.1, std_rs=0.1, blocks=4),
            RsPoint(window=8, mean_rs=2.2, std_rs=0.1, blocks=4),
        ]
        with pytest.raises(ValidationError):
            fit_h(points)


class TestExpectedRescaledRange:
    def test_hand_checked_values(self):
        # evaluated from the Gamma-prefactor formula by hand
        assert expected_rescaled_range(8) == pytest.approx(2.46056, abs=1e-4)
        assert expected_rescaled_range(16) == pytest.approx(3.90942, abs=1e-4)

    def test_strictly_increasing_within_each_form(self):
        exact = [expected_rescaled_range(w) for w in range(2, 341)]
        assert all(b > a for a, b in zip(exact, exact[1:]))
        asymptotic = [expected_rescaled_range(w) for w in range(341, 600)]
        assert all(b > a for a, b in zip(asymptotic, asymptotic[1:]))

    def test_continuous_across_form_switch(self):
        # exact Gamma prefactor hands off to the asymptotic prefactor;
        # the two evaluations straddling the switch agree to ~0.1%
        below = expected_rescaled_range(340)
        above = expected_rescaled_range(341)
        assert abs(above / below - 1.0) < 1e-3

    def test_ratio_converges_to_sqrt_half_pi(self):
        target = math.sqrt(math.pi / 2.0)
        r1 = expected_rescaled_range(1000) / math.sqrt(1000)
        r2 = expected_rescaled_range(100000) / math.sqrt(100000)
        assert abs(r2 - target) < abs(r1 - target)
        assert r2 == pytest.approx(target, abs=5e-3)

    def test_tiny_window_rejected(self):
        with pytest.raises(ValidationError):
            expected_rescaled_range(1)


class TestHurstSuite:
    def test_white_noise_single_seed(self):
        suite = hurst_suite(generate(GenSpec(kind="white", n=4096, seed=0)))
        assert suite.h_corrected_empirical == pytest.approx(0.5, abs=0.1)
        assert suite.h_corrected_rs == pytest.approx(0.5, abs=0.1)

    def test_theoretical_in_small_sample_band(self):
        # Anis-Lloyd bias is positive and shrinks with n
        for n in (100, 1000, 10000, 100000):
            rng = np.random.default_rng(n)
            suite = hurst_suite(series(rng.standard_normal(n)))
            assert 0.5 < suite.h_theoretical < 0.65

    def test_all_fields_finite(self):
        suite = hurst_suite(generate(GenSpec(kind="fgn", n=512, seed=5, h=0.7)))
        for field in (
            "h_simple",
            "h_corrected_rs",
            "h_empirical",
            "h_corrected_empirical",
            "h_theoretical",
        ):
            assert math.isfinite(getattr(suite, field))

    def test_fgn_grid_recovered_by_corrected_empirical(self):
        # 20-seed ensemble mean within +-0.08 across anti-persistent,
        # neutral, and persistent regimes
        for target in (0.3, 0.5, 0.7, 0.8):
            values = [
                hurst_suite(
                    generate(GenSpec(kind="fgn", n=2048, seed=seed, h=target))
                ).h_corrected_empirical
                for seed in range(20)
            ]
            assert float(np.mean(values)) == pytest.approx(target, abs=0.08)

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError):
            hurst_suite(series(np.arange(31.0)))

    def test_daily_scale_series(self):
        # One path of 100 000 samples holds more data than the 20-path,
        # n = 2048 ensemble above (40 960 samples), so it is held to that
        # test's +-0.08 rule.
        ts = generate(GenSpec(kind="fgn", n=100_000, seed=7, h=0.7))
        suite = hurst_suite(ts)
        assert all(math.isfinite(v) for v in vars(suite).values())
        assert suite.h_corrected_empirical == pytest.approx(0.7, abs=0.08)
        table = rs_table(ts)
        assert [p.window for p in table] == default_window_ladder(100_000)
        assert all(math.isfinite(p.mean_rs) and math.isfinite(p.std_rs) for p in table)
        assert math.isfinite(fit_h(table).h)


class TestFractal:
    def test_round_trip_identity(self):
        for h in np.arange(0.05, 1.0, 0.05):
            rho = fractal_correlation(float(h)).rho
            assert 2.0**(2.0 * h) == pytest.approx(2.0 + 2.0 * rho, abs=1e-12)

    def test_memoryless_point(self):
        assert fractal_correlation(0.5).rho == pytest.approx(0.0, abs=1e-15)

    def test_spot_values(self):
        assert fractal_correlation(0.561).rho == pytest.approx(0.088, abs=1e-3)
        assert fractal_correlation(0.704).rho == pytest.approx(0.326, abs=1e-3)

    def test_range_open_interval(self):
        assert -0.5 < fractal_correlation(0.01).rho < 1.0
        assert -0.5 < fractal_correlation(0.99).rho < 1.0

    def test_out_of_domain_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValidationError):
                fractal_correlation(bad)

    def test_dimension_values(self):
        assert fractal_dimension(0.561) == pytest.approx(1.78, abs=5e-3)
        assert fractal_dimension(0.704) == pytest.approx(1.420, abs=5e-3)
        assert fractal_dimension(1.0) == 1.0

    def test_dimension_domain(self):
        with pytest.raises(ValidationError):
            fractal_dimension(0.0)
        with pytest.raises(ValidationError):
            fractal_dimension(-1.0)
