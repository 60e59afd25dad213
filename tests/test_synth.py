"""Synthetic generators: determinism, distributions, and exact identities."""

import numpy as np
import pytest

import longmem.synth as synth
from longmem import (
    GenSpec,
    NumericError,
    ValidationError,
    acf_fft,
    fgn_autocovariance,
    generate,
)


class TestGenSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            GenSpec(kind="pink", n=100)

    def test_tiny_n_rejected(self):
        with pytest.raises(ValidationError):
            GenSpec(kind="white", n=1)

    def test_fgn_requires_h_in_open_interval(self):
        for bad in (None, 0.0, 1.0, -0.3, float("nan")):
            with pytest.raises(ValidationError):
                GenSpec(kind="fgn", n=256, h=bad)

    def test_ar1_requires_phi_in_open_interval(self):
        for bad in (None, 1.0, -1.0, 2.5):
            with pytest.raises(ValidationError):
                GenSpec(kind="ar1", n=256, phi=bad)

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("white", {"h": 0.7}),
            ("walk", {"period": 12.0}),
            ("fgn", {"h": 0.7, "phi": 0.3}),
            ("ar1", {"phi": 0.3, "r": 3.9}),
            ("logistic", {"x0": 0.3, "h": 0.7}),
            ("sine", {"period": 12.0, "x0": 0.3}),
        ],
    )
    def test_parameters_the_kind_ignores_rejected(self, kind, extra):
        with pytest.raises(ValidationError, match="takes no"):
            GenSpec(kind=kind, n=16, **extra)

    def test_logistic_defaults_are_filled_in(self):
        spec = GenSpec(kind="logistic", n=16)
        assert (spec.r, spec.x0) == (4.0, 0.2)
        explicit = GenSpec(kind="logistic", n=16, r=4.0, x0=0.2)
        assert np.array_equal(generate(spec).values, generate(explicit).values)

    def test_logistic_parameter_ranges(self):
        GenSpec(kind="logistic", n=16)  # defaults r=4, x0=0.2
        with pytest.raises(ValidationError):
            GenSpec(kind="logistic", n=16, r=4.5)
        with pytest.raises(ValidationError):
            GenSpec(kind="logistic", n=16, r=0.0)
        with pytest.raises(ValidationError):
            GenSpec(kind="logistic", n=16, x0=0.0)
        with pytest.raises(ValidationError):
            GenSpec(kind="logistic", n=16, x0=1.0)

    def test_sine_requires_period(self):
        with pytest.raises(ValidationError):
            GenSpec(kind="sine", n=100)
        with pytest.raises(ValidationError):
            GenSpec(kind="sine", n=100, period=0.0)


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec(kind="white", n=512, seed=3),
            GenSpec(kind="walk", n=512, seed=3),
            GenSpec(kind="fgn", n=512, seed=3, h=0.7),
            GenSpec(kind="ar1", n=512, seed=3, phi=0.5),
            GenSpec(kind="logistic", n=512, seed=3),
            GenSpec(kind="sine", n=512, seed=3, period=50),
        ],
        ids=lambda s: s.kind,
    )
    def test_same_spec_bit_identical(self, spec):
        assert np.array_equal(generate(spec).values, generate(spec).values)

    def test_different_seeds_differ(self):
        a = generate(GenSpec(kind="white", n=256, seed=0)).values
        b = generate(GenSpec(kind="white", n=256, seed=1)).values
        assert not np.array_equal(a, b)

    def test_label_names_recipe(self):
        ts = generate(GenSpec(kind="fgn", n=128, seed=9, h=0.6))
        assert ts.label == "synthetic fgn (n=128, seed=9)"


class TestWhiteAndWalk:
    def test_white_moments(self):
        x = generate(GenSpec(kind="white", n=8192, seed=0)).values
        assert float(np.mean(x)) == pytest.approx(0.0, abs=0.05)
        assert float(np.std(x)) == pytest.approx(1.0, abs=0.05)

    def test_walk_is_cumsum_of_white_bitwise(self):
        white = generate(GenSpec(kind="white", n=2048, seed=5)).values
        walk = generate(GenSpec(kind="walk", n=2048, seed=5)).values
        assert np.array_equal(walk, np.cumsum(white))

    def test_walk_differences_recover_white_numerically(self):
        # exact recovery is impossible after rounding in the partial sums,
        # but the residual is at machine-epsilon scale
        white = generate(GenSpec(kind="white", n=2048, seed=5)).values
        walk = generate(GenSpec(kind="walk", n=2048, seed=5)).values
        assert walk[0] == white[0]
        np.testing.assert_allclose(np.diff(walk), white[1:], rtol=0, atol=1e-10)


class TestFgn:
    def test_autocovariance_anchors(self):
        for h in (0.3, 0.5, 0.7, 0.9):
            gamma = fgn_autocovariance(h, 8)
            assert gamma[0] == 1.0
            assert gamma[1] == pytest.approx(2.0 ** (2.0 * h - 1.0) - 1.0, abs=1e-14)

    def test_half_reduces_to_white_noise(self):
        # H = 0.5: gamma vanishes beyond lag 0, the factor is the identity,
        # and the sample path equals the white series bit for bit
        assert np.all(fgn_autocovariance(0.5, 16)[1:] == 0.0)
        white = generate(GenSpec(kind="white", n=1024, seed=2)).values
        fgn = generate(GenSpec(kind="fgn", n=1024, seed=2, h=0.5)).values
        assert np.array_equal(fgn, white)

    def test_sign_of_memory(self):
        assert np.all(fgn_autocovariance(0.8, 32)[1:] > 0.0)   # persistent
        assert np.all(fgn_autocovariance(0.3, 32)[1:] < 0.0)   # anti-persistent

    def test_increment_variance_identity(self):
        # summing the covariance over a Delta x Delta block reproduces the
        # self-similar variance Delta^2H of the aggregated process
        for h in (0.3, 0.7):
            for delta in (4, 16, 64):
                gamma = fgn_autocovariance(h, delta - 1)
                idx = np.abs(np.subtract.outer(np.arange(delta), np.arange(delta)))
                assert float(gamma[idx].sum()) == pytest.approx(
                    float(delta) ** (2.0 * h), rel=1e-9
                )

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.7, 0.9])
    def test_ensemble_autocovariance_matches_theory(self, h):
        # 20-seed ensemble mean at lags 0..5 within 5 standard errors
        n = 2048
        gamma = fgn_autocovariance(h, 5)
        per_seed = []
        for seed in range(20):
            x = generate(GenSpec(kind="fgn", n=n, seed=seed, h=h)).values
            per_seed.append([float(np.dot(x[: n - k], x[k:]) / n) for k in range(6)])
        per_seed = np.asarray(per_seed)
        mean = per_seed.mean(axis=0)
        sem = per_seed.std(axis=0, ddof=1) / np.sqrt(20.0)
        assert np.all(np.abs(mean - gamma) < 5.0 * sem)

    def test_long_path_lag_one_matches_theory(self):
        # no length cap: a 1e5-sample path is finite and its lag-1
        # autocorrelation sits within 6 sampling scales of 2^(2H-1) - 1
        h, n = 0.7, 100_000
        ts = generate(GenSpec(kind="fgn", n=n, seed=0, h=h))
        assert np.all(np.isfinite(ts.values))
        r1 = acf_fft(ts, 1).coefficients[1]
        tol = 6.0 * max(n**-0.5, n ** (2.0 * h - 2.0))
        assert abs(r1 - (2.0 ** (2.0 * h - 1.0) - 1.0)) < tol

    @pytest.mark.parametrize("n", [4096, 100_000])
    @pytest.mark.parametrize("h", [0.05, 0.1, 0.3, 0.7, 0.9, 0.95, 0.99])
    def test_circulant_eigenvalues_positive(self, h, n):
        # nonnegative in theory (Craigmile 2003); rounding error in gamma at
        # large lags shows first as a negative eigenvalue near h = 1
        assert synth._circulant_eigenvalues(h, n).min() > 0.0

    def test_negative_eigenvalue_raises_not_clipped(self, monkeypatch):
        # gamma = (1, 2, 0, ...) is no covariance: the circulant's
        # eigenvalues 1 + 4 cos(pi k / n) go negative near k = n
        def not_a_covariance(h, max_lag):
            gamma = np.zeros(max_lag + 1)
            gamma[:2] = (1.0, 2.0)
            return gamma

        monkeypatch.setattr(synth, "fgn_autocovariance", not_a_covariance)
        with pytest.raises(NumericError, match="negative eigenvalue"):
            generate(GenSpec(kind="fgn", n=64, seed=0, h=0.7))


class TestAr1:
    @pytest.mark.parametrize("n", [2, 3, 1000, 100_000])
    @pytest.mark.parametrize("phi", [-0.9, 0.0, 0.5, 0.99])
    def test_matches_per_sample_recursion_bitwise(self, phi, n):
        eps = np.random.default_rng(4).standard_normal(n)
        expected = np.empty(n)
        expected[0] = eps[0] / np.sqrt(1.0 - phi * phi)
        for t in range(1, n):
            expected[t] = phi * expected[t - 1] + eps[t]
        values = generate(GenSpec(kind="ar1", n=n, seed=4, phi=phi)).values
        assert values.dtype == np.float64
        assert np.array_equal(values, expected)

    def test_lag_one_autocorrelation(self):
        for phi in (0.5, -0.4):
            ts = generate(GenSpec(kind="ar1", n=4096, seed=0, phi=phi))
            assert acf_fft(ts, 1).coefficients[1] == pytest.approx(phi, abs=0.05)

    def test_stationary_variance(self):
        for phi in (0.5, -0.4):
            ts = generate(GenSpec(kind="ar1", n=4096, seed=0, phi=phi))
            target = 1.0 / (1.0 - phi * phi)
            assert float(np.var(ts.values)) == pytest.approx(target, rel=0.1)


class TestLogistic:
    def test_first_iterates_from_default_start(self):
        # r = 4, x0 = 0.2: 0.64, 0.9216, 0.28901376, 0.82193923...
        values = generate(GenSpec(kind="logistic", n=4, seed=0)).values
        expected = [0.64, 0.9216, 0.28901376, 0.8219392261226504]
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)

    def test_output_excludes_seed_point(self):
        values = generate(GenSpec(kind="logistic", n=8, seed=0, x0=0.3)).values
        assert values[0] == pytest.approx(4.0 * 0.3 * 0.7, abs=1e-15)

    def test_stays_in_unit_interval(self):
        values = generate(GenSpec(kind="logistic", n=5000, seed=0)).values
        assert np.all(values > 0.0)
        assert np.all(values < 1.0)

    def test_sensitive_to_initial_condition(self):
        a = generate(GenSpec(kind="logistic", n=100, seed=0, x0=0.2)).values
        b = generate(GenSpec(kind="logistic", n=100, seed=0, x0=0.2 + 1e-12)).values
        assert abs(a[-1] - b[-1]) > 0.01


class TestSine:
    def test_samples_of_unit_sine(self):
        values = generate(GenSpec(kind="sine", n=100, seed=0, period=50)).values
        assert values[0] == 0.0
        np.testing.assert_allclose(
            values, np.sin(2.0 * np.pi * np.arange(100) / 50.0), rtol=0, atol=0
        )

    def test_periodicity(self):
        values = generate(GenSpec(kind="sine", n=200, seed=0, period=50)).values
        np.testing.assert_allclose(values[50:], values[:150], rtol=0, atol=1e-9)

    def test_bounded(self):
        values = generate(GenSpec(kind="sine", n=1000, seed=0, period=37.5)).values
        assert np.max(np.abs(values)) <= 1.0
