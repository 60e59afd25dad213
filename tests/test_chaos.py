"""Delay embedding, Kantz divergence curves, and Lyapunov fits."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from longmem import chaos
from longmem import (
    DivergenceCurve,
    EmbeddingParams,
    EpsTooSmallError,
    GenSpec,
    LyapunovFit,
    NumericError,
    TimeSeries,
    ValidationError,
    embed,
    generate,
    lyap_fit,
    lyap_k,
    standardize,
)


def series(values):
    return TimeSeries(values=np.asarray(values, dtype=float))


def full_scan_neighbours(x, n_valid, refs, params):
    """Each reference's neighbours, by testing every embedded vector."""
    vectors = embed(x, params.m, params.d)[:n_valid]
    found = []
    for i in refs:
        dist = np.max(np.abs(vectors - vectors[i]), axis=1)
        mask = (dist < params.eps) & (np.abs(np.arange(n_valid) - i) > params.theiler)
        found.append(np.nonzero(mask)[0])
    return found


def full_scan_lyap_k(ts, params):
    """``lyap_k`` as one full scan and one divergence pass per reference.

    The reference implementation for the sorted-window search. Returns
    ``((s_values, ref_counts), max_neighbors)``, or ``(None,
    max_neighbors)`` where ``lyap_k`` raises ``EpsTooSmallError``.
    """
    x = standardize(ts).values
    offset = (params.m - 1) * params.d
    n_valid = x.size - offset - params.s + 1
    refs = chaos._reference_indices(n_valid, params)
    steps = np.arange(params.s)
    contributions = []
    max_neighbors = 0
    for i, neighbors in zip(refs, full_scan_neighbours(x, n_valid, refs, params)):
        max_neighbors = max(max_neighbors, neighbors.size)
        if neighbors.size < params.k_min:
            continue
        gaps = np.abs(x[neighbors[:, None] + offset + steps] - x[i + offset + steps])
        live = np.count_nonzero(gaps, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            row = np.log(gaps.sum(axis=0) / live)
        row[live == 0] = np.nan
        contributions.append(row)
    if not contributions:
        return None, max_neighbors
    stacked = np.asarray(contributions)
    ref_counts = np.count_nonzero(~np.isnan(stacked), axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a step every reference sits out
        s_values = np.nanmean(stacked, axis=0)
    s_values[ref_counts == 0] = np.nan
    return (s_values, ref_counts), max_neighbors


def assert_matches_full_scan(ts, params):
    expected, max_neighbors = full_scan_lyap_k(ts, params)
    if expected is None:
        with pytest.raises(EpsTooSmallError) as exc:
            lyap_k(ts, params)
        assert exc.value.max_neighbors == max_neighbors
        return
    curve = lyap_k(ts, params)
    assert np.array_equal(curve.s_values, expected[0], equal_nan=True)
    assert np.array_equal(curve.ref_counts, expected[1])


def oracle_series(kind, n):
    if kind == "fgn":
        return generate(GenSpec(kind="fgn", n=n, h=0.7, seed=n))
    if kind == "logistic":
        return generate(GenSpec(kind="logistic", n=n))
    # one decimal, as in a cpc_table file: many first coordinates tie
    ts = generate(GenSpec(kind="ar1", n=n, phi=0.7, seed=n))
    return ts.with_values(np.round(ts.values, 1))


# Each (kind, n, m, eps) cell runs one (d, theiler, random_sample) variant,
# cycled so that every variant meets every value of each of the four axes.
_VARIANTS = list(itertools.product((1, 3), (0, 12), (False, True)))
ORACLE_GRID = [
    (*cell, *_VARIANTS[(k + k // 4) % len(_VARIANTS)])
    for k, cell in enumerate(
        itertools.product(
            ("fgn", "logistic", "ar1_rounded"),
            (776, 5000, 10_000),
            (1, 2, 3),
            (1e-3, 0.2, 0.3, 1.0),
        )
    )
]


class TestEmbed:
    def test_two_dimensional_unit_delay(self):
        out = embed([1.0, 2.0, 3.0, 4.0], m=2, d=1)
        assert out.tolist() == [[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]]

    def test_one_dimensional_is_column(self):
        out = embed([5.0, 6.0, 7.0], m=1, d=1)
        assert out.shape == (3, 1)
        assert out[:, 0].tolist() == [5.0, 6.0, 7.0]

    def test_three_dimensional_delay_two(self):
        out = embed([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], m=3, d=2)
        assert out.tolist() == [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]

    def test_row_count(self):
        out = embed(np.arange(100.0), m=4, d=3)
        assert out.shape == (100 - 3 * 3, 4)

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            embed([1.0, 2.0], m=3, d=1)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValidationError):
            embed([1.0, 2.0, 3.0], m=0, d=1)
        with pytest.raises(ValidationError):
            embed([1.0, 2.0, 3.0], m=2, d=0)


class TestEmbeddingParams:
    def test_defaults(self):
        p = EmbeddingParams()
        assert (p.m, p.d, p.theiler, p.eps) == (2, 1, 12, 0.3)
        assert (p.n_ref, p.s, p.k_min) == (200, 12, 4)
        assert p.random_sample is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"d": 0},
            {"theiler": -1},
            {"eps": 0.0},
            {"eps": -1.0},
            {"n_ref": 0},
            {"s": 1},
            {"k_min": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            EmbeddingParams(**kwargs)


class TestLyapK:
    def test_logistic_map_divergence_rate(self):
        # fully chaotic logistic map: lambda1 = ln 2
        ts = generate(GenSpec(kind="logistic", n=5000, seed=0))
        params = EmbeddingParams(m=1, d=1, theiler=10, eps=1e-3, n_ref=200, s=8, k_min=1)
        fit = lyap_fit(lyap_k(ts, params), 0, 4)
        assert fit.lambda1 == pytest.approx(math.log(2.0), abs=0.05)
        assert fit.r_squared > 0.95
        assert fit.chaos_consistent

    def test_sine_has_flat_curve(self):
        # periodic orbit: no divergence, slope compatible with zero
        ts = generate(GenSpec(kind="sine", n=5000, seed=0, period=50))
        params = EmbeddingParams(
            m=2, d=12, theiler=25, eps=2.0, n_ref=200, s=8, k_min=4,
            seed=0, random_sample=True,
        )
        fit = lyap_fit(lyap_k(ts, params), 1, 6)
        assert fit.lambda1 == pytest.approx(0.0, abs=0.02)

    def test_curve_shape_and_counts(self):
        ts = generate(GenSpec(kind="white", n=2048, seed=4))
        params = EmbeddingParams()
        curve = lyap_k(ts, params)
        assert curve.s_values.shape == (params.s,)
        assert curve.ref_counts.shape == (params.s,)
        assert np.all(curve.ref_counts >= 1)
        assert np.all(curve.ref_counts <= params.n_ref)
        assert not curve.s_values.flags.writeable

    def test_deterministic_rerun(self):
        ts = generate(GenSpec(kind="white", n=2048, seed=4))
        a = lyap_k(ts, EmbeddingParams())
        b = lyap_k(ts, EmbeddingParams())
        assert np.array_equal(a.s_values, b.s_values, equal_nan=True)
        assert np.array_equal(a.ref_counts, b.ref_counts)

    def test_random_sampling_deterministic_given_seed(self):
        ts = generate(GenSpec(kind="white", n=2048, seed=4))
        a = lyap_k(ts, EmbeddingParams(random_sample=True, seed=11))
        b = lyap_k(ts, EmbeddingParams(random_sample=True, seed=11))
        c = lyap_k(ts, EmbeddingParams(random_sample=True, seed=12))
        assert np.array_equal(a.s_values, b.s_values, equal_nan=True)
        assert not np.array_equal(a.s_values, c.s_values, equal_nan=True)

    def test_affine_invariance(self):
        # internal standardization makes the curve scale- and shift-free
        ts = generate(GenSpec(kind="white", n=2048, seed=4))
        params = EmbeddingParams()
        base = lyap_k(ts, params).s_values
        scaled = lyap_k(ts.with_values(ts.values * 4.0), params).s_values
        shifted = lyap_k(ts.with_values(ts.values + 1000.0), params).s_values
        affine = lyap_k(ts.with_values(ts.values * 3.7 - 2.0), params).s_values
        assert np.array_equal(base, scaled, equal_nan=True)
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-9)
        np.testing.assert_allclose(affine, base, rtol=0, atol=1e-9)

    def test_eps_too_small_reports_largest_neighborhood(self):
        ts = generate(GenSpec(kind="white", n=1024, seed=7))
        with pytest.raises(EpsTooSmallError) as exc:
            lyap_k(ts, EmbeddingParams(eps=1e-12))
        assert exc.value.max_neighbors == 0

    def test_eps_too_small_reports_neighbours_below_k_min(self):
        ts = generate(GenSpec(kind="white", n=1024, seed=7))
        params = EmbeddingParams(m=1, eps=0.01, k_min=50)
        expected, max_neighbors = full_scan_lyap_k(ts, params)
        assert expected is None
        assert 0 < max_neighbors < params.k_min
        assert_matches_full_scan(ts, params)

    def test_step_every_reference_sits_out_warns_nothing(self):
        # below the 0.1 quantum every neighbour ties its reference, so no
        # reference has a live gap at step 0
        ts = oracle_series("ar1_rounded", 776)
        params = EmbeddingParams(m=1, eps=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = lyap_k(ts, params)
        assert curve.ref_counts[0] == 0
        assert np.isnan(curve.s_values[0])
        assert np.all(curve.ref_counts[1:] > 0)
        assert_matches_full_scan(ts, params)

    @pytest.mark.parametrize("random_sample", [False, True])
    @pytest.mark.parametrize("n_ref, n_valid", [(200, 50), (200, 199), (200, 765), (7, 7)])
    def test_reference_indices_are_unique_and_sorted(self, n_ref, n_valid, random_sample):
        params = EmbeddingParams(n_ref=n_ref, random_sample=random_sample, seed=n_valid)
        rng = np.random.default_rng(params.seed)
        drawn = (
            rng.choice(n_valid, size=min(n_ref, n_valid), replace=False)
            if random_sample
            else np.round(np.linspace(0, n_valid - 1, num=min(n_ref, n_valid)))
        )
        refs = chaos._reference_indices(n_valid, params)
        assert refs.dtype == np.int64
        assert np.array_equal(refs, np.unique(drawn.astype(np.int64)))

    def test_constant_series_rejected(self):
        with pytest.raises(NumericError):
            lyap_k(series(np.full(256, 2.5)), EmbeddingParams())

    def test_too_short_series_rejected(self):
        with pytest.raises(ValidationError):
            lyap_k(series(np.arange(10.0)), EmbeddingParams(m=4, d=3, s=12))


class TestNeighbourSearch:
    """The sorted-window search against a scan of every embedded vector."""

    @pytest.mark.parametrize("kind,n,m,eps,d,theiler,random_sample", ORACLE_GRID)
    def test_matches_full_scan(self, kind, n, m, eps, d, theiler, random_sample):
        params = EmbeddingParams(
            m=m, d=d, eps=eps, theiler=theiler, random_sample=random_sample, seed=5
        )
        assert_matches_full_scan(oracle_series(kind, n), params)

    def test_eps_equal_to_a_gap_excludes_the_pair(self):
        ts = oracle_series("fgn", 776)
        x = standardize(ts).values
        n_valid = x.size - EmbeddingParams().s + 1
        order = np.argsort(x[:n_valid], kind="stable")
        # neighbours in sorted order, so x_j sits exactly on the rounded
        # window edge x_i -/+ eps; each pair is tried from both ends
        pairs = list(zip(order[100:700:40], order[101:701:40]))
        for i, j in pairs + [(j, i) for i, j in pairs]:
            gap = abs(x[j] - x[i])
            for eps, inside in ((gap, False), (np.nextafter(gap, np.inf), True)):
                params = EmbeddingParams(m=1, theiler=0, eps=float(eps))
                chunks = chaos._neighbours(x, n_valid, np.array([i]), params)
                hits = np.concatenate([h for _, _, h in chunks])
                (expected,) = full_scan_neighbours(x, n_valid, [i], params)
                assert np.array_equal(hits, expected)
                assert (j in hits) is inside
                assert_matches_full_scan(ts, params)

    @pytest.mark.parametrize(
        "budget,chunking", [(1, "each"), (2000, "some"), (1 << 40, "one")]
    )
    def test_chunking_keeps_the_curve(self, monkeypatch, budget, chunking):
        ts = oracle_series("ar1_rounded", 2000)
        params = EmbeddingParams(m=3, d=2, theiler=0)
        monkeypatch.setattr(chaos, "_CANDIDATE_BUDGET", budget)
        x = standardize(ts).values
        n_valid = x.size - (params.m - 1) * params.d - params.s + 1
        refs = chaos._reference_indices(n_valid, params)
        chunks = list(chaos._neighbours(x, n_valid, refs, params))
        if chunking == "each":
            assert len(chunks) == refs.size
        elif chunking == "one":
            assert len(chunks) == 1
        else:
            assert 1 < len(chunks) < refs.size
        found = [hits[owner == k] for chunk, owner, hits in chunks for k in range(chunk.size)]
        expected = full_scan_neighbours(x, n_valid, refs, params)
        assert all(np.array_equal(a, b) for a, b in zip(found, expected, strict=True))
        assert_matches_full_scan(ts, params)

    def test_memory_stays_bounded_at_1e5(self):
        ts = generate(GenSpec(kind="ar1", n=100_000, phi=0.7, seed=1))
        tracemalloc.start()
        try:
            lyap_k(ts, EmbeddingParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # testing every reference's candidates in one pass allocates about
        # 180 MB here, and the chunked search about 5 MB
        assert peak < 64e6


class TestLyapFit:
    def flat_curve(self, slope, intercept=-2.0, s=10):
        steps = np.arange(s, dtype=float)
        return DivergenceCurve(
            s_values=intercept + slope * steps,
            ref_counts=np.full(s, 50),
            params=EmbeddingParams(s=s),
        )

    def test_exact_line(self):
        fit = lyap_fit(self.flat_curve(0.4), 0, 9)
        assert fit.lambda1 == pytest.approx(0.4, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.fit_range == (0, 9)
        assert fit.dt == 1.0

    def test_dt_rescales_rate(self):
        monthly = lyap_fit(self.flat_curve(0.4), 0, 9, dt=0.5)
        assert monthly.lambda1 == pytest.approx(0.8, abs=1e-12)

    def test_subrange_fit(self):
        curve = self.flat_curve(0.25)
        fit = lyap_fit(curve, 2, 6)
        assert fit.lambda1 == pytest.approx(0.25, abs=1e-12)

    def test_range_validation(self):
        curve = self.flat_curve(0.1)
        for bad in [(-1, 5), (0, 10), (5, 2), (3, 4)]:
            with pytest.raises(ValidationError):
                lyap_fit(curve, *bad)
        with pytest.raises(ValidationError):
            lyap_fit(curve, 0, 9, dt=0.0)

    def test_dead_steps_rejected(self):
        counts = np.full(10, 50)
        counts[4] = 0
        s_values = np.arange(10, dtype=float)
        s_values[4] = np.nan
        curve = DivergenceCurve(
            s_values=s_values, ref_counts=counts, params=EmbeddingParams(s=10)
        )
        with pytest.raises(ValidationError):
            lyap_fit(curve, 2, 6)
        # fitting beside the dead step is fine
        assert lyap_fit(curve, 5, 9).lambda1 == pytest.approx(1.0, abs=1e-12)

    def test_chaos_consistent_property(self):
        assert LyapunovFit(0.5, (0, 4), 0.95, 1.0).chaos_consistent
        assert not LyapunovFit(-0.1, (0, 4), 0.95, 1.0).chaos_consistent
        assert not LyapunovFit(0.5, (0, 4), 0.5, 1.0).chaos_consistent
