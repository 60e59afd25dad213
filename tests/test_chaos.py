"""Delay embedding, Kantz divergence curves, and Lyapunov fits."""

import functools
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


def reference_indices(n_valid, params):
    return chaos._reference_indices(n_valid, params.n_ref, params.random_sample, params.seed)


def full_scan_neighbours(x, n_valid, refs, params):
    """Each reference's neighbours, by testing every embedded vector."""
    vectors = embed(x, params.m, params.d)[:n_valid]
    found = []
    for i in refs:
        dist = np.max(np.abs(vectors - vectors[i]), axis=1)
        mask = (dist < params.eps) & (np.abs(np.arange(n_valid) - i) > params.theiler)
        found.append(np.nonzero(mask)[0])
    return found


def assert_hits_match(x, n_valid, refs, params):
    """The search's chunks, and each reference's hits, checked against a full scan."""
    chunks = list(chaos._neighbours(x, n_valid, refs, params))
    found = [hits[owner == k] for chunk, owner, hits, _ in chunks for k in range(chunk.size)]
    expected = full_scan_neighbours(x, n_valid, refs, params)
    assert all(np.array_equal(a, b) for a, b in zip(found, expected, strict=True))
    return chunks, found


def full_scan_lyap_k(ts, params):
    """``lyap_k`` as one full scan and one divergence pass per reference.

    The reference implementation for the sorted-window search. Returns
    ``((s_values, ref_counts), max_neighbors)``, or ``(None,
    max_neighbors)`` where ``lyap_k`` raises ``EpsTooSmallError``.
    """
    x = standardize(ts).values
    offset = (params.m - 1) * params.d
    n_valid = x.size - offset - params.s + 1
    refs = reference_indices(n_valid, params)
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
# the box search (m >= 2) meets both delays in every cell
ORACLE_GRID += [
    (kind, n, m, eps, 4 - d, *rest) for kind, n, m, eps, d, *rest in ORACLE_GRID if m > 1
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
    @pytest.mark.parametrize(
        "n_ref, n_valid",
        # 4993: the benchmark's calibration call; 2**26 + 5: a very long series
        [(200, 50), (200, 199), (200, 201), (200, 765), (776, 776), (200, 4993), (7, 7),
         (200, 2**26 + 5)],
    )
    def test_reference_indices_are_unique_and_sorted(self, n_ref, n_valid, random_sample):
        params = EmbeddingParams(n_ref=n_ref, random_sample=random_sample, seed=n_valid)
        rng = np.random.default_rng(params.seed)
        refs = reference_indices(n_valid, params)
        assert refs.dtype == np.int64
        if random_sample:
            # a draw without replacement is only sorted
            drawn = rng.choice(n_valid, size=min(n_ref, n_valid), replace=False)
            assert np.array_equal(refs, np.sort(drawn))
        else:
            drawn = np.round(np.linspace(0, n_valid - 1, num=min(n_ref, n_valid)))
            assert np.array_equal(refs, np.unique(drawn.astype(np.int64)))
        assert (refs[1:] > refs[:-1]).all()

    def test_even_reference_indices_need_no_sort(self):
        # the spacing (n_valid - 1)/(count - 1) is at least 1, so the rounded
        # indices come out ascending and distinct without a sort, at every
        # count the parameters allow: the de-duplication drops none of them
        params = [EmbeddingParams(n_ref=count) for count in range(1, 121)]
        for n_valid in range(1, 121):
            for count in range(1, n_valid + 1):
                refs = reference_indices(n_valid, params[count - 1])
                assert refs.dtype == np.int64
                # all count rounded values, strictly ascending: np.unique of them
                assert (refs[1:] > refs[:-1]).all()
                assert np.array_equal(refs, np.round(np.linspace(0, n_valid - 1, num=count)))

    def test_constant_series_rejected(self):
        with pytest.raises(NumericError):
            lyap_k(series(np.full(256, 2.5)), EmbeddingParams())

    def test_too_short_series_rejected(self):
        with pytest.raises(ValidationError):
            lyap_k(series(np.arange(10.0)), EmbeddingParams(m=4, d=3, s=12))

    def test_theiler_window_that_excludes_every_pair_rejected(self):
        # at m = 1, 300 samples leave n_valid = 289 searched vectors, at
        # most 288 apart
        ts = generate(GenSpec(kind="white", n=300, seed=5))
        for theiler in (288, 10**6):
            with pytest.raises(ValidationError, match="excludes every pair of the 289"):
                lyap_k(ts, EmbeddingParams(m=1, theiler=theiler))
        # one pair left, (0, 288): the first and last references find each other
        curve = lyap_k(ts, EmbeddingParams(m=1, theiler=287, eps=100.0, k_min=1))
        assert curve.ref_counts.tolist() == [2] * 12


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
                _, (hits,) = assert_hits_match(x, n_valid, np.array([i]), params)
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
        refs = reference_indices(n_valid, params)
        chunks, _ = assert_hits_match(x, n_valid, refs, params)
        if chunking == "each":
            assert len(chunks) == refs.size
        elif chunking == "one":
            assert len(chunks) == 1
        else:
            assert 1 < len(chunks) < refs.size
        assert_matches_full_scan(ts, params)

    def test_memory_stays_bounded_at_1e5(self):
        ts = generate(GenSpec(kind="ar1", n=100_000, phi=0.7, seed=1))
        for eps in (0.3, 1.0):
            tracemalloc.start()
            try:
                lyap_k(ts, EmbeddingParams(eps=eps))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # testing every reference's candidates in one pass allocates
            # about 180 MB at eps = 0.3, and the chunked search about 6 MB.
            # At eps = 1.0 each window outgrows the budget, so each
            # reference is a chunk of its own, and its s gaps per hit peak
            # at about 22 MB
            assert peak < 64e6, eps


class TestBoxSearch:
    """The box over the first two coordinates (m >= 2) against a full scan."""

    @pytest.mark.parametrize("d", [1, 3])
    def test_second_coordinate_gap_equal_to_eps_excludes_the_pair(self, d):
        # pairs whose max-norm distance is their second coordinate's gap,
        # about 0.3: with eps that gap the pair is out, with the next float
        # in, and the cells are about as wide as the gap
        ts = oracle_series("fgn", 776)
        x = standardize(ts).values
        n_valid = x.size - d - EmbeddingParams().s + 1
        vectors = embed(x, 2, d)[:n_valid]
        pairs = []
        for i in range(3, n_valid, 25):
            gap0, gap1 = np.abs(vectors - vectors[i]).T
            fits = np.flatnonzero((gap0 < gap1) & (np.abs(gap1 - 0.3) < 0.05))
            pairs += [(i, int(j)) for j in fits[:1]]
        assert len(pairs) > 25
        for i, j in pairs:
            gap = abs(x[j + d] - x[i + d])
            for eps, inside in ((gap, False), (np.nextafter(gap, np.inf), True)):
                params = EmbeddingParams(m=2, d=d, theiler=0, eps=float(eps))
                _, (hits,) = assert_hits_match(x, n_valid, np.array([i]), params)
                assert (j in hits) is inside

    @pytest.mark.parametrize("m", [2, 3])
    def test_values_on_cell_boundaries(self, m):
        # second coordinates within 6 ulps of low + k * eps and of the cell
        # edges low + k * W. Some pairs of the first kind are closer than
        # eps, yet their quotients (y - low) / eps round two apart: cells
        # only eps wide would lose them, and W's margin keeps them adjacent
        eps, low = 0.1, -3.3
        edges = low + np.arange(1, 60) * np.array([[eps], [eps * (1 + 2**-20)]])
        near_edges = (edges.view(np.int64)[..., None] + np.arange(-6, 7)).view(np.float64)
        # and pairs closer than eps that straddle the edge low + W' of any
        # narrower width W' = eps * (1 - delta), 2**-40 < delta < 1/2: for
        # one k, low + eps * (1 - 1.5 * 2**-k) lies within eps - W' below it
        ladder = low + eps * (1 - 1.5 * 2.0 ** -np.arange(1, 41))
        partners = np.nextafter(ladder + eps, -np.inf)
        while (late := partners - ladder >= eps).any():
            partners[late] = np.nextafter(partners[late], -np.inf)
        ys = np.concatenate([near_edges.ravel(), ladder, partners])

        def straddled(width):
            gaps = np.abs(ys[:, None] - ys)
            cells = np.floor((ys - low) / width)
            return ((gaps < eps) & (np.abs(cells[:, None] - cells) >= 2)).any()

        assert all(straddled(eps * (1 - delta)) for delta in (0, 2**-30, 2**-20, 1e-3, 0.3))
        # vector 2k is (low, ys[k], ...): its second coordinate is ys[k], and
        # the lowest second coordinate is low
        x = np.empty(2 * ys.size + 2)
        x[0::2], x[1:-1:2], x[-1] = low, ys, low
        params = EmbeddingParams(m=m, d=1, theiler=0, eps=eps, s=2)
        n_valid = x.size - (m - 1) - params.s + 1
        _, found = assert_hits_match(x, n_valid, np.arange(n_valid), params)
        assert sum(hits.size for hits in found) > n_valid

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("kind", ["fgn", "ar1_rounded"])
    def test_eps_below_the_span_cap(self, kind, m):
        # the cells are span / 2**24 wide, not eps: 2**24 cells at most,
        # so the key cell * n_valid + rank fits in int64. The rounded
        # series' tied vectors are neighbours at any radius
        ts = oracle_series(kind, 5000)
        x = standardize(ts).values
        eps = 1e-7
        n_valid = x.size - (m - 1) - EmbeddingParams().s + 1
        second = x[1 : 1 + n_valid]
        assert (second.max() - second.min()) / 2**24 > eps * (1 + 2**-20)
        for k_min in (1, 4):
            params = EmbeddingParams(m=m, eps=eps, theiler=0, k_min=k_min)
            assert_matches_full_scan(ts, params)

    def test_candidates_count_the_box(self):
        # the AR(1) index at the paper's length: the first coordinate's
        # windows hold 25 987 candidates and the box 8 329 of them, with
        # the same 5 285 neighbours
        ts = generate(GenSpec(kind="ar1", n=776, phi=0.7, seed=3))
        x = standardize(ts).values
        counts = {}
        for m in (1, 2, 3):
            params = EmbeddingParams(m=m)
            n_valid = x.size - (m - 1) - params.s + 1
            refs = reference_indices(n_valid, params)
            first = np.sort(x[:n_valid])
            windows = np.searchsorted(first, x[refs] + params.eps, side="right")
            windows -= np.searchsorted(first, x[refs] - params.eps)
            _, found = assert_hits_match(x, n_valid, refs, params)
            hits = sum(hits.size for hits in found)
            candidates = lyap_k(ts, params).candidates
            if m == 1:  # no box: the candidates are the windows
                assert candidates == windows.sum()
            else:
                assert hits <= candidates < windows.sum()
            counts[m] = (windows.sum(), candidates, hits)
        assert counts[2] == (25_987, 8_329, 5_285)
        assert DivergenceCurve(np.zeros(3), np.ones(3), EmbeddingParams()).candidates == 0


class TestReferenceCache:
    KEYS = [(4993, 200, False, 0), (765, 200, True, 5), (765, 200, True, 6), (50, 200, False, 0)]

    def test_interleaved_calls_equal_uncached_ones(self):
        chaos._reference_indices.cache_clear()
        for key in self.KEYS * 3:
            fresh = chaos._reference_indices.__wrapped__(*key)
            assert np.array_equal(chaos._reference_indices(*key), fresh)
        assert chaos._reference_indices.cache_info().hits == 2 * len(self.KEYS)
        ts = generate(GenSpec(kind="white", n=2048, seed=4))
        grid = [EmbeddingParams(m=m, random_sample=r, seed=s) for m in (1, 2) for r, s in
                ((False, 0), (True, 1), (True, 2))]
        cached = [lyap_k(ts, params) for params in grid * 2]
        for params, curve in zip(grid * 2, cached):
            chaos._reference_indices.cache_clear()
            again = lyap_k(ts, params)
            assert np.array_equal(curve.s_values, again.s_values, equal_nan=True)
            assert np.array_equal(curve.ref_counts, again.ref_counts)

    def test_cached_array_is_read_only(self):
        refs = chaos._reference_indices(*self.KEYS[1])
        assert not refs.flags.writeable
        with pytest.raises(ValueError):
            refs[0] = 1
        assert chaos._reference_indices(*self.KEYS[1]) is refs


class _NumpyWithSort:
    """numpy, with ``argsort`` replaced: the search's view of the module."""

    def __init__(self, argsort):
        self.argsort = argsort

    def __getattr__(self, name):
        return getattr(np, name)


def reversed_ties_argsort(a):
    """A sort order of ``a`` that reverses every run of equal values."""
    return np.lexsort((-np.arange(a.size), a))


class TestTieOrder:
    """The curve does not depend on how the sort orders equal first coordinates."""

    @pytest.mark.parametrize("eps", [0.01, 0.3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["ar1", "logistic"])
    def test_any_order_of_ties_gives_the_same_bits(self, monkeypatch, kind, m, eps):
        # one decimal, as in a cpc_table file: runs of tied first coordinates
        # hundreds long, and eps = 0.01 lies below the quantum
        extra = {"phi": 0.7, "seed": 3} if kind == "ar1" else {}
        ts = generate(GenSpec(kind=kind, n=2000, **extra))
        ts = ts.with_values(np.round(ts.values, 1))
        params = EmbeddingParams(m=m, eps=eps, k_min=1)
        too_few = EmbeddingParams(m=m, eps=eps, k_min=10**6)
        n_valid = ts.values.size - (m - 1) - params.s + 1
        first = standardize(ts).values[:n_valid]
        assert not np.array_equal(reversed_ties_argsort(first), np.argsort(first, kind="stable"))

        def outcome():
            curve = lyap_k(ts, params)
            with pytest.raises(EpsTooSmallError) as exc:
                lyap_k(ts, too_few)
            return curve.s_values, curve.ref_counts, exc.value.max_neighbors

        default = outcome()
        for argsort in (reversed_ties_argsort, functools.partial(np.argsort, kind="stable")):
            calls = []

            def counted(a, argsort=argsort):
                calls.append(a.size)
                return argsort(a)

            monkeypatch.setattr(chaos, "np", _NumpyWithSort(counted))
            s_values, ref_counts, max_neighbors = outcome()
            monkeypatch.undo()
            assert calls == [n_valid, n_valid]  # the search sorted with it, once per call
            assert np.array_equal(s_values, default[0], equal_nan=True)
            assert np.array_equal(ref_counts, default[1])
            assert max_neighbors == default[2] > 0


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

    @pytest.mark.parametrize("slope", [0.4, -0.4])
    def test_overflowing_rate_rejected(self, slope):
        with pytest.raises(ValidationError, match="dt 1e-320 is too small"):
            lyap_fit(self.flat_curve(slope), 0, 9, dt=1e-320)

    def test_zero_slope_over_tiny_dt_is_zero(self):
        # the refusal is of an infinite rate, not of a small dt
        assert lyap_fit(self.flat_curve(0.0), 0, 9, dt=1e-320).lambda1 == 0.0

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

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_polyfit(self, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(5, 40))
        curve = DivergenceCurve(
            s_values=rng.normal(0.0, 3.0) + rng.normal(0.0, 2.0) * np.arange(s)
            + rng.standard_normal(s),
            ref_counts=np.full(s, 50),
            params=EmbeddingParams(s=s),
        )
        start = int(rng.integers(0, s - 3))
        end = int(rng.integers(start + 2, s))
        dt = float(rng.uniform(0.1, 3.0))
        fit = lyap_fit(curve, start, end, dt=dt)
        steps = np.arange(start, end + 1, dtype=float)
        y = curve.s_values[start : end + 1]
        slope, intercept = np.polyfit(steps, y, 1)
        assert abs(fit.lambda1 - slope / dt) <= 1e-12 * max(1.0, abs(fit.lambda1))
        r_squared = 1.0 - np.sum((y - intercept - slope * steps) ** 2) / np.sum((y - y.mean()) ** 2)
        assert abs(fit.r_squared - r_squared) <= 1e-12

    def test_exact_dyadic_line_is_exact(self):
        fit = lyap_fit(self.flat_curve(0.375, intercept=-1.5, s=8), 0, 7)
        assert fit.lambda1 == 0.375
        assert fit.r_squared == 1.0

    def test_chaos_consistent_property(self):
        assert LyapunovFit(0.5, (0, 4), 0.95, 1.0).chaos_consistent
        assert not LyapunovFit(-0.1, (0, 4), 0.95, 1.0).chaos_consistent
        assert not LyapunovFit(0.5, (0, 4), 0.5, 1.0).chaos_consistent
