"""Largest Lyapunov exponent via the Kantz neighbor-divergence method.

The series is standardized, delay-embedded, and for a sample of reference
points all embedded neighbors within a radius are followed forward in
time. The mean log distance after Delta steps,

    S(Delta) = < ln( mean_{j in U_i} |x_{i+Delta'} - x_{j+Delta'}| ) >_i

(with Delta' the last embedding coordinate advanced by Delta), grows
linearly in Delta while divergence is exponential; the slope of that
initial linear region is the largest Lyapunov exponent. Distances in the
divergence stage are between scalar future observations, not full state
vectors, following the TISEAN-family convention; neighbor search uses the
max norm in embedding space.

Neighbor search is exact but does not scan every vector (Schreiber 1995,
"Efficient neighbor searching in nonlinear time series analysis"). The
embedded vectors are sorted once by their first coordinate, and each
reference's candidates are the vectors whose first coordinate lies in
its +/-eps window, found by binary search. Both ends of the window are
inclusive, and since rounding is monotone no true neighbor falls
outside. Every candidate then takes the unchanged test, max-norm
distance < eps and index gap > theiler, and the hits are put back into
ascending index order, so the neighbor sets and the order their gaps
are summed in match a full scan bit for bit. The sort need not be
stable: a window is cut by the sorted values, so which vectors it holds
does not depend on how tied first coordinates are ordered; each
candidate's test is elementwise; and the hits are re-sorted by a unique
key. The curve is the same bits whatever order a numpy build gives ties.

For m >= 2 the search is a box over the first two coordinates. The
second coordinate is cut into cells of width W = max(eps * (1 + 2**-20),
span / 2**24), span being its range, and a vector's cell is
floor((y - low) / W), low being its lowest value. The vectors are sorted
by the integer key cell * n_valid + rank, rank their place in the
first-coordinate order, so each cell's vectors lie in rank order, and a
reference's candidates are the three key ranges of cells c - 1, c and
c + 1 with ranks in its first-coordinate window. No true neighbour lies
outside them: its exact gap is below eps, so the exact quotients differ
by less than eps / W <= 1 - 2**-21, and the rounding of the subtraction
and the division moves each quotient by less than 2**-27 (quotients are
at most 2**24), so the floors differ by at most 1. The margin is needed:
with W = eps, values a few ulps from low + k * eps make pairs closer
than eps whose quotients round two cells apart. The 2**24 cap bounds
the key by (2**24 + 1) * n_valid, inside int64. Candidates still take the
full max-norm and Theiler tests, and the hits the same re-sort.

References are processed in consecutive chunks whose windows
together hold a bounded number of candidates, which bounds memory at
any length. Within a chunk the divergence stage takes a group of steps
at a time, as many as keep about ``_CANDIDATE_BUDGET * s`` gaps, all of
them in one group when the chunk is within the budget: every hit's gaps
at those steps are gathered at once and ``np.bincount`` sums them by
(reference, step), adding each bin's gaps in index order.

Exact ties (zero future distance) occur in quantized data and would put
minus infinity into the log; tied pairs are dropped at the affected step
only, and a reference whose neighbors all tie at a step sits that step
out. ``ref_counts`` records how many references contributed per step and
can therefore dip at steps dominated by ties.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .core import (
    TimeSeries,
    _integer,
    _real,
    _seed,
    _standardized,
    _weighted_line_fit,
    frozen_copy,
    sample_values,
)
from .errors import EpsTooSmallError, ValidationError

__all__ = list(_EXPORTS["chaos"])

# Candidate pairs tested at once by the neighbour search. References are
# processed in consecutive chunks whose candidates number at most this
# together; a reference with more is a chunk of its own. A chunk's
# divergence stage takes whole steps for every hit, about s * budget gaps
# at once and never fewer than one step's, so memory is O(s * budget +
# most candidates of one reference), never O(n_ref * n); a chunk's hits
# are not split, as that would change the order their gaps are summed in.
# The value is small so that a ``lyap`` run at the paper's length
# allocates no more than a scan of one reference at a time would; chunks
# cost one pass of numpy calls each, which at most n_ref chunks keeps
# cheap.
_CANDIDATE_BUDGET = 1 << 12


@dataclass(frozen=True)
class EmbeddingParams:
    """Parameters of the embedding and neighbor search.

    The defaults target monthly climate indices: a 2-d embedding with
    unit delay, a one-year temporal exclusion window, and a 0.3-sigma
    neighborhood on the standardized series. They are this toolkit's
    documented choice, not a published setting.

    References are taken evenly spaced over the valid positions by
    default; set ``random_sample`` to draw them without replacement using
    ``seed`` instead. Either way the curve is deterministic. Every field
    but ``eps`` and ``random_sample`` is an integer, and ``seed`` is in
    [0, 2**64); ``eps`` is a finite real number, kept as a Python float.
    """

    m: int = 2
    d: int = 1
    theiler: int = 12
    eps: float = 0.3
    n_ref: int = 200
    s: int = 12
    k_min: int = 4
    seed: int = 0
    random_sample: bool = False

    def __post_init__(self):
        for name in ("m", "d", "theiler", "n_ref", "s", "k_min"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "seed", _seed(self.seed))
        object.__setattr__(self, "eps", _real(self.eps, "eps"))
        if self.m < 1:
            raise ValidationError("embedding dimension m must be >= 1")
        if self.d < 1:
            raise ValidationError("delay d must be >= 1")
        if self.theiler < 0:
            raise ValidationError("theiler window must be >= 0")
        if not self.eps > 0:
            raise ValidationError("neighborhood radius eps must be > 0")
        if self.n_ref < 1:
            raise ValidationError("n_ref must be >= 1")
        if self.s < 2:
            raise ValidationError("follow steps s must be >= 2")
        if self.k_min < 1:
            raise ValidationError("k_min must be >= 1")


@dataclass(frozen=True)
class DivergenceCurve:
    """Stretching curve S(0..s-1) and per-step reference counts.

    ``candidates`` is the number of (reference, vector) pairs the neighbour
    search tested to find the neighbourhoods, hits and misses alike; it is
    0 for a curve not computed by ``lyap_k``.
    """

    s_values: np.ndarray
    ref_counts: np.ndarray
    params: EmbeddingParams
    candidates: int = 0

    def __post_init__(self):
        for name in ("s_values", "ref_counts"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))


@dataclass(frozen=True)
class LyapunovFit:
    """Fitted slope of the divergence curve over a step range."""

    lambda1: float
    fit_range: tuple[int, int]
    r_squared: float
    dt: float

    @property
    def chaos_consistent(self) -> bool:
        """Positive divergence rate with a solid linear fit.

        A numeric diagnostic only; it does not by itself establish chaos
        in the underlying system.
        """
        return self.lambda1 > 0.0 and self.r_squared >= 0.8


def embed(x, m: int, d: int) -> np.ndarray:
    """Delay-embed a scalar series into m-dimensional state vectors.

    Vector i is (x[i], x[i+d], ..., x[i+(m-1)d]); the result has
    n - (m-1)*d rows.
    """
    arr = sample_values(x)
    m, d = _integer(m, "m"), _integer(d, "d")
    if m < 1 or d < 1:
        raise ValidationError("embedding requires m >= 1 and d >= 1")
    count = arr.size - (m - 1) * d
    if count < 1:
        raise ValidationError(
            f"series of length {arr.size} too short to embed with m={m}, d={d}"
        )
    return np.stack([arr[c * d : c * d + count] for c in range(m)], axis=1)


@functools.lru_cache(maxsize=8)
def _reference_indices(n_valid: int, n_ref: int, random_sample: bool, seed: int) -> np.ndarray:
    """``min(n_ref, n_valid)`` distinct reference indices below ``n_valid``, ascending.

    Evenly spaced, or drawn without replacement by ``seed`` when
    ``random_sample`` is set. They depend on these four values alone, so
    repeated curves at one length (an ensemble, a null band, a grid's
    combinations of one m and d) take them once. The cache holds the 8
    most recently used keys, at most 8 * min(n_ref, n_valid) * 8 bytes for
    the largest count used: 12.8 KB at the default n_ref = 200. The array
    is read-only, so no caller can change what the next one is given. The
    arguments must be the checked ``EmbeddingParams`` values, ints and a
    bool: the cache would take ``True`` for the length 1.
    """
    count = min(n_ref, n_valid)
    if random_sample:
        # a draw without replacement is distinct already; only its order is put right
        idx = np.random.default_rng(seed).choice(n_valid, size=count, replace=False)
        idx.sort()
    else:
        # spaced at least 1 apart, the rounded indices ascend without a sort;
        # linspace's rounding errors can still bring two to one integer on
        # very long series, so repeats are dropped
        idx = np.round(np.linspace(0, n_valid - 1, num=count)).astype(np.int64)
        distinct = np.ones(count, dtype=bool)
        np.not_equal(idx[1:], idx[:-1], out=distinct[1:])
        idx = idx[distinct]
    idx.flags.writeable = False
    return idx


def _box(x, n_valid, order, refs, lo, width, params):
    """Each reference's candidates as three ranges of a box-sorted order.

    Returns ``(slots, starts, sizes)``: ``slots`` lists the vectors sorted
    by the key cell * n_valid + rank, where rank is a vector's place in
    ``order`` and cell is its second coordinate's cell of width ``W``, and
    row r of ``starts`` and ``sizes`` holds the three ranges of ``slots``
    whose vectors lie in cells c - 1, c and c + 1 of reference r's cell c
    with ranks in its first-coordinate window ``[lo, lo + width)``.
    """
    second = x[params.d : params.d + n_valid]
    low = float(second.min())
    cell = max(params.eps * (1 + 2**-20), (float(second.max()) - low) / 2**24)
    # the values less ``low`` are not negative, so the cast is the floor
    key = ((second[order] - low) / cell).astype(np.int64)
    key *= n_valid
    key += np.arange(n_valid)
    key.sort()
    slots = order[key % n_valid]
    bounds = ((second[refs] - low) / cell).astype(np.int64)[:, None] + (-1, 0, 1)
    bounds *= n_valid
    bounds += lo[:, None]
    starts = np.searchsorted(key, bounds)
    bounds += width[:, None]
    return slots, starts, np.searchsorted(key, bounds) - starts


def _neighbours(x, n_valid, refs, params):
    """Yield the neighbours of consecutive chunks of references.

    Each item is ``(chunk, owner, hits, tested)``: ``hits`` are the indices
    of the embedded vectors within ``eps`` (max norm) of the references in
    ``chunk`` and outside their Theiler windows, ``owner`` is the position
    in ``chunk`` of each hit's reference, and ``tested`` counts the
    candidate pairs the chunk tested. Hits are grouped by reference, the
    groups in ``chunk``'s order, and ascend in index within each group, the
    order a full scan finds them. Coordinate c of embedded vector j is
    ``x[j + c*d]``.
    """
    eps = params.eps
    first = x[:n_valid]
    # numpy's default sort, not a stable one: which vectors a window holds
    # is fixed by the values alone, each candidate's test is elementwise,
    # and the hits are re-sorted below by the unique key i * n_valid + j,
    # so the order of tied values never reaches the output
    order = np.argsort(first)
    keys = first[order]
    centre = first[refs]
    # The window needs no widening. Rounding is monotone and eps is a
    # float, so a rounded |x_j - x_i| below eps means an exact gap below
    # eps, and then fl(x_i - eps) <= x_j <= fl(x_i + eps): the inclusive
    # window holds every true neighbour, rounded bounds and all.
    lo = np.searchsorted(keys, centre - eps, side="left")
    width = np.searchsorted(keys, centre + eps, side="right") - lo
    if params.m == 1:
        # one range of ``slots`` per reference: its window
        slots, starts, ranges = order, lo, width
    else:
        slots, starts, sizes = _box(x, n_valid, order, refs, lo, width, params)
        starts, ranges, width = starts.ravel(), sizes.ravel(), sizes.sum(axis=1)
    # a reference's ranges are consecutive in ``ranges``, and candidate k,
    # counted over all references, of range r sits at slot shift[r] + k
    per_ref = ranges.size // refs.size
    shift = starts - (ranges.cumsum() - ranges)
    ends = width.cumsum()
    start = 0
    while start < refs.size:
        base = ends[start] - width[start]
        stop = int(np.searchsorted(ends, base + _CANDIDATE_BUDGET, side="right"))
        stop = max(stop, start + 1)
        chunk = refs[start:stop]
        i = np.repeat(chunk, width[start:stop])
        first_range, last_range = start * per_ref, stop * per_ref
        j = np.repeat(shift[first_range:last_range] + base, ranges[first_range:last_range])
        j += np.arange(j.size)
        j = slots[j]
        dist = np.abs(x[j] - x[i])
        for lag in range(params.d, params.m * params.d, params.d):
            gap = x[lag:][j]
            gap -= x[lag:][i]
            np.maximum(dist, np.abs(gap, out=gap), out=dist)
        near = dist < eps
        sep = j - i
        near &= np.abs(sep, out=sep) > params.theiler
        # refs ascend, so one sort on (i, j) groups the hits by reference
        # and orders each group by index
        hit_ref, hits = np.divmod(np.sort(i[near] * n_valid + j[near]), n_valid)
        yield chunk, np.searchsorted(chunk, hit_ref), hits, i.size
        start = stop


def _checked_length(n: int, params: EmbeddingParams) -> tuple[int, int]:
    """The offset (m-1)*d and n_valid, checked to leave ``params.s`` steps in ``n`` samples.

    The rules are (m-1)*d + s < n and theiler < n_valid - 1, where
    n_valid = n - (m-1)*d - s + 1 is the number of searched vectors: no
    two of them are more than n_valid - 1 apart, so a wider Theiler window
    excludes every pair and no radius could find a neighbour. ``lyap``
    checks each grid combination by these rules before computing any
    curve.
    """
    offset = (params.m - 1) * params.d
    if offset + params.s >= n:
        raise ValidationError(
            f"series of length {n} too short for (m-1)*d + s = {offset + params.s}"
        )
    n_valid = n - offset - params.s + 1
    if params.theiler >= n_valid - 1:
        raise ValidationError(
            f"theiler window {params.theiler} excludes every pair of the {n_valid} "
            f"searched vectors of a series of length {n}; it must be below {n_valid - 1}"
        )
    return offset, n_valid


def lyap_k(ts: TimeSeries | np.ndarray, params: EmbeddingParams) -> DivergenceCurve:
    """Compute the Kantz divergence curve of a series.

    The input is standardized internally, so ``eps`` is always in units
    of the series' standard deviation. Reference points whose
    neighborhoods hold fewer than ``k_min`` points are discarded; if none
    survives, an ``EpsTooSmallError`` reports the largest neighborhood
    found so the caller can widen the radius.
    """
    x = _standardized(sample_values(ts))
    offset, n_valid = _checked_length(x.size, params)
    refs = _reference_indices(n_valid, params.n_ref, bool(params.random_sample), params.seed)
    # row j is the last coordinate of vector j and its next s - 1 samples:
    # a read-only view of x, the rows one sample apart, n_valid of them.
    # as_strided checks no bounds, so the rows' reach is checked here
    tail = x[offset:]
    if tail.size != n_valid + params.s - 1:
        raise AssertionError(f"{tail.size} samples for {n_valid} rows of {params.s}")
    ahead = np.lib.stride_tricks.as_strided(
        tail, shape=(n_valid, params.s), strides=tail.strides * 2, writeable=False
    )

    blocks = []
    ref_counts = np.zeros(params.s, dtype=np.intp)
    max_neighbors = candidates = 0
    for chunk, owner, hits, tested in _neighbours(x, n_valid, refs, params):
        candidates += tested
        counts = np.bincount(owner, minlength=chunk.size)
        max_neighbors = max(max_neighbors, int(counts.max()))
        kept = counts >= params.k_min
        if not kept.any():
            continue
        # the hits of the kept references, still grouped by reference
        sizes, hits = counts[kept], hits[kept[owner]]
        sums = np.empty((sizes.size, params.s))
        ties = np.empty((sizes.size, params.s), dtype=np.intp)
        # a group of steps at a time, about _CANDIDATE_BUDGET * s gaps: a
        # chunk within the budget takes one group, and a reference with far
        # more hits never holds s gaps for each of them at once
        group = max(1, _CANDIDATE_BUDGET * params.s // hits.size)
        for lo in range(0, params.s, group):
            steps = slice(lo, lo + group)
            gaps = ahead[hits, steps]
            gaps -= np.repeat(ahead[chunk[kept], steps], sizes, axis=0)
            np.abs(gaps, out=gaps)
            # key row * width + step, row the reference's place among the
            # kept ones: a key lies in one group, and bincount adds its gaps
            # in hit order, the index order and so the bits of a sum over
            # the reference's neighbour rows
            width = gaps.shape[1]
            key = np.repeat(np.arange(sizes.size * width).reshape(-1, width), sizes, axis=0)
            key, gaps = key.ravel(), gaps.ravel()
            bins = sizes.size * width
            sums[:, steps] = np.bincount(key, weights=gaps, minlength=bins).reshape(-1, width)
            ties[:, steps] = np.bincount(key[gaps == 0], minlength=bins).reshape(-1, width)
        live = sizes[:, None] - ties
        # a step whose gaps all tie is 0 = log 1 here and not counted
        blocks.append(np.log(np.divide(sums, live, out=np.ones_like(sums), where=live > 0)))
        ref_counts += np.count_nonzero(live, axis=0)

    if not blocks:
        raise EpsTooSmallError(
            f"no reference point had {params.k_min} neighbors within eps="
            f"{params.eps}; largest neighborhood found held {max_neighbors}",
            max_neighbors=max_neighbors,
        )
    total = np.concatenate(blocks).sum(axis=0)
    s_values = np.divide(total, ref_counts, out=np.full(params.s, np.nan), where=ref_counts > 0)
    return DivergenceCurve(
        s_values=s_values, ref_counts=ref_counts, params=params, candidates=candidates
    )


def _checked_fit(start, end, dt, steps: int) -> tuple[int, int, float]:
    """``lyap_fit``'s range and ``dt``, checked for a curve of ``steps`` steps.

    The steps are integers with 0 <= start < end < steps, spanning at
    least 3 steps, and ``dt`` is finite and positive. ``lyap`` checks
    each grid combination's fit by this rule before computing any curve.
    """
    start, end = _integer(start, "fit start"), _integer(end, "fit end")
    if not 0 <= start < end < steps:
        raise ValidationError(f"fit range [{start}, {end}] invalid for {steps} steps")
    if end - start + 1 < 3:
        raise ValidationError("fit range must span at least 3 steps")
    dt = _real(dt, "dt")
    if not dt > 0:
        raise ValidationError("dt must be positive")
    return start, end, dt


def lyap_fit(curve: DivergenceCurve, start: int, end: int, dt: float = 1.0) -> LyapunovFit:
    """Slope of the divergence curve over steps [start, end], per dt.

    Ordinary least squares of S(Delta) on Delta; the slope divided by the
    sampling interval is the Lyapunov exponent estimate in 1/time units.
    A ``dt`` so small that this rate overflows is refused.
    """
    start, end, dt = _checked_fit(start, end, dt, curve.s_values.size)
    if (curve.ref_counts[start : end + 1] == 0).any():
        raise ValidationError("fit range includes steps with no surviving reference")
    delta = np.arange(start, end + 1, dtype=float)
    slope, _, _, r_squared = _weighted_line_fit(delta, curve.s_values[start : end + 1])
    lambda1 = slope / dt
    if not math.isfinite(lambda1):
        raise ValidationError(f"dt {dt!r} is too small: slope {slope!r} / dt overflows")
    return LyapunovFit(
        lambda1=lambda1,
        fit_range=(start, end),
        r_squared=r_squared,
        dt=dt,
    )
