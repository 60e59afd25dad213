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
are summed in match a full scan bit for bit. References are processed in consecutive chunks whose windows
together hold a bounded number of candidates, which bounds memory at
any length; within a chunk the divergence stage is one vectorised pass
per step, summing each reference's gaps with ``np.bincount``.

Exact ties (zero future distance) occur in quantized data and would put
minus infinity into the log; tied pairs are dropped at the affected step
only, and a reference whose neighbors all tie at a step sits that step
out. ``ref_counts`` records how many references contributed per step and
can therefore dip at steps dominated by ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeSeries, _weighted_line_fit, frozen_copy, sample_values, standardize
from .errors import EpsTooSmallError, ValidationError

__all__ = ["EmbeddingParams", "DivergenceCurve", "LyapunovFit", "embed", "lyap_k", "lyap_fit"]

# Candidate pairs tested at once by the neighbour search. References are
# processed in consecutive chunks whose windows together hold at most this
# many candidates; a reference whose window is wider is a chunk of its
# own. Memory is then O(budget + widest window), never O(n_ref * n). The
# value is small so that a ``lyap`` run at the paper's length allocates
# no more than the per-reference scan it replaced; chunks cost one pass
# of numpy calls each, which at most n_ref chunks keeps cheap.
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
    ``seed`` instead. Either way the curve is deterministic.
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
    """Stretching curve S(0..s-1) and per-step reference counts."""

    s_values: np.ndarray
    ref_counts: np.ndarray
    params: EmbeddingParams

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
    if m < 1 or d < 1:
        raise ValidationError("embedding requires m >= 1 and d >= 1")
    count = arr.size - (m - 1) * d
    if count < 1:
        raise ValidationError(
            f"series of length {arr.size} too short to embed with m={m}, d={d}"
        )
    return np.stack([arr[c * d : c * d + count] for c in range(m)], axis=1)


def _reference_indices(n_valid: int, params: EmbeddingParams) -> np.ndarray:
    count = min(params.n_ref, n_valid)
    if params.random_sample:
        rng = np.random.default_rng(params.seed)
        idx = rng.choice(n_valid, size=count, replace=False)
    else:
        idx = np.round(np.linspace(0, n_valid - 1, num=count)).astype(np.int64)
    # np.unique, without the numpy.ma import it makes on first use
    idx = np.sort(idx)
    return idx[np.diff(idx, prepend=-1) > 0]


def _neighbours(x, n_valid, refs, params):
    """Yield the neighbours of consecutive chunks of references.

    Each item is ``(chunk, owner, hits)``: ``hits`` are the indices of the
    embedded vectors within ``eps`` (max norm) of the references in
    ``chunk`` and outside their Theiler windows, and ``owner`` is the
    position in ``chunk`` of each hit's reference. Hits are grouped by
    reference and ascend in index within each group, the order a full scan
    finds them. Coordinate c of embedded vector j is ``x[j + c*d]``.
    """
    eps = params.eps
    first = x[:n_valid]
    order = np.argsort(first, kind="stable")
    keys = first[order]
    centre = first[refs]
    # The window needs no widening. Rounding is monotone and eps is a
    # float, so a rounded |x_j - x_i| below eps means an exact gap below
    # eps, and then fl(x_i - eps) <= x_j <= fl(x_i + eps): the inclusive
    # window holds every true neighbour, rounded bounds and all.
    lo = np.searchsorted(keys, centre - eps, side="left")
    width = np.searchsorted(keys, centre + eps, side="right") - lo
    ends = np.cumsum(width)
    start = 0
    while start < refs.size:
        base = ends[start] - width[start]
        stop = int(np.searchsorted(ends, base + _CANDIDATE_BUDGET, side="right"))
        stop = max(stop, start + 1)
        chunk, sizes = refs[start:stop], width[start:stop]
        i = np.repeat(chunk, sizes)
        # candidate k of the chunk is the t-th of its reference r, where t
        # is k minus r's first k, and sits at sorted slot lo[r] + t
        j = np.repeat(lo[start:stop] - (ends[start:stop] - sizes - base), sizes)
        j += np.arange(j.size)
        j = order[j]
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
        yield chunk, np.searchsorted(chunk, hit_ref), hits
        start = stop


def lyap_k(ts: TimeSeries, params: EmbeddingParams) -> DivergenceCurve:
    """Compute the Kantz divergence curve of a series.

    The input is standardized internally, so ``eps`` is always in units
    of the series' standard deviation. Reference points whose
    neighborhoods hold fewer than ``k_min`` points are discarded; if none
    survives, an ``EpsTooSmallError`` reports the largest neighborhood
    found so the caller can widen the radius.
    """
    x = standardize(ts).values
    n = x.size
    offset = (params.m - 1) * params.d
    if offset + params.s >= n:
        raise ValidationError(
            f"series of length {n} too short for (m-1)*d + s = {offset + params.s}"
        )
    n_valid = n - offset - params.s + 1
    refs = _reference_indices(n_valid, params)

    blocks = []
    max_neighbors = 0
    for chunk, owner, hits in _neighbours(x, n_valid, refs, params):
        counts = np.bincount(owner, minlength=chunk.size)
        max_neighbors = max(max_neighbors, int(counts.max()))
        kept = counts >= params.k_min
        if not kept.any():
            continue
        # bincount adds each reference's gaps in index order, the same
        # order and so the same bits as a sum over its neighbour rows
        sums = np.empty((chunk.size, params.s))
        live = np.empty((chunk.size, params.s))
        hit_ref = chunk[owner]
        for step in range(params.s):
            future = x[offset + step :]
            gaps = future[hits]
            gaps -= future[hit_ref]
            np.abs(gaps, out=gaps)
            sums[:, step] = np.bincount(owner, weights=gaps, minlength=chunk.size)
            live[:, step] = np.bincount(owner, weights=gaps != 0, minlength=chunk.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = np.log(sums / live)
        rows[live == 0] = np.nan
        blocks.append(rows[kept])

    if not blocks:
        raise EpsTooSmallError(
            f"no reference point had {params.k_min} neighbors within eps="
            f"{params.eps}; largest neighborhood found held {max_neighbors}",
            max_neighbors=max_neighbors,
        )
    stacked = np.concatenate(blocks)
    counted = ~np.isnan(stacked)
    ref_counts = np.count_nonzero(counted, axis=0)
    # the arithmetic of np.nanmean, without its warning for a step that
    # every reference sits out
    with np.errstate(invalid="ignore"):
        s_values = np.where(counted, stacked, 0.0).sum(axis=0) / ref_counts
    s_values[ref_counts == 0] = np.nan
    return DivergenceCurve(s_values=s_values, ref_counts=ref_counts, params=params)


def lyap_fit(curve: DivergenceCurve, start: int, end: int, dt: float = 1.0) -> LyapunovFit:
    """Slope of the divergence curve over steps [start, end], per dt.

    Ordinary least squares of S(Delta) on Delta; the slope divided by the
    sampling interval is the Lyapunov exponent estimate in 1/time units.
    """
    s = curve.s_values.size
    if not 0 <= start < end < s:
        raise ValidationError(f"fit range [{start}, {end}] invalid for {s} steps")
    if end - start + 1 < 3:
        raise ValidationError("fit range must span at least 3 steps")
    if not dt > 0:
        raise ValidationError("dt must be positive")
    if np.any(curve.ref_counts[start : end + 1] == 0):
        raise ValidationError("fit range includes steps with no surviving reference")
    delta = np.arange(start, end + 1, dtype=float)
    slope, _, _, r_squared = _weighted_line_fit(delta, curve.s_values[start : end + 1])
    return LyapunovFit(
        lambda1=slope / dt,
        fit_range=(start, end),
        r_squared=r_squared,
        dt=dt,
    )
