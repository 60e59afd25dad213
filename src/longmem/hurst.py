"""Rescaled-range analysis and Hurst exponent estimation.

The rescaled range of a block x_1..x_n is

    R/S = [max_k(Y_k - (k/n) Y_n) - min_k(Y_k - (k/n) Y_n)] / S_n

with Y_k the partial sums and S_n the sample standard deviation. Mean R/S
grows like n^H for a series with Hurst exponent H, so H is read off a
log-log regression of mean R/S against block length.

Beyond the plain fit this module provides the classical five-variant
estimator suite in the Weron (2002) lineage, built around the
Anis-Lloyd expected rescaled range with the Peters small-sample factor:

    E[R/S_n] = c_n * ((n - 0.5) / n) * sum_{i=1}^{n-1} sqrt((n - i) / i)

where c_n is Gamma((n-1)/2) / (Gamma(n/2) * sqrt(pi)) exactly for
n <= 340 and its asymptotic 1/sqrt(n * pi / 2) above. Comparing the
empirical statistic against this i.i.d. expectation removes the strong
positive small-sample bias of the raw fit.

Every R/S value comes from one pass per block length over all of that
length's blocks, laid out as the rows of a matrix. Each row is centred
once: its standard deviation and the range of its running sums are both
read off the same centred values, with the arithmetic of ``np.std`` and
``rs_statistic``, so the values are bit-identical to a per-block loop.
The suite's divisor ladder and the expectations on it depend only on the
series length, and a small cache keeps them for the lengths used last.

Related fractal quantities: a process with exponent h has fractal
dimension 1/h, and its successive increments are correlated with
rho = 2^(2h-1) - 1 (from the second-moment relation 2^2h = 2 + 2 rho).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _EXPORTS
from .core import TimeSeries, _integer, _moments, _real, _weighted_line_fit, sample_values
from .errors import WARN_H_OUT_OF_RANGE, NumericError, ValidationError, WarningRecord

__all__ = list(_EXPORTS["hurst"])

# Above this window length the exact Gamma-ratio prefactor of the
# Anis-Lloyd expectation is replaced by its asymptotic form (Weron 2002).
_GAMMA_FORM_LIMIT = 340


@dataclass(frozen=True)
class RsPoint:
    """Aggregated R/S at one block length.

    ``mean_rs``/``std_rs`` are taken over all full non-overlapping blocks
    of length ``window``; ``std_rs`` is 0 when only one block fits.
    """

    window: int
    mean_rs: float
    std_rs: float
    blocks: int


@dataclass(frozen=True)
class RsTable:
    """R/S measurements across a ladder of block lengths.

    ``skipped_blocks`` counts the blocks whose values are all equal (or
    whose variance comes out exactly 0), which were excluded from their
    scale's aggregate (flat stretches in real data).
    """

    points: tuple[RsPoint, ...]
    skipped_blocks: int = 0

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class HurstEstimate:
    """A fitted Hurst exponent with regression diagnostics."""

    h: float
    std_err: float
    r_squared: float
    weighted: bool
    fractal_dimension: float
    points_used: int
    warnings: tuple[WarningRecord, ...] = ()


@dataclass(frozen=True)
class HurstSuite:
    """The five classical estimator variants for one series."""

    h_simple: float
    h_corrected_rs: float
    h_empirical: float
    h_corrected_empirical: float
    h_theoretical: float


@dataclass(frozen=True)
class FractalSummary:
    """Correlation of successive increments implied by an exponent."""

    rho: float


def rs_statistic(x: TimeSeries | Sequence[float] | np.ndarray) -> float:
    """Rescaled adjusted range R/S of one block.

    R is the range of the mean-adjusted partial sums, S the sample
    standard deviation (n-1 divisor). Raises ``NumericError`` on a
    constant block, where S vanishes.
    """
    arr = sample_values(x)
    if arr.size < 2:
        raise ValidationError("rs_statistic requires a block of length >= 2")
    _, centred, variance, flat = _moments(arr)
    if flat.size:
        raise NumericError("rescaled range undefined for a constant block")
    deviations = np.cumsum(centred)
    r = np.max(deviations) - np.min(deviations)
    return float(r / np.sqrt(variance))


def _block_rs_values(x: np.ndarray, window: int) -> tuple[np.ndarray, int]:
    """R/S of each full block of ``window`` samples; remainder discarded.

    One row-wise pass over the blocks laid out as the rows of a
    (blocks, window) matrix, which centres each block once: S is taken
    from the centred rows, and the range from their running sums, written
    over the same buffer. Each row goes through the arithmetic of
    ``rs_statistic`` on that block, so the values are bit-identical to it.
    Constant rows, by ``core._moments``' rule, are dropped, by a copy only
    when there is one. Returns the values of the other blocks and the
    count of skipped (constant) blocks.
    """
    nb = x.size // window
    _, deviations, variance, flat = _moments(x[: nb * window].reshape(nb, window))
    if flat.size:
        deviations, variance = np.delete(deviations, flat, 0), np.delete(variance, flat)
    np.cumsum(deviations, axis=1, out=deviations)
    r = np.maximum.reduce(deviations, axis=1) - np.minimum.reduce(deviations, axis=1)
    return r / np.sqrt(variance), flat.size


def _rs_points(x: np.ndarray, windows: Iterable[int]) -> tuple[list[RsPoint], int]:
    """``RsPoint`` per window, in the given order, and the skipped-block total.

    Windows with no varying block are dropped. The order is kept
    because a line fit over the points sums them in that order, and its
    last bits depend on it. Each window's mean and scatter are
    ``np.mean`` and ``np.std(ddof=1)`` of its R/S values, by ``core._moments``.
    """
    points: list[RsPoint] = []
    skipped_total = 0
    for w in windows:
        values, skipped = _block_rs_values(x, w)
        skipped_total += skipped
        if not values.size:
            continue
        mean, _, variance, _ = _moments(values)
        std = math.sqrt(variance)
        points.append(
            RsPoint(window=w, mean_rs=float(mean[0]), std_rs=std, blocks=values.size)
        )
    return points, skipped_total


def default_window_ladder(n: int, min_window: int = 8) -> list[int]:
    """Geometric factor-2 ladder from ``min_window`` up, plus n/2 and n."""
    windows = set()
    w = min_window
    while w <= n // 2:
        windows.add(w)
        w *= 2
    windows.add(n // 2)
    windows.add(n)
    return sorted(w for w in windows if w >= 2)


def rs_table(
    ts: TimeSeries | np.ndarray,
    min_window: int = 8,
    scheme: Iterable[int] | None = None,
) -> RsTable:
    """Mean and scatter of R/S over consecutive blocks at each scale.

    The default scheme is the factor-2 ladder ``min_window, 2*min_window,
    ... <= n/2`` plus the two whole-series scales n/2 and n. Blocks are
    consecutive and non-overlapping; the tail remainder at each scale is
    discarded. Blocks whose values are all equal (or whose variance comes
    out exactly 0) are skipped and counted. The default
    scheme needs at least ``2 * min_window`` samples; an explicit
    ``scheme`` replaces it, and its windows need only lie in [2, n].
    """
    x = sample_values(ts)
    n = x.size
    min_window = _integer(min_window, "min_window")
    if min_window < 2:
        raise ValidationError("min_window must be at least 2")
    if scheme is None:
        if n < 2 * min_window:
            raise ValidationError(
                f"series of length {n} too short for min_window {min_window}"
            )
        windows = default_window_ladder(n, min_window)
    else:
        windows = sorted({_integer(w, "scheme window") for w in scheme})
        if any(w < 2 or w > n for w in windows):
            raise ValidationError("scheme windows must lie in [2, n]")
    points, skipped_total = _rs_points(x, windows)
    if not points:
        raise NumericError("no block had positive variance; series is constant")
    return RsTable(points=tuple(points), skipped_blocks=skipped_total)


def fit_h(points: RsTable | Iterable[RsPoint], weighted: bool = False) -> HurstEstimate:
    """Hurst exponent from log2(mean R/S) regressed on log2(window).

    The weighted variant uses weights 1/std_rs^2, reading each scale's
    block-to-block scatter as its measurement error; points with zero
    scatter (single block) receive the largest finite weight present.
    Exponents outside (0, 1.5) are reported with a warning, not clamped:
    trending or otherwise non-stationary input legitimately produces them
    and the value is diagnostic.
    """
    pts = tuple(points.points if isinstance(points, RsTable) else points)
    if len({p.window for p in pts}) < 3:
        raise ValidationError("fit requires at least 3 points with distinct windows")
    x = np.log2([p.window for p in pts])
    y = np.log2([p.mean_rs for p in pts])
    weights = None  # unit weights, as when no scale has scatter
    if weighted:
        stds = np.asarray([p.std_rs for p in pts])
        nonzero = stds > 0.0
        if nonzero.any():
            weights = np.empty(len(pts))
            weights[nonzero] = 1.0 / stds[nonzero] ** 2
            weights[~nonzero] = np.max(weights[nonzero])
    slope, _, std_err, r_squared = _weighted_line_fit(x, y, weights)
    warnings = []
    if not 0.0 < slope < 1.5:
        warnings.append(
            WarningRecord(
                code=WARN_H_OUT_OF_RANGE,
                message=f"fitted exponent {slope:.4f} outside (0, 1.5); "
                "input may be trending or otherwise non-stationary",
            )
        )
    fd = 1.0 / slope if slope != 0.0 else math.inf
    return HurstEstimate(
        h=slope,
        std_err=std_err,
        r_squared=r_squared,
        weighted=weighted,
        fractal_dimension=fd,
        points_used=len(pts),
        warnings=tuple(warnings),
    )


def expected_rescaled_range(window: int) -> float:
    """Expected R/S of an i.i.d. Gaussian block of the given length.

    Anis-Lloyd formula with the Peters (n - 0.5)/n small-sample factor;
    the exact Gamma-ratio prefactor is used up to window 340 and its
    asymptotic form beyond, where the Gamma values would overflow.
    """
    w = _integer(window, "window")
    if w < 2:
        raise ValidationError("expected_rescaled_range requires window >= 2")
    i = np.arange(1, w)
    tail_sum = float(np.sum(np.sqrt((w - i) / i)))
    scaled = (w - 0.5) / w * tail_sum
    if w > _GAMMA_FORM_LIMIT:
        return scaled / math.sqrt(0.5 * math.pi * w)
    prefactor = math.exp(math.lgamma(0.5 * (w - 1)) - math.lgamma(0.5 * w))
    return prefactor * scaled / math.sqrt(math.pi)


def _log_slope(windows: Sequence[int], values: Sequence[float]) -> float:
    if len(windows) < 3:
        raise NumericError("fewer than 3 usable scales; series may be degenerate")
    x = np.log2(np.asarray(windows, dtype=float))
    y = np.log2(np.asarray(values, dtype=float))
    return _weighted_line_fit(x, y)[0]


def _halving_ladder(n: int, min_window: int = 8) -> list[int]:
    windows = []
    w = n
    while w >= min_window:
        windows.append(w)
        w //= 2
    return windows


def _divisor_ladder(n: int, min_div: int) -> tuple[int, list[int]]:
    """Near-full length with the richest divisor set, and those divisors.

    Scans [0.99 n, n] for the length whose divisor count within
    [min_div, length/2] is largest (ties go to the larger length), the
    scheme of the Weron estimator family. ``min_div`` is relaxed by
    halving until at least 3 divisors exist so short series stay usable.
    """
    lo = int(math.floor(0.99 * n))
    # Every divisor of a candidate pairs a d <= sqrt(candidate) with its
    # cofactor; stepping through the multiples of each d up to sqrt(n)
    # finds all pairs in O(0.01 n log n + sqrt(n)) steps.
    divisors: dict[int, set[int]] = {cand: set() for cand in range(lo, n + 1)}
    for d in range(1, math.isqrt(n) + 1):
        for cand in range(max(d * d, -(-lo // d) * d), n + 1, d):
            divisors[cand].update((d, cand // d))
    ladders = [(cand, sorted(divs)) for cand, divs in divisors.items()]
    while True:
        best_len, best_divs = n, []
        for cand, all_divs in ladders:
            divs = [d for d in all_divs if min_div <= d <= cand // 2]
            if len(divs) >= len(best_divs):
                best_len, best_divs = cand, divs
        if len(best_divs) >= 3 or min_div <= 2:
            return best_len, best_divs
        min_div = max(2, min_div // 2)


@functools.lru_cache(maxsize=32)
def _suite_ladder(n: int) -> tuple[int, tuple[int, ...], tuple[float, ...]]:
    """The suite's divisor ladder at length ``n``, and E[R/S] of each window.

    Returns the near-full length, its divisor windows and the Anis-Lloyd
    expectation of each window, in ladder order. All three depend on n
    alone, so repeated suites at one length (an ensemble, a null band)
    find and evaluate them once. The cache holds the 32 most recently
    used lengths, and its values are tuples, so no caller can change what
    the next one is given. ``n`` must be a checked int: the cache would
    take ``True`` for 1.
    """
    opt_n, ladder = _divisor_ladder(n, min_div=min(50, n // 4))
    return opt_n, tuple(ladder), tuple(expected_rescaled_range(w) for w in ladder)


def hurst_suite(ts: TimeSeries | np.ndarray) -> HurstSuite:
    """The five classical Hurst estimates of one series.

    * ``h_simple``: raw mean R/S fitted on the halving ladder n, n/2, ...
      down to blocks of 8.
    * ``h_empirical``: raw mean R/S fitted on the denser divisor ladder
      over the trailing near-full segment.
    * ``h_theoretical``: the same fit applied to the i.i.d. expectation
      E[R/S] on that ladder; purely a function of the ladder, it measures
      the small-sample bias a memoryless series would show.
    * ``h_corrected_rs``: fit of R/S - E[R/S] + sqrt(pi * w / 2), the
      statistic with its finite-sample bias swapped for the asymptotic
      sqrt-law so that a memoryless series comes out near 0.5.
    * ``h_corrected_empirical``: 0.5 + h_empirical - h_theoretical.

    The divisor ladder and its expectations are cached by length (the 32
    most recent lengths), so after the first call at a length a suite
    pays only for the R/S passes and the fits.
    """
    x = sample_values(ts)
    n = x.size
    if n < 32:
        raise ValidationError(f"hurst_suite requires at least 32 samples, got {n}")

    simple, _ = _rs_points(x, _halving_ladder(n))
    h_simple = _log_slope([p.window for p in simple], [p.mean_rs for p in simple])

    opt_n, ladder, ladder_expected = _suite_ladder(n)
    points, _ = _rs_points(x[n - opt_n :], ladder)
    windows = [p.window for p in points]
    mean_arr = np.asarray([p.mean_rs for p in points])
    expected_of = dict(zip(ladder, ladder_expected))
    expected = np.asarray([expected_of[w] for w in windows])
    w_arr = np.asarray(windows, dtype=float)

    h_empirical = _log_slope(windows, mean_arr)
    h_theoretical = _log_slope(windows, expected)
    corrected = mean_arr - expected + np.sqrt(0.5 * math.pi * w_arr)
    usable = corrected > 0.0
    h_corrected_rs = _log_slope(
        [w for w, u in zip(windows, usable) if u], corrected[usable]
    )
    return HurstSuite(
        h_simple=h_simple,
        h_corrected_rs=h_corrected_rs,
        h_empirical=h_empirical,
        h_corrected_empirical=0.5 + h_empirical - h_theoretical,
        h_theoretical=h_theoretical,
    )


def fractal_correlation(h: float) -> FractalSummary:
    """Correlation of successive increments of a fractal process.

    Inverts 2^2h = 2 + 2 rho to rho = 2^(2h-1) - 1, which maps (0, 1)
    exponents onto (-0.5, 1): zero at h = 0.5 (memoryless), positive for
    persistent processes, negative for anti-persistent ones.
    """
    h = _real(h, "h")
    if not 0.0 < h < 1.0:
        raise ValidationError(f"fractal correlation requires h in (0, 1), got {h}")
    return FractalSummary(rho=float(2.0 ** (2.0 * h - 1.0) - 1.0))


def fractal_dimension(h: float) -> float:
    """Probability-space fractal dimension 1/h of an exponent-h series."""
    h = _real(h, "h")
    if not h > 0.0:
        raise ValidationError(f"fractal dimension requires h > 0, got {h}")
    return 1.0 / h
