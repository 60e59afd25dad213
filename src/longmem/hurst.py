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
length's blocks, laid out as the rows of a matrix; ``rs_statistic`` is
that pass on one block. Each row is centred once: its standard deviation
and the range of its running sums are both read off the same centred
values, with the arithmetic of ``np.std``. The running sums keep the
row layout when a length has no more blocks than samples; with more
blocks than samples they are laid out as columns, which numpy reduces in
one elementwise pass per sample instead of one call per short row. Each
block's sum still adds its values in index order and max and min are
exact, so in either layout the values are bit-identical to a per-block
loop. One loop over the windows feeds two aggregations: ``rs_table``
takes each window's mean and scatter by ``core._moments``, and
``hurst_suite``, which fits means only, takes the mean alone, by the same
sum over the count, and builds no ``RsPoint``: the scatter and the
points were 17 % of a suite call at n = 776 and 13 % at n = 4096 (on a
shared 2-vCPU x86 machine, numpy 2.4.6). Every
exponent comes from one log-log line fit. The suite's
divisor ladder and the expectations on it depend only on the series
length, and a small cache keeps them for the lengths used last.

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
from .errors import (
    WARN_H_OUT_OF_RANGE,
    WARN_SKIPPED_BLOCKS,
    NumericError,
    ValidationError,
    WarningRecord,
)

__all__ = list(_EXPORTS["hurst"])

# Above this window length the exact Gamma-ratio prefactor of the
# Anis-Lloyd expectation is replaced by its asymptotic form (Weron 2002).
_GAMMA_FORM_LIMIT = 340
# The most terms of E[R/S]'s sum held at once (see ``_tail_sum``)
_TAIL_LEAF = 1 << 16


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
    scale's aggregate (flat stretches in real data). When it is positive,
    ``warnings`` holds one ``SKIPPED_BLOCKS`` record that says so.
    """

    points: tuple[RsPoint, ...]
    skipped_blocks: int = 0
    warnings: tuple[WarningRecord, ...] = ()

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class HurstEstimate:
    """A fitted Hurst exponent with regression diagnostics.

    ``fractal_dimension`` is ``fractal_dimension(h)`` and
    ``fractal_correlation`` is ``fractal_correlation(h).rho``; each is
    ``None`` where its function refuses ``h``: at h <= 0 for the dimension,
    outside (0, 1) for the correlation.

    ``std_err`` is the OLS slope error of the log-log fit, which assumes
    independent residuals; the mean R/S values at different windows share
    data, so it understates the spread of ``h``. Over 300 seeds at n = 776
    (white noise, AR(1) with phi = 0.7, fGn with H = 0.7), the standard
    deviation of ``h`` across seeds was 1.6-2.4 times the median
    ``std_err``, and 5-9 times with ``weighted=True``; ``h`` +/- 1.96
    ``std_err`` covered the ensemble median in only 56-77 % of seeds.
    """

    h: float
    std_err: float
    r_squared: float
    weighted: bool
    fractal_dimension: float | None
    fractal_correlation: float | None
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
    standard deviation (n-1 divisor): the block pass of ``rs_table`` with
    the whole block as its one block. Raises ``NumericError`` on a
    constant block, where S vanishes.
    """
    arr = sample_values(x)
    if arr.size < 2:
        raise ValidationError("rs_statistic requires a block of length >= 2")
    values, skipped = _block_rs_values(arr, arr.size)
    if skipped:
        raise NumericError("rescaled range undefined for a constant block")
    return float(values[0])


def _block_rs_values(x: np.ndarray, window: int) -> tuple[np.ndarray, int]:
    """R/S of each full block of ``window`` samples; remainder discarded.

    One pass over the blocks laid out as the rows of a (blocks, window)
    matrix, which centres each block once: S is taken from the centred
    rows, and the range from their running sums. Constant rows, by
    ``core._moments``' rule, are dropped, by a copy only when there is one.
    Returns the values of the other blocks and the count of skipped
    (constant) blocks.

    The running sums' layout follows the matrix's shape. With no more
    blocks than samples they are written over the centred rows and
    reduced along them. With more blocks than samples they go through
    the transpose of a (window, blocks) buffer and are reduced down its
    columns: numpy reduces a short row by one inner-loop call per row,
    and a column reduction is one elementwise pass per sample, about ten
    times faster over the 512 blocks of 8 at n = 4096. The bits are the
    same either way: the running sum adds each block's values in index
    order in both layouts, and max and min are exact.
    """
    nb = x.size // window
    _, deviations, variance, flat = _moments(x[: nb * window].reshape(nb, window))
    if flat.size:
        deviations, variance = np.delete(deviations, flat, 0), np.delete(variance, flat)
    if nb > window:
        sums = np.empty((window, variance.size))
        np.cumsum(deviations, axis=1, out=sums.T)
        r = np.maximum.reduce(sums) - np.minimum.reduce(sums)
    else:
        deviations.cumsum(axis=1, out=deviations)
        r = np.maximum.reduce(deviations, axis=1) - np.minimum.reduce(deviations, axis=1)
    return r / np.sqrt(variance), flat.size


def _kept_rs_values(x: np.ndarray, windows: Iterable[int]):
    """Each window with a varying block, in the given order, and its R/S values.

    The one window loop of ``rs_table`` and ``hurst_suite``. The order
    is kept because a line fit over the windows sums them in that order,
    and its last bits depend on it. The values leave out each window's
    flat blocks, and a window that is not yielded had only flat blocks,
    so the skipped blocks are the n // w blocks of each window less the
    values yielded.
    """
    for w in windows:
        values, _ = _block_rs_values(x, w)
        if values.size:
            yield w, values


def _mean_rs(x: np.ndarray, windows: Iterable[int]) -> np.ndarray:
    """The windows with a varying block and their mean R/S, as two float rows.

    Each mean is ``core._moments``' mean without the rest of its work:
    numpy's sum over the count, or the common value of values that are
    all equal, where that sum over the count can be an ulp off it.
    """
    kept = []
    for w, values in _kept_rs_values(x, windows):
        first = values[0]  # unequal ends spare a window the max and min
        equal = first == values[-1] and np.maximum.reduce(values) == np.minimum.reduce(values)
        kept.append((w, first if equal else np.add.reduce(values) / values.size))
    return np.array(kept).reshape(-1, 2).T


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
    points = []
    for w, values in _kept_rs_values(x, windows):
        mean, _, variance, _ = _moments(values)
        std = math.sqrt(variance)
        points.append(
            RsPoint(window=w, mean_rs=float(mean[0]), std_rs=std, blocks=values.size)
        )
    if not points:
        raise NumericError("no block had positive variance; series is constant")
    skipped_total = sum(n // w for w in windows) - sum(p.blocks for p in points)
    message = f"{skipped_total} zero-variance blocks skipped"
    warnings = (WarningRecord(WARN_SKIPPED_BLOCKS, message),) if skipped_total else ()
    return RsTable(points=tuple(points), skipped_blocks=skipped_total, warnings=warnings)


def fit_h(points: RsTable | Iterable[RsPoint], weighted: bool = False) -> HurstEstimate:
    """Hurst exponent from log2(mean R/S) regressed on log2(window).

    The weighted variant uses weights 1/std_rs^2, reading each scale's
    block-to-block scatter as its measurement error; points with zero
    scatter (single block) receive the largest finite weight present.
    Exponents outside (0, 1.5) are reported with a warning, not clamped:
    trending or otherwise non-stationary input legitimately produces them
    and the value is diagnostic. ``RsTable.warnings`` are not repeated
    in the estimate's.
    """
    pts = tuple(points)
    if len({p.window for p in pts}) < 3:
        raise ValidationError("fit requires at least 3 points with distinct windows")
    windows, means, stds = np.array([(p.window, p.mean_rs, p.std_rs) for p in pts]).T
    weights = None  # unit weights, as when no scale has scatter
    if weighted:
        nonzero = stds > 0.0
        if nonzero.any():
            weights = np.empty(len(pts))
            weights[nonzero] = 1.0 / stds[nonzero] ** 2
            weights[~nonzero] = weights[nonzero].max()
    slope, _, std_err, r_squared = _log_fit(windows, means, weights)
    warnings = []
    if not 0.0 < slope < 1.5:
        warnings.append(
            WarningRecord(
                code=WARN_H_OUT_OF_RANGE,
                message=f"fitted exponent {slope:.4f} outside (0, 1.5); "
                "input may be trending or otherwise non-stationary",
            )
        )
    return HurstEstimate(
        h=slope,
        std_err=std_err,
        r_squared=r_squared,
        weighted=weighted,
        fractal_dimension=_where_defined(fractal_dimension, slope),
        fractal_correlation=_where_defined(lambda h: fractal_correlation(h).rho, slope),
        points_used=len(pts),
        warnings=tuple(warnings),
    )


def _log_fit(windows: np.ndarray, values: np.ndarray, weights: np.ndarray | None = None):
    """The R/S layer's one line fit: log2(values) on log2(windows).

    Returns ``core._weighted_line_fit``'s (slope, intercept, slope
    standard error, r_squared); fewer than 3 points raise ``NumericError``.
    """
    if windows.size < 3:
        raise NumericError("fewer than 3 usable scales; series may be degenerate")
    return _weighted_line_fit(np.log2(windows), np.log2(values), weights)


def _where_defined(quantity, h: float) -> float | None:
    """``quantity(h)``, or ``None`` where its own rule refuses ``h``."""
    try:
        return quantity(h)
    except ValidationError:
        return None


def expected_rescaled_range(window: int) -> float:
    """Expected R/S of an i.i.d. Gaussian block of the given length.

    Anis-Lloyd formula with the Peters (n - 0.5)/n small-sample factor;
    the exact Gamma-ratio prefactor is used up to window 340 and its
    asymptotic form beyond. The prefactor is taken through ``math.lgamma``,
    which does not overflow; the switch is Weron's (2002) rule, kept for
    parity with that estimator family. It makes E[R/S] step down from
    21.9607 at window 340 to 21.9463 at 341, where the exact form would
    give 21.9947.
    """
    w = _integer(window, "window")
    if w < 2:
        raise ValidationError("expected_rescaled_range requires window >= 2")
    scaled = (w - 0.5) / w * _tail_sum(w, 1, w)
    if w > _GAMMA_FORM_LIMIT:
        return scaled / math.sqrt(0.5 * math.pi * w)
    prefactor = math.exp(math.lgamma(0.5 * (w - 1)) - math.lgamma(0.5 * w))
    return prefactor * scaled / math.sqrt(math.pi)


def _tail_sum(w: int, lo: int, hi: int) -> float:
    """The sum of sqrt((w - i) / i) over i in [lo, hi), as one ``np.add.reduce``.

    ``np.add.reduce`` sums a contiguous 1-d float64 array pairwise: above
    128 terms it halves it at n // 2 rounded down to a multiple of 8 and
    adds the sums of the halves. Halving at the same places down to
    leaves of at most ``_TAIL_LEAF`` terms, each summed by
    ``np.add.reduce``, is the same arithmetic, so the sum keeps the bits
    of one reduction over all the terms while holding one leaf's terms at
    a time: three arrays of 512 KB at any window, not of 80 MB each at
    w = 1e7.
    """
    n = hi - lo
    if n <= _TAIL_LEAF:
        i = np.arange(lo, hi)
        return float(np.add.reduce(np.sqrt((w - i) / i)))
    half = n // 2
    half -= half % 8
    return _tail_sum(w, lo, lo + half) + _tail_sum(w, lo + half, hi)


def _halving_ladder(n: int) -> list[int]:
    windows = []
    w = n
    while w >= 8:
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
    pays only for the R/S passes, one mean per window and the fits: about
    0.46 ms at n = 776 and 2.3 ms at n = 4096. Flat blocks are left out
    without a warning (``rs_table`` warns ``SKIPPED_BLOCKS``).
    """
    x = sample_values(ts)
    n = x.size
    if n < 32:
        raise ValidationError(f"hurst_suite requires at least 32 samples, got {n}")

    windows, means = _mean_rs(x, _halving_ladder(n))
    h_simple = _log_fit(windows, means)[0]

    opt_n, ladder, expected = _suite_ladder(n)
    windows, means = _mean_rs(x[n - opt_n :], ladder)
    # the ladder ascends; keep the expectations of the windows with a varying block
    expected = np.array(expected)[np.array(ladder).searchsorted(windows)]
    h_empirical = _log_fit(windows, means)[0]
    h_theoretical = _log_fit(windows, expected)[0]
    # R/S >= 0 and sqrt(pi w / 2) - E[R/S_w] > 1.02 on every window, so every
    # corrected R/S is above 1
    corrected = means - expected + np.sqrt(0.5 * math.pi * windows)
    h_corrected_rs = _log_fit(windows, corrected)[0]
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
