"""Time-series container and descriptive statistics.

``TimeSeries`` is the canonical input to every analysis in the toolkit:
an immutable vector of finite samples, optionally anchored to a monthly
calendar. ``summarize`` produces the descriptive table (mean, median,
modes, dispersion) used for a first look at an index series.
"""

from __future__ import annotations

import math
import numbers
import re
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import _EXPORTS
from .errors import NumericError, ValidationError

__all__ = list(_EXPORTS["core"])


def month_number(year_month: tuple[int, int]) -> int:
    """Months from January of year 0 to ``(year, month)``."""
    year, month = year_month
    return year * 12 + month - 1


def calendar_month(number: int) -> tuple[int, int]:
    """The ``(year, month)`` of a month number; inverse of ``month_number``."""
    year, month = divmod(number, 12)
    return year, month + 1


def format_month(year_month: tuple[int, int]) -> str:
    """``(year, month)`` written as ``YYYY-MM``."""
    year, month = year_month
    return f"{year:04d}-{month:02d}"


_MONTH_RE = re.compile(r"(\d{4})-(\d{1,2})")


def parse_month(text: str) -> tuple[int, int] | None:
    """``YYYY-MM`` text as ``(year, month)``, or None when it is not in that form.

    The year has four digits and the month one or two; the month's range
    is the caller's check.
    """
    match = _MONTH_RE.fullmatch(text)
    return None if match is None else (int(match[1]), int(match[2]))


def frozen_copy(values, dtype=None) -> np.ndarray:
    """A read-only copy of ``values``, so a result never shares the caller's array."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Ordered finite real samples, one a month, with an optional calendar anchor.

    This is the one definition of valid samples: every analysis checks a
    raw array by building a ``TimeSeries`` of it (``sample_values``).

    Parameters
    ----------
    values : array-like of float
        The samples. Must be a non-empty 1-d sequence of finite values.
    start : (year, month) pair of integers, optional
        Calendar anchor of the first sample, month in 1..12, kept as a
        tuple of ints. When present, sample ``i`` falls ``i`` months after
        ``start``.
    label : str
        Free-text description carried through analyses.
    """

    values: np.ndarray
    start: tuple[int, int] | None = None
    label: str = ""

    def __post_init__(self):
        arr = frozen_copy(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("series must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("series contains non-finite values")
        if self.start is not None:
            object.__setattr__(self, "start", _checked_start(self.start))
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def time_of(self, i: int) -> tuple[int, int]:
        """Calendar (year, month) of sample ``i``, ``0 <= i < len``. Requires an anchor."""
        if self.start is None:
            raise ValidationError("series has no calendar anchor")
        i = _integer(i, "sample index")
        if not 0 <= i < len(self):
            raise ValidationError(f"sample index {i} outside [0, {len(self)})")
        return calendar_month(month_number(self.start) + i)

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """Copy of this series with new samples, same anchor and label."""
        return replace(self, values=values)


def _integer(value, name: str) -> int:
    """``value`` as a Python int; bools and non-integral numbers are refused.

    The one rule for every integer parameter of the public API: a float
    such as 8.7 is refused, not truncated, and ``True`` is not 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a finite Python float; bools, strings and nan or inf are refused.

    The one rule for every real parameter of the public API: numpy floats
    are accepted and stored as Python floats, ``True`` is not 1.0, and no
    parameter takes nan or an infinity. Each caller then applies only its
    own range.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _checked_start(start, name: str = "start") -> tuple[int, int]:
    """``start`` as a ``(year, month)`` tuple of ints, the month in 1..12.

    The one rule for every calendar-month parameter: a series anchor and
    both ends of a calendar range. Bools are not integers.
    """
    if (
        not isinstance(start, (tuple, list))
        or len(start) != 2
        or not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in start)
    ):
        raise ValidationError(f"{name} must be a (year, month) pair of integers, got {start!r}")
    year, month = int(start[0]), int(start[1])
    if not 1 <= month <= 12:
        raise ValidationError(f"{name} month {month} outside 1..12")
    return year, month


def _as_series(x: TimeSeries | np.ndarray) -> TimeSeries:
    """``x`` itself if it is a ``TimeSeries``, else a checked ``TimeSeries(x)``."""
    return x if isinstance(x, TimeSeries) else TimeSeries(x)


def sample_values(x: TimeSeries | np.ndarray) -> np.ndarray:
    """The samples of ``x``, checked as a ``TimeSeries`` unless it is one.

    Samples too large for an analysis's sums to stay finite are refused:
    max|x| must not exceed 2**500 / n. A centred value is at most 2*max in
    size, so a centred sum of squares is at most 4n*max**2 and an ACF power
    term, the square of a sum of n centred values, at most 4n**2*max**2.
    Under the bound both are at most 4 * 2**1000 = 2**1002, well inside
    float64, whose largest value is near 2**1024. The test divides rather
    than multiplies, so it cannot overflow itself.

    Samples too small to square are refused too: max|x| must be 0 or at
    least 2**-400. The sample of largest magnitude then differs from any
    unequal sample by at least the float spacing just below it, 2**-453,
    so the largest centred value of a series that is not constant is at
    least 2**-454 and its square at least 2**-908, a normal float64 (those
    start at 2**-1022). Below the bound a sum of squares can underflow to
    0 and a varying series read as constant. An all-zero series passes,
    to meet the analyses' own constancy errors.
    """
    values = _as_series(x).values
    peak, limit = float(np.abs(values).max()), 2.0**500 / values.size
    if peak > limit:
        raise ValidationError(
            f"samples reach {peak:.3g} in magnitude; {values.size} samples "
            f"may reach at most 2**500/n = {limit:.3g}"
        )
    if 0.0 < peak < 2.0**-400:
        raise ValidationError(
            f"samples reach only {peak:.3g} in magnitude; nonzero samples "
            f"must reach at least 2**-400 = {2.0**-400:.3g}"
        )
    return values


@dataclass(frozen=True)
class SummaryStats:
    """Descriptive statistics of one series.

    ``cv_percent`` (coefficient of variation, 100*std/|mean|) is ``None``
    when undefined: zero mean, or a constant series.
    """

    n: int
    mean: float
    median: float
    mode_first: float
    mode_second: float | None
    std_dev: float
    mean_abs_dev: float
    variance: float
    cv_percent: float | None


# ``_moments``' row indices when no row is constant
_NO_ROWS = frozen_copy(np.empty(0, dtype=np.intp))


def _moments(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean, centred values, sample variance and the constant rows, along the last axis.

    The one centring of the toolkit and its one constancy rule. A row (a
    1-d ``a``, or each row of a 2-d one) is constant exactly when its max
    equals its min; its moments are then (that value, zeros, 0.0). A row
    whose variance comes out exactly 0 is constant as well. The last
    value returned holds the row indices of the constant rows: for a 1-d
    ``a``, ``[0]`` when it is constant and empty otherwise. Every other row
    gets the arithmetic of ``np.mean`` and ``np.var(ddof=1)``, bit for
    bit: numpy's sum along the axis divided by its length (kept as an axis
    of length 1), the values less that mean, and their sum of squares over
    length - 1; the square root of the variance is ``np.std(ddof=1)``.
    The centred values are a new array the caller may overwrite. A single
    value is constant, with variance 0 where numpy would give NaN.

    Numpy's moments of k equal values v are not exact: at k = 776, 56 of
    the 80 values of SOI's 0.1 grid in [-4, 4) get a mean an ulp or two
    off v and a variance of order 1e-32. Max and min are compared only on
    the rows whose variance is at most ``limit`` = (k * 2**-50)**2 times
    the sum of the squared row means (one row's squared mean for a 1-d
    ``a``), which is at least (k * |mean| * 2**-50)**2 for every row, and
    that is the most a constant row can come out with. Any order of
    summation gives a sum within (k-1)u * k|v| of kv, u = 2**-53 (Higham
    2002, sec. 4.2), so the mean is within about k*u*|v| of v, |v| is
    within a factor 1 + k*u of |mean|, and every centred value is within
    k*u*|v| of 0. The sum of the k squares over k - 1 >= k/2 is then at
    most about 2 (k*u*|v|)**2, which 64 (k*u*|mean|)**2 covers with room
    for the roundings of the squares and sums, for any k below 2**40.
    Below the normal range a square rounds to 0 or to at most twice its
    value. A row with a square that rounds to a nonzero value has a bound
    above 2**-1076, far above the absolute roundings, 2**-1075 each, of
    ``limit`` and of the division; a row whose squares all round to 0 has
    variance exactly 0. The limit costs one dot product of the means, not
    a pass over the values.
    """
    size = a.shape[-1]
    mean = np.add.reduce(a, axis=-1, keepdims=True) / size
    centred = a - mean
    variance = np.add.reduce(centred * centred, axis=-1) / max(size - 1, 1)
    if size == 1:  # constant rows: the general path's result, without its indexing
        return a.copy(), np.zeros_like(a), variance, np.arange(mean.size)
    scale = size * 2.0**-50
    # one row's variance is a numpy scalar, compared without a numpy call
    if a.ndim == 1:
        bound = float(mean[0]) * scale
        least, limit = variance, bound * bound
    else:
        means = mean[:, 0]
        least, limit = np.minimum.reduce(variance), float(means.dot(means)) * scale * scale
    if least > limit:
        return mean, centred, variance, _NO_ROWS
    rows = a.reshape(-1, size)
    variance = np.array(variance)
    flat = np.flatnonzero(variance <= limit)
    equal = flat[rows[flat].max(axis=1) == rows[flat].min(axis=1)]
    mean.reshape(-1)[equal] = rows[equal, 0]
    centred.reshape(-1, size)[equal] = 0.0
    variance.reshape(-1)[equal] = 0.0
    return mean, centred, variance[()], flat[variance.reshape(-1)[flat] == 0.0]


def _modes(values: np.ndarray, resolution: float) -> tuple[float, float | None]:
    """Two most frequent values after rounding to the resolution grid.

    Ties are broken by descending count, then ascending value. Real-valued
    data generically has no exact repeats, so the mode is only meaningful
    on a discretized grid; ``resolution`` names that grid. A grid index
    of 2**53 or more is refused: from there it is no longer an exact
    integer, and the int64 cast can overflow.
    """
    with np.errstate(over="ignore"):  # an index that overflows is inf, refused
        scaled = values / resolution
    if np.max(np.abs(scaled)) >= 2.0**53:
        raise ValidationError(
            f"mode_resolution {resolution!r} is too fine for this series: "
            "its grid index reaches 2**53"
        )
    keys = np.rint(scaled).astype(np.int64)
    counts = Counter(keys.tolist())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    mode_first = ranked[0][0] * resolution
    mode_second = ranked[1][0] * resolution if len(ranked) > 1 else None
    return float(mode_first), None if mode_second is None else float(mode_second)


def _median(x: np.ndarray) -> float:
    """Median of a 1-d array with the arithmetic of ``np.median``.

    The middle element, or the two middle elements summed and halved.
    ``np.median`` imports ``numpy.ma`` on first use, which costs a
    command-line run more than all of ``summarize``.
    """
    k = x.size // 2
    if x.size % 2:
        return float(np.partition(x, k)[k])
    part = np.partition(x, (k - 1, k))
    return float((part[k - 1] + part[k]) / 2)


def summarize(ts: TimeSeries | np.ndarray, mode_resolution: float = 0.1) -> SummaryStats:
    """Descriptive statistics: count, center, modes, and dispersion.

    Uses the sample (n-1 divisor) convention for variance and standard
    deviation, the midpoint convention for even-length medians, and
    mean-centered absolute deviation. Modes are computed on values rounded
    to the nearest multiple of ``mode_resolution`` (default 0.1, matching
    the precision of published monthly climate indices).
    """
    x = sample_values(ts)
    if x.size < 2:
        raise ValidationError("summarize requires at least 2 samples")
    mode_resolution = _real(mode_resolution, "mode_resolution")
    if not mode_resolution > 0:
        raise ValidationError("mode_resolution must be positive")
    mean, centred, variance, flat = _moments(x)
    mean, variance = float(mean[0]), float(variance)
    std = math.sqrt(variance)
    mode_first, mode_second = _modes(x, mode_resolution)
    if flat.size or mean == 0.0:
        cv = None
    else:
        cv = 100.0 * std / abs(mean)
    return SummaryStats(
        n=x.size,
        mean=mean,
        median=_median(x),
        mode_first=mode_first,
        mode_second=mode_second,
        std_dev=std,
        mean_abs_dev=float(np.add.reduce(np.abs(centred)) / x.size),
        variance=variance,
        cv_percent=cv,
    )


def standardize(ts: TimeSeries | np.ndarray) -> TimeSeries:
    """Shift and scale to sample mean 0 and sample std 1.

    Raw samples come back as a ``TimeSeries``. The samples are checked by
    ``sample_values``. Raises ``NumericError`` on a constant series.
    """
    ts = _as_series(ts)
    x = sample_values(ts)
    _, centred, variance, flat = _moments(x)
    if flat.size:
        raise NumericError("cannot standardize a constant series")
    return ts.with_values(centred / np.sqrt(variance))


def _weighted_line_fit(x: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None):
    """Weighted least squares line fit; unit weights when none are given.

    Returns (slope, intercept, slope standard error, r_squared) with
    r_squared = 1 - SSE/SSM computed in the weighted norm. Weights are
    treated as relative, so the slope standard error is invariant under
    rescaling them.
    """
    w = np.ones(x.size) if weights is None else weights / np.mean(weights)
    sw = np.sum(w)
    x_bar = np.sum(w * x) / sw
    y_bar = np.sum(w * y) / sw
    sxx = np.sum(w * (x - x_bar) ** 2)
    if sxx == 0.0:
        raise ValidationError("all fit points share one window; slope undefined")
    slope = np.sum(w * (x - x_bar) * (y - y_bar)) / sxx
    intercept = y_bar - slope * x_bar
    residuals = y - (intercept + slope * x)
    sse = float(np.sum(w * residuals**2))
    ssm = float(np.sum(w * (y - y_bar) ** 2))
    dof = x.size - 2
    std_err = math.sqrt((sse / dof) / sxx) if dof > 0 else 0.0
    r_squared = 1.0 - sse / ssm if ssm > 0.0 else 1.0
    return float(slope), float(intercept), std_err, r_squared
