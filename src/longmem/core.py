"""Time-series container and descriptive statistics.

``TimeSeries`` is the canonical input to every analysis in the toolkit:
an immutable vector of finite samples, optionally anchored to a monthly
calendar. ``summarize`` produces the descriptive table (mean, median,
modes, dispersion) used for a first look at an index series.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ValidationError

__all__ = ["TimeSeries", "SummaryStats", "summarize", "standardize"]


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
    start : (year, month) tuple, optional
        Calendar anchor of the first sample. When present, sample ``i``
        falls ``i`` months after ``start``.
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
            year, month = self.start
            if not 1 <= month <= 12:
                raise ValidationError(f"start month {month} outside 1..12")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def time_of(self, i: int) -> tuple[int, int]:
        """Calendar (year, month) of sample ``i``, ``0 <= i < len``. Requires an anchor."""
        if self.start is None:
            raise ValidationError("series has no calendar anchor")
        if not 0 <= i < len(self):
            raise ValidationError(f"sample index {i} outside [0, {len(self)})")
        return calendar_month(month_number(self.start) + i)

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """Copy of this series with new samples, same anchor and label."""
        return replace(self, values=values)


def sample_values(x: TimeSeries | np.ndarray) -> np.ndarray:
    """The samples of ``x``, checked as a ``TimeSeries`` unless it is one."""
    return x.values if isinstance(x, TimeSeries) else TimeSeries(x).values


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


def _modes(values: np.ndarray, resolution: float) -> tuple[float, float | None]:
    """Two most frequent values after rounding to the resolution grid.

    Ties are broken by descending count, then ascending value. Real-valued
    data generically has no exact repeats, so the mode is only meaningful
    on a discretized grid; ``resolution`` names that grid.
    """
    keys = np.rint(values / resolution).astype(np.int64)
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


def summarize(ts: TimeSeries, mode_resolution: float = 0.1) -> SummaryStats:
    """Descriptive statistics: count, center, modes, and dispersion.

    Uses the sample (n-1 divisor) convention for variance and standard
    deviation, the midpoint convention for even-length medians, and
    mean-centered absolute deviation. Modes are computed on values rounded
    to the nearest multiple of ``mode_resolution`` (default 0.1, matching
    the precision of published monthly climate indices).
    """
    if len(ts) < 2:
        raise ValidationError("summarize requires at least 2 samples")
    if not (mode_resolution > 0):
        raise ValidationError("mode_resolution must be positive")
    x = ts.values
    mean = float(np.mean(x))
    std = float(np.std(x, ddof=1))
    variance = float(np.var(x, ddof=1))
    mode_first, mode_second = _modes(x, mode_resolution)
    if std == 0.0 or mean == 0.0:
        cv = None
    else:
        cv = 100.0 * std / abs(mean)
    return SummaryStats(
        n=len(ts),
        mean=mean,
        median=_median(x),
        mode_first=mode_first,
        mode_second=mode_second,
        std_dev=std,
        mean_abs_dev=float(np.mean(np.abs(x - mean))),
        variance=variance,
        cv_percent=cv,
    )


def standardize(ts: TimeSeries) -> TimeSeries:
    """Shift and scale to sample mean 0 and sample std 1.

    Raises ``NumericError`` on a constant series.
    """
    x = ts.values
    std = np.std(x, ddof=1) if x.size > 1 else 0.0
    if std == 0.0:
        raise NumericError("cannot standardize a constant series")
    return ts.with_values((x - np.mean(x)) / std)


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
