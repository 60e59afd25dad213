"""Time-series container and descriptive statistics.

``TimeSeries`` is the canonical input to every analysis in the toolkit:
an immutable vector of finite samples, optionally anchored to a monthly
calendar. ``summarize`` produces the descriptive table (mean, median,
modes, dispersion) used for a first look at an index series.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ValidationError

__all__ = ["TimeSeries", "SummaryStats", "summarize", "standardize"]


@dataclass(frozen=True)
class TimeSeries:
    """Ordered finite real samples with optional monthly calendar anchoring.

    Parameters
    ----------
    values : array-like of float
        The samples. Must be non-empty and finite.
    start : (year, month) tuple, optional
        Calendar anchor of the first sample. When present, sample ``i``
        falls at ``start + i * step_months`` months.
    step_months : int
        Sampling interval in months (default 1).
    label : str
        Free-text description carried through analyses.
    """

    values: np.ndarray
    start: tuple[int, int] | None = None
    step_months: int = 1
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("series must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("series contains non-finite values")
        if self.step_months <= 0:
            raise ValidationError("step_months must be positive")
        if self.start is not None:
            year, month = self.start
            if not 1 <= month <= 12:
                raise ValidationError(f"start month {month} outside 1..12")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def time_of(self, i: int) -> tuple[int, int]:
        """Calendar (year, month) of sample ``i``. Requires an anchor."""
        if self.start is None:
            raise ValidationError("series has no calendar anchor")
        year, month = self.start
        total = (year * 12 + (month - 1)) + i * self.step_months
        return total // 12, total % 12 + 1

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """Copy of this series with new samples, same anchor and label."""
        return replace(self, values=values)


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
