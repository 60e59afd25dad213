"""Time-series container and descriptive statistics.

``TimeSeries`` is the canonical input to every analysis in the toolkit:
an immutable vector of finite samples, optionally anchored to a monthly
calendar. ``summarize`` produces the descriptive table (mean, median,
modes, dispersion) used for a first look at an index series.

Calibration ensembles call the per-call paths here (``summarize``, the
shared moments, standardization and line fit) thousands of times, so
they use ufunc methods (``np.add.reduce``) and ndarray methods, not
numpy's Python-level wrappers (``np.sum``, ``np.mean``, ``np.diff``,
``np.errstate``). Each replacement runs the reduction or comparison its
wrapper ran, so no result changes by a bit.
"""

from __future__ import annotations

import math
import numbers
import re
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


def _sample_array(values) -> np.ndarray:
    """``values`` as a read-only float64 array, refused unless every sample is a real number.

    ``_real``'s rule for samples: bools, strings, bytes and complex numbers
    are refused, so ``True`` is not 1.0 and ``"1.5"`` is not 1.5, and so is
    a value that float conversion fails on. An integer or float ndarray
    pays only a dtype check; any other array dtype is refused, and other
    input is checked by the types of its items.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind != "O":
        if values.dtype.kind not in "iuf":
            raise ValidationError(f"series samples of dtype {values.dtype} are not real numbers")
        return frozen_copy(values, dtype=float)
    items = np.asarray(values, dtype=object)
    flat = items.ravel().tolist()
    kinds = set(map(type, flat))
    odd = {t for t in kinds if issubclass(t, bool) or not issubclass(t, numbers.Real)}
    if odd:
        i = next(i for i, v in enumerate(flat) if type(v) in odd)
        raise ValidationError(f"series sample {i} is a {type(flat[i]).__name__}, not a real number")
    try:
        return frozen_copy(items, dtype=float)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ValidationError(f"series samples must convert to float: {exc}") from None


@dataclass(frozen=True)
class TimeSeries:
    """Ordered finite real samples, one a month, with an optional calendar anchor.

    This is the one definition of valid samples: every analysis checks a
    raw array by building a ``TimeSeries`` of it (``sample_values``).

    Parameters
    ----------
    values : array-like of real numbers
        The samples. Must be a non-empty 1-d sequence of finite values;
        bools, strings, bytes and complex numbers are not samples
        (``_sample_array``).
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
        arr = _sample_array(self.values)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("series must be a non-empty 1-d sequence")
        if not np.isfinite(arr).all():
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


def _seed(value, name: str = "seed") -> int:
    """The one rule for every seed: an int in [0, 2**64), a key word never folded."""
    value = _integer(value, name)
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    if value >> 64:
        raise ValidationError(f"{name} must be below 2**64, got {value}")
    return value


def _count(value, name: str, factor: int = 1) -> int:
    """``value`` as a Python int, refused when numpy cannot size the array it sets.

    The one rule for every count that sets an array's length: an array of
    ``factor * (value + 1)`` float64 values must stay within numpy's
    largest array, ``np.iinfo(np.intp).max`` bytes. A larger count is
    refused before anything is allocated; one below the bound that does
    not fit in memory still raises ``MemoryError``. The caller checks its
    own minimum.
    """
    value = _integer(value, name)
    limit = np.iinfo(np.intp).max // (8 * factor) - 1
    if value > limit:
        raise ValidationError(
            f"{name} {value} is too large: the most numpy can size an array for is {limit}"
        )
    return value


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


# The most samples one BLAS call of ``_dot`` is given. OpenBLAS splits a
# dot product of more than 10 000 samples over its threads, and then its
# last bits follow the thread count; a call this long runs on one thread.
_DOT_CHUNK = 8192


def _dot(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """The inner product of 1-d ``a`` and ``b``, or an array of ``a``'s with each row of a 2-d ``b``.

    The toolkit's one dot product. Up to ``_DOT_CHUNK`` samples it is
    ``float(a @ b)``, one BLAS call; a stack's ``np.matmul(b[:, None, :],
    a[:, None])`` runs that BLAS dot per row, so a row gets the bits it
    gets alone (``b @ a``, a gemv, rounds differently). Above, it is the
    dots of the consecutive ``_DOT_CHUNK``-sample chunks added in index
    order, so no call reaches OpenBLAS's threading threshold and the
    result is the same on any number of CPUs, a ``taskset`` mask or any
    ``OPENBLAS_NUM_THREADS``. It can still differ between CPU families,
    whose BLAS kernels sum a chunk in different orders, and under another
    BLAS library.
    """
    if a.size <= _DOT_CHUNK:
        return float(a @ b) if b.ndim == 1 else np.matmul(b[:, None, :], a[:, None])[:, 0, 0]
    total = 0.0
    for lo in range(0, a.size, _DOT_CHUNK):  # not sum(): Python 3.12's compensates
        total += _dot(a[lo : lo + _DOT_CHUNK], b[..., lo : lo + _DOT_CHUNK])
    return total


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
        least, limit = np.minimum.reduce(variance), _dot(means, means) * scale * scale
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


def _median_and_modes(values: np.ndarray, resolution: float) -> tuple[float, float, float | None]:
    """Median and the two most frequent grid values, from one sorted copy.

    The median is the middle element, or the two middle elements summed
    and halved: the arithmetic of ``np.median``, which imports
    ``numpy.ma`` on first use and costs a command-line run more than all
    of ``summarize``. Zero is reported as ``0.0``, whatever the sign of the
    zeros the sort put in the middle.

    The modes are the grid values ``rint(x / resolution) * resolution``
    ranked by descending count, then ascending value. Dividing by a
    positive number and rounding are both monotone, so the grid keys of
    the sorted values come out sorted and each key is one run: the counts
    are the run lengths, and ``argmax``, which returns the first maximum,
    picks the smallest key among equal counts. A grid index of 2**53 or
    more is refused: from there it is no longer an exact integer.
    """
    ordered = values.copy()
    ordered.sort()
    k = ordered.size // 2
    middle = ordered[k] if ordered.size % 2 else (ordered[k - 1] + ordered[k]) / 2
    # the extremes' indices on Python floats, before numpy divides: an index
    # that overflows is inf there, refused, and no warning state is touched
    if max(-float(ordered[0]), float(ordered[-1])) / resolution >= 2.0**53:
        raise ValidationError(
            f"mode_resolution {resolution!r} is too fine for this series: "
            "its grid index reaches 2**53"
        )
    keys = ordered / resolution
    np.rint(keys, out=keys)
    # a run ends where the next key differs, and at the last index
    edge = np.empty(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edge[:-1])
    edge[-1] = True
    ends = edge.nonzero()[0]
    counts = ends.copy()  # the run lengths: the gaps between consecutive ends
    counts[1:] -= ends[:-1]
    counts[0] += 1
    first = counts.argmax()
    median, mode_first = float(middle + 0.0), float(keys[ends[first]] * resolution + 0.0)
    if ends.size == 1:
        return median, mode_first, None
    counts[first] = 0
    return median, mode_first, float(keys[ends[counts.argmax()]] * resolution + 0.0)


def summarize(ts: TimeSeries | np.ndarray, mode_resolution: float = 0.1) -> SummaryStats:
    """Descriptive statistics: count, center, modes, and dispersion.

    Uses the sample (n-1 divisor) convention for variance and standard
    deviation, the midpoint convention for even-length medians, and
    mean-centered absolute deviation. Modes are computed on values rounded
    to the nearest multiple of ``mode_resolution`` (default 0.1, matching
    the precision of published monthly climate indices), ranked by
    descending count, then ascending value; ``mode_second`` is None when
    every value rounds to one grid value. The median and both modes come
    from one sorted copy of the samples; the caller's array is not
    touched. A zero median or mode is reported as ``0.0``, never ``-0.0``,
    whatever the order of the input.
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
    median, mode_first, mode_second = _median_and_modes(x, mode_resolution)
    if flat.size or mean == 0.0:
        cv = None
    else:
        cv = 100.0 * std / abs(mean)
    return SummaryStats(
        n=x.size,
        mean=mean,
        median=median,
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
    return ts.with_values(_standardized(sample_values(ts)))


def _standardized(values: np.ndarray) -> np.ndarray:
    """Checked samples shifted and scaled to sample mean 0 and sample std 1.

    ``standardize``'s arithmetic on a 1-d array that ``sample_values``
    returned, whose magnitude bounds keep the result finite. Raises
    ``NumericError`` on a constant series.
    """
    _, centred, variance, flat = _moments(values)
    if flat.size:
        raise NumericError("cannot standardize a constant series")
    return centred / np.sqrt(variance)


def _weighted_line_fit(x: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None):
    """Weighted least squares line fit; unit weights when none are given.

    Returns (slope, intercept, slope standard error, r_squared) with
    r_squared = 1 - SSE/SSM computed in the weighted norm. Weights are
    treated as relative, so the slope standard error is invariant under
    rescaling them.
    """
    # np.add.reduce is the reduction np.sum and np.mean run, without their wrappers
    add = np.add.reduce
    w = np.ones(x.size) if weights is None else weights / (add(weights) / weights.size)
    sw = add(w)
    x_bar = add(w * x) / sw
    y_bar = add(w * y) / sw
    sxx = add(w * (x - x_bar) ** 2)
    if sxx == 0.0:
        raise ValidationError("all fit points share one window; slope undefined")
    slope = add(w * (x - x_bar) * (y - y_bar)) / sxx
    intercept = y_bar - slope * x_bar
    residuals = y - (intercept + slope * x)
    sse = float(add(w * residuals**2))
    ssm = float(add(w * (y - y_bar) ** 2))
    dof = x.size - 2
    std_err = math.sqrt((sse / dof) / sxx) if dof > 0 else 0.0
    r_squared = 1.0 - sse / ssm if ssm > 0.0 else 1.0
    return float(slope), float(intercept), std_err, r_squared
