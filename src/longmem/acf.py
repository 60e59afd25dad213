"""Autocorrelation function and decay diagnostics.

Both estimators use the biased convention

    r_k = sum_{t=1}^{n-k} (x_t - xbar)(x_{t+k} - xbar) / sum_t (x_t - xbar)^2

with the full-sample mean, which keeps |r_k| <= 1 and the coefficient
sequence positive semidefinite. ``acf_fft`` is the fast route through a
transform zero-padded to the shortest 5-smooth length (2**a * 3**b * 5**c)
of at least n + max_lag, which no lag up to max_lag wraps; ``acf_direct``
is the plain double sum and serves as its independent oracle.

``acf_direct`` takes each lag's sum as ``core._dot``, which hands OpenBLAS
at most 8192 samples at a time, so its coefficients are the same whatever
OpenBLAS's thread count or the CPUs a process may use. Above 8192 samples
each sum is a loop over chunks, slower than one threaded BLAS call; the
FFT route uses no BLAS and is the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .core import TimeSeries, _dot, _integer, _moments, frozen_copy, sample_values
from .errors import NumericError, ValidationError

__all__ = list(_EXPORTS["acf"])


@dataclass(frozen=True)
class AcfResult:
    """Autocorrelation coefficients r_0..r_max_lag of one series."""

    max_lag: int
    coefficients: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "coefficients", frozen_copy(self.coefficients, dtype=float))


def _check_input(ts: TimeSeries | np.ndarray, max_lag: int) -> tuple[np.ndarray, int]:
    """The demeaned samples of a non-constant series, and ``max_lag`` as a checked int."""
    values = sample_values(ts)
    n = values.size
    max_lag = _integer(max_lag, "max_lag")
    if not 1 <= max_lag < n:
        raise ValidationError(f"max_lag must be in [1, {n - 1}], got {max_lag}")
    _, demeaned, _, flat = _moments(values)
    if flat.size:
        raise NumericError("autocorrelation undefined for a constant series")
    return demeaned, max_lag


def acf_direct(ts: TimeSeries | np.ndarray, max_lag: int) -> AcfResult:
    """Autocorrelation by direct summation."""
    d, max_lag = _check_input(ts, max_lag)
    denom = _dot(d, d)
    coeffs = np.empty(max_lag + 1)
    coeffs[0] = 1.0
    for k in range(1, max_lag + 1):
        coeffs[k] = _dot(d[:-k], d[k:]) / denom
    return AcfResult(max_lag=max_lag, coefficients=coeffs, n=d.size)


def _fft_length(m: int) -> int:
    """The smallest 2**a * 3**b * 5**c that is at least ``m`` >= 1.

    Each odd part q = 3**b * 5**c below the best length so far takes the
    least power of two that lifts it to ``m``, read off ``bit_length``.
    """
    best = 1 << (m - 1).bit_length()
    five = 1
    while five < best:
        q = five
        while q < best:
            candidate = q << ((m - 1) // q).bit_length()
            if candidate < best:
                best = candidate
            q *= 3
        five *= 5
    return best


def acf_fft(ts: TimeSeries | np.ndarray, max_lag: int) -> AcfResult:
    """Autocorrelation via a zero-padded fast transform.

    Pads the demeaned series to L, the smallest 2**a * 3**b * 5**c of at
    least n + max_lag, and reads the autocovariance off the inverse
    transform of the power spectrum. The circular sum at lag k wraps only
    through indices t >= L - k >= n, where the padding is zero, so lags up
    to max_lag take no wrapped term. Contract-identical to ``acf_direct``
    to rounding; the last bits of a coefficient follow L, so they follow
    ``max_lag`` as well as n.
    """
    d, max_lag = _check_input(ts, max_lag)
    n = d.size
    n_fft = _fft_length(n + max_lag)
    spectrum = np.fft.rfft(d, n_fft)
    spectrum *= spectrum.conj()
    autocov = np.fft.irfft(spectrum, n_fft)[: max_lag + 1]
    coeffs = autocov / autocov[0]
    coeffs[0] = 1.0
    return AcfResult(max_lag=max_lag, coefficients=coeffs, n=n)


def first_zero_crossing(acf: AcfResult) -> int | None:
    """Smallest lag k >= 1 with r_k <= 0, or None if all positive.

    A coefficient touching zero counts as a crossing, so a series whose
    correlation decays exactly to zero at lag k reports k.
    """
    below = np.nonzero(acf.coefficients[1:] <= 0.0)[0]
    if below.size == 0:
        return None
    return int(below[0]) + 1


def band_mean(acf: AcfResult, lo: int, hi: int) -> float:
    """Arithmetic mean of r_lo..r_hi (inclusive)."""
    lo, hi = _integer(lo, "band lo"), _integer(hi, "band hi")
    if not 1 <= lo <= hi <= acf.max_lag:
        raise ValidationError(
            f"band [{lo}, {hi}] outside valid lags [1, {acf.max_lag}]"
        )
    return float(np.mean(acf.coefficients[lo : hi + 1]))
