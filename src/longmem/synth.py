"""Seeded synthetic series used as estimator oracles.

Every generator is deterministic for a given ``GenSpec``: stochastic kinds
draw from ``numpy.random.Generator`` seeded with PCG64, so the exact output
stream is pinned by the seed and the numpy bit-generator contract. The
fractional Gaussian noise generator is exact: circulant embedding of the
autocovariance (Davies & Harte 1987) reproduces the target covariance
with no spectral-method bias, and estimator tolerances in the test suite
rely on that. It costs O(n log n), has no length limit and uses only
numpy's FFT, so its output does not depend on the BLAS thread count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries
from .errors import NumericError, ValidationError

__all__ = ["GenSpec", "generate", "fgn_autocovariance"]

# The parameters each kind reads, with the default of an optional one
# (None where the parameter is required).
_KIND_PARAMS = {
    "white": {},
    "walk": {},
    "fgn": {"h": None},
    "ar1": {"phi": None},
    "logistic": {"r": 4.0, "x0": 0.2},
    "sine": {"period": None},
}
KINDS = tuple(_KIND_PARAMS)


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic series.

    ``kind`` selects the generator. A kind-specific parameter given to a
    kind that does not read it is refused, and logistic's unset ``r`` and
    ``x0`` take their defaults (4.0 and 0.2). ``seed`` pins the stochastic
    kinds and is ignored by the deterministic ones (logistic, sine).
    """

    kind: str
    n: int
    seed: int = 0
    h: float | None = None        # fgn: target Hurst exponent in (0, 1)
    phi: float | None = None      # ar1: lag-1 coefficient in (-1, 1)
    r: float | None = None        # logistic: map parameter in (0, 4]
    x0: float | None = None       # logistic: initial point in (0, 1)
    period: float | None = None   # sine: samples per cycle, > 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        if self.n < 2:
            raise ValidationError("n must be at least 2")
        params = _KIND_PARAMS[self.kind]
        unused = [
            name
            for name in ("h", "phi", "r", "x0", "period")
            if getattr(self, name) is not None and name not in params
        ]
        if unused:
            raise ValidationError(f"{self.kind} takes no {', '.join(unused)}")
        for name, default in params.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.kind == "fgn":
            if self.h is None or not np.isfinite(self.h) or not 0.0 < self.h < 1.0:
                raise ValidationError("fgn requires target h in (0, 1)")
        elif self.kind == "ar1":
            if self.phi is None or not np.isfinite(self.phi) or not -1.0 < self.phi < 1.0:
                raise ValidationError("ar1 requires phi in (-1, 1)")
        elif self.kind == "logistic":
            if not np.isfinite(self.r) or not 0.0 < self.r <= 4.0:
                raise ValidationError("logistic requires r in (0, 4]")
            if not np.isfinite(self.x0) or not 0.0 < self.x0 < 1.0:
                raise ValidationError("logistic requires x0 in (0, 1)")
        elif self.kind == "sine":
            if self.period is None or not np.isfinite(self.period) or self.period <= 0:
                raise ValidationError("sine requires period > 0")


def fgn_autocovariance(h: float, max_lag: int) -> np.ndarray:
    """Theoretical fGn autocovariance gamma(0..max_lag) for Hurst ``h``.

    gamma(k) = ((k+1)^2H - 2 k^2H + (k-1)^2H) / 2, the stationary increment
    covariance of fractional Brownian motion with unit variance at lag 1.
    It is evaluated as k^2H/2 * (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k))),
    which avoids the cancellation of the three large powers at long lags.
    gamma(0) is exactly 1, and at h = 0.5 every gamma(k >= 1) is exactly 0.
    """
    gamma = np.zeros(max_lag + 1)
    gamma[0] = 1.0
    if h == 0.5:
        return gamma
    k = np.arange(1, max_lag + 1, dtype=float)
    two_h = 2.0 * h
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at k = 1 is exact
        below = np.expm1(two_h * np.log1p(-1.0 / k))
    gamma[1:] = 0.5 * k**two_h * (np.expm1(two_h * np.log1p(1.0 / k)) + below)
    return gamma


def _circulant_eigenvalues(h: float, n: int) -> np.ndarray:
    """Eigenvalues 0..n of the size-2n circulant embedding the fGn covariance.

    The circulant's first row is gamma(0..n) followed by gamma(n-1..1); it
    is symmetric, so its eigenvalues are the real rfft of that row. They
    are nonnegative for every h in (0, 1) (Craigmile 2003); a negative one
    means the covariance was not evaluated accurately enough, and is
    reported rather than clipped.
    """
    gamma = fgn_autocovariance(h, n)
    eigenvalues = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if eigenvalues.min() < 0.0:
        raise NumericError(
            f"fgn circulant embedding has a negative eigenvalue "
            f"({eigenvalues.min():.3g}) at h={h}, n={n}"
        )
    return eigenvalues


def _white(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


def _fgn(n: int, h: float, seed: int) -> np.ndarray:
    """Exact fGn by circulant embedding (Davies & Harte 1987).

    One draw of 2n standard normals fills the Hermitian spectrum of a
    complex Gaussian vector scaled by sqrt(eigenvalue): the real DC and
    Nyquist terms take one normal each, the n-1 interior terms take a real
    and an imaginary part with variance 1/2 each. Its orthonormal inverse
    FFT is a real stationary series of length 2n whose covariance is the
    circulant; its first n samples have covariance gamma exactly.
    """
    if h == 0.5:  # the circulant is the identity
        return _white(n, seed)
    scale = np.sqrt(_circulant_eigenvalues(h, n))
    z = _white(2 * n, seed)
    spectrum = np.empty(n + 1, dtype=complex)
    spectrum[0] = z[0]
    spectrum[n] = z[1]
    spectrum[1:n] = (z[2 : n + 1] + 1j * z[n + 1 :]) * np.sqrt(0.5)
    return np.fft.irfft(spectrum * scale, 2 * n, norm="ortho")[:n]


def generate(spec: GenSpec) -> TimeSeries:
    """Produce the series described by ``spec``.

    Kinds:

    * ``white``  - i.i.d. standard Gaussian.
    * ``walk``   - cumulative sum of the ``white`` series for the same seed.
    * ``fgn``    - exact fractional Gaussian noise by circulant embedding
      of the autocovariance, O(n log n) with no length limit; at h = 0.5
      it is the ``white`` series for the same seed.
    * ``ar1``    - x[t] = phi * x[t-1] + eps[t], started from the
      stationary distribution.
    * ``logistic`` - iterates of r*x*(1-x); the output starts at the first
      iterate of x0, not x0 itself.
    * ``sine``   - sin(2*pi*t / period) for t = 0..n-1.
    """
    n = spec.n
    kind = spec.kind
    if kind == "white":
        values = _white(n, spec.seed)
    elif kind == "walk":
        values = np.cumsum(_white(n, spec.seed))
    elif kind == "fgn":
        values = _fgn(n, spec.h, spec.seed)
    elif kind == "ar1":
        eps = _white(n, spec.seed)
        phi = float(spec.phi)
        x0 = float(eps[0] / np.sqrt(1.0 - phi * phi))
        # Python floats round each step exactly as float64 scalars do, at a
        # fraction of the cost of indexing the array per sample
        steps = itertools.accumulate(eps[1:].tolist(), lambda v, e: phi * v + e, initial=x0)
        values = np.fromiter(steps, dtype=float, count=n)
    elif kind == "logistic":
        r, x = spec.r, spec.x0
        values = np.empty(n)
        for t in range(n):
            x = r * x * (1.0 - x)
            values[t] = x
    else:  # sine
        values = np.sin(2.0 * np.pi * np.arange(n) / spec.period)
    label = f"synthetic {kind} (n={n}, seed={spec.seed})"
    return TimeSeries(values=values, label=label)
