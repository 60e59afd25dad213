"""Seeded permutation test for the correlation between two aligned series.

The observed Pearson correlation is compared against the distribution
obtained by correlating one series with ``n_perm`` uniform random
permutations of the other. Permutation ``k`` is the shuffle drawn by a
counter-based Philox generator keyed by ``(seed, k)``: the same bit
pattern whether it is drawn inside ``perm_test``, alone by
``nth_permutation``, or in any order. ``perm_test`` builds one generator
per call and re-keys it for each permutation rather than building one
generator per permutation, which would cost as much as the shuffle. It
shuffles a copy of the second series' unit residual in place of drawing
an index permutation and gathering through it: the shuffle moves items
without reading them, so the copy comes out as that gather, bit for bit,
and no index array or gathered array is made per permutation. What is
left per permutation is numpy's shuffle, a copy and one dot product.

Critical values follow the sorted-position convention: with the permuted
correlations sorted ascending, the lower 5% critical value sits at
1-indexed position ``ceil(0.05 * n_perm)`` and the upper at
``floor(0.95 * n_perm)`` (positions 500 and 9500 for the default 10000).
p-values use the add-one rule ``(count + 1) / (n_perm + 1)`` so they are
never exactly zero.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .core import _integer, _moments, frozen_copy, sample_values
from .errors import NumericError, ValidationError

__all__ = list(_EXPORTS["permtest"])

TAILS = ("lower", "upper", "two")

_SUMMARY_QUANTILES = (
    ("min", 0.0),
    ("q01", 0.01),
    ("q05", 0.05),
    ("q25", 0.25),
    ("q50", 0.50),
    ("q75", 0.75),
    ("q95", 0.95),
    ("q99", 0.99),
    ("max", 1.0),
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class PermutationResult:
    """Outcome of a permutation test at the 5% level."""

    r_obs: float
    n: int
    n_perm: int
    seed: int
    tail: str
    r_sorted: np.ndarray
    r_sorted_summary: dict[str, float]
    r_crit_lower: float
    r_crit_upper: float
    p_lower: float
    p_upper: float
    p_two_sided: float
    decision_5pct: str

    def __post_init__(self):
        object.__setattr__(self, "r_sorted", frozen_copy(self.r_sorted, dtype=float))


def _unit_residual(x: np.ndarray, name: str) -> np.ndarray:
    _, centred, _, flat = _moments(x)
    if flat.size:
        raise NumericError(f"{name} is constant; correlation is undefined")
    return centred / float(np.linalg.norm(centred))


def _paired(p, j) -> tuple[np.ndarray, np.ndarray]:
    p, j = sample_values(p), sample_values(j)
    if p.size != j.size:
        raise ValidationError(f"length mismatch: {p.size} vs {j.size}")
    if p.size < 3:
        raise ValidationError("need at least 3 paired samples")
    return p, j


def pearson(p, j) -> float:
    """Pearson correlation of two equal-length series or 1-d arrays."""
    p, j = _paired(p, j)
    return float(_unit_residual(p, "first input") @ _unit_residual(j, "second input"))


@functools.cache
def _throwaway_seed() -> np.random.SeedSequence:
    """Seed of the Philox that ``_shuffled`` re-keys, hashed once per process.

    Its key is replaced before every draw, so the seed never reaches a
    permutation; building the Philox from a fresh ``SeedSequence`` would
    cost about as much as a short shuffle. Made on first use, so importing
    this module does not import ``numpy.random``.
    """
    return np.random.SeedSequence(0)


def _shuffled(seed: int, values: np.ndarray, indices: Iterable[int]) -> Iterator[np.ndarray]:
    """``values`` shuffled by permutation ``k`` under ``seed``, for each ``k`` in ``indices``.

    Permutation ``k`` is the shuffle a fresh
    ``Generator(Philox(key=[seed mod 2**64, k mod 2**64]))`` draws. The
    shuffle's draws depend only on ``values.size``, and it moves items
    without reading them, so the result is ``values[perm]``, bit for bit,
    with ``perm`` that generator's ``permutation(values.size)``. One
    Philox is built per call and, for each ``k``, set to the state such a
    fresh generator starts in: counter 0, an empty output buffer, no
    cached 32-bit half. Every permutation is shuffled into the same
    buffer, so a caller that keeps one must copy it.
    """
    bitgen = np.random.Philox(_throwaway_seed())
    gen = np.random.Generator(bitgen)
    key = [seed & _MASK64, 0]
    zeros = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    buf = np.empty_like(values)
    for k in indices:
        key[1] = k & _MASK64
        bitgen.state = state
        np.copyto(buf, values)
        gen.shuffle(buf)
        yield buf


def nth_permutation(seed: int, index: int, n: int) -> np.ndarray:
    """The ``index``-th permutation of ``range(n)`` under a master seed.

    Backed by a counter-based generator keyed on ``(seed, index)``, so any
    single permutation can be regenerated without drawing its
    predecessors. It is bit-identical to permutation ``index`` of
    ``perm_test`` with the same seed.
    """
    seed = _integer(seed, "seed")
    index = _integer(index, "permutation index")
    n = _integer(n, "permutation length")
    if n <= 0:
        raise ValidationError("permutation length must be positive")
    if index < 0:
        raise ValidationError("permutation index must be non-negative")
    return next(_shuffled(seed, np.arange(n), (index,))).copy()


def _sorted_quantile(ascending: np.ndarray, q: float) -> float:
    """``np.quantile(ascending, q)`` of an ascending array, bit for bit.

    Index (n-1)q = i + t, and numpy's linear rule: a + (b-a)t below t = 0.5,
    b - (b-a)(1-t) from there, with a, b the values at i and i+1.
    ``np.quantile`` would import ``numpy.ma``, costly at start-up.
    """
    v = (ascending.size - 1) * q
    i = math.floor(v)
    t = v - i
    a = float(ascending[i])
    b = float(ascending[min(i + 1, ascending.size - 1)])
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def perm_test(
    p,
    j,
    n_perm: int = 10000,
    seed: int = 0,
    tail: str = "two",
) -> PermutationResult:
    """Permutation test of the correlation between ``p`` and ``j``.

    ``tail`` selects the 5% decision rule: ``lower`` rejects when the
    observed correlation falls below the lower critical value, ``upper``
    when it exceeds the upper one, and ``two`` splits the level across
    both tails (2.5% each).
    """
    p, j = _paired(p, j)
    seed = _integer(seed, "seed")
    n_perm = _integer(n_perm, "n_perm")
    if n_perm < 100:
        raise ValidationError("n_perm must be at least 100")
    if tail not in TAILS:
        raise ValidationError(f"unknown tail {tail!r}")

    p_unit = _unit_residual(p, "first input")
    j_unit = _unit_residual(j, "second input")
    r_obs = float(p_unit @ j_unit)

    n = p.size
    r_perm = np.empty(n_perm)
    # one 1-d dot per permutation: a 2-d product may round differently
    for k, shuffled in enumerate(_shuffled(seed, j_unit, range(n_perm))):
        r_perm[k] = p_unit @ shuffled
    r_sorted = np.sort(r_perm)

    # 1-indexed order statistics of the ascending sort.
    lower_pos = math.ceil(0.05 * n_perm)
    upper_pos = math.floor(0.95 * n_perm)
    r_crit_lower = float(r_sorted[lower_pos - 1])
    r_crit_upper = float(r_sorted[upper_pos - 1])

    p_lower = (int(np.count_nonzero(r_perm <= r_obs)) + 1) / (n_perm + 1)
    p_upper = (int(np.count_nonzero(r_perm >= r_obs)) + 1) / (n_perm + 1)
    p_two = (int(np.count_nonzero(np.abs(r_perm) >= abs(r_obs))) + 1) / (n_perm + 1)

    if tail == "lower":
        reject = r_obs < r_crit_lower
    elif tail == "upper":
        reject = r_obs > r_crit_upper
    else:
        lo = float(r_sorted[math.ceil(0.025 * n_perm) - 1])
        hi = float(r_sorted[math.floor(0.975 * n_perm) - 1])
        reject = r_obs < lo or r_obs > hi
    summary = {name: _sorted_quantile(r_sorted, q) for name, q in _SUMMARY_QUANTILES}
    return PermutationResult(
        r_obs=r_obs,
        n=n,
        n_perm=n_perm,
        seed=seed,
        tail=tail,
        r_sorted=r_sorted,
        r_sorted_summary=summary,
        r_crit_lower=r_crit_lower,
        r_crit_upper=r_crit_upper,
        p_lower=p_lower,
        p_upper=p_upper,
        p_two_sided=p_two,
        decision_5pct="reject" if reject else "fail-to-reject",
    )
