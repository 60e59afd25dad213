"""Seeded permutation test for the correlation between two aligned series.

The observed Pearson correlation is compared against the distribution
obtained by correlating one series with ``n_perm`` uniform random
permutations of the other. The permutations are drawn in blocks of
B(n) = max(1, 16383 // n) for a series of n samples: block ``b`` is
drawn, as B successive shuffles, by an SFC64 generator seeded from a
counter-based Philox keyed by ``(seed, b)``, by the rule ``_keyed``
states, and permutation ``k`` is draw ``k mod B`` of block ``k div B``.
From 8192 samples up B is 1 and permutation ``k`` is the shuffle keyed
``(seed, k)``. Permutation ``k`` depends on neither ``n_perm`` nor the
thread count, and ``nth_permutation`` replays it alone, in any order.

``perm_test`` builds one generator per thread and re-keys it for each
block rather than building one generator per block. It draws each block
in one ``Generator.permuted`` call over B rows that each hold the second
series' unit residual, in place of drawing index permutations and
gathering through them: the shuffle's draws depend only on the length,
and it moves items without reading them, so each row comes out as that
gather, bit for bit. What is left per permutation is numpy's shuffle of
one row and one dot product. The blocks are split into contiguous runs
that run on up to four threads, one per usable CPU and never more than
there are blocks, each with its own generator and rows; numpy releases
the GIL once for a whole block of B shuffles. Every correlation,
observed or permuted, is ``core._dot``, whichever thread computes it,
and that dot never gives OpenBLAS more than 8192 samples at once, below
the length from which it splits a dot over its own threads. So the
result depends neither on the number of permutation threads nor on
OpenBLAS's thread count.

p-values use the add-one rule ``(count + 1) / (n_perm + 1)``, never zero,
and the test rejects at 5% exactly when the chosen tail's p-value is at
most 0.05, which keeps its size at or below 5% for every ``n_perm``. The
critical values decide nothing: they are the null's 5% and 95% quantiles
by numpy's linear rule (R's default, type 7), ``r_sorted_summary``'s
``q05`` and ``q95``, read off the one sorted array the counts also use.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .core import TimeSeries, _count, _dot, _moments, _seed, format_month, frozen_copy
from .core import sample_values
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

# A block holds max(1, _BLOCK_SAMPLES // n) permutations of n samples: one
# key per block rather than per permutation, so a thread takes the GIL
# back once per block of shuffles, not after each. A block of more than one
# row holds at most 16383 samples, 128 KB; from 8192 samples up a block is
# one row of n samples, and permutation k is keyed (seed, k). The smallest
# size that pays at 4096 samples on two threads: blocks of one or two rows
# (4095, 8191) drew little faster than Philox, three rows as fast as seven
# (32767). CHANGES.md's entry on the SFC64 block draws has the sweep.
_BLOCK_SAMPLES = 16383
# At most this many threads. Only 1 and 2 cores were measured; the gain
# above 2 is untested.
_MAX_THREADS = 4


@dataclass(frozen=True)
class PermutationResult:
    """Outcome of a 5% permutation test; ``decision_5pct`` reads only ``tail``'s p-value.

    ``r_crit_*`` are ``r_sorted_summary``'s ``q05``/``q95`` (numpy's linear rule, R's
    type 7) and decide nothing.
    """

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
    return centred / math.sqrt(_dot(centred, centred))


def _paired(p, j) -> tuple[np.ndarray, np.ndarray]:
    """The samples of ``p`` and ``j``, paired by position: sample i with sample i.

    The one pairing rule of the package. Two calendar-anchored series
    must start in the same month, or position i would pair two different
    months; a raw array or an unanchored series pairs with anything of
    its length.
    """
    starts = [x.start if isinstance(x, TimeSeries) else None for x in (p, j)]
    if None not in starts and starts[0] != starts[1]:
        first, second = map(format_month, starts)
        raise ValidationError(
            f"inputs start in different months (the first starts {first}, the "
            f"second starts {second}); samples pair by position, so anchored "
            "inputs must share a start"
        )
    p, j = sample_values(p), sample_values(j)
    if p.size != j.size:
        raise ValidationError(f"length mismatch: {p.size} vs {j.size}")
    if p.size < 3:
        raise ValidationError("need at least 3 paired samples")
    return p, j


def pearson(p, j) -> float:
    """Pearson correlation of two equal-length series or 1-d arrays.

    Sample i of ``p`` pairs with sample i of ``j``; two anchored series
    that start in different months are refused with ``ValidationError``.
    """
    p, j = _paired(p, j)
    return _dot(_unit_residual(p, "first input"), _unit_residual(j, "second input"))


def _keyed(seed: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """A generator over an SFC64 seeded by the Philox key ``(seed, k)``, for each ``k`` in ``indices``.

    The rule by which the permutation null keys its draws. Philox keys,
    SFC64 draws: for each ``k``, ``Philox(key=np.array([seed, k],
    dtype=np.uint64))``, both keys as given, in [0, 2**64) by the
    callers' checks, gives its first three 64-bit outputs (its first
    ``random_raw(3)``). They are words a, b and c of an SFC64 state whose
    counter w is 1, and the SFC64 discards its first 12 outputs: numpy's
    own SFC64 seeding, with Philox in place of ``SeedSequence``. (A list
    key with a word above 2**63 - 1 would pass through float64 and key
    another generator.) One Philox, one SFC64 and one ``Generator`` over
    it are built per call, and both bit generators are set by state for
    each ``k``, each as a fresh one starts: Philox with counter 0 and an
    empty output buffer, SFC64 with no cached 32-bit half. It is the same
    generator object every time, so a caller draws from it before asking
    for the next.
    """
    philox = np.random.Philox(0)
    key = [seed, 0]
    zeros = [0, 0, 0, 0]
    # lists, not arrays: numpy takes a state of lists in less than half the time
    keying = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    sfc = np.random.SFC64(0)
    gen = np.random.Generator(sfc)
    words = {"state": None}
    seeded = {"bit_generator": "SFC64", "state": words, "has_uint32": 0, "uinteger": 0}
    for k in indices:
        key[1] = k
        philox.state = keying
        # a, b and c, and a fourth word from the same Philox block in
        # place of w: overwriting it is cheaper than building a new array
        words["state"] = abcw = philox.random_raw(4)
        abcw[3] = 1
        sfc.state = seeded
        sfc.random_raw(12)  # with output: about 3x faster than output=False
        yield gen


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _block_size(n: int) -> int:
    """B(n), the permutations of ``n`` samples drawn by one keyed generator."""
    return max(1, _BLOCK_SAMPLES // n)


def _permuted_correlations(
    p_unit: np.ndarray, j_unit: np.ndarray, seed: int, n_perm: int
) -> np.ndarray:
    """``_dot(p_unit, j_unit shuffled by permutation k)`` for each ``k`` in ``range(n_perm)``.

    Block ``b`` holds permutations ``b * B`` up to ``(b + 1) * B``, the
    last block fewer, drawn by the generator keyed ``(seed, b)`` in one
    ``permuted`` call. The blocks are split into contiguous runs, one
    per usable CPU, up to ``_MAX_THREADS`` and never more than there are
    blocks. The calling thread runs the first run and a
    ``threading.Thread`` each other run, with its own generator and
    rows. Each correlation is the same ``_dot`` wherever it runs (a 2-d
    product may round differently), so the output does not depend on
    the split. The first exception raised in any run, a ``MemoryError``
    for the rows or a ``KeyboardInterrupt`` included, stops every run at
    its next block and is raised again here once all threads have ended.
    """
    n = j_unit.size
    size = _block_size(n)
    blocks = -(-n_perm // size)
    runs = min(_usable_cpus(), _MAX_THREADS, blocks)
    bounds = [blocks * t // runs for t in range(runs + 1)]
    r_perm = np.empty(n_perm)
    unshuffled = np.broadcast_to(j_unit, (size, n))  # a read-only view, no copy
    errors: list[BaseException] = []  # any entry stops every run

    def run(lo: int, hi: int) -> None:
        try:
            rows = np.empty((size, n))
            # views and slices made once, not per block: at B = 1 this body
            # runs once per permutation, holding the GIL
            src, out, views = unshuffled, rows, list(rows)
            for b, gen in enumerate(_keyed(seed, range(lo, hi)), lo):
                if errors:
                    return
                first = b * size
                m = n_perm - first
                if m < size:  # the last block is short
                    src, out, views = src[:m], out[:m], views[:m]
                gen.permuted(src, axis=1, out=out)
                for k, row in enumerate(views, first):
                    r_perm[k] = _dot(p_unit, row)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=bounds[t : t + 2]) for t in range(1, runs)]
    try:
        for thread in threads:
            thread.start()
    except BaseException as exc:  # a thread that cannot start stops the others
        errors.append(exc)
    run(bounds[0], bounds[1])
    for thread in threads:  # an unstarted thread is not alive
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:  # a Ctrl-C while waiting
                errors.append(exc)
    if errors:
        raise errors[0]
    return r_perm


def nth_permutation(seed: int, index: int, n: int) -> np.ndarray:
    """The ``index``-th permutation of ``range(n)`` under a master seed.

    Draw ``index mod B`` of the successive permutations that the
    generator ``_keyed`` builds for ``(seed, index div B)`` draws, with
    B = max(1, 16383 // n), so any single permutation can be regenerated
    without drawing the other blocks. The block's rows up to this one are
    drawn in one ``Generator.permuted`` call, as ``perm_test`` draws
    them, so replaying its own block's earlier draws costs at most 16382
    samples of shuffling. From 8192 samples up B is 1 and the key is
    ``(seed, index)``. It is bit-identical to permutation ``index`` of
    ``perm_test`` with the same seed, whatever that test's ``n_perm``.
    """
    seed = _seed(seed)
    index = _seed(index, "permutation index")
    n = _count(n, "permutation length")
    if n <= 0:
        raise ValidationError("permutation length must be positive")
    block, draw = divmod(index, _block_size(n))
    gen = next(_keyed(seed, (block,)))
    # the block's rows up to this one, float64 as perm_test draws them, in one call
    rows = gen.permuted(np.broadcast_to(np.arange(n, dtype=float), (draw + 1, n)), axis=1)
    return rows[-1].astype(np.int64)  # a copy, not a view that keeps the earlier rows


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

    The inputs pair as in ``pearson``: by position, and two anchored
    series only when they start in the same month.

    ``tail`` picks which p-value decides at 5%: ``lower`` counts permuted
    correlations r_k <= r_obs, ``upper`` counts r_k >= r_obs, and ``two``
    counts |r_k| >= |r_obs|. The test rejects when that p-value is at
    most 0.05.

    The permutations run in keyed blocks of B = max(1, 16383 // n) on up
    to four threads, one per CPU the process may use and never more than
    there are blocks; the result is the same bit for bit on any number of
    them, and a machine or affinity mask with one usable CPU runs them all
    on the calling thread. Permutation ``k`` is ``nth_permutation(seed, k,
    n)`` whatever ``n_perm`` is.
    """
    p, j = _paired(p, j)
    seed = _seed(seed)
    n_perm = _count(n_perm, "n_perm")
    if n_perm < 100:
        raise ValidationError("n_perm must be at least 100")
    if tail not in TAILS:
        raise ValidationError(f"unknown tail {tail!r}")

    p_unit = _unit_residual(p, "first input")
    j_unit = _unit_residual(j, "second input")
    r_obs = _dot(p_unit, j_unit)

    n = p.size
    r_sorted = _permuted_correlations(p_unit, j_unit, seed, n_perm)
    r_sorted.sort()

    p_lower = (int(np.count_nonzero(r_sorted <= r_obs)) + 1) / (n_perm + 1)
    p_upper = (int(np.count_nonzero(r_sorted >= r_obs)) + 1) / (n_perm + 1)
    p_two = (int(np.count_nonzero(np.abs(r_sorted) >= abs(r_obs))) + 1) / (n_perm + 1)

    p_tail = {"lower": p_lower, "upper": p_upper, "two": p_two}[tail]
    summary = {name: _sorted_quantile(r_sorted, q) for name, q in _SUMMARY_QUANTILES}
    return PermutationResult(
        r_obs=r_obs,
        n=n,
        n_perm=n_perm,
        seed=seed,
        tail=tail,
        r_sorted=r_sorted,
        r_sorted_summary=summary,
        r_crit_lower=summary["q05"],
        r_crit_upper=summary["q95"],
        p_lower=p_lower,
        p_upper=p_upper,
        p_two_sided=p_two,
        decision_5pct="reject" if p_tail <= 0.05 else "fail-to-reject",
    )
