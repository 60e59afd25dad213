"""Pearson correlation and the seeded permutation test."""

import dataclasses
import itertools
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longmem import (
    NumericError,
    TimeSeries,
    ValidationError,
    nth_permutation,
    pearson,
    perm_test,
)
from longmem import permtest
from longmem.permtest import TAILS, _SUMMARY_QUANTILES, _keyed, _sorted_quantile

# both ends of the key word's range [0, 2**64) and its top bit
SEEDS = [0, 1, 2**63, 2**64 - 1]


def block_size(n):
    """Permutations of n samples drawn by one key: 1 from 8192 samples up."""
    return max(1, 16383 // n)


def sfc64_from_words(a, b, c):
    """An SFC64 seeded as numpy seeds one: words a, b, c, counter w = 1,
    and its first 12 outputs discarded."""
    sfc = np.random.SFC64(0)
    sfc.state = {
        "bit_generator": "SFC64",
        "state": {"state": np.array([a, b, c, 1], dtype=np.uint64)},
        "has_uint32": 0,
        "uinteger": 0,
    }
    sfc.random_raw(12)
    return sfc


def fresh_keyed(seed, key):
    """A new generator by the keying rule: an SFC64 seeded with the first
    three outputs of a new Philox keyed on (seed, key) as given."""
    philox = np.random.Philox(key=np.array([seed, key], dtype=np.uint64))
    return np.random.Generator(sfc64_from_words(*philox.random_raw(3)))


def halves_dot(a, b):
    """The dot of two 16384-sample arrays as ``core._dot`` takes it: the dots
    of the two 8192-sample halves, added in order. One 16384-sample ``@``
    would be split by OpenBLAS over its threads, so its last bits would
    follow the thread count."""
    assert a.size == b.size == 16384
    return float(a[:8192] @ b[:8192]) + float(a[8192:] @ b[8192:])


def fresh_keyed_permutation(seed, index, n):
    """Reference: draw ``index mod B`` of the successive ``permutation(n)``
    draws of a new generator keyed on (seed, index div B)."""
    block, draw = divmod(index, block_size(n))
    gen = fresh_keyed(seed, block)
    for _ in range(draw):
        gen.permutation(n)
    return gen.permutation(n)


def full_index_perm_test(p, j, n_perm, seed, tail):
    """Reference: the permutation test as an index permutation and a gather.

    Permutation ``k`` of ``range(n)`` is the ``k mod B``-th successive
    shuffle of a new generator keyed on ``(seed, k div B)``, and each
    permuted correlation is ``p_unit @ j_unit[perm]``, one 1-d dot.
    ``perm_test`` shuffles rows that hold ``j_unit`` instead, which must
    give the same bits. Returns the fields that depend on the permuted
    correlations.
    """
    p_unit = (p - p.mean()) / np.linalg.norm(p - p.mean())
    j_unit = (j - j.mean()) / np.linalg.norm(j - j.mean())
    r_obs = float(p_unit @ j_unit)
    n = p.size
    base = np.arange(n)
    perm = np.empty_like(base)
    r_perm = np.empty(n_perm)
    for k in range(n_perm):
        block, draw = divmod(k, block_size(n))
        if draw == 0:
            gen = fresh_keyed(seed, block)
        np.copyto(perm, base)
        gen.shuffle(perm)
        r_perm[k] = p_unit @ j_unit[perm]
    r_sorted = np.sort(r_perm)
    p = {
        "lower": (int(np.count_nonzero(r_perm <= r_obs)) + 1) / (n_perm + 1),
        "upper": (int(np.count_nonzero(r_perm >= r_obs)) + 1) / (n_perm + 1),
        "two": (int(np.count_nonzero(np.abs(r_perm) >= abs(r_obs))) + 1) / (n_perm + 1),
    }
    return {
        "r_sorted": [float(r).hex() for r in r_sorted],
        "r_crit_lower": float(np.quantile(r_sorted, 0.05)).hex(),
        "r_crit_upper": float(np.quantile(r_sorted, 0.95)).hex(),
        "p_lower": p["lower"],
        "p_upper": p["upper"],
        "p_two_sided": p["two"],
        "decision_5pct": "reject" if p[tail] <= 0.05 else "fail-to-reject",
    }


# n x n_perm x tail, with the edge seeds cycled over the cells. 1001 is
# not a multiple of 273 (n = 60) nor 1003 of 21 (n = 776), so those cells
# end in a short block; 8191 and 8192 sit either side of the length from
# which a block holds one permutation
PARITY_GRID = [
    (n, n_perm, tail, SEEDS[i % len(SEEDS)])
    for i, (n, n_perm, tail) in enumerate(
        itertools.product((3, 776, 2047, 2048, 4097), (100, 1000), ("lower", "upper", "two"))
    )
] + [
    (60, 1001, "two", 2**64 - 1),
    (776, 1003, "lower", 2**63),
    (8191, 301, "upper", 1),
    (8192, 300, "two", 2**64 - 1),
]


class TestPearson:
    def test_hand_evaluated(self):
        # centered products give r = 9 / (2 sqrt 21)
        r = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert r == pytest.approx(9.0 / (2.0 * math.sqrt(21.0)), abs=1e-12)
        assert r == pytest.approx(0.981981, abs=1e-6)

    def test_exact_linear_relation(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [5.0, 7.0, 9.0, 11.0]) == 1.0
        assert pearson(x, [-1.0, -2.0, -3.0, -4.0]) == -1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 50))
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y = rng.standard_normal((2, 30))
            assert -1.0 <= pearson(x, y) <= 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0], [1.0, 2.0])  # too short
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])  # length mismatch
        with pytest.raises(ValidationError):
            pearson([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            pearson(np.ones((2, 3)), np.ones((2, 3)))

    def test_constant_input_rejected(self):
        with pytest.raises(NumericError):
            pearson([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(NumericError):
            pearson([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])


class TestPairing:
    """Sample i pairs with sample i; two anchors must be the same month."""

    VALUES = np.random.default_rng(4).standard_normal(120)

    def test_different_starts_refused(self):
        # the same values a year apart would read as r = 1 and reject
        early = TimeSeries(self.VALUES, start=(1951, 1))
        late = TimeSeries(self.VALUES, start=(1952, 1))
        for call in (lambda: pearson(early, late), lambda: perm_test(early, late, n_perm=100)):
            with pytest.raises(ValidationError, match="different months") as info:
                call()
            assert "starts 1951-01" in str(info.value)
            assert "starts 1952-01" in str(info.value)

    def test_same_start_one_anchor_and_arrays_pair_by_position(self):
        y = np.random.default_rng(5).standard_normal(120)
        raw_r = pearson(self.VALUES, y)
        raw = perm_test(self.VALUES, y, n_perm=200, seed=3)
        pairs = [
            (TimeSeries(self.VALUES, start=(1951, 1)), TimeSeries(y, start=(1951, 1))),
            (TimeSeries(self.VALUES, start=(1951, 1)), TimeSeries(y)),
            (self.VALUES, TimeSeries(y, start=(1960, 6))),
        ]
        for p, j in pairs:
            assert pearson(p, j) == raw_r
            result = perm_test(p, j, n_perm=200, seed=3)
            assert result.r_obs == raw.r_obs
            assert np.array_equal(result.r_sorted, raw.r_sorted)


class TestNthPermutation:
    def test_valid_permutation(self):
        perm = nth_permutation(0, 0, 100)
        assert sorted(perm.tolist()) == list(range(100))

    def test_reproducible_and_addressable(self):
        # the same (seed, index) always yields the same bits, with no
        # dependence on which other indices were generated first
        direct = nth_permutation(3, 41, 64)
        for k in (5, 0, 99):
            nth_permutation(3, k, 64)
        again = nth_permutation(3, 41, 64)
        assert np.array_equal(direct, again)

    def test_indices_differ(self):
        a = nth_permutation(0, 0, 50)
        b = nth_permutation(0, 1, 50)
        c = nth_permutation(1, 0, 50)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", [1, 2, 776])
    @pytest.mark.parametrize("index", [0, 1, 2**32 + 1])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_fresh_keyed_generator_on_seed_and_index(self, seed, index, n):
        # below 8192 samples: draw index mod B of the block a fresh
        # generator keyed on (seed, index div B) draws
        expected = fresh_keyed_permutation(seed, index, n)
        perm = nth_permutation(seed, index, n)
        assert perm.dtype == expected.dtype
        assert np.array_equal(perm, expected)

    @pytest.mark.parametrize("n", [1, 4, 60, 776, 2047, 8191])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_block_boundary_and_the_last_index(self, seed, n):
        # index B - 1 replays the whole block but its last row: 16382 rows
        # at n = 1, 4094 at n = 4, 20 at n = 776
        size = block_size(n)
        for index in (size - 1, size, 2**64 - 1):
            assert np.array_equal(
                nth_permutation(seed, index, n), fresh_keyed_permutation(seed, index, n)
            )

    @pytest.mark.parametrize("n", [8192, 40000])
    @pytest.mark.parametrize("index", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_from_8192_samples_a_fresh_keyed_generator_on_seed_and_index(self, seed, index, n):
        # one permutation per block: the key is the index itself
        expected = fresh_keyed(seed, index).permutation(n)
        perm = nth_permutation(seed, index, n)
        assert perm.dtype == expected.dtype
        assert np.array_equal(perm, expected)

    def test_interleaved_seeds_do_not_interfere(self):
        a = nth_permutation(11, 3, 200)
        b = nth_permutation(12, 3, 200)
        assert np.array_equal(nth_permutation(11, 3, 200), a)
        assert not np.array_equal(a, b)

    def test_returned_array_is_the_callers(self):
        first = nth_permutation(2, 5, 100)
        expected = first.copy()
        first[:] = 0
        assert np.array_equal(nth_permutation(2, 5, 100), expected)

    def test_consecutive_results_do_not_alias(self):
        first = nth_permutation(2, 5, 100)
        second = nth_permutation(2, 6, 100)
        assert not np.shares_memory(first, second)
        kept = second.copy()
        first[:] = 0
        assert np.array_equal(second, kept)
        assert np.array_equal(nth_permutation(2, 6, 100), kept)
        assert np.array_equal(nth_permutation(2, 5, 100), fresh_keyed_permutation(2, 5, 100))

    def test_validation(self):
        with pytest.raises(ValidationError):
            nth_permutation(0, -1, 10)
        with pytest.raises(ValidationError):
            nth_permutation(0, 0, 0)

    @pytest.mark.parametrize(
        "args",
        [
            (1.5, 0, 10),
            (True, 0, 10),
            ("0", 0, 10),
            (0, 1.0, 10),
            (0, False, 10),
            (0, 0, 10.0),
            (0, 0, True),
            (0, 0, np.float64(10)),
        ],
    )
    def test_non_integer_arguments_rejected(self, args):
        with pytest.raises(ValidationError, match="must be an integer"):
            nth_permutation(*args)

    def test_numpy_integers_accepted(self):
        expected = nth_permutation(3, 4, 50)
        assert np.array_equal(nth_permutation(np.int64(3), np.uint32(4), np.int16(50)), expected)
        top = 2**64 - 1
        assert np.array_equal(
            nth_permutation(np.uint64(top), np.uint64(top), 5), nth_permutation(top, top, 5)
        )


def draws(gen):
    """Bytes of a run of draws that reads ``gen``'s 64-bit words, its
    cached 32-bit half and its buffered words alike."""
    return b"".join(
        [
            gen.integers(0, 2**32, size=5, dtype=np.uint32).tobytes(),
            gen.random(3).tobytes(),
            gen.standard_normal(3).tobytes(),
            gen.permutation(11).tobytes(),
        ]
    )


class TestKeyed:
    @pytest.mark.parametrize("entropy", [0, 1, 2**64 - 1, 2**128 + 5])
    def test_seeding_from_words_is_numpys_own(self, entropy):
        # the oracle's seeding is numpy's, with SeedSequence's words
        words = np.random.SeedSequence(entropy).generate_state(3, np.uint64)
        expected = np.random.SFC64(np.random.SeedSequence(entropy))
        assert draws(np.random.Generator(sfc64_from_words(*words))) == draws(
            np.random.Generator(expected)
        )

    @pytest.mark.parametrize("k", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("seed", [0, 2**63 + 1, 2**64 - 1])
    def test_draws_as_an_sfc64_seeded_by_a_fresh_philox_keyed_on_seed_and_k(self, seed, k):
        expected = draws(fresh_keyed(seed, k))
        assert draws(next(_keyed(seed, (k,)))) == expected
        # the key before left a cached 32-bit half behind; it may not reach
        # the draws for k
        keyed = _keyed(seed, (5, k))
        gen = next(keyed)
        gen.integers(0, 2**32, size=5, dtype=np.uint32)
        assert gen.bit_generator.state["has_uint32"] == 1
        assert draws(next(keyed)) == expected

    def test_block_stream_orders_of_four_are_uniform(self):
        # 24 000 permutations of 4 samples as perm_test draws them: blocks
        # of B(4) = 4095 rows, each block one permuted call. Chi-squared
        # over the 24 orders stays below 49.7, the 0.999 point for 23
        # degrees of freedom
        n, n_perm = 4, 24000
        size = block_size(n)
        rows = []
        for block, gen in enumerate(_keyed(2**63 + 7, range(-(-n_perm // size)))):
            m = min(size, n_perm - block * size)
            rows.append(gen.permuted(np.broadcast_to(np.arange(n), (m, n)), axis=1))
        codes = np.concatenate(rows) @ (n ** np.arange(n))
        orders = [sum(v * n**i for i, v in enumerate(o)) for o in itertools.permutations(range(n))]
        counts = np.array([np.count_nonzero(codes == code) for code in orders])
        assert counts.sum() == n_perm
        expected = n_perm / len(orders)
        assert ((counts - expected) ** 2 / expected).sum() < 49.7

    @pytest.mark.parametrize(
        "first, second",
        [((11, 0), (11, 1)), ((11, 0), (12, 0)), ((2**63, 2**32), (2**63, 2**32 + 1))],
    )
    def test_neighbouring_keys_draw_uncorrelated_streams(self, first, second):
        # 10**5 doubles per key: |r| < 5 / sqrt(10**5), about 0.0158
        size = 10**5
        a, b = (next(_keyed(seed, (k,))).random(size) for seed, k in (first, second))
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 5 / math.sqrt(size)


class TestShuffledCopy:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.one_of(
            st.sampled_from([0, 2**63, 2**64 - 1]),
            st.integers(min_value=0, max_value=2**64 - 1),
        ),
        k=st.integers(min_value=0, max_value=2**64 - 1),
        n=st.integers(min_value=1, max_value=5000),
        data_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(seed=0, k=0, n=1, data_seed=0)
    @example(seed=2**64 - 1, k=2**64 - 1, n=776, data_seed=1)
    @example(seed=2**63, k=2**63 + 3, n=5000, data_seed=2)
    @example(seed=3, k=4094, n=4, data_seed=3)  # the last row of a block, B(4) = 4095
    @example(seed=2**64 - 1, k=20, n=776, data_seed=4)  # B(776) = 21
    def test_shuffled_copy_is_the_gather(self, seed, k, n, data_seed):
        # any 64-bit pattern, nan payloads and signed zeros included, is
        # moved as it is: the shuffle never reads the items. Row k mod B of
        # the block keyed (seed, k div B) is permutation k
        values = np.frombuffer(np.random.default_rng(data_seed).bytes(8 * n), dtype=np.float64)
        block, draw = divmod(k, block_size(n))
        rows = np.empty((draw + 1, n))
        next(_keyed(seed, (block,))).permuted(
            np.broadcast_to(values, rows.shape), axis=1, out=rows
        )
        shuffled = rows[draw]
        assert shuffled.dtype == np.float64
        assert shuffled.tobytes() == values[nth_permutation(seed, k, n)].tobytes()
        assert shuffled.tobytes() == values[fresh_keyed_permutation(seed, k, n)].tobytes()

    @pytest.mark.parametrize("n, n_perm, tail, seed", PARITY_GRID)
    def test_perm_test_matches_full_index_loop(self, n, n_perm, tail, seed):
        rng = np.random.default_rng(n + n_perm)
        p, j = rng.standard_normal((2, n))
        res = perm_test(p, j, n_perm=n_perm, seed=seed, tail=tail)
        got = {
            "r_sorted": [float(r).hex() for r in res.r_sorted],
            "r_crit_lower": res.r_crit_lower.hex(),
            "r_crit_upper": res.r_crit_upper.hex(),
            "p_lower": res.p_lower,
            "p_upper": res.p_upper,
            "p_two_sided": res.p_two_sided,
            "decision_5pct": res.decision_5pct,
        }
        assert got == full_index_perm_test(p, j, n_perm, seed, tail)

    def test_perm_test_leaves_inputs_unchanged(self):
        rng = np.random.default_rng(3)
        p, j = rng.standard_normal((2, 200))
        kept = p.tobytes(), j.tobytes()
        perm_test(p, j, n_perm=100, seed=0)
        assert (p.tobytes(), j.tobytes()) == kept


def outcome(res):
    """The fields of a permutation result that depend on the permutations."""
    return (
        res.r_sorted.tobytes(),
        res.r_crit_lower.hex(),
        res.r_crit_upper.hex(),
        res.p_lower,
        res.p_upper,
        res.p_two_sided,
        res.decision_5pct,
    )


class TestThreadedBlocks:
    """Contiguous runs of keyed blocks run on one thread per usable CPU, at
    every length; the result must not depend on how many."""

    def pair(self, n):
        rng = np.random.default_rng(n)
        return rng.standard_normal((2, n))

    def force_cpus(self, monkeypatch, cpus):
        monkeypatch.setattr(permtest, "_usable_cpus", lambda: cpus)

    def record_blocks(self, monkeypatch):
        """The (thread, range) each ``_keyed`` call is given, as a list.

        The thread objects, not their idents: a finished thread's ident may
        be given to the next one."""
        calls = []
        real = permtest._keyed

        def recording(seed, indices):
            calls.append((threading.current_thread(), indices))
            return real(seed, indices)

        monkeypatch.setattr(permtest, "_keyed", recording)
        return calls

    @pytest.mark.parametrize("n, n_perm", [(2048, 1000), (4097, 301), (16384, 301)])
    @pytest.mark.parametrize("tail", TAILS)
    def test_one_two_and_three_blocks_agree_bit_for_bit(self, monkeypatch, n, n_perm, tail):
        # 143, 101 and 301 blocks: 7 and 3 permutations per block, and one
        p, j = self.pair(n)
        blocks = -(-n_perm // block_size(n))
        results = {}
        for cpus in (1, 2, 3):
            self.force_cpus(monkeypatch, cpus)
            calls = self.record_blocks(monkeypatch)
            results[cpus] = outcome(perm_test(p, j, n_perm=n_perm, seed=2**63 + 1, tail=tail))
            monkeypatch.undo()
            # contiguous runs that cover every block, block 0 on the caller
            runs = sorted(calls, key=lambda call: call[1].start)
            assert [indices for _, indices in runs] == [
                range(blocks * t // cpus, blocks * (t + 1) // cpus) for t in range(cpus)
            ]
            assert runs[0][0] is threading.current_thread()
            assert len({thread for thread, _ in calls}) == cpus
        assert results[2] == results[1]
        assert results[3] == results[1]

    def test_four_blocks_under_a_short_switch_interval(self, monkeypatch):
        # more threads than this machine's cores, switching as often as the
        # interpreter allows: a write lost to another block would show, one
        # permutation per block (16384) or 21 (776)
        for n in (16384, 776):
            p, j = self.pair(n)
            self.force_cpus(monkeypatch, 64)
            calls = self.record_blocks(monkeypatch)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                res = perm_test(p, j, n_perm=2000, seed=0)
            finally:
                sys.setswitchinterval(interval)
            assert len(calls) == 4
            monkeypatch.undo()
            self.force_cpus(monkeypatch, 1)
            assert outcome(res) == outcome(perm_test(p, j, n_perm=2000, seed=0))
            monkeypatch.undo()

    @pytest.mark.parametrize("n, n_perm", [(3, 1000), (40, 100)])
    def test_one_block_starts_no_thread(self, monkeypatch, n, n_perm):
        # B = 5461 at n = 3 and 409 at n = 40: every permutation in block 0
        class NoThread:
            def __init__(self, *args, **kwargs):
                raise AssertionError("perm_test started a thread")

        p, j = self.pair(n)
        expected = outcome(perm_test(p, j, n_perm=n_perm, seed=1))
        self.force_cpus(monkeypatch, 4)
        calls = self.record_blocks(monkeypatch)
        monkeypatch.setattr(threading, "Thread", NoThread)
        assert outcome(perm_test(p, j, n_perm=n_perm, seed=1)) == expected
        assert [indices for _, indices in calls] == [range(1)]

    @pytest.mark.parametrize("n", [60, 776, 2047])
    def test_short_series_agree_on_one_to_four_cpus(self, monkeypatch, n):
        p, j = self.pair(n)
        results = set()
        for cpus in (1, 2, 3, 4):
            self.force_cpus(monkeypatch, cpus)
            results.add(outcome(perm_test(p, j, n_perm=1001, seed=2**64 - 1, tail="two")))
            monkeypatch.undo()
        assert len(results) == 1

    @pytest.mark.parametrize(
        "n, n_perm", [(60, 1001), (776, 1003), (776, 100), (60, 2500), (60, 300), (200, 200)]
    )
    def test_threads_run_contiguous_runs_of_blocks(self, monkeypatch, n, n_perm):
        # 4, 48, 5, 10, 2 and 3 blocks: never more runs than blocks
        p, j = self.pair(n)
        blocks = -(-n_perm // block_size(n))
        for cpus in (1, 2, 3, 4):
            self.force_cpus(monkeypatch, cpus)
            calls = self.record_blocks(monkeypatch)
            perm_test(p, j, n_perm=n_perm, seed=0)
            monkeypatch.undo()
            runs = sorted(calls, key=lambda call: call[1].start)
            count = min(cpus, blocks)
            assert [indices for _, indices in runs] == [
                range(blocks * t // count, blocks * (t + 1) // count) for t in range(count)
            ]
            assert runs[0][0] is threading.current_thread()
            assert len({thread for thread, _ in calls}) == count

    @pytest.mark.parametrize("n, m", [(60, 333), (776, 333), (2048, 333)])
    def test_permutation_k_does_not_depend_on_n_perm(self, n, m):
        # 333 is a multiple of none of 273 (n = 60), 21 (n = 776) and 7
        # (n = 2048): the shorter run ends inside a block the longer one
        # draws whole
        p, j = self.pair(n)
        p_unit = permtest._unit_residual(p, "p")
        j_unit = permtest._unit_residual(j, "j")
        longer = permtest._permuted_correlations(p_unit, j_unit, 7, 1000)
        shorter = permtest._permuted_correlations(p_unit, j_unit, 7, m)
        assert longer[:m].tobytes() == shorter.tobytes()

    @pytest.mark.parametrize("failing_block", [0, 1, 2])
    def test_first_error_reaches_the_caller_and_stops_every_block(
        self, monkeypatch, failing_block
    ):
        p, j = self.pair(2048)
        n_perm = 30000
        blocks = -(-n_perm // block_size(2048))
        self.force_cpus(monkeypatch, 3)
        real = permtest._keyed
        done = []

        class BlockFailed(Exception):
            pass

        def failing(seed, indices):
            for k, gen in zip(indices, real(seed, indices)):
                if indices.start == blocks * failing_block // 3:
                    raise BlockFailed(k)
                done.append(k)
                yield gen

        monkeypatch.setattr(permtest, "_keyed", failing)
        before = threading.active_count()
        with pytest.raises(BlockFailed) as caught:
            perm_test(p, j, n_perm=n_perm, seed=0)
        assert caught.value.args == (blocks * failing_block // 3,)
        assert len(done) < blocks - blocks // 3
        assert threading.active_count() == before

    def test_thread_that_cannot_start_is_an_error(self, monkeypatch):
        p, j = self.pair(2048)
        self.force_cpus(monkeypatch, 3)
        started = []

        class SecondFails(threading.Thread):
            def start(self):
                if started:
                    raise RuntimeError("can't start new thread")
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", SecondFails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            perm_test(p, j, n_perm=300, seed=0)
        assert threading.active_count() == before

    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch):
        # macOS and Windows have no sched_getaffinity: the thread count is
        # os.cpu_count(), and 1 when that is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert permtest._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert permtest._usable_cpus() == 1


class TestPermTest:
    def gaussian_pair(self, n=120, data_seed=0):
        rng = np.random.default_rng(data_seed)
        return rng.standard_normal(n), rng.standard_normal(n)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_r_sorted_matches_fresh_generator_per_permutation(self, seed):
        # from 8192 samples up a block is one permutation: permutation k is
        # the shuffle of a fresh generator keyed (seed, k)
        p, j = self.gaussian_pair(n=16384, data_seed=4)
        res = perm_test(p, j, n_perm=300, seed=seed)
        p_unit = (p - p.mean()) / math.sqrt(halves_dot(p - p.mean(), p - p.mean()))
        j_unit = (j - j.mean()) / math.sqrt(halves_dot(j - j.mean(), j - j.mean()))
        rebuilt = [
            halves_dot(p_unit, j_unit[fresh_keyed(seed, k).permutation(16384)])
            for k in range(300)
        ]
        assert np.array_equal(np.sort(rebuilt), res.r_sorted)

    def test_interleaved_calls_agree(self):
        p, j = self.gaussian_pair()
        a = perm_test(p, j, n_perm=300, seed=21)
        b = perm_test(p, j, n_perm=300, seed=22)
        again = perm_test(p, j, n_perm=300, seed=21)
        assert np.array_equal(a.r_sorted, again.r_sorted)
        assert (a.p_lower, a.p_upper, a.p_two_sided) == (
            again.p_lower, again.p_upper, again.p_two_sided,
        )
        assert not np.array_equal(a.r_sorted, b.r_sorted)

    def test_result_structure(self):
        p, j = self.gaussian_pair()
        res = perm_test(p, j, n_perm=500, seed=0)
        assert res.n == 120
        assert res.n_perm == 500
        assert res.tail == "two"
        assert res.r_sorted.shape == (500,)
        assert np.all(np.diff(res.r_sorted) >= 0.0)
        assert np.all(np.abs(res.r_sorted) <= 1.0 + 1e-12)
        assert not res.r_sorted.flags.writeable
        assert set(res.r_sorted_summary) == {
            "min", "q01", "q05", "q25", "q50", "q75", "q95", "q99", "max",
        }
        assert res.r_sorted_summary["min"] == res.r_sorted[0]
        assert res.r_sorted_summary["max"] == res.r_sorted[-1]

    def test_summary_is_numpys_quantiles(self):
        p, j = self.gaussian_pair()
        res = perm_test(p, j, n_perm=1234, seed=5)
        assert res.r_sorted_summary == {
            name: float(np.quantile(res.r_sorted, q)) for name, q in _SUMMARY_QUANTILES
        }

    def test_result_copies_the_callers_array(self):
        p, j = self.gaussian_pair()
        res = perm_test(p, j, n_perm=100, seed=0)
        mine = np.array(res.r_sorted)
        again = dataclasses.replace(res, r_sorted=mine)
        assert mine.flags.writeable
        assert not again.r_sorted.flags.writeable
        assert np.array_equal(again.r_sorted, mine)

    @pytest.mark.parametrize("n_perm", [100, 150, 200, 999, 1000, 10000])
    def test_critical_values_are_the_summarys_five_and_ninety_five(self, n_perm):
        # numpy's linear rule, one array: no order statistic of its own
        p, j = self.gaussian_pair(n=60)
        res = perm_test(p, j, n_perm=n_perm, seed=1)
        for crit, name, q in ((res.r_crit_lower, "q05", 0.05), (res.r_crit_upper, "q95", 0.95)):
            assert type(crit) is float
            assert crit.hex() == res.r_sorted_summary[name].hex()
            assert crit.hex() == float(np.quantile(res.r_sorted, q)).hex()

    def test_rebuild_from_substreams_matches_bit_for_bit(self):
        # every permuted correlation can be regenerated standalone, in any
        # order, from (seed, index) — sequential and scattered evaluation
        # must agree exactly
        p, j = self.gaussian_pair(n=80)
        res = perm_test(p, j, n_perm=200, seed=6)
        p_unit = (p - p.mean()) / np.linalg.norm(p - p.mean())
        j_unit = (j - j.mean()) / np.linalg.norm(j - j.mean())
        rebuilt = np.empty(200)
        for k in reversed(range(200)):
            rebuilt[k] = p_unit @ j_unit[nth_permutation(6, k, 80)]
        assert np.array_equal(np.sort(rebuilt), res.r_sorted)

    def test_deterministic_given_seed(self):
        p, j = self.gaussian_pair()
        a = perm_test(p, j, n_perm=300, seed=5)
        b = perm_test(p, j, n_perm=300, seed=5)
        c = perm_test(p, j, n_perm=300, seed=8)
        assert np.array_equal(a.r_sorted, b.r_sorted)
        assert a.p_two_sided == b.p_two_sided
        assert not np.array_equal(a.r_sorted, c.r_sorted)

    def test_strong_correlation_rejected(self):
        rng = np.random.default_rng(10)
        p = rng.standard_normal(100)
        j = p + 0.3 * rng.standard_normal(100)
        res = perm_test(p, j, n_perm=1000, seed=0)
        assert res.decision_5pct == "reject"
        assert res.p_two_sided == 1.0 / 1001.0  # add-one floor
        assert res.p_upper == 1.0 / 1001.0

    def test_independent_pair_not_rejected(self):
        p, j = self.gaussian_pair(n=500, data_seed=2)
        res = perm_test(p, j, n_perm=1000, seed=0)
        assert res.decision_5pct == "fail-to-reject"
        assert res.p_two_sided > 0.05

    def test_tail_decisions(self):
        rng = np.random.default_rng(11)
        p = rng.standard_normal(150)
        j = -p + 0.5 * rng.standard_normal(150)  # strongly negative r
        lower = perm_test(p, j, n_perm=500, seed=0, tail="lower")
        upper = perm_test(p, j, n_perm=500, seed=0, tail="upper")
        assert lower.r_obs < -0.5
        assert lower.decision_5pct == "reject"
        assert upper.decision_5pct == "fail-to-reject"
        assert lower.p_lower < 0.01
        assert upper.p_upper > 0.95

    @staticmethod
    def tail_p(res):
        return {"lower": res.p_lower, "upper": res.p_upper, "two": res.p_two_sided}[res.tail]

    @pytest.mark.parametrize("n_perm", [100, 150, 999, 1000])
    @pytest.mark.parametrize("tail", TAILS)
    def test_decision_is_the_chosen_tails_p_value(self, tail, n_perm):
        # skewed pairs at n = 60, where an order-statistic rule and the
        # add-one p disagree most; s = 0, K = 999, two: p_two_sided 0.048
        for s in range(10):
            rng = np.random.default_rng(s)
            x = np.exp(1.5 * rng.standard_normal(60))
            y = np.exp(1.5 * rng.standard_normal(60)) + 0.6 * x * rng.uniform(0, 1, 60)
            res = perm_test(x, y, n_perm=n_perm, seed=0, tail=tail)
            expected = "reject" if self.tail_p(res) <= 0.05 else "fail-to-reject"
            assert res.decision_5pct == expected, (s, self.tail_p(res))

    @pytest.mark.parametrize(
        "tail, k, decision",
        [
            ("upper", 8, "fail-to-reject"),  # p = 9/151, about 0.060
            ("lower", 7, "fail-to-reject"),  # p = 8/151, about 0.053
            ("upper", 6, "reject"),  # p = 7/151, about 0.046
            ("lower", 6, "reject"),
        ],
    )
    def test_level_boundary_at_150_permutations(self, monkeypatch, tail, k, decision):
        # a null with exactly k permuted r at or beyond r_obs, and none in
        # the other tail
        p, j = self.gaussian_pair()
        r_obs = pearson(p, j)
        sign = 1.0 if tail == "upper" else -1.0
        beyond = r_obs + sign * np.linspace(0.01, 0.02, k)
        inside = r_obs - sign * np.linspace(0.001, 0.3, 150 - k)
        null = np.concatenate([beyond, inside])
        monkeypatch.setattr(permtest, "_permuted_correlations", lambda *args: null.copy())
        res = perm_test(p, j, n_perm=150, seed=0, tail=tail)
        assert self.tail_p(res) == (k + 1) / 151
        assert res.decision_5pct == decision

    def test_p_values_cover_both_tails(self):
        p, j = self.gaussian_pair()
        res = perm_test(p, j, n_perm=400, seed=2)
        # every permutation is counted as <= or >= (ties in both), so the
        # two one-sided p-values overlap by at least one count
        assert res.p_lower + res.p_upper >= 1.0 + 1.0 / 401.0 - 1e-12
        for value in (res.p_lower, res.p_upper, res.p_two_sided):
            assert 1.0 / 401.0 <= value <= 1.0

    def test_relabeling_symmetry_of_null(self):
        # swapping which series is permuted changes individual draws but
        # not the null distribution; quantile summaries stay close. The
        # min and max of 2000 draws are single extremes and move by more
        # than 0.02 for most seeds, so only q01..q99 are compared
        rng = np.random.default_rng(0)
        p = rng.standard_normal(500)
        j = rng.standard_normal(500)
        forward = perm_test(p, j, n_perm=2000, seed=9)
        backward = perm_test(j, p, n_perm=2000, seed=9)
        for key, value in forward.r_sorted_summary.items():
            if key not in ("min", "max"):
                assert value == pytest.approx(backward.r_sorted_summary[key], abs=0.02)

    def test_validation(self):
        p, j = self.gaussian_pair()
        with pytest.raises(ValidationError):
            perm_test(p, j, n_perm=99)
        with pytest.raises(ValidationError):
            perm_test(p, j, n_perm=500, tail="both")
        with pytest.raises(ValidationError):
            perm_test(p[:50], j, n_perm=500)
        with pytest.raises(NumericError):
            perm_test(np.zeros(120), j, n_perm=500)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 1.5},
            {"seed": True},
            {"seed": None},
            {"n_perm": 1000.0},
            {"n_perm": True},
            {"n_perm": "1000"},
        ],
    )
    def test_non_integer_arguments_rejected(self, kwargs):
        p, j = self.gaussian_pair()
        with pytest.raises(ValidationError, match="must be an integer"):
            perm_test(p, j, **{"n_perm": 100, **kwargs})

    def test_seed_is_recorded_as_int(self):
        p, j = self.gaussian_pair()
        res = perm_test(p, j, n_perm=100, seed=np.int64(4))
        assert type(res.seed) is int
        assert np.array_equal(res.r_sorted, perm_test(p, j, n_perm=100, seed=4).r_sorted)


class TestSortedQuantile:
    @pytest.mark.parametrize("n", [100, 101, 257, 776, 999, 1000, 1001, 9999, 10000, 10001])
    def test_bits_match_numpy(self, n):
        rng = np.random.default_rng(n)
        values = np.sort(rng.standard_normal(n) * rng.uniform(0.01, 10.0))
        for _, q in _SUMMARY_QUANTILES:
            assert _sorted_quantile(values, q) == float(np.quantile(values, q))

    def test_ties_and_single_value(self):
        values = np.array([-0.5, -0.5, 0.25, 0.25, 0.25, 1.0])
        for q in (0.0, 0.1, 0.3, 0.5, 0.9, 1.0):
            assert _sorted_quantile(values, q) == float(np.quantile(values, q))
        assert _sorted_quantile(np.array([0.3]), 0.5) == 0.3
