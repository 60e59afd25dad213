"""A fixed reference task that shows how fast the machine runs right now.

On a small shared machine the speed of a core drifts by a quarter or
more over tens of seconds, and every operation of a run slows with it:
raw medians of whole runs then differ by more than any useful bound.
The benchmark therefore runs this task, which does not touch the
program, between operations, and reports each operation's time scaled
by ``nominal / reference``, where ``reference`` is the mean time of the
reference runs just before and just after the operation. The result is
still in seconds: the time the operation would take on a machine where
the reference task takes its nominal time. A change to the program
moves the operation's time and not the reference's, so it shows in full.
Raw medians are printed alongside.

The task mixes the work the program does, in about equal shares of its
time: an interpreter and numpy start (in the process form only),
vectorised numpy passes over a 0.8 MB array, a pure-Python loop, and
many numpy calls on small blocks, like the R/S and neighbour loops.
"""

from __future__ import annotations

import bisect

SOURCE = """\
import numpy as np
x = np.random.default_rng(0).standard_normal(100_000)
for _ in range(5):
    np.sort(x)
    np.cumsum(x)
total = 0
for i in range(100_000):
    total += i % 7
for _ in range(3):
    for j in range(0, 4096, 16):
        block = x[j : j + 16]
        np.std(block, ddof=1)
        np.cumsum(block - block.mean()).max()
"""
# Times of the reference on the 2-core Xeon machine the seed commit was
# measured on, when it was quiet. They only fix the scale of the
# normalised seconds; any constant would preserve every comparison.
PROCESS_NOMINAL_S = 0.17  # ``python -c SOURCE``
KERNEL_NOMINAL_S = 0.03  # ``kernel()`` inside a running interpreter
# Run the reference whenever this long has passed since the last one.
PROCESS_INTERVAL_S = 1.0
KERNEL_INTERVAL_S = 0.5

_CODE = compile(SOURCE, "speed-reference", "exec")


def kernel() -> None:
    exec(_CODE, {})


def normalise(events: list[tuple[float, float]], refs: list[tuple[float, float]],
              nominal: float) -> list[float]:
    """Scale each (start, end) event by ``nominal`` over its nearby references.

    ``refs`` are (start, end) times of reference runs in time order, with
    one before the first event and one after the last.
    """
    ends = [end for _, end in refs]
    scaled = []
    for start, end in events:
        before = max(bisect.bisect_right(ends, start) - 1, 0)
        after = min(before + 1, len(refs) - 1)
        ref = sum(refs[i][1] - refs[i][0] for i in {before, after}) / len({before, after})
        scaled.append((end - start) * nominal / ref)
    return scaled


def timings(events: list[tuple[str, int, float, float]], refs: list[tuple[float, float]],
            nominal: float) -> dict:
    """Per-kind latencies and per-pass walls from (kind, pass, start, end) events.

    Returns normalised and raw lists: ``latencies``/``raw_latencies`` map
    each kind to its samples; ``pass_walls``/``raw_pass_walls`` hold the
    sum over each pass. Events with pass ``None`` (set-up) join no pass.
    """
    scaled = normalise([(start, end) for _, _, start, end in events], refs, nominal)
    out = {"latencies": {}, "raw_latencies": {}, "pass_walls": {}, "raw_pass_walls": {}}
    for (kind, pass_no, start, end), value in zip(events, scaled):
        out["latencies"].setdefault(kind, []).append(value)
        out["raw_latencies"].setdefault(kind, []).append(end - start)
        if pass_no is not None:
            out["pass_walls"][pass_no] = out["pass_walls"].get(pass_no, 0.0) + value
            out["raw_pass_walls"][pass_no] = out["raw_pass_walls"].get(pass_no, 0.0) + end - start
    out["pass_walls"] = list(out["pass_walls"].values())
    out["raw_pass_walls"] = list(out["raw_pass_walls"].values())
    return out
