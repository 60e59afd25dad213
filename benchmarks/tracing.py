"""Spans for the traced benchmark pass.

A span is one timed call at a layer boundary: its name, start, end, the
span that caused it (``parent``, an index into the same list) and the
operation it belongs to (``op``). Spans stay in memory and are written
out when the pass ends. All timestamps come from ``time.perf_counter``,
which on Linux reads CLOCK_MONOTONIC, so spans recorded by the benchmark
and by the processes it starts share one clock.

The spans are recorded from outside the program: the benchmark replaces
the library functions that ``longmem.cli`` calls (and its own library
calls) with timing wrappers. No program source changes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from types import SimpleNamespace


def _rs_table_counts(args, kwargs, table):
    return {"windows": len(table.points), "blocks": sum(p.blocks for p in table.points)}


def _lyap_counts(args, kwargs, curve):
    ts, params = args[0], args[1]
    n_valid = len(ts) - (params.m - 1) * params.d - params.s + 1
    refs = min(params.n_ref, n_valid)
    # pair_checks is computed, not observed: every reference is compared
    # against every embedded vector by the O(n) scan of the seed commit.
    return {
        "refs_used": int(max(curve.ref_counts)),
        "pair_checks": refs * n_valid,
    }


def _generate_counts(args, kwargs, series):
    spec = args[0]
    factor = spec.n * spec.n * 8 / 1e6 if spec.kind == "fgn" else 0.0
    return {"factor_mb": factor}


# Public functions that ``longmem.cli`` calls and the calibration loop
# uses: the name the function is bound to, its span name, and an optional
# function that turns (args, kwargs, result) into counts.
LIBRARY_CALLS = {
    "parse": ("ingest.parse", lambda a, k, r: {"bytes": len(a[0])}),
    "serialize_column": ("ingest.serialize_column", lambda a, k, r: {"bytes": len(r)}),
    "summarize": ("core.summarize", None),
    "acf_fft": ("acf.acf_fft", None),
    "first_zero_crossing": ("acf.first_zero_crossing", None),
    "band_mean": ("acf.band_mean", None),
    "rs_table": ("hurst.rs_table", _rs_table_counts),
    "fit_h": ("hurst.fit_h", None),
    "hurst_suite": ("hurst.hurst_suite", None),
    "fractal_correlation": ("hurst.fractal_correlation", None),
    "lyap_k": ("chaos.lyap_k", _lyap_counts),
    "lyap_fit": ("chaos.lyap_fit", None),
    "perm_test": ("permtest.perm_test", lambda a, k, r: {"permutations": r.n_perm}),
    "generate": ("synth.generate", _generate_counts),
}

# Private steps of ``longmem.cli.main`` that are not layer calls. Their
# spans split the main() span into argument parsing, envelope building
# and rendering, so that what remains is the CLI's own self time.
CLI_STEPS = {
    "_build_parser": "cli.argparse",
    "_envelope": "cli.envelope",
    "_emit": "cli.render",
    "_write_out": "cli.render",
}


class Tracer:
    """Collects spans in memory; ``op`` tags every span started while set."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record["counts"].update(counter(args, kwargs, result))
            return result

        return traced


def library(module, tracer: Tracer | None = None) -> SimpleNamespace:
    """The LIBRARY_CALLS functions of ``module``, wrapped when tracing."""
    calls = {}
    for attr, (name, counter) in LIBRARY_CALLS.items():
        fn = getattr(module, attr)
        calls[attr] = fn if tracer is None else tracer.wrap(name, fn, counter)
    return SimpleNamespace(**calls)


def instrument_cli(cli_module, tracer: Tracer) -> None:
    """Wrap the functions ``longmem.cli`` calls in place.

    Names the module no longer has are skipped, so a later refactor of the
    CLI loses a span rather than breaking the traced run.
    """
    for attr, (name, counter) in LIBRARY_CALLS.items():
        if hasattr(cli_module, attr):
            setattr(cli_module, attr, tracer.wrap(name, getattr(cli_module, attr), counter))
    for attr, name in CLI_STEPS.items():
        if hasattr(cli_module, attr):
            setattr(cli_module, attr, tracer.wrap(name, getattr(cli_module, attr)))
    build = getattr(cli_module, "_build_parser", None)
    if build is not None:

        def build_traced_parser(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = tracer.wrap("cli.argparse", parser.parse_args)
            return parser

        cli_module._build_parser = build_traced_parser


def time_draws(nth_permutation, seed: int, n_perm: int, n: int, repeats: int = 3) -> list[float]:
    """Seconds to draw the ``n_perm`` permutations a permutation test makes.

    The benchmark calls the public ``nth_permutation`` itself, so that the
    draws can be told apart from the dot products inside ``perm_test``.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for k in range(n_perm):
            nth_permutation(seed, k, n)
        samples.append(time.perf_counter() - start)
    return samples


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(i)
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span["start"]
        intervals = sorted(
            (max(spans[c]["start"], span["start"]), min(spans[c]["end"], span["end"]))
            for c in children.get(i, ())
        )
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span["end"] - span["start"] - covered)
    return result


def check_spans(spans: list[dict], tolerance: float) -> list[str]:
    """Problems with a traced run, as messages; empty when consistent.

    A child span must lie inside its parent, and the self times of all
    spans of one operation must add up to the wall time of its root span
    within ``tolerance`` (which they do unless sibling spans overlap).
    """
    problems = []
    for i, span in enumerate(spans):
        if span["end"] is None or span["end"] < span["start"]:
            problems.append(f"span {i} ({span['name']}) ends before it starts")
            continue
        parent = span["parent"]
        if parent is not None and (
            span["start"] < spans[parent]["start"] or span["end"] > spans[parent]["end"]
        ):
            problems.append(
                f"span {i} ({span['name']}) exceeds its parent {spans[parent]['name']}"
            )
    if problems:
        return problems
    selfs = self_times(spans)
    totals: dict = {}
    for span, own in zip(spans, selfs):
        totals[span["op"]] = totals.get(span["op"], 0.0) + own
    for span in spans:
        if span["parent"] is None:
            wall = span["end"] - span["start"]
            if abs(totals[span["op"]] - wall) > tolerance:
                problems.append(
                    f"op {span['op']}: self times sum to {totals[span['op']]:.6f} s, "
                    f"root wall is {wall:.6f} s"
                )
    return problems
