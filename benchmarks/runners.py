"""Closed-loop runners: one client, one operation at a time.

Each runner measures for a given number of seconds and returns a
``Measurement``. A pass runs the workload's whole operation list in
order, so operations of different kinds interleave and slow drift of a
shared machine spreads over all of them rather than landing on one kind.
With tracing on, every untraced pass is followed by a traced pass of the
same operations; per-layer numbers come only from traced passes and
end-to-end numbers only from untraced ones.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import procs
import speed
from tracing import time_draws
from workloads import CalibrationConfig, CliWorkload

HERE = Path(__file__).resolve().parent
# calibration_lib runs in this many child processes, one after another,
# each measuring for its share of the run; each gives one set-up sample.
CALIBRATION_CHILDREN = 3
IMPORTTIME_PROBES = 3


@dataclass
class Measurement:
    # ``speed.timings`` output: normalised and raw latencies per kind
    # ("setup" included) and per-pass walls
    timings: dict = field(default_factory=dict)
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # traced runs only
    spans: list[dict] = field(default_factory=list)
    traced_passes: int = 0
    overhead: list[float] = field(default_factory=list)
    layer_samples: dict[str, list[float]] = field(default_factory=dict)

    def record(self, found: list[str]) -> None:
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems.extend(found)


class ProcessReference:
    """Runs ``speed.SOURCE`` as a process at most every PROCESS_INTERVAL_S."""

    def __init__(self, workdir: Path, env: dict[str, str]):
        self.workdir, self.env = workdir, env
        self.refs: list[tuple[float, float]] = []

    def __call__(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.refs[-1][1] >= speed.PROCESS_INTERVAL_S:
            done = procs.spawn(procs.python("-c", speed.SOURCE), self.workdir, self.env)
            self.refs.append((done.t0, done.t1))


def _keep_going(passes: int, min_passes: int, start: float, seconds: float) -> bool:
    """Another pass fits when the mean pass so far ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return passes < min_passes or elapsed * (passes + 1) / passes <= seconds


def _import_spans(m: Measurement, done: procs.Done, child: dict, name: str) -> None:
    """Append a traced process's spans under one root span for the operation."""
    root = len(m.spans)
    m.spans.append({"name": name, "start": done.t0, "end": done.t1,
                    "parent": None, "op": root, "counts": {}})
    m.spans.append({"name": "cli.startup", "start": done.t0, "end": child["t0"],
                    "parent": root, "op": root, "counts": {}})
    offset = len(m.spans)
    for span in child["spans"]:
        parent = span["parent"]
        m.spans.append({**span, "op": root,
                        "parent": root if parent is None else parent + offset})


def run_cli(wl: CliWorkload, root: Path, workdir: Path, seconds: float, trace: bool) -> Measurement:
    for name, text in wl.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    env = procs.child_env(root)
    procs.check_program(workdir, env, root)
    m = Measurement()
    reference = ProcessReference(workdir, env)
    events = []  # (kind, pass, start, end) of every untraced operation
    expected = [checks.reference(op, workdir) for op in wl.ops]
    first_stdout: dict[int, bytes] = {}

    def run_op(i, argv):
        op = wl.ops[i]
        done = procs.spawn(argv, workdir, env)
        found = checks.check_cli_output(op, done.code, done.stdout, expected[i])
        if first_stdout.setdefault(i, done.stdout) != done.stdout:
            found.append(f"{op.kind}: stdout differs from its first invocation")
        m.record(found)
        m.rss_mb.append(done.rss_mb)
        return done

    reference(force=True)
    start = time.perf_counter()
    passes = 0
    while _keep_going(passes, 1 if trace else 2, start, seconds):
        reference()
        # one set-up sample per pass: a fresh interpreter importing the CLI
        done = procs.spawn(procs.python("-c", "import longmem.cli"), workdir, env)
        events.append(("setup", None, done.t0, done.t1))
        m.rss_mb.append(done.rss_mb)
        walls = []
        for i, op in enumerate(wl.ops):
            reference()
            done = run_op(i, procs.python("-c", procs.CLI_ENTRY, *op.argv))
            events.append((op.kind, passes, done.t0, done.t1))
            walls.append(done.wall)
        if trace:
            out_bytes = 0
            for i, op in enumerate(wl.ops):
                spans_path = workdir / "spans.json"
                done = run_op(i, procs.python(str(HERE / "traced_cli.py"), str(spans_path), *op.argv))
                child = json.loads(spans_path.read_text(encoding="utf-8"))
                _import_spans(m, done, child, f"op.{op.kind}")
                m.overhead.append(done.wall - walls[i])
                out_bytes += len(done.stdout)
            m.layer_samples.setdefault("cli.out_bytes", []).append(out_bytes)
            m.traced_passes += 1
        passes += 1
    reference(force=True)
    m.timings = speed.timings(events, reference.refs, speed.PROCESS_NOMINAL_S)
    if trace:
        _cli_library_samples(m, wl, expected)
    return m


def _cli_library_samples(m: Measurement, wl: CliWorkload, expected) -> None:
    """Timings the benchmark takes with its own library calls.

    ``permtest.draw_s`` times ``nth_permutation`` for the same (seed, k, n)
    as the workload's permutation test. ``synth.generate_s`` repeats the
    ``gen`` operation's ``generate`` call in this process, where the
    reference check already made the first (cold) call.
    """
    import longmem

    for op, ref in zip(wl.ops, expected):
        if op.kind == "permtest":
            m.layer_samples["permtest.draw_s"] = time_draws(
                longmem.nth_permutation, op.params["seed"], op.params["n_perm"],
                ref.arrays["x"].size)
        elif op.kind == "gen":
            t = time.perf_counter()
            longmem.generate(ref.spec)
            m.layer_samples.setdefault("synth.generate_s", []).append(time.perf_counter() - t)


def run_calibration(cfg: CalibrationConfig, seed: int, root: Path, workdir: Path,
                    seconds: float, trace: bool) -> Measurement:
    env = procs.child_env(root)
    procs.check_program(workdir, env, root)
    config = json.dumps({**cfg.__dict__, "seed": seed, "trace": trace,
                         "seconds": seconds / CALIBRATION_CHILDREN})
    m = Measurement()
    reference = ProcessReference(workdir, env)
    setup = []  # ("setup", None, spawn, set-up done) per child
    pooled = {"latencies": {}, "raw_latencies": {}, "pass_walls": [], "raw_pass_walls": []}
    for _ in range(CALIBRATION_CHILDREN):
        reference(force=True)
        done = procs.spawn(procs.python(str(HERE / "calibration.py"), config), workdir, env)
        m.rss_mb.append(done.rss_mb)
        if done.code != 0:
            raise RuntimeError(
                f"calibration child failed: {done.stderr.decode(errors='replace')[-2000:]}"
            )
        report = json.loads(done.stdout.decode().splitlines()[-1])
        setup.append(("setup", None, done.t0, report["setup_done"]))
        for key in ("latencies", "raw_latencies"):
            for kind, values in report["timings"][key].items():
                pooled[key].setdefault(kind, []).extend(values)
        for key in ("pass_walls", "raw_pass_walls"):
            pooled[key].extend(report["timings"][key])
        m.attempted += report["attempted"]
        m.failed += report["failed"]
        m.problems += report["problems"]
        if trace:
            offset = len(m.spans)
            m.spans += [{**span, "op": span["op"] + offset,
                         "parent": None if span["parent"] is None else span["parent"] + offset}
                        for span in report["spans"]]
            m.traced_passes += report["passes"]
            m.overhead += report["overhead"]
            m.layer_samples.setdefault("synth.generate_cold_s", []).extend(report["generate_cold"])
            m.layer_samples.setdefault("permtest.draw_s", []).extend(report["draw_s"])
    reference(force=True)
    setup_timings = speed.timings(setup, reference.refs, speed.PROCESS_NOMINAL_S)
    for key in ("latencies", "raw_latencies"):
        pooled[key]["setup"] = setup_timings[key]["setup"]
    m.timings = pooled
    return m
