"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout with ``python3 benchmarks/selftest.py``
(or ``python3 -m pytest benchmarks/selftest.py``); it takes well under a
minute. It checks that every metric named in ``BENCHMARK.json`` is
emitted with its unit, that tiny runs of the workloads pass their own
checks and trace consistency, that a corrupted output counts as a failed
operation, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import procs  # noqa: E402

# as in run.py: the in-process references must use the children's BLAS
# threads, because the fGn factor's rounding depends on the thread count
os.environ.update(procs.BLAS_ENV)
import checks  # noqa: E402
import metrics  # noqa: E402
import runners  # noqa: E402
from tracing import check_spans  # noqa: E402
from workloads import CalibrationConfig, daily_cli, monthly_cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_CALIBRATION = CalibrationConfig(n=512, hs=(0.3, 0.7), paths_per_h=4, n_perm=100,
                                     acf_max_lag=16, lyap_n=5000, lyap_paths=2)


def _workdir(name: str) -> Path:
    path = ROOT / ".bench_work" / f"selftest-{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _assert_metrics(found: dict, section: str) -> None:
    emitted = {name: metric.unit for name, metric in found.items()}
    assert emitted == _units(section), (section, emitted)


def _run_tiny(trace: bool):
    measured = []
    for name, run in (
        ("daily", lambda wd: runners.run_cli(daily_cli(3, n=2000), ROOT, wd, 0, trace)),
        ("calibration", lambda wd: runners.run_calibration(
            TINY_CALIBRATION, 3, ROOT, wd, 0, trace)),
    ):
        workdir = _workdir(name)
        try:
            m = run(workdir)
            startup = [procs.importtime_probe(workdir, procs.child_env(ROOT))] if trace else []
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert m.attempted > 0 and m.failed == 0, (name, m.problems)
        measured.append((m, startup))
    return measured


def test_end_to_end_metrics_emitted_with_units():
    for m, _ in _run_tiny(trace=False):
        found = metrics.end_to_end(m)
        _assert_metrics(found, "end_to_end")
        assert all(metric.value > 0 for metric in found.values())


def test_per_layer_metrics_emitted_and_trace_consistent():
    for m, startup in _run_tiny(trace=True):
        found = metrics.per_layer(m, startup)
        _assert_metrics(found, "per_layer")
        tolerance = abs(found["trace.overhead_s"].value) + 1e-6
        assert check_spans(m.spans, tolerance) == []
        assert found["hurst.suite_s"].value > 0 and found["permtest.draw_s"].value > 0


def test_corrupted_output_counts_as_failed():
    wl = monthly_cli(5)
    workdir = _workdir("corrupt")
    try:
        for name, text in wl.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        env = procs.child_env(ROOT)
        m = runners.Measurement()
        for op in wl.ops:
            if op.kind not in ("acf", "gen"):
                continue
            ref = checks.reference(op, workdir)
            done = procs.spawn(procs.python("-c", procs.CLI_ENTRY, *op.argv), workdir, env)
            assert checks.check_cli_output(op, done.code, done.stdout, ref) == []
            good = done.stdout.decode()
            # change one digit of the first value after the results begin
            at = good.index('"coefficients"') if op.kind == "acf" else good.index("\n", 1) + 3
            while not good[at].isdigit():
                at += 1
            bad = good[:at] + str((int(good[at]) + 1) % 10) + good[at + 1:]
            m.record(checks.check_cli_output(op, done.code, bad.encode(), ref))
            m.record(checks.check_cli_output(op, 4, done.stdout, ref))
        assert (m.attempted, m.failed) == (4, 4), m.problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_refuses_to_run_without_the_program():
    bare = _workdir("bare")
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "monthly_cli",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name} ok", flush=True)
    work_root = ROOT / ".bench_work"
    if work_root.is_dir() and not any(work_root.iterdir()):
        work_root.rmdir()
