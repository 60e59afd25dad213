"""The longmem benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload monthly_cli --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``calibration.py`` for why each):
``monthly_cli``, ``daily_cli`` and ``calibration_lib``. Each is a closed
loop with one client that sends one operation at a time; the inputs are
made from ``--seed``. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs traced passes and prints the per-layer metrics. Every
operation's output is checked (``checks.py``); a failed check counts the
operation as failed, and ``error_rate`` is failed over attempted.

``BENCHMARK.json`` gates ``monthly_cli`` and ``calibration_lib``.
``daily_cli`` runs the same way but is not gated: each of its passes
takes about ten seconds, so a run holds two samples of each command,
and on a 2-core shared machine its run-to-run spread reached a quarter
of the median, the largest bound allowed.

Lines before the last describe the run: environment, every metric with
its unit, sample count and high percentile, and any problem found. The
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.

Seed 7919 is held out: it is not used while tuning the benchmark, so
that later claims can be verified on it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

WORKLOADS = ("monthly_cli", "daily_cli", "calibration_lib")
ROOT = Path(__file__).resolve().parent.parent


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one workload; returns (Measurement, start-up probes)."""
    import procs
    import runners
    from workloads import CLI_WORKLOADS, CalibrationConfig

    if workload == "calibration_lib":
        m = runners.run_calibration(CalibrationConfig(), seed, ROOT, workdir, seconds, trace)
    else:
        wl = CLI_WORKLOADS[workload](seed)
        m = runners.run_cli(wl, ROOT, workdir, seconds, trace)
    startup = []
    if trace:
        env = procs.child_env(ROOT)
        startup = [procs.importtime_probe(workdir, env) for _ in range(runners.IMPORTTIME_PROBES)]
    return m, startup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "longmem" / "__init__.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'longmem'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import procs

    # Before numpy loads: the in-process references must use the children's
    # BLAS threads, because the fGn factor's rounding depends on the count.
    os.environ.update(procs.BLAS_ENV)
    import metrics
    from tracing import check_spans

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        m, startup = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    problems = list(dict.fromkeys(m.problems))
    if args.trace:
        found = metrics.per_layer(m, startup)
        tolerance = abs(found["trace.overhead_s"].value) + 1e-6
        problems += check_spans(m.spans, tolerance)
    else:
        found = metrics.end_to_end(m)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(procs.environment(), sort_keys=True))
    for name, metric in found.items():
        print(metrics.describe(name, metric))
    error_rate = m.failed / m.attempted if m.attempted else 1.0
    print(f"{'error_rate':<24} {error_rate:>14.6g} {'ratio':<14} "
          f"({m.failed} failed of {m.attempted} attempted)")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": m.attempted > 0 and m.failed == 0 and not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in found.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
