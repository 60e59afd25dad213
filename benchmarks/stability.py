"""Run the benchmark over several seeds and report the spread of each metric.

Usage, from the root of a checkout::

    python3 benchmarks/stability.py --seeds 1-10 --seconds 20 \
        [--workloads monthly_cli daily_cli] [--trace 1] [--out results.json]

The workloads default to those ``BENCHMARK.json`` lists.

Seeds run one after another, with the workloads interleaved within each
seed. For every end-to-end metric it prints the median of the per-run
values, their first and third quartiles (``statistics.quantiles`` with
n=4) and the interquartile spread as a share of the median, next to the
metric's bound from ``BENCHMARK.json``. ``--out`` writes every run's
result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args.workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(args.trace)]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            result["run_wall_s"] = time.perf_counter() - started
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"in {result['run_wall_s']:.1f} s", flush=True)

    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        print(f"\n{workload} ({len(results)} runs)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            stats = summarize(values) if len(values) >= 2 else {"median": values[0]}
            summary[workload][name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and "spread" in stats:
                flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            print(f"  {name:<24} median {stats['median']:<12.6g} "
                  f"spread {stats.get('spread', float('nan')):7.3f}  "
                  f"bound {bound if bound is not None else '-':<5} {flag}")
    if args.out is not None:
        args.out.write_text(json.dumps({"seconds": seconds, "runs": runs, "summary": summary},
                                       indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
