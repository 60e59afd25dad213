"""The benchmark's own checks, run once against the program.

``benchmarks/run.py`` builds every operation's expected output with the
library in its own process: it iterates ``RsTable`` and takes ``asdict``
of each point and of ``hurst_suite``'s result, and ``calibration.py``
runs ``np.isfinite`` over a suite result's fields and pickles every
result. A change to a public result type that breaks one of those reads
makes the benchmark process itself fail, which no test of the library
alone sees. This module runs one pass of the ``monthly_cli`` workload
through the benchmark's reference and output checks, and one
``calibration_lib`` child at zero seconds. It only reads ``benchmarks/``.

``benchmarks/selftest.py`` is not imported here: it sets BLAS variables
in the process that imports it.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import procs  # noqa: E402
from workloads import OP_KINDS, CalibrationConfig, monthly_cli  # noqa: E402


def test_monthly_cli_pass_passes_the_benchmark_checks(tmp_path):
    wl = monthly_cli(3)
    assert {op.kind for op in wl.ops} == set(OP_KINDS)
    for name, text in wl.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    env = procs.child_env(ROOT)
    problems = {}
    for op in wl.ops:
        ref = checks.reference(op, tmp_path)
        done = procs.spawn(procs.python("-c", procs.CLI_ENTRY, *op.argv), tmp_path, env)
        found = checks.check_cli_output(op, done.code, done.stdout, ref)
        if found:
            problems[op.kind] = [*found, done.stderr.decode(errors="replace")[-2000:]]
    assert problems == {}


def test_calibration_child_passes_the_benchmark_checks(tmp_path):
    config = {**CalibrationConfig().__dict__, "seed": 3, "trace": False, "seconds": 0}
    done = procs.spawn(
        procs.python(str(BENCH / "calibration.py"), json.dumps(config)),
        tmp_path,
        procs.child_env(ROOT),
    )
    assert done.code == 0, done.stderr.decode(errors="replace")[-2000:]
    report = json.loads(done.stdout.decode().splitlines()[-1])
    assert report["attempted"] > 0
    assert report["failed"] == 0, report["problems"]
