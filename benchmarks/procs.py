"""Child processes of the benchmark: environment, spawning and probes."""

from __future__ import annotations

import os
import platform
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# A child that runs longer than this is killed, so that a hung command
# cannot hold the benchmark past its own time limit.
PROCESS_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Children run single-threaded BLAS (never more threads than nproc). On a
# small shared machine an idle second BLAS thread spins on a core that
# other work needs, which adds noise and no speed to these workloads.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS}
# The ``longmem`` console script, written out so that the interpreter
# runs exactly what a user's ``longmem ARGS`` runs.
CLI_ENTRY = "import sys; from longmem.cli import main; sys.exit(main())"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update(BLAS_ENV)
    return env


@dataclass
class Done:
    code: int
    t0: float
    t1: float
    rss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


def spawn(argv: list[str], cwd: Path, env: dict[str, str]) -> Done:
    """Run one child to completion; time it and read its max RSS.

    Output goes to files, not pipes, so the child never blocks on a full
    pipe and the parent does no reading while the child runs.
    """
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Done(proc.returncode, t0, t1, usage.ru_maxrss / 1024.0, out.read(), err.read())


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def check_program(cwd: Path, env: dict[str, str], root: Path) -> None:
    """Import the program once, untimed: compiles bytecode, checks origin."""
    done = spawn(python("-c", "import longmem.cli; print(longmem.cli.__file__)"), cwd, env)
    origin = done.stdout.decode().strip()
    if done.code != 0 or not origin.startswith(str(root / "src")):
        raise RuntimeError(
            f"cannot import longmem from {root / 'src'}: "
            f"{done.stderr.decode(errors='replace').strip() or origin}"
        )


def importtime_probe(cwd: Path, env: dict[str, str]) -> dict[str, float]:
    """Start-up split of a fresh interpreter running ``import longmem.cli``.

    ``python -X importtime`` gives the cumulative import time of numpy and
    of the longmem modules; what the process wall time leaves over is the
    interpreter's own start and exit.
    """
    done = spawn(python("-X", "importtime", "-c", "import numpy; import longmem.cli"), cwd, env)
    numpy_us = longmem_us = 0
    for line in done.stderr.decode().splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\S+)$", line)
        if match is None:
            continue
        cumulative, name = int(match.group(1)), match.group(2)
        if name == "numpy":
            numpy_us += cumulative
        elif name == "longmem" or name.startswith("longmem."):
            longmem_us += cumulative
    return {
        "cli.interpreter_s": done.wall - (numpy_us + longmem_us) / 1e6,
        "cli.import_numpy_s": numpy_us / 1e6,
        "cli.import_longmem_s": longmem_us / 1e6,
    }


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": nproc(),
        "cpu": cpu,
    }
