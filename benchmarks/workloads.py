"""Seeded inputs and operation lists of the benchmark workloads.

Inputs are made with numpy alone, never with ``longmem``, so that a
change to the program's generators cannot change what the benchmark
feeds it. The same seed gives byte-identical input files.

* ``monthly_cli``: the paper's case, a 776-month index (1951-01..2015-08)
  in ``cpc_table`` layout plus two wind-like components for
  ``permtest --resultant``. Interpreter start and the numpy import are
  most of every command but ``permtest``.
* ``daily_cli``: a 100 000-sample series in ``column`` layout plus a
  second series for ``permtest --y``. The estimators, permutation draws
  and parsing dominate; start-up is a few percent.
* ``calibration_lib``: an in-process library loop over an fGn ensemble
  (see ``calibration.py``); it pays no start-up per operation and is the
  only workload that pays the dense fGn factorisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OP_KINDS = ("stats", "acf", "hurst", "suite", "lyap", "permtest", "gen")

MONTHLY_FIRST_YEAR = 1951
MONTHLY_LAST_YEAR = 2015
MONTHLY_MISSING_TAIL = 4  # Sep..Dec 2015 are -999.9, leaving 776 months
SENTINEL = -999.9
MONTH_NAMES = "JAN FEB MAR APR MAY JUN JUL AUG SEP OCT NOV DEC"


@dataclass
class CliOp:
    """One ``longmem`` invocation and the parameters its reference needs."""

    kind: str
    argv: tuple[str, ...]
    params: dict


@dataclass
class CliWorkload:
    name: str
    files: dict[str, str]  # file name -> text, written into the work dir
    ops: list[CliOp]


@dataclass(frozen=True)
class CalibrationConfig:
    """Sizes of the ``calibration_lib`` loop; the defaults are the benchmark's."""

    n: int = 4096
    hs: tuple[float, ...] = (0.3, 0.5, 0.7, 0.9)
    paths_per_h: int = 6
    n_perm: int = 1000
    acf_max_lag: int = 64
    lyap_n: int = 5000
    lyap_paths: int = 4


def _ar1(rng: np.random.Generator, n: int, phi: float) -> np.ndarray:
    """Stationary unit-variance AR(1) path."""
    eps = rng.standard_normal(n) * math.sqrt(1.0 - phi * phi)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return x


def _cpc_table(values: np.ndarray, caption: str) -> str:
    """Monthly values as a cpc_table document with a caption and header."""
    years = MONTHLY_LAST_YEAR - MONTHLY_FIRST_YEAR + 1
    cells = np.full(years * 12, SENTINEL)
    cells[: values.size] = np.round(values, 1)
    lines = [caption, "", "YEAR " + MONTH_NAMES]
    for row in range(years):
        row_cells = cells[row * 12 : (row + 1) * 12]
        lines.append(
            f"{MONTHLY_FIRST_YEAR + row}" + "".join(f"{v:7.1f}" for v in row_cells)
        )
    return "\n".join(lines) + "\n"


def _column(values: np.ndarray, caption: str) -> str:
    return f"# {caption}\n" + "\n".join(repr(float(v)) for v in values) + "\n"


def _derived_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _analysis_ops(input_name: str, fmt: str, max_lag: int, band, lyap_extra, lyap_params):
    """stats, acf, hurst, suite and lyap over one input file."""
    src = {"input": input_name, "format": fmt}
    acf_argv = ("acf", "--input", input_name, "--max-lag", str(max_lag))
    if band is not None:
        acf_argv += ("--band", f"{band[0]}:{band[1]}")
    return [
        CliOp("stats", ("stats", "--input", input_name), {**src, "resolution": 0.1}),
        CliOp("acf", acf_argv, {**src, "max_lag": max_lag, "band": band}),
        CliOp("hurst", ("hurst", "--input", input_name), {**src, "min_window": 8}),
        CliOp("suite", ("suite", "--input", input_name), dict(src)),
        CliOp("lyap", ("lyap", "--input", input_name, *lyap_extra), {**src, **lyap_params}),
    ]


def _with_json(op: CliOp) -> CliOp:
    """Analysis commands render JSON so every result can be checked."""
    return CliOp(op.kind, op.argv + ("--format", "json"), op.params)


def monthly_cli(seed: int) -> CliWorkload:
    rng = np.random.default_rng([seed, 1])
    months = (MONTHLY_LAST_YEAR - MONTHLY_FIRST_YEAR + 1) * 12 - MONTHLY_MISSING_TAIL
    index = _ar1(rng, months, 0.7)
    u = 2.0 + _ar1(rng, months, 0.5)
    v = _ar1(rng, months, 0.5)
    files = {
        "index.txt": _cpc_table(index, f"SYNTHETIC STANDARDIZED INDEX (seed {seed})"),
        "u.txt": _cpc_table(u, f"SYNTHETIC ZONAL COMPONENT (seed {seed})"),
        "v.txt": _cpc_table(v, f"SYNTHETIC MERIDIONAL COMPONENT (seed {seed})"),
    }
    perm_seed, gen_seed = _derived_seed(rng), _derived_seed(rng)
    ops = _analysis_ops(
        "index.txt",
        "cpc_table",
        max_lag=72,
        band=(52, 64),
        lyap_extra=("--fit", "1:6", "--grid", "eps=0.2,0.3;m=2,3"),
        lyap_params={
            "fit": (1, 6),
            "grid": [{"eps": e, "m": m} for e in (0.2, 0.3) for m in (2, 3)],
        },
    )
    ops.append(
        CliOp(
            "permtest",
            ("permtest", "--x", "index.txt", "--resultant", "u.txt", "v.txt",
             "--n-perm", "10000", "--seed", str(perm_seed)),
            {"x": "index.txt", "resultant": ("u.txt", "v.txt"), "format": "cpc_table",
             "n_perm": 10000, "seed": perm_seed},
        )
    )
    ops = [_with_json(op) for op in ops]
    ops.append(
        CliOp(
            "gen",
            ("gen", "--kind", "fgn", "--n", "776", "--h", "0.7", "--seed", str(gen_seed)),
            {"kind": "fgn", "n": 776, "seed": gen_seed, "h": 0.7},
        )
    )
    return CliWorkload("monthly_cli", files, ops)


def daily_cli(seed: int, n: int = 100_000) -> CliWorkload:
    rng = np.random.default_rng([seed, 2])
    t = np.arange(n)
    x = _ar1(rng, n, 0.8) + 0.5 * np.sin(2.0 * np.pi * t / 365.25)
    y = _ar1(rng, n, 0.8)
    files = {
        "daily.txt": _column(x, f"synthetic daily series (seed {seed})"),
        "daily_y.txt": _column(y, f"synthetic daily companion (seed {seed})"),
    }
    perm_seed, gen_seed = _derived_seed(rng), _derived_seed(rng)
    max_lag = min(365, n - 1)
    ops = _analysis_ops(
        "daily.txt",
        "column",
        max_lag=max_lag,
        band=None,
        lyap_extra=("--fit", "1:6"),
        lyap_params={"fit": (1, 6), "grid": [{}]},
    )
    ops.append(
        CliOp(
            "permtest",
            ("permtest", "--x", "daily.txt", "--y", "daily_y.txt",
             "--n-perm", "1000", "--seed", str(perm_seed)),
            {"x": "daily.txt", "y": "daily_y.txt", "format": "column",
             "n_perm": 1000, "seed": perm_seed},
        )
    )
    ops = [_with_json(op) for op in ops]
    ops.append(
        CliOp(
            "gen",
            ("gen", "--kind", "ar1", "--phi", "0.9", "--n", str(n), "--seed", str(gen_seed)),
            {"kind": "ar1", "n": n, "seed": gen_seed, "phi": 0.9},
        )
    )
    return CliWorkload("daily_cli", files, ops)


CLI_WORKLOADS = {"monthly_cli": monthly_cli, "daily_cli": daily_cli}
