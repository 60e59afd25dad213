"""Byte-exact CLI outputs checked against files under ``tests/golden/``.

Every subcommand runs in table, json and csv format from a temporary
working directory with relative file names, so the echoed ``command`` and
``inputs.path`` do not depend on where the suite runs. Stdout, every
``--out`` file, and the stderr of the error exits must match the stored
files byte for byte. One case per command also runs as the program,
``python -m longmem`` in a subprocess, and must match the same files.

To rewrite the stored files after a deliberate output change, run
``LONGMEM_UPDATE_GOLDEN=1 python -m pytest tests/test_cli_golden.py`` and
review the diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from longmem import GenSpec, TimeSeries, generate, serialize_column
from longmem.cli import main

from child_env import child_env

GOLDEN = Path(__file__).parent / "golden"
UPDATE = os.environ.get("LONGMEM_UPDATE_GOLDEN") == "1"
FORMATS = ("table", "json", "csv")

CPC_TEXT = """SOUTHERN OSCILLATION INDEX
(STANDARDIZED DATA)

YEAR JAN FEB MAR APR MAY JUN JUL AUG SEP OCT NOV DEC
2014 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2
2015 -0.1 -0.2 -0.3 -0.4 -0.5 -0.6 -0.7 -0.8 -999.9 -999.9 -999.9 -999.9
"""

CPC_GAP_TEXT = """YEAR JAN FEB MAR APR MAY JUN JUL AUG SEP OCT NOV DEC
2014 0.1 0.2 0.3 0.4 -999.9 0.6 0.7 0.8 0.9 1.0 1.1 1.2
"""

MALFORMED_TEXT = (
    "2014 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2\n"
    "2016 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2\n"
)


def _column(kind, n, seed, **extra):
    return serialize_column(generate(GenSpec(kind=kind, n=n, seed=seed, **extra)))


def _csv_pair(values, year=1950):
    return "".join(
        f"{year + i // 12:04d}-{i % 12 + 1:02d},{float(v)!r}\n"
        for i, v in enumerate(values)
    )


def _with_flat_blocks():
    values = generate(GenSpec(kind="white", n=256, seed=2)).values.copy()
    values[:16] = 0.25  # two zero-variance blocks at window 8, one at 16
    return serialize_column(TimeSeries(values=values, label="white with a flat start"))


def _inputs():
    return {
        "soi.txt": CPC_TEXT,
        "gap.txt": CPC_GAP_TEXT,
        "bad.txt": MALFORMED_TEXT,
        "white.txt": _column("white", 256, 1),
        "flat.txt": _with_flat_blocks(),
        "const.txt": "\n".join(["1.0"] * 64) + "\n",
        "logistic.txt": _column("logistic", 1000, 0),
        "u.txt": _column("white", 256, 5),
        "v.txt": _column("white", 256, 6),
        "short.txt": _column("white", 100, 7),
        "x.csv": _csv_pair(generate(GenSpec(kind="ar1", n=60, seed=3, phi=0.5)).values),
        "y.csv": _csv_pair(generate(GenSpec(kind="white", n=60, seed=4)).values),
    }


# (case, argv, writes --out curve.txt)
CASES = [
    ("stats_cpc", ["stats", "--input", "soi.txt"], False),
    ("stats_csv_pair", ["stats", "--input", "x.csv", "--resolution", "0.5"], False),
    ("stats_range", ["stats", "--input", "soi.txt", "--range", "2014-03:2014-07"], False),
    (
        "stats_truncate",
        ["stats", "--input", "gap.txt", "--on-gap", "truncate_at_first_gap"],
        False,
    ),
    ("acf_fft", ["acf", "--input", "white.txt", "--max-lag", "8"], True),
    (
        "acf_direct_band",
        ["acf", "--input", "white.txt", "--max-lag", "12", "--method", "direct",
         "--band", "3:6"],
        True,
    ),
    ("hurst", ["hurst", "--input", "white.txt", "--min-window", "16"], True),
    ("hurst_weighted_flat", ["hurst", "--input", "flat.txt", "--weighted"], True),
    ("suite", ["suite", "--input", "white.txt"], False),
    (
        "lyap_fit",
        ["lyap", "--input", "logistic.txt", "--m", "1", "--theiler", "10",
         "--eps", "0.001", "--steps", "6", "--fit", "0:4"],
        True,
    ),
    (
        "lyap_grid",
        ["lyap", "--input", "logistic.txt", "--theiler", "10", "--steps", "5",
         "--grid", "m=1,2;eps=0.01,0.02", "--fit", "1:4"],
        True,
    ),
    (
        "lyap_grid_partial",
        ["lyap", "--input", "logistic.txt", "--m", "1", "--theiler", "10", "--steps", "5",
         "--grid", "eps=1e-9,0.01", "--fit", "1:4"],
        True,
    ),
    (
        "permtest_y",
        ["permtest", "--x", "x.csv", "--y", "y.csv", "--n-perm", "200", "--seed", "3"],
        True,
    ),
    (
        "permtest_resultant",
        ["permtest", "--x", "white.txt", "--resultant", "u.txt", "v.txt",
         "--n-perm", "150", "--seed", "1", "--tail", "upper"],
        True,
    ),
    ("gen_stdout", ["gen", "--kind", "ar1", "--n", "12", "--phi", "0.5", "--seed", "4"], False),
    ("gen_out", ["gen", "--kind", "fgn", "--n", "32", "--h", "0.7", "--seed", "2"], True),
]

# (case, argv, exit code): stdout and stderr are both checked
ERROR_CASES = [
    ("err_malformed", ["stats", "--input", "bad.txt"], 2),
    ("err_missing_file", ["stats", "--input", "nope.txt"], 3),
    ("err_interior_gap", ["stats", "--input", "gap.txt"], 3),
    ("err_bad_grid", ["lyap", "--input", "white.txt", "--grid", "epsilon=0.1"], 3),
    (
        "err_resultant_lengths",
        ["permtest", "--x", "white.txt", "--resultant", "u.txt", "short.txt",
         "--n-perm", "200"],
        3,
    ),
    ("err_constant", ["hurst", "--input", "const.txt"], 4),
    ("err_eps_too_small", ["lyap", "--input", "white.txt", "--eps", "1e-12"], 4),
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in _inputs().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _check(name: str, actual: str) -> None:
    path = GOLDEN / name
    if UPDATE:
        GOLDEN.mkdir(exist_ok=True)
        path.write_bytes(actual.encode("utf-8"))
        return
    assert path.exists(), f"missing golden file {name}"
    expected = path.read_bytes().decode("utf-8")
    assert actual == expected, f"output differs from {name}"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case,argv,writes_curve", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(workdir, capsys, case, argv, writes_curve, fmt):
    code = main(_with_out(argv, writes_curve, fmt))
    captured = capsys.readouterr()
    _check_success(workdir, case, writes_curve, fmt, code, captured.out, captured.err)


def _with_out(argv, writes_curve, fmt):
    extra = ["--out", "curve.txt"] if writes_curve else []
    return [*argv, *extra, "--format", fmt]


def _check_success(workdir, case, writes_curve, fmt, code, out, err):
    assert code == 0, err
    assert err == ""
    _check(f"{case}.{fmt}", out)
    if writes_curve:
        _check(f"{case}.curve.txt", (workdir / "curve.txt").read_text(encoding="utf-8"))


def test_gen_stdout_is_a_raw_column_in_every_format(workdir, capsys):
    outputs = set()
    for fmt in FORMATS:
        assert main(["gen", "--kind", "white", "--n", "5", "--format", fmt]) == 0
        outputs.add(capsys.readouterr().out)
    (text,) = outputs
    assert text == _column("white", 5, 0)


@pytest.mark.parametrize("case,argv,exit_code", ERROR_CASES, ids=[c[0] for c in ERROR_CASES])
def test_error_exit_matches_golden(workdir, capsys, case, argv, exit_code):
    assert main(argv) == exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    _check(f"{case}.stderr", captured.err)


# (case, format) run as the program: one per command, gen with and without --out
PROGRAM_CASES = [
    ("stats_cpc", "table"),
    ("acf_fft", "json"),
    ("hurst", "csv"),
    ("suite", "table"),
    ("lyap_grid", "json"),
    ("permtest_resultant", "csv"),
    ("gen_stdout", "table"),
    ("gen_out", "json"),
]


def _run_program(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """``python -m longmem *argv`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "longmem", *argv],
        capture_output=True,
        cwd=cwd,
        env=child_env(),
        encoding="utf-8",
        timeout=120,
    )


@pytest.mark.parametrize("case,fmt", PROGRAM_CASES, ids=[c for c, _ in PROGRAM_CASES])
def test_program_output_matches_golden(workdir, case, fmt):
    _, argv, writes_curve = next(c for c in CASES if c[0] == case)
    proc = _run_program(_with_out(argv, writes_curve, fmt), workdir)
    _check_success(workdir, case, writes_curve, fmt, proc.returncode, proc.stdout, proc.stderr)


def test_program_error_exit_matches_golden(workdir):
    case, argv, exit_code = next(c for c in ERROR_CASES if c[0] == "err_missing_file")
    proc = _run_program(argv, workdir)
    assert proc.returncode == exit_code == 3
    assert proc.stdout == ""
    _check(f"{case}.stderr", proc.stderr)


def test_flat_case_exercises_skipped_blocks():
    assert "[SKIPPED_BLOCKS]" in (GOLDEN / "hurst_weighted_flat.table").read_text()
