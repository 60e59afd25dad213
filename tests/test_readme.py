"""README states the user's contract: its examples run as printed, and it
names every subcommand, option, warning code and exit code."""

import argparse
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from longmem import GenSpec, errors, generate
from longmem.cli import _SUBCOMMANDS, main

from child_env import child_env

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_code() -> str:
    """The first Python block under the "Library quick tour" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def write_cpc_table(
    path: Path, first_year: int, last_year: int, preamble: bool = True, mark: str = ""
) -> None:
    """A cpc_table document of one-decimal values, after ``mark``.

    With ``preamble``, a caption and a header come before the year rows.
    """
    n = 12 * (last_year - first_year + 1)
    values = np.round(generate(GenSpec(kind="ar1", n=n, seed=5, phi=0.6)).values, 1)
    rows = [
        " ".join([str(first_year + i), *(f"{v:.1f}" for v in values[12 * i : 12 * i + 12])])
        for i in range(n // 12)
    ]
    header = "YEAR JAN FEB MAR APR MAY JUN JUL AUG SEP OCT NOV DEC"
    if preamble:
        rows = ["SYNTHETIC INDEX", "", header, *rows]
    path.write_text(mark + "\n".join(rows) + "\n", encoding="utf-8")


def run_tour(tmp_path, monkeypatch, capsys) -> list[str]:
    """The tour's printed lines, run on ``soi.txt`` in ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    exec(compile(tour_code(), str(README), "exec"), {})
    return capsys.readouterr().out.splitlines()


def test_library_tour_runs(tmp_path, monkeypatch, capsys):
    write_cpc_table(tmp_path / "soi.txt", 1951, 2016)
    lines = run_tour(tmp_path, monkeypatch, capsys)
    # the last print is the parsed file: 1951-01..2015-08, no warnings
    assert lines[-1] == f"{(2015 - 1951) * 12 + 8} []"


def test_library_tour_keeps_the_first_year_after_a_byte_order_mark(
    tmp_path, monkeypatch, capsys
):
    # spreadsheet programs write the mark; here it precedes the first year row
    write_cpc_table(tmp_path / "soi.txt", 1951, 2016, preamble=False, mark="\ufeff")
    lines = run_tour(tmp_path, monkeypatch, capsys)
    assert lines[-1] == f"{(2015 - 1951) * 12 + 8} []"


def cli_examples() -> list[str]:
    """The lines of the first shell block under "Command-line tool"."""
    section = README.read_text(encoding="utf-8").split("## Command-line tool", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return block.splitlines()


def test_cli_examples_run_as_printed(tmp_path, capsys):
    soi = tmp_path / "soi.txt"
    write_cpc_table(soi, 1951, 2016)
    n = str(12 * (2016 - 1951 + 1))
    for name, seed in (("u.txt", "1"), ("v.txt", "2")):
        argv = ["gen", "--kind", "white", "--n", n, "--seed", seed, "--out", str(tmp_path / name)]
        assert main(argv) == 0
    capsys.readouterr()
    lines = cli_examples()
    assert len(lines) == 6
    for line in lines:
        program, *args = shlex.split(line)
        assert program == "longmem"
        done = subprocess.run(
            [sys.executable, "-m", "longmem", *args],
            cwd=tmp_path,
            capture_output=True,
            env=child_env(),
            timeout=120,
        )
        assert done.returncode == 0, (line, done.stderr)


def names(token: str) -> bool:
    """Whether README names ``token`` whole, not as part of a longer name."""
    pattern = rf"(?<![\w-]){re.escape(token)}(?![\w-])"
    return re.search(pattern, README.read_text(encoding="utf-8")) is not None


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_names_every_subcommand_and_its_options(command):
    assert names(f"`{command}`")
    _, add_options, _ = _SUBCOMMANDS[command]
    parser = argparse.ArgumentParser(add_help=False)
    add_options(parser)
    options = [s for a in parser._actions for s in a.option_strings if s.startswith("--")]
    assert options
    assert [o for o in options if not names(o)] == []


def test_names_every_warning_code():
    codes = [v for k, v in vars(errors).items() if k.startswith("WARN_")]
    assert codes
    assert [c for c in codes if not names(f"`{c}`")] == []


def test_names_every_error_class_with_its_exit_code():
    classes = [
        c
        for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.LongmemError) and hasattr(c, "exit_code")
    ]
    assert {c.__name__ for c in classes} >= {"ValidationError", "ParseError", "NumericError"}
    text = README.read_text(encoding="utf-8")
    for c in classes:
        row = rf"^\| `{c.__name__}` +\| `{c.exit_code}` +\|"
        assert re.search(row, text, re.MULTILINE), c.__name__
