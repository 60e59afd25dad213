"""README's library tour runs as printed."""

import re
from pathlib import Path

import numpy as np

from longmem import GenSpec, generate

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
