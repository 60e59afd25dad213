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


def write_cpc_table(path: Path, first_year: int, last_year: int) -> None:
    """A cpc_table document of one-decimal values, a caption and a header."""
    n = 12 * (last_year - first_year + 1)
    values = np.round(generate(GenSpec(kind="ar1", n=n, seed=5, phi=0.6)).values, 1)
    rows = [
        " ".join([str(first_year + i), *(f"{v:.1f}" for v in values[12 * i : 12 * i + 12])])
        for i in range(n // 12)
    ]
    header = "YEAR JAN FEB MAR APR MAY JUN JUL AUG SEP OCT NOV DEC"
    path.write_text("\n".join(["SYNTHETIC INDEX", "", header, *rows]) + "\n", encoding="utf-8")


def test_library_tour_runs(tmp_path, monkeypatch, capsys):
    write_cpc_table(tmp_path / "soi.txt", 1951, 2016)
    monkeypatch.chdir(tmp_path)
    exec(compile(tour_code(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the last print is the parsed file: 1951-01..2015-08, no warnings
    assert lines[-1] == f"{(2015 - 1951) * 12 + 8} []"
