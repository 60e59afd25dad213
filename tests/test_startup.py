"""Start-up contract: a command imports only the modules it runs.

Each check runs in a fresh interpreter, because this test process has
long since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import longmem

SRC_DIR = str(Path(longmem.__file__).resolve().parents[1])
ANALYSIS = {"acf", "chaos", "hurst", "permtest", "synth"}

# The public names; loading them lazily must not change the list.
PUBLIC = [
    "AcfResult", "DivergenceCurve", "EmbeddingParams", "EpsTooSmallError",
    "FractalSummary", "GenSpec", "HurstEstimate", "HurstSuite", "IngestOptions",
    "LongmemError", "LyapunovFit", "NumericError", "ParseError", "ParseResult",
    "PermutationResult", "RsPoint", "RsTable", "SummaryStats", "TimeSeries",
    "ValidationError", "WarningRecord", "acf_direct", "acf_fft", "band_mean",
    "embed", "expected_rescaled_range", "fgn_autocovariance",
    "first_zero_crossing", "fit_h", "fractal_correlation", "fractal_dimension",
    "generate", "hurst_suite", "lyap_fit", "lyap_k", "nth_permutation", "parse",
    "pearson", "perm_test", "rs_statistic", "rs_table", "select_range",
    "serialize_column", "standardize", "summarize", "__version__",
]

REPORT = """
import json, sys
print(json.dumps({
    "longmem": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("longmem.")),
    "numpy.ma": "numpy.ma" in sys.modules,
}))
"""


def loaded_after(code: str, cwd: Path) -> dict:
    """Which ``longmem`` submodules a fresh interpreter holds after ``code``."""
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        capture_output=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    report["longmem"] = set(report["longmem"])
    return report


def test_import_longmem_loads_no_submodule(tmp_path):
    assert loaded_after("import longmem", tmp_path)["longmem"] == set()


def test_import_cli_loads_no_analysis_module(tmp_path):
    loaded = loaded_after("import longmem.cli", tmp_path)["longmem"]
    assert loaded & ANALYSIS == set()


# Each command and the analysis module it runs; ``None`` runs none.
COMMANDS = [
    (["stats", "--input", "w.txt"], None),
    (["acf", "--input", "w.txt", "--max-lag", "4", "--band", "1:2"], "acf"),
    (["hurst", "--input", "w.txt"], "hurst"),
    (["suite", "--input", "w.txt"], "hurst"),
    (["lyap", "--input", "w.txt", "--refs", "20", "--fit", "0:4"], "chaos"),
    (["permtest", "--x", "w.txt", "--y", "w.txt", "--n-perm", "100"], "permtest"),
    (["gen", "--kind", "white", "--n", "8"], "synth"),
]


@pytest.mark.parametrize("argv, module", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_command_loads_only_its_analysis_module(argv, module, tmp_path):
    (tmp_path / "w.txt").write_text(
        longmem.serialize_column(longmem.generate(longmem.GenSpec(kind="white", n=300))),
        encoding="utf-8",
    )
    report = loaded_after(
        "import io, contextlib\n"
        "from longmem.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n",
        tmp_path,
    )
    assert report["longmem"] & ANALYSIS == ({module} if module else set())
    # np.median and np.unique import numpy.ma; permtest's np.quantile still does
    if argv[0] != "permtest":
        assert not report["numpy.ma"]


class TestPackageSurface:
    def test_all_is_unchanged(self):
        assert longmem.__all__ == PUBLIC
        assert dir(longmem) == sorted(PUBLIC)

    @pytest.mark.parametrize("name", PUBLIC[:-1])
    def test_name_is_the_defining_modules_object(self, name):
        value = getattr(longmem, name)
        module = sys.modules[value.__module__]
        assert value is getattr(module, name)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from longmem import *", namespace)
        assert set(PUBLIC) <= set(namespace)
        assert all(namespace[name] is getattr(longmem, name) for name in PUBLIC)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            longmem.no_such_name  # noqa: B018
        assert not hasattr(longmem, "no_such_name")
