"""Start-up and exit contract: a command imports only the modules it runs,
and the program freezes its heap before it exits.

Each check runs in a fresh interpreter, because this test process has
long since imported every module.
"""

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import longmem
from longmem.cli import main

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


def run_fresh(code: str, cwd: Path) -> str:
    """The stdout of ``code`` run in a fresh interpreter, which must succeed."""
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str, cwd: Path) -> dict:
    """Which ``longmem`` submodules a fresh interpreter holds after ``code``."""
    report = json.loads(run_fresh(code + REPORT, cwd).splitlines()[-1])
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
    # np.median, np.unique and np.quantile import numpy.ma; no command uses them
    assert not report["numpy.ma"]


# The heap is frozen when ``main`` runs as the program, so the interpreter's
# final collections skip it; ``main(argv)`` leaves a caller's collector alone.
FREEZE_REPORT = """
import contextlib, gc, io, sys
from longmem.cli import main
assert gc.get_freeze_count() == 0
sys.argv = ["longmem", *{argv!r}]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main()
print(code, gc.get_freeze_count())
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["gen", "--kind", "white", "--n", "8"], 0),
        (["stats", "--input", "missing.txt"], 3),
        (["stats", "--no-such-option"], 2),
    ],
    ids=["success", "validation error", "usage error"],
)
def test_program_run_freezes_the_heap_on_every_exit(argv, code, tmp_path):
    returned, frozen = map(int, run_fresh(FREEZE_REPORT.format(argv=argv), tmp_path).split())
    assert returned == code
    assert frozen > 0


def test_library_call_leaves_the_collector_alone(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = gc.get_freeze_count()
    assert main(["gen", "--kind", "white", "--n", "8"]) == 0
    assert main(["stats", "--input", "missing.txt"]) == 3
    assert gc.get_freeze_count() == before


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

    @pytest.mark.parametrize("module", sorted(longmem._EXPORTS))
    def test_submodule_exports_its_package_entry(self, module):
        # the package's table is the one list of each submodule's public names
        namespace: dict = {}
        exec(f"from longmem.{module} import *", namespace)
        names = longmem._EXPORTS[module]
        assert importlib.import_module(f"longmem.{module}").__all__ == list(names)
        assert all(namespace[name] is getattr(longmem, name) for name in names)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            longmem.no_such_name  # noqa: B018
        assert not hasattr(longmem, "no_such_name")
