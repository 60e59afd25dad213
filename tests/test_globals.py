"""Checks over the package's source: every global name a function reads is
bound in its module, every inner product is ``core._dot``, only
``permtest._keyed`` builds or re-keys a Philox or SFC64 generator, only
``permtest._sorted_quantile`` rounds a quantile's index, and the R/S
layer has one line fit and the one home of its skipped-block warning."""

import ast
import builtins
import symtable
from pathlib import Path

import pytest

import longmem

SOURCES = sorted(Path(longmem.__file__).parent.glob("*.py"))


def unbound_globals(path: Path) -> set[str]:
    """Global names that a function, class or lambda in ``path`` reads and
    that its module neither assigns nor imports, nor are builtins."""
    top = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    unbound = set()
    scopes = list(top.get_children())
    while scopes:
        scope = scopes.pop()
        scopes.extend(scope.get_children())
        for symbol in scope.get_symbols():
            name = symbol.get_name()
            if (
                symbol.is_global()
                and symbol.is_referenced()
                and name not in bound
                and not hasattr(builtins, name)
            ):
                unbound.add(name)
    return unbound


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_global_read_is_bound(path):
    assert unbound_globals(path) == set()


# numpy names for inner products and matrix products
DOT_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def spelled(source: str, exempt: str | None, found) -> list[int]:
    """Lines of the nodes of ``source`` for which ``found`` holds, outside
    the top-level function ``exempt``."""
    tree = ast.parse(source)
    skip = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == exempt:
            skip = {id(inner) for inner in ast.walk(node)}
    return [node.lineno for node in ast.walk(tree) if id(node) not in skip and found(node)]


def is_dot(node: ast.AST) -> bool:
    """The ``@`` operator, or a numpy name in ``DOT_NAMES`` as an attribute
    or an import."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Attribute):
        return node.attr in DOT_NAMES
    if isinstance(node, ast.ImportFrom):
        modules = [node.module or ""] + [alias.name for alias in node.names]
        return any(DOT_NAMES & set(name.split(".")) for name in modules)
    if isinstance(node, ast.Import):
        return any(DOT_NAMES & set(alias.name.split(".")) for alias in node.names)
    return False


def dot_spellings(source: str, exempt: str | None = None) -> list[int]:
    """Lines of ``source`` that spell an inner product outside the function
    ``exempt``."""
    return spelled(source, exempt, is_dot)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_inner_product_is_core_dot(path):
    exempt = "_dot" if path.name == "core.py" else None
    assert dot_spellings(path.read_text(encoding="utf-8"), exempt) == []


@pytest.mark.parametrize(
    "source",
    [
        "r = a @ b",
        "r @= b",
        "r = a.dot(b)",
        "r = np.dot(a, b)",
        "r = np.linalg.norm(a)",
        "from numpy.linalg import norm",
        "from numpy import dot",
        "import numpy.linalg",
        "def _dot(a, b):\n    return a @ b\nr = a @ b",
    ],
)
def test_each_spelling_is_found(source):
    assert dot_spellings(source, exempt="_dot") != []


def test_core_dot_itself_is_exempt():
    source = "@dataclass\nclass A:\n    x: int\ndef _dot(a, b):\n    return a @ b\n"
    assert dot_spellings(source, exempt="_dot") == []
    assert dot_spellings(source) == [5]


# the bit generators of the keying rule: Philox keys, SFC64 draws
KEYED_BIT_GENERATORS = {"Philox", "SFC64"}


def is_philox(node: ast.AST) -> bool:
    """A spelling of ``Philox`` or ``SFC64`` as a name, attribute, import or
    string, or an assignment to a ``.state`` attribute, ``setattr``
    included."""
    if isinstance(node, ast.Name):
        return node.id in KEYED_BIT_GENERATORS
    if isinstance(node, ast.Attribute):
        return node.attr in KEYED_BIT_GENERATORS or (
            node.attr == "state" and isinstance(node.ctx, (ast.Store, ast.Del))
        )
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any(alias.name.split(".")[-1] in KEYED_BIT_GENERATORS for alias in node.names)
    if isinstance(node, ast.Constant):
        return node.value in KEYED_BIT_GENERATORS
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "state"
        )
    return False


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_permtest_keyed_knows_philox(path):
    exempt = "_keyed" if path.name == "permtest.py" else None
    assert spelled(path.read_text(encoding="utf-8"), exempt, is_philox) == []


@pytest.mark.parametrize(
    "source",
    [
        "g = np.random.Philox(0)",
        "g = Philox(0)",
        "from numpy.random import Philox",
        "import numpy.random.Philox",
        "state = {'bit_generator': 'Philox'}",
        "g.state = s",
        "g.bit_generator.state = s",
        "g.state |= s",
        "del g.state",
        "setattr(g, 'state', s)",
        "def _keyed(seed):\n    return Philox(seed)\ng = Philox(0)",
        "g = np.random.SFC64(0)",
        "g = SFC64(0)",
        "from numpy.random import SFC64",
        "import numpy.random.SFC64",
        "state = {'bit_generator': 'SFC64'}",
        "def _keyed(seed):\n    return SFC64(seed)\ng = SFC64(0)",
    ],
)
def test_each_philox_spelling_is_found(source):
    assert spelled(source, "_keyed", is_philox) != []


def test_keyed_itself_is_exempt_and_reading_state_is_not_found():
    source = (
        "s = g.state\ndef _keyed(seed):\n    g.state = {}\n    h = SFC64(0)\n"
        "    return Philox(seed)\n"
    )
    assert spelled(source, "_keyed", is_philox) == []
    assert spelled(source, None, is_philox) == [3, 4, 5]


def is_name(name: str):
    """``found`` for ``spelled``: ``name`` as a name, an attribute or an import."""

    def found(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id == name
        if isinstance(node, ast.Attribute):
            return node.attr == name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return any(alias.name.split(".")[-1] == name for alias in node.names)
        return False

    return found


def is_call_of(name: str):
    """``found`` for ``spelled``: a call of ``name``, bare or as an attribute."""
    named = is_name(name)
    return lambda node: isinstance(node, ast.Call) and named(node.func)


def package_source(name: str) -> str:
    return (Path(longmem.__file__).parent / name).read_text(encoding="utf-8")


def test_hurst_fits_every_exponent_in_one_place():
    assert len(spelled(package_source("hurst.py"), None, is_call_of("_weighted_line_fit"))) == 1


def test_cli_leaves_the_skipped_block_warning_to_rs_table():
    assert spelled(package_source("cli.py"), None, is_name("WARN_SKIPPED_BLOCKS")) == []


def test_permtest_rounds_a_quantile_index_only_in_sorted_quantile():
    # every number perm_test reports about its null is an add-one count
    # or a _sorted_quantile of the one sorted array
    source = package_source("permtest.py")
    for name in ("ceil", "floor"):
        assert spelled(source, "_sorted_quantile", is_call_of(name)) == []


def test_calls_and_names_are_found():
    source = "from .errors import (\n    f,\n)\na = f(x)\nb = m.f(y)\nc = f\n"
    assert sorted(spelled(source, None, is_call_of("f"))) == [4, 5]
    assert sorted(spelled(source, None, is_name("f"))) == [1, 4, 5, 6]
