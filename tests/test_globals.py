"""Checks over the package's source: every global name a function reads is
bound in its module, and every inner product is ``core._dot``."""

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


def dot_spellings(source: str, exempt: str | None = None) -> list[int]:
    """Lines of ``source`` that spell an inner product outside the function
    ``exempt``: the ``@`` operator, or a numpy name in ``DOT_NAMES`` as an
    attribute or an import."""
    tree = ast.parse(source)
    skip = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == exempt:
            skip = {id(inner) for inner in ast.walk(node)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            found = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.Attribute):
            found = node.attr in DOT_NAMES
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
            found = any(DOT_NAMES & set(name.split(".")) for name in modules)
        elif isinstance(node, ast.Import):
            found = any(DOT_NAMES & set(alias.name.split(".")) for alias in node.names)
        else:
            continue
        if found:
            lines.append(node.lineno)
    return lines


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
