"""Every global name a function of the package reads is bound in its module."""

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
