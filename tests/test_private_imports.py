"""No module of the package imports another package module's private name.

An underscore-prefixed name is a module's own detail; a caller in another
module that needs it wants a public name instead.  The imports below
predate this guard and are its only exceptions; the guard fails as well
when one of them is gone, so the list only shrinks.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hylosolve"

KNOWN = {
    ("checkers.py", "_gaussian_components"):
        "EC-2 and EC-3i's width sweep take the probe families' Gaussian states",
}


def private_imports(source: str) -> list[str]:
    """The underscore-prefixed names source imports from the package
    (relative imports or `hylosolve.*`), dunder names aside."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("hylosolve"):
            continue
        found += [alias.name for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_the_guard_sees_a_private_import():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from . import __version__, grid as _grid\n"
              "from .grid import Grid, _on_grid\n"
              "from hylosolve.models import (\n    _Propagator, evaluate)\n")
    assert private_imports(source) == ["_on_grid", "_Propagator"]


def test_no_new_private_import():
    found = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in private_imports(path.read_text(encoding="utf-8"))}
    assert found - KNOWN.keys() == set(), "import a public name instead"
    assert KNOWN.keys() - found == set(), "drop the exception that no longer applies"

