"""No module of the package or of its tests imports a name it never uses.

A stand-in for a linter's unused-import rule (pyflakes F401), which the
project does not depend on: a name counts as used when the module reads it
anywhere or lists it in __all__, and an import line marked `# noqa: F401`
is exempt.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "hylosolve"


def unused_imports(source: str) -> list[str]:
    """The names imported by source and never used, as 'line: name'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


def test_the_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from json import dumps, loads as read\n"
              "from math import pi  # noqa: F401\n"
              "from math import tau\n"
              "__all__ = ['tau']\n"
              "print(os.path.sep, read)\n")
    assert unused_imports(source) == ["3: dumps"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
