"""No module-level private name of the package is left without a reader.

A companion of the unused-import guard: when code is deleted, the private
helpers and constants only it read stay behind unless something looks.  A
module-level `_name` (function, class or assignment, dunder names aside)
counts as read when a statement of the package other than its own
definition names it, reads it as an attribute or imports it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hylosolve"


def _defined(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _read(stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names of sources (module name -> source)
    that no other statement reads, as 'module: name'."""
    statements = [(module, stmt) for module, source in sorted(sources.items())
                  for stmt in ast.parse(source).body]
    reads = [_read(stmt) for _, stmt in statements]
    dead = []
    for i, (module, stmt) in enumerate(statements):
        for name in sorted(_defined(stmt)):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                dead.append(f"{module}: {name}")
    return dead


def test_the_guard_sees_a_dead_private_name():
    sources = {
        "a": ("_LIMIT = 3\n"
              "_UNUSED: int = 4\n"
              "__version__ = '1'\n"
              "def _helper(x):\n"
              "    return _helper(x - 1) if x else _LIMIT\n"
              "def _by_attribute():\n"
              "    pass\n"
              "class _Imported:\n"
              "    pass\n"
              "def public():\n"
              "    return 0\n"),
        "b": ("from .a import _Imported\n"
              "from . import a\n"
              "a._by_attribute()\n"),
    }
    # _helper reads itself only, inside its own definition
    assert dead_private_names(sources) == ["a: _UNUSED", "a: _helper"]


def test_no_dead_private_names():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []
