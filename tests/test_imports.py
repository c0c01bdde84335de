"""Every name a propalg module imports from a sibling module is used there.

A deletion that leaves its imports behind keeps the old names reachable
and hides that they have no caller left.  No linter is assumed: the
modules are parsed with ast.  The package's __init__ re-exports what it
imports, so a name listed in a module's __all__ counts as used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "propalg"


def _stale_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_stale_sibling_imports(path):
    stale = _stale_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not stale, f"{path.name}: imported but never used: {stale}"


def test_guard_sees_an_unused_import():
    tree = ast.parse("from .coefficients import imat_eye, imat_mul\n"
                     "def f(A, B):\n    return imat_mul(A, B)\n")
    assert _stale_imports(tree) == [(1, "imat_eye")]


def test_guard_counts_all_as_use():
    tree = ast.parse("from .coefficients import FgAbelian\n__all__ = ['FgAbelian']\n")
    assert _stale_imports(tree) == []
