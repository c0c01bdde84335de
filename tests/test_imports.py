"""No propalg module keeps names that nothing in the package uses.

Every name a module imports from a sibling module is used there, and
every top-level private function or class is referenced somewhere in the
package outside its own definition.  A deletion that leaves its imports
or helpers behind keeps the old code reachable and hides that it has no
caller left.  No linter is assumed: the modules are parsed with ast.  The
package's __init__ re-exports what it imports, so a name listed in a
module's __all__ counts as used.  Tests do not count as callers.
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


def _referenced(node):
    """Names a node reads, as bare names or as attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _dead_private_helpers(modules):
    """(module, name) of each top-level _name def or class nothing else reads.

    modules maps a module name to its parsed tree.  A reference inside
    the helper's own definition (recursion) does not count.
    """
    defined, uses = [], []
    for mod, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined.append((mod, node.name, node))
            uses.append((node, _referenced(node)))
    return sorted((mod, name) for mod, name, own in defined
                  if not any(name in names for node, names in uses if node is not own))


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


def test_no_dead_private_helpers():
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py"))}
    dead = _dead_private_helpers(modules)
    assert not dead, f"private helpers nothing in the package uses: {dead}"


def test_guard_sees_a_dead_helper():
    # _first_exit is left behind by a caller that stopped using it, and
    # _countdown is reached only from itself
    modules = {
        "tree_modules": ast.parse(
            "def _first_exit(p, s):\n    return max(q for q in p if s in q)\n"
            "def _exit_blocks(p):\n    return {}\n"
            "def stabilize(p):\n    return _exit_blocks(p)\n"),
        "coefficients": ast.parse(
            "def _countdown(n):\n    return _countdown(n - 1) if n else 0\n"
            "class _Smith:\n    pass\n"),
        "chains": ast.parse(
            "from .coefficients import _Smith\n"
            "def f(m):\n    return _Smith(m)\n"),
    }
    assert _dead_private_helpers(modules) == [("coefficients", "_countdown"),
                                              ("tree_modules", "_first_exit")]
