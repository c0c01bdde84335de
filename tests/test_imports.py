"""No propalg module keeps names that nothing uses.

Every name a module imports from a sibling module is used there, every
top-level private function or class is referenced somewhere in the
package outside its own definition, and every top-level public function
and every public method of a top-level class is referenced somewhere in
the package, the tests or the benchmark outside its own definition.  A
deletion that leaves its imports or helpers behind keeps the old code
reachable and hides that it has no caller left.  No linter is assumed:
the modules are parsed with ast.  The package's __init__ re-exports what
it imports, so a name listed in a module's __all__ counts as used.  Tests
do not count as callers of a private helper.  Every console script that
pyproject.toml declares must import.  Every public function of
coefficients is read in the package itself or named by a per-layer
metric of BENCHMARK.json; a public twin that only tests read is deleted
and its tests read the private function it wraps.  Only coefficients names
smith_normal_form, and _Smith.__init__ is its only call site, so every
factorization goes through its one reader, coefficients._Smith, which
replays the factors from the logged steps, and through the public name
the benchmark's tracer wraps; the package's __init__ only re-exports it.
A space's memo of boundary complexes, SimplicialSpace._complexes, is made
in SimplicialSpace.__init__ and read or filled only by
simplicial_products._complex, so no reader can skip its key rule.  Every
induced map reaches homology through simplicial_products._ChainFamily: no
module defines, imports or calls the full-matrix route _induced_by (the
older guard on what it was handed finds no call), and only
endtowers.tower_homology and duality_verifier.surgery_kernel_check push
an integer matrix through coefficients._induced.  A map
is checked relation by relation (coefficients._require_hom) only at the
public edge, where a caller hands in a matrix: hom_decompose, and
endtowers._check_hom, which only Tower.__init__ and exactness_check call;
a map made inside the package is checked where it is made.  No
function reads one column out of a matrix held as a list of rows with a
comprehension, as [row[j] for row in M] or [M[i][j] for i in ...] do:
inside the package an integer matrix is a list of columns, and a row
list at the public edge is turned over whole by coefficients._transposed.
Every elimination on trivial units +-g^k runs coefficients._eliminate: only
_eliminate calls _unit_pivot, and only _unit_pivot calls
_trivial_unit_inverse, so no module searches for unit pivots on its own.
A matrix over a group ring is held as sparse rows inside the package, so
no module defines or imports a dense ring-list helper, a name beginning
rmat_.  No two modules define a top-level function of the same name, so
no helper is written out twice.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "propalg"


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


def _unread(defined, readers, units=lambda tree: tree.body):
    """(owner, name) of each (owner, definition) pair nothing in readers reads.

    readers are parsed trees, and units splits a tree into the pieces
    whose references are collected apart; a reference inside the piece
    that is the definition itself (recursion) does not count.
    """
    uses = [(node, _referenced(node)) for tree in readers for node in units(tree)]
    return sorted((mod, own.name) for mod, own in defined
                  if not any(own.name in names for node, names in uses if node is not own))


def _dead_private_helpers(modules):
    """(module, name) of each top-level _name def or class nothing else reads.

    modules maps a module name to its parsed tree.
    """
    defined = [(mod, node) for mod, tree in modules.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    return _unread(defined, modules.values())


def _dead_public_functions(modules, readers):
    """(module, name) of each top-level public function that no reader reads.

    modules maps a module name to its parsed tree; readers are parsed
    trees of the package, the tests and the benchmark, the package's own
    trees included.
    """
    defined = [(mod, node) for mod, tree in modules.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")]
    return _unread(defined, readers)


def _class_members(tree):
    """Top-level statements, each class replaced by the statements of its body."""
    for node in tree.body:
        yield from node.body if isinstance(node, ast.ClassDef) else (node,)


def _dead_public_methods(modules, readers):
    """(class, name) of each public method of a top-level class that no reader reads.

    Methods are matched by name alone, without the type of the object they
    are read on, so a method that shares its name with any attribute read
    anywhere (say, index with list.index) counts as read.
    """
    defined = [(cls.name, node) for tree in modules.values() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")]
    return _unread(defined, readers, _class_members)


def _parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


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
    modules = {path.stem: _parsed(path) for path in sorted(SRC.glob("*.py"))}
    dead = _dead_private_helpers(modules)
    assert not dead, f"private helpers nothing in the package uses: {dead}"


def _package_and_readers():
    modules = {path.stem: _parsed(path) for path in sorted(SRC.glob("*.py"))}
    others = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return modules, [*modules.values(), *map(_parsed, others)]


def test_no_dead_public_functions():
    dead = _dead_public_functions(*_package_and_readers())
    assert not dead, f"public functions nothing in the package, tests or benchmark uses: {dead}"


def test_no_dead_public_methods():
    dead = _dead_public_methods(*_package_and_readers())
    assert not dead, f"public methods nothing in the package, tests or benchmark uses: {dead}"


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


def test_guard_sees_a_dead_public_function():
    # pullback_cochain is read only by itself; a test reads cap by name and
    # the benchmark reads transfer as an attribute
    package = ast.parse(
        "def pullback_cochain(cov, u):\n    return pullback_cochain(cov, u)\n"
        "def cap(u, z):\n    return z\n"
        "def transfer(cov, x):\n    return x\n")
    test = ast.parse("from propalg.simplicial_products import cap\n"
                     "def test_cap():\n    assert cap(1, 2) == 2\n")
    bench = ast.parse("from propalg import simplicial_products as sp\nsp.transfer(None, 3)\n")
    modules = {"simplicial_products": package}
    assert _dead_public_functions(modules, [package, test, bench]) == [
        ("simplicial_products", "pullback_cochain")]
    assert _dead_public_functions(modules, [package]) == [
        ("simplicial_products", "cap"), ("simplicial_products", "pullback_cochain"),
        ("simplicial_products", "transfer")]


def _metric_functions(benchmark):
    """(module, name) of each function a per-layer metric of a BENCHMARK.json names.

    A metric reads module.function.quantity or module.Class.method.quantity,
    so its first two parts are kept.
    """
    return {tuple(metric["name"].split(".")[:2]) for metric in benchmark["per_layer"]}


def _read_only_by_tests(modules, metrics):
    """Public functions of coefficients that the package never reads and no metric names.

    modules maps each module name of the package to its parsed tree.
    """
    dead = _dead_public_functions({"coefficients": modules["coefficients"]}, modules.values())
    return [name for mod, name in dead if (mod, name) not in metrics]


def test_coefficients_keeps_no_public_function_for_tests_alone():
    modules = {path.stem: _parsed(path) for path in sorted(SRC.glob("*.py"))}
    metrics = _metric_functions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    dead = _read_only_by_tests(modules, metrics)
    assert not dead, f"coefficients functions that only tests read: {dead}"


def test_guard_sees_a_public_function_only_tests_read():
    # solve_int and rmat_add are read by nothing in the package, and a
    # metric names ring_solve_multi; snf_solver and ring_det are read by
    # sibling functions, det_unit_class by another module
    coefficients = ast.parse(
        "def solve_int(m, b):\n    return snf_solver(m)(b)\n"
        "def rmat_add(A, B):\n    return rmat_add(A, B)\n"
        "def snf_solver(m):\n    return m\n"
        "def ring_solve_multi(R, s, e):\n    return None\n"
        "def ring_det(R, A):\n    return 1\n"
        "def det_unit_class(R, A):\n    return ring_det(R, A)\n"
        "class GroupRingElt:\n    def mul(self, o):\n        return o\n")
    chains = ast.parse("from .coefficients import det_unit_class\n"
                       "def f(A):\n    return det_unit_class(None, A)\n")
    modules = {"coefficients": coefficients, "chains": chains}
    benchmark = {"per_layer": [{"name": "coefficients.ring_solve_multi.calls"},
                               {"name": "coefficients.GroupRingElt.mul.calls"},
                               {"name": "trace.overhead_ratio"}]}
    metrics = _metric_functions(benchmark)
    assert metrics == {("coefficients", "ring_solve_multi"), ("coefficients", "GroupRingElt"),
                       ("trace", "overhead_ratio")}
    assert _read_only_by_tests(modules, metrics) == ["rmat_add", "solve_int"]
    assert _read_only_by_tests(modules, set()) == ["ring_solve_multi", "rmat_add", "solve_int"]


def test_guard_sees_a_dead_public_method():
    # support is read by nobody, aug_sign only by itself, terms by a
    # sibling method, to_json by the test and the inherited vector by the
    # benchmark
    package = ast.parse(
        "class GroupRingElt:\n"
        "    def terms(self):\n        return {}\n"
        "    def support(self):\n        return sorted(self.terms())\n"
        "    def to_json(self):\n        return []\n"
        "class K1Class:\n"
        "    def aug_sign(self):\n        return self.aug_sign()\n"
        "class _Cells:\n"
        "    def vector(self):\n        return []\n")
    test = ast.parse("def test_json(x):\n    assert x.to_json() == []\n")
    bench = ast.parse("from propalg import simplicial_products as sp\n"
                      "sp.Chain(None, 0).vector()\n")
    modules = {"coefficients": package}
    assert _dead_public_methods(modules, [package, test, bench]) == [
        ("GroupRingElt", "support"), ("K1Class", "aug_sign")]
    assert _dead_public_methods(modules, [package]) == [
        ("GroupRingElt", "support"), ("GroupRingElt", "to_json"),
        ("K1Class", "aug_sign"), ("_Cells", "vector")]


def _lines_naming(tree, name):
    """Line numbers where a tree imports a name or reads it, bare or as an attribute."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(name in (alias.name, alias.asname) for alias in node.names):
                lines.add(node.lineno)
        elif (isinstance(node, ast.Name) and node.id == name) or \
                (isinstance(node, ast.Attribute) and node.attr == name):
            lines.add(node.lineno)
    return sorted(lines)


def test_only_coefficients_names_smith_normal_form():
    others = {path.name: _lines_naming(_parsed(path), "smith_normal_form")
              for path in sorted(SRC.glob("*.py"))
              if path.name not in ("coefficients.py", "__init__.py")}
    named = {name: lines for name, lines in others.items() if lines}
    assert not named, f"smith_normal_form named outside coefficients (module: lines): {named}"


def test_guard_sees_a_second_smith_reader():
    tree = ast.parse("from .coefficients import imat_eye, smith_normal_form as snf\n"
                     "from . import coefficients\n"
                     "def f(d):\n    return coefficients.smith_normal_form(d)\n")
    assert _lines_naming(tree, "smith_normal_form") == [1, 4]
    assert _lines_naming(ast.parse("def f(d):\n    return _Smith(d)\n"), "smith_normal_form") == []


def _sites(tree, hit):
    """Dotted names of the scopes in a tree holding a node that hit accepts, one per node.

    A node at module level is listed as "<module>".
    """
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif hit(child):
                sites.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return sites


def _call_sites(tree, name):
    """Dotted names of the scopes in a tree that call name, bare or as an attribute."""
    return _sites(tree, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def _attribute_sites(tree, attr):
    """Dotted names of the scopes in a tree that read, write or delete an attribute."""
    return _sites(tree, lambda node: isinstance(node, ast.Attribute) and node.attr == attr)


def test_only_smith_init_calls_smith_normal_form():
    sites = [(path.name, site) for path in sorted(SRC.glob("*.py"))
             for site in _call_sites(_parsed(path), "smith_normal_form")]
    assert sites == [("coefficients.py", "_Smith.__init__")]


def test_guard_sees_a_second_smith_call_site():
    # snf_diagonal factoring on its own would bypass _Smith's replays
    tree = ast.parse("class _Smith:\n"
                     "    def __init__(self, m):\n        self.d = smith_normal_form(m)[0]\n"
                     "def snf_diagonal(m):\n    return coefficients.smith_normal_form(m)[0]\n"
                     "D = smith_normal_form([[2]])\n")
    assert _call_sites(tree, "smith_normal_form") == ["_Smith.__init__", "snf_diagonal", "<module>"]
    assert _call_sites(ast.parse("def f(d):\n    return _Smith(d)\n"), "smith_normal_form") == []


def test_one_kernel_eliminates_on_trivial_units():
    sites = {name: [(path.name, site) for path in sorted(SRC.glob("*.py"))
                    for site in _call_sites(_parsed(path), name)]
             for name in ("_unit_pivot", "_trivial_unit_inverse")}
    assert sites == {"_unit_pivot": [("coefficients.py", "_eliminate")],
                     "_trivial_unit_inverse": [("coefficients.py", "_unit_pivot")]}


def test_guard_sees_a_second_unit_pivot_search():
    # a pairing that looks for trivial units itself would bypass _eliminate
    tree = ast.parse("def _eliminate(rows, rhs):\n    return _unit_pivot(rows)\n"
                     "def _unit_pairing(C):\n"
                     "    return [_trivial_unit_inverse(x) for x in C]\n"
                     "def _core(rows):\n    while coefficients._unit_pivot(rows):\n        pass\n")
    assert _call_sites(tree, "_unit_pivot") == ["_eliminate", "_core"]
    assert _call_sites(tree, "_trivial_unit_inverse") == ["_unit_pairing"]


def test_only_complex_reads_the_space_memo():
    sites = {(path.name, site) for path in sorted(SRC.glob("*.py"))
             for site in _attribute_sites(_parsed(path), "_complexes")}
    assert sites == {("simplicial_products.py", "SimplicialSpace.__init__"),
                     ("simplicial_products.py", "_complex")}


def test_guard_sees_a_second_memo_reader():
    # _cached_hom reads the memo past _complex's key rule, clear writes it,
    # and a module-level del drops it
    tree = ast.parse("class SimplicialSpace:\n"
                     "    def __init__(self):\n        self._complexes = {}\n"
                     "    def clear(self):\n        self._complexes = {}\n"
                     "def _complex(X, tw, rel):\n    return X._complexes[tw, rel]\n"
                     "def _cached_hom(X, q):\n    return X._complexes.get((False, False))\n"
                     "del X._complexes\n")
    assert _attribute_sites(tree, "_complexes") == [
        "SimplicialSpace.__init__", "SimplicialSpace.clear", "_complex", "_cached_hom", "<module>"]
    assert _attribute_sites(ast.parse("__slots__ = ('_complexes',)\n"), "_complexes") == []


def _relative_cell_sites(tree):
    """Scopes holding a comprehension over simplices_of(...) that filters on .sub."""
    def filters_on_sub(gen):
        return (isinstance(gen.iter, ast.Call) and "simplices_of" in (
                    getattr(gen.iter.func, "id", None), getattr(gen.iter.func, "attr", None))
                and any(isinstance(a, ast.Attribute) and a.attr == "sub"
                        for cond in gen.ifs for a in ast.walk(cond)))

    return _sites(tree, lambda node: isinstance(
        node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp))
        and any(map(filters_on_sub, node.generators)))


def test_only_basis_decides_the_relative_cells():
    sites = [(path.name, site) for path in sorted(SRC.glob("*.py"))
             for site in _relative_cell_sites(_parsed(path))]
    assert sites == [("simplicial_products.py", "_basis")]


def test_guard_sees_a_second_relative_cell_rule():
    # a walk, a generator and a set each spelling the rule out again
    tree = ast.parse("def _basis(X, q):\n    return [s for s in X.simplices_of(q) if s not in X.sub]\n"
                     "def _walk(K, q, rel):\n"
                     "    return [s for s in K.simplices_of(q) if not (rel and s in K.sub)]\n"
                     "class T:\n    def cols(self, K):\n"
                     "        return list(s for s in K.simplices_of(2) if s not in K.sub)\n"
                     "TOP = {s for s in simplices_of(X, 2) if s not in X.sub}\n")
    assert _relative_cell_sites(tree) == ["_basis", "_walk", "T.cols", "<module>"]
    assert _relative_cell_sites(ast.parse(
        "rows = [s for s in K.simplices_of(1) if s in K.simplices]\n"
        "subs = [s for s in K.sub if s in K.simplices_of(1)]\n")) == []


def _callable_pushes(tree):
    """Scopes in a tree passing _induced_by a lambda or a function defined in the tree.

    A function is defined by def or by binding a lambda to a name, in any
    scope; the second argument of the call is the one looked at.
    """
    local = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    local |= {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Lambda) for t in node.targets if isinstance(t, ast.Name)}

    def callable_push(node):
        if not (isinstance(node, ast.Call) and "_induced_by" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))):
            return False
        push = node.args[1] if len(node.args) > 1 else None
        return isinstance(push, ast.Lambda) or (isinstance(push, ast.Name) and push.id in local)

    return _sites(tree, callable_push)


def test_induced_maps_come_from_entries():
    sites = [(path.name, site) for path in sorted(SRC.glob("*.py"))
             for site in _callable_pushes(_parsed(path))]
    assert not sites, f"_induced_by handed a function, not entries (module, scope): {sites}"


def test_guard_sees_a_function_handed_to_induced_by():
    # a lambda, a named lambda and a nested def are each a push; entries
    # from a generator, a call or a parameter are not
    tree = ast.parse("ident = lambda c: c\n"
                     "def ladder(g, h, entries):\n"
                     "    def bnd(c):\n        return c\n"
                     "    a = _induced_by(g, lambda c: c, h)\n"
                     "    b = sp._induced_by(g, ident, h)\n"
                     "    c = _induced_by(g, bnd, h)\n"
                     "    d = _induced_by(g, ((s, s, 1) for s in g[3]), h)\n"
                     "    return _induced_by(g, _inclusion(g[3]), h), _induced_by(g, entries, h)\n"
                     "M = _induced_by(g, lambda c: {}, h)\n")
    assert _callable_pushes(tree) == ["ladder", "ladder", "ladder", "<module>"]


def _definitions(tree, name):
    """Sorted line numbers where a tree defines name: by def or class, by binding it, or by import."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name)
                  or (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Store))
                  or (isinstance(node, ast.alias) and name in (node.name, node.asname)))


def test_one_route_from_chain_maps_to_homology():
    trees = {path.name: _parsed(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: _definitions(tree, "_induced_by") + _call_sites(tree, "_induced_by")
            for name, tree in trees.items()} == dict.fromkeys(trees, [])
    assert {(name, site) for name, tree in trees.items() for site in _call_sites(tree, "_induced")} == {
        ("endtowers.py", "tower_homology"), ("duality_verifier.py", "surgery_kernel_check")}


def test_guard_sees_a_second_route_to_homology():
    # an import, a def and a binding of _induced_by, a call of it as an
    # attribute, and calls of _induced outside the two readers
    tree = ast.parse("from .simplicial_products import _induced_by\n"
                     "def _induced_by(src, entries, tgt):\n    return _induced(src, entries, tgt)\n"
                     "class Ladder:\n"
                     "    def arrows(self, g, h):\n        return sp._induced_by(g, (), h), co._induced(g, [], h)\n"
                     "def surgery_kernel_check(M):\n    return _induced(M, [], M)\n"
                     "_induced_by = None\n")
    assert _definitions(tree, "_induced_by") == [1, 2, 9]
    assert _call_sites(tree, "_induced_by") == ["Ladder.arrows"]
    assert _call_sites(tree, "_induced") == ["_induced_by", "Ladder.arrows", "surgery_kernel_check"]
    assert _definitions(ast.parse("x = _induced_by_cells(g)\nimport _induced\n"), "_induced_by") == []


def test_only_the_public_edge_checks_relations():
    def sites(name):
        return {(path.name, site) for path in sorted(SRC.glob("*.py"))
                for site in _call_sites(_parsed(path), name)}

    assert sites("_require_hom") == {("coefficients.py", "hom_decompose"),
                                     ("endtowers.py", "_check_hom")}
    assert sites("_check_hom") == {("endtowers.py", "Tower.__init__"),
                                   ("endtowers.py", "exactness_check")}


def test_guard_sees_a_relation_check_inside_the_package():
    # every scope that calls it is listed, the edge's own included; an iso
    # decision, a tower method and a module-level call would fail the guard
    tree = ast.parse("def hom_decompose(F, a, b):\n    _require_hom(F, a, b)\n"
                     "def _reduced_iso(F, a, b):\n    co._require_hom(F, a, b)\n"
                     "class Tower:\n    def composite(self, F):\n        _require_hom(F, 1, 2)\n"
                     "    def __init__(self, M):\n        _check_hom(M, 1, 2, 'map')\n"
                     "_require_hom([[1]], G, G)\n")
    assert _call_sites(tree, "_require_hom") == ["hom_decompose", "_reduced_iso",
                                                 "Tower.composite", "<module>"]
    assert _call_sites(tree, "_check_hom") == ["Tower.__init__"]


def _script_targets(text):
    """(name, module, attribute) of each [project.scripts] entry of a pyproject.

    Parsed by hand, because tomllib needs Python 3.11: the table runs from
    its header to the next header, one `name = "module:attribute"` a line.
    """
    out, inside = [], False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            name, target = (part.strip().strip('"').strip("'") for part in line.split("=", 1))
            module, _, attr = target.partition(":")
            out.append((name, module.strip(), attr.strip()))
    return out


def test_guard_reads_the_scripts_table():
    text = ('[project]\nname = "x"\n\n[project.scripts]\n'
            'tool = "pkg.cli:main"  # entry\nother = \'pkg.more:run\'\n\n'
            '[tool.setuptools]\nzip = "no:way"\n')
    assert _script_targets(text) == [("tool", "pkg.cli", "main"), ("other", "pkg.more", "run")]


def test_declared_scripts_import():
    for name, module, attr in _script_targets((ROOT / "pyproject.toml").read_text()):
        assert callable(getattr(importlib.import_module(module), attr)), name


_COMPREHENSIONS = (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)


def _own_nodes(node):
    """node and the nodes below it, nested comprehensions left out."""
    if not isinstance(node, _COMPREHENSIONS):
        yield node
        for child in ast.iter_child_nodes(node):
            yield from _own_nodes(child)


def _reads_a_column(comp):
    """Does the element of a comprehension index each row it walks at one fixed column?

    A row is a name the comprehension binds whole, walking a matrix held in
    a name, attribute or subscript (for row in M) or walking zip (for o,
    row in zip(...)), or a subscript by an index it binds (M[i] for i in
    ...); the column is a name it does not bind.  Points drawn from a call,
    as itertools.product gives them, are no rows.
    """
    bound = {n.id for gen in comp.generators for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
    rows = {gen.target.id for gen in comp.generators if isinstance(gen.target, ast.Name)
            and isinstance(gen.iter, (ast.Name, ast.Attribute, ast.Subscript))}
    rows |= {n.id for gen in comp.generators if isinstance(gen.target, ast.Tuple)
             and isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "id", None) == "zip"
             for n in gen.target.elts if isinstance(n, ast.Name)}
    for node in _own_nodes(comp.value if isinstance(comp, ast.DictComp) else comp.elt):
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Name)
                and node.slice.id not in bound):
            row = node.value
            if (isinstance(row, ast.Name) and row.id in rows) or (
                    isinstance(row, ast.Subscript) and isinstance(row.slice, ast.Name)
                    and row.slice.id in bound):
                return True
    return False


def _column_read_sites(tree):
    """Scopes holding a comprehension that reads a column out of a row list."""
    return _sites(tree, lambda node: isinstance(node, _COMPREHENSIONS) and _reads_a_column(node))


def test_no_function_reads_a_column_out_of_a_row_list():
    sites = [(path.name, site) for path in sorted(SRC.glob("*.py"))
             for site in _column_read_sites(_parsed(path))]
    assert not sites, f"a column read out of a row list (module, scope): {sites}"


def test_guard_sees_a_column_read_out_of_a_row_list():
    # a column pulled out of each row, a column of a subscripted matrix, a
    # transpose, and a product that walks the rows in step with its output
    tree = ast.parse("def col(G, j):\n    return [row[j] for row in G.relations]\n"
                     "def gen(M, r, j):\n    return list(M[i][j] for i in range(r))\n"
                     "class T:\n    def flip(self, A, r, c):\n"
                     "        return [[A[i][j] for i in range(r)] for j in range(c)]\n"
                     "def vec(A, out, j, v):\n    return [o + row[j] * v for o, row in zip(out, A)]\n"
                     "DIAG = {i: M[i][k] for i in range(3)}\n")
    assert _column_read_sites(tree) == ["col", "gen", "T.flip", "vec", "<module>"]
    # rows read whole, indices bound by the comprehension, slices, fixed
    # positions and entries of pairs are no columns
    assert _column_read_sites(ast.parse(
        "a = [[B[t][j] for j in range(c)] for t in range(k)]\n"
        "b = [v[:n] for v in kernel]\n"
        "c = [s[0] for s in simplices]\n"
        "d = [lookup[x] for x in xs]\n"
        "e = [(s[q], c) for s, c in z.items()]\n"
        "f = [[x.involve() for x in col] for col in zip(*A)]\n"
        "g = {vid(p): p[axis] for p in itertools.product(range(n), repeat=2)}\n")) == []


def _dense_ring_names(tree):
    """(line, name) of each rmat_ name a module defines, assigns or imports."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names = [node.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [n for alias in node.names for n in (alias.name, alias.asname) if n]
        else:
            continue
        hits += [(node.lineno, n) for n in names if n.startswith("rmat_")]
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dense_ring_matrix_helpers(path):
    names = _dense_ring_names(_parsed(path))
    assert not names, f"{path.name}: dense ring-list helpers: {names}"


def test_guard_sees_a_dense_ring_matrix_helper():
    tree = ast.parse("from .coefficients import rmat_mul as mul\nfrom . import eye as rmat_eye\n"
                     "def rmat_zero(ring, r, c):\n    return []\nrmat_neg = mul\n")
    assert _dense_ring_names(tree) == [(1, "rmat_mul"), (2, "rmat_eye"), (3, "rmat_zero"), (5, "rmat_neg")]
    # reading such a name, or a name that only contains rmat_, defines nothing
    assert _dense_ring_names(ast.parse("from .chains import _rows\nM = rmat_eye(R, 2)\nx_rmat_y = 1\n")) == []


def _shared_function_names(modules):
    """{name: modules} for each top-level function defined in more than one module.

    modules maps a module name to its parsed tree; methods do not count.
    """
    owners = {}
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners.setdefault(node.name, []).append(mod)
    return {name: mods for name, mods in sorted(owners.items()) if len(mods) > 1}


def test_no_two_modules_define_one_function():
    modules = {path.stem: _parsed(path) for path in sorted(SRC.glob("*.py"))}
    shared = _shared_function_names(modules)
    assert not shared, f"top-level functions defined in more than one module: {shared}"


def test_guard_sees_a_function_defined_twice():
    modules = {"coefficients": ast.parse("def _perm_sign(perm):\n    return 1\n"
                                         "def _rows(M):\n    return M\n"),
               "simplicial_products": ast.parse("def _perm_sign(seq):\n    return -1\n"
                                                "class C:\n    def _rows(self, k):\n        return k\n")}
    assert _shared_function_names(modules) == {"_perm_sign": ["coefficients", "simplicial_products"]}
