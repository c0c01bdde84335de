"""Cap-product duality verdicts, positive and negative.

Expected verdicts are the ones topology forces: every closed or bounded
manifold in the catalog is a Poincaré space in its own orientation
system, the wedge of a circle and a sphere is not, twice a fundamental
class misses every generator, and the duality ladder of a pair commutes.
Degree-one maps are exercised on the identity of the torus and on the
collapse of the torus onto the sphere, whose surgery kernel is Z^2 in
degree one.
"""

import json

import pytest

from propalg.coefficients import GroupSpec
from propalg.corpus import (
    SPACES,
    circle,
    circle_voltage,
    sphere2,
    torus7,
    torus_grid,
    torus_voltage,
)
import propalg.duality_verifier as dv
import propalg.simplicial_products as sp
from propalg.duality_verifier import (
    DualityReport,
    alternate_diagonal_agrees,
    browder_check,
    duality_torsion,
    fundamental_class,
    gluing_check,
    poincare_check,
    surgery_kernel_check,
    torsion_involution_relation,
)
from propalg.chains import cohomology_presentation, homology_presentation
from propalg.coefficients import _Smith, rmat_to_int
from propalg.simplicial_products import (
    Chain,
    Cochain,
    SimplicialSpace,
    _closure,
    _coh,
    _hom,
    boundary_complex,
    cap,
    cycle_class,
)
from test_chains import factored  # noqa: F401  (a fixture)

# vertex map torus7 -> sphere2 that collapses the torus onto the sphere
# with degree one
TORUS_COLLAPSE = (0, 0, 0, 1, 0, 2, 3)

SPHERE_LEFT = _closure([(0, 1, 2), (0, 1, 3)])
SPHERE_RIGHT = _closure([(0, 2, 3), (1, 2, 3)])


def classed_spaces():
    """(name, twisted) for every catalog space with a fundamental class."""
    out = []
    for name, make in SPACES.items():
        X = make()
        for tw in ((False, True) if X.character else (False,)):
            if fundamental_class(X, twisted=tw) is not None:
                out.append((name, tw))
    return out


CLASSED = classed_spaces()


def test_catalog_classes_are_the_expected_ones():
    names = {f"{n}{'+tw' if tw else ''}" for n, tw in CLASSED}
    assert {"sphere", "torus7", "torus-grid", "annulus", "disk-pair",
            "rp2-twisted+tw", "klein-twisted+tw", "moebius-twisted+tw"} <= names
    # non-orientable spaces carry no untwisted class
    assert "rp2" not in names and "klein" not in names and "moebius" not in names


@pytest.mark.parametrize("name,twisted", CLASSED)
def test_poincare_passes_on_catalog_except_wedge(name, twisted):
    X = SPACES[name]()
    z = fundamental_class(X, twisted=twisted)
    report = poincare_check(X, z)
    expected = "FAIL" if name == "wedge" else "PASS"
    assert report.verdict == expected
    assert report.ok == (expected == "PASS")
    assert bool(report.witnesses) == (expected == "FAIL")
    assert all(c["iso"] for c in report.checks) == (expected == "PASS")


@pytest.mark.parametrize("name,twisted", CLASSED)
def test_alternate_diagonal_agrees_on_catalog(name, twisted):
    X = SPACES[name]()
    z = fundamental_class(X, twisted=twisted)
    out = alternate_diagonal_agrees(X, z)
    assert out["agree"] is True
    assert out["failures"] == []
    n = X.dim()
    assert out["checked"] == (n + 1) * 2 * (2 if X.character else 1)


def test_wedge_witness_names_a_class():
    X = SPACES["wedge"]()
    report = poincare_check(X, fundamental_class(X))
    assert report.verdict == "FAIL"
    for w in report.witnesses:
        assert w["kind"] in ("kernel", "cokernel")
        assert w["class"] and w["representative"]


@pytest.mark.parametrize("name", ["disk-pair", "annulus", "moebius-twisted"])
def test_browder_passes(name):
    X = SPACES[name]()
    z = fundamental_class(X, twisted=bool(X.character))
    out = browder_check(X, z)
    assert out["verdict"] == "PASS"
    assert all(s["commutes"] for s in out["squares"])
    assert all(b["iso"] for b in out["boundary_duality"])
    fams = 2 if X.character else 1
    assert len(out["squares"]) == 3 * (X.dim() + 1) * fams


@pytest.mark.parametrize("name, failing", [("disk-pair", 2), ("annulus", 2), ("moebius-twisted", 4)])
def test_browder_twice_the_class_fails_with_rechecked_witnesses(name, failing):
    # cap with twice the boundary class multiplies by 2, so boundary duality
    # misses a class in every degree and family; each witness is re-checked
    # here by capping every cocycle of the boundary directly
    X = SPACES[name]()
    z = fundamental_class(X, twisted=bool(X.character)).scale(2)
    out = browder_check(X, z)
    bad = [b for b in out["boundary_duality"] if not b["iso"]]
    assert out["verdict"] == "FAIL" and len(bad) == failing
    assert all("witness" not in b for b in out["boundary_duality"] if b["iso"])
    n, A = X.dim(), dv.boundary_space(X)
    zA = Chain(A, n - 1, z.boundary().coeffs, twisted=z.twisted).scale(-1 if (n - 1) % 2 else 1)
    for b in bad:
        w, q = b["witness"], b["degree"]
        ctw = b["cochains"] == "twisted"
        rtw = ctw != z.twisted
        assert w["kind"] == "cokernel"
        rep = Chain(A, n - q - 1, w["representative"], twisted=rtw)
        assert rep.is_cycle()
        H, _, solve = homology_presentation(boundary_complex(A, twisted=rtw), n - q - 1)
        coords = solve(rep.vector())
        assert list(H.canon(coords)) == w["class"] and not H.element_is_zero(coords)
        G, cocycles, _ = cohomology_presentation(boundary_complex(A, twisted=ctw), q)
        images = [cap(Cochain.from_vector(A, q, cocycles[j], twisted=ctw), zA).vector()
                  for j in range(G.ngens)]
        dA = rmat_to_int(boundary_complex(A, twisted=rtw).boundary(n - q))
        rows = len(A.simplices_of(n - q - 1))
        cols = images + [[row[j] for row in dA] for j in range(len(A.simplices_of(n - q)))]
        M = [[col[i] for col in cols] for i in range(rows)]
        assert _Smith(M, rows, len(cols)).solve(rep.vector()) is None


@pytest.mark.parametrize("name, builds", [("annulus", 10), ("klein-twisted", 20)])
def test_browder_builds_each_cap_map_once(monkeypatch, name, builds):
    # per degree and family: relative, absolute and boundary cap maps, and
    # the relative one a degree up, which the next degree reuses
    X = SPACES[name]()
    z = fundamental_class(X, twisted=bool(X.character))
    seen, real = [], dv._cap_matrix
    monkeypatch.setattr(dv, "_cap_matrix", lambda *args: seen.append(args) or real(*args))
    assert browder_check(X, z).ok
    assert len(seen) == builds
    assert len({(c.space, c.degree, q, ctw, rel) for c, q, ctw, rel, *_ in seen}) == builds


def test_a_failing_browder_report_with_a_witness_chain_serializes():
    # json encodes a dict subclass as a plain dict, so the witness chain
    # (keyed by simplex tuples) goes to JSON only through to_json
    X = SPACES["disk-pair"]()
    r = browder_check(X, fundamental_class(X).scale(2))
    assert r.verdict == "FAIL"
    data = json.loads(json.dumps(r.to_json()))
    witnesses = [b["witness"] for b in data["boundary_duality"] if not b["iso"]]
    assert len(witnesses) == 2
    assert all(w["representative"] and all(len(p) == 2 for p in w["representative"]) for w in witnesses)


def test_alternate_diagonal_catches_a_broken_diagonal(monkeypatch):
    # twice the reversed-order cap is no diagonal; the named generator's
    # two images differ by the reported class
    T = torus7()
    z = fundamental_class(T)
    real, entries = dv.cap_opposite, sp._cap_entries

    def doubled(z, p, ctw, opposite=False):
        return ((s, t, 2 * c if opposite else c) for s, t, c in entries(z, p, ctw, opposite))

    monkeypatch.setattr(sp, "_cap_entries", doubled)
    out = alternate_diagonal_agrees(T, z)
    monkeypatch.undo()
    assert out["agree"] is False and out["failures"]
    for f in out["failures"]:
        q, j = f["degree"], f["generator"]
        _, cocycles, _, _ = _coh(T, q, False)
        H, _, solve, _ = _hom(T, 2 - q, False)
        u = Cochain.from_vector(T, q, cocycles[j])
        coords = solve((cap(u, z) - real(u, z).scale(2)).vector())
        assert list(H.canon(coords)) == f["difference"] and not H.element_is_zero(coords)


@pytest.mark.parametrize("name, tw", CLASSED, ids=[f"{n}{'+tw' if tw else ''}" for n, tw in CLASSED])
def test_cap_matrices_match_capping_each_generator(name, tw):
    # the reference pushes each lattice generator through the public cap
    # or cap_opposite, reads the chain on the target cells and solves
    X = SPACES[name]()
    z = fundamental_class(X, twisted=tw)
    for q in range(X.dim() + 1):
        for _, ctw in dv._families(X):
            for rel_src in (True, False):
                for diagonal in (cap, dv.cap_opposite):
                    mat, src, tgt = sp._cap_matrix(z, q, ctw, rel_src, diagonal is dv.cap_opposite)
                    G, lat, _, cells = src
                    H, _, solve, tcells = tgt
                    # the matrix by columns, one per generator of the source
                    assert len(mat) == G.ngens and all(len(col) == H.ngens for col in mat)
                    for j in range(G.ngens):
                        u = Cochain(X, q, dict(zip(cells, lat[j])), twisted=ctw)
                        image = diagonal(u, z).coeffs
                        assert solve([image.get(s, 0) for s in tcells]) == mat[j]


@pytest.fixture
def built(monkeypatch):
    """(space, twisted, rel) of every boundary complex built, in order."""
    seen, real = [], sp.boundary_complex

    def counting(K, twisted=False, rel=False):
        seen.append((K, twisted, rel))
        return real(K, twisted=twisted, rel=rel)

    monkeypatch.setattr(sp, "boundary_complex", counting)
    return seen


def test_gluing_presents_each_space_once(built):
    # the union, the two pieces and the interface each build a complex
    # once, and the union's is the one its fundamental class was read off
    S = sphere2()
    z = fundamental_class(S)
    assert gluing_check(S, SPHERE_LEFT, SPHERE_RIGHT, z)["verdict"] == "PASS"
    assert len(built) == len(set(built))
    assert len({K for K, _, _ in built}) == 4


def test_gluing_sphere_from_two_disks():
    S = sphere2()
    out = gluing_check(S, SPHERE_LEFT, SPHERE_RIGHT, fundamental_class(S))
    assert out["verdict"] == "PASS"
    assert out["pieces"] == {"left": "PASS", "right": "PASS", "total": "PASS"}
    assert out["two_of_three"] == "consistent"
    assert out["ladder"]["exact"] and out["ladder"]["checked"] > 0
    assert out["interface"]["dimension"] == 1


def test_gluing_twice_the_class_fails_on_every_piece_with_rechecked_witnesses():
    # capping with 2z doubles Z -> Z at both ends of each duality, so all
    # three verdicts fail together, which gluing theory allows; the ladder
    # does not involve z and stays exact
    S = sphere2()
    out = gluing_check(S, SPHERE_LEFT, SPHERE_RIGHT, fundamental_class(S).scale(2))
    assert out.verdict == "FAIL"
    assert out.pieces == {"left": "FAIL", "right": "FAIL", "total": "FAIL"}
    assert out.two_of_three == "consistent"
    assert out.ladder["exact"] and not out.ladder["failures"]
    interface = SPHERE_LEFT & SPHERE_RIGHT
    pieces = {"left": SimplicialSpace(S.n, SPHERE_LEFT, interface),
              "right": SimplicialSpace(S.n, SPHERE_RIGHT, interface), "total": S}
    counts = {"left": 2, "right": 2, "total": 4}
    for name, X in pieces.items():
        rep = out.reports[name]
        assert rep.verdict == "FAIL" and len(rep.witnesses) == counts[name]
        for w in rep.witnesses:
            # a cokernel class of H^q -> H_{n-q}: relative exactly when the
            # cochains are absolute
            assert w["kind"] == "cokernel"
            c = Chain(X, 2 - w["degree"], w["representative"])
            assert all(s in X.sub for s in c.boundary().coeffs)
            rel = w["direction"] == "absolute-cochain"
            assert list(cycle_class(c, rel=rel)[1]) == w["class"]


def test_gluing_piece_not_closed_raises():
    S = sphere2()
    with pytest.raises(ValueError, match="not closed"):
        gluing_check(S, [(0, 1, 2)], SPHERE_RIGHT, fundamental_class(S))


def test_surgery_identity_of_torus():
    T = torus7()
    out = surgery_kernel_check(T, T, list(range(T.n)))
    assert out["verdict"] == "PASS"
    assert out["degree_one"] is True
    assert all(g == {"free": 0, "torsion": []} for g in out["kernels"].values())
    assert all(s["section"] and s["retraction"] for s in out["splittings"])
    assert all(c["iso"] for c in out["cap_iso"])


def test_surgery_on_an_equal_copy_builds_each_complex_once(built):
    # equal spaces hash alike, so a complex built for both would repeat
    T = torus7()
    copy = SimplicialSpace.from_json(T.to_json())
    assert copy == T and copy is not T
    assert surgery_kernel_check(T, copy, list(range(T.n)))["verdict"] == "PASS"
    assert built and len(built) == len(set(built))


def test_asking_again_factors_no_boundary(factored):
    # the second check reads every presentation from the space's memo, so
    # it factors only the cap maps it decides, each as [F' | moduli]: the
    # map in Smith coordinates, one row per Smith coordinate of its target
    X = SPACES["klein-twisted"]()
    z = fundamental_class(X, twisted=True)
    first = poincare_check(X, z)
    n = len(factored)
    again = poincare_check(X, z)
    second = factored[n:]
    assert again.to_json() == first.to_json()
    assert len(second) == len(again.checks) < n
    assert set(second) <= set(factored[:n])
    for (rows, _, _), check in zip(second, again.checks):
        assert rows <= check["target"]["free"] + len(check["target"]["torsion"])


def test_a_space_and_its_json_copy_give_identical_reports():
    for name, twisted in CLASSED:
        X = SPACES[name]()
        Y = SimplicialSpace.from_json(X.to_json())
        zX, zY = (fundamental_class(K, twisted=twisted) for K in (X, Y))
        got = [json.dumps(poincare_check(K, z).to_json()) for K, z in ((X, zX), (Y, zY))]
        assert got[0] == got[1], (name, twisted)


def test_a_filled_memo_changes_no_hash_or_equality(built):
    X = SPACES["annulus"]()
    Y = SimplicialSpace.from_json(X.to_json())
    h = hash(X)
    assert browder_check(X, fundamental_class(X)).ok
    assert {K for K, _, _ in built} == {X, dv.boundary_space(X)}
    assert hash(X) == h == hash(Y)
    assert X == Y and X.key() == Y.key() and X.to_json() == Y.to_json()


def test_surgery_torus_collapse_has_kernel_in_degree_one():
    T, S = torus7(), sphere2()
    out = surgery_kernel_check(T, S, TORUS_COLLAPSE)
    assert out["verdict"] == "PASS"
    assert out["kernels"][1] == {"free": 2, "torsion": []}
    assert out["cokernels"][1] == {"free": 2, "torsion": []}
    assert out["kernels"][0] == out["kernels"][2] == {"free": 0, "torsion": []}
    assert all(c["iso"] for c in out["cap_iso"])


def test_constant_map_is_not_degree_one():
    T = torus7()
    with pytest.raises(ValueError, match="not a degree-one map"):
        surgery_kernel_check(T, T, [0] * T.n)


def test_twice_the_class_fails_with_cokernel_witnesses():
    T = torus7()
    report = poincare_check(T, fundamental_class(T).scale(2))
    assert report.verdict == "FAIL"
    assert report.witnesses
    assert all(w["kind"] == "cokernel" for w in report.witnesses)
    assert all(w["class"] and w["representative"] for w in report.witnesses)


def test_not_a_relative_cycle_raises():
    T = torus7()
    z = fundamental_class(T)
    broken = z + Chain(T, 2, {next(iter(z.coeffs)): 1})
    with pytest.raises(ValueError, match="not a relative cycle"):
        poincare_check(T, broken)


def test_duality_torsion_over_cyclic_ring_is_trivial():
    X = circle(4)
    z = fundamental_class(X)
    ring = GroupSpec("cyclic", 5)
    tau = duality_torsion(X, z, ring, circle_voltage(4))
    assert tau.is_trivial()
    assert torsion_involution_relation(tau, 1)
    report = poincare_check(X, z, ring, circle_voltage(4))
    assert report.torsion is not None and report.torsion.is_trivial()


def test_poincare_check_with_torsion_checks_duality_once(monkeypatch):
    calls = []
    real = dv.poincare_check

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dv, "poincare_check", counting)
    X = circle(4)
    report = dv.poincare_check(X, fundamental_class(X), GroupSpec("cyclic", 5), circle_voltage(4))
    assert report.torsion is not None and report.torsion.is_trivial()
    assert len(calls) == 1


def test_trivial_torus_torsion_prints_det_one():
    X = torus_grid(3)
    tau = duality_torsion(X, fundamental_class(X), GroupSpec("cyclic", 5), torus_voltage(3))
    assert tau.is_trivial()
    assert repr(tau) == "K1Class(det=1)"


def test_duality_torsion_rejects_twisted_class():
    X = SPACES["rp2-twisted"]()
    with pytest.raises(ValueError, match="untwisted class"):
        duality_torsion(X, fundamental_class(X, twisted=True), GroupSpec("cyclic", 2))


def test_relative_cycle_classes_read_the_relative_basis():
    # each edge of the annulus that runs between boundary vertices is a
    # relative cycle; its class must be read on the relative basis
    X = SPACES["annulus"]()
    G, _, solve = homology_presentation(boundary_complex(X, rel=True), 1)
    rel_basis = [s for s in X.simplices_of(1) if s not in X.sub]
    checked = 0
    for e in rel_basis:
        c = Chain(X, 1, {e: 1})
        if all(f in X.sub for f in c.boundary().coeffs):
            want = G.canon(solve([1 if s == e else 0 for s in rel_basis]))
            assert cycle_class(c, rel=True) == (G, want)
            checked += 1
    assert checked >= 3
    z = fundamental_class(X)
    H, coords = cycle_class(z, rel=True)
    assert H.invariants() == (1, ()) and coords in ((1,), (-1,))


def _reports_json():
    T, S = torus7(), sphere2()
    K = SPACES["rp2-twisted"]()
    zK = fundamental_class(K, twisted=True)
    return json.dumps([r.to_json() for r in (
        poincare_check(K, zK),
        poincare_check(T, fundamental_class(T).scale(2)),
        alternate_diagonal_agrees(K, zK),
        browder_check(K, zK),
        surgery_kernel_check(T, S, TORUS_COLLAPSE),
    )])


def test_to_json_is_byte_identical_across_runs():
    assert _reports_json() == _reports_json()


def test_report_json_shape():
    T = torus7()
    report = poincare_check(T, fundamental_class(T))
    assert isinstance(report, DualityReport)
    data = report.to_json()
    assert list(data) == ["kind", "dimension", "verdict", "checks", "witnesses", "details"]
    assert data["kind"] == "poincare" and data["dimension"] == 2
    assert len(data["checks"]) == 6
