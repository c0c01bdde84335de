"""Complex validation, homology, contractions, duals, tensor products."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

import propalg.chains as chains
import propalg.coefficients as co
from propalg.chains import (
    BasedComplex,
    ChainHomotopy,
    ChainMap,
    _contraction,
    change_of_rings,
    cohomology_presentation,
    complex_from_int,
    cone,
    direct_sum,
    dual_complex,
    find_contraction,
    homology_presentation,
    homology_Z,
    is_contraction_through,
    tensor,
    validate_complex,
)
from propalg.coefficients import (
    GroupSpec,
    ring_solve,
)
from dense_reference import (
    mat_vec,
    rmat_is_zero,
    rmat_mul,
    rmat_neg,
    rmat_sub,
    rmat_to_int,
    transpose,
)
from propalg.corpus import EQUIVARIANT, SPACES, klein_grid, rp2_6, torus7
from propalg.simplicial_products import barycentric, boundary_complex, space_cohomology
from propalg.torsion import _free_quotient_basis, torsion_with_homology
from test_coefficients import dense_ring_solve, snf_factors

Z = GroupSpec("trivial")
LAU = GroupSpec("infinite-cyclic")
C2 = GroupSpec("cyclic", 2)
C5 = GroupSpec("cyclic", 5)


def circle_Z():
    return complex_from_int(Z, {0: 1, 1: 1}, {1: [[0]]}, {0: ["v"], 1: ["e"]})


def sphere_Z():
    # boundary of the 3-simplex: 4 vertices, 6 edges, 4 triangles
    verts = [0, 1, 2, 3]
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    tris = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    d1 = [[0] * len(edges) for _ in verts]
    for j, (a, b) in enumerate(edges):
        d1[a][j] -= 1
        d1[b][j] += 1
    d2 = [[0] * len(tris) for _ in edges]
    eidx = {e: i for i, e in enumerate(edges)}
    for j, (a, b, c) in enumerate(tris):
        d2[eidx[(b, c)]][j] += 1
        d2[eidx[(a, c)]][j] -= 1
        d2[eidx[(a, b)]][j] += 1
    return complex_from_int(Z, {0: 4, 1: 6, 2: 4}, {1: d1, 2: d2})


def moore_Z2():
    # one cell in degrees 0..2, top boundary multiplies by 2
    return complex_from_int(Z, {0: 1, 1: 1, 2: 1}, {1: [[0]], 2: [[2]]})


def circle_cover():
    # chain complex of the line as a complex of modules over Z[t, 1/t]
    t = LAU.monomial(1)
    one = LAU.one()
    return BasedComplex(LAU, {0: 1, 1: 1}, {1: [[one - t]]})


def test_validate_complex():
    assert validate_complex(circle_Z())["valid"]
    assert validate_complex(sphere_Z())["valid"]
    bad = complex_from_int(Z, {0: 1, 1: 1, 2: 1}, {1: [[1]], 2: [[1]]})
    rep = validate_complex(bad)
    assert not rep["valid"]
    assert rep["degree"] == 2
    assert rep["entry"] == (0, 0)


def test_homology_frozen_tables():
    assert [homology_Z(circle_Z())[k].invariants() for k in (0, 1)] == [(1, ()), (1, ())]
    hs = homology_Z(sphere_Z())
    assert [hs[k].invariants() for k in (0, 1, 2)] == [(1, ()), (0, ()), (1, ())]
    hm = homology_Z(moore_Z2())
    assert [hm[k].invariants() for k in (0, 1, 2)] == [(1, ()), (0, (2,)), (0, ())]
    pt = complex_from_int(Z, {0: 1}, {})
    assert homology_Z(pt)[0].invariants() == (1, ())


def test_change_of_rings():
    C = circle_cover()
    aug = change_of_rings(C, "augmentation")
    assert aug.ring == Z
    assert homology_Z(aug)[0].invariants() == (1, ())
    assert homology_Z(aug)[1].invariants() == (1, ())
    ch = change_of_rings(C, "character")  # trivial character: same as augmentation
    assert homology_Z(ch)[1].invariants() == (1, ())
    tw = BasedComplex(GroupSpec("infinite-cyclic", character=-1),
                      {0: 1, 1: 1},
                      {1: [[GroupSpec("infinite-cyclic", character=-1).one()
                            - GroupSpec("infinite-cyclic", character=-1).monomial(1)]]})
    chtw = change_of_rings(tw, "character")  # 1 - (-1) = 2
    assert chtw.boundary(1)[0][0].coeff(0) == 2
    g = C2.monomial(1)
    D = BasedComplex(C2, {0: 1, 1: 1}, {1: [[C2.one() - g]]})
    reg = change_of_rings(D, "regular")
    assert reg.rank(0) == reg.rank(1) == 2
    assert homology_Z(reg)[0].invariants() == (1, ())  # Z[C2]/(1-g) = Z


def test_find_contraction_simple():
    acy = complex_from_int(Z, {0: 1, 1: 1}, {1: [[1]]})
    H = find_contraction(acy, 1)
    assert H is not None
    assert is_contraction_through(acy, H, 1)
    stuck = complex_from_int(Z, {0: 1, 1: 1}, {1: [[2]]})
    assert find_contraction(stuck, 0) is None


def test_find_contraction_cone_of_identity():
    for C in (circle_Z(), sphere_Z(), circle_cover()):
        cn = cone(ChainMap.identity(C))
        assert validate_complex(cn)["valid"]
        H = find_contraction(cn, cn.hi)
        assert H is not None
        assert is_contraction_through(cn, H, cn.hi)


def test_find_contraction_partial():
    # homology Z/2 sits in degree 1; degrees <= 0 contract fine
    C = complex_from_int(Z, {0: 1, 1: 2, 2: 1}, {1: [[1, 0]], 2: [[0], [2]]})
    assert homology_Z(C)[0].is_zero
    assert homology_Z(C)[1].invariants() == (0, (2,))
    assert find_contraction(C, 0) is not None
    assert find_contraction(C, 1) is None


def _no_expansion(*args):
    raise AssertionError("the integer expansion ran")


def test_unit_pivots_contract_every_equivariant_identity_cone(monkeypatch):
    # every entry of these cones that elimination pivots on is +-g^k or
    # +-t^k, so no degree reaches the integer expansion
    monkeypatch.setattr(co, "_expansion_solve", _no_expansion)
    for name, make in EQUIVARIANT.items():
        cn = cone(ChainMap.identity(make()))
        H = find_contraction(cn, cn.hi)
        assert is_contraction_through(cn, H, cn.hi), name


def test_an_inconsistent_row_is_an_exact_miss(monkeypatch):
    # H_1 = Z[t,t^-1] on the second 1-cell: degree 0 contracts, degree 1
    # leaves the row 0 = 1, which ends the search without an expansion
    monkeypatch.setattr(co, "_expansion_solve", _no_expansion)
    t = LAU.monomial(1)
    C = BasedComplex(LAU, {0: 1, 1: 2}, {1: [[t, LAU.zero()]]})
    assert find_contraction(C, 0) is not None
    assert find_contraction(C, 1) is None
    assert _contraction(C, 1) == (None, ("no solution", 1))


def _entry(ring):
    exps = st.just(0) if ring == Z else st.integers(-2, 2)
    return st.dictionaries(exps, st.integers(-2, 2), max_size=2).map(ring.from_terms)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((Z, C5, LAU)), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
       st.data())
def test_unit_pivot_solve_answers_consistent_systems(ring, r, k, c, data):
    # B = A X0 has a solution: the exact-first solve finds one over Z and
    # Z[C_5], and over Z[t,t^-1] it can miss only the expansion's window;
    # whatever X comes back solves A X = B
    A = data.draw(st.lists(st.lists(_entry(ring), min_size=k, max_size=k), min_size=r, max_size=r))
    X0 = data.draw(st.lists(st.lists(_entry(ring), min_size=c, max_size=c), min_size=k, max_size=k))
    B = rmat_mul(ring, A, X0, r, k, c)
    X, why = dense_ring_solve(ring, A, B, r, k, c)
    assert why is None or (ring == LAU and why[0] == "window")
    if X is not None:
        assert rmat_mul(ring, A, X, r, k, c) == B


@pytest.mark.parametrize("ring", (Z, C5, LAU), ids=("Z", "C5", "laurent"))
def test_ring_solve_rejects_wrong_shapes(ring):
    # the elimination reads A and B themselves and the expansion reads
    # the declared shape, so the two must agree
    one = ring.one()
    with pytest.raises(ValueError, match=r"B is not 1 x 1"):
        ring_solve(ring, [[one]], [[one, one]], 1, 1, 1)
    with pytest.raises(ValueError, match=r"A is not 2 x 1"):
        ring_solve(ring, [[one]], [[one], [one]], 2, 1, 1)
    with pytest.raises(ValueError, match=r"A is not 1 x 2"):
        ring_solve(ring, [[one]], [[one]], 1, 2, 1)
    with pytest.raises(ValueError, match=r"B is not 1 x 1"):
        ring_solve(ring, [[one]], [], 1, 1, 1)
    assert ring_solve(ring, [[one]], [[one, one]]) == [[one, one]]


def test_dual_complex_signs():
    C = complex_from_int(Z, {0: 1, 1: 1}, {1: [[2]]})
    D = dual_complex(C, 0)
    # degrees flip to -1..0 and the m=0 sign on the degree-0 boundary is +
    assert D.lo == -1 and D.hi == 0
    assert D.boundary(0)[0][0].coeff(0) == 2
    C2x = circle_cover()
    D2 = dual_complex(C2x, 1)
    val = D2.boundary(1)[0][0]
    assert val.terms() == {0: 1, -1: -1}  # (1 - 1/t), sign (+1)^{1+1}


def test_dual_complex_twisted_entry():
    ring = GroupSpec("infinite-cyclic", character=-1)
    t = ring.monomial(1)
    C = BasedComplex(ring, {0: 1, 1: 1}, {1: [[ring.one() - t]]})
    D = dual_complex(C, 1)
    # involve(1 - t) = 1 + 1/t under the sign character
    assert D.boundary(1)[0][0].terms() == {0: 1, -1: 1}


def test_double_dual():
    for C, m in ((sphere_Z(), 2), (sphere_Z(), 3), (circle_cover(), 1), (moore_Z2(), 0)):
        DD = dual_complex(dual_complex(C, m), m)
        assert DD.ranks == C.ranks
        sign = 1 if (m % 2 == 1) else -1
        for k in range(C.lo + 1, C.hi + 1):
            want = C.boundary(k) if sign == 1 else rmat_neg(C.boundary(k))
            assert DD.boundary(k) == want
        # the alternating-sign diagonal map J_k = (-1)^((m+1)k) id is a
        # chain isomorphism from C to the double dual in both parities
        ring = C.ring
        for k in range(C.lo + 1, C.hi + 1):
            jk = (-1) ** (((m + 1) * k) % 2)
            jk1 = (-1) ** (((m + 1) * (k - 1)) % 2)
            lhs = [[x * jk1 for x in row] for row in C.boundary(k)]
            rhs = [[x * jk for x in row] for row in DD.boundary(k)]
            assert lhs == rhs


def test_universal_coefficients_direction():
    # acyclic complex: the dual complex is acyclic too
    acy = cone(ChainMap.identity(sphere_Z()))
    D = dual_complex(acy, 0)
    for k, g in homology_Z(D).items():
        assert g.is_zero
    # homology free and concentrated in the bottom degree: dual rank matches
    sp = sphere_Z()
    Dsp = dual_complex(sp, 0)
    h = homology_Z(Dsp)
    assert h[0].invariants() == (1, ())    # dual degree 0 sees H^0
    assert h[-2].invariants() == (1, ())   # dual degree -2 sees H^2 of the sphere


def test_euler_characteristic_concentrated():
    # homology concentrated in one degree: its rank is (-1)^n times chi
    C = complex_from_int(Z, {0: 1, 1: 2}, {1: [[1, 0]]})
    h = homology_Z(C)
    assert h[0].is_zero and h[1].invariants() == (1, ())
    assert 1 == (-1) ** 1 * C.euler()
    sp = sphere_Z()
    assert sp.euler() == 2


def test_cone_and_direct_sum_shapes():
    C = circle_Z()
    cn = cone(ChainMap.identity(C))
    assert [cn.rank(k) for k in (0, 1, 2)] == [1, 2, 1]
    s = direct_sum(C, sphere_Z())
    assert validate_complex(s)["valid"]
    assert [s.rank(k) for k in (0, 1, 2)] == [5, 7, 4]
    hz = homology_Z(s)
    assert hz[0].invariants() == (2, ())
    assert hz[1].invariants() == (1, ())
    assert hz[2].invariants() == (1, ())


def test_tensor_point_and_torus():
    pt = complex_from_int(Z, {0: 1}, {})
    C = sphere_Z()
    T = tensor(C, pt)
    assert T.ranks == C.ranks
    for k in range(C.lo + 1, C.hi + 1):
        assert T.boundary(k) == C.boundary(k)
    c1, c2 = circle_Z(), circle_Z()
    torus = tensor(c1, c2)
    assert validate_complex(torus)["valid"]
    h = homology_Z(torus)
    assert h[0].invariants() == (1, ())
    assert h[1].invariants() == (2, ())
    assert h[2].invariants() == (1, ())
    assert tensor(C, C).euler() == 4


def test_tensor_laurent_with_integer_complex():
    C = circle_cover()
    pt2 = complex_from_int(Z, {0: 2, 1: 1}, {1: [[1], [-1]]})  # an interval
    T = tensor(C, pt2)
    assert validate_complex(T)["valid"]
    assert T.ring == LAU


def test_chain_map_validation():
    C = moore_Z2()
    with pytest.raises(ValueError):
        ChainMap(C, C, {0: [[C.ring.one()]], 1: [[C.ring.monomial(0, 3)]],
                        2: [[C.ring.one()]]})
    f = ChainMap(C, C, {k: [[C.ring.one()]] for k in (0, 1, 2)})
    assert f.commutes()


def test_public_constructors_reject_misshapen_matrices():
    one = C5.one()
    with pytest.raises(ValueError, match=r"boundary at degree 1 has the wrong shape"):
        BasedComplex(C5, {0: 1, 1: 2}, {1: [[one]]})
    with pytest.raises(ValueError, match=r"boundary at degree 2 has the wrong shape"):
        BasedComplex(C5, {1: 2, 2: 1}, {2: [[one], [one], [one]]})
    C = BasedComplex(C5, {0: 1, 1: 1}, {1: [[one]]})
    with pytest.raises(ValueError, match=r"component at degree 1 has the wrong shape"):
        ChainMap(C, C, {0: [[one]], 1: [[one, one]]})
    with pytest.raises(ValueError, match=r"component at degree 0 has the wrong shape"):
        ChainMap(C, C, {0: [[one], [one]]}, check=False)
    with pytest.raises(ValueError, match=r"chain maps need a common ring"):
        ChainMap(C, BasedComplex(LAU, {0: 1, 1: 1}, {1: [[LAU.one()]]}), {})


def test_operations_reject_mismatched_complexes():
    one = C5.one()
    C = BasedComplex(C5, {0: 1, 1: 1}, {1: [[one]]})
    D = BasedComplex(C5, {0: 2}, {})
    with pytest.raises(ValueError, match=r"composition shape mismatch"):
        ChainMap.identity(C).compose(ChainMap.identity(D))
    with pytest.raises(ValueError, match=r"ring mismatch"):
        direct_sum(C, circle_cover())
    with pytest.raises(ValueError, match=r"tensor factor D must be an integer complex"):
        tensor(sphere_Z(), C)


def test_a_homotopy_that_misses_the_identity_is_no_contraction():
    # C: R --1--> R, contracted by D_0 = 1; D_0 = 2 gives d D + D d = 2
    one = C5.one()
    C = BasedComplex(C5, {0: 1, 1: 1}, {1: [[one]]})
    assert is_contraction_through(C, ChainHomotopy(C, C, {0: [[one]]}), 1)
    assert not is_contraction_through(C, ChainHomotopy(C, C, {0: [[one + one]]}), 1)
    # with no D_0 degree 0 fails, and below the complex nothing is checked
    assert is_contraction_through(C, ChainHomotopy(C, C, {}), -1)
    assert not is_contraction_through(C, ChainHomotopy(C, C, {}), 0)


def test_complex_json_roundtrip():
    for C in (sphere_Z(), circle_cover()):
        import json
        data = json.loads(json.dumps(C.to_json()))
        C2 = BasedComplex.from_json(data)
        assert C2.ranks == C.ranks
        for k in range(C.lo + 1, C.hi + 1):
            assert C2.boundary(k) == C.boundary(k)


# ---------------------------------------------------------------------------
# one factorization per boundary
# ---------------------------------------------------------------------------


@pytest.fixture
def factored(monkeypatch):
    """Every matrix handed to smith_normal_form, as (rows, cols, entries)."""
    seen, real = [], co.smith_normal_form

    def counting(mat, nrows=None, ncols=None):
        r = len(mat) if nrows is None else nrows
        c = (len(mat[0]) if mat else 0) if ncols is None else ncols
        seen.append((r, c, tuple(map(tuple, mat))))
        return real(mat, nrows, ncols)

    # every factorization goes through coefficients._Smith
    monkeypatch.setattr(co, "smith_normal_form", counting)
    return seen


def _int_boundaries(C, transposed=False):
    out = []
    for k in range(C.lo, C.hi + 2):
        d, r, c = rmat_to_int(C.boundary(k)), C.rank(k - 1), C.rank(k)
        if transposed:
            d, r, c = transpose(d, c), c, r
        out.append((r, c, tuple(map(tuple, d))))
    return out


def test_homology_factors_each_boundary_once(factored):
    C = boundary_complex(barycentric(torus7()))
    H = homology_Z(C)
    calls = list(factored)  # before the groups factor their relations
    assert [H[k].invariants() for k in (0, 1, 2)] == [(1, ()), (2, ()), (1, ())]
    assert sorted(calls) == sorted(_int_boundaries(C))
    assert len(set(calls)) == len(calls) == C.hi - C.lo + 2


def test_cohomology_factors_each_transposed_boundary_once(factored):
    X = rp2_6()
    H = space_cohomology(X)
    calls = list(factored)
    assert [H[k].invariants() for k in (0, 1, 2)] == [(1, ()), (0, ()), (0, (2,))]
    C = boundary_complex(X)
    assert sorted(calls) == sorted(_int_boundaries(C, transposed=True))
    assert len(set(calls)) == len(calls) == C.hi - C.lo + 2


def test_asking_again_factors_nothing_new(factored):
    C = boundary_complex(klein_grid())
    first = [homology_presentation(C, 1), cohomology_presentation(C, 1)]
    n = len(factored)
    assert n == 4  # d_1 and d_2, each as itself and transposed
    second = [homology_presentation(C, 1), cohomology_presentation(C, 1)]
    assert len(factored) == n
    for (G, K, _), (G2, K2, _) in zip(first, second):
        assert (G.ngens, G.relations, K) == (G2.ngens, G2.relations, K2)
    homology_presentation(C, 2)  # d_2 is factored; only d_3 is new
    assert len(factored) == n + 1


def test_torsion_reads_the_homology_factorizations(factored):
    C = boundary_complex(torus7())
    bases = {}
    for k in C.degrees():
        G, cycles, _ = homology_presentation(C, k)
        bases[k] = _free_quotient_basis(G, cycles)
    n = len(factored)
    assert torsion_with_homology(C, bases).is_trivial()
    # no boundary again: the new factorizations are the determinants of the
    # square basis changes, one per degree
    dets = sorted((C.rank(k), C.rank(k)) for k in C.degrees())
    assert sorted((r, c) for r, c, _ in factored[n:]) == dets
    # on a fresh complex, torsion factors each inner boundary once
    D = boundary_complex(torus7())
    del factored[:]
    torsion_with_homology(D, bases)
    assert sorted(call for call in factored if call[0] != call[1]) == sorted(_int_boundaries(D)[1:-1])
    assert sorted((r, c) for r, c, _ in factored if r == c) == dets


# ---------------------------------------------------------------------------
# the sparse products of the factorization memo
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPACES))
def test_factored_sparse_products_match_imat_vec(name):
    rng = random.Random(name)
    X = SPACES[name]()
    for tw in (False, True) if X.character else (False,):
        for rel in (False, True) if X.sub else (False,):
            C = boundary_complex(X, twisted=tw, rel=rel)
            for k in range(C.lo, C.hi + 2):
                for dual in (False, True):
                    S = chains._smith(C, k, dual)
                    d, r, c = rmat_to_int(C.boundary(k)), C.rank(k - 1), C.rank(k)
                    if dual:
                        d, r, c = transpose(d, c), c, r
                    _, _, V0, Vinv = snf_factors(d, r, c)
                    V = [[v.get(i, 0) for v in S._factor("V")] for i in range(c)]
                    assert V == V0 and (S.nrows, S.ncols) == (r, c)
                    lifts = S.lifts()
                    assert lifts == [[row[j] for row in V0] for j in range(S.rank)]
                    assert S.image() == [mat_vec(d, v) for v in lifts]
                    for _ in range(6):
                        x = [rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(c)]
                        want = mat_vec(Vinv[S.rank:], x) if not any(mat_vec(d, x)) else None
                        assert S.kernel_coordinates(x) == want
                    for v in S.kernel():
                        assert S.kernel_coordinates(v) == mat_vec(Vinv[S.rank:], v)


def test_factors_are_replayed_only_for_their_readers(monkeypatch):
    replays, real = [], co._replay

    def counting(steps, n, inverse=False):
        replays.append((steps, inverse))
        return real(steps, n, inverse)

    monkeypatch.setattr(co, "_replay", counting)

    def built(S, factor):
        # has S replayed U (row steps, forward) or V^-1 (column steps, inverted)?
        rows, cols = S._steps
        log, inverse = {"U": (rows, False), "Vinv": (cols, True)}[factor]
        return any(steps is log and inv == inverse for steps, inv in replays)

    C = boundary_complex(barycentric(torus7()))
    H = homology_Z(C)
    assert [G.invariants() for G in H.values()] == [(1, ()), (2, ()), (1, ())]
    boundaries = [S for S in C._memo.values() if isinstance(S, co._Smith)]
    assert len(boundaries) == C.hi - C.lo + 2
    assert any(built(S, "Vinv") for S in boundaries)  # the wrapper sees the cycle tests
    assert not any(built(S, "U") for S in boundaries)
    assert not any(built(G._smith(), "Vinv") for G in H.values())
    d, r, c = rmat_to_int(C.boundary(2)), C.rank(1), C.rank(2)
    del replays[:]
    assert co._Smith(d, r, c).diag == chains._smith(C, 2).diag  # the rank search's read
    assert replays == []


def _reachable(obj):
    # ids of obj and of every list, tuple, dict and set reachable from it
    seen, todo = set(), [obj]
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen.add(id(x))
            todo.extend(y for y in gc.get_referents(x) if isinstance(y, (list, tuple, dict, set)))
    return seen


def test_a_factored_smith_keeps_no_reference_to_its_matrix():
    # a boundary whose cycle test never runs once kept its dense matrix
    # alive for the life of the complex
    A = [[2, 4, 0], [6, 8, 0]]
    for S in (co._Smith(A), co._Smith(transpose(A, 3), 2, 3, columns=True)):
        assert (S.diag, S.image(), S.kernel()) == ([2, 4], [[2, 6], [0, -4]], [[0, 0, 1]])
        assert (S.kernel_coordinates([0, 0, 5]), S.kernel_coordinates([2, -1, 5])) == ([5], None)
        held = _reachable(S)
        assert id(A) not in held and not any(id(row) in held for row in A)
    C = boundary_complex(torus7())
    d = chains._int_boundary(C, 1)
    for dual in (False, True):
        held = _reachable(chains._smith(C, 1, dual))
        assert id(d) not in held and not any(id(row) in held for row in d)


def test_presentation_solvers_reject_wrong_lengths_and_non_cycles():
    C = boundary_complex(torus7())
    for present, k in ((homology_presentation, 1), (cohomology_presentation, 0)):
        _, cycles, solve = present(C, k)
        # one edge is no cycle, one vertex no cocycle
        e = [1] + [0] * (C.rank(k) - 1)
        assert solve(e) is None
        for wrong in (e + [0], e[1:]):
            with pytest.raises(ValueError, match="right-hand side"):
                solve(wrong)
        # cycles lists the lattice basis; each basis vector has its unit coordinates
        for j, v in enumerate(cycles):
            assert solve(v) == [int(i == j) for i in range(len(cycles))]
            assert mat_vec(transpose(cycles, C.rank(k)), solve(v)) == v
