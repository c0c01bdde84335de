"""Ring arithmetic, Smith normal form, presented groups, units.

Expected values for the worked examples were frozen from independent
oracles: sympy's normal form for diagonals, brute-force enumeration for
group orders and element counts, and hand multiplication for the small
ring identities.
"""

import json
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import propalg.coefficients as co
from propalg.chains import BasedComplex, change_of_rings
from propalg.corpus import random_fg_with_orders, random_hom_matrix
from propalg.coefficients import (
    CYCLIC,
    INFINITE_CYCLIC,
    TRIVIAL,
    FgAbelian,
    GroupRingElt,
    GroupSpec,
    UnitClass,
    _bird_det,
    _ring_solve,
    det_unit_class,
    element_regular_rep,
    hom_decompose,
    ring_det,
    ring_solve,
    ring_solve_multi,
    smith_normal_form,
    snf_solver,
    try_inverse,
)
from dense_reference import (
    eye,
    mat_mul,
    mat_vec,
    rmat_eye,
    rmat_from_int,
    rmat_involve_transpose,
    rmat_mul,
    rmat_zero,
    transpose,
)

Z = GroupSpec("trivial")
C5 = GroupSpec("cyclic", 5)
C6 = GroupSpec("cyclic", 6)
C6w = GroupSpec("cyclic", 6, character=-1)
LAU = GroupSpec("infinite-cyclic")
LAUw = GroupSpec("infinite-cyclic", character=-1)


def rand_imat(rng, r, c, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def rand_sparse_imat(rng, r, c, density=0.2):
    return [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0
             for _ in range(c)] for _ in range(r)]


def snf_factors(A, r=None, c=None):
    """smith_normal_form's (U, D, V, V^-1) as dense matrices, replayed from its steps.

    U and V^-1 are the replayed rows; V is the transpose of the rows the
    column steps replay, and D is the r x c matrix on the diagonal.
    """
    r = len(A) if r is None else r
    c = (len(A[0]) if A else 0) if c is None else c
    diag, rows, cols = smith_normal_form(A, r, c)

    def dense(M, n):
        return [[row.get(j, 0) for j in range(n)] for row in M]

    D = [[diag[i] if i == j else 0 for j in range(c)] for i in range(r)]
    V = transpose(dense(co._replay(cols, c), c), c)
    return dense(co._replay(rows, r), r), D, V, dense(co._replay(cols, c, True), c)


# Smith normal forms (U, D, V) of seeded random sparse matrices, recorded
# with the dense row and column steps: skipping zeros must not change the
# pivot order or the transforms, because solutions depend on them.
SNF_GOLDEN = Path(__file__).resolve().parent / "data" / "snf-sparse-random.json"


def sparse_snf_cases():
    rng = random.Random(1608)
    out = []
    for _ in range(30):
        r, c = rng.randint(0, 14), rng.randint(0, 14)
        A = rand_sparse_imat(rng, r, c)
        U, D, V, Vinv = snf_factors(A, r, c)
        assert mat_mul(V, Vinv, c) == eye(c)
        out.append({"shape": [r, c], "matrix": A, "U": U, "D": D, "V": V})
    return out


# ---------------------------------------------------------------------------
# group specs and ring elements
# ---------------------------------------------------------------------------


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("dihedral")
    with pytest.raises(ValueError):
        GroupSpec("cyclic")
    with pytest.raises(ValueError):
        GroupSpec("cyclic", 5, character=-1)
    with pytest.raises(ValueError):
        GroupSpec("trivial", character=-1)
    GroupSpec("cyclic", 6, character=-1)


def test_cyclic_exponent_wraparound():
    g = C5.monomial(1)
    assert g**5 == C5.one()
    assert C5.monomial(7) == C5.monomial(2)


def test_laurent_product_frozen():
    t = LAU.monomial(1)
    one = LAU.one()
    # (1 + t)(1 - t) = 1 - t^2
    assert (one + t) * (one - t) == one - t * t
    assert ((one + t) * (one - t)).terms() == {0: 1, 2: -1}


def test_cyclic5_unit_identity_frozen():
    # (g + g^4 - 1)(g^2 + g^3 - 1) = 1 in Z[C5], checked by hand expansion
    g = C5.monomial(1)
    one = C5.one()
    u = g + g**4 - one
    v = g**2 + g**3 - one
    assert u * v == one


def test_involution_untwisted():
    t = LAU.monomial(1)
    x = LAU.one() + 2 * t + 3 * t**2
    assert x.involve().terms() == {0: 1, -1: 2, -2: 3}
    # involution is additive and an anti-homomorphism; commutative so plain
    y = t - LAU.one()
    assert (x * y).involve() == x.involve() * y.involve()
    assert x.involve().involve() == x


def test_involution_twisted():
    t = LAUw.monomial(1)
    x = LAUw.one() + t
    assert x.involve().terms() == {0: 1, -1: -1}
    assert x.involve().involve() == x
    g = C6w.monomial(1)
    assert g.involve() == -C6w.monomial(5)
    assert (g.involve()).involve() == g


def test_adding_zero_returns_the_other_operand():
    a = GroupRingElt(LAU, {-1: 2, 3: -1})
    for zero in (LAU.zero(), LAU.monomial(4) - LAU.monomial(4)):
        assert a + zero is a and zero + a is a and a - zero is a
        assert zero - a == -a
    with pytest.raises(ValueError, match="ring mismatch"):
        a + LAUw.zero()
    with pytest.raises(ValueError, match="ring mismatch"):
        LAU.zero() - C5.one()


def test_augmentation():
    g = C5.monomial(1)
    assert (g + g - C5.one()).augmentation() == 1
    t = LAUw.monomial(1)
    assert (t + LAUw.one()).character_value() == 0


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-5, 5)), max_size=6),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-5, 5)), max_size=6))
def test_ring_axioms_laurent(ta, tb):
    a = GroupRingElt(LAUw, dict(ta))
    b = GroupRingElt(LAUw, dict(tb))
    assert a * b == b * a
    assert (a + b).involve() == a.involve() + b.involve()
    assert (a * b).involve() == a.involve() * b.involve()
    assert (a * b).augmentation() == a.augmentation() * b.augmentation()


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form and friends
# ---------------------------------------------------------------------------


def test_snf_frozen_example():
    U, D, V, Vinv = snf_factors([[2, 4], [6, 8]])
    assert [D[0][0], D[1][1]] == [2, 4]
    assert D[0][1] == D[1][0] == 0
    assert mat_mul(mat_mul(U, [[2, 4], [6, 8]]), V) == D
    assert sympy.Matrix(U).det() in (1, -1)
    assert sympy.Matrix(V).det() in (1, -1)
    assert mat_mul(V, Vinv) == eye(2)


def test_snf_empty_and_zero():
    U, D, V, Vinv = snf_factors([], 0, 3)
    assert U == [] and D == [] and V == Vinv == eye(3)
    assert smith_normal_form([], 0, 3) == ([], [], [])
    U, D, V, Vinv = snf_factors([[0, 0], [0, 0]])
    assert D == [[0, 0], [0, 0]] and V == Vinv == eye(2)


def test_snf_idempotent_on_own_output():
    rng = random.Random(7)
    for _ in range(20):
        A = rand_imat(rng, rng.randint(1, 4), rng.randint(1, 4))
        _, D, _, _ = snf_factors(A)
        U2, D2, V2, _ = snf_factors(D)
        assert D2 == D
        r, c = len(D), len(D[0])
        assert U2 == eye(r)
        assert V2 == eye(c)


def test_snf_properties_random():
    rng = random.Random(1)
    for _ in range(60):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        A = rand_imat(rng, r, c)
        U, D, V, Vinv = snf_factors(A, r, c)
        assert mat_mul(mat_mul(U, A, c), V, c) == D if r and c else True
        assert mat_mul(V, Vinv, c) == eye(c)
        assert sympy.Matrix(r, r, [x for row in U for x in row]).det() in (1, -1)
        assert sympy.Matrix(c, c, [x for row in V for x in row]).det() in (1, -1)
        diag = [D[i][i] for i in range(min(r, c))]
        assert all(d >= 0 for d in diag)
        for j in range(r):
            for k in range(c):
                if j != k:
                    assert D[j][k] == 0
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_snf_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(42)
    for _ in range(25):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_imat(rng, r, c)
        diag = [d for d in co._Smith(A, r, c).diag if d]
        S = sympy_snf(sympy.Matrix(A))
        sdiag = [abs(S[i, i]) for i in range(min(r, c)) if S[i, i] != 0]
        assert diag == sorted(sdiag) or diag == sdiag


def test_kernel_and_solve():
    A = [[1, 1]]
    kb = co._Smith(A).kernel()
    assert len(kb) == 1
    assert mat_vec(A, kb[0]) == [0]
    x = co._Smith([[2]]).solve([6])
    assert x == [3]
    assert co._Smith([[2]]).solve([5]) is None
    assert co._Smith([[0]]).solve([1]) is None
    assert co._Smith([], 0, 2).solve([]) == [0, 0]


def test_solve_random_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_imat(rng, r, c)
        x0 = [rng.randint(-5, 5) for _ in range(c)]
        b = mat_vec(A, x0)
        x = co._Smith(A, r, c).solve(b)
        assert x is not None
        assert mat_vec(A, x) == b


def test_snf_solver_rejects_wrong_length_right_hand_side():
    solve = snf_solver([[1], [0]], 2, 1)
    assert solve([1, 0]) == [1]
    with pytest.raises(ValueError, match="3 entries, the matrix has 2 rows"):
        solve([1, 0, 7])
    with pytest.raises(ValueError):
        solve([1])
    with pytest.raises(ValueError):
        co._Smith([[2, 0]]).solve([2, 0])


def test_snf_rejects_a_matrix_of_another_shape():
    # each of these once gave a wrong answer or an IndexError
    with pytest.raises(ValueError, match="not 1 x 2"):
        smith_normal_form([[1, 2, 3]], 1, 2)
    with pytest.raises(ValueError, match="not 1 x 2"):
        co._Smith([[1, 2, 3]], 1, 2).kernel()
    with pytest.raises(ValueError, match="not 1 x 3"):
        smith_normal_form([[1, 2]], 1, 3)
    with pytest.raises(ValueError, match="not 2 x 1"):
        smith_normal_form([[1]], 2, 1)


def test_snf_sparse_golden():
    assert sparse_snf_cases() == json.loads(SNF_GOLDEN.read_text())


sparse_entry = st.integers(0, 3).flatmap(lambda k: st.integers(-9, 9) if k == 0 else st.just(0))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 24), st.data())
def test_combine_matches_dense_sum_on_sparse_inputs(r, c, data):
    A = data.draw(st.lists(st.lists(sparse_entry, min_size=c, max_size=c),
                           min_size=r, max_size=r))
    x = data.draw(st.lists(sparse_entry, min_size=c, max_size=c))
    assert co._combine(transpose(A, c), x, r) == [sum(a * b for a, b in zip(row, x)) for row in A]


def test_combine_edge_shapes():
    # matrices by columns: no columns, zero vectors, no rows
    assert co._combine([], [], 2) == [0, 0]
    assert co._combine([[3, 0], [-1, 2]], [0, 0], 2) == [0, 0]
    assert co._combine([[], []], [1, 2], 0) == []
    # like zip, entries past the width of the matrix are ignored
    assert co._combine([[1], [2]], [3, 4, 5], 1) == [11]
    assert co._compose([[1, 0], [1, 1]], [[1, -1], [0, 2]], 2) == [[0, -1], [2, 2]]


def test_snf_solver_on_sparse_and_empty_matrices():
    rng = random.Random(9)
    for _ in range(40):
        r, c = rng.randint(1, 12), rng.randint(1, 12)
        A = rand_sparse_imat(rng, r, c)
        x0 = [v if rng.random() < 0.3 else 0 for v in (rng.randint(-4, 4) for _ in range(c))]
        b = mat_vec(A, x0)
        x = snf_solver(A, r, c)(b)
        assert x is not None and len(x) == c
        assert mat_vec(A, x) == b
    solve = snf_solver([[2, 0, 0], [0, 0, 0]], 2, 3)
    assert solve([1, 0]) is None  # odd first coordinate
    assert solve([0, 1]) is None  # zero row, nonzero entry
    with pytest.raises(ValueError):
        solve([2, 0, 0])
    assert snf_solver([], 0, 3)([]) == [0, 0, 0]
    solve = snf_solver([[], []], 2, 0)
    assert solve([0, 0]) == []
    assert solve([0, 1]) is None


def test_image_lattice_basis():
    A = [[2, 4], [0, 0]]
    basis = co._Smith(A).image()
    assert len(basis) == 1
    assert basis[0][1] == 0 and abs(basis[0][0]) == 2


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.randoms(use_true_random=False))
def test_smith_kernel_coordinates_lifts_and_image(r, c, rng):
    # mostly zero, so kernels and non-kernel vectors both turn up
    A = [[rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(c)] for _ in range(r)]
    S = co._Smith(A, r, c)
    K, lifts, image = S.kernel(), S.lifts(), S.image()
    assert len(K) + len(lifts) == c and len(image) == S.rank
    assert [mat_vec(A, v) for v in lifts] == image
    assert image == co._Smith(A, r, c).image()
    for _ in range(8):
        coords = None
        if K and rng.random() < 0.5:
            coords = [rng.randint(-3, 3) for _ in K]
            x = [sum(k * v[i] for k, v in zip(coords, K)) for i in range(c)]
        else:
            x = [rng.randint(-5, 5) if rng.random() < 0.4 else 0 for _ in range(c)]
        y = S.kernel_coordinates(x)
        assert (y is None) == any(mat_vec(A, x))
        if y is not None:
            assert [sum(k * v[i] for k, v in zip(y, K)) for i in range(c)] == x
            assert coords is None or y == coords
    for n in (c - 1, c + 1) if c else (1,):
        with pytest.raises(ValueError, match=f"{n} entries, the matrix has {c} columns"):
            S.kernel_coordinates([0] * n)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.randoms(use_true_random=False))
def test_image_coordinates_match_a_solve_on_the_image_basis(r, c, rng):
    A = rand_imat(rng, r, c, -4, 4)
    S = co._Smith(A, r, c)
    basis = S.image()
    assert basis == co._Smith(A, r, c).image()
    solve = snf_solver(transpose(basis, r), r, len(basis))
    for _ in range(8):
        if basis and rng.random() < 0.5:
            coords = [rng.randint(-3, 3) for _ in basis]
            x = [sum(k * v[i] for k, v in zip(coords, basis)) for i in range(r)]
        else:
            x = [rng.randint(-5, 5) for _ in range(r)]
        assert S.image_coordinates(x) == solve(x)


def _two_snf_kernel_lattice(coker, dom):
    # the kernel lattice as built before: factor proj for its image basis,
    # then factor that basis again for the coordinate solver
    a = dom.ngens
    kerv = coker._smith().kernel()
    kbasis = co._Smith(transpose([v[:a] for v in kerv], a), a, len(kerv)).image()
    rels = transpose(dom.relations, dom.nrels)
    return co._quotient_on_lattice(kbasis, snf_solver(transpose(kbasis, a), a, len(kbasis)), rels)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_kernel_lattice_matches_the_two_factorization_path(rng):
    dom, dorders = random_fg_with_orders(rng)
    cod, corders = random_fg_with_orders(rng)
    coker = co._cokernel(transpose(random_hom_matrix(rng, dorders, corders), dom.ngens), cod)
    G, K, solve = co._kernel_lattice(coker, dom)
    G0, K0, solve0 = _two_snf_kernel_lattice(coker, dom)
    assert (G.ngens, G.relations, K) == (G0.ngens, G0.relations, K0)
    for _ in range(10):
        x = [rng.randint(-6, 6) for _ in range(dom.ngens)]
        if rng.random() < 0.5:
            x = mat_vec(transpose(K, dom.ngens), [rng.randint(-3, 3) for _ in range(G.ngens)])
        assert solve(x) == solve0(x)


# ---------------------------------------------------------------------------
# finitely generated abelian groups
# ---------------------------------------------------------------------------


def test_fg_abelian_frozen_examples():
    assert FgAbelian(1, [[2]]).invariants() == (0, (2,))
    assert FgAbelian.free(2).invariants() == (2, ())
    assert FgAbelian.zero().is_zero
    # Z^2 / <(2,0),(0,3)> = Z/6 in divisibility form Z/6 (2 and 3 coprime)
    G = FgAbelian(2, [[2, 0], [0, 3]])
    assert G.invariants() == (0, (6,))
    assert G.order() == 6
    # Z^2 / <(2,0),(0,2)> keeps both factors
    H = FgAbelian(2, [[2, 0], [0, 2]])
    assert H.invariants() == (0, (2, 2))


def test_fg_abelian_element_arithmetic():
    G = FgAbelian(2, [[2, 0], [0, 4]])
    assert G.order() == 8
    assert len(G.elements()) == 8
    seen = {G.canon(v) for v in G.elements()}
    assert len(seen) == 8
    assert G.element_is_zero([2, 0])
    assert not G.element_is_zero([1, 0])
    assert G.canon([1, 4]) == G.canon([3, 0])


def test_canon_rejects_a_vector_of_another_length():
    # zip once dropped or padded the extra or missing entries silently
    G = FgAbelian(3, [[2, 1], [0, 3], [0, 0]])
    assert G.canon([1, 0, 0]) == (3, 0)
    for vec in ([1, 0], [0, 0, 0, 7], []):
        for read in (G.canon, G.element_is_zero):
            with pytest.raises(ValueError, match=f"{len(vec)} entries, the group has 3 generators"):
                read(vec)
    Z0 = FgAbelian.zero()
    assert Z0.canon([]) == () and Z0.element_is_zero([])
    with pytest.raises(ValueError, match="1 entries, the group has 0 generators"):
        Z0.element_is_zero([0])


def test_fg_abelian_iso():
    assert FgAbelian(2, [[2, 0], [0, 3]]).iso_to(FgAbelian(1, [[6]]))
    assert not FgAbelian(1, [[4]]).iso_to(FgAbelian(2, [[2, 0], [0, 2]]))


def test_hom_decompose_frozen_examples():
    # Z --x2--> Z : kernel 0, image Z, cokernel Z/2
    k, i, c = hom_decompose([[2]], FgAbelian.free(1), FgAbelian.free(1))
    assert k.is_zero and i.invariants() == (1, ()) and c.invariants() == (0, (2,))
    # Z^2 --[1 1]--> Z : kernel Z, image Z, cokernel 0
    k, i, c = hom_decompose([[1, 1]], FgAbelian.free(2), FgAbelian.free(1))
    assert k.invariants() == (1, ()) and i.invariants() == (1, ()) and c.is_zero
    # Z --0--> Z/4 : kernel Z, image 0, cokernel Z/4
    k, i, c = hom_decompose([[0]], FgAbelian.free(1), FgAbelian(1, [[4]]))
    assert k.invariants() == (1, ()) and i.is_zero and c.invariants() == (0, (4,))


def test_hom_decompose_not_well_defined():
    # Z/2 -> Z by the identity matrix is not a homomorphism
    with pytest.raises(ValueError):
        hom_decompose([[1]], FgAbelian(1, [[2]]), FgAbelian.free(1))


def test_hom_decompose_through_torsion():
    # Z/4 --x2--> Z/8: only 0 maps to a multiple of 8, and the image
    # {0,2,4,6} is cyclic of order 4 (brute checked)
    k, i, c = hom_decompose([[2]], FgAbelian(1, [[4]]), FgAbelian(1, [[8]]))
    assert k.is_zero
    assert i.invariants() == (0, (4,))
    assert c.invariants() == (0, (2,))
    # Z/4 --x4--> Z/8 does have kernel: 2 and 0 land on 0 mod 8
    k, i, c = hom_decompose([[4]], FgAbelian(1, [[4]]), FgAbelian(1, [[8]]))
    assert k.invariants() == (0, (2,))
    assert i.invariants() == (0, (2,))
    assert c.invariants() == (0, (4,))


def brute_hom_check(F, dom, cod):
    # enumerate the finite groups and compare orders directly
    ker_n = 0
    img = set()
    for v in dom.elements():
        w = mat_vec(F, v)
        if cod.element_is_zero(w):
            ker_n += 1
        img.add(cod.canon(w))
    return ker_n, len(img)


def test_hom_decompose_brute_force_random():
    rng = random.Random(11)
    for _ in range(25):
        dn, cn = rng.randint(1, 2), rng.randint(1, 2)
        dom = FgAbelian(dn, [[rng.choice([1, 2, 3, 4]) if i == j else 0 for j in range(dn)] for i in range(dn)])
        cod = FgAbelian(cn, [[rng.choice([1, 2, 3, 4, 6]) if i == j else 0 for j in range(cn)] for i in range(cn)])
        F = rand_imat(rng, cn, dn, -3, 3)
        try:
            k, i, c = hom_decompose(F, dom, cod)
        except ValueError:
            continue
        ker_n, img_n = brute_hom_check(F, dom, cod)
        assert k.order() == ker_n
        assert i.order() == img_n
        assert c.order() * img_n == cod.order()


# ---------------------------------------------------------------------------
# one Smith factorization per question: isomorphism, lifting, membership
# ---------------------------------------------------------------------------


def rand_unimodular(rng, n, steps=8):
    U = eye(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    if n and rng.random() < 0.5:
        U[0] = [-a for a in U[0]]
    return U


def check_iso_answer(F, dom, cod):
    # F by rows; the presented-group layer reads its columns
    a, b = dom.ngens, cod.ngens
    Fc = transpose(F, a)
    inverse, why = co._iso_inverse(Fc, dom, cod), co._iso_failure(Fc, dom, cod)
    ker, _, coker = hom_decompose(F, dom, cod)
    assert (inverse is not None) == (ker.is_zero and coker.is_zero)
    assert (inverse is None) == (why is not None)
    if inverse is not None:
        G = transpose(inverse, a)  # the inverse by rows
        assert co._maps_agree(transpose(mat_mul(F, G, b), b), eye(b), cod) is None
        assert co._maps_agree(transpose(mat_mul(G, F, a), a), eye(a), dom) is None
    elif why[0] == "kernel":
        assert not dom.element_is_zero(why[1])
        assert cod.element_is_zero(mat_vec(F, why[1]))
    else:
        assert ker.is_zero and not coker.element_is_zero(why[1])
    return inverse is not None


def test_presented_iso_agrees_with_hom_decompose():
    rng = random.Random(1966)
    isos = 0
    for _ in range(150):
        dom, dorders = random_fg_with_orders(rng)
        cod, corders = random_fg_with_orders(rng)
        isos += check_iso_answer(random_hom_matrix(rng, dorders, corders), dom, cod)
        # an automorphism of Z^n carries dom onto the group it presents
        n = rng.randint(0, 4)
        R = rand_imat(rng, n, rng.randint(0, 3), -4, 4)
        F = rand_unimodular(rng, n)
        src = FgAbelian(n, R, len(R[0]) if R else 0)
        tgt = FgAbelian(n, mat_mul(F, R, src.nrels), src.nrels)
        assert check_iso_answer(F, src, tgt)
        isos += 1
    assert isos > 150


def test_presented_iso_witnesses():
    def answer(F, dom, cod):
        return co._iso_inverse(F, dom, cod), co._iso_failure(F, dom, cod)

    inverse, why = answer([[2]], FgAbelian.free(1), FgAbelian.free(1))
    assert inverse is None and why == ("cokernel", [1])
    # the map (1 1): Z^2 -> Z, by its two columns
    inverse, why = answer([[1], [1]], FgAbelian.free(2), FgAbelian.free(1))
    assert inverse is None and why[0] == "kernel" and why[1][0] == -why[1][1] != 0
    # Z -> Z/2 is onto but not injective: the lift of the generator is no
    # inverse, and the kernel class 2 says so
    inverse, why = answer([[1]], FgAbelian.free(1), FgAbelian(1, [[2]]))
    assert inverse is None and why == ("kernel", [-2])
    for decide in (co._iso_failure, co._iso_inverse):
        with pytest.raises(ValueError, match="not well defined"):
            decide([[1]], FgAbelian(1, [[2]]), FgAbelian.free(1))


def test_exact_at_sees_a_kernel_class_escaping_the_image():
    # Z --0--> Z --0--> Z: the composite vanishes, but all of the middle
    # is the kernel of the second map and none of it the image of the first
    Z1 = FgAbelian.free(1)
    bad = co._exact_at([[0]], [[0]], Z1, Z1, Z1)
    assert bad["reason"] == "kernel class escapes the image" and set(bad) == {"reason", "class"}
    w = Z1.lift(bad["class"])
    assert not Z1.element_is_zero(w)
    kernel, image, _ = hom_decompose([[0]], Z1, Z1)
    assert kernel.invariants() == (1, ()) and image.is_zero


def test_hom_decompose_rejects_a_matrix_of_the_wrong_shape():
    for F in ([[1, 2]], [[1], [2]], [], [[]]):
        with pytest.raises(ValueError, match="matrix shape does not match the presentations"):
            hom_decompose(F, FgAbelian.free(1), FgAbelian.free(1))


def test_lift_inverts_canon_on_random_presentations():
    rng = random.Random(72)
    for _ in range(120):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        G = FgAbelian(n, rand_imat(rng, n, m, -6, 6), m)
        moduli = G._moduli()
        mods = [d for d in moduli if d != 1]
        z = [rng.randint(-20, 20) for _ in mods]
        assert G.canon(G.lift(z)) == tuple(x % d if d else x for x, d in zip(z, mods))
        if G.ngens:
            v = [rng.randint(-5, 5) for _ in range(n)]
            assert G.element_is_zero([a - b for a, b in zip(v, G.lift(G.canon(v)))])
    with pytest.raises(ValueError, match="coordinates"):
        FgAbelian(1, [[2]]).lift([1, 0])


def test_unmapped_relation_matches_lattice_membership():
    rng = random.Random(13)
    for _ in range(150):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        dom = FgAbelian(a, rand_imat(rng, a, rng.randint(0, 3), -4, 4))
        cod = FgAbelian(b, rand_imat(rng, b, rng.randint(0, 3), -4, 4))
        F = rand_imat(rng, b, a, -3, 3)
        solve = snf_solver(cod.relations, cod.ngens, cod.nrels)
        want = next((j for j, rel in enumerate(transpose(dom.relations, dom.nrels))
                     if solve(mat_vec(F, rel)) is None), None)
        assert co._unmapped_relation(transpose(F, a), dom, cod) == want


# ---------------------------------------------------------------------------
# determinants and units over the rings
# ---------------------------------------------------------------------------


def test_ring_det_matches_sympy_on_integers():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(0, 4)
        A = rand_imat(rng, n, n, -5, 5)
        d1 = int(sympy.Matrix(n, n, [a for row in A for a in row]).det())
        d2 = ring_det(Z, rmat_from_int(Z, A), n)
        assert d2 == Z.monomial(0, d1)


@st.composite
def square_int_matrices(draw):
    """An n x n integer matrix, n = 0..5, drawn as given, made singular or row-swapped."""
    n = draw(st.integers(0, 5))
    A = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)]
    how = draw(st.sampled_from(("as drawn", "singular", "swapped")))
    if how == "singular" and n:
        # the last row becomes a combination of the others (zero when n = 1)
        A[-1] = [draw(st.integers(-2, 2)) * a + b for a, b in zip(A[0], A[1])] if n > 2 else [0] * n
    if how == "swapped" and n > 1:
        A[0], A[1] = A[1], A[0]
    return A


@settings(max_examples=200, deadline=None)
@given(square_int_matrices())
def test_integer_ring_det_matches_sympy(A):
    n = len(A)
    want = int(sympy.Matrix(n, n, [a for row in A for a in row]).det())
    assert ring_det(Z, rmat_from_int(Z, A), n) == Z.monomial(0, want)
    if n > 1:  # a row swap flips the sign
        B = [A[1], A[0], *A[2:]]
        assert ring_det(Z, rmat_from_int(Z, B), n) == Z.monomial(0, -want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
def test_try_inverse_over_cyclic_rings_reads_the_circulant_determinant(case):
    n, coeffs = case
    R = GroupSpec("cyclic", n)
    u = R.from_terms(enumerate(coeffs))
    inv, why = try_inverse(u)
    if u.is_zero:
        assert why == "zero is not a unit"
        return
    d = int(sympy.Matrix(element_regular_rep(u)).det())
    if d in (1, -1):
        assert why is None and (u * inv).is_one
    else:
        assert inv is None and why == f"regular representation determinant {d} is not +-1"


def test_bird_det_laurent_against_expansion():
    # 2x2 with Laurent entries, determinant by hand
    t = LAU.monomial(1)
    one = LAU.one()
    A = [[one + t, t], [one, t**2]]
    d = ring_det(LAU, A, 2)
    assert d == (one + t) * t**2 - t * one


def test_bird_det_cyclic_against_regular_rep():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(1, 3)
        A = [[GroupRingElt(C5, {rng.randint(0, 4): rng.randint(-2, 2) for _ in range(2)})
              for _ in range(n)] for _ in range(n)]
        d = ring_det(C5, A, n)
        # block-expand to integers: det of the big matrix equals the
        # regular-representation determinant of the ring determinant
        big = [[0] * (5 * n) for _ in range(5 * n)]
        for i in range(n):
            for j in range(n):
                blk = element_regular_rep(A[i][j])
                for a in range(5):
                    for b in range(5):
                        big[5 * i + a][5 * j + b] = blk[a][b]
        assert sympy.Matrix(big).det() == sympy.Matrix(element_regular_rep(d)).det()


# Rings the unit-pivot elimination is checked on, against Bird's
# iteration run on the whole matrix.
ORACLE_RINGS = (C5, GroupSpec("cyclic", 2), GroupSpec("cyclic", 4, character=-1), LAU)


def rand_unit(rng, R):
    return R.monomial(rng.randint(-3, 3), rng.choice((1, -1)))


def rand_non_unit(rng, R):
    # never zero and never +-g^k: either a coefficient of absolute value
    # at least 2, or two distinct exponents (distinct mod the order)
    e = rng.randint(-3, 3)
    if R.kind == CYCLIC and R.n > 1 and rng.random() < 0.5:
        return R.monomial(e, rng.choice((1, -1))) + R.monomial(e + rng.randint(1, R.n - 1))
    return R.monomial(e, rng.choice((2, -2, 3, -3)))


def rand_entry(rng, R):
    k = rng.random()
    if k < 0.35:
        return R.zero()
    if k < 0.7:
        return rand_unit(rng, R)
    return rand_non_unit(rng, R) + R.monomial(rng.randint(-2, 2), rng.randint(-1, 1))


def dense_ring_solve(R, A, B, r, k, c, window=None):
    """_ring_solve on dense A and B, with its solution written out densely."""
    X, why = _ring_solve(R, co._sparse(A), co._sparse(B), r, k, c, window)
    return (None if X is None else co._dense(X, c, R.zero())), why


def bird_det(R, A, n):
    """_bird_det of the leading n x n block of the dense matrix A."""
    return _bird_det(R, co._sparse(row[:n] for row in A[:n]), n)


def core_sizes(monkeypatch):
    """Record the size of every core that ring_det hands to Bird."""
    sizes = []

    def recording(ring, A, n):
        sizes.append(n)
        return _bird_det(ring, A, n)

    monkeypatch.setattr(co, "_bird_det", recording)
    return sizes


def test_ring_det_matches_bird_on_random_matrices():
    rng = random.Random(17)
    for trial in range(200):
        R = ORACLE_RINGS[trial % len(ORACLE_RINGS)]
        n = rng.randint(1, 6)
        A = [[rand_entry(rng, R) for _ in range(n)] for _ in range(n)]
        assert ring_det(R, A, n) == bird_det(R, A, n)


def test_ring_det_without_unit_entries_is_pure_bird(monkeypatch):
    rng = random.Random(18)
    cases = []
    for trial in range(40):
        R = ORACLE_RINGS[trial % len(ORACLE_RINGS)]
        n = rng.randint(1, 4)
        cases.append((R, n, [[rand_non_unit(rng, R) for _ in range(n)] for _ in range(n)]))
    expected = [bird_det(R, A, n) for R, n, A in cases]
    sizes = core_sizes(monkeypatch)
    assert [ring_det(R, A, n) for R, n, A in cases] == expected
    assert sizes == [n for _, n, _ in cases]


def test_ring_det_of_singular_matrices_is_zero():
    rng = random.Random(19)
    for trial in range(40):
        R = ORACLE_RINGS[trial % len(ORACLE_RINGS)]
        n = rng.randint(2, 5)
        A = [[rand_entry(rng, R) for _ in range(n)] for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        kind = trial % 3
        if kind == 0:
            A[i] = [R.zero()] * n
        elif kind == 1:
            A[i] = list(A[j])
        else:
            # row i becomes a ring multiple of row j
            f = rand_unit(rng, R) + rand_entry(rng, R)
            A[i] = [f * x for x in A[j]]
        assert bird_det(R, A, n).is_zero
        assert ring_det(R, A, n).is_zero


def test_ring_det_leaves_the_non_unit_core_to_bird(monkeypatch):
    # a diagonal block of trivial units beside a core of non-units, with
    # rows and columns shuffled: elimination takes every unit pivot and
    # hands exactly the core to Bird.  In every fourth draw one unit row
    # is +-g^m times another, so elimination empties it and the
    # determinant is 0 without Bird
    rng = random.Random(20)
    cases = []
    for trial in range(80):
        R = ORACLE_RINGS[trial % len(ORACLE_RINGS)]
        singular = trial % 4 == 3
        u, k = rng.randint(2 if singular else 1, 4), 1 + trial % 3
        n = u + k
        A = [[R.zero()] * n for _ in range(n)]
        for i in range(u):
            A[i][i] = rand_unit(rng, R)
            for j in range(u, n):
                if rng.random() < 0.6:
                    A[i][j] = rand_non_unit(rng, R)
        for i in range(u, n):
            for j in range(u, n):
                A[i][j] = rand_non_unit(rng, R)
        if singular:
            g = rand_unit(rng, R)
            A[1] = [g * x for x in A[0]]
        rows, cols = list(range(n)), list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        A = [[A[i][j] for j in cols] for i in rows]
        sparse = {i: {j: x for j, x in enumerate(row) if not x.is_zero} for i, row in enumerate(A)}
        co._eliminate(sparse, {i: {} for i in sparse})
        if singular:
            assert not all(sparse.values())
        else:
            assert len(sparse) == k and all(len(row) == k for row in sparse.values())
        cases.append((R, n, None if singular else k, A))
    expected = [bird_det(R, A, n) for R, n, _, A in cases]
    assert all(det.is_zero for (_, _, k, _), det in zip(cases, expected) if k is None)
    sizes = core_sizes(monkeypatch)
    assert [ring_det(R, A, n) for R, n, _, A in cases] == expected
    assert sizes == [k for _, _, k, _ in cases if k is not None]


def test_ring_det_reads_only_the_leading_block():
    rng = random.Random(21)
    for trial in range(40):
        R = ORACLE_RINGS[trial % len(ORACLE_RINGS)]
        n = rng.randint(1, 4)
        A = [[rand_entry(rng, R) for _ in range(n + 2)] for _ in range(n + 2)]
        lead = [row[:n] for row in A[:n]]
        assert ring_det(R, A, n) == bird_det(R, A, n) == bird_det(R, lead, n)


def test_try_inverse_trivial_and_cyclic():
    assert try_inverse(Z.monomial(0, -1))[0] == Z.monomial(0, -1)
    assert try_inverse(Z.monomial(0, 2))[0] is None
    g = C5.monomial(1)
    u = g + g**4 - C5.one()
    inv, reason = try_inverse(u)
    assert reason is None
    assert u * inv == C5.one()
    bad, reason = try_inverse(C5.one() + g)
    assert bad is None and "determinant" in reason


def test_try_inverse_laurent():
    # the units are +-t^k (Higman), so anything else fails on its support
    # or its coefficient, and the reason names which
    t = LAU.monomial(1)
    inv, _ = try_inverse(-(t**3))
    assert inv == -LAU.monomial(-3)
    assert try_inverse(LAU.one() + t) == (None, "support spans exponents 0..1")
    assert try_inverse(LAU.monomial(2, 3)) == (None, "coefficient 3 is not +-1")
    assert try_inverse(LAU.monomial(-2, -2)) == (None, "coefficient -2 is not +-1")


def _no_ring_solve(*args):
    raise AssertionError("ring_solve ran")


def test_try_inverse_laurent_monomials_need_no_search(monkeypatch):
    # every solve goes through _ring_solve, so a monomial that reached one fails
    monkeypatch.setattr(co, "_ring_solve", _no_ring_solve)
    for R in (LAU, LAUw):
        for k in (-4, 0, 5):
            for c in (1, -1):
                inv, reason = try_inverse(R.monomial(k, c))
                assert reason is None and inv == R.monomial(-k, c)


@given(st.dictionaries(st.integers(-5, 5), st.integers(-3, 3), min_size=1, max_size=4),
       st.sampled_from((LAU, LAUw)))
@settings(max_examples=100, deadline=None)
def test_try_inverse_laurent_monomials_skip_ring_solve(terms, R):
    # no Laurent element reaches ring_solve: u has an inverse exactly when
    # it is +-t^k, and every other nonzero u gets a reason
    u = R.from_terms(terms)
    with mock.patch.object(co, "ring_solve", _no_ring_solve):
        inv, reason = try_inverse(u)
    t = u.terms()
    if len(t) == 1 and set(t.values()) <= {1, -1}:
        (k, c), = t.items()
        assert reason is None and inv == R.monomial(-k, c)
    else:
        assert inv is None and reason


def test_unit_class_normalization():
    t = LAU.monomial(1)
    assert UnitClass.from_element(-(t**4)).is_trivial
    assert UnitClass.from_element(LAU.one()) == UnitClass.from_element(t)
    g = C5.monomial(1)
    u = g + g**4 - C5.one()
    cu = UnitClass.from_element(u)
    assert cu == UnitClass.from_element(-(g**3) * u)
    assert not cu.is_trivial
    assert (cu * cu.inv()).is_trivial
    assert cu**0 == UnitClass.one(C5)


def test_trivial_cyclic_class_is_represented_by_one():
    g = C5.monomial(1)
    for k in range(5):
        for s in (1, -1):
            assert UnitClass.from_element(C5.monomial(k, s)).normalized() == C5.one()
    u = g + g**4 - C5.one()
    reps = {UnitClass.from_element(C5.monomial(k, s) * u).normalized()
            for k in range(5) for s in (1, -1)}
    assert len(reps) == 1
    assert reps != {C5.one()}
    assert hash(UnitClass.from_element(u)) == hash(UnitClass.from_element(-(g**2) * u))


@given(st.lists(st.tuples(st.integers(-6, 6), st.sampled_from((1, -1))),
                min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_every_laurent_unit_class_is_trivial(monomials):
    # the units of Z[t,t^-1] are +-t^k, so products of them and the
    # determinants of unimodular matrices built from them are trivial
    for R in (LAU, LAUw):
        cls = UnitClass.one(R)
        for e, s in monomials:
            cls = cls * UnitClass.from_element(R.monomial(e, s))
        assert cls.is_trivial
        assert cls.normalized() == R.one()
        e, s = monomials[0]
        t = R.monomial(1)
        A = [[R.monomial(e, s), R.one() + t], [R.zero(), R.monomial(-e, 1)]]
        assert det_unit_class(R, A, 2).is_trivial
    with pytest.raises(ValueError, match="not a unit"):
        UnitClass.from_element(LAU.one() + LAU.monomial(1))


def test_det_unit_class():
    t = LAU.monomial(1)
    one = LAU.one()
    A = [[t, one], [LAU.zero(), -(t**2)]]
    u = det_unit_class(LAU, A, 2)
    assert u.is_trivial
    B = [[one + t, LAU.zero()], [LAU.zero(), one]]
    with pytest.raises(ValueError):
        det_unit_class(LAU, B, 2)
    g = C5.monomial(1)
    M = [[g + g**4 - C5.one()]]
    assert not det_unit_class(C5, M, 1).is_trivial


def test_involve_transpose_is_involutive_on_matrices():
    t = LAUw.monomial(1)
    A = [[t, LAUw.one() + t], [LAUw.zero(), t**2]]
    B = rmat_involve_transpose(rmat_involve_transpose(A, 2, 2), 2, 2)
    assert B == A


# ---------------------------------------------------------------------------
# ring solving
# ---------------------------------------------------------------------------


def test_ring_solve_trivial():
    A = rmat_from_int(Z, [[2, 0], [0, 3]])
    B = rmat_from_int(Z, [[4], [9]])
    X = ring_solve(Z, A, B)
    assert X == rmat_from_int(Z, [[2], [3]])
    assert ring_solve(Z, A, rmat_from_int(Z, [[1], [0]])) is None


def test_ring_solve_cyclic():
    g = C6.monomial(1)
    u = C6.one() - g  # not a unit, but (1 - g) x = 1 - g^2 solves with x = 1 + g
    A = [[u]]
    B = [[C6.one() - g**2]]
    X = ring_solve(C6, A, B)
    assert X is not None
    assert (u * X[0][0]) == B[0][0]


def test_ring_solve_laurent():
    t = LAU.monomial(1)
    A = [[t, LAU.one()], [LAU.zero(), t - LAU.one()]]
    X0 = [[LAU.monomial(-1)], [LAU.one() + t]]
    B = rmat_mul(LAU, A, X0, 2, 2, 1)
    X = ring_solve(LAU, A, B, 2, 2, 1)
    assert X is not None
    assert rmat_mul(LAU, A, X, 2, 2, 1) == B


def test_a_laurent_window_miss_carries_its_window():
    # 1 + t + t^2 solves (1 - t) x = 1 - t^3 outside the window -1..1; the
    # default window is max(2, 2 * spread), and a function is called for it
    t, one = LAU.monomial(1), LAU.one()
    assert dense_ring_solve(LAU, [[one - t]], [[one - t**3]], 1, 1, 1, window=1) == (None, ("window", 1))
    assert dense_ring_solve(LAU, [[one + t]], [[one]], 1, 1, 1) == (None, ("window", 2))
    assert dense_ring_solve(LAU, [[one + t**3]], [[one]], 1, 1, 1) == (None, ("window", 6))
    assert dense_ring_solve(LAU, [[one + t]], [[one]], 1, 1, 1, lambda: 3) == (None, ("window", 3))
    # over Z[C_5] the expansion is exact, and the same miss is a proof
    assert dense_ring_solve(C5, [[C5.one() + C5.monomial(1)]], [[C5.one()]], 1, 1, 1) == (None, "no solution")


def test_a_homogeneous_core_needs_no_expansion(monkeypatch):
    # no entry of A is a trivial unit, so elimination leaves the whole
    # system as its core; with B = 0 the zero matrix solves it, and the
    # integer expansion (an SNF of 45 x 27 in the default window) never runs
    def no_expansion(*args):
        raise AssertionError("the integer expansion ran")

    monkeypatch.setattr(co, "_expansion_solve", no_expansion)
    t, z = LAU.monomial, LAU.zero()
    A = [[t(-2, -3) + t(-1, 2), z, t(-2, 3)],
         [t(-1, -3), z, z],
         [z, t(-1, -3) + t(1, 3), t(-2, -2) + t(0, 3)]]
    for c in (1, 2):
        B = rmat_zero(LAU, 3, c)
        assert dense_ring_solve(LAU, A, B, 3, 3, c) == (rmat_zero(LAU, 3, c), None)
        assert ring_solve(LAU, A, B, 3, 3, c) == rmat_zero(LAU, 3, c)
    # a nonzero right-hand side on the core still goes to the expansion
    with pytest.raises(AssertionError, match="expansion ran"):
        ring_solve(LAU, A, [[z], [z], [LAU.one()]], 3, 3, 1)


def test_sparse_products_and_blocks_keep_columns_ascending():
    # _eliminate picks its pivots in the order a row lists its columns, so
    # every built row lists them ascending, as reading a dense row does:
    # here the product meets column 1 before column 0, and the blocks are
    # given right to left
    one, g = C5.one(), C5.monomial(1)
    P = co._rmul([{0: one, 1: g}], [{1: g}, {0: one}])
    assert P == [{0: g, 1: g}] and [list(row) for row in P] == [[0, 1]]
    M = co._blocks((1, 1), (2, 1), {(1, 1): [{0: g}], (0, 1): [{0: one}], (1, 0): [{1: one}]})
    assert M == [{2: one}, {1: one, 2: g}] and [list(row) for row in M] == [[2], [1, 2]]


def test_ring_solve_zero_columns():
    B = [[LAU.zero()]]
    assert ring_solve(LAU, [[]], B, 1, 0, 1) == []
    assert ring_solve(LAU, [[]], [[LAU.one()]], 1, 0, 1) is None


@settings(max_examples=40)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_ring_solve_cyclic_roundtrip(a0, a1, x0, x1):
    A = [[GroupRingElt(C5, {0: a0, 1: a1})]]
    X0 = [[GroupRingElt(C5, {0: x0, 2: x1})]]
    B = rmat_mul(C5, A, X0, 1, 1, 1)
    X = ring_solve(C5, A, B, 1, 1, 1)
    assert X is not None
    assert rmat_mul(C5, A, X, 1, 1, 1) == B


def small_entry(rng, R):
    # zero, or a sum of at most two terms with exponents in -1..1
    if R.kind == TRIVIAL:
        return R.monomial(0, rng.randint(-2, 2))
    return sum((R.monomial(rng.randint(-1, 1), rng.choice((1, -1, 2)))
                for _ in range(rng.randint(0, 2))), R.zero())


def small_mat(rng, R, r, c):
    return [[small_entry(rng, R) for _ in range(c)] for _ in range(r)]


def two_sided(R, L, X, Rm, k, l):
    """L*X*Rm, with None standing for the identity on either side."""
    L = rmat_eye(R, k) if L is None else L
    Rm = rmat_eye(R, l) if Rm is None else Rm
    LX = rmat_mul(R, L, X, len(L), k, l)
    return rmat_mul(R, LX, Rm, len(L), l, len(Rm[0]) if Rm else 0)


@pytest.mark.parametrize("R", [Z, C5, LAU, LAUw], ids=["Z", "C5", "laurent", "laurent-twisted"])
def test_ring_solve_multi_two_sided_systems(R):
    rng = random.Random(51)
    for _ in range(4):
        k, l = rng.randint(1, 2), rng.randint(1, 2)
        X0 = small_mat(rng, R, k, l)
        eqs = []
        for _ in range(rng.randint(2, 3)):
            L = None if rng.random() < 0.25 else small_mat(rng, R, rng.randint(1, 2), k)
            Rm = None if rng.random() < 0.25 else small_mat(rng, R, l, rng.randint(1, 2))
            eqs.append((L, Rm, two_sided(R, L, X0, Rm, k, l)))
        X = ring_solve_multi(R, (k, l), eqs)
        assert X is not None and len(X) == k and all(len(row) == l for row in X)
        for L, Rm, B in eqs:
            assert two_sided(R, L, X, Rm, k, l) == B
    # one two-sided equation, and a single right-sided one, whose right
    # factor is invertible, so that X = X0 is forced
    g = R.one() if R.kind == TRIVIAL else R.monomial(1)
    X0 = [[R.one() + g, R.zero()], [g, R.one()]]
    L, Rm = [[R.monomial(0, 2), g]], [[g, R.one()], [R.one(), R.zero()]]
    for eq in ((L, Rm, two_sided(R, L, X0, Rm, 2, 2)), (None, Rm, two_sided(R, None, X0, Rm, 2, 2))):
        X = ring_solve_multi(R, (2, 2), [eq])
        assert X is not None and two_sided(R, eq[0], X, eq[1], 2, 2) == eq[2]
    assert X == X0


def test_ring_solve_multi_inconsistent_systems():
    # X = 1 and X = 2 together
    one, two = [[Z.one()]], [[Z.monomial(0, 2)]]
    assert ring_solve_multi(Z, (1, 1), [(None, None, one), (None, None, two)]) is None
    # 2 X 3 = 1 has no integer solution
    assert ring_solve_multi(Z, (1, 1), [(two, [[Z.monomial(0, 3)]], one)]) is None
    # 1 + g is not a unit of Z[C_5] (augmentation 2), so (1 + g) X g = 1 fails
    g = C5.monomial(1)
    assert ring_solve_multi(C5, (1, 1), [([[C5.one() + g]], [[g]], [[C5.one()]])]) is None
    # consistent one at a time, inconsistent together: X g = 1 and X = 1
    assert ring_solve_multi(C5, (1, 1), [(None, [[g]], [[C5.one()]]),
                                         (None, None, [[C5.one()]])]) is None


def test_ring_solve_multi_rejects_factors_that_do_not_fit():
    # X is 1 x 2: R needs 2 rows, and L one column and a row per row of B
    one = C5.one()
    with pytest.raises(ValueError, match="has not 2 rows"):
        ring_solve_multi(C5, (1, 2), [(None, [[one]], [[one]]), (None, None, [[one, one]])])
    with pytest.raises(ValueError, match="is not 1 x 1"):
        ring_solve_multi(C5, (1, 2), [([[one, one]], None, [[one, one]]), (None, None, [[one, one]])])
    with pytest.raises(ValueError, match="is not 1 x 1"):
        ring_solve_multi(C5, (1, 2), [([[one], [one]], None, [[one, one]]), (None, None, [[one, one]])])


@pytest.mark.parametrize("R", [Z, C5, LAU], ids=["Z", "C5", "laurent"])
def test_ring_solve_multi_empty_unknowns(R):
    zero_rhs = rmat_from_int(R, [[0, 0]])
    assert ring_solve_multi(R, (0, 2), [([[]], None, zero_rhs)]) == []
    assert ring_solve_multi(R, (0, 2), [([[]], None, rmat_from_int(R, [[0, 1]]))]) is None
    assert ring_solve_multi(R, (2, 0), [(None, None, [[], []])]) == [[], []]
    eqs = [(None, None, [[], []]), ([[R.one(), R.one()]], None, [[]])]
    assert ring_solve_multi(R, (2, 0), eqs) == [[], []]


# Outputs of the ring solvers on seeded random inputs over Z and the
# oracle rings, recorded while every solver still built its own integer
# system.  A solution is read off the Smith form of that system, so a
# shared expansion has to reproduce each system entry for entry.
RING_SOLVE_GOLDEN = Path(__file__).resolve().parent / "data" / "ring-solve-random.json"
SOLVE_RINGS = (Z,) + ORACLE_RINGS


def solve_entry(rng, R):
    if R.kind == TRIVIAL:
        return R.monomial(0, rng.choice((0, 0, 1, -1, 2, -3)))
    return rand_entry(rng, R)


def jmat(M):
    return None if M is None else [[x.to_json() for x in row] for row in M]


def ring_solve_cases():
    rng = random.Random(5683)
    out = []
    for trial in range(120):
        R = SOLVE_RINGS[trial % len(SOLVE_RINGS)]
        r, k, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 2)
        A = [[solve_entry(rng, R) for _ in range(k)] for _ in range(r)]
        if rng.random() < 0.7:
            X0 = [[solve_entry(rng, R) for _ in range(c)] for _ in range(k)]
            B = rmat_mul(R, A, X0, r, k, c)
        else:
            B = [[solve_entry(rng, R) for _ in range(c)] for _ in range(r)]
        window = rng.choice((None, None, 1, 3)) if R.kind == INFINITE_CYCLIC else None
        # the public solvers search only their own window; an entry
        # recorded with another one is solved in it by _ring_solve
        if window is not None:
            X = dense_ring_solve(R, A, B, r, k, c, window)[0]
        elif trial % 3:
            X = ring_solve(R, A, B, r, k, c)
        else:
            X = ring_solve_multi(R, (k, c), [(A, None, B)])
        out.append({"ring": R.to_json(), "solver": "ring_solve" if trial % 3 else "ring_solve_multi",
                    "shape": [r, k, c], "window": window, "A": jmat(A), "B": jmat(B), "X": jmat(X)})
    g = C5.monomial(1)
    u = g + g**4 - C5.one()
    for trial in range(60):
        R = SOLVE_RINGS[trial % len(SOLVE_RINGS)]
        x = solve_entry(rng, R)
        if R == C5 and rng.random() < 0.5:
            x = x * u ** rng.randint(1, 3) if not x.is_zero else u
        # try_inverse searches no window; the draw and the field keep the
        # random stream and the layout of the recorded entries
        window = rng.choice((None, 1)) if R.kind == INFINITE_CYCLIC else None
        inv, reason = try_inverse(x)
        out.append({"ring": R.to_json(), "solver": "try_inverse", "window": window,
                    "u": x.to_json(), "inverse": None if inv is None else inv.to_json(),
                    "reason": reason})
    for trial in range(36):
        R = ORACLE_RINGS[trial % 3]
        if trial < 18:
            x = rand_entry(rng, R)
            out.append({"ring": R.to_json(), "solver": "element_regular_rep",
                        "u": x.to_json(), "matrix": element_regular_rep(x)})
        else:
            r0, r1 = rng.randint(0, 3), rng.randint(1, 3)
            C = BasedComplex(R, {0: r0, 1: r1},
                             {1: [[rand_entry(rng, R) for _ in range(r1)] for _ in range(r0)]})
            reg = change_of_rings(C, "regular")
            out.append({"ring": R.to_json(), "solver": "change_of_rings", "d1": jmat(C.boundary(1)),
                        "regular": [[x.coeff(0) for x in row] for row in reg.boundary(1)]})
    return out


def test_ring_solvers_match_recorded_outputs():
    recorded = json.loads(RING_SOLVE_GOLDEN.read_text())
    cases = ring_solve_cases()
    assert len(cases) == len(recorded)
    for now, then in zip(cases, recorded):
        assert now == then


WRITERS = {"--write-snf": (SNF_GOLDEN, sparse_snf_cases),
           "--write-ring-solve": (RING_SOLVE_GOLDEN, ring_solve_cases)}


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in WRITERS:
        sys.exit("usage: PYTHONPATH=src python tests/test_coefficients.py "
                 "--write-snf | --write-ring-solve")
    path, cases = WRITERS[sys.argv[1]]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(cases()) + "\n")
    print(f"wrote {path}")
