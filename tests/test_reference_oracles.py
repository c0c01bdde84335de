"""The block assembly and the orientation search against loop references.

The references below are the earlier hand-written forms: direct sums,
mapping cones, tensor products, the odd-to-even matrix and sums of K1
classes each laid their blocks out with their own offset loops, and the
orientation search ran list-based GF(2) eliminations and read the full
twisted homology of every candidate.  The package now places every block
through coefficients._blocks and decides each twist class with one rank;
these tests hold the two forms equal on the corpus and on hypothesis
draws, and keep full homology as an independent oracle for every
character returned.

Smith normal forms were once computed on dense lists of rows, with row
and column steps over every entry, and returned U, D, V and V^-1 as
dense matrices; smith_normal_form now eliminates on sparse rows and
returns the diagonal with its logs of steps, which are replayed into
the factors only when read.  The dense elimination is kept below as the
reference, and the replayed factors must agree with it on U, D, V and
V^-1, entry for entry, because kernel bases, solutions and cycle
coordinates are read off them.  FgAbelian.lift once factored U again to
invert it; it now replays the row steps as inverse steps, and the
earlier lift is kept below as the reference.

Presented (co)homology once factored the kernel basis it had just built,
to get a coordinate solver, and factored each boundary again for every
group that read it; it now factors each boundary of a complex once and
reads cycle coordinates off the inverse of that factorization's V.  The
three-factorization form is kept below as the reference, with the
two-factorization integer torsion.

Whether a map of presented groups is an isomorphism, and exactness at a
presented group, were once decided by factoring [F | relations] on the
full cycle-basis generators; they are now decided on the map in Smith
coordinates, one row per coordinate of the target.  The full
factorization is kept below as the reference: both must reach the same
verdict and name the same cokernel generator, and their inverses must
agree as maps, on random groups and on groups presented, as cycle bases
are, on many more generators than Smith coordinates.

ring_solve once expanded every system to integers, and find_contraction
fell back to a second, windowed search whenever elimination on trivial
units left a core.  Both now eliminate on trivial units first and expand
only the core that elimination leaves undecided.  The expansion-only
solve and contraction search are kept below as references: over Z and
Z[C_5] the two solves must agree on whether a solution exists, over
Z[t,t^-1] exact-first must find one whenever the window does, and
torsion's determinant tests compare contractions against the search.

Ring elements once added and multiplied through their terms() dicts,
rebuilding the canonical form from a dict every time; they now compute
on the canonical (shift, coeffs) tuples.  The dict arithmetic is kept
below as the reference, and the two must give identical canonical
forms.  Integer boundary complexes were once the equivariant complex
over Z with zero voltage, a ring element per entry; boundary_complex now
builds integer matrices, and the zero-voltage complex is their reference.

The voltages of the torus and Klein bottle grids were once two copies
of one loop, the wrapped change of a grid coordinate along each edge;
corpus now reads both off one helper, and the two loops are kept below
as its reference.

stabilize once built the padded standard partition to intersect with,
listed every free slot of every node, collected tau node by node from
tagged elements and serialized and validated lambda even when it equals
tau; validate_partition walked every label of every node.  It now builds
tau from the leaves up, keeps the slots of tau that lie in rho without
building rho, copies tau's JSON and report when the sets agree, and runs
set tests before any witness loop.  Both earlier forms are kept below,
and the two must return equal results.  Nothing in the package builds
rho_n any more; ref_padded_standard_partition builds it here.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import propalg.coefficients as co
import propalg.corpus as corpus
from propalg.chains import (
    BasedComplex,
    ChainHomotopy,
    ChainMap,
    _contraction_windows,
    _int_boundary,
    cohomology_presentation,
    cone,
    direct_sum,
    find_contraction,
    homology_presentation,
    is_contraction_through,
    tensor,
)
from propalg.coefficients import (
    FgAbelian,
    GroupRingElt,
    GroupSpec,
    UnitClass,
    _cokernel,
    _combine,
    _compose,
    _expansion,
    _maps_agree,
    _quotient_on_lattice,
    _require_hom,
    _ring_solve,
    _Smith,
    _unit,
    ring_solve,
    rmat_eye,
    rmat_mul,
    rmat_sub,
    rmat_to_int,
    rmat_zero,
    snf_solver,
)
from propalg.corpus import (
    EQUIVARIANT,
    SPACES,
    interval,
    klein_grid,
    moebius5,
    random_fg_with_orders,
    random_hom_matrix,
    rp2_6,
    sphere2,
    torus7,
)
from propalg.simplicial_products import (
    barycentric,
    boundary_complex,
    equivariant_complex,
    find_orientation_character,
    make_space,
    product_space,
    space_homology,
)
from propalg.torsion import K1Class, _free_quotient_basis, _odd_to_even, torsion_with_homology
from propalg.tree_modules import (
    Partition,
    _exit_blocks,
    _sorted_labels,
    required_copies,
    shifted_standard_partition,
    stabilize,
    validate_partition,
)
from dense_reference import eye, mat_mul, mat_vec, transpose
from test_coefficients import snf_factors
from test_tree_modules import shuffled_partitions

Z = GroupSpec("trivial")
C5 = GroupSpec("cyclic", 5)
C4w = GroupSpec("cyclic", 4, character=-1)
LAU = GroupSpec("infinite-cyclic")


# ---------------------------------------------------------------------------
# the loop-based references
# ---------------------------------------------------------------------------


def _ref_row_sub(M, i, t, q):
    Mi = M[i]
    for j, m in enumerate(M[t]):
        if m:
            Mi[j] -= q * m


def _ref_col_sub(M, j, t, q):
    for row in M:
        m = row[t]
        if m:
            row[j] -= q * m


def ref_smith_normal_form(mat, nrows=None, ncols=None):
    # the dense elimination: the first smallest nonzero entry in row-major
    # order is the pivot, and every step touches whole rows and columns
    r = len(mat) if nrows is None else nrows
    c = (len(mat[0]) if mat else 0) if ncols is None else ncols
    A = [list(map(int, row)) for row in mat] if r else []
    U = eye(r)
    V, Vinv = eye(c), eye(c)
    t = 0
    while t < r and t < c:
        best = None
        for i in range(t, r):
            for j in range(t, c):
                a = A[i][j]
                if a and (best is None or abs(a) < best[0]):
                    best = (abs(a), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
            for row in V:
                row[t], row[pj] = row[pj], row[t]
            Vinv[t], Vinv[pj] = Vinv[pj], Vinv[t]
        while True:
            dirty = False
            for i in range(t + 1, r):
                while A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        _ref_row_sub(A, i, t, q)
                        _ref_row_sub(U, i, t, q)
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        U[t], U[i] = U[i], U[t]
                        dirty = True
            for j in range(t + 1, c):
                while A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        _ref_col_sub(A, j, t, q)
                        _ref_col_sub(V, j, t, q)
                        _ref_row_sub(Vinv, t, j, -q)
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        for row in V:
                            row[t], row[j] = row[j], row[t]
                        Vinv[t], Vinv[j] = Vinv[j], Vinv[t]
                        dirty = True
            if dirty:
                continue
            d = A[t][t]
            if d in (1, -1):
                break
            offender = None
            for i in range(t + 1, r):
                if any(A[i][j] % d for j in range(t + 1, c)):
                    offender = i
                    break
            if offender is None:
                break
            _ref_row_sub(A, t, offender, -1)
            _ref_row_sub(U, t, offender, -1)
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, A, V, Vinv


def ref_lift(G, z):
    # FgAbelian.lift as it was, on U from the dense elimination: U is
    # inverted by factoring it again and solving for each unit vector
    U, moduli = ref_smith_normal_form(G.relations, G.ngens, G.nrels)[0], G._moduli()
    keep = [i for i, d in enumerate(moduli) if d != 1]
    if len(z) != len(keep):
        raise ValueError(f"{len(z)} coordinates given, the group has {len(keep)}")
    n = G.ngens
    solve = snf_solver(U, n, n)
    uinv = transpose([solve(e) for e in eye(n)], n)
    full = [0] * G.ngens
    for i, x in zip(keep, z):
        full[i] = x
    return mat_vec(uinv, full)


def ref_direct_sum(C, D):
    ring = C.ring
    ranks = {}
    for k in set(C.ranks) | set(D.ranks):
        ranks[k] = C.rank(k) + D.rank(k)
    bnd = {}
    lo = min(ranks) if ranks else 0
    hi = max(ranks) if ranks else -1
    for k in range(lo + 1, hi + 1):
        r, c = C.rank(k - 1) + D.rank(k - 1), C.rank(k) + D.rank(k)
        M = rmat_zero(ring, r, c)
        A, B = C.boundary(k), D.boundary(k)
        for i in range(C.rank(k - 1)):
            for j in range(C.rank(k)):
                M[i][j] = A[i][j]
        for i in range(D.rank(k - 1)):
            for j in range(D.rank(k)):
                M[C.rank(k - 1) + i][C.rank(k) + j] = B[i][j]
        bnd[k] = M
    labels = {}
    for k in set(C.labels) | set(D.labels) | set(ranks):
        labels[k] = [C.label(k, i) for i in range(C.rank(k))] + [D.label(k, i) for i in range(D.rank(k))]
    return BasedComplex(ring, ranks, bnd, labels)


def ref_cone(f):
    A, B = f.source, f.target
    ring = A.ring
    ranks = {}
    for k in range(min(A.lo + 1, B.lo), max(A.hi + 1, B.hi) + 1):
        r = A.rank(k - 1) + B.rank(k)
        if r:
            ranks[k] = r
    bnd = {}
    lo = min(ranks) if ranks else 0
    hi = max(ranks) if ranks else -1
    for k in range(lo + 1, hi + 1):
        M = rmat_zero(ring, A.rank(k - 2) + B.rank(k - 1), A.rank(k - 1) + B.rank(k))
        dA = A.boundary(k - 1)
        for i in range(A.rank(k - 2)):
            for j in range(A.rank(k - 1)):
                M[i][j] = -dA[i][j]
        F = f.mat(k - 1)
        for i in range(B.rank(k - 1)):
            for j in range(A.rank(k - 1)):
                M[A.rank(k - 2) + i][j] = -F[i][j]
        dB = B.boundary(k)
        for i in range(B.rank(k - 1)):
            for j in range(B.rank(k)):
                M[A.rank(k - 2) + i][A.rank(k - 1) + j] = dB[i][j]
        bnd[k] = M
    labels = {}
    for k in ranks:
        labels[k] = [f"a.{A.label(k - 1, i)}" for i in range(A.rank(k - 1))] + \
                    [f"b.{B.label(k, i)}" for i in range(B.rank(k))]
    return BasedComplex(ring, ranks, bnd, labels)


def ref_tensor(C, D):
    ring = C.ring

    def tensor_basis(n):
        out = []
        for p in range(C.lo, C.hi + 1):
            q = n - p
            if C.rank(p) and D.rank(q):
                for i in range(C.rank(p)):
                    for j in range(D.rank(q)):
                        out.append((p, i, j))
        return out

    lo, hi = C.lo + D.lo, C.hi + D.hi
    bases = {n: tensor_basis(n) for n in range(lo, hi + 1)}
    ranks = {n: len(b) for n, b in bases.items() if b}
    bnd = {}
    for n in range(lo + 1, hi + 1):
        src, dst = bases[n], bases[n - 1]
        index = {key: i for i, key in enumerate(dst)}
        M = rmat_zero(ring, len(dst), len(src))
        for col, (p, i, j) in enumerate(src):
            q = n - p
            dC = C.boundary(p)
            for i2 in range(C.rank(p - 1)):
                x = dC[i2][i]
                if not x.is_zero:
                    row = index[(p - 1, i2, j)]
                    M[row][col] = M[row][col] + x
            dD = D.boundary(q)
            sgn = -1 if p % 2 else 1
            for j2 in range(D.rank(q - 1)):
                y = dD[j2][j].coeff(0)
                if y:
                    row = index[(p, i, j2)]
                    M[row][col] = M[row][col] + ring.monomial(0, sgn * y)
        bnd[n] = M
    labels = {n: [f"{C.label(p, i)}*{D.label(n - p, j)}" for (p, i, j) in b]
              for n, b in bases.items() if b}
    return BasedComplex(ring, ranks, bnd, labels)


def ref_odd_to_even(C, D):
    ring = C.ring
    odd = [k for k in C.degrees() if k % 2]
    even = [k for k in C.degrees() if k % 2 == 0]
    odd_rank = sum(C.rank(k) for k in odd)
    even_rank = sum(C.rank(k) for k in even)
    roff, off = {}, 0
    for k in even:
        roff[k] = off
        off += C.rank(k)
    coff, off = {}, 0
    for k in odd:
        coff[k] = off
        off += C.rank(k)
    M = [[ring.zero()] * odd_rank for _ in range(even_rank)]
    for k in odd:
        dn = C.boundary(k)
        if k - 1 in roff:
            for i in range(C.rank(k - 1)):
                for j in range(C.rank(k)):
                    M[roff[k - 1] + i][coff[k] + j] = dn[i][j]
        if k + 1 in roff:
            H = D.mat(k)
            for i in range(C.rank(k + 1)):
                for j in range(C.rank(k)):
                    M[roff[k + 1] + i][coff[k] + j] = H[i][j]
    return M


def ref_subquotient_presentation(out_mat, in_mat, dim, out_rows, in_cols):
    # factor d_out for its kernel basis, factor that basis again for the
    # coordinate solver, and factor d_in for the image
    Kb = _Smith(out_mat, out_rows, dim).kernel()
    return _quotient_on_lattice(Kb, snf_solver(transpose(Kb, dim), dim, len(Kb)),
                                _Smith(in_mat, dim, in_cols).image())


def ref_presentation(C, k, dual):
    # homology_presentation(C, k), or cohomology_presentation when dual
    d_k, d_up = rmat_to_int(C.boundary(k)), rmat_to_int(C.boundary(k + 1))
    if dual:
        return ref_subquotient_presentation(transpose(d_up, C.rank(k + 1)),
                                            transpose(d_k, C.rank(k)),
                                            C.rank(k), C.rank(k + 1), C.rank(k - 1))
    return ref_subquotient_presentation(d_k, d_up, C.rank(k), C.rank(k - 1), C.rank(k + 1))


def ref_integer_torsion(C, homology_bases):
    # torsion_with_homology over Z as it was: each boundary factored for
    # its image basis, then again to lift the basis below
    bound_basis = {}
    for k in range(C.lo + 1, C.hi + 1):
        bound_basis[k - 1] = _Smith(rmat_to_int(C.boundary(k)), C.rank(k - 1), C.rank(k)).image()
    out = K1Class.trivial(C.ring)
    for n in C.degrees():
        cols = list(bound_basis.get(n, [])) + [list(v) for v in homology_bases.get(n, [])]
        below = bound_basis.get(n - 1, [])
        if below:
            solve = snf_solver(rmat_to_int(C.boundary(n)), C.rank(n - 1), C.rank(n))
            cols.extend(solve(b) for b in below)
        assert len(cols) == C.rank(n)
        if cols:
            cls = K1Class.from_matrix(C.ring, [[C.ring.monomial(0, x) for x in row]
                                               for row in transpose(cols, C.rank(n))])
            out = out * (cls if n % 2 == 0 else cls.inv())
    return out


def ref_k1_sum(a, b):
    n, m = len(a.mat), len(b.mat)
    ring = a.ring
    block = [[ring.zero()] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            block[i][j] = a.mat[i][j]
    for i in range(m):
        for j in range(m):
            block[n + i][n + j] = b.mat[i][j]
    return block


def ref_gf2_solve_span(vectors, target):
    rows = [list(v) for v in vectors]
    pivots = []
    for row in rows:
        row = [x % 2 for x in row]
        for pcol, prow in pivots:
            if row[pcol]:
                row = [(a + b) % 2 for a, b in zip(row, prow)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            pivots.append((lead, row))
    t = [x % 2 for x in target]
    for pcol, prow in pivots:
        if t[pcol]:
            t = [(a + b) % 2 for a, b in zip(t, prow)]
    return not any(t)


def ref_orientation_character(K):
    edges = K.simplices_of(1)
    eidx = {e: i for i, e in enumerate(edges)}
    rows = []
    for (a, b, c) in K.simplices_of(2):
        row = [0] * len(edges)
        for e in ((a, b), (b, c), (a, c)):
            row[eidx[e]] += 1
        rows.append(row)
    work = [[x % 2 for x in row] for row in rows]
    pivot_cols = []
    ri = 0
    for col in range(len(edges)):
        sel = next((r for r in range(ri, len(work)) if work[r][col]), None)
        if sel is None:
            continue
        work[ri], work[sel] = work[sel], work[ri]
        for r in range(len(work)):
            if r != ri and work[r][col]:
                work[r] = [(a + b) % 2 for a, b in zip(work[r], work[ri])]
        pivot_cols.append(col)
        ri += 1
    kernel = []
    for fc in (c for c in range(len(edges)) if c not in pivot_cols):
        v = [0] * len(edges)
        v[fc] = 1
        for r, pc in enumerate(pivot_cols):
            if work[r][fc]:
                v[pc] = 1
        kernel.append(v)
    cobs = [[1 if vtx in e else 0 for e in edges] for vtx in range(K.n)]
    reps = [[0] * len(edges)]
    for v in kernel:
        if ref_gf2_solve_span(cobs + [r for r in reps if any(r)], v):
            continue
        reps = reps + [[(a + b) % 2 for a, b in zip(r, v)] for r in reps]
    top = K.dim()
    for rep in reps:
        char = {e: -1 for e, bit in zip(edges, rep) if bit}
        h = space_homology(K.with_character(char), twisted=True, rel=bool(K.sub))
        if h.get(top) is not None and h[top].invariants() == (1, ()):
            return char
    return None


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _complex(entry):
    return entry[0] if isinstance(entry, tuple) else entry


BOUNDARY_SPACES = ("point", "interval", "circle3", "disk-pair", "sphere", "torus7", "rp2", "annulus")
# small enough to tensor with anything above
SMALL_SPACES = ("point", "interval", "circle3", "disk-pair")


def _scaled_identity(C, r):
    # r times the identity, a chain map because the rings are commutative
    return ChainMap(C, C, {k: [[r if i == j else C.ring.zero() for j in range(C.rank(k))]
                               for i in range(C.rank(k))] for k in C.degrees()})


@st.composite
def ring_complexes(draw, ring=None):
    """Equivariant complexes of small spaces, over Z, Z[C_5] or Z[t,t^-1].

    The voltage is a vertex potential's coboundary plus free values on
    edges in no triangle, so it is always a cocycle; a drawn subcomplex
    of vertices makes some of them relative.
    """
    ring = ring or draw(st.sampled_from((Z, C5, LAU)))
    n = draw(st.integers(1, 5))
    simplex = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    K = make_space(n, draw(st.lists(simplex, min_size=1, max_size=4)))
    f = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    in_triangle = {e for t in K.simplices_of(2) for e in itertools.combinations(t, 2)}
    voltage = {}
    if ring != Z:
        for a, b in K.simplices_of(1):
            free = 0 if (a, b) in in_triangle else draw(st.integers(-2, 2))
            voltage[(a, b)] = f[b] - f[a] + free
    sub = draw(st.lists(st.sampled_from(K.simplices_of(0)), max_size=2, unique=True))
    K = make_space(n, K.simplices, sub)
    return equivariant_complex(K, voltage, ring, rel=bool(sub) and draw(st.booleans()))


def _entry(ring):
    exps = st.just(0) if ring == Z else st.integers(-2, 2)
    return st.dictionaries(exps, st.integers(-2, 2), max_size=2).map(ring.from_terms)


# ---------------------------------------------------------------------------
# block assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EQUIVARIANT))
def test_equivariant_identity_cones_match_the_reference(name):
    C = _complex(EQUIVARIANT[name]())
    f = ChainMap.identity(C)
    cn = cone(f)
    assert cn.to_json() == ref_cone(f).to_json()
    assert direct_sum(C, C).to_json() == ref_direct_sum(C, C).to_json()
    for b in SMALL_SPACES:
        B = boundary_complex(SPACES[b]())
        assert tensor(C, B).to_json() == ref_tensor(C, B).to_json(), b
    D = find_contraction(cn, cn.hi)
    assert _odd_to_even(cn, D) == ref_odd_to_even(cn, D)


@pytest.mark.parametrize("name", BOUNDARY_SPACES + ("klein", "wedge"))
def test_boundary_complexes_match_the_reference(name):
    X = SPACES[name]()
    B = boundary_complex(X, rel=bool(X.sub))
    f = ChainMap.identity(B)
    assert cone(f).to_json() == ref_cone(f).to_json()
    assert direct_sum(B, B).to_json() == ref_direct_sum(B, B).to_json()
    for small in SMALL_SPACES:
        S = boundary_complex(SPACES[small]())
        assert direct_sum(B, S).to_json() == ref_direct_sum(B, S).to_json()
        assert direct_sum(S, B).to_json() == ref_direct_sum(S, B).to_json()
        assert tensor(B, S).to_json() == ref_tensor(B, S).to_json()
        assert tensor(S, B).to_json() == ref_tensor(S, B).to_json()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_complexes_match_the_reference(data):
    C = data.draw(ring_complexes())
    E = data.draw(ring_complexes(C.ring))
    B = data.draw(ring_complexes(Z))
    r = data.draw(_entry(C.ring))
    for f in (ChainMap.identity(C), _scaled_identity(C, r)):
        assert cone(f).to_json() == ref_cone(f).to_json()
    assert direct_sum(C, E).to_json() == ref_direct_sum(C, E).to_json()
    assert tensor(C, B).to_json() == ref_tensor(C, B).to_json()
    cn = cone(ChainMap.identity(C))
    D = find_contraction(cn, cn.hi)
    assert D is not None
    assert _odd_to_even(cn, D) == ref_odd_to_even(cn, D)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((Z, C5, LAU)), st.integers(1, 3), st.integers(1, 3), st.data())
def test_k1_sums_match_the_reference(ring, n, m, data):
    def square(k):
        return data.draw(st.lists(st.lists(_entry(ring), min_size=k, max_size=k),
                                  min_size=k, max_size=k))

    a = K1Class(ring, square(n), UnitClass.one(ring))
    b = K1Class(ring, square(m), UnitClass.one(ring))
    assert (a * b).mat == ref_k1_sum(a, b)


# ---------------------------------------------------------------------------
# orientation characters
# ---------------------------------------------------------------------------


def _character_spaces():
    out = {name: make for name, make in SPACES.items()}
    out["klein_grid"] = klein_grid
    out["barycentric-rp2"] = lambda: barycentric(rp2_6())
    out["barycentric-moebius"] = lambda: barycentric(moebius5())
    out["rp2-x-interval"] = lambda: product_space(rp2_6(), interval())
    # H_top = Z^2 in every class, so no character is found
    out["two-spheres"] = lambda: make_space(8, list(itertools.combinations(range(4), 3))
                                            + list(itertools.combinations(range(4, 8), 3)))
    out["two-circles"] = lambda: make_space(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    return out


CHARACTER_SPACES = _character_spaces()


def _top_is_Z(K, char):
    h = space_homology(K.with_character(char), twisted=True, rel=bool(K.sub))
    return h.get(K.dim()) is not None and h[K.dim()].invariants() == (1, ())


@pytest.mark.parametrize("name", sorted(CHARACTER_SPACES))
def test_orientation_characters_match_the_reference(name):
    K = CHARACTER_SPACES[name]()
    char = find_orientation_character(K)
    assert char == ref_orientation_character(K)
    if char is not None:
        assert _top_is_Z(K, char)


@st.composite
def relabeled_spaces(draw):
    """A catalog surface or a small complex, its vertices renumbered.

    Renumbering changes every simplex's vertex order, hence the edge
    order, the cocycle basis and the candidate order of the search.
    """
    kind = draw(st.sampled_from(("rp2", "moebius", "torus", "sphere", "small")))
    if kind == "small":
        n = draw(st.integers(1, 6))
        simplex = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        K = make_space(n, draw(st.lists(simplex, min_size=1, max_size=6)))
    else:
        K = {"rp2": rp2_6, "moebius": moebius5, "torus": torus7, "sphere": sphere2}[kind]()
    perm = draw(st.permutations(range(K.n)))
    sub = [tuple(perm[v] for v in s) for s in K.sub]
    return make_space(K.n, [tuple(perm[v] for v in s) for s in K.simplices], sub)


@settings(max_examples=120, deadline=None)
@given(relabeled_spaces())
def test_random_orientation_characters_match_the_reference(K):
    char = find_orientation_character(K)
    assert char == ref_orientation_character(K)
    if char is not None:
        assert _top_is_Z(K, char)


# ---------------------------------------------------------------------------
# Smith normal forms
# ---------------------------------------------------------------------------


def _snf_agrees(A, r, c):
    out = snf_factors(A, r, c)
    assert out == ref_smith_normal_form(A, r, c), (r, c, A)
    return out


# mostly zeros, as in boundary and cap matrices
_snf_entry = st.integers(0, 3).flatmap(lambda k: st.integers(-9, 9) if k == 0 else st.just(0))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.data())
def test_snf_matches_the_dense_reference(r, c, data):
    A = data.draw(st.lists(st.lists(_snf_entry, min_size=c, max_size=c), min_size=r, max_size=r))
    _snf_agrees(A, r, c)
    _snf_agrees([[0] * c for _ in range(r)], r, c)


def test_snf_matches_the_dense_reference_on_edge_shapes_and_divisibility():
    for r, c in ((0, 0), (0, 4), (4, 0), (3, 3), (2, 5)):
        _snf_agrees([[0] * c for _ in range(r)], r, c)
    # diagonals out of the divisibility chain, which the non-divisibility
    # step must repair: diag(2, 3) becomes diag(1, 6)
    cases = [[[2, 0], [0, 3]], [[4, 0, 0], [0, 6, 0], [0, 0, 10]], [[6, 0], [0, 4]],
             [[2, 0, 0], [0, 2, 0], [0, 0, 3]], [[-4, 0], [0, 6], [0, 0]], [[2, 4, 4], [-6, 6, 12]]]
    for A in cases:
        _, D, _, _ = _snf_agrees(A, len(A), len(A[0]))
        assert _snf_agrees(transpose(A), len(A[0]), len(A))[1] == transpose(D)
    assert _snf_agrees([[2, 0], [0, 3]], 2, 2)[1] == [[1, 0], [0, 6]]


@pytest.mark.parametrize("name", sorted(SPACES))
def test_snf_matches_the_dense_reference_on_corpus_boundaries(name):
    for C in _space_complexes(SPACES[name]()):
        for k in range(C.lo + 1, C.hi + 1):
            d, r, c = rmat_to_int(C.boundary(k)), C.rank(k - 1), C.rank(k)
            _snf_agrees(d, r, c)
            _snf_agrees(transpose(d, c), c, r)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_lift_matches_the_refactoring_reference(n, m, data):
    R = data.draw(st.lists(st.lists(_snf_entry, min_size=m, max_size=m), min_size=n, max_size=n))
    G = FgAbelian(n, R, m)
    mods = [d for d in G._moduli() if d != 1]
    z = data.draw(st.lists(st.integers(-30, 30), min_size=len(mods), max_size=len(mods)))
    assert G.lift(z) == ref_lift(G, z)
    assert G.canon(G.lift(z)) == tuple(x % d if d else x for x, d in zip(z, mods))


# ---------------------------------------------------------------------------
# presented (co)homology and integer torsion
# ---------------------------------------------------------------------------


def _space_complexes(X):
    # every boundary complex of X: plain and twisted, absolute and relative
    for tw in (False, True) if X.character else (False,):
        for rel in (False, True) if X.sub else (False,):
            yield boundary_complex(X, twisted=tw, rel=rel)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_presentations_match_the_three_factorization_reference(name):
    rng = random.Random(name)
    non_cycles = 0
    for C in _space_complexes(SPACES[name]()):
        for dual, present in ((False, homology_presentation), (True, cohomology_presentation)):
            for k in C.degrees():
                G, K, solve = present(C, k)
                G0, K0, solve0 = ref_presentation(C, k, dual)
                assert (G.ngens, G.relations, K) == (G0.ngens, G0.relations, K0), (dual, k)
                dim = C.rank(k)
                cols = K  # the lattice basis, vector by vector
                combos = [mat_vec(transpose(K, dim), [rng.randint(-3, 3) for _ in cols]) if cols
                          else [0] * dim for _ in range(6)]
                for v in cols + combos:
                    assert solve(v) == solve0(v) is not None
                # a unit vector off the cycle lattice is no cycle
                out = transpose(rmat_to_int(C.boundary(k + 1)), dim) if dual \
                    else rmat_to_int(C.boundary(k))
                for i in range(dim):
                    e = [int(i == j) for j in range(dim)]
                    if any(mat_vec(out, e)):
                        assert solve(e) is None and solve0(e) is None
                        non_cycles += 1
                for wrong in ([0] * (dim + 1), [1] * (dim - 1) if dim else None):
                    if wrong is not None:
                        with pytest.raises(ValueError):
                            solve(wrong)
                        with pytest.raises(ValueError):
                            solve0(wrong)
    assert non_cycles or name == "point"


@pytest.mark.parametrize("name", sorted(SPACES))
def test_integer_torsion_matches_the_two_factorization_reference(name):
    for C in _space_complexes(SPACES[name]()):
        groups = [homology_presentation(C, k) for k in C.degrees()]
        if any(G.invariants()[1] for G, _, _ in groups):
            continue  # torsion_with_homology wants free homology
        bases = {k: _free_quotient_basis(G, cycles) for k, (G, cycles, _) in zip(C.degrees(), groups)}
        # every class over Z is trivial, so compare the matrices and the
        # signed determinants themselves
        t, r = torsion_with_homology(C, bases), ref_integer_torsion(C, bases)
        assert (t.mat, t.det.unit) == (r.mat, r.det.unit)


# ---------------------------------------------------------------------------
# isomorphisms and exactness of presented groups against [F | relations]
# ---------------------------------------------------------------------------


def ref_presented_iso(F, dom: FgAbelian, cod: FgAbelian):
    """Is the map F induces dom -> cod an isomorphism?  (inverse, witness).

    Factors [F | relations of cod] once.  Its kernel vectors, cut to their
    first dom.ngens entries, span the preimage of cod's relations, so the
    first one with a nonzero class in dom witnesses a kernel.  The solver
    on the same factorization lifts each generator of cod through F, and
    the first one that does not lift witnesses a cokernel.  Returns
    (G, None) for an isomorphism, where G is the integer matrix of its
    inverse (the lifts), and otherwise (None, ("kernel", w)) with w in
    the generator basis of dom or (None, ("cokernel", e_j)) with e_j a
    generator of cod.  Raises ValueError when F is not a homomorphism.
    """
    _require_hom(F, dom, cod)
    a, b = dom.ngens, cod.ngens
    S = _cokernel(F, cod)._smith()
    for v in S.kernel():
        if not dom.element_is_zero(v[:a]):
            return None, ("kernel", v[:a])
    lifts = [S.solve(_unit(b, j)) for j in range(b)]
    if None in lifts:
        return None, ("cokernel", _unit(b, lifts.index(None)))
    return [x[:a] for x in lifts], None


def ref_exact_at(Fin, Fout, dom: FgAbelian, mid: FgAbelian, cod: FgAbelian):
    """Exactness at mid for dom --Fin--> mid --Fout--> cod; witness or None."""
    for j, col in enumerate(_compose(Fout, Fin, cod.ngens)):
        if not cod.element_is_zero(col):
            return {"reason": "composite is nonzero", "generator": j,
                    "class": list(cod.canon(col))}
    solve_in = _cokernel(Fin, mid)._smith().solve
    for v in _cokernel(Fout, cod)._smith().kernel():
        w = v[:mid.ngens]
        if solve_in(w) is None:
            return {"reason": "kernel class escapes the image", "class": list(mid.canon(w))}
    return None


def _unimodular_pair(rng, n, steps=10):
    # a random unimodular matrix and its inverse, by rows: each row step
    # E = I + q e_ij on the left of P is undone by I - q e_ij on the right
    P, Pinv = eye(n), eye(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        P[i] = [a + q * b for a, b in zip(P[i], P[j])]
        for row in Pinv:
            row[j] -= q * row[i]
    return P, Pinv


def _cycle_like(rng, orders):
    """A group whose Smith coordinates have these orders, on more generators.

    Each extra generator is killed by a relation of its own, a redundant
    relation is sometimes added, and a unimodular change of basis P mixes
    everything, so most Smith entries are 1, as on the cycle-basis
    presentations of a space.  Returns (group, R, P, P^-1) with R the
    relation columns before the change of basis.
    """
    k = len(orders)
    n = k + rng.randint(0, 5)
    R = [[d * x for x in _unit(n, i)] for i, d in enumerate(orders) if d]
    R += [_unit(n, i) for i in range(k, n)]
    if R and rng.random() < 0.5:
        R.append(mat_vec(transpose(R, n), [rng.randint(-2, 2) for _ in R]))
    P, Pinv = _unimodular_pair(rng, n)
    return FgAbelian(n, mat_mul(P, transpose(R, n), len(R)), len(R)), R, P, Pinv


def _cycle_like_map(rng, dom_orders, cod_orders, base=None):
    """A random map between two _cycle_like groups, by rows, with the groups.

    base is the map of the Smith coordinates (random_hom_matrix when not
    given); the extra generators of dom go into the relations of cod, and
    the extra rows of cod are arbitrary, as they vanish there.
    """
    (dom, _, Pd, Pdinv), (cod, Rc, Pc, _) = _cycle_like(rng, dom_orders), _cycle_like(rng, cod_orders)
    if base is None:
        base = random_hom_matrix(rng, dom_orders, cod_orders)
    kd, kc, nd, nc = len(dom_orders), len(cod_orders), dom.ngens, cod.ngens
    ext = [base[i] + [0] * (nd - kd) if i < kc else [rng.randint(-3, 3) for _ in range(nd)]
           for i in range(nc)]
    for j in range(kd, nd):  # a generator that is zero in dom lands in cod's relations
        col = mat_vec(transpose(Rc, nc), [rng.randint(-2, 2) for _ in Rc]) if Rc else [0] * nc
        for i in range(nc):
            ext[i][j] = col[i]
    return mat_mul(mat_mul(Pc, ext, nd), Pdinv, nd), dom, cod


def _zero_map(dom, cod):
    return [[0] * cod.ngens for _ in range(dom.ngens)]


def _check_iso_against_the_reference(F, dom, cod):
    # F by rows; the presented-group layer reads its columns
    a, b = dom.ngens, cod.ngens
    Fc = transpose(F, a)
    ref_inverse, ref_why = ref_presented_iso(Fc, dom, cod)
    why, inverse = co._iso_failure(Fc, dom, cod), co._iso_inverse(Fc, dom, cod)
    assert (why is None) == (inverse is not None) == (ref_why is None)
    if why is None:
        assert _maps_agree(inverse, ref_inverse, dom) is None
        assert _maps_agree(_compose(Fc, inverse, b), [_unit(b, j) for j in range(b)], cod) is None
        assert _maps_agree(_compose(inverse, Fc, a), [_unit(a, j) for j in range(a)], dom) is None
    elif why[0] == "cokernel":
        assert why == ref_why
    else:
        assert ref_why[0] == "kernel"
        assert not dom.element_is_zero(why[1])
        assert cod.element_is_zero(_combine(Fc, why[1], b))
    # F onto is exactness of dom --F--> cod --0--> cod, F injective that
    # of dom --0--> dom --F--> cod
    for Fin, Fout, G in ((Fc, _zero_map(cod, cod), (dom, cod, cod)),
                         (_zero_map(dom, dom), Fc, (dom, dom, cod))):
        bad, ref_bad = co._exact_at(Fin, Fout, *G), ref_exact_at(Fin, Fout, *G)
        assert (bad is None) == (ref_bad is None)
        if bad is not None:
            _, mid, end = G
            assert bad["reason"] == ref_bad["reason"] == "kernel class escapes the image"
            w = mid.lift(bad["class"])
            assert not mid.element_is_zero(w) and end.element_is_zero(_combine(Fout, w, end.ngens))
    assert (why is None) == (co._exact_at(Fc, _zero_map(cod, cod), dom, cod, cod) is None
                             and co._exact_at(_zero_map(dom, dom), Fc, dom, dom, cod) is None)
    return why is None


def test_presented_iso_matches_the_full_factorization_reference():
    rng = random.Random(1608)
    kinds, isos = set(), 0
    for _ in range(150):
        dom, dorders = random_fg_with_orders(rng)
        cod, corders = random_fg_with_orders(rng)
        isos += _check_iso_against_the_reference(random_hom_matrix(rng, dorders, corders), dom, cod)
        for base in (None, eye(len(dorders))):
            F, dom, cod = _cycle_like_map(rng, dorders, corders if base is None else dorders, base)
            iso = _check_iso_against_the_reference(F, dom, cod)
            isos += iso
            if not iso:
                kinds.add(co._iso_failure(transpose(F, dom.ngens), dom, cod)[0])
    assert isos > 150 and kinds == {"kernel", "cokernel"}


# ---------------------------------------------------------------------------
# exact-first ring solving against the integer expansion alone
# ---------------------------------------------------------------------------


def ref_ring_solve(ring, A, B, r, k, c, window=None):
    """A*X = B by integer expansion alone, as ring_solve once solved it.

    Over Z and Z[C_n] the expansion is exact.  Over Z[t,t^-1] the unknown
    exponents run over -W..W, W = max(2, 2 * spread) by default, so there
    None says only that the window held no solution.
    """
    if ring.kind == "infinite-cyclic":
        spread = max((abs(e) for M in (A, B) for row in M for x in row for e in x.terms()),
                     default=1)
        W = max(2, 2 * spread) if window is None else window
        var_exps, eq_exps = range(-W, W + 1), range(-(spread + W) - 1, spread + W + 2)
    else:
        var_exps = eq_exps = range(ring.n if ring.kind == "cyclic" else 1)
    m = len(var_exps)
    solve = snf_solver(_expansion(A, r, k, eq_exps, var_exps), r * len(eq_exps), k * m)
    out = [[None] * c for _ in range(k)]
    for col in range(c):
        x = solve([B[i][col].coeff(d) for i in range(r) for d in eq_exps])
        if x is None:
            return None
        for j in range(k):
            out[j][col] = GroupRingElt(ring, dict(zip(var_exps, x[j * m:(j + 1) * m])))
    return out


def ref_contraction(C, n):
    """The contraction search by integer expansion alone.

    Degreewise, each d_{r+1} D_r = id - D_{r-1} d_r solved by
    ref_ring_solve; over Z[t,t^-1] the whole search runs in the first
    window of chains._contraction_windows and, on a miss, once more in
    the second.
    """
    ring = C.ring
    for window in _contraction_windows(C):
        mats, prev = {}, None
        for r in range(C.lo, min(n, C.hi) + 1):
            rhs = rmat_eye(ring, C.rank(r))
            if prev is not None:
                rhs = rmat_sub(rhs, rmat_mul(ring, prev, C.boundary(r),
                                             C.rank(r), C.rank(r - 1), C.rank(r)))
            prev = ref_ring_solve(ring, C.boundary(r + 1), rhs, C.rank(r), C.rank(r + 1),
                                  C.rank(r), window)
            if prev is None:
                break
            mats[r] = prev
        else:
            H = ChainHomotopy(C, C, mats)
            if is_contraction_through(C, H, n):
                return H
        if ring.kind != "infinite-cyclic":
            return None
    return None


def _solve_entry(ring, units):
    # zero or up to two terms with distinct exponents (distinct mod 5 over
    # Z[C_5]); without units every coefficient is +-2 or +-3, so no entry
    # is a trivial unit +-g^k
    exps = st.just(0) if ring == Z else st.integers(-2, 2)
    coeffs = st.sampled_from((-2, -1, 1, 2) if units else (-3, -2, 2, 3))
    return st.dictionaries(exps, coeffs, max_size=2).map(ring.from_terms)


def _check_against_the_expansion(ring, A, B, r, k, c):
    X, why = _ring_solve(ring, A, B, r, k, c)
    ref = ref_ring_solve(ring, A, B, r, k, c)
    assert (X is None) == (why is not None)
    if X is not None:
        assert len(X) == k and all(len(row) == c for row in X)
        assert rmat_mul(ring, A, X, r, k, c) == B
    if ring.kind != "infinite-cyclic":
        assert (X is None) == (ref is None)
        assert why in (None, "no solution")
    else:
        assert ref is None or X is not None
        if why == "no solution":
            assert ref is None
    assert ring_solve(ring, A, B, r, k, c) == X


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((Z, C5, LAU)), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
       st.booleans(), st.booleans(), st.data())
def test_exact_first_ring_solve_matches_the_expansion(ring, r, k, c, units, consistent, data):
    # every X solves A X = B; over Z and Z[C_5] None comes back exactly
    # when the expansion finds nothing; over Z[t,t^-1] a solution comes
    # back whenever the expansion finds one, and a proved "no solution"
    # is never contradicted by it
    entry = _solve_entry(ring, units)
    A = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r))
    if consistent:
        X0 = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
        B = rmat_mul(ring, A, X0, r, k, c)
    else:
        B = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    _check_against_the_expansion(ring, A, B, r, k, c)


@pytest.mark.parametrize("ring", (Z, C5, LAU), ids=("Z", "C5", "laurent"))
def test_exact_first_ring_solve_matches_the_expansion_on_empty_shapes(ring):
    one, zero, two = ring.one(), ring.zero(), ring.monomial(0, 2)
    cases = [([], [], 0, 2, 1), ([], [], 0, 0, 0), ([[], []], [[zero], [zero]], 2, 0, 1),
             ([[], []], [[zero], [one]], 2, 0, 1), ([[one, two]], [[]], 1, 2, 0),
             ([[two], [zero]], [[two], [one]], 2, 1, 1), ([[two, one]], [[one]], 1, 2, 1)]
    for A, B, r, k, c in cases:
        _check_against_the_expansion(ring, A, B, r, k, c)


# ---------------------------------------------------------------------------
# ring arithmetic on canonical tuples against the terms() dicts
# ---------------------------------------------------------------------------


def ref_add(x, y):
    t = x.terms()
    for e, c in y.terms().items():
        t[e] = t.get(e, 0) + c
    return GroupRingElt(x.ring, t)


def ref_neg(x):
    return GroupRingElt(x.ring, {e: -c for e, c in x.terms().items()})


def ref_mul(x, y):
    if isinstance(y, int):
        return GroupRingElt(x.ring, {e: c * y for e, c in x.terms().items()})
    out = {}
    for e1, c1 in x.terms().items():
        for e2, c2 in y.terms().items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return GroupRingElt(x.ring, out)


def _same(x, y):
    # equal canonical forms, compared without GroupRingElt.__eq__
    return (x.ring, x._shift, x._coeffs) == (y.ring, y._shift, y._coeffs)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((Z, C5, C4w, LAU)), st.data())
def test_tuple_arithmetic_matches_the_terms_reference(ring, data):
    exps = st.just(0) if ring == Z else st.integers(-4, 4)
    elt = st.dictionaries(exps, st.integers(-3, 3), max_size=4).map(ring.from_terms)
    x, y = data.draw(elt), data.draw(elt)
    k = data.draw(st.integers(-3, 3))
    zero, t = ring.zero(), x.terms()
    # cancels the lowest and the highest term of x, so a Laurent sum is
    # trimmed at both ends
    ends = ring.from_terms({e: -t[e] for e in (min(t), max(t))} if t else {})
    for a, b in ((x, y), (y, x), (x, -x), (x, zero), (zero, x), (x, ends), (ends, x), (x, x)):
        assert _same(a + b, ref_add(a, b))
        assert _same(a - b, ref_add(a, ref_neg(b)))
        assert _same(a * b, ref_mul(a, b))
        assert (a == b) == (a.terms() == b.terms())
    for a in (x, y, zero, ring.one(), x + ends):
        assert _same(-a, ref_neg(a))
        assert _same(a * k, ref_mul(a, k)) and _same(k * a, ref_mul(a, k))
        assert _same(a * 0, ref_mul(a, 0)) and _same(a * zero, zero)
        assert a.is_one == (a.terms() == {0: 1})
    assert _same(x - x, zero) and _same(x + (-x), zero)


# ---------------------------------------------------------------------------
# integer boundary complexes against the zero-voltage equivariant complex
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPACES))
def test_integer_boundary_complexes_match_the_zero_voltage_reference(name):
    X = SPACES[name]()
    for tw in (False, True):
        for rel in (False, True):
            C = boundary_complex(X, twisted=tw, rel=rel)
            R = equivariant_complex(X, {}, Z, twisted=tw, rel=rel)
            assert (C.lo, C.hi, C.ranks, C.labels) == (R.lo, R.hi, R.ranks, R.labels)
            degrees = range(C.lo - 1, C.hi + 3)
            for k in degrees:
                assert _int_boundary(C, k) == rmat_to_int(R.boundary(k)), (tw, rel, k)
            assert homology_presentation(C, C.lo)[0] == homology_presentation(R, C.lo)[0]
            # the integers answered everything so far: no ring view was built
            assert not C._rings
            for k in degrees:
                assert C.boundary(k) == R.boundary(k), (tw, rel, k)
                if C.lo < k <= C.hi:
                    assert C.boundary(k) is C.boundary(k)  # built once, then kept
            assert C.to_json() == R.to_json()


# ---------------------------------------------------------------------------
# grid voltages against the two loops they came from
# ---------------------------------------------------------------------------


def ref_torus_voltage(n):
    K, vid = corpus._square_complex(n, n, "torus")
    xcoord = {}
    for i in range(n):
        for j in range(n):
            xcoord[vid((i, j))] = i
    volt = {}
    for (a, b) in K.simplices_of(1):
        d = xcoord[b] - xcoord[a]
        if d == n - 1:
            d = -1
        elif d == -(n - 1):
            d = 1
        if d:
            volt[(a, b)] = d
    return volt


def ref_klein_voltage():
    K, vid = corpus._square_complex(4, 4, "klein")
    ycoord = {}
    for i in range(4):
        for j in range(4):
            v = vid((i, j))
            if v not in ycoord:
                ycoord[v] = j
    volt = {}
    for (a, b) in K.simplices_of(1):
        d = ycoord[b] - ycoord[a]
        if d == 3:
            d = -1
        elif d == -3:
            d = 1
        if d:
            volt[(a, b)] = d
    return K, volt


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_torus_voltages_match_the_loop_reference(n):
    volt = corpus.torus_voltage(n)
    assert volt == ref_torus_voltage(n)
    assert list(volt) == list(ref_torus_voltage(n))


def test_klein_voltages_match_the_loop_reference():
    K, want = ref_klein_voltage()
    volt = corpus._grid_voltage(*corpus._square_complex(4, 4, "klein"), 4, 1)
    assert volt == want and list(volt) == list(want)
    ring = GroupSpec("infinite-cyclic", character=-1)
    assert corpus.klein_laurent_complex().to_json() == equivariant_complex(K, want, ring).to_json()


# ---------------------------------------------------------------------------
# stabilize and validate_partition: the forms that built rho_n and walked
# every label, kept verbatim apart from their names (ref_stabilize calls
# ref_validate_partition and ref_padded_standard_partition)
# ---------------------------------------------------------------------------


def ref_padded_standard_partition(tree, copies):
    """rho_n: the standard partition with labels (v, c) for c in 1..copies."""
    if isinstance(copies, bool) or not isinstance(copies, int):
        raise ValueError(f"copies must be an integer, not {copies!r}")
    if copies < 1:
        raise ValueError("copies must be at least 1")
    labels = [(v, c) for v in tree.nodes for c in range(1, copies + 1)]
    assign = {
        q: {(v, c) for v in tree.branch(q) for c in range(1, copies + 1)}
        for q in tree.nodes
    }
    return Partition(tree, labels, assign)


def ref_validate_partition(p):
    """Check the partition axioms; report the first violation with a witness.

    Returns {"valid": bool, "axiom": None|"functor"|1|2, "witness": ...}.
    The functor condition (values grow along branch inclusions) is checked
    first, on parent edges, since the numbered axioms presuppose it.

    Axiom 2 (incomparable branches carry disjoint sets) is then checked as
    disjointness among the children of each node, in one pass over the
    sum of |p(q)|.  Siblings are incomparable; conversely two incomparable
    branches a and b lie inside distinct children c and c' of their lowest
    common ancestor, and by functoriality p(a) <= p(c) and p(b) <= p(c').
    The witness comes from the first node whose children are not disjoint:
    its first child c (in children order) meeting an earlier sibling,
    paired with the first sibling a it meets, and the labels p(a) & p(c).

    At finite scale every node set is compact, so axioms 3 and 4 as stated
    cannot fail outright.  Axiom 3 (leftover labels at each depth form a
    finite set) holds on any finite data.  The finite shadow of axiom 4,
    that the carriers of each label form a chain, is axiom 2 restricted to
    one label, so it needs no check of its own.
    """
    tree, S = p.tree, p.labels

    # functoriality on parent edges suffices: branches compose
    for q in tree.nodes:
        if q == tree.root:
            continue
        u = tree.parent[q]
        missing = p.of(q) - p.of(u)
        if missing:
            return {
                "valid": False,
                "axiom": "functor",
                "witness": {
                    "node": q,
                    "parent": u,
                    "labels": _sorted_labels(missing),
                },
            }

    # axiom 1: the whole tree carries all of S
    missing = S - p.of(tree.root)
    if missing:
        return {
            "valid": False,
            "axiom": 1,
            "witness": {"labels": _sorted_labels(missing)},
        }

    # axiom 2, as disjointness among the children of each node
    for u in tree.nodes:
        owner = {}  # label -> position of the earlier sibling carrying it
        for i, c in enumerate(tree.children[u]):
            met = [owner[s] for s in p.of(c) if s in owner]
            if met:
                a = tree.children[u][min(met)]
                return {
                    "valid": False,
                    "axiom": 2,
                    "witness": {
                        "nodes": [a, c],
                        "labels": _sorted_labels(p.of(a) & p.of(c)),
                    },
                }
            owner.update(dict.fromkeys(p.of(c), i))

    return {"valid": True, "axiom": None, "witness": None}


def ref_stabilize(p, copies=None):
    """Absorb the labels of a valid partition into padded vertex copies.

    Returns (alpha, certificate).  alpha maps every tagged element
    ("vertex", v) or ("label", s) injectively to a slot (w, c) with w a
    vertex and 1 <= c <= copies, preserving first-exit blocks: an element
    exiting at the branch A_q lands on a vertex of A_q.  Slot (q, 1) is
    always taken by the vertex q itself, so every exit block meets its
    base slot.

    The certificate carries the padded count, the induced partitions
    tau = alpha o (pi u rho) and lambda = tau n rho, their validation
    reports, and the branchwise inclusions that exhibit the equivalence
    with the padded standard partition.

    copies below the required minimum is a capacity error naming the
    minimum; the default uses exactly the minimum.
    """
    report = ref_validate_partition(p)
    if not report["valid"]:
        raise ValueError(
            f"partition fails axiom {report['axiom']}: {report['witness']}"
        )
    tree = p.tree
    need = required_copies(p)
    n = need if copies is None else copies
    if n < need:
        raise ValueError(
            f"capacity exhausted at finite depth: {n} copies given, "
            f"{need} required"
        )

    blocks = _exit_blocks(p)
    used = set()
    alpha = {}
    # deepest blocks first: ancestors then fill leftover shallow capacity
    order = sorted(tree.nodes, key=lambda q: (-tree.depth[q], q))
    for q in order:
        members = blocks[q]
        base = (q, 1)
        assert base not in used
        alpha[("vertex", q)] = base
        used.add(base)
        rest = [m for m in members if m != ("vertex", q)]
        slots = (
            (w, c)
            for w in sorted(tree.branch(q))
            for c in range(1, n + 1)
        )
        free = iter([s for s in slots if s not in used])
        for m in rest:
            try:
                slot = next(free)
            except StopIteration:  # pragma: no cover
                raise RuntimeError("capacity bound violated internally")
            alpha[m] = slot
            used.add(slot)

    # tau(A) = alpha of everything assigned on A; lambda = tau n rho
    rho_n = ref_padded_standard_partition(tree, n)
    image = frozenset(alpha.values())
    tau_assign = {}
    lam_assign = {}
    for q in tree.nodes:
        sigma = {("vertex", v) for v in tree.branch(q)}
        sigma |= {("label", s) for s in p.of(q)}
        tq = frozenset(alpha[m] for m in sigma)
        tau_assign[q] = tq
        lam_assign[q] = tq & rho_n.of(q)
    tau = Partition(tree, image, tau_assign)
    lam = Partition(tree, image, lam_assign)

    injective = len(set(alpha.values())) == len(alpha)
    hits = all((q, 1) in tau.of(q) for q in tree.nodes)
    preserving = all(
        alpha[m][0] in tree.branch(q)
        for q, members in blocks.items()
        for m in members
    )
    certificate = {
        "copies": n,
        "required_copies": need,
        "block_sizes": {q: len(blocks[q]) for q in tree.nodes},
        "injective": injective,
        "hits_every_block": hits,
        "block_preserving": preserving,
        "tau": tau.to_json(),
        "tau_report": ref_validate_partition(tau),
        "lambda": lam.to_json(),
        "lambda_report": ref_validate_partition(lam),
        "lambda_in_tau": all(
            lam.of(q) <= tau.of(q) for q in tree.nodes
        ),
        "lambda_in_rho": all(
            lam.of(q) <= rho_n.of(q) for q in tree.nodes
        ),
        "padding_surplus": n * tree.n - len(alpha),
    }
    return alpha, certificate


def ref_brute_force_stabilize(p, copies):
    """Exhaustive search for a block-preserving injection into the padding.

    Returns an alpha dict or None.  Exponential; an independent oracle for
    small instances, moved here verbatim from tree_modules, where only
    tests read it.
    """
    report = validate_partition(p)
    if not report["valid"]:
        raise ValueError("partition is not valid")
    tree = p.tree
    blocks = _exit_blocks(p)
    elems = []
    for q in sorted(tree.nodes, key=lambda q: (-tree.depth[q], q)):
        for m in blocks[q]:
            elems.append((m, q))

    allowed = {
        m: [
            (w, c)
            for w in sorted(tree.branch(q))
            for c in range(1, copies + 1)
        ]
        for m, q in elems
    }
    used = set()
    alpha = {}

    def place(i):
        if i == len(elems):
            return True
        m, _ = elems[i]
        for slot in allowed[m]:
            if slot in used:
                continue
            used.add(slot)
            alpha[m] = slot
            if place(i + 1):
                return True
            used.discard(slot)
            del alpha[m]
        return False

    return dict(alpha) if place(0) else None


@settings(max_examples=250, deadline=None)
@given(shuffled_partitions())
def test_validate_and_stabilize_match_the_reference(p):
    report = validate_partition(p)
    assert report == ref_validate_partition(p)
    if report["valid"]:
        for copies in (None, required_copies(p) + 2):
            assert stabilize(p, copies) == ref_stabilize(p, copies)


def benchmark_partitions():
    """The partitions the trees workload stabilizes, at its full size."""
    tree = corpus.binary_tree(9)
    chains = [corpus.random_chain_partition(random.Random(s), tree, 512) for s in (1, 2, 3)]
    return chains + [shifted_standard_partition(corpus.binary_tree(8), 1)]


@pytest.fixture(scope="module")
def benchmark_certificates():
    return [(p, stabilize(p)) for p in benchmark_partitions()]


def test_stabilize_matches_the_reference_on_the_benchmark_inputs(benchmark_certificates):
    for p, result in benchmark_certificates:
        assert validate_partition(p) == ref_validate_partition(p)
        assert result == ref_stabilize(p)


def test_lambda_is_tau_cut_to_the_padded_standard_partition(benchmark_certificates):
    for p, (alpha, cert) in benchmark_certificates:
        tau, lam = Partition.from_json(cert["tau"]), Partition.from_json(cert["lambda"])
        rho = ref_padded_standard_partition(p.tree, cert["copies"])
        assert all(lam.of(q) == tau.of(q) & rho.of(q) for q in p.tree.nodes)
