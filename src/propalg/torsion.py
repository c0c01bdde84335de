"""Torsion of based acyclic complexes over the catalog rings.

The canonical representative of the torsion of an acyclic based complex
is the odd-to-even matrix of boundary-plus-contraction; its class lives
in reduced K1, compared here through the determinant, which separates
classes over these commutative rings.  Each formula of the theory is an
executable check returning a verdict report rather than a bare boolean,
so failures carry their witnesses.

No function here takes a search bound.  Over Z[t,t^-1] a determinant is
a unit exactly when it is +-t^k (Higman), which try_inverse reads off its
terms.  The Laurent searches are ring_solve's, in the window it derives
from its entries, and the contraction search of chains; a miss in either
is UNKNOWN with the window it reached.
"""

from __future__ import annotations

from .chains import (
    BasedComplex,
    ChainHomotopy,
    ChainMap,
    _contraction_windows,
    _unit_pivot_contraction,
    change_of_rings,
    cone,
    find_contraction,
    homology_presentation,
    homology_Z,
    tensor,
)
from .coefficients import (
    GroupRingElt,
    GroupSpec,
    UnitClass,
    _blocks,
    _laurent_window,
    _unit,
    det_unit_class,
    image_lattice_basis,
    imat_vec,
    ring_solve,
    rmat_eye,
    rmat_is_zero,
    rmat_mul,
    rmat_to_int,
    solve_int_mat,
)
from .report import Report


class K1Class:
    """Reduced K1 class of an invertible matrix over a catalog ring."""

    __slots__ = ("ring", "mat", "det")

    def __init__(self, ring: GroupSpec, mat, det: UnitClass):
        self.ring = ring
        self.mat = mat
        self.det = det

    @classmethod
    def from_matrix(cls, ring: GroupSpec, mat) -> "K1Class":
        mat = [[x if isinstance(x, GroupRingElt) else ring.monomial(0, x) for x in row]
               for row in mat]
        det = det_unit_class(ring, mat)
        return cls(ring, mat, det)

    @classmethod
    def trivial(cls, ring: GroupSpec) -> "K1Class":
        return cls(ring, [[ring.one()]], UnitClass.one(ring))

    def is_trivial(self) -> bool:
        return self.det.is_trivial

    def __mul__(self, other: "K1Class") -> "K1Class":
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        sizes = (len(self.mat), len(other.mat))
        block = _blocks(self.ring.zero(), sizes, sizes, {(0, 0): self.mat, (1, 1): other.mat})
        return K1Class(self.ring, block, self.det * other.det)

    def inv(self) -> "K1Class":
        # representative kept abstract: the determinant tracks the class
        return K1Class(self.ring, [[self.det.inverse]], self.det.inv())

    def __pow__(self, k: int) -> "K1Class":
        return K1Class(self.ring, [[(self.det ** k).unit]], self.det ** k)

    def compare(self, other: "K1Class") -> str:
        """Three-valued comparison: "equal", "unequal", or "unknown".

        Over the catalog rings the determinant decides, so "unknown" is
        reserved for rings this comparison cannot separate (none today).
        """
        if self.ring != other.ring:
            return "unequal"
        return "equal" if self.det == other.det else "unequal"

    def __eq__(self, other):
        return isinstance(other, K1Class) and self.compare(other) == "equal"

    def to_json(self):
        return {
            "det": self.det.unit.to_json(),
            "representative": [[x.to_json() for x in row] for row in self.mat],
        }

    def __repr__(self):
        return f"K1Class(det={self.det.normalized()!r})"


class _WindowMiss(ValueError):
    """No contraction inside the Laurent exponent window: nothing is proved."""


def _no_contraction(C: BasedComplex) -> ValueError:
    """Why find_contraction(C, C.hi) came back empty, as an exception.

    A row that elimination on unit pivots leaves at 0 = b, b nonzero,
    proves over every ring that a cycle of that degree is no boundary.
    Otherwise the windowed search missed.  Over Z and Z[C_n] that search
    is exact: each right-hand side id - D_{r-1} d_r is a matrix of
    cycles, which in an acyclic complex lift through d_{r+1} because C_r
    is free, so the underlying integer complex has homology and the
    first nonzero group is named.  Over Z[t,t^-1] only the exponent
    window was searched, and the miss is a _WindowMiss carrying it.
    """
    _, why = _unit_pivot_contraction(C, C.hi)
    if why is not None and why[0] == "no solution":
        r = why[1]
        return ValueError(f"not acyclic: H_{r} is not zero, elimination on unit pivots "
                          f"leaves a degree-{r} cycle that is no boundary")
    if C.ring.kind == "infinite-cyclic":
        W = _contraction_windows(C)[-1]
        return _WindowMiss(f"no contraction found within the exponent window [-{W}, {W}]")
    Z = C if C.ring.kind == "trivial" else change_of_rings(C, "regular")
    for k, g in sorted(homology_Z(Z).items()):
        if not g.is_zero:
            return ValueError(f"not acyclic: H_{k} = {g.invariants()}")
    return ValueError("not acyclic: homology vanishes but no contraction was found")


def _odd_to_even(C: BasedComplex, D: ChainHomotopy):
    """The (boundary + contraction) matrix from odd total degree to even."""
    even = {k: C.rank(k) for k in C.degrees() if k % 2 == 0}
    odd = {k: C.rank(k) for k in C.degrees() if k % 2}
    if sum(even.values()) != sum(odd.values()):
        raise ValueError("odd and even ranks differ; the complex cannot be acyclic")
    blocks = {}
    for k in odd:
        if k - 1 in even:
            blocks[k - 1, k] = C.boundary(k)
        if k + 1 in even:
            blocks[k + 1, k] = D.mat(k)
    return _blocks(C.ring.zero(), even, odd, blocks)


def torsion_of_acyclic(C: BasedComplex) -> K1Class:
    """Torsion of an acyclic based complex via the odd-to-even matrix.

    One contraction is enough.  find_contraction returns only a
    contraction it has checked with is_contraction_through, and the class
    of the odd-to-even matrix does not depend on which contraction is used
    (Milnor, "Whitehead torsion", Bull. AMS 72, 1966), so recomputing it
    with a second contraction could never disagree.  The test suite keeps
    that comparison as an oracle on small complexes.  Without a
    contraction it raises the ValueError of _no_contraction: "not
    acyclic" with a proof, or, over Z[t,t^-1], a miss within the
    exponent window, which the formula checks report as UNKNOWN.
    """
    if C.total_rank() == 0:
        return K1Class.trivial(C.ring)
    D = find_contraction(C, C.hi)
    if D is None:
        raise _no_contraction(C)
    return _torsion_from(C, D)


def _torsion_from(C: BasedComplex, D: ChainHomotopy) -> K1Class:
    # the class of C read off a contraction D that find_contraction returned
    return K1Class.from_matrix(C.ring, _odd_to_even(C, D))


def torsion_basis_change(C: BasedComplex, new_bases: dict) -> K1Class:
    """Alternating product of basis-change classes, one per degree.

    new_bases maps degree k to a square matrix whose columns express the
    new basis in the old one; missing degrees keep the old basis.
    """
    ring = C.ring
    out = K1Class.trivial(ring)
    for k in sorted(new_bases):
        B = new_bases[k]
        if len(B) != C.rank(k):
            raise ValueError(f"basis matrix at degree {k} has the wrong size")
        cls = K1Class.from_matrix(ring, B)
        out = out * (cls if k % 2 == 0 else cls.inv())
    return out


# ---------------------------------------------------------------------------
# torsion relative to based homology
# ---------------------------------------------------------------------------


def torsion_with_homology(C: BasedComplex, homology_bases: dict) -> K1Class:
    """Torsion of a based complex relative to chosen homology bases.

    homology_bases maps degree n to a list of cycle vectors (entries in
    the ring) whose classes are declared a basis of H_n.  Per degree the
    basis (boundaries, homology lifts, boundary preimages) is compared
    against the given cell basis; the alternating product of those
    determinants is the torsion.

    Supported situations: the trivial ring with free homology, or a
    nontrivial ring where every differential is zero (then the torsion is
    the alternating class of the homology bases themselves) or no
    homology is declared (then it is torsion_of_acyclic).  Anything else
    raises.
    """
    ring = C.ring
    if ring.kind != "trivial":
        if not any(len(v) for v in homology_bases.values()):
            # no homology declared: the complex must be acyclic
            return torsion_of_acyclic(C)
        for k in range(C.lo + 1, C.hi + 1):
            if not rmat_is_zero(C.boundary(k)):
                raise ValueError("based-homology torsion over a nontrivial ring "
                                 "needs zero differentials or an acyclic complex")
        out = K1Class.trivial(ring)
        for n in C.degrees():
            basis = homology_bases.get(n, [])
            if len(basis) != C.rank(n):
                raise ValueError(f"homology basis at degree {n} must have {C.rank(n)} vectors")
            if C.rank(n) == 0:
                continue
            B = [[basis[j][i] for j in range(len(basis))] for i in range(C.rank(n))]
            cls = K1Class.from_matrix(ring, B)
            out = out * (cls if n % 2 == 0 else cls.inv())
        return out

    # integer case: build b / h / b-tilde bases degree by degree
    bound_basis = {}
    for k in range(C.lo + 1, C.hi + 1):
        bound_basis[k - 1] = image_lattice_basis(rmat_to_int(C.boundary(k)),
                                                 C.rank(k - 1), C.rank(k))

    out = K1Class.trivial(ring)
    for n in C.degrees():
        cols = []
        cols.extend(bound_basis.get(n, []))
        for v in homology_bases.get(n, []):
            cols.append([int(x) if isinstance(x, int) else x.coeff(0) for x in v])
        below = bound_basis.get(n - 1, [])
        if below:
            lift = solve_int_mat(rmat_to_int(C.boundary(n)), [[col[i] for col in below] for i in range(C.rank(n - 1))],
                                 C.rank(n - 1), C.rank(n), len(below))
            if lift is None:
                raise ValueError(f"boundary basis below degree {n} fails to lift")
            cols.extend([[lift[i][j] for i in range(C.rank(n))] for j in range(len(below))])
        if len(cols) != C.rank(n):
            raise ValueError(
                f"degree {n}: boundaries + homology + lifts give {len(cols)} vectors "
                f"for rank {C.rank(n)}; homology basis is wrong or not free")
        if not cols:
            continue
        B = [[ring.monomial(0, cols[j][i]) for j in range(len(cols))] for i in range(C.rank(n))]
        cls = K1Class.from_matrix(ring, B)
        out = out * (cls if n % 2 == 0 else cls.inv())
    return out


# ---------------------------------------------------------------------------
# the formula checks
# ---------------------------------------------------------------------------


def _report(verdict, detail, cls: K1Class | None = None) -> Report:
    j = cls.to_json() if cls is not None else {}
    return Report(verdict=verdict, det=j.get("det"), representative=j.get("representative"),
                  detail=detail)


def _miss_report(e: ValueError):
    # a torsion that could not be computed: UNKNOWN when only the Laurent
    # window missed, FAIL when the error proves the complex is not acyclic
    return _report("UNKNOWN" if isinstance(e, _WindowMiss) else "FAIL", str(e))


def _solve_miss(ring, detail, A, B):
    # ring_solve(ring, A, B) came back empty: over Z and Z[C_n] that proves
    # there is no solution, over Z[t,t^-1] only that the window held none
    if ring.kind == "infinite-cyclic":
        _, W = _laurent_window(A, B, None)
        return _report("UNKNOWN", f"{detail} within the exponent window [-{W}, {W}]")
    return _report("FAIL", detail)


def check_sum_formula(incl: ChainMap, proj: ChainMap) -> Report:
    """Verify torsion additivity over a basewise split exact sequence.

    incl: C' -> C and proj: C -> C''.  Exactness and splitness are
    checked degreewise (rank additivity, zero composite, a lift of the
    identity through proj); then tau(C) must match tau(C') * tau(C'').
    A missing section is a FAIL over Z and Z[C_n]; over Z[t,t^-1] it is
    UNKNOWN with the window ring_solve derived, max(2, 2 * spread).
    """
    sub, total = incl.source, incl.target
    quot = proj.target
    ring = total.ring
    for k in range(min(sub.lo, total.lo, quot.lo), max(sub.hi, total.hi, quot.hi) + 1):
        if sub.rank(k) + quot.rank(k) != total.rank(k):
            return _report("FAIL", f"degree {k}: ranks {sub.rank(k)}+{quot.rank(k)} != {total.rank(k)}")
        comp = rmat_mul(ring, proj.mat(k), incl.mat(k), quot.rank(k), total.rank(k), sub.rank(k))
        if not rmat_is_zero(comp):
            return _report("FAIL", f"degree {k}: projection after inclusion is nonzero")
        if quot.rank(k):
            eye = rmat_eye(ring, quot.rank(k))
            sec = ring_solve(ring, proj.mat(k), eye, quot.rank(k), total.rank(k), quot.rank(k))
            if sec is None:
                return _solve_miss(ring, f"degree {k}: no section of the projection",
                                   proj.mat(k), eye)
    try:
        t_total = torsion_of_acyclic(total)
        t_sub = torsion_of_acyclic(sub)
        t_quot = torsion_of_acyclic(quot)
    except ValueError as e:
        return _miss_report(e)
    rhs = t_sub * t_quot
    verdict = "PASS" if t_total.compare(rhs) == "equal" else "FAIL"
    return _report(verdict,
                   f"tau(C) = {t_total.det.normalized()!r}, "
                   f"tau(C')tau(C'') = {rhs.det.normalized()!r}", t_total)


def _sub_block(C: BasedComplex, prefix: dict, lo_prefix: dict | None = None) -> BasedComplex:
    """Based subquotient spanned by basis indices lo..hi per degree."""
    ring = C.ring
    lo_prefix = lo_prefix or {}
    ranks = {}
    for k in C.degrees():
        a, b = lo_prefix.get(k, 0), prefix.get(k, 0)
        if b - a:
            ranks[k] = b - a
    bnd = {}
    for k in C.degrees():
        a, b = lo_prefix.get(k, 0), prefix.get(k, 0)
        pa, pb = lo_prefix.get(k - 1, 0), prefix.get(k - 1, 0)
        if b - a and pb - pa:
            M = C.boundary(k)
            bnd[k] = [[M[i][j] for j in range(a, b)] for i in range(pa, pb)]
    return BasedComplex(ring, ranks, bnd)


def _check_prefix_filtration(C: BasedComplex, filtration) -> str | None:
    # each stage must be a subcomplex: boundary of a prefix stays in the prefix
    for idx, prefix in enumerate(filtration):
        for k in C.degrees():
            b = prefix.get(k, 0)
            pb = prefix.get(k - 1, 0)
            M = C.boundary(k)
            for j in range(b):
                for i in range(pb, C.rank(k - 1)):
                    if not M[i][j].is_zero:
                        return f"stage {idx}: boundary leaves the prefix at degree {k}"
    for idx in range(1, len(filtration)):
        for k in C.degrees():
            if filtration[idx - 1].get(k, 0) > filtration[idx].get(k, 0):
                return f"stage {idx} does not contain stage {idx - 1}"
    return None


def check_subdivision(C: BasedComplex, filtration) -> Report:
    """Verify the subdivision identity for a prefix filtration of C.

    filtration is a list of dicts degree -> prefix length, one per stage,
    ending in the full ranks.  Stage quotients must have homology
    concentrated in the stage index; the assembled complex of those
    homologies (boundary from the connecting map of the triple) accounts
    for the difference between tau(C) and the quotient torsions.
    Missing connecting-map coordinates are a FAIL over Z and Z[C_n]; over
    Z[t,t^-1] they are UNKNOWN with the window ring_solve derived.
    """
    ring = C.ring
    bad = _check_prefix_filtration(C, filtration)
    if bad:
        return _report("FAIL", bad)
    if any(filtration[-1].get(k, 0) != C.rank(k) for k in C.degrees()):
        return _report("FAIL", "filtration does not end at the full complex")

    stages = len(filtration)
    quotients = []
    for lam in range(stages):
        lo = filtration[lam - 1] if lam else {}
        quotients.append(_sub_block(C, filtration[lam], lo))

    # homology of each quotient must sit in its own stage degree
    for lam, Q in enumerate(quotients):
        if Q.ring.kind == "trivial":
            h = homology_Z(Q)
            for k, g in h.items():
                if k != lam and not g.is_zero:
                    return _report("FAIL",
                                   f"stage {lam}: H_{k} = {g.invariants()} breaks the hypothesis")
            g = h.get(lam)
            if g is not None and g.invariants()[1]:
                return _report("FAIL", f"stage {lam}: homology has torsion, no basis exists")
        # representatives of H_lam: kernel basis modulo boundaries, over Z;
        # nontrivial rings are handled below by demanding cells = homology
    # build the assembled complex Cbar over the stage degrees
    hbases = []
    contractions = {}   # stage -> contraction of an acyclic stage over a nontrivial ring
    for lam, Q in enumerate(quotients):
        if Q.rank(lam) == 0:
            hbases.append([])
            continue
        if Q.ring.kind == "trivial":
            # quotient basis of ker/im; demand im sits inside ker with free quotient
            try:
                G, cycles, _ = homology_presentation(Q, lam)
            except RuntimeError:
                return _report("FAIL", f"stage {lam}: boundaries escape the cycle lattice")
            if G.invariants()[1]:
                return _report("FAIL", f"stage {lam}: homology has torsion")
            hbases.append(_free_quotient_basis(G, cycles))
        else:
            # nontrivial rings: an acyclic stage carries no homology; a
            # stage concentrated in its own degree is its own homology
            D = find_contraction(Q, Q.hi)
            if D is not None:
                contractions[lam] = D
                hbases.append([])
            elif all(Q.rank(k) == 0 for k in Q.degrees() if k != lam):
                hbases.append([[ring.one() if i == j else ring.zero()
                                for i in range(Q.rank(lam))] for j in range(Q.rank(lam))])
            else:
                miss = _no_contraction(Q)
                if isinstance(miss, _WindowMiss):
                    return _report("UNKNOWN", f"stage {lam}: {miss}")
                return _report("FAIL",
                               f"stage {lam}: quotient over a nontrivial ring is neither "
                               "acyclic nor concentrated in its stage degree")

    # connecting boundary Cbar_lam -> Cbar_{lam-1}
    ranks = {lam: len(hbases[lam]) for lam in range(stages) if hbases[lam]}
    bnd = {}
    for lam in range(1, stages):
        if not hbases[lam] or not hbases[lam - 1]:
            continue
        lo_this = filtration[lam - 1]
        lo_prev = filtration[lam - 2] if lam >= 2 else {}
        rows = []
        for v in hbases[lam]:
            # lift the class rep into C at the stage-lam block, take d,
            # read the part in the previous stage block
            full = [ring.zero()] * C.rank(lam)
            a = lo_this.get(lam, 0)
            for i, x in enumerate(v):
                full[a + i] = x if not isinstance(x, int) else ring.monomial(0, x)
            M = C.boundary(lam)
            img = [sum((M[i][j] * full[j] for j in range(C.rank(lam))), ring.zero())
                   for i in range(C.rank(lam - 1))]
            pa = lo_prev.get(lam - 1, 0)
            pb = lo_this.get(lam - 1, 0)
            blockpart = [img[i] for i in range(pa, pb)]
            # coordinates in the homology basis of the previous stage
            A, B = _coords_system(ring, hbases[lam - 1], blockpart, quotients[lam - 1], lam - 1)
            X = ring_solve(ring, A, B, len(A), len(A[0]), 1)
            if X is None:
                return _solve_miss(ring, f"connecting map at stage {lam} has no coordinates "
                                   f"in degree {lam - 1}", A, B)
            rows.append([X[j][0] for j in range(len(hbases[lam - 1]))])
        bnd[lam] = [[rows[j][i] for j in range(len(rows))] for i in range(len(hbases[lam - 1]))]
    Cbar = BasedComplex(ring, ranks, bnd)

    try:
        t_C = torsion_of_acyclic(C)
        t_bar = torsion_of_acyclic(Cbar) if Cbar.total_rank() else K1Class.trivial(ring)
        rhs = t_bar
        for lam, Q in enumerate(quotients):
            if Q.total_rank() == 0:
                continue
            hb = {lam: hbases[lam]} if hbases[lam] else {}
            if hbases[lam]:
                rhs = rhs * torsion_with_homology(Q, hb)
            elif lam in contractions:
                rhs = rhs * _torsion_from(Q, contractions[lam])
            else:
                rhs = rhs * torsion_of_acyclic(Q)
    except ValueError as e:
        return _miss_report(e)
    verdict = "PASS" if t_C.compare(rhs) == "equal" else "FAIL"
    return _report(verdict,
                   f"tau(C) = {t_C.det.normalized()!r}, assembled = {rhs.det.normalized()!r}",
                   t_C)


def _free_quotient_basis(G, cycles):
    """Cycles whose classes give a basis of the free group G they present."""
    free, tors = G.invariants()
    t = len(tors)
    # the free Smith coordinates follow the torsion ones
    return [imat_vec(cycles, G.lift(_unit(t + free, t + j))) for j in range(free)]


def _coords_system(ring, hbasis, vec, Q, degree):
    """(A, B) whose solution X gives a cycle's coordinates in the stage
    homology basis, mod boundaries: the first len(hbasis) entries of X."""
    cols = [[x if not isinstance(x, int) else ring.monomial(0, x) for x in v] for v in hbasis]
    M = Q.boundary(degree + 1)
    A = [[col[i] for col in cols] + list(M[i]) for i in range(Q.rank(degree))]
    return A, [[x] for x in vec]


def check_product_formula(C: BasedComplex, D: BasedComplex) -> Report:
    """tau of a tensor product against the Euler-scaled torsion of C."""
    try:
        tC = torsion_of_acyclic(C)
        tCD = torsion_of_acyclic(tensor(C, D))
    except ValueError as e:
        return _miss_report(e)
    chi = D.euler()
    rhs = tC ** chi
    verdict = "PASS" if tCD.compare(rhs) == "equal" else "FAIL"
    return _report(verdict,
                   f"tau(C x D) = {tCD.det.normalized()!r}, chi = {chi}, "
                   f"tau(C)^chi = {rhs.det.normalized()!r}", tCD)


def composition_torsion(f: ChainMap, g: ChainMap) -> Report:
    """tau(g o f) against tau(g) + tau(f), torsions taken from cones."""
    if f.target.ranks != g.source.ranks:
        return _report("FAIL", "g does not compose after f")
    try:
        tf = torsion_of_acyclic(cone(f))
        tg = torsion_of_acyclic(cone(g))
        tgf = torsion_of_acyclic(cone(g.compose(f)))
    except ValueError as e:
        return _miss_report(e)
    rhs = tf * tg
    verdict = "PASS" if tgf.compare(rhs) == "equal" else "FAIL"
    return _report(verdict,
                   f"tau(gf) = {tgf.det.normalized()!r}, "
                   f"tau(f) tau(g) = {rhs.det.normalized()!r}", tgf)
