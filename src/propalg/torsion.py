"""Torsion of based acyclic complexes over the catalog rings.

The torsion of an acyclic based complex is the class of its odd-to-even
matrix of boundary-plus-contraction in reduced K1, compared here through
the determinant, which separates classes over these commutative rings.
Each formula of the theory is an executable check returning a verdict
report rather than a bare boolean, so failures carry their witnesses.

torsion_of_acyclic first pairs cells by trivial-unit pivots +-g^k of the
boundaries, each pair an elementary simple-homotopy move.  When the pairs
use up every cell the complex is contractible and the determinant is read
off the pivots; only a nonempty core goes to the contraction search.

No function here takes a search bound.  Every solve is ring_solve's,
exact first: elimination on trivial units decides over every catalog
ring, and only a core without one is expanded to integers, exactly over
Z and Z[C_n] and within an exponent window over Z[t,t^-1].  The
contraction search of chains solves the same way, degree by degree.
Both hand over the reason of a miss, which the checks read as it is:
"no solution" is a proof and a FAIL, ("window", W) only says that the
Laurent window -W..W held nothing and is UNKNOWN with that window.  Over
Z[t,t^-1] a determinant is a unit exactly when it is +-t^k (Higman),
which try_inverse reads off its terms.
"""

from __future__ import annotations

from .chains import (
    BasedComplex,
    ChainHomotopy,
    ChainMap,
    _contraction,
    _smith,
    change_of_rings,
    cone,
    homology_presentation,
    homology_Z,
    tensor,
)
from .coefficients import (
    GroupRingElt,
    GroupSpec,
    UnitClass,
    _blocks,
    _combine,
    _dense,
    _eliminate,
    _eye,
    _perm_sign,
    _ring_det,
    _ring_solve,
    _rmul,
    _transpose,
    _transposed,
    _unit,
    det_unit_class,
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
        m, n, zero = len(self.mat), len(other.mat), self.ring.zero()
        block = [row + [zero] * n for row in self.mat] + [[zero] * m + row for row in other.mat]
        return K1Class(self.ring, block, self.det * other.det)

    def inv(self) -> "K1Class":
        # representative kept abstract: the determinant tracks the class
        return K1Class(self.ring, [[self.det.inverse]], self.det.inv())

    def __pow__(self, k: int) -> "K1Class":
        return K1Class(self.ring, [[(self.det ** k).unit]], self.det ** k)

    def __eq__(self, other):
        # over the catalog rings the determinant, with its ring, decides
        return isinstance(other, K1Class) and self.det == other.det

    def to_json(self):
        return {
            "det": self.det.unit.to_json(),
            "representative": [[x.to_json() for x in row] for row in self.mat],
        }

    def __repr__(self):
        return f"K1Class(det={self.det.normalized()!r})"


class _WindowMiss(ValueError):
    """No contraction inside the Laurent exponent window: nothing is proved."""


def _no_contraction(C: BasedComplex, miss) -> ValueError:
    """Why _contraction(C, C.hi) came back empty, as an exception.

    miss is the (reason, r) it returned: the first degree r without a
    contraction and the reason its solve gave.  "no solution" proves that
    a cycle of degree r is no boundary, so H_r is not zero; over Z and
    Z[C_n] the group is named, as the homology of the underlying integer
    complex.  ("window", W) says only that the Laurent exponent window
    -W..W, the widest searched, held no solution, and the miss is a
    _WindowMiss naming r and W.
    """
    why, r = miss
    if isinstance(why, tuple):
        W = why[1]
        return _WindowMiss(f"degree {r}: no contraction found within the exponent window [-{W}, {W}]")
    if C.ring.kind == "infinite-cyclic":
        return ValueError(f"not acyclic: H_{r} is not zero, a degree-{r} cycle is no boundary")
    Z = C if C.ring.kind == "trivial" else change_of_rings(C, "regular")
    return ValueError(f"not acyclic: H_{r} = {homology_presentation(Z, r)[0].invariants()}")


def _odd_to_even(C: BasedComplex, D: ChainHomotopy):
    """Sparse rows of the (boundary + contraction) matrix from odd total degree to even."""
    even = {k: C.rank(k) for k in C.degrees() if k % 2 == 0}
    odd = {k: C.rank(k) for k in C.degrees() if k % 2}
    if sum(even.values()) != sum(odd.values()):
        raise ValueError("odd and even ranks differ; the complex cannot be acyclic")
    blocks = {}
    for k in odd:
        if k - 1 in even:
            blocks[k - 1, k] = C._rows(k)
        if k + 1 in even:
            blocks[k + 1, k] = D._rows(k)
    return _blocks(even, odd, blocks)


def torsion_of_acyclic(C: BasedComplex) -> K1Class:
    """Torsion of an acyclic based complex: the class of its odd-to-even matrix.

    The cells are paired first by trivial-unit pivots of the boundaries
    (_unit_pairing).  Eliminating such a pivot is an elementary
    simple-homotopy move, so when the pairs use up every cell C is
    contractible, and with beta_k pivots in d_k the determinant of the
    odd-to-even matrix is exactly

        (-1)^(sum_k beta_k beta_(k+1)) * prod_k Delta_k^((-1)^k),

    where Delta_k, the determinant of the basis of C_k made of the
    boundaries of the cells d_(k+1) pairs and the cells d_k pairs, is the
    product of d_(k+1)'s pivots times the sign of the permutation taking
    each cell of C_k to its place in [pivot rows of d_(k+1) | pivot
    columns of d_k], each part in pivot order (Milnor, "Whitehead
    torsion", Bull. AMS 72, 1966, sections 3-4).  Its representative is
    that 1 x 1 determinant.

    Any other core goes to the search of find_contraction on C, run as
    _contraction so that a miss comes back with its reason.  It returns
    only a contraction it has checked with is_contraction_through, and
    the class of the odd-to-even matrix does not depend on which
    contraction is used, so recomputing it with a second one could never
    disagree; the test suite keeps that comparison as an oracle.  Without
    a contraction it raises the ValueError of _no_contraction: "not
    acyclic" with a proof, or, over Z[t,t^-1], a miss within the exponent
    window, which the formula checks report as UNKNOWN.

    >>> R = GroupSpec("infinite-cyclic")
    >>> torsion_of_acyclic(BasedComplex(R, {0: 1, 1: 1}, {1: [[R.monomial(1)]]})).det.unit
    t
    """
    if C.total_rank() == 0:
        return K1Class.trivial(C.ring)
    pivots = _unit_pairing(C)
    if 2 * sum(map(len, pivots.values())) == C.total_rank():
        return _paired_torsion(C, pivots)
    D, miss = _contraction(C, C.hi)
    if D is None:
        raise _no_contraction(C, miss)
    return _torsion_from(C, D)


def _unit_pairing(C: BasedComplex):
    """The trivial-unit pivots of d_(lo+1)..d_hi, from one ascending pass.

    Maps k to the steps (row, column, pivot, inverse, ...) of _eliminate on
    d_k, each pairing a cell of C_(k-1) with one of C_k.  Eliminating a
    pivot of d_(k-1) deletes its column cell from the rows of d_k and
    leaves the rest of d_k as it is, so d_k is eliminated on the rows that
    d_(k-1) left unpaired.  Deleting rows and columns commutes with the
    Schur-complement updates and makes no new unit entry, so no boundary
    of the core left by the pass has a trivial unit.  No cell is paired
    twice: every cell is paired exactly when there are total_rank / 2
    pivots.
    """
    pivots, taken = {}, set()
    for k in range(C.lo + 1, C.hi + 1):
        rows = {i: dict(row) for i, row in enumerate(C._rows(k)) if i not in taken}
        pivots[k] = _eliminate(rows, {i: {} for i in rows})
        taken = {j for _, j, *_ in pivots[k]}
    return pivots


def _paired_torsion(C: BasedComplex, pivots) -> K1Class:
    # the exact determinant of torsion_of_acyclic's formula, for pivots
    # from _unit_pairing that pair every cell of C, with its inverse
    beta = {k: len(steps) for k, steps in pivots.items()}
    sign = (-1) ** sum(b * beta.get(k + 1, 0) for k, b in beta.items())
    det = inverse = C.ring.one()
    for k in C.degrees():
        up, down = pivots.get(k + 1, []), pivots.get(k, [])
        place = {c: p for p, c in enumerate([i for i, *_ in up] + [j for _, j, *_ in down])}
        sign *= _perm_sign([place[c] for c in range(C.rank(k))])
        for _, _, x, inv, *_ in up:
            if k % 2:
                x, inv = inv, x
            det, inverse = det * x, inverse * inv
    if sign < 0:
        det, inverse = -det, -inverse
    return K1Class(C.ring, [[det]], UnitClass(det, inverse))


def _torsion_from(C: BasedComplex, D: ChainHomotopy) -> K1Class:
    # the class of C read off a contraction D that _contraction returned,
    # its representative the odd-to-even matrix written out densely; that
    # matrix is invertible, as D is a contraction, so its determinant is a unit
    M = _odd_to_even(C, D)
    det = UnitClass.from_element(_ring_det(C.ring, M, len(M)))
    return K1Class(C.ring, _dense(M, len(M), C.ring.zero()), det)


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
    against the given cell basis, and torsion_basis_change takes the
    alternating product of those classes.

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
            if any(C._rows(k)):
                raise ValueError("based-homology torsion over a nontrivial ring "
                                 "needs zero differentials or an acyclic complex")
        bases = {}
        for n in C.degrees():
            basis = homology_bases.get(n, [])
            if len(basis) != C.rank(n):
                raise ValueError(f"homology basis at degree {n} must have {C.rank(n)} vectors")
            if C.rank(n):
                bases[n] = _transposed(basis, C.rank(n))
        return torsion_basis_change(C, bases)

    # integer case: build b / h / b-tilde bases degree by degree, the
    # boundaries and their preimages read off one factorization of each d_k
    bases = {}
    for n in C.degrees():
        cols = _smith(C, n + 1).image() if n < C.hi else []
        cols += [[int(x) if isinstance(x, int) else x.coeff(0) for x in v] for v in homology_bases.get(n, [])]
        cols += _smith(C, n).lifts() if n > C.lo else []
        if len(cols) != C.rank(n):
            raise ValueError(
                f"degree {n}: boundaries + homology + lifts give {len(cols)} vectors "
                f"for rank {C.rank(n)}; homology basis is wrong or not free")
        if cols:
            bases[n] = _transposed(cols, C.rank(n))
    return torsion_basis_change(C, bases)


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


def _solve_miss(detail, why):
    # a _ring_solve came back empty for the reason why: FAIL on a proof,
    # UNKNOWN with W when only the window -W..W of ("window", W) missed
    if isinstance(why, tuple):
        W = why[1]
        return _report("UNKNOWN", f"{detail} within the exponent window [-{W}, {W}]")
    return _report("FAIL", detail)


def check_sum_formula(incl: ChainMap, proj: ChainMap) -> Report:
    """Verify torsion additivity over a basewise split exact sequence.

    incl: C' -> C and proj: C -> C''.  Exactness and splitness are
    checked degreewise (rank additivity, zero composite, a lift of the
    identity through proj); then tau(C) must match tau(C') * tau(C'').
    A section that ring_solve proves missing is a FAIL over every ring;
    one missed only in its Laurent window, max(2, 2 * spread), is UNKNOWN.
    """
    sub, total = incl.source, incl.target
    quot = proj.target
    ring = total.ring
    for k in range(min(sub.lo, total.lo, quot.lo), max(sub.hi, total.hi, quot.hi) + 1):
        if sub.rank(k) + quot.rank(k) != total.rank(k):
            return _report("FAIL", f"degree {k}: ranks {sub.rank(k)}+{quot.rank(k)} != {total.rank(k)}")
        if any(_rmul(proj._rows(k), incl._rows(k))):
            return _report("FAIL", f"degree {k}: projection after inclusion is nonzero")
        if quot.rank(k):
            sec, why = _ring_solve(ring, proj._rows(k), _eye(ring, quot.rank(k)),
                                   quot.rank(k), total.rank(k), quot.rank(k))
            if sec is None:
                return _solve_miss(f"degree {k}: no section of the projection", why)
    try:
        t_total = torsion_of_acyclic(total)
        t_sub = torsion_of_acyclic(sub)
        t_quot = torsion_of_acyclic(quot)
    except ValueError as e:
        return _miss_report(e)
    rhs = t_sub * t_quot
    verdict = "PASS" if t_total == rhs else "FAIL"
    return _report(verdict,
                   f"tau(C) = {t_total.det.normalized()!r}, "
                   f"tau(C')tau(C'') = {rhs.det.normalized()!r}", t_total)


def _sub_block(C: BasedComplex, prefix: dict, lo_prefix: dict | None = None) -> BasedComplex:
    """Based subquotient spanned by basis indices lo..hi per degree."""
    lo_prefix = lo_prefix or {}
    ranks = {k: prefix.get(k, 0) - lo_prefix.get(k, 0) for k in C.degrees()}
    bnd = {}
    for k in C.degrees():
        a, b = lo_prefix.get(k, 0), prefix.get(k, 0)
        pa, pb = lo_prefix.get(k - 1, 0), prefix.get(k - 1, 0)
        bnd[k] = [{j - a: x for j, x in row.items() if a <= j < b} for row in C._rows(k)[pa:pb]]
    return BasedComplex._of_rows(C.ring, ranks, bnd)


def _check_prefix_filtration(C: BasedComplex, filtration) -> str | None:
    # each stage must be a subcomplex: boundary of a prefix stays in the prefix
    for idx, prefix in enumerate(filtration):
        for k in C.degrees():
            b = prefix.get(k, 0)
            if any(j < b for row in C._rows(k)[prefix.get(k - 1, 0):] for j in row):
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
    Connecting-map coordinates that ring_solve proves missing are a FAIL;
    ones missed only in its Laurent window are UNKNOWN with that window.
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
            try:
                h = homology_Z(Q)
            except RuntimeError:
                return _report("FAIL", f"stage {lam}: boundaries escape the cycle lattice")
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
            # a basis of the free quotient ker/im, whose presentation the
            # hypothesis check above has already read and found torsion-free
            G, cycles, _ = homology_presentation(Q, lam)
            hbases.append(_free_quotient_basis(G, cycles))
        else:
            # nontrivial rings: an acyclic stage carries no homology; a
            # stage concentrated in its own degree is its own homology
            D, miss = _contraction(Q, Q.hi)
            if D is not None:
                contractions[lam] = D
                hbases.append([])
            elif all(Q.rank(k) == 0 for k in Q.degrees() if k != lam):
                hbases.append([[ring.one() if i == j else ring.zero()
                                for i in range(Q.rank(lam))] for j in range(Q.rank(lam))])
            else:
                err = _no_contraction(Q, miss)
                if isinstance(err, _WindowMiss):
                    return _report("UNKNOWN", f"stage {lam}: {err}")
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
        h, Q = len(hbases[lam - 1]), quotients[lam - 1]
        A = _coords_system(ring, hbases[lam - 1], Q, lam - 1)
        # the rows of d_lam in the previous stage block
        block = C._rows(lam)[lo_prev.get(lam - 1, 0):lo_this.get(lam - 1, 0)]
        coords = []
        for v in hbases[lam]:
            # lift the class rep into C at the stage-lam block, take d,
            # read the part in the previous stage block
            lift = dict(enumerate(v, lo_this.get(lam, 0)))
            img = (sum((x * lift[j] for j, x in row.items() if j in lift), ring.zero()) for row in block)
            B = [{} if y.is_zero else {0: y} for y in img]
            X, why = _ring_solve(ring, A, B, len(A), h + Q.rank(lam), 1)
            if X is None:
                return _solve_miss(f"connecting map at stage {lam} has no coordinates "
                                   f"in degree {lam - 1}", why)
            # coordinates in the homology basis of the previous stage
            coords.append({j: row[0] for j, row in enumerate(X[:h]) if row})
        bnd[lam] = _transpose(coords, h)
    Cbar = BasedComplex._of_rows(ring, ranks, bnd)

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
    verdict = "PASS" if t_C == rhs else "FAIL"
    return _report(verdict,
                   f"tau(C) = {t_C.det.normalized()!r}, assembled = {rhs.det.normalized()!r}",
                   t_C)


def _free_quotient_basis(G, cycles):
    """Cycles whose classes give a basis of the free group G they present."""
    free, tors = G.invariants()
    t = len(tors)
    # the free Smith coordinates follow the torsion ones
    return [_combine(cycles, G.lift(_unit(t + free, t + j)), len(cycles[0])) for j in range(free)]


def _coords_system(ring, hbasis, Q, degree):
    """Sparse rows of [hbasis | d_(degree+1) of Q]: the first len(hbasis)
    unknowns of a solve against them are a cycle's coordinates in the
    stage homology basis, mod boundaries."""
    cols = [{i: y for i, x in enumerate(v)
             if not (y := ring.monomial(0, x) if isinstance(x, int) else x).is_zero} for v in hbasis]
    return _blocks((Q.rank(degree),), (len(hbasis), Q.rank(degree + 1)),
                   {(0, 0): _transpose(cols, Q.rank(degree)), (0, 1): Q._rows(degree + 1)})


def check_product_formula(C: BasedComplex, D: BasedComplex) -> Report:
    """tau of a tensor product against the Euler-scaled torsion of C."""
    try:
        tC = torsion_of_acyclic(C)
        tCD = torsion_of_acyclic(tensor(C, D))
    except ValueError as e:
        return _miss_report(e)
    chi = D.euler()
    rhs = tC ** chi
    verdict = "PASS" if tCD == rhs else "FAIL"
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
    verdict = "PASS" if tgf == rhs else "FAIL"
    return _report(verdict,
                   f"tau(gf) = {tgf.det.normalized()!r}, "
                   f"tau(f) tau(g) = {rhs.det.normalized()!r}", tgf)
