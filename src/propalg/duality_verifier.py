"""Cap-product duality as an executable verdict.

Everything here answers one shape of question: does capping with a chosen
top cycle induce isomorphisms where it should, and if not, which class
breaks?  The checks cover closed and relative pairs, both coefficient
systems when a character is present, the ladder connecting a pair to its
boundary, Whitehead torsion of the duality map over a deck ring, behaviour
under gluing, and the kernel bookkeeping of a degree-one map.  Every check
returns a report.Report, whose to_json writes its witnesses.  Reports are
deterministic: same input, byte-identical verdicts and witnesses.
"""

from .chains import ChainMap, cone, dual_complex
from .coefficients import (
    FgAbelian,
    UnitClass,
    _cokernel,
    _combine,
    _compose,
    _direct_sum,
    _exact_at,
    _induced,
    _int_rows,
    _iso_failure,
    _iso_inverse,
    _kernel_lattice,
    _maps_agree,
    _smith_iso_failure,
    _smith_moduli,
    _transposed,
    _unit,
)
from .report import Report
from .simplicial_products import (
    Chain,
    _ChainFamily,
    Cochain,
    SimplicialSpace,
    _basis,
    _cap_entries,
    _cap_family,
    _capped,
    _coh,
    _displacement,
    _faces,
    _hom,
    _inclusion,
    _induced_by,
    _subspace,
    _support,
    equivariant_complex,
    simplicial_chain_map,
)
from .torsion import torsion_of_acyclic


# ---------------------------------------------------------------------------
# small shared pieces
# ---------------------------------------------------------------------------


def _families(X: SimplicialSpace):
    """Coefficient systems worth checking: twisted only when it differs."""
    fams = [("untwisted", False)]
    if X.character:
        fams.append(("twisted", True))
    return fams


def _invariants(G: FgAbelian):
    free, tors = G.invariants()
    return {"free": free, "torsion": list(tors)}


def _require_relative_cycle(X: SimplicialSpace, z: Chain) -> int:
    n = X.dim()
    if z.space != X:
        raise ValueError("the candidate class lives on a different space")
    if z.degree != n:
        raise ValueError(f"the candidate class must be a chain in top degree {n}")
    for s in z.boundary().coeffs:
        if s not in X.sub:
            raise ValueError("not a relative cycle: its boundary leaves the subcomplex")
    return n


def boundary_space(X: SimplicialSpace) -> SimplicialSpace:
    """The subcomplex as a space of its own, character restricted."""
    return _subspace(X, X.sub)


# the earlier name of Report, still read by the benchmark oracles
DualityReport = Report


def _iso_witness(Fs, src, tgt):
    """None when F' (Smith coordinates) is an isomorphism of the presented groups, else a witness.

    src and tgt are presentations with their cells.  Kernel witnesses
    carry an explicit nonzero class that dies; cokernel witnesses an
    explicit class that is never hit.
    """
    why = _smith_iso_failure(Fs, src[0], tgt[0])
    if why is None:
        return None
    kind, v = why
    group, lat, _, cells = src if kind == "kernel" else tgt
    return {"kind": kind, "class": list(group.canon(v)),
            "representative": _support(cells, _combine(lat, v, len(cells)))}


def _cap_maps(z, opposite=False):
    """{(q, ctw, rel_src): (F', source, target)}: the cap maps of z in every degree.

    One _cap_family per coefficient system of z's space and direction,
    each checked once on the cells.
    """
    out = {}
    for _, ctw in _families(z.space):
        for rel_src in (True, False):
            family = _cap_family(z, ctw, rel_src, opposite)
            out.update({(q, ctw, rel_src): family.read(q) for q in range(z.degree + 1)})
    return out


# ---------------------------------------------------------------------------
# fundamental classes and the two diagonals
# ---------------------------------------------------------------------------


def fundamental_class(X: SimplicialSpace, twisted: bool = False):
    """Generator of top relative homology when that group is infinite cyclic.

    Returns a relative cycle in the requested coefficient system whose
    class generates H_n(X, A), or None when the group is not Z.  The sign
    of the generator is fixed by the presentation, so repeated calls
    agree.
    """
    n = X.dim()
    G, lat, _, cells = _hom(X, n, twisted, rel=True)
    if G.invariants() != (1, ()):
        return None
    return Chain(X, n, _support(cells, _combine(lat, G.lift([1]), len(cells))), twisted=twisted)


def cap_opposite(u: Cochain, z: Chain) -> Chain:
    """Cap product assembled from the reversed vertex order.

    Evaluates the cochain on the front face and keeps the back face, with
    the sign (-1)^(p(n-p)) that conjugation by vertex reversal produces,
    as _cap_entries writes it for _cap_family(..., opposite=True).  Chain
    homotopic to cap, so both diagonals induce the same maps on homology
    while differing at the chain level.
    """
    return _capped(u, z, True)


def _cap_check(cap_map, q, fam, rel_src):
    direction = "relative-cochain" if rel_src else "absolute-cochain"
    _, src, tgt = cap_map
    wit = _iso_witness(*cap_map)
    check = {"degree": q, "direction": direction, "cochains": fam,
             "source": _invariants(src[0]), "target": _invariants(tgt[0]),
             "iso": wit is None}
    if wit is not None:
        wit.update({"degree": q, "direction": direction, "cochains": fam})
    return check, wit


def _reduced(col, moduli):
    # a vector of Smith coordinates reduced modulo the moduli, as canon gives it
    return [x % d if d else x for x, d in zip(col, moduli)]


# ---------------------------------------------------------------------------
# the main verdicts
# ---------------------------------------------------------------------------


def poincare_check(X: SimplicialSpace, z: Chain, ring=None, voltage=None) -> Report:
    """Does capping with z dualize the pair in every degree?

    Checks both directions (relative cochains against absolute cycles and
    absolute cochains against relative cycles) over the plain integers
    and, when the space carries a character, over the twisted system as
    well.  When a deck ring and voltage are supplied and the integral
    check passes for an untwisted class, the Whitehead torsion of the
    duality map is attached to the report.
    """
    n = _require_relative_cycle(X, z)
    maps = _cap_maps(z)
    checks, witnesses = [], []
    for q in range(n + 1):
        for fam, ctw in _families(X):
            for rel_src in (True, False):
                ck, wit = _cap_check(maps[q, ctw, rel_src], q, fam, rel_src)
                checks.append(ck)
                if wit is not None:
                    witnesses.append(wit)
    verdict = "PASS" if all(c["iso"] for c in checks) else "FAIL"
    report = Report(kind="poincare", dimension=n, verdict=verdict, checks=checks,
                    witnesses=witnesses, details=[])
    if ring is not None:
        if report.ok and not z.twisted:
            report["torsion"] = _cap_torsion(X, z, ring, voltage)
        else:
            report.details.append(
                "torsion not computed: it needs an untwisted class and passing duality")
    return report


def alternate_diagonal_agrees(X: SimplicialSpace, z: Chain) -> Report:
    """Compare the duality maps induced by the two diagonal choices.

    The front-face/back-face diagonal and its reversed-order twin differ
    by a chain homotopy, so every induced map must agree on homology;
    this recomputes both and confirms it degree by degree.  So it cannot
    disagree on valid input: it is a self-test of the two diagonals.

    The maps are compared in Smith coordinates, where they agree exactly
    when their columns are equal; only a pair that differs is built as
    full matrices, to name the first generator where it does.
    """
    n = _require_relative_cycle(X, z)
    maps, twins = _cap_maps(z), _cap_maps(z, opposite=True)
    checked = 0
    failures = []
    for q in range(n + 1):
        for fam, ctw in _families(X):
            for rel_src in (True, False):
                checked += 1
                if maps[q, ctw, rel_src][0] != twins[q, ctw, rel_src][0]:
                    # the maps differ, so some generator's two images do
                    (matA, _, tgt), (matB, _, _) = (_cap_family(z, ctw, rel_src, twin).matrix(q)
                                                    for twin in (False, True))
                    bad = _maps_agree(matA, matB, tgt[0])
                    bad.update({"degree": q, "cochains": fam,
                                "direction": "relative-cochain" if rel_src else "absolute-cochain"})
                    failures.append(bad)
    return Report(agree=not failures, checked=checked, failures=failures)


def _ladder(z: Chain, zA: Chain, ctw: bool):
    """The arrows of the duality ladder of z's pair, as {name: (family, degree)}.

    zA is the boundary class on the boundary space; degree(q) is the
    source degree an arrow is read at in ladder degree q.  Drel1 is the
    relative cap map a degree up, read off the same family as Drel, so
    each family is built and checked once per coefficient system.
    """
    X, A, n = z.space, zA.space, z.degree
    rtw = ctw != z.twisted
    Drel = _cap_family(z, ctw, True)
    same, plus, minus = (lambda a: a), (lambda a: 1), (lambda a: -1)

    def kept(src, tgt):
        # an inclusion of chains or a restriction of cochains, both keeping each cell
        return _ChainFamily(src, tgt, lambda a: _inclusion(_basis(src[0], a, src[2])), same, plus)

    return {
        "Drel": (Drel, same),
        "Drel1": (Drel, lambda q: q + 1),
        "Dabs": (_cap_family(z, ctw, False), same),
        "DA": (_cap_family(zA, ctw, False), same),
        "i_coh": (kept((X, ctw, True, True), (X, ctw, False, True)), same),
        "j_hom": (kept((X, rtw, False, False), (X, rtw, True, False)), lambda q: n - q),
        "r_coh": (kept((X, ctw, False, True), (A, ctw, False, True)), same),
        "i_hom": (kept((A, rtw, False, False), (X, rtw, False, False)), lambda q: n - q - 1),
        # the boundary walks its source cells' faces, the coboundary its
        # target's; each commutes with the differentials up to sign -1
        "bdry": (_ChainFamily((X, rtw, True, False), (A, rtw, False, False),
                              lambda a: ((s, f, e) for s in _basis(X, a, True)
                                         for _, f, e in _faces(X, s, rtw)),
                              lambda a: a - 1, minus), lambda q: n - q),
        "delta": (_ChainFamily((A, ctw, False, True), (X, ctw, True, True),
                               lambda a: ((f, t, e) for t in _basis(X, a + 1, True)
                                          for _, f, e in _faces(X, t, ctw)),
                               lambda a: a + 1, minus), same),
    }


def browder_check(X: SimplicialSpace, z: Chain) -> Report:
    """Commutativity of the duality ladder of the pair, signs included.

    Three squares per degree and coefficient system connect the long
    exact sequences of (X, A) in cohomology and homology through the cap
    maps: the interior square on the nose, the restriction square up to
    (-1)^(n-1), and the coboundary square up to (-1)^q.  The boundary
    class is taken as (-1)^(n-1) dZ, which is what makes the boundary
    duality fit the ladder.  A failing boundary duality carries a witness.

    Every family of arrows (_ladder) is built and checked once, and both
    sides of a square are composites read in Smith coordinates
    (_ChainFamily.read); they agree exactly when their columns agree modulo
    the target's moduli.  Only a square that fails is built as full
    matrices, to name the generator its witness names.
    """
    n = _require_relative_cycle(X, z)
    X = z.space  # the space whose memo the cap maps read
    A = boundary_space(X)
    sign_a = -1 if (n - 1) % 2 else 1
    zA = Chain(A, n - 1, z.boundary().coeffs, twisted=z.twisted).scale(sign_a)

    squares = []
    boundary_duality = []
    details = [f"boundary class convention: (-1)^(n-1) dZ with n = {n}"]
    if not X.sub:
        details.append("empty boundary: restriction and coboundary squares are vacuous")

    ladders = {ctw: _ladder(z, zA, ctw) for _, ctw in _families(X)}
    for q in range(n + 1):
        for fam, ctw in _families(X):
            # each arrow as (family, the source degree it is read at)
            at = {name: (family, degree(q)) for name, (family, degree) in ladders[ctw].items()}

            def full(f, g):
                # the full matrix of f after g, to name a generator
                (Mf, _, tgt), (Mg, _, _) = (family.matrix(a) for family, a in (at[f], at[g]))
                return _compose(Mf, Mg, tgt[0].ngens)

            # interior: j o (cap z) = (cap z) o i on relative cochain classes;
            # restriction: boundary o (cap z) = (-1)^(n-1) (cap zA) o restrict;
            # coboundary: include o (cap zA) = (-1)^q (cap z) o delta
            for name, sign, (f1, g1), (f2, g2) in (
                    ("interior", 1, ("j_hom", "Drel"), ("Dabs", "i_coh")),
                    ("restriction", sign_a, ("bdry", "Dabs"), ("DA", "r_coh")),
                    ("coboundary", -1 if q % 2 else 1, ("i_hom", "DA"), ("Drel1", "delta"))):
                (F1, _, tgt), (F2, _, _) = (at[g][0].read(at[g][1], at[f]) for f, g in ((f1, g1), (f2, g2)))
                moduli, bad = _smith_moduli(tgt[0]), None
                if any(any(_reduced([a - sign * b for a, b in zip(c1, c2)], moduli))
                       for c1, c2 in zip(F1, F2)):
                    bad = _maps_agree(full(f1, g1), full(f2, g2), tgt[0], sign=sign)
                squares.append({"square": name, "degree": q, "cochains": fam,
                                "sign": sign, "commutes": bad is None,
                                **({"witness": bad} if bad else {})})

            family, a = at["DA"]
            wit = _iso_witness(*family.read(a))
            boundary_duality.append({"degree": q, "cochains": fam, "iso": wit is None,
                                     **({"witness": wit} if wit else {})})

    ok = all(s["commutes"] for s in squares) and all(b["iso"] for b in boundary_duality)
    return Report(kind="browder", dimension=n, verdict="PASS" if ok else "FAIL",
                  sign_convention="boundary class = (-1)^(n-1) dZ", squares=squares,
                  boundary_duality=boundary_duality, details=details)


# ---------------------------------------------------------------------------
# torsion of the duality map over a deck ring
# ---------------------------------------------------------------------------


def duality_torsion(X: SimplicialSpace, z: Chain, ring, voltage=None):
    """Whitehead torsion of cap-with-z over the deck ring of a voltage.

    Lifts the pair through the voltage assignment, maps the dual of the
    relative complex into the absolute one by the chain-level cap, and
    returns the torsion of the mapping cone as a K1 class.  Requires an
    untwisted class (carry any orientation twist on the ring character)
    and integral duality to hold.
    """
    if z.twisted:
        raise ValueError("torsion wants an untwisted class; "
                         "put the orientation twist on the ring character instead")
    if not poincare_check(X, z).ok:
        raise ValueError("cap duality fails over the integers, so its torsion is undefined")
    return _cap_torsion(X, z, ring, voltage)


def _cap_torsion(X: SimplicialSpace, z: Chain, ring, voltage):
    # the body of duality_torsion, once its two checks have passed
    n = X.dim()
    voltage = dict(voltage or {})
    Crel = equivariant_complex(X, voltage, ring, rel=True)
    Cabs = equivariant_complex(X, voltage, ring)
    D = dual_complex(Crel, n)

    volt = _displacement(voltage)
    mats = {}
    for k in range(n + 1):
        col = {b: j for j, b in enumerate(_basis(X, n - k, rel=True))}
        row = {f: i for i, f in enumerate(_basis(X, k))}
        sgn = -1 if (n * k) % 2 else 1
        M = [{} for _ in row]
        for b, f, c in _cap_entries(z, n - k, ctw=True):
            if b in col:
                # c carries the character along the front face f; dual entries
                # are already involuted, so the deck displacement enters inverted
                x, i, j = ring.monomial(-volt(f[0], f[-1]), c * sgn), row[f], col[b]
                M[i][j] = M[i][j] + x if j in M[i] else x
        mats[k] = [{j: x for j, x in sorted(r.items()) if not x.is_zero} for r in M]
    phi_map = ChainMap._of_rows(D, Cabs, mats)
    return torsion_of_acyclic(cone(phi_map))


def torsion_involution_relation(tau, dimension: int) -> bool:
    """Self-conjugacy of the duality torsion at the reduced K1 level.

    The graded sign and any monomial factor are trivial units, so the
    relation collapses to the determinant class matching its involution
    in even dimensions and their product being trivial in odd ones.
    """
    det = tau.det
    conj = UnitClass(det.unit.involve(), det.inverse.involve())
    if dimension % 2 == 0:
        return conj == det
    return (det * conj).is_trivial


# ---------------------------------------------------------------------------
# gluing along a common boundary piece
# ---------------------------------------------------------------------------


def _closed_piece(Z, piece):
    piece = frozenset(tuple(sorted(s)) for s in piece)
    for s in piece:
        if s not in Z.simplices:
            raise ValueError(f"incompatible gluing data: {s} is not a simplex of the space")
        for i in range(len(s)):
            f = s[:i] + s[i + 1:]
            if f and f not in piece:
                raise ValueError(f"incompatible gluing data: piece not closed at {f}")
    return piece


def gluing_check(Z: SimplicialSpace, left, right, z: Chain) -> Report:
    """Duality for two pieces against duality for their union.

    left and right are face-closed families of simplices covering Z and
    meeting in a lower-dimensional interface.  The class z is split
    canonically (top simplices belong to exactly one piece), each piece
    is checked rel its share of boundary plus the interface, the union
    is checked as given, and the Mayer-Vietoris ladder of the triad is
    verified exact.  The two-of-three field reports whether the verdicts
    fit the pattern that gluing theory forces.  Each space is built once,
    so each keeps one memo of its complexes.
    """
    n = _require_relative_cycle(Z, z)
    Z = z.space  # the space whose memo the total duality reads
    left = _closed_piece(Z, left)
    right = _closed_piece(Z, right)
    if left | right != Z.simplices:
        raise ValueError("incompatible gluing data: the pieces do not cover the space")
    interface = left & right
    if any(len(s) - 1 >= n for s in interface):
        raise ValueError("incompatible gluing data: the interface has full-dimensional simplices")

    def piece_space(piece):
        return _subspace(Z, piece, interface | {s for s in Z.sub if s in piece})

    L, R = piece_space(left), piece_space(right)
    Xi = _subspace(Z, interface)
    zl = {s: c for s, c in z.coeffs.items() if s in left}
    zr = {s: c for s, c in z.coeffs.items() if s not in left}
    repL = poincare_check(L, Chain(L, n, zl, twisted=z.twisted))
    repR = poincare_check(R, Chain(R, n, zr, twisted=z.twisted))
    repT = poincare_check(Z, z)

    fails = [name for name, rep in (("left", repL), ("right", repR), ("total", repT))
             if not rep.ok]
    two_of_three = "violated" if len(fails) == 1 else "consistent"

    ladder_failures = []
    checked = 0
    for fam, tw in _families(Z):
        out = _mv_ladder(Z, Xi, L, R, left, tw)
        checked += out["checked"]
        for f in out["failures"]:
            f["cochains"] = fam
            ladder_failures.append(f)

    return Report(
        kind="gluing", dimension=n,
        verdict="PASS" if not fails and not ladder_failures else "FAIL",
        pieces={"left": repL.verdict, "right": repR.verdict, "total": repT.verdict},
        two_of_three=two_of_three,
        ladder={"exact": not ladder_failures, "checked": checked, "failures": ladder_failures},
        interface={"simplices": len(interface),
                   "dimension": max((len(s) - 1 for s in interface), default=-1)},
        reports={"left": repL, "right": repR, "total": repT})


def _mv_ladder(Z, Xi, L, R, left, tw):
    """Exactness of Xi -> L + R -> Z -> Xi[-1] in absolute homology."""
    n = Z.dim()
    groups_x, groups_s, groups_z = {}, {}, {}
    alpha, beta, bnd = {}, {}, {}
    for k in range(n + 2):
        gx = _hom(Xi, k, tw)
        gl = _hom(L, k, tw)
        gr = _hom(R, k, tw)
        gz = _hom(Z, k, tw)
        groups_x[k] = gx[0]
        groups_z[k] = gz[0]
        groups_s[k] = _direct_sum(gl[0], gr[0])
        aL = _induced_by(gx, _inclusion(gx[3]), gl)
        aR = _induced_by(gx, _inclusion(gx[3]), gr)
        # x goes to (x, -x): each column of aL over minus that of aR
        alpha[k] = [a + [-x for x in b] for a, b in zip(aL, aR)]
        bL = _induced_by(gl, _inclusion(gl[3]), gz)
        bR = _induced_by(gr, _inclusion(gr[3]), gz)
        beta[k] = bL + bR
        # the boundary of the part of a cycle on the left piece
        split = ((s, f, e) for s in gz[3] if s in left for _, f, e in _faces(Z, s, tw))
        bnd[k] = _induced_by(gz, split, _hom(Xi, k - 1, tw))

    failures = []
    checked = 0
    for k in range(n + 1):
        spots = [
            ("sum", alpha[k], beta[k], groups_x[k], groups_s[k], groups_z[k]),
            ("union", beta[k], bnd[k], groups_s[k], groups_z[k],
             groups_x[k - 1] if k else FgAbelian.zero()),
            ("intersection", bnd[k + 1], alpha[k], groups_z[k + 1], groups_x[k], groups_s[k]),
        ]
        for name, Fin, Fout, dom, mid, cod in spots:
            checked += 1
            bad = _exact_at(Fin, Fout, dom, mid, cod)
            if bad is not None:
                bad.update({"node": name, "degree": k})
                failures.append(bad)
    return {"checked": checked, "failures": failures}


# ---------------------------------------------------------------------------
# degree-one maps and their surgery kernels
# ---------------------------------------------------------------------------


def surgery_kernel_check(M: SimplicialSpace, X: SimplicialSpace, vmap) -> Report:
    """Splittings and kernel bookkeeping for a candidate degree-one map.

    The vertex map must be simplicial from M to X; both spaces must be
    closed with untwisted fundamental classes zM and zX.  Checks that the
    class of zM pushes to the class of zX (else raises), that duality on
    either side splits homology off the target, and that capping with zM
    carries the cokernel of the pullback isomorphically onto the kernel in
    the complementary degree.
    """
    n = M.dim()
    if X.dim() != n:
        raise ValueError("source and target must share a dimension")
    if M.sub or X.sub:
        raise ValueError("the surgery setup wants closed spaces")
    # one memo serves both sides when the map is a self-map
    if X == M:
        X = M
    zM, zX = fundamental_class(M), fundamental_class(X)
    if zM is None or zX is None:
        raise ValueError("both spaces need untwisted fundamental classes")

    f = simplicial_chain_map(M, X, list(vmap))

    # f_k over the integers by rows, which are the columns of f^k on cochains
    frows = [_int_rows(f._rows(k), f.source.rank(k)) for k in range(n + 1)]
    fcols = [_transposed(F, f.source.rank(k)) for k, F in enumerate(frows)]

    # degree check: the class of zM must land on the class of zX exactly
    Gn, _, solven, _ = _hom(X, n, False)
    push = _combine(fcols[n], zM.vector(), f.target.rank(n))
    ca = solven(push)
    cb = solven(zX.vector())
    if ca is None or not Gn.element_is_zero([a - b for a, b in zip(ca, cb)]):
        got = list(Gn.canon(ca)) if ca is not None else None
        want = list(Gn.canon(cb))
        raise ValueError(f"not a degree-one map: it sends the class {want} to {got}")

    flow = {}
    kernels = {}
    kdata = {}
    for k in range(n + 1):
        hm = _hom(M, k, False)
        hx = _hom(X, k, False)
        flow[k] = _induced(hm, fcols[k], hx)
        kdata[k] = _kernel_lattice(_cokernel(flow[k], hx[0]), hm[0])
        kernels[k] = kdata[k][0]

    splittings = []
    cap_iso = []
    cokernels = {}
    failures = []
    for r in range(n + 1):
        cm = _coh(M, r, False)
        cx = _coh(X, r, False)
        hmk = _hom(M, n - r, False)
        hxk = _hom(X, n - r, False)

        capM = _cap_family(zM, False, False).matrix(r)[0]
        capX = _cap_family(zX, False, False).matrix(r)[0]
        capXinv = _iso_inverse(capX, cx[0], hxk[0])
        if capXinv is None:
            raise ValueError("duality fails on the target, so the splittings do not exist")

        fup = _induced(cx, frows[r], cm)

        a_cm, a_cx = cm[0].ngens, cx[0].ngens
        a_hm, a_hx = hmk[0].ngens, hxk[0].ngens
        ident = {a: [_unit(a, j) for j in range(a)] for a in {a_cm, a_cx, a_hx}}

        # section of f_* in degree n-r
        sigma = _compose(capM, _compose(fup, capXinv, a_cm), a_hm)
        sec = _maps_agree(_compose(flow[n - r], sigma, a_hx), ident[a_hx], hxk[0]) is None
        # retraction of the pullback in degree r
        rho = _compose(capXinv, _compose(flow[n - r], capM, a_hx), a_cx)
        ret = _maps_agree(_compose(rho, fup, a_cx), ident[a_cx], cx[0]) is None
        splittings.append({"degree": n - r, "section": sec,
                           "cohomology_degree": r, "retraction": ret})
        if not (sec and ret):
            failures.append({"reason": "splitting failed", "degree": n - r})

        coker = _cokernel(fup, cm[0])
        cokernels[r] = coker

        # cap carries the cokernel onto the kernel in complementary degree
        proj = _compose(fup, rho, a_cm)
        W = _compose(capM, [[e - p for e, p in zip(unit, col)]
                            for unit, col in zip(ident[a_cm], proj)], a_hm)
        # generator j of the cokernel is the class of basis vector j
        Wbar = _induced((coker, ident[a_cm], None), W, kdata[n - r])
        iso = _iso_failure(Wbar, coker, kdata[n - r][0]) is None
        cap_iso.append({"cohomology_degree": r, "homology_degree": n - r, "iso": iso,
                        "cokernel": _invariants(coker), "kernel": _invariants(kernels[n - r])})
        if not iso:
            failures.append({"reason": "cap does not match cokernel with kernel",
                             "cohomology_degree": r})

    return Report(kind="surgery", dimension=n, verdict="PASS" if not failures else "FAIL",
                  degree_one=True,
                  kernels={k: _invariants(g) for k, g in kernels.items()},
                  cokernels={r: _invariants(g) for r, g in cokernels.items()},
                  splittings=splittings, cap_iso=cap_iso, failures=failures)
