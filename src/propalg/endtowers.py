"""Towers of finitely generated abelian groups and the ends of complexes.

An inverse tower G_0 <- G_1 <- ... <- G_N records how a system of groups
maps down to its base stage; a multitower attaches a multiplicity to each
tower, either a finite count or "omega" for a tower shared by infinitely
many base points.  The reduced-product groups built from such systems are
not finitely representable, so this module never materializes them.  It
exposes their computable shadows instead:

  * epsilon_vanishes: for every stage j some deeper stage k maps to j by
    the zero composite on every omega tower.  Finite multiplicities never
    matter, they sit inside the finitely-many-exceptions allowance.
  * delta_vanishes: epsilon together with the vanishing of every stage-0
    group (the pullback description over the full product at stage 0).

Both tests are exact on towers with declared periodicity.  The composite
across one period is an endomorphism of the base stage; its rational part
is settled within (matrix size) powers and its torsion part rides a
descending chain of finite subgroups that either hits zero or visibly
stabilizes.  A bare truncation carries no information about its unseen
tail, so without periodicity data the verdict is UNKNOWN with the
horizon that was searched.

The geometric half models tame end-periodic complexes: a finite core with
a product collar B x [0, oo) hung on each of several disjoint frontier
subcomplexes.  Locally finite homology and compactly supported cohomology
collapse to the homology of the pair (core, union of frontiers) because
each collar admits a locally finite contraction by prefix sums; a finite
shadow of that contraction is verified once per complex.  end_tower watches
a homology group march down a collar and returns the resulting
multitower, and truncated_duality_at_infinity checks cap-product duality
on each finite window of the ends.
"""

from __future__ import annotations

from .chains import homology_presentation
from .coefficients import (
    FgAbelian,
    _cokernel,
    _columns,
    _combine,
    _compose,
    _exact_at,
    _induced,
    _iso_failure,
    _iso_inverse,
    _kernel_lattice,
    _maps_agree,
    _require_hom,
    _smith_map,
    _transposed,
    _unit,
    rmat_to_int,
)
from .report import Report
from .simplicial_products import (
    Chain,
    SimplicialSpace,
    _cap_matrix,
    _closure,
    _cross_coeffs,
    _hom,
    _inclusion,
    _induced_by,
    make_space,
    product_space,
    space_cohomology,
    space_homology,
)

OMEGA = "omega"


def _check_hom(F, dom: FgAbelian, cod: FgAbelian, what: str):
    """The columns of an integer matrix given by rows, checked to be a map dom -> cod."""
    try:
        F = _columns(F, dom, cod)
        _require_hom(F, dom, cod)
    except ValueError as e:
        raise ValueError(f"{what}: {e}") from None
    return F


class Tower:
    """Inverse system G_0 <- G_1 <- ... <- G_N of presented abelian groups.

    maps[k] is the integer matrix of the connecting map G_{k+1} -> G_k in
    the generator bases, by rows.  Declared periodicity means explicit isomorphisms
    G_{k+p} ~ G_k for k >= preperiod, commuting with the connecting maps;
    every claim is verified against the matrices at construction time.
    When no isomorphisms are supplied the stage presentations must repeat
    exactly and the identities are used.
    """

    __slots__ = ("stages", "maps", "period", "preperiod", "period_isos", "_cols", "_period_inverses")

    def __init__(self, stages, maps, period: int | None = None, preperiod: int = 0,
                 period_isos=None):
        stages = list(stages)
        maps = [[list(map(int, row)) for row in M] for M in maps]
        if not stages:
            raise ValueError("a tower needs at least one stage")
        if len(maps) != len(stages) - 1:
            raise ValueError("a tower with N+1 stages needs N connecting maps")
        cols = [_check_hom(M, stages[k + 1], stages[k], f"connecting map {k}")
                for k, M in enumerate(maps)]
        self.stages, self.maps, self._cols = stages, maps, cols
        top = len(stages) - 1
        if period is None:
            if period_isos is not None:
                raise ValueError("period isomorphisms need a declared period")
            if preperiod:
                raise ValueError("a preperiod needs a declared period")
            self.period = None
            self.preperiod = 0
            self.period_isos = None
            self._period_inverses = None
            return
        p, q = int(period), int(preperiod)
        if p < 1 or q < 0:
            raise ValueError("period must be positive and preperiod nonnegative")
        if q + p > top:
            raise ValueError("the declared period is not visible inside the data")
        span = range(q, top - p + 1)
        if period_isos is None:
            isos = {}
            for k in span:
                if stages[k] != stages[k + p]:
                    raise ValueError(
                        f"stages {k} and {k + p} differ; give explicit period isomorphisms")
                isos[k] = [_unit(stages[k].ngens, i) for i in range(stages[k].ngens)]
        else:
            period_isos = [[list(map(int, row)) for row in M] for M in period_isos]
            if len(period_isos) != len(span):
                raise ValueError(f"expected {len(span)} period isomorphisms")
            isos = dict(zip(span, period_isos))
        inverses, phi = {}, {}
        for k in span:
            try:
                phi[k] = _columns(isos[k], stages[k + p], stages[k])
                inverses[k] = _iso_inverse(phi[k], stages[k + p], stages[k])
            except ValueError as e:
                raise ValueError(f"period isomorphism {k}: {e}") from None
            if inverses[k] is None:
                raise ValueError(f"period map at stage {k} is not an isomorphism")
        for k in range(q, top - p):
            # M_k (Phi at k+1) and (Phi at k) M_{k+p} both map G_{k+p+1} -> G_k
            a = stages[k].ngens
            left = _compose(cols[k], phi[k + 1], a)
            right = _compose(phi[k], cols[k + p], a)
            if _maps_agree(left, right, stages[k]) is not None:
                raise ValueError(f"period maps do not commute with the connecting maps at stage {k}")
        self.period = p
        self.preperiod = q
        self.period_isos = isos
        self._period_inverses = inverses

    @property
    def top(self) -> int:
        return len(self.stages) - 1

    def composite(self, j: int, k: int):
        """Matrix of the composite connecting map G_k -> G_j, j <= k, by rows."""
        if not (0 <= j <= k <= self.top):
            raise ValueError("composite wants stage indices j <= k inside the tower")
        return _transposed(self._composite(j, k), self.stages[j].ngens)

    def _composite(self, j, k):
        # the columns of the composite G_k -> G_j
        n = self.stages[k].ngens
        M = [_unit(n, i) for i in range(n)]
        for t in range(k - 1, j - 1, -1):
            M = _compose(self._cols[t], M, self.stages[t].ngens)
        return M

    def to_json(self) -> dict:
        out = {
            "stages": [g.to_json() for g in self.stages],
            "maps": [[list(row) for row in M] for M in self.maps],
            "period": self.period,
        }
        if self.period is not None:
            out["preperiod"] = self.preperiod
            out["period_isos"] = [
                [list(row) for row in self.period_isos[k]]
                for k in sorted(self.period_isos)
            ]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Tower":
        return cls(
            [FgAbelian.from_json(g) for g in data["stages"]],
            data.get("maps") or [],
            period=data.get("period"),
            preperiod=data.get("preperiod", 0),
            period_isos=data.get("period_isos"),
        )


class MultiTower:
    """Towers with multiplicities: finite counts or omega."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = list(entries)
        if not entries:
            raise ValueError("a multitower needs at least one entry")
        norm = []
        for tower, mult in entries:
            if not isinstance(tower, Tower):
                raise ValueError("entries must pair a Tower with a multiplicity")
            if mult != OMEGA:
                mult = int(mult)
                if mult < 1:
                    raise ValueError("multiplicities must be positive")
            norm.append((tower, mult))
        self.entries = norm

    def to_json(self) -> dict:
        return {"entries": [dict(t.to_json(), multiplicity=m) for t, m in self.entries]}

    @classmethod
    def from_json(cls, data: dict) -> "MultiTower":
        entries = []
        for item in data["entries"]:
            entries.append((Tower.from_json(item), item["multiplicity"]))
        return cls(entries)


# ---------------------------------------------------------------------------
# vanishing tests
# ---------------------------------------------------------------------------


def _torsion_column(G: FgAbelian, col) -> bool:
    # col represents a torsion element iff its free Smith coordinates, the
    # entries of canon after the torsion ones, vanish
    return not any(G.canon(col)[len(G.invariants()[1]):])


def _classes(G: FgAbelian, cols):
    # one lift per distinct nonzero class among the columns
    out, seen = [], set()
    for col in cols:
        key = G.canon(col)
        if any(key) and key not in seen:
            seen.add(key)
            out.append(G.lift(key))
    return out


def _eventually_zero(E, G: FgAbelian) -> Report:
    """Does some power of the endomorphism E of G vanish?

    The free part is settled by one matrix power: E is nilpotent on the
    rationalization iff E^n, n = G.ngens, already lands in the torsion
    subgroup T(G).  From there the images S_s = E^(n+s)(G) descend in the
    finite group T(G); lattice containment detects the first s with
    S_s = S_(s-1), after which the chain never moves.  Each strict descent
    removes at least one prime factor from the order, so the loop ends
    within Omega(|T(G)|) steps (prime factors counted with multiplicity)
    and every certificate has power at most n + Omega(|T(G)|).
    """
    n = G.ngens
    if n == 0 or G.is_zero:
        return Report(verdict="PASS", certificate={"power": 0})
    F = E
    for _ in range(n - 1):
        F = _compose(E, F, n)
    for j, col in enumerate(F):
        if not _torsion_column(G, col):
            return Report(verdict="FAIL", certificate={
                "reason": "the rational image stabilizes away from zero",
                "power": n,
                "generator": j,
                "image": col,
            })
    # iterate on the torsion shadow, lifting each class back from its
    # reduced Smith coordinates so that the integers stay bounded
    vecs = _classes(G, F)
    power = n
    while vecs:
        new = _classes(G, (_combine(E, v, n) for v in vecs))
        power += 1
        if new:
            # containment of the old lattice in the new one, read in G
            # modulo the new one: the chain stabilized off zero and will
            # never reach it
            rest = _cokernel(new, G)
            if all(rest.element_is_zero(v) for v in vecs):
                return Report(verdict="FAIL", certificate={
                    "reason": "the torsion image stabilizes at a nonzero subgroup",
                    "power": power,
                    "generators": [list(v) for v in new],
                })
        vecs = new
    return Report(verdict="PASS", certificate={"power": power})


def _tower_vanishes(T: Tower) -> Report:
    """Whether every stage of the (declared-periodic) tower is eventually
    killed by a deeper stage.  Without periodicity nothing certifies the
    unseen tail, so the data horizon is reported instead."""
    if T.period is None:
        return Report(verdict="UNKNOWN", horizon=T.top)
    q, p = T.preperiod, T.period
    G = T.stages[q]
    if G.is_zero:
        return Report(verdict="PASS", certificate={"power": 0})
    E = _compose(T._composite(q, q + p), T._period_inverses[q], G.ngens)
    _require_hom(E, G, G)
    return _eventually_zero(E, G)


def epsilon_vanishes(mt: MultiTower) -> Report:
    """Whether the reduced product of the multitower vanishes.

    PASS exactly when for every stage j some deeper stage k has the
    composite G_k -> G_j zero on each omega tower; finite-multiplicity
    entries are absorbed by the all-but-finitely-many quantifier.  Zero
    composites persist under deepening k, so the per-entry verdicts
    combine by taking the deepest witness.
    """
    certs = []
    horizon = None
    for idx, (tower, mult) in enumerate(mt.entries):
        if mult != OMEGA:
            continue
        v = _tower_vanishes(tower)
        if v.verdict == "FAIL":
            return Report(verdict="FAIL", certificate=dict(v.certificate, entry=idx))
        if v.verdict == "UNKNOWN":
            horizon = max(horizon or 0, v.horizon)
        else:
            certs.append(dict(v.certificate, entry=idx))
    if horizon is not None:
        return Report(verdict="UNKNOWN", horizon=horizon)
    return Report(verdict="PASS", certificate={"entries": certs})


def delta_vanishes(mt: MultiTower) -> Report:
    """Epsilon-vanishing together with zero stage-0 groups.

    The delta group sits in a pullback over the full product of the
    stage-0 groups, so one surviving G_0 in any entry, of any
    multiplicity, already blocks vanishing.
    """
    for idx, (tower, _) in enumerate(mt.entries):
        g = tower.stages[0]
        if not g.is_zero:
            free, tors = g.invariants()
            return Report(verdict="FAIL", certificate={
                "reason": "a stage-0 group survives in the full product",
                "entry": idx,
                "invariants": [free, list(tors)],
            })
    return epsilon_vanishes(mt)


# ---------------------------------------------------------------------------
# towers of chain complexes
# ---------------------------------------------------------------------------


def tower_homology(complexes, maps, period: int | None = None, preperiod: int = 0) -> dict:
    """Levelwise homology of a tower of integral chain complexes.

    complexes[k+1] maps to complexes[k] through maps[k].  Returns one
    single-entry omega multitower per degree, with connecting maps induced
    on the cycle-basis presentations.  A declared period describes the
    chain level; it is re-verified degree by degree on the presentations
    (equal stage presentations, commuting induced matrices) and attached
    only where that witness materializes, so a degree whose presentations
    happen to differ comes back period-free rather than wrongly certified.
    """
    complexes = list(complexes)
    maps = list(maps)
    if not complexes:
        raise ValueError("a tower of complexes needs at least one level")
    if len(maps) != len(complexes) - 1:
        raise ValueError("a tower with N+1 levels needs N chain maps")
    if period is not None and (int(period) < 1 or int(preperiod) < 0
                               or int(preperiod) + int(period) > len(complexes) - 1):
        raise ValueError("the declared period is not visible inside the data")
    for C in complexes:
        if C.ring.kind != "trivial":
            raise ValueError("tower homology works over the integers")
    for k, f in enumerate(maps):
        if f.source.ranks != complexes[k + 1].ranks or f.target.ranks != complexes[k].ranks:
            raise ValueError(f"chain map {k} does not connect level {k + 1} to level {k}")
    degrees = sorted({q for C in complexes for q in C.degrees()})
    out = {}
    for q in degrees:
        pres = [homology_presentation(C, q) for C in complexes]
        stages = [p[0] for p in pres]
        # the chain maps by columns, their induced maps by rows as Tower takes them
        cols = [_transposed(rmat_to_int(f.mat(q)), f.source.rank(q)) for f in maps]
        tmaps = [_transposed(_induced(pres[k + 1], M, pres[k]), stages[k].ngens) for k, M in enumerate(cols)]
        if period is not None:
            try:
                tower = Tower(stages, tmaps, period=period, preperiod=preperiod)
            except ValueError:
                tower = Tower(stages, tmaps)
        else:
            tower = Tower(stages, tmaps)
        out[q] = MultiTower([(tower, OMEGA)])
    return out


# ---------------------------------------------------------------------------
# end-periodic complexes
# ---------------------------------------------------------------------------


class EndPeriodicComplex:
    """Finite core with a product collar hung on each disjoint frontier.

    The total space is core with B_e x [0, oo) attached along each
    frontier; only the core and the frontiers are stored, the collars are
    reconstructed as staircase products whenever a truncation is needed.
    """

    __slots__ = ("core", "ends", "_collars_checked")

    def __init__(self, core: SimplicialSpace, ends):
        if core.sub:
            raise ValueError("the core must not carry its own subcomplex")
        self.core = core
        norm = []
        used = set()
        for frontier in ends:
            fr = frozenset(_closure(frontier))
            if not fr:
                raise ValueError("an end needs a nonempty frontier")
            for s in fr:
                if s not in core.simplices:
                    raise ValueError(f"frontier simplex {s} is not in the core")
            verts = {v for s in fr for v in s}
            if verts & used:
                raise ValueError("frontiers of distinct ends must be disjoint")
            used |= verts
            norm.append(fr)
        if not norm:
            raise ValueError("an end-periodic complex needs at least one end")
        self.ends = norm
        self._collars_checked = False

    def frontier_space(self, e: int):
        """The e-th frontier as a standalone space, with its vertex list."""
        fr = self.ends[e]
        verts = sorted({v for s in fr for v in s})
        ind = {v: i for i, v in enumerate(verts)}
        simplices = {tuple(ind[v] for v in s) for s in fr}
        char = {}
        for s in fr:
            if len(s) == 2 and self.core.w(s[0], s[1]) == -1:
                char[(ind[s[0]], ind[s[1]])] = -1
        return SimplicialSpace(len(verts), simplices, character=char), verts

    def pair_space(self) -> SimplicialSpace:
        """The core with the union of the frontiers as subcomplex."""
        sub = set()
        for fr in self.ends:
            sub |= fr
        return SimplicialSpace(self.core.n, self.core.simplices, sub, self.core.character)

    def to_json(self) -> dict:
        return {
            "core": self.core.to_json(),
            "ends": [{"frontier": sorted(map(list, fr))} for fr in self.ends],
        }

    @classmethod
    def from_json(cls, data: dict) -> "EndPeriodicComplex":
        core = SimplicialSpace.from_json(data["core"])
        return cls(core, [[tuple(s) for s in end["frontier"]] for end in data["ends"]])


def _path(n: int) -> SimplicialSpace:
    return make_space(n + 1, [(i, i + 1) for i in range(n)])


def _window_space(P: SimplicialSpace, n_slices: int, lo: int, hi: int,
                  rel_slices=()) -> SimplicialSpace:
    # the part of a collar product between two slices, with any of the
    # boundary slices as subcomplex
    keep = {s for s in P.simplices if all(lo <= v % n_slices <= hi for v in s)}
    sub = set()
    for b in rel_slices:
        sub |= {s for s in keep if all(v % n_slices == b for v in s)}
    return SimplicialSpace(P.n, keep, sub, P.character)


def end_tower(x: EndPeriodicComplex, k: int, depth: int = 4) -> MultiTower:
    """Degree-k homology of the collar truncations, one omega entry per end.

    Stage j is the collar from slice j outward, so the connecting maps are
    induced by honest inclusions of subcomplexes.  Product collars make
    consecutive stages isomorphic; once the connecting maps check out as
    isomorphisms the tower is declared 1-periodic with those maps as the
    period data, so the declaration is verified rather than assumed.
    """
    if depth < 1:
        raise ValueError("end towers need depth at least 1")
    entries = []
    for e in range(len(x.ends)):
        B, _ = x.frontier_space(e)
        P = product_space(B, _path(depth + 1))
        n_slices = depth + 2
        Ws = [_window_space(P, n_slices, j, depth + 1) for j in range(depth + 1)]
        pres = [_hom(W, k, False) for W in Ws]
        stages = [p[0] for p in pres]
        # stage j + 1 includes into stage j keeping every chain; Tower takes rows
        tmaps = [_transposed(_induced_by(a, _inclusion(a[3]), b), b[0].ngens)
                 for a, b in zip(pres[1:], pres)]
        try:
            tower = Tower(stages, tmaps, period=1, period_isos=tmaps)
        except ValueError:
            tower = Tower(stages, tmaps)
        entries.append((tower, OMEGA))
    return MultiTower(entries)


def _verify_collars(x: EndPeriodicComplex):
    """Finite shadow of the locally finite collar contraction.

    Each collar, cut at depth 4, must be homologically trivial rel its
    outer slice; the prefix-sum contraction of the infinite collar
    restricts to exactly this statement on the cut.  It runs once.
    """
    if x._collars_checked:
        return
    depth = 4
    for e in range(len(x.ends)):
        B, _ = x.frontier_space(e)
        P = product_space(B, _path(depth))
        window = _window_space(P, depth + 1, 0, depth, rel_slices=(depth,))
        twists = (False, True) if B.character else (False,)
        for tw in twists:
            h = space_homology(window, twisted=tw, rel=True)
            bad = {q: g for q, g in h.items() if not g.is_zero}
            if bad:
                raise RuntimeError(
                    f"collar contraction failed for end {e}: nonzero {bad} rel the outer slice")
    x._collars_checked = True


def lf_homology(x: EndPeriodicComplex, k: int, twisted: bool = False) -> FgAbelian:
    """Locally finite homology H^lf_k of the end-periodic complex.

    Computed as H_k(core, union of frontiers): the collars carry no
    locally finite homology because pushing a chain outward by prefix
    sums contracts them.  That contraction is what makes the pair the
    right answer, so it is checked once per complex on collars cut at
    depth 4 (_verify_collars), raising RuntimeError if it fails.
    """
    _verify_collars(x)
    pair = x.pair_space()
    return space_homology(pair, twisted=twisted, rel=True).get(k, FgAbelian.zero())


def cs_cohomology(x: EndPeriodicComplex, k: int, twisted: bool = False) -> FgAbelian:
    """Compactly supported cohomology H^k_c, the cochain-side counterpart.

    Computed as H^k(core, union of frontiers), after the same collar
    check as lf_homology.
    """
    _verify_collars(x)
    pair = x.pair_space()
    return space_cohomology(pair, twisted=twisted, rel=True).get(k, FgAbelian.zero())


# ---------------------------------------------------------------------------
# exactness of multitower sequences
# ---------------------------------------------------------------------------


def exactness_check(sub: MultiTower, total: MultiTower, quot: MultiTower,
                    inclusions, projections) -> Report:
    """Levelwise exactness of 0 -> sub -> total -> quot -> 0, then the
    vanishing-consistency patterns that exactness forces.

    inclusions[e][j] and projections[e][j] give the stage-j maps of entry
    e.  Non-exactness or non-commuting squares are input errors and raise;
    the report's verdict concerns only the two-out-of-three consistency of
    the epsilon verdicts, where FAIL would mean a bug in the vanishing
    machinery itself.
    """
    if not (len(sub.entries) == len(total.entries) == len(quot.entries)):
        raise ValueError("the three multitowers must have matching entries")
    if not (len(inclusions) == len(projections) == len(sub.entries)):
        raise ValueError(f"need one list of inclusions and one of projections per entry: got "
                         f"{len(inclusions)} and {len(projections)} for {len(sub.entries)} entries")
    for e, ((ta, ma), (tb, mb), (tc, mc)) in enumerate(
            zip(sub.entries, total.entries, quot.entries)):
        if not (ma == mb == mc):
            raise ValueError(f"entry {e}: multiplicities differ")
        if not (ta.top == tb.top == tc.top):
            raise ValueError(f"entry {e}: stage counts differ")
        incs, projs = inclusions[e], projections[e]
        if len(incs) != ta.top + 1 or len(projs) != ta.top + 1:
            raise ValueError(f"entry {e}: need one inclusion and one projection per stage")
        inc, prj = [], []  # their columns
        for j in range(ta.top + 1):
            Aj, Bj, Cj = ta.stages[j], tb.stages[j], tc.stages[j]
            inc.append(_check_hom(incs[j], Aj, Bj, f"inclusion at entry {e}, stage {j}"))
            prj.append(_check_hom(projs[j], Bj, Cj, f"projection at entry {e}, stage {j}"))
            if not _kernel_lattice(_cokernel(inc[j], Bj), Aj)[0].is_zero:
                raise ValueError(f"not levelwise exact: inclusion has kernel at entry {e}, stage {j}")
            if not _cokernel(prj[j], Cj).is_zero:
                raise ValueError(f"not levelwise exact: projection misses classes at entry {e}, stage {j}")
            bad = _exact_at(inc[j], prj[j], Aj, Bj, Cj)
            if bad is not None:
                where = ("the composite is nonzero at" if bad["reason"] == "composite is nonzero"
                         else "homology at the middle of")
                raise ValueError(f"not levelwise exact: {where} entry {e}, stage {j}")
        for j in range(ta.top):
            B, C = tb.stages[j], tc.stages[j]
            if _maps_agree(_compose(inc[j], ta._cols[j], B.ngens),
                           _compose(tb._cols[j], inc[j + 1], B.ngens), B) is not None:
                raise ValueError(f"inclusion squares do not commute at entry {e}, stage {j}")
            if _maps_agree(_compose(prj[j], tb._cols[j], C.ngens),
                           _compose(tc._cols[j], prj[j + 1], C.ngens), C) is not None:
                raise ValueError(f"projection squares do not commute at entry {e}, stage {j}")
    eps = {
        "sub": epsilon_vanishes(sub),
        "total": epsilon_vanishes(total),
        "quot": epsilon_vanishes(quot),
    }
    v = {name: r.verdict for name, r in eps.items()}
    conflicts = []
    if v["total"] == "PASS":
        for name in ("sub", "quot"):
            if v[name] == "FAIL":
                conflicts.append(f"the {name} tower survives although the total tower vanishes")
    if v["sub"] == v["quot"] == "PASS" and v["total"] == "FAIL":
        conflicts.append("both outer towers vanish but the middle tower survives")
    return Report(verdict="PASS" if not conflicts else "FAIL",
                  detail="; ".join(conflicts) if conflicts else
                  "levelwise exact; vanishing verdicts consistent",
                  epsilon=eps)


# ---------------------------------------------------------------------------
# duality on the windows of an end
# ---------------------------------------------------------------------------


def _cap_iso_failures(zeta: Chain):
    # capping with the relative class zeta on its window W must carry H^q(W)
    # onto H_{n-q}(W, sub) for every q; kernel and cokernel only describe a failure
    failures = []
    for q in range(zeta.degree + 1):
        F, src, tgt = _cap_matrix(zeta, q, False, False)
        if _iso_failure(F, src[0], tgt[0]) is not None:
            cok = _cokernel(_smith_map(F, src[0], tgt[0])[0], FgAbelian.from_invariants(*tgt[0].invariants()))
            kf, kt = _kernel_lattice(cok, FgAbelian.from_invariants(*src[0].invariants()))[0].invariants()
            cf, ct = cok.invariants()
            failures.append({
                "degree": q,
                "kernel": [kf, list(kt)],
                "cokernel": [cf, list(ct)],
            })
    return failures


def truncated_duality_at_infinity(x: EndPeriodicComplex, classes, depth: int = 4) -> Report:
    """Cap-product duality on every finite window of every end.

    classes supplies one untwisted fundamental cycle per end, living on
    its frontier space.  Window j of an end is the collar between slices
    j and depth+1 taken rel both slices; its fundamental class is the
    cross product of the end cycle with the interval chain, and capping
    with it must identify H^q with H_{n-q} rel the two slices for all q.
    """
    if len(classes) != len(x.ends):
        raise ValueError("need exactly one fundamental cycle per end")
    D = depth + 1
    failures = []
    checks = 0
    for e in range(len(x.ends)):
        B, _ = x.frontier_space(e)
        z = classes[e]
        if z.space != B:
            raise ValueError(f"the class for end {e} must live on its frontier space")
        if z.twisted:
            raise ValueError("twisted end classes are not supported")
        if not z.is_cycle():
            raise ValueError(f"the class for end {e} does not restrict to a cycle")
        path = _path(D)
        P = product_space(B, path)
        n = z.degree + 1
        for j in range(depth + 1):
            W = _window_space(P, D + 1, j, D, rel_slices=(j, D))
            seg = Chain(path, 1, {(i, i + 1): 1 for i in range(j, D)})
            zeta = Chain(W, n, _cross_coeffs(z, seg))
            for s in zeta.boundary().coeffs:
                if s not in W.sub:
                    raise ValueError(
                        f"the class for end {e} does not restrict to a relative cycle on window {j}")
            for item in _cap_iso_failures(zeta):
                failures.append(dict(item, end=e, window=j))
            checks += n + 1
    return Report(verdict="PASS" if not failures else "FAIL", depth=depth, checks=checks,
                  failures=failures)
