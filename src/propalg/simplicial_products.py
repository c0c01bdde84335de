"""Finite ordered simplicial pairs with rank-1 local systems and products.

Vertices are integers 0..n-1 and every simplex is a strictly increasing
tuple, so each simplex carries one preferred ordering.  Local coefficients
are twisted integers: a +-1 character on edges whose product around every
triangle is +1.  Chain and cochain coefficients attach at the leading
vertex of the simplex; moving a value along an edge multiplies by the
character.  _faces is the one place where the face rule is decided: face
i has sign (-1)^i, except the leading face, which carries the transport
along the first edge.

Products use the staircase triangulation of the ordered product, with the
front-face/back-face (Alexander-Whitney) diagonal.  A product or a
barycentric subdivision remembers nothing of where it came from: the
factors and vertex tables are read back off the spaces themselves.  All
product identities used downstream hold exactly at the chain level, not
just up to homotopy:

    d(u cap z) = (-1)^(|z|-|u|) (du) cap z + u cap dz
    cap = slant after the diagonal
    (u cup v) cap z = u cap (v cap z)

A space reaches presented (co)homology one way only: each space keeps
its boundary complexes in the memo _complexes, which _complex alone
reads and fills, and each complex keeps its presentations.  _basis alone
decides the cells of each degree.  _hom and _coh return a presentation
with its cells, (group, lattice, solver, cells), and classes
(cycle_class, cocycle_class) and induced maps are all read off those.  A
chain-level map reaches them as its entries, (source cell, target cell,
coefficient) triples laid onto the cells once; _cap_entries alone writes
the two diagonals, as entries that cap also applies to one cochain.  The
duality checks read a family of such maps, one per degree (a
_ChainFamily: the cap maps of _cap_family, or an arrow of a long exact
sequence), in Smith coordinates: it is checked once to commute with the
differentials on the cells, and then only the Smith generators of each
source are pushed.  _induced_by builds a full matrix, pushing every
generator; the tower maps of endtowers, the Mayer-Vietoris ladder of
gluing_check and surgery_kernel_check still read those, and a failed
duality check builds them to name a generator.  The
one-shot space_homology and space_cohomology build a complex, read it
and drop it.
"""

from __future__ import annotations

from itertools import combinations

from .chains import (
    BasedComplex,
    ChainMap,
    _differential_columns,
    cohomology_presentation,
    complex_from_int,
    homology_presentation,
    homology_Z,
)
from .coefficients import GroupSpec, _Smith, _combine, _induced, _perm_sign, _smith_map

Z = GroupSpec("trivial")


def _closure(simplices):
    out = set()
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return out


class SimplicialSpace:
    """Finite simplicial pair with an optional +-1 edge character.

    A space is a plain value: equal spaces behave the same everywhere.
    Besides its data it has one memo slot, _complexes, holding the
    boundary complexes that _complex builds and alone reads.  key(), ==,
    hash and to_json leave the memo out, so filling it changes only how
    long a second question about the space takes.
    """

    __slots__ = ("n", "simplices", "sub", "character", "_bydim", "_complexes")

    def __init__(self, n: int, simplices, sub=(), character=None):
        self.n = n
        self.simplices = frozenset(tuple(sorted(s)) for s in simplices)
        self.sub = frozenset(tuple(sorted(s)) for s in sub)
        self.character = {}
        for key, val in (character or {}).items():
            a, b = key
            if val not in (1, -1):
                raise ValueError("character values must be +-1")
            if val == -1:
                self.character[(min(a, b), max(a, b))] = -1
        self._bydim = {}
        for s in self.simplices:
            self._bydim.setdefault(len(s) - 1, []).append(s)
        for q in self._bydim:
            self._bydim[q].sort()
        self._complexes = {}
        self.validate()

    def validate(self):
        for s in self.simplices:
            if any(v < 0 or v >= self.n for v in s):
                raise ValueError(f"vertex out of range in {s}")
            if len(set(s)) != len(s):
                raise ValueError(f"repeated vertex in {s}")
            for f in _closure([s]):
                if f not in self.simplices:
                    raise ValueError(f"face {f} of {s} missing: not closed under faces")
        for s in self.sub:
            if s not in self.simplices:
                raise ValueError(f"subcomplex simplex {s} not in the space")
            for f in _closure([s]):
                if f not in self.sub:
                    raise ValueError(f"subcomplex not closed under faces at {f}")
        for t in self.simplices_of(2):
            a, b, c = t
            if self.w(a, b) * self.w(b, c) * self.w(a, c) != 1:
                raise ValueError(f"character is not a cocycle on triangle {t}")

    def w(self, a: int, b: int) -> int:
        """Character on the edge between a and b (symmetric; 1 off-list)."""
        if a == b:
            return 1
        return self.character.get((min(a, b), max(a, b)), 1)

    def transport(self, a: int, b: int, twisted: bool) -> int:
        return self.w(a, b) if twisted else 1

    def dim(self) -> int:
        return max(self._bydim) if self._bydim else -1

    def simplices_of(self, q: int):
        return self._bydim.get(q, [])

    def untwisted(self) -> "SimplicialSpace":
        return SimplicialSpace(self.n, self.simplices, self.sub)

    def with_character(self, character) -> "SimplicialSpace":
        return SimplicialSpace(self.n, self.simplices, self.sub, character)

    def key(self):
        return (self.n, self.simplices, self.sub, tuple(sorted(self.character.items())))

    def __eq__(self, other):
        return isinstance(other, SimplicialSpace) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def to_json(self):
        out = {"vertices": self.n, "simplices": sorted(map(list, self.simplices))}
        if self.sub:
            out["subcomplex"] = sorted(map(list, self.sub))
        if self.character:
            out["character"] = [[a, b, v] for (a, b), v in sorted(self.character.items())]
        return out

    @classmethod
    def from_json(cls, data) -> "SimplicialSpace":
        char = {(a, b): v for a, b, v in data.get("character", [])}
        return cls(data["vertices"], map(tuple, data["simplices"]),
                   map(tuple, data.get("subcomplex", [])), char)


def make_space(n, maximal, sub_maximal=(), character=None) -> SimplicialSpace:
    """Build a space from maximal simplices, closing under faces."""
    return SimplicialSpace(n, _closure(maximal), _closure(sub_maximal), character)


def _subspace(X: SimplicialSpace, simplices, sub=()) -> SimplicialSpace:
    """The face-closed simplices of X as a space, character restricted."""
    return SimplicialSpace(X.n, simplices, sub,
                           {e: v for e, v in X.character.items() if e in simplices})


def _faces(K: SimplicialSpace, s, twisted: bool):
    """(i, face, coefficient) of each face of s, face i omitting s[i]; a vertex has none."""
    if len(s) < 2:
        return
    yield 0, s[1:], K.transport(s[0], s[1], twisted)
    for i in range(1, len(s)):
        yield i, s[:i] + s[i + 1:], -1 if i % 2 else 1


class _Cells:
    """Integer coefficients on the degree-q simplices of one space.

    The storage Chain and Cochain share: coefficients given twice on one
    simplex add up, zeros are dropped, and arithmetic keeps the space,
    the degree and the twist.
    """

    def __init__(self, space: SimplicialSpace, degree: int, coeffs=None, twisted: bool = False):
        self.space = space
        self.degree = degree
        self.twisted = twisted
        self.coeffs = {}
        for s, c in (coeffs or {}).items():
            s = tuple(s)
            if len(s) != degree + 1 or s not in space.simplices:
                raise ValueError(f"{s} is not a {degree}-simplex of the space")
            self.coeffs[s] = self.coeffs.get(s, 0) + c
        self.coeffs = {s: c for s, c in self.coeffs.items() if c}

    def _like(self, coeffs):
        return type(self)(self.space, self.degree, coeffs, self.twisted)

    def __add__(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot add a {type(other).__name__} to a {type(self).__name__}")
        for what in ("space", "degree", "twisted"):
            if getattr(other, what) != getattr(self, what):
                raise ValueError(f"cannot add {type(self).__name__}s that differ in {what}")
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) + c
        return self._like(out)

    def __neg__(self):
        return self._like({s: -c for s, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k: int):
        return self._like({s: k * c for s, c in self.coeffs.items()})

    def vector(self):
        return [self.coeffs.get(s, 0) for s in self.space.simplices_of(self.degree)]

    @classmethod
    def from_vector(cls, space, degree, vec, twisted=False):
        if len(vec) != len(cells := space.simplices_of(degree)):
            raise ValueError(f"a vector of length {len(vec)} for {len(cells)} {degree}-simplices")
        return cls(space, degree, dict(zip(cells, vec)), twisted)

    def __eq__(self, other):
        return (type(other) is type(self) and self.space == other.space
                and self.degree == other.degree and self.twisted == other.twisted
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}(deg {self.degree}, {self.coeffs})"


class Chain(_Cells):
    """Simplicial chain; twisted means coefficients live in the character system."""

    def boundary(self) -> "Chain":
        out = {}
        for s, c in self.coeffs.items():
            for _, face, sign in _faces(self.space, s, self.twisted):
                out[face] = out.get(face, 0) + sign * c
        return Chain(self.space, self.degree - 1, out, self.twisted)

    def is_cycle(self) -> bool:
        return not self.boundary().coeffs


class Cochain(_Cells):
    """Simplicial cochain; values read at the leading vertex of each simplex."""

    @property
    def values(self):
        return self.coeffs

    def __call__(self, s) -> int:
        return self.coeffs.get(tuple(s), 0)

    def coboundary(self) -> "Cochain":
        vals = self.coeffs
        out = {}
        for s in self.space.simplices_of(self.degree + 1):
            total = 0
            for _, face, sign in _faces(self.space, s, self.twisted):
                if face in vals:
                    total += sign * vals[face]
            if total:
                out[s] = total
        return Cochain(self.space, self.degree + 1, out, self.twisted)

    def is_cocycle(self) -> bool:
        return not self.coboundary().coeffs

    def eval_chain(self, z: Chain) -> int:
        """Kronecker pairing with a chain of the same degree and twist budget.

        Transported values multiply at each leading vertex; for twisted
        against twisted the product system is trivial so the sum is an
        honest integer.
        """
        return sum(c * self.coeffs.get(s, 0) for s, c in z.coeffs.items())


def augmentation_cocycle(space: SimplicialSpace) -> Cochain:
    return Cochain(space, 0, {s: 1 for s in space.simplices_of(0)})


# ---------------------------------------------------------------------------
# chain complexes of spaces and pairs
# ---------------------------------------------------------------------------


def _basis(X: SimplicialSpace, q: int, rel: bool = False):
    """The cells of degree q: the q-simplices, less those of X.sub when rel is set."""
    if rel and X.sub:
        return [s for s in X.simplices_of(q) if s not in X.sub]
    return X.simplices_of(q)


def _cell_walk(K: SimplicialSpace, twisted: bool, rel: bool, row, entry):
    """(ranks, boundaries, labels) of the chains of K, or of the pair when rel is set.

    The one walk over bases, faces and labels behind boundary_complex and
    equivariant_complex.  The basis in degree q is _basis(K, q, rel).
    Entry (row of f, column of s) of d_q is entry(s, i, sign) for face
    f = face i of s, with the sign _faces gives it; the faces of s are
    distinct, so no entry is set twice.  row(c) makes an empty row of c
    columns: [0] * c gives dense integer rows, and {} sparse rows, their
    columns set in ascending order.
    """
    bases = {q: lst for q in range(0, K.dim() + 1) if (lst := _basis(K, q, rel))}
    bnd = {}
    for q in sorted(bases):
        if q == 0:
            continue
        rows = {s: i for i, s in enumerate(bases.get(q - 1, []))}
        M = [row(len(bases[q])) for _ in rows]
        for j, s in enumerate(bases[q]):
            for i, face, sign in _faces(K, s, twisted):
                if face in rows:
                    M[rows[face]][j] = entry(s, i, sign)
        bnd[q] = M
    labels = {q: ["".join(str(v) for v in s) if K.n <= 10 else str(s) for s in lst]
              for q, lst in bases.items()}
    return {q: len(lst) for q, lst in bases.items()}, bnd, labels


def boundary_complex(K: SimplicialSpace, twisted: bool = False, rel: bool = False) -> BasedComplex:
    """Chain complex of the space (or of the pair, when rel is set).

    With twisted set, boundary entries pick up the character on the
    leading edge, matching Chain.boundary.  The boundaries are integer
    matrices, the face signs summed, and the complex keeps them as
    integers (complex_from_int).  equivariant_complex over Z with zero
    voltage walks the same faces to the same matrices, as ring elements.
    """
    return complex_from_int(Z, *_cell_walk(K, twisted, rel, lambda c: [0] * c, lambda s, i, sign: sign))


def space_homology(K: SimplicialSpace, twisted: bool = False, rel: bool = False) -> dict:
    return homology_Z(boundary_complex(K, twisted=twisted, rel=rel))


def space_cohomology(K: SimplicialSpace, twisted: bool = False, rel: bool = False) -> dict:
    """Cohomology per degree, presented on cocycle lattices."""
    C = boundary_complex(K, twisted=twisted, rel=rel)
    return {k: cohomology_presentation(C, k)[0] for k in C.degrees()}


def _complex(X: SimplicialSpace, tw: bool, rel: bool = False) -> BasedComplex:
    """The boundary complex of X, or of the pair when rel is set, kept on X.

    A pair with an empty subcomplex has equal relative and absolute
    complexes, so a relative question about it reads the absolute entry.
    """
    key = (tw, rel and bool(X.sub))
    if key not in X._complexes:
        X._complexes[key] = boundary_complex(X, twisted=tw, rel=key[1])
    return X._complexes[key]


def _hom(X: SimplicialSpace, q: int, tw: bool, rel: bool = False):
    """(group, lattice, solver, cells) of H_q: the presentation on the cells _basis lists."""
    return (*homology_presentation(_complex(X, tw, rel), q), _basis(X, q, rel))


def _coh(X: SimplicialSpace, q: int, tw: bool, rel: bool = False):
    """(group, lattice, solver, cells) of H^q: the presentation on the cells _basis lists."""
    return (*cohomology_presentation(_complex(X, tw, rel), q), _basis(X, q, rel))


def _support(basis, vec):
    return {s: c for s, c in zip(basis, vec) if c}


def _induced_by(src, entries, tgt):
    """Full matrix of the map a chain-level map induces between two presentations.

    src and tgt are presentations (group, lattice, solver, cells) from
    _hom or _coh; entries yields the chain-level map as (source cell,
    target cell, coefficient) triples, repeats adding up.  They are laid
    onto the two cell lists once, as the columns of the integer matrix
    _induced reads; a triple off either list is dropped, as reading a
    (co)chain on the cells drops what lies off them.  Raises ValueError
    when a generator leaves the target lattice.

    Every generator of src is pushed.  The duality checks read their maps
    in Smith coordinates instead (_ChainFamily.read); the full matrix is
    built for the tower maps of endtowers, the Mayer-Vietoris ladder of
    gluing_check, surgery_kernel_check, and on a FAIL only, to name the
    generator a witness of _maps_agree names.
    """
    col = {s: j for j, s in enumerate(src[3])}
    row = {t: i for i, t in enumerate(tgt[3])}
    cols = [[0] * len(row) for _ in col]
    for s, t, c in entries:
        if s in col and t in row:
            cols[col[s]][row[t]] += c
    return _induced(src, cols, tgt)


def _inclusion(cells):
    """Entries of the map keeping each of cells: an inclusion, or a restriction of cochains."""
    return ((s, s, 1) for s in cells)


def _sum_of_columns(cols, x, scale=1):
    # scale * sum of x[j] cols[j] over the sparse vector x of sparse
    # columns, as {row: entry} with zeros dropped
    out = {}
    for j, c in x.items():
        for i, e in cols[j].items():
            out[i] = out.get(i, 0) + scale * c * e
    return {i: e for i, e in out.items() if e}


class _ChainFamily:
    """A chain-level map between two complexes of cells, in every degree.

    src and tgt are the two sides, each (space, twist, rel, cochains): the
    chains of the space, of the pair when rel is set, or its cochains when
    cochains is set, on the cells _basis lists.  entries(a) yields the map
    out of source degree a, into target degree degree(a), as (source
    cell, target cell, coefficient) triples; a triple off the cells is
    dropped.  sign(a) is the sign of d F_a = sign(a) F_a' d, with d the
    differential of each side and a' the degree it leads to from a.  A
    family keeps the maps it lays out, and lives within one verdict.
    """

    __slots__ = ("src", "tgt", "entries", "degree", "sign", "_laid", "_checked")

    def __init__(self, src, tgt, entries, degree, sign):
        self.src, self.tgt, self.entries, self.degree, self.sign = src, tgt, entries, degree, sign
        self._laid, self._checked = {}, False

    def _presentations(self, a):
        # (source, target) presentations with their cells at source degree a
        return tuple((_coh if co else _hom)(X, d, tw, rel) for (X, tw, rel, co), d
                     in ((self.src, a), (self.tgt, self.degree(a))))

    def matrix(self, a):
        """(full matrix, source, target) at source degree a, as _induced_by builds it."""
        P, Q = self._presentations(a)
        return _induced_by(P, self.entries(a), Q), P, Q

    def _lay(self, a):
        # the map out of degree a on the cells: {target index: coefficient}
        # per source cell
        if a not in self._laid:
            (X, _, rel, _), (Y, _, trel, _) = self.src, self.tgt
            col = {s: j for j, s in enumerate(_basis(X, a, rel))}
            row = {t: i for i, t in enumerate(_basis(Y, self.degree(a), trel))}
            cols = [{} for _ in col]
            for s, t, c in self.entries(a):
                if s in col and t in row:
                    j, i = col[s], row[t]
                    cols[j][i] = cols[j].get(i, 0) + c
            self._laid[a] = cols
        return self._laid[a]

    def _check(self):
        # d F_a = sign(a) F_a' d on the cells, for every degree of the
        # source space, once; ValueError names the first source cell, in
        # _basis order, where it fails
        if self._checked:
            return
        (X, stw, rel, co), (Y, ttw, trel, tco) = self.src, self.tgt
        Cs, Ct = _complex(X, stw, rel), _complex(Y, ttw, trel)
        for a in range(X.dim() + 1):
            sign, after = self.sign(a), self._lay(a + 1 if co else a - 1)
            dt = _differential_columns(Ct, self.degree(a), tco)
            for j, (x, dx) in enumerate(zip(self._lay(a), _differential_columns(Cs, a, co))):
                if _sum_of_columns(dt, x) != _sum_of_columns(after, dx, sign):
                    raise ValueError(f"not a chain map: d F = {sign:+d} F d fails on the "
                                     f"{'cochain' if co else 'chain'} cell {_basis(X, a, rel)[j]}")
        self._checked = True

    def read(self, a, then=None):
        """(F', source, target) at source degree a, followed by then = (family, degree) if given.

        F' is the map in Smith coordinates that coefficients._smith_map
        reads off the Smith generators alone: the lift of each, a cycle,
        goes through the chain-level maps and is solved in the last
        target, so a group in the middle is neither solved in nor lifted
        from.  First each family checks d F = +-F d on the cells, once.
        That check makes F' well defined: a chain map up to sign carries
        cycles to cycles, so every pushed lift solves, and boundaries to
        boundaries, so no image depends on the lift.
        """
        steps = [(self, a)] + ([then] if then else [])
        for family, _ in steps:
            family._check()
        P, Q = self._presentations(a)[0], steps[-1][0]._presentations(steps[-1][1])[1]
        return _smith_map(_cell_push(P, [f._lay(d) for f, d in steps], Q), P[0], Q[0]), P, Q


def _cell_push(src, steps, tgt):
    # the push _smith_map reads: a vector of src's generator basis read on
    # its cells, carried through each map of steps (sparse columns on the
    # cells) in turn, and solved in tgt
    lat, solve = src[1], tgt[2]
    sizes = [len(cols) for cols in steps[1:]] + [len(tgt[3])]

    def push(v):
        x = _combine(lat, v, len(steps[0]))
        for cols, n in zip(steps, sizes):
            y = [0] * n
            for xj, col in zip(x, cols):
                if xj:
                    for i, c in col.items():
                        y[i] += c * xj
            x = y
        return solve(x)

    return push


def _class_in(presentation, coeffs):
    # coefficients are read on the cells of the (relative) complex
    G, _, solve, cells = presentation
    coord = solve([coeffs.get(s, 0) for s in cells])
    if coord is None:
        raise ValueError("the given element is not a cycle")
    return G, G.canon(coord)


def cycle_class(z: Chain, rel: bool = False):
    """Homology group and canonical coordinates of a cycle's class."""
    return _class_in(_hom(z.space, z.degree, z.twisted, rel), z.coeffs)


def cocycle_class(u: Cochain, rel: bool = False):
    """Cohomology group and canonical coordinates of a cocycle's class."""
    return _class_in(_coh(u.space, u.degree, u.twisted, rel), u.values)


# ---------------------------------------------------------------------------
# cup, cap
# ---------------------------------------------------------------------------


def cup(u: Cochain, v: Cochain) -> Cochain:
    """Front-face/back-face product; strictly associative."""
    if u.space != v.space:
        raise ValueError("cup wants cochains on one space")
    sp = u.space
    p, q = u.degree, v.degree
    out = {}
    for s in sp.simplices_of(p + q):
        a = u.values.get(s[: p + 1], 0)
        if not a:
            continue
        b = v.values.get(s[p:], 0)
        if not b:
            continue
        t = sp.transport(s[0], s[p], v.twisted)
        val = a * t * b
        if val:
            out[s] = val
    return Cochain(sp, p + q, out, u.twisted != v.twisted)


def _cap_entries(z: Chain, p: int, ctw: bool, opposite: bool = False):
    """(cochain cell, chain cell, coefficient) of u -> u cap z on degree-p cochains of twist ctw.

    Each simplex s of z gives one: cap pairs u with the back face s[n-p:]
    and keeps the front face, transported along s[0] -> s[n-p] in the
    cochains' system; with opposite set, the reversed-order twin pairs u
    with the front face s[:p+1] and keeps the back face, transported along
    s[0] -> s[p] in the output's system and signed (-1)^(p(n-p)).
    """
    sp, q = z.space, z.degree - p
    if not opposite:
        return ((s[q:], s[:q + 1], c * sp.transport(s[0], s[q], ctw)) for s, c in z.coeffs.items())
    sgn, tw = (-1 if (p * q) % 2 else 1), ctw != z.twisted
    return ((s[:p + 1], s[p:], c * sgn * sp.transport(s[0], s[p], tw)) for s, c in z.coeffs.items())


def _capped(u: Cochain, z: Chain, opposite: bool) -> Chain:
    # u cap z along one of the two diagonals of _cap_entries
    if u.space != z.space:
        raise ValueError("cap wants a cochain and a chain on one space")
    if u.degree > z.degree:
        raise ValueError("cap needs |u| <= |z|")
    out = {}
    for s, t, c in _cap_entries(z, u.degree, u.twisted, opposite):
        a = u.values.get(s, 0)
        if a:
            out[t] = out.get(t, 0) + c * a
    return Chain(u.space, z.degree - u.degree, out, u.twisted != z.twisted)


def cap(u: Cochain, z: Chain) -> Chain:
    """Evaluate u on the back face, keep the front face.

    Satisfies d(u cap z) = (-1)^(|z|-|u|) (du) cap z + u cap dz on the
    nose, in the twisted cases as well.
    """
    return _capped(u, z, False)


def _cap_family(z: Chain, ctw: bool, rel_src: bool, opposite: bool = False) -> _ChainFamily:
    """u -> u cap z out of the cohomology of z's space, in every degree q.

    The source is relative cohomology when rel_src is set and the target
    the homology of the other kind, in degree |z| - q; the map is cap, or
    its twin when opposite is set.  Both diagonals satisfy
    d(u cap z) = (-1)^(n-q) (du) cap z + u cap dz with n = |z|, and
    u cap dz vanishes on the cells when z is a relative cycle: with
    relative cochains u is zero on the subcomplex that dz lies in, and
    with relative chains the front faces of dz lie in the subcomplex.  So
    the family's check is d M_q = (-1)^(n-q) M_{q+1} delta_q.
    """
    X, n = z.space, z.degree
    return _ChainFamily((X, ctw, rel_src, True), (X, ctw != z.twisted, not rel_src, False),
                        lambda q: _cap_entries(z, q, ctw, opposite) if q <= n else (), lambda q: n - q,
                        lambda q: -1 if (n - q) % 2 else 1)


# ---------------------------------------------------------------------------
# products of spaces, cross, slant, diagonal
# ---------------------------------------------------------------------------

def _staircases(s, t, nY):
    """Top simplices of the staircase triangulation of s x t, with signs.

    Each is a monotone path through the grid s x t, vertex (a, b) numbered
    a*nY + b; xs lists the steps that advance along s.  The sign is the
    shuffle sign: the parity of pairs where a step along t comes before a
    step along s.
    """
    p, q = len(s) - 1, len(t) - 1
    for xs in combinations(range(p + q), p):
        sign = -1 if sum(pos - m for m, pos in enumerate(xs)) % 2 else 1
        i = j = 0
        verts = [s[0] * nY + t[0]]
        for step in range(p + q):
            if i < p and xs[i] == step:
                i += 1
            else:
                j += 1
            verts.append(s[i] * nY + t[j])
        yield sign, tuple(verts)


def _facets(K: SimplicialSpace):
    faces = {s[:i] + s[i + 1:] for s in K.simplices for i in range(len(s))}
    return [s for s in K.simplices if s not in faces]


def product_space(X: SimplicialSpace, Y: SimplicialSpace) -> SimplicialSpace:
    """Staircase triangulation of the product, vertices x*nY + y.

    Simplices are the strictly increasing chains in the componentwise
    order on sigma x tau over simplices sigma of X, tau of Y: the faces of
    the staircases of pairs of facets.  An edge carries the product of the
    characters of its two shadows.  The product keeps no subcomplex;
    slant reads the first factor back off the space.
    """
    nY = Y.n
    simplices = _closure(v for s in _facets(X) for t in _facets(Y)
                         for _, v in _staircases(s, t, nY))
    char = {}
    for e in simplices:
        if len(e) == 2:
            (a1, b1), (a2, b2) = divmod(e[0], nY), divmod(e[1], nY)
            if X.w(a1, a2) * Y.w(b1, b2) == -1:
                char[e] = -1
    return SimplicialSpace(X.n * Y.n, simplices, character=char)


def _cross_coeffs(c: Chain, d: Chain) -> dict:
    nY = d.space.n
    out = {}
    for s, a in c.coeffs.items():
        for t, b in d.coeffs.items():
            for sign, v in _staircases(s, t, nY):
                out[v] = out.get(v, 0) + sign * a * b
    return out


def cross_product(c: Chain, d: Chain) -> Chain:
    """Shuffle (staircase) product chain on the product space."""
    if c.twisted or d.twisted:
        raise ValueError("cross products are supported for untwisted chains only")
    return Chain(product_space(c.space, d.space), c.degree + d.degree, _cross_coeffs(c, d))


def _first_factor(P: SimplicialSpace, Y: SimplicialSpace):
    """The X with product_space(X, Y) == P, or None when there is none.

    X is the first-coordinate shadow of P; its character is read on the
    edges of P along which the Y vertex stays fixed.
    """
    nY = Y.n
    if not nY or P.n % nY:
        return None
    try:
        X = SimplicialSpace(P.n // nY, {tuple(sorted({v // nY for v in s})) for s in P.simplices},
                            character={(a // nY, b // nY): P.w(a, b)
                                       for a, b in P.simplices_of(1) if a % nY == b % nY})
    except ValueError:
        return None
    return X if product_space(X, Y) == P else None


def slant(u: Cochain, z: Chain) -> Chain:
    """Divide a chain on a product X x Y by a cochain on the second factor Y.

    Only the staircases that advance fully through the first factor and
    then fully through the second contribute; degenerate mixtures die.
    The result lives on the X read off the product, which has no
    subcomplex.
    """
    if u.twisted or z.twisted:
        raise ValueError("slant is supported for untwisted inputs only")
    X = _first_factor(z.space, u.space)
    if X is None:
        raise ValueError("slant wants a chain on a product whose second factor is the cochain's space")
    nY = u.space.n
    p = u.degree
    out = {}
    for s, c in z.coeffs.items():
        n = len(s) - 1
        k = n - p
        if k < 0:
            continue
        pairs = [divmod(v, nY) for v in s]
        # front: X moves, Y frozen; back: X frozen, Y moves
        if any(pairs[i][1] != pairs[0][1] for i in range(k + 1)):
            continue
        if any(pairs[i][0] != pairs[k][0] for i in range(k, n + 1)):
            continue
        xs = tuple(pairs[i][0] for i in range(k + 1))
        ys = tuple(pairs[i][1] for i in range(k, n + 1))
        if len(set(xs)) != k + 1 or len(set(ys)) != p + 1:
            continue
        a = u.values.get(ys, 0)
        if not a:
            continue
        out[xs] = out.get(xs, 0) + c * a
    return Chain(X, z.degree - p, out)


def diagonal_chain(z: Chain) -> Chain:
    """Push a chain to the product of its space with itself.

    Front-face/back-face decomposition followed by the shuffle map; with
    this diagonal, cap(u, z) = slant(u, diagonal_chain(z)) exactly.
    """
    if z.twisted:
        raise ValueError("diagonal is supported for untwisted chains only")
    X = z.space
    out = {}
    for s, c in z.coeffs.items():
        for k in range(len(s)):
            for sign, v in _staircases(s[: k + 1], s[k:], X.n):
                out[v] = out.get(v, 0) + sign * c
    return Chain(product_space(X, X), z.degree, out)


def simplicial_chain_map(X: SimplicialSpace, Y: SimplicialSpace, vmap,
                         twisted: bool = False) -> ChainMap:
    """Chain map induced by a vertex map under which simplices stay simplices.

    vmap lists an image vertex for every vertex of X.  A simplex whose
    image has repeated vertices contributes zero; otherwise it maps to the
    sorted image with the sign of the sorting permutation.  The result is
    a checked chain map between the two boundary complexes.
    """
    if len(vmap) != X.n:
        raise ValueError("the vertex map must cover every vertex")

    def push(s):
        img = [vmap[v] for v in s]
        if len(set(img)) != len(img):
            return {}
        t = tuple(sorted(img))
        if t not in Y.simplices:
            raise ValueError(f"image {t} of {s} is not a simplex of the target")
        return {t: _perm_sign(img)}

    return _chain_map_from(push, X, Y, twisted)


# ---------------------------------------------------------------------------
# covers and transfer
# ---------------------------------------------------------------------------


class SimplicialCover:
    """Finite cover presented by a vertex projection map."""

    def __init__(self, total: SimplicialSpace, base: SimplicialSpace, projection, sheets: int):
        self.total = total
        self.base = base
        self.projection = list(projection)
        self.sheets = sheets
        if len(self.projection) != total.n:
            raise ValueError("projection must list an image for every total vertex")
        fibers = {}
        for s in total.simplices:
            img = tuple(sorted(self.projection[v] for v in s))
            if len(set(img)) != len(s):
                raise ValueError(f"projection collapses the simplex {s}")
            if img not in base.simplices:
                raise ValueError(f"image {img} of {s} is not a base simplex")
            fibers.setdefault(img, []).append(s)
        for s in base.simplices:
            if len(fibers.get(s, [])) != sheets:
                raise ValueError(f"base simplex {s} has {len(fibers.get(s, []))} sheets, wanted {sheets}")
        for (a, b) in total.simplices_of(1):
            pa, pb = self.projection[a], self.projection[b]
            if base.w(pa, pb) != total.w(a, b):
                raise ValueError("total character does not match the base character")
        self.fibers = fibers

    def lift_sign(self, lifted) -> int:
        """Sign of the permutation sorting the projected vertex sequence."""
        return _perm_sign([self.projection[v] for v in lifted])

    def to_json(self):
        return {
            "total": self.total.to_json(),
            "base": self.base.to_json(),
            "projection": self.projection,
            "sheets": self.sheets,
        }

    @classmethod
    def from_json(cls, data):
        return cls(SimplicialSpace.from_json(data["total"]),
                   SimplicialSpace.from_json(data["base"]),
                   data["projection"], data["sheets"])


def cyclic_cover(K: SimplicialSpace, voltage, k: int) -> SimplicialCover:
    """k-sheeted cyclic cover from an additive voltage cocycle on edges.

    voltage maps each sorted edge (a, b) to an integer; the cocycle
    condition phi(a,b) + phi(b,c) = phi(a,c) must hold mod k on every
    triangle.  Total vertices are (v, sheet) encoded as v*k + sheet.
    """
    volt = _displacement(voltage)
    for (a, b, c) in K.simplices_of(2):
        if (volt(a, b) + volt(b, c) - volt(a, c)) % k:
            raise ValueError(f"voltage is not a cocycle mod {k} on ({a},{b},{c})")

    def enc(v, s):
        return v * k + s

    simplices = set()
    sub = set()
    for s in K.simplices:
        for sheet in range(k):
            lift = tuple(sorted(enc(v, (sheet + volt(s[0], v)) % k) for v in s))
            simplices.add(lift)
            if s in K.sub:
                sub.add(lift)
    char = {}
    for (a, b), val in K.character.items():
        for sa in range(k):
            sb = (sa + volt(a, b)) % k
            e = tuple(sorted((enc(a, sa), enc(b, sb))))
            char[e] = val
    total = SimplicialSpace(K.n * k, simplices, sub, char)
    projection = [v // k for v in range(K.n * k)]
    return SimplicialCover(total, K, projection, k)


def orientation_double_cover(K: SimplicialSpace) -> SimplicialCover:
    """Double cover untwisting the character: voltage 1 on the -1 edges."""
    voltage = {e: 1 for e, val in K.character.items() if val == -1}
    base = K
    cov = cyclic_cover(K, voltage, 2)
    # the total space of the orientation cover is orientable: drop the
    # lifted character (it is trivialized upstairs only when we untwist)
    total = SimplicialSpace(cov.total.n, cov.total.simplices, cov.total.sub)
    return SimplicialCover(total, K.untwisted(), cov.projection, 2)


def transfer(cov: SimplicialCover, x):
    """Wrong-way map: base chains go up, total cochains come down."""
    if isinstance(x, Chain):
        return transfer_chain(cov, x)
    if isinstance(x, Cochain):
        return transfer_cochain(cov, x)
    raise TypeError("transfer wants a Chain or a Cochain")


def transfer_chain(cov: SimplicialCover, z: Chain) -> Chain:
    """Sum of all lifts, with orientation signs for order-scrambling sheets."""
    if z.space != cov.base:
        raise ValueError("transfer_chain wants a chain on the base")
    out = {}
    for s, c in z.coeffs.items():
        for lift in cov.fibers[s]:
            sign = cov.lift_sign(lift)
            t = 1
            if z.twisted:
                v0 = s[0]
                pv0 = cov.projection[lift[0]]
                t = cov.base.w(v0, pv0)
            out[lift] = out.get(lift, 0) + sign * t * c
    return Chain(cov.total, z.degree, out, z.twisted)


def pushforward_chain(cov: SimplicialCover, z: Chain) -> Chain:
    """Project a chain on the total space down, with the same signs."""
    if z.space != cov.total:
        raise ValueError("pushforward_chain wants a chain on the total space")
    out = {}
    for s, c in z.coeffs.items():
        img = tuple(sorted(cov.projection[v] for v in s))
        sign = cov.lift_sign(s)
        t = 1
        if z.twisted:
            t = cov.base.w(img[0], cov.projection[s[0]])
        out[img] = out.get(img, 0) + sign * t * c
    return Chain(cov.base, z.degree, out, z.twisted)


def transfer_cochain(cov: SimplicialCover, u: Cochain) -> Cochain:
    """Adjoint of the chain transfer: sum a total cochain over sheets."""
    if u.space != cov.total:
        raise ValueError("transfer_cochain wants a cochain on the total space")
    out = {}
    for s, lifts in cov.fibers.items():
        total = 0
        for lift in lifts:
            val = u.values.get(lift, 0)
            if val:
                t = 1
                if u.twisted:
                    t = cov.base.w(s[0], cov.projection[lift[0]])
                total += cov.lift_sign(lift) * t * val
        if total:
            out[s] = total
    return Cochain(cov.base, u.degree, out, u.twisted)


# ---------------------------------------------------------------------------
# equivariant complexes from voltages, and orientation characters
# ---------------------------------------------------------------------------


def _displacement(voltage):
    """The deck displacement a -> b of an edge voltage, antisymmetric in a, b."""
    phi = {tuple(sorted(e)): val for e, val in voltage.items()}

    def volt(a, b):
        if a == b:
            return 0
        v = phi.get((min(a, b), max(a, b)), 0)
        return v if a < b else -v

    return volt


def equivariant_complex(K: SimplicialSpace, voltage, ring: GroupSpec,
                        twisted: bool = False, rel: bool = False) -> BasedComplex:
    """Chain complex of the cover as free modules over the deck ring.

    voltage assigns the deck displacement (an exponent) to each sorted
    edge; the strict cocycle condition phi(a,b)+phi(b,c)=phi(a,c) must
    hold on triangles (mod n for a cyclic(n) ring).  Boundary entries are
    monomials t^phi on leading faces, matching the covering translation
    convention of cyclic_cover.
    """
    volt = _displacement(voltage)
    mod = ring.n if ring.kind == "cyclic" else None
    for (a, b, c) in K.simplices_of(2):
        bad = volt(a, b) + volt(b, c) - volt(a, c)
        if bad if mod is None else bad % mod:
            raise ValueError(f"voltage is not a cocycle on ({a},{b},{c})")

    def monomial(s, i, sign):
        return ring.monomial(volt(s[0], s[1]) if i == 0 else 0, sign)

    return BasedComplex._of_rows(ring, *_cell_walk(K, twisted, rel, lambda c: {}, monomial))


def _gf2_insert(echelon, v):
    """Add the GF(2) vector v, an int bitmask, to a reduced echelon.

    echelon maps the pivot of each row, its lowest set bit, to the row,
    and no row meets another row's pivot, so the rows are the reduced row
    echelon form of what was inserted.  Returns False, changing nothing,
    when v already lies in their span.
    """
    for p, row in echelon.items():
        if v & p:
            v ^= row
    if not v:
        return False
    p = v & -v
    for q, row in list(echelon.items()):
        if row & p:
            echelon[q] = row ^ v
    echelon[p] = v
    return True


def find_orientation_character(K: SimplicialSpace):
    """Search the finitely many twist classes for one with H_top = Z.

    Candidate characters are +-1 edge cocycles enumerated modulo vertex
    recalibration (coboundaries); for a closed pseudomanifold exactly one
    class makes the top twisted homology infinite cyclic, and the search
    returns that character (the space's orientation character), or None.
    With a subcomplex present the group asked about is the pair's.

    Edge cochains over GF(2) are int bitmasks, one bit per edge, and one
    echelon (_gf2_insert) gives both the cocycles, as the kernel of the
    triangle rows, and the test of a cocycle against the coboundaries.
    Each class is then decided by one rank: nothing lies above the top
    degree, so H_top(K, A; Z^w) is the kernel of the top twisted boundary,
    a free group, and it is Z exactly when the number of top cells minus
    the rank of that boundary is 1.
    """
    bit = {e: 1 << i for i, e in enumerate(K.simplices_of(1))}
    triangles = {}
    for (a, b, c) in K.simplices_of(2):
        _gf2_insert(triangles, bit[a, b] | bit[b, c] | bit[a, c])
    # one cocycle per free column of the reduced triangle rows
    kernel = [f | sum(p for p, row in triangles.items() if row & f)
              for f in bit.values() if f not in triangles]
    # the coboundaries, then one representative per class beyond them
    span = {}
    for vtx in range(K.n):
        _gf2_insert(span, sum(f for e, f in bit.items() if vtx in e))
    reps = [0]
    for v in kernel:
        if _gf2_insert(span, v):
            reps += [r ^ v for r in reps]
    top = K.dim()
    rows = {s: i for i, s in enumerate(_basis(K, top - 1, rel=True))}
    cols = _basis(K, top, rel=True)
    # (row, column, untwisted sign, bit of the edge whose character it carries or 0)
    entries = [(rows[face], j, sign, 0 if i else bit[s[:2]])
               for j, s in enumerate(cols) for i, face, sign in _faces(K, s, False) if face in rows]
    for rep in reps:
        M = [[0] * len(cols) for _ in rows]
        for i, j, sign, e in entries:
            M[i][j] = -sign if rep & e else sign
        if len(cols) - _Smith(M, len(rows), len(cols)).rank == 1:
            return {e: -1 for e, f in bit.items() if rep & f}
    return None


# ---------------------------------------------------------------------------
# barycentric subdivision and the last-vertex map
# ---------------------------------------------------------------------------


def _bary_vertices(K: SimplicialSpace) -> dict:
    # simplex of K -> its barycenter, a vertex of barycentric(K)
    return {s: i for i, s in enumerate(sorted(K.simplices, key=lambda s: (len(s), s)))}


def barycentric(K: SimplicialSpace) -> SimplicialSpace:
    """Barycentric subdivision, one vertex per simplex of K.

    New vertices are numbered by (dimension, vertex tuple), so every flag
    of faces is an ascending tuple, and the vertex table can always be
    read back off K.  The character moves to an edge between barycenters
    as the transport between the leading vertices of the two faces; its
    cocycle condition is inherited.
    """
    vertex_of = _bary_vertices(K)
    order = list(vertex_of)

    chains_at = {}

    def chains(s):
        if s not in chains_at:
            out = [(s,)]
            for k in range(1, len(s)):
                for f in combinations(s, k):
                    out.extend(c + (s,) for c in chains(f))
            chains_at[s] = out
        return chains_at[s]

    simplices = set()
    sub = set()
    for s in K.simplices:
        for c in chains(s):
            flag = tuple(vertex_of[f] for f in c)
            simplices.add(flag)
            if s in K.sub:
                sub.add(flag)
    char = {}
    if K.character:
        for flag in simplices:
            if len(flag) == 2:
                a, b = order[flag[0]], order[flag[1]]
                val = K.w(a[0], b[0])
                if val == -1:
                    char[flag] = -1
    return SimplicialSpace(len(order), simplices, sub, char)


def _sd_terms(s):
    # flags of the full chain sd(s) with signs, from the cone recursion
    # sd(s) = (-1)^q * (barycenter appended to sd of the boundary)
    if len(s) == 1:
        return [((s,), 1)]
    q = len(s) - 1
    out = []
    for i in range(len(s)):
        face = s[:i] + s[i + 1:]
        fsign = (-1) ** (q + i)
        for flag, sign in _sd_terms(face):
            out.append((flag + (s,), fsign * sign))
    return out


def _subdivided(K, vertex_of, coeffs, twisted):
    out = {}
    for s, c in coeffs.items():
        for flag, sign in _sd_terms(s):
            t = K.transport(s[0], flag[0][0], twisted)
            key = tuple(vertex_of[f] for f in flag)
            out[key] = out.get(key, 0) + sign * t * c
    return out


def _last_vertices(K, order, coeffs, twisted):
    out = {}
    for flag, c in coeffs.items():
        faces = [order[v] for v in flag]
        verts = tuple(max(f) for f in faces)
        if len(set(verts)) != len(verts):
            continue
        t = K.transport(faces[0][0], verts[0], twisted)
        out[verts] = out.get(verts, 0) + t * c
    return out


def subdivision_chain(z: Chain, sd: SimplicialSpace) -> Chain:
    """Push a chain into the barycentric subdivision sd of its space."""
    K = z.space
    if sd != barycentric(K):
        raise ValueError("subdivision target is not the barycentric subdivision of the chain's space")
    return Chain(sd, z.degree, _subdivided(K, _bary_vertices(K), z.coeffs, z.twisted), z.twisted)


def last_vertex_chain(z: Chain, K: SimplicialSpace) -> Chain:
    """Project a chain on barycentric(K) back to K along the last-vertex map."""
    if z.space != barycentric(K):
        raise ValueError("last_vertex_chain wants a chain on the barycentric subdivision of K")
    return Chain(K, z.degree, _last_vertices(K, list(_bary_vertices(K)), z.coeffs, z.twisted), z.twisted)


def _chain_map_from(push, src_space, dst_space, twisted):
    # push takes one simplex of src_space to its image coefficients; the
    # map runs between the boundary complexes of the given twist that the
    # two spaces keep
    mats = {}
    for q in range(0, max(src_space.dim(), 0) + 1):
        basis = src_space.simplices_of(q)
        rows = dst_space.simplices_of(q)
        ridx = {s: i for i, s in enumerate(rows)}
        M = [{} for _ in rows]
        for j, s in enumerate(basis):
            for t, c in push(s).items():
                if c:
                    M[ridx[t]][j] = Z.monomial(0, c)
        if M:
            mats[q] = M
    return ChainMap._of_rows(_complex(src_space, twisted), _complex(dst_space, twisted), mats)


def subdivision_map(K: SimplicialSpace, twisted: bool = False):
    """(sd K, chain map C(K) -> C(sd K)) for the barycentric subdivision."""
    sd = barycentric(K)
    vertex_of = _bary_vertices(K)
    return sd, _chain_map_from(lambda s: _subdivided(K, vertex_of, {s: 1}, twisted), K, sd, twisted)


def last_vertex_map(K: SimplicialSpace, twisted: bool = False):
    """(sd K, chain map C(sd K) -> C(K)) along the last-vertex projection."""
    sd = barycentric(K)
    order = list(_bary_vertices(K))
    return sd, _chain_map_from(lambda s: _last_vertices(K, order, {s: 1}, twisted), sd, K, twisted)
