"""Based free chain complexes over the catalog rings.

A complex here is strictly finite: finitely many degrees, finite rank in
each.  Boundary matrices act on column vectors, so the matrix of
d_k : C_k -> C_{k-1} has rank(k-1) rows and rank(k) columns, and entry
(i, j) is the coefficient of the i-th basis element of C_{k-1} in the
image of the j-th basis element of C_k.

Homology and cohomology of a complex are presented in one way only:
_subquotient_presentation, on top of the presented-group layer of
coefficients, returns the group on a lattice basis, listed vector by
vector, with a coordinate solver, and every homology group, class and
induced map in the package is read off such a presentation.  A
simplicial space keeps its boundary complexes, and so their
presentations, in a memo that simplicial_products._complex fills and
_hom and _coh read.  A complex built from integers (boundary_complex,
change_of_rings) keeps its integer boundaries, and homology reads them
as they are; a complex built from ring matrices has its integer d_k read
off them once.  Each integer boundary, and its transpose for cohomology,
whose columns are the rows of d, is factored at most once per complex
into a coefficients._Smith, the one reader of smith_normal_form, and a
memo on the complex keeps it together with the presentations built from
it: the cycles of d are its kernel lattice, with kernel_coordinates, the
boundaries are its image(), and torsion's boundary lifts are its lifts().

Boundaries, chain maps and homotopies over a group ring are held as
sparse rows, the form coefficients._eliminate reduces; integer
boundaries stay dense.  Dense lists of ring elements are only read by
the constructors and written by boundary(k), mat(k) and to_json; inside
the package the _of_rows constructors and _rows(k) accessors pass the
sparse rows on as they are.  Every assembled matrix (sums, cones, tensor
products, torsion's odd-to-even matrix) is laid out by
coefficients._blocks, the one place where block layouts are decided.

Contractions are built in one degreewise pass, each degree solved as
ring_solve solves: exactly by elimination on trivial units +-g^k first,
and by integer expansion only for a core without one.  A degree without
a solution ends the pass with the reason of its solve.  "no solution"
is a proof, over every catalog ring, that a homology group is not zero;
("window", W) says only that the Laurent exponent window -W..W, widened
once, held no solution.
"""

from __future__ import annotations

import functools

from .coefficients import (
    GroupRingElt,
    GroupSpec,
    _Smith,
    _blocks,
    _dense,
    _expansion,
    _eye,
    _int_rows,
    _quotient_on_lattice,
    _ring_solve,
    _rmul,
    _sparse,
    _sub_multiple,
    _transpose,
)


class BasedComplex:
    """Finite free chain complex with a preferred ordered basis per degree.

    A complex keeps its boundaries as they were built.  One built from
    ring matrices keeps their sparse rows; one built from integer matrices
    (complex_from_int) keeps the integers, and _rows(k) makes the sparse
    ring rows of d_k the first time a caller asks for them and keeps
    those.  boundary(k) writes d_k out as a dense list on every call.  The
    integer d_k of a complex over the trivial ring is _int_boundary's.
    """

    __slots__ = ("ring", "lo", "hi", "ranks", "labels", "_rings", "_ints", "_memo")

    def __init__(self, ring: GroupSpec, ranks: dict, boundaries: dict, labels: dict | None = None):
        self._fill(ring, ranks, labels)
        self._rings = {k: _sparse(M) for k, M in self._given(boundaries).items()}

    @classmethod
    def _of_rows(cls, ring: GroupSpec, ranks: dict, rows: dict, labels: dict | None = None):
        # the complex whose ring boundaries have the sparse rows given,
        # taken as they are
        C = cls.__new__(cls)
        C._fill(ring, ranks, labels)
        C._rings = rows
        return C

    def _fill(self, ring, ranks, labels):
        ranks = {int(k): int(v) for k, v in ranks.items() if v}
        if ranks:
            lo, hi = min(ranks), max(ranks)
        else:
            lo, hi = 0, -1
        self.ring = ring
        self.lo = lo
        self.hi = hi
        self.ranks = ranks
        self.labels = {} if labels is None else {int(k): list(v) for k, v in labels.items()}
        self._rings, self._ints, self._memo = {}, {}, {}

    def _given(self, boundaries):
        # the dense matrices given for d_{lo+1}..d_hi, shapes checked
        return _shaped(boundaries, range(self.lo + 1, self.hi + 1),
                       lambda k: (self.rank(k - 1), self.rank(k)), "boundary")

    def rank(self, k: int) -> int:
        return self.ranks.get(k, 0)

    def _rows(self, k: int):
        # the sparse rows of d_k, none nonzero outside the stored range
        M = self._rings.get(k)
        if M is None:
            if k not in self._ints:
                return [{} for _ in range(self.rank(k - 1))]
            ring = self.ring
            M = self._rings[k] = [{j: ring.monomial(0, x) for j, x in enumerate(row) if x}
                                  for row in self._ints[k]]
        return M

    def boundary(self, k: int):
        """Matrix of d_k, with zero-rank shapes outside the stored range."""
        return _dense(self._rows(k), self.rank(k), self.ring.zero())

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def label(self, k: int, i: int) -> str:
        lab = self.labels.get(k)
        return lab[i] if lab and i < len(lab) else f"e{k}.{i}"

    def euler(self) -> int:
        return sum((-1) ** k * r for k, r in self.ranks.items())

    def total_rank(self) -> int:
        return sum(self.ranks.values())

    def __repr__(self):
        rk = ", ".join(f"{k}:{self.rank(k)}" for k in self.degrees())
        return f"BasedComplex({self.ring!r}, ranks {{{rk}}})"

    def to_json(self):
        ranks = [self.rank(k) for k in self.degrees()]
        bnds = []
        for k in range(self.lo + 1, self.hi + 1):
            bnds.append([[x.to_json() for x in row] for row in self.boundary(k)])
        out = {"ring": self.ring.to_json(), "lo": self.lo, "ranks": ranks, "boundaries": bnds}
        if self.labels:
            out["labels"] = {str(k): v for k, v in self.labels.items()}
        return out

    @classmethod
    def from_json(cls, data) -> "BasedComplex":
        ring = GroupSpec.from_json(data["ring"])
        lo = int(data["lo"])
        ranks = {lo + i: r for i, r in enumerate(data["ranks"])}
        bnds = {}
        for i, M in enumerate(data.get("boundaries", [])):
            k = lo + i + 1
            bnds[k] = [[GroupRingElt.from_json(ring, x) for x in row] for row in M]
        labels = {int(k): v for k, v in (data.get("labels") or {}).items()}
        return cls(ring, ranks, bnds, labels)


def complex_from_int(ring: GroupSpec, ranks: dict, boundaries: dict, labels=None) -> BasedComplex:
    """The complex whose boundaries are the integer matrices given.

    It keeps the integers: homology factors them as they are, and the
    ring view of each boundary is built only when boundary(k) is asked.
    """
    C = BasedComplex._of_rows(ring, ranks, {}, labels)
    C._ints = C._given(boundaries)
    return C


def _shaped(mats, degrees, shape, what):
    # the dense matrices given at the degrees, checked to have the
    # (rows, columns) of shape(k)
    for k in degrees:
        M = mats.get(k)
        if M is not None:
            r, c = shape(k)
            if len(M) != r or (r and any(len(row) != c for row in M)):
                raise ValueError(f"{what} at degree {k} has the wrong shape")
    return {k: mats[k] for k in degrees if k in mats}


def _int_boundary(C: BasedComplex, k: int):
    # the integer d_k of a complex over the trivial ring: as built for a
    # complex of integers, else read off the ring matrix once and kept
    M = C._ints.get(k)
    if M is None:
        if k not in C._rings:
            return [[0] * C.rank(k) for _ in range(C.rank(k - 1))]
        M = C._ints[k] = _int_rows(C._rings[k], C.rank(k))
    return M


def validate_complex(C: BasedComplex):
    """Check d∘d = 0 everywhere; the report names the first bad entry."""
    for k in range(C.lo + 2, C.hi + 1):
        for i, row in enumerate(_rmul(C._rows(k - 1), C._rows(k))):
            if row:
                (j, x), *_ = row.items()
                return {
                    "valid": False,
                    "degree": k,
                    "entry": (i, j),
                    "value": x,
                    "message": f"d_{k-1} d_{k} has nonzero entry {x!r} at ({i}, {j})",
                }
    return {"valid": True}


class ChainMap:
    """Degree-zero map of complexes; components checked against boundaries.

    The components are kept as sparse rows; mat(k) writes one out densely.
    """

    __slots__ = ("source", "target", "_mats")

    def __init__(self, source: BasedComplex, target: BasedComplex, mats: dict, check: bool = True):
        if source.ring != target.ring:
            raise ValueError("chain maps need a common ring")
        mats = _shaped(mats, range(min(source.lo, target.lo), max(source.hi, target.hi) + 1),
                       lambda k: (target.rank(k), source.rank(k)), "component")
        self._fill(source, target, {k: _sparse(M) for k, M in mats.items()}, check)

    @classmethod
    def _of_rows(cls, source: BasedComplex, target: BasedComplex, rows: dict, check: bool = True):
        # the chain map whose components have the sparse rows given, taken
        # as they are
        f = cls.__new__(cls)
        f._fill(source, target, rows, check)
        return f

    def _fill(self, source, target, rows, check):
        self.source, self.target, self._mats = source, target, rows
        if check and not self.commutes():
            raise ValueError("components do not commute with the boundaries")

    def _rows(self, k: int):
        # the sparse rows of the component at degree k
        M = self._mats.get(k)
        return [{} for _ in range(self.target.rank(k))] if M is None else M

    def mat(self, k: int):
        return _dense(self._rows(k), self.source.rank(k), self.source.ring.zero())

    def commutes(self) -> bool:
        S, T = self.source, self.target
        return all(_rmul(T._rows(k), self._rows(k)) == _rmul(self._rows(k - 1), S._rows(k))
                   for k in range(min(S.lo, T.lo), max(S.hi, T.hi) + 1))

    @classmethod
    def identity(cls, C: BasedComplex) -> "ChainMap":
        return cls._of_rows(C, C, {k: _eye(C.ring, C.rank(k)) for k in C.degrees()}, check=False)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        if other.target is not self.source and other.target.ranks != self.source.ranks:
            raise ValueError("composition shape mismatch")
        mats = {k: _rmul(self._rows(k), other._rows(k)) for k in other.source.degrees()}
        return ChainMap._of_rows(other.source, self.target, mats, check=False)


class ChainHomotopy:
    """Degree +1 operator; D_k maps degree k into degree k+1.

    The components are kept as sparse rows; mat(k) writes one out densely.
    """

    __slots__ = ("source", "target", "_mats")

    def __init__(self, source: BasedComplex, target: BasedComplex, mats: dict):
        self.source = source
        self.target = target
        self._mats = {k: _sparse(M) for k, M in mats.items()}

    @classmethod
    def _of_rows(cls, source: BasedComplex, target: BasedComplex, rows: dict):
        # the homotopy whose components have the sparse rows given, taken
        # as they are
        H = cls.__new__(cls)
        H.source, H.target, H._mats = source, target, rows
        return H

    def _rows(self, k: int):
        # the sparse rows of D_k
        M = self._mats.get(k)
        return [{} for _ in range(self.target.rank(k + 1))] if M is None else M

    def mat(self, k: int):
        return _dense(self._rows(k), self.source.rank(k), self.source.ring.zero())


def is_contraction_through(C: BasedComplex, H: ChainHomotopy, n: int) -> bool:
    """Does D d + d D = id hold in every degree r <= n."""
    for r in range(C.lo, min(n, C.hi) + 1):
        # d D + D d on C_r, as the product [d_(r+1) | D_(r-1)] [D_r ; d_r]
        dD = _blocks((C.rank(r),), (C.rank(r + 1), C.rank(r - 1)),
                     {(0, 0): C._rows(r + 1), (0, 1): H._rows(r - 1)})
        if _rmul(dD, H._rows(r) + C._rows(r)) != _eye(C.ring, C.rank(r)):
            return False
    return True


def find_contraction(C: BasedComplex, n: int) -> ChainHomotopy | None:
    """Search for a chain contraction valid through degree n.

    Built in one degreewise pass (_contraction) that solves
    d_{r+1} D_r = id - D_{r-1} d_r by the exact-first solve of ring_solve:
    elimination on the trivial-unit entries of d_{r+1} first, and the
    integer expansion only for a core without one.  Over Z and Z[C_n]
    both are exact, so None proves that some H_r is not zero.  Over
    Z[t,t^-1] so does a None from elimination, while the expansion
    searches an exponent window sized from the boundary support and the
    length of the complex; a degree that misses only that window is
    solved once more in a window twice as wide, and a second miss is a
    None that says nothing beyond the window.  _contraction returns the
    reason with the degree: "no solution", or ("window", W) for the widest
    window -W..W.  Every contraction returned passes is_contraction_through.
    """
    return _contraction(C, n)[0]


def _contraction(C: BasedComplex, n: int):
    # find_contraction with the reason of a miss: (contraction through
    # degree n, None), or (None, (reason, r)) at the first degree r with
    # no D_r solving d_{r+1} D_r = id - D_{r-1} d_r, the reason that of
    # _ring_solve
    ring = C.ring
    # scanned only when a Laurent expansion first reads a window
    windows = functools.cache(lambda: _contraction_windows(C))
    mats = {}
    prev = None
    for r in range(C.lo, min(n, C.hi) + 1):
        rhs = _eye(ring, C.rank(r))
        if prev is not None:
            for row, p in zip(rhs, _rmul(prev, C._rows(r))):
                _sub_multiple(row, ring.one(), p)
        shape = C.rank(r), C.rank(r + 1), C.rank(r)
        D, why = _ring_solve(ring, C._rows(r + 1), rhs, *shape, lambda: windows()[0])
        if isinstance(why, tuple):  # ("window", W): widen once
            D, why = _ring_solve(ring, C._rows(r + 1), rhs, *shape, windows()[1])
        if D is None:
            return None, (why, r)
        mats[r] = prev = D
    H = ChainHomotopy._of_rows(C, C, mats)
    if not is_contraction_through(C, H, n):
        raise RuntimeError("the degreewise contraction fails D d + d D = id")
    return H, None


def _contraction_windows(C: BasedComplex):
    # the exponent windows of a Laurent contraction search, in order
    spread = max((abs(e) for k in range(C.lo + 1, C.hi + 1) for row in C._rows(k)
                  for x in row.values() for e in x.terms()), default=0)
    base = spread * (C.hi - C.lo + 1) + 2
    return base, 2 * base


# ---------------------------------------------------------------------------
# homology over the integers
# ---------------------------------------------------------------------------


def homology_Z(C: BasedComplex) -> dict:
    """Integral homology per degree, as finitely generated abelian groups.

    The ring must be trivial; push other rings down with change_of_rings
    first.
    """
    if C.ring.kind != "trivial":
        raise ValueError("homology_Z wants the trivial ring; apply change_of_rings first")
    return {k: homology_presentation(C, k)[0] for k in C.degrees()}


def _smith(C: BasedComplex, k: int, dual: bool = False) -> _Smith:
    # the _Smith of the integer d_k of _int_boundary, or of its transpose,
    # whose columns are the rows of d_k, when dual; kept in C's memo
    memo = C._memo
    if (k, dual) not in memo:
        d, r, c = _int_boundary(C, k), C.rank(k - 1), C.rank(k)
        memo[k, dual] = _Smith(d, c, r, columns=True) if dual else _Smith(d, r, c)
    return memo[k, dual]


def _differential_columns(C: BasedComplex, k: int, dual: bool = False):
    """Sparse columns of the differential out of degree k: d_k, or delta_k = d_(k+1)^T when dual.

    Column j is the image of basis vector j, as {index: entry}.  It is the
    matrix whose kernel the (co)homology presentation at k is, read off
    the factorization that presentation keeps.
    """
    return _smith(C, k + 1 if dual else k, dual)._cols


def _subquotient_presentation(C: BasedComplex, k_out: int, k_in: int, dual: bool):
    # ker d_out / im d_in on the kernel basis V[:, rank:] of d_out, where x
    # has the kernel coordinates of d_out's _Smith; kept in C's memo under
    # (k_out, k_in, dual)
    memo = C._memo
    if (k_out, k_in, dual) not in memo:
        S = _smith(C, k_out, dual)
        memo[k_out, k_in, dual] = _quotient_on_lattice(
            S.kernel(), S.kernel_coordinates, _smith(C, k_in, dual).image())
    return memo[k_out, k_in, dual]


def homology_presentation(C: BasedComplex, k: int):
    """Homology at one degree, presented on a basis of the cycle lattice.

    Returns (group, cycles, solver): cycles lists the lattice basis, one
    degree-k vector per generator, and solver takes a degree-k vector to
    its coordinates in that basis (None when the vector is not a cycle).
    Generator j of the group is the class of cycles[j], so induced maps on
    homology can be assembled by pushing basis cycles through a chain map
    and solving.
    """
    if C.ring.kind != "trivial":
        raise ValueError("homology presentations want the trivial ring")
    return _subquotient_presentation(C, k, k + 1, False)


def cohomology_presentation(C: BasedComplex, k: int):
    """Cohomology at one degree, presented on a basis of the cocycle lattice.

    Same contract as homology_presentation with arrows reversed: the
    listed basis vectors are cocycles, as values on the degree-k basis.
    """
    if C.ring.kind != "trivial":
        raise ValueError("cohomology presentations want the trivial ring")
    return _subquotient_presentation(C, k + 1, k, True)


def change_of_rings(C: BasedComplex, target: str) -> BasedComplex:
    """Push the complex to the integers along a catalog ring morphism.

    target is "augmentation" (sum of coefficients), "character" (the
    orientation character), or "regular" (the regular embedding of a
    finite cyclic group ring, multiplying every rank by n).
    """
    Z = GroupSpec("trivial")
    if target in ("augmentation", "character"):
        push = GroupRingElt.augmentation if target == "augmentation" else GroupRingElt.character_value
        bnd = {k: _int_rows(C._rows(k), C.rank(k), push) for k in range(C.lo + 1, C.hi + 1)}
        return complex_from_int(Z, dict(C.ranks), bnd, dict(C.labels))
    if target == "regular":
        if C.ring.kind != "cyclic":
            raise ValueError("regular embedding wants a finite cyclic ring")
        n = C.ring.n
        ranks = {k: n * r for k, r in C.ranks.items()}
        bnd = {k: _expansion(C._rows(k), C.rank(k - 1), C.rank(k), range(n), range(n))
               for k in range(C.lo + 1, C.hi + 1)}
        return complex_from_int(Z, ranks, bnd)
    raise ValueError(f"unsupported ring morphism {target!r}")


# ---------------------------------------------------------------------------
# duals, sums, cones, tensor products
# ---------------------------------------------------------------------------


def dual_complex(C: BasedComplex, m: int) -> BasedComplex:
    """The m-twisted functional dual: degree k holds the dual of C_{m-k}.

    Entries pass through the orientation-twisted involution, matrices are
    transposed, and the boundary in degree k carries the sign (-1)^(k+m).
    The double dual has the same bases and matrices up to the global
    chain isomorphism that is the identity when m is odd and alternates
    signs by degree when m is even.
    """
    ranks = {m - k: r for k, r in C.ranks.items()}
    labels = {m - k: [f"{lab}^" for lab in C.labels[k]] for k in C.labels}
    bnd = {}
    for k in range(m - C.hi + 1, m - C.lo + 1):
        sign = -1 if (k + m) % 2 else 1
        bnd[k] = [{i: x.involve() * sign for i, x in col.items()}
                  for col in _transpose(C._rows(m - k + 1), C.rank(m - k + 1))]
    return BasedComplex._of_rows(C.ring, ranks, bnd, labels)


def direct_sum(C: BasedComplex, D: BasedComplex) -> BasedComplex:
    if C.ring != D.ring:
        raise ValueError("ring mismatch")
    ranks = {k: C.rank(k) + D.rank(k) for k in set(C.ranks) | set(D.ranks)}
    bnd = {k: _blocks((C.rank(k - 1), D.rank(k - 1)), (C.rank(k), D.rank(k)),
                      {(0, 0): C._rows(k), (1, 1): D._rows(k)})
           for k in ranks}
    labels = {}
    for k in set(C.labels) | set(D.labels) | set(ranks):
        labels[k] = [C.label(k, i) for i in range(C.rank(k))] + [D.label(k, i) for i in range(D.rank(k))]
    return BasedComplex._of_rows(C.ring, ranks, bnd, labels)


def cone(f: ChainMap) -> BasedComplex:
    """Mapping cone: degree n holds source_{n-1} and target_n.

    d(a, b) = (-d a, d b - f a), which squares to zero exactly because f
    is a chain map.
    """
    def neg(M):
        return [{j: -x for j, x in row.items()} for row in M]

    A, B = f.source, f.target
    ranks = {k: A.rank(k - 1) + B.rank(k) for k in {j + 1 for j in A.ranks} | set(B.ranks)}
    bnd = {k: _blocks((A.rank(k - 2), B.rank(k - 1)), (A.rank(k - 1), B.rank(k)),
                      {(0, 0): neg(A._rows(k - 1)), (1, 0): neg(f._rows(k - 1)),
                       (1, 1): B._rows(k)})
           for k in ranks}
    labels = {}
    for k in ranks:
        labels[k] = [f"a.{A.label(k - 1, i)}" for i in range(A.rank(k - 1))] + \
                    [f"b.{B.label(k, i)}" for i in range(B.rank(k))]
    return BasedComplex._of_rows(A.ring, ranks, bnd, labels)


def tensor(C: BasedComplex, D: BasedComplex) -> BasedComplex:
    """Tensor product over the integers; D must live over the trivial ring.

    Basis of (C (x) D)_n: pairs (p-basis of C, q-basis of D) with p+q = n,
    ordered by ascending p then lexicographically.  The boundary follows
    d(x (x) y) = dx (x) y + (-1)^p x (x) dy: block p-1 <- p of d_n is
    dC_p (x) 1 and block p <- p is (-1)^p 1 (x) dD_q.
    """
    if D.ring.kind != "trivial":
        raise ValueError("tensor factor D must be an integer complex")
    ring = C.ring
    # the blocks C_p (x) D_{n-p} of degree n, keyed by p in ascending order
    sizes = {n: {p: C.rank(p) * D.rank(n - p) for p in C.degrees() if C.rank(p) and D.rank(n - p)}
             for n in range(C.lo + D.lo, C.hi + D.hi + 1)}
    bnd = {}
    for n in sizes:
        rows, blocks = sizes.get(n - 1, {}), {}
        for p in sizes[n]:
            q = n - p
            m = D.rank(q)
            if p - 1 in rows:
                # dC_p (x) 1: row (i, s) to column (j, s)
                blocks[p - 1, p] = [{j * m + s: x for j, x in row.items()}
                                    for row in C._rows(p) for s in range(m)]
            if p in rows:
                # (-1)^p 1 (x) dD_q: row (i, s) to column (i, t)
                sgn = -1 if p % 2 else 1
                blocks[p, p] = [{i * m + t: ring.monomial(0, sgn * y) for t, y in enumerate(row) if y}
                                for i in range(C.rank(p)) for row in _int_boundary(D, q)]
        bnd[n] = _blocks(rows, sizes[n], blocks)
    ranks = {n: sum(s.values()) for n, s in sizes.items() if s}
    labels = {n: [f"{C.label(p, i)}*{D.label(n - p, j)}"
                  for p in s for i in range(C.rank(p)) for j in range(D.rank(n - p))]
              for n, s in sizes.items() if s}
    return BasedComplex._of_rows(ring, ranks, bnd, labels)
