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

Every assembled matrix (sums, cones, tensor products, torsion's
odd-to-even matrix) is laid out by coefficients._blocks, the one place
where block layouts are decided.

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
    _expansion,
    _quotient_on_lattice,
    _ring_solve,
    _unit,
    rmat_eye,
    rmat_from_int,
    rmat_involve_transpose,
    rmat_is_zero,
    rmat_mul,
    rmat_neg,
    rmat_sub,
    rmat_to_int,
    rmat_zero,
)


class BasedComplex:
    """Finite free chain complex with a preferred ordered basis per degree.

    A complex keeps its boundaries as they were built.  One built from
    ring matrices keeps those; one built from integer matrices
    (complex_from_int) keeps the integers, and boundary(k) makes the ring
    view of d_k the first time a caller asks for it and keeps that.  The
    integer d_k of a complex over the trivial ring is _int_boundary's.
    """

    __slots__ = ("ring", "lo", "hi", "ranks", "labels", "_rings", "_ints", "_memo")

    def __init__(self, ring: GroupSpec, ranks: dict, boundaries: dict, labels: dict | None = None):
        self._fill(ring, ranks, labels)
        self._rings = self._shaped(boundaries, ring.zero())
        self._ints = {}

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
        self._memo = {}

    def _shaped(self, boundaries, zero):
        # the matrices of d_{lo+1}..d_hi, shapes checked, zeros where none is given
        bnd = {}
        for k in range(self.lo + 1, self.hi + 1):
            r, c = self.rank(k - 1), self.rank(k)
            M = boundaries.get(k)
            if M is None:
                M = [[zero] * c for _ in range(r)]
            if len(M) != r or (r and any(len(row) != c for row in M)):
                raise ValueError(f"boundary at degree {k} has the wrong shape")
            bnd[k] = M
        return bnd

    def rank(self, k: int) -> int:
        return self.ranks.get(k, 0)

    def boundary(self, k: int):
        """Matrix of d_k, with zero-rank shapes outside the stored range."""
        M = self._rings.get(k)
        if M is None:
            if k not in self._ints:
                return rmat_zero(self.ring, self.rank(k - 1), self.rank(k))
            M = self._rings[k] = rmat_from_int(self.ring, self._ints[k])
        return M

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
    C = BasedComplex.__new__(BasedComplex)
    C._fill(ring, ranks, labels)
    C._rings, C._ints = {}, C._shaped(boundaries, 0)
    return C


def _int_boundary(C: BasedComplex, k: int):
    # the integer d_k of a complex over the trivial ring: as built for a
    # complex of integers, else read off the ring matrix once and kept
    M = C._ints.get(k)
    if M is None:
        if k not in C._rings:
            return [[0] * C.rank(k) for _ in range(C.rank(k - 1))]
        M = C._ints[k] = rmat_to_int(C._rings[k])
    return M


def validate_complex(C: BasedComplex):
    """Check d∘d = 0 everywhere; the report names the first bad entry."""
    for k in range(C.lo + 2, C.hi + 1):
        P = rmat_mul(C.ring, C.boundary(k - 1), C.boundary(k), C.rank(k - 2), C.rank(k - 1), C.rank(k))
        for i in range(C.rank(k - 2)):
            for j in range(C.rank(k)):
                if not P[i][j].is_zero:
                    return {
                        "valid": False,
                        "degree": k,
                        "entry": (i, j),
                        "value": P[i][j],
                        "message": f"d_{k-1} d_{k} has nonzero entry {P[i][j]!r} at ({i}, {j})",
                    }
    return {"valid": True}


class ChainMap:
    """Degree-zero map of complexes; components checked against boundaries."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: BasedComplex, target: BasedComplex, mats: dict, check: bool = True):
        if source.ring != target.ring:
            raise ValueError("chain maps need a common ring")
        self.source = source
        self.target = target
        self.mats = {}
        for k in range(min(source.lo, target.lo), max(source.hi, target.hi) + 1):
            r, c = target.rank(k), source.rank(k)
            M = mats.get(k)
            if M is None:
                M = rmat_zero(source.ring, r, c)
            if len(M) != r or (r and any(len(row) != c for row in M)):
                raise ValueError(f"component at degree {k} has the wrong shape")
            self.mats[k] = M
        if check and not self.commutes():
            raise ValueError("components do not commute with the boundaries")

    def mat(self, k: int):
        if k in self.mats:
            return self.mats[k]
        return rmat_zero(self.source.ring, self.target.rank(k), self.source.rank(k))

    def commutes(self) -> bool:
        ring = self.source.ring
        for k in range(min(self.source.lo, self.target.lo), max(self.source.hi, self.target.hi) + 1):
            left = rmat_mul(ring, self.target.boundary(k), self.mat(k),
                            self.target.rank(k - 1), self.target.rank(k), self.source.rank(k))
            right = rmat_mul(ring, self.mat(k - 1), self.source.boundary(k),
                             self.target.rank(k - 1), self.source.rank(k - 1), self.source.rank(k))
            if not rmat_is_zero(rmat_sub(left, right)):
                return False
        return True

    @classmethod
    def identity(cls, C: BasedComplex) -> "ChainMap":
        return cls(C, C, {k: rmat_eye(C.ring, C.rank(k)) for k in C.degrees()}, check=False)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        if other.target is not self.source and other.target.ranks != self.source.ranks:
            raise ValueError("composition shape mismatch")
        ring = self.source.ring
        mats = {}
        for k in range(other.source.lo, other.source.hi + 1):
            mats[k] = rmat_mul(ring, self.mat(k), other.mat(k),
                               self.target.rank(k), self.source.rank(k), other.source.rank(k))
        return ChainMap(other.source, self.target, mats, check=False)


class ChainHomotopy:
    """Degree +1 operator; D_k maps degree k into degree k+1."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: BasedComplex, target: BasedComplex, mats: dict):
        self.source = source
        self.target = target
        self.mats = dict(mats)

    def mat(self, k: int):
        if k in self.mats:
            return self.mats[k]
        return rmat_zero(self.source.ring, self.target.rank(k + 1), self.source.rank(k))


def is_contraction_through(C: BasedComplex, H: ChainHomotopy, n: int) -> bool:
    """Does D d + d D = id hold in every degree r <= n."""
    ring = C.ring
    for r in range(C.lo, min(n, C.hi) + 1):
        a = rmat_mul(ring, C.boundary(r + 1), H.mat(r), C.rank(r), C.rank(r + 1), C.rank(r))
        b = rmat_mul(ring, H.mat(r - 1), C.boundary(r), C.rank(r), C.rank(r - 1), C.rank(r))
        for i, (ra, rb) in enumerate(zip(a, b)):
            for j, (x, y) in enumerate(zip(ra, rb)):
                s = x + y
                if not (s.is_one if i == j else s.is_zero):
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
        rhs = rmat_eye(ring, C.rank(r))
        if prev is not None:
            rhs = rmat_sub(rhs, rmat_mul(ring, prev, C.boundary(r),
                                         C.rank(r), C.rank(r - 1), C.rank(r)))
        shape = C.rank(r), C.rank(r + 1), C.rank(r)
        D, why = _ring_solve(ring, C.boundary(r + 1), rhs, *shape, lambda: windows()[0])
        if isinstance(why, tuple):  # ("window", W): widen once
            D, why = _ring_solve(ring, C.boundary(r + 1), rhs, *shape, windows()[1])
        if D is None:
            return None, (why, r)
        mats[r] = prev = D
    H = ChainHomotopy(C, C, mats)
    if not is_contraction_through(C, H, n):
        raise RuntimeError("the degreewise contraction fails D d + d D = id")
    return H, None


def _contraction_windows(C: BasedComplex):
    # the exponent windows of a Laurent contraction search, in order
    spread = 0
    for k in range(C.lo + 1, C.hi + 1):
        for row in C.boundary(k):
            for x in row:
                for e in x.terms():
                    spread = max(spread, abs(e))
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
    if target == "augmentation":
        bnd = {k: [[x.augmentation() for x in row] for row in C.boundary(k)]
               for k in range(C.lo + 1, C.hi + 1)}
        return complex_from_int(Z, dict(C.ranks), bnd, dict(C.labels))
    if target == "character":
        bnd = {k: [[x.character_value() for x in row] for row in C.boundary(k)]
               for k in range(C.lo + 1, C.hi + 1)}
        return complex_from_int(Z, dict(C.ranks), bnd, dict(C.labels))
    if target == "regular":
        if C.ring.kind != "cyclic":
            raise ValueError("regular embedding wants a finite cyclic ring")
        n = C.ring.n
        ranks = {k: n * r for k, r in C.ranks.items()}
        bnd = {k: _expansion(C.boundary(k), C.rank(k - 1), C.rank(k), range(n), range(n))
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
    bnd = {}
    labels = {m - k: [f"{lab}^" for lab in C.labels[k]] for k in C.labels}
    for k in range(m - C.hi + 1, m - C.lo + 1):
        src = C.boundary(m - k + 1)
        M = rmat_involve_transpose(src, C.rank(m - k), C.rank(m - k + 1))
        if (k + m) % 2:
            M = rmat_neg(M)
        bnd[k] = M
    return BasedComplex(C.ring, ranks, bnd, labels)


def direct_sum(C: BasedComplex, D: BasedComplex) -> BasedComplex:
    if C.ring != D.ring:
        raise ValueError("ring mismatch")
    ranks = {k: C.rank(k) + D.rank(k) for k in set(C.ranks) | set(D.ranks)}
    bnd = {k: _blocks(C.ring.zero(), (C.rank(k - 1), D.rank(k - 1)), (C.rank(k), D.rank(k)),
                      {(0, 0): C.boundary(k), (1, 1): D.boundary(k)})
           for k in ranks}
    labels = {}
    for k in set(C.labels) | set(D.labels) | set(ranks):
        labels[k] = [C.label(k, i) for i in range(C.rank(k))] + [D.label(k, i) for i in range(D.rank(k))]
    return BasedComplex(C.ring, ranks, bnd, labels)


def cone(f: ChainMap) -> BasedComplex:
    """Mapping cone: degree n holds source_{n-1} and target_n.

    d(a, b) = (-d a, d b - f a), which squares to zero exactly because f
    is a chain map.
    """
    A, B = f.source, f.target
    ranks = {k: A.rank(k - 1) + B.rank(k) for k in {j + 1 for j in A.ranks} | set(B.ranks)}
    bnd = {k: _blocks(A.ring.zero(), (A.rank(k - 2), B.rank(k - 1)), (A.rank(k - 1), B.rank(k)),
                      {(0, 0): rmat_neg(A.boundary(k - 1)), (1, 0): rmat_neg(f.mat(k - 1)),
                       (1, 1): B.boundary(k)})
           for k in ranks}
    labels = {}
    for k in ranks:
        labels[k] = [f"a.{A.label(k - 1, i)}" for i in range(A.rank(k - 1))] + \
                    [f"b.{B.label(k, i)}" for i in range(B.rank(k))]
    return BasedComplex(A.ring, ranks, bnd, labels)


def _kron(zero, A, B):
    # A (x) B for a ring matrix A and an integer matrix B, both nonempty;
    # rows and columns are index pairs ordered with A's index first
    return _blocks(zero, [len(B)] * len(A), [len(B[0])] * len(A[0]),
                   {(i, j): [[a * b if b else zero for b in row] for row in B]
                    for i, Ai in enumerate(A) for j, a in enumerate(Ai) if not a.is_zero})


def tensor(C: BasedComplex, D: BasedComplex) -> BasedComplex:
    """Tensor product over the integers; D must live over the trivial ring.

    Basis of (C (x) D)_n: pairs (p-basis of C, q-basis of D) with p+q = n,
    ordered by ascending p then lexicographically.  The boundary follows
    d(x (x) y) = dx (x) y + (-1)^p x (x) dy: block p-1 <- p of d_n is
    dC_p (x) 1 and block p <- p is (-1)^p 1 (x) dD_q.
    """
    if D.ring.kind != "trivial":
        raise ValueError("tensor factor D must be an integer complex")
    ring, zero = C.ring, C.ring.zero()
    # the blocks C_p (x) D_{n-p} of degree n, keyed by p in ascending order
    sizes = {n: {p: C.rank(p) * D.rank(n - p) for p in C.degrees() if C.rank(p) and D.rank(n - p)}
             for n in range(C.lo + D.lo, C.hi + D.hi + 1)}
    bnd = {}
    for n in sizes:
        rows, blocks = sizes.get(n - 1, {}), {}
        for p in sizes[n]:
            q = n - p
            if p - 1 in rows:
                blocks[p - 1, p] = _kron(zero, C.boundary(p), [_unit(D.rank(q), i) for i in range(D.rank(q))])
            if p in rows:
                sgn = -1 if p % 2 else 1
                dD = [[sgn * y for y in row] for row in _int_boundary(D, q)]
                blocks[p, p] = _kron(zero, rmat_eye(ring, C.rank(p)), dD)
        bnd[n] = _blocks(zero, rows, sizes[n], blocks)
    ranks = {n: sum(s.values()) for n, s in sizes.items() if s}
    labels = {n: [f"{C.label(p, i)}*{D.label(n - p, j)}"
                  for p in s for i in range(C.rank(p)) for j in range(D.rank(n - p))]
              for n, s in sizes.items() if s}
    return BasedComplex(ring, ranks, bnd, labels)
