"""Coefficient rings, exact integer linear algebra, and unit bookkeeping.

The ring catalog is closed: the integers, the group ring of a finite cyclic
group, and the ring of integer Laurent polynomials (infinite cyclic group).
All three are commutative, which the rest of the package relies on.  Each
ring may carry an orientation character, a homomorphism from the group to
{+1, -1}; it enters only through the involution.

All matrix work is done on plain lists of lists with exact arithmetic.
Integer matrices use Smith normal form as the single workhorse; matrices
over the other rings go through dedicated division-free routines.

This module is also the one place for presented abelian groups and their
maps.  A subquotient of Z-lattices is presented on a basis of the bigger
lattice together with a coordinate solver (_quotient_on_lattice), and
every homomorphism between presented groups is handled here: its kernel,
image and cokernel, the matrix a chain-level map induces (_induced),
inverses, agreement of two maps, exactness and direct sums.  The
homology and cohomology presentations of a complex in chains are built
on the same subquotient.
"""

from __future__ import annotations

import itertools
import operator
from math import prod

TRIVIAL = "trivial"
CYCLIC = "cyclic"
INFINITE_CYCLIC = "infinite-cyclic"

_KINDS = (TRIVIAL, CYCLIC, INFINITE_CYCLIC)


class GroupSpec:
    """A group from the catalog together with an orientation character.

    kind is one of "trivial", "cyclic", "infinite-cyclic".  Cyclic groups
    carry their order n >= 1.  The character is +1 or -1 on the generator
    and must square away on torsion: -1 on a cyclic group needs even n,
    and the trivial group only admits +1.

    >>> GroupSpec("cyclic", 5).w(3)
    1
    >>> GroupSpec("infinite-cyclic", character=-1).w(3)
    -1
    """

    __slots__ = ("kind", "n", "character")

    def __init__(self, kind: str, n: int | None = None, character: int = 1):
        if kind not in _KINDS:
            raise ValueError(f"unknown group kind {kind!r}")
        if kind == CYCLIC:
            if n is None or n < 1:
                raise ValueError("cyclic group needs an order n >= 1")
        else:
            if n is not None:
                raise ValueError(f"{kind} group takes no order")
            n = None
        if character not in (1, -1):
            raise ValueError("character must be +1 or -1")
        if kind == TRIVIAL and character != 1:
            raise ValueError("trivial group admits only the trivial character")
        if kind == CYCLIC and character == -1 and n % 2 != 0:
            raise ValueError("character -1 on an odd cyclic group is not a homomorphism")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "character", character)

    def __setattr__(self, *a):
        raise AttributeError("GroupSpec is immutable")

    def w(self, exp: int) -> int:
        """Character value on the generator raised to exp."""
        if self.character == 1:
            return 1
        return -1 if exp % 2 else 1

    # -- element constructors ------------------------------------------

    def zero(self) -> "GroupRingElt":
        return GroupRingElt(self, {})

    def one(self) -> "GroupRingElt":
        return GroupRingElt(self, {0: 1})

    def monomial(self, exp: int, coeff: int = 1) -> "GroupRingElt":
        return GroupRingElt(self, {exp: coeff})

    def from_terms(self, terms) -> "GroupRingElt":
        return GroupRingElt(self, dict(terms))

    def untwisted(self) -> "GroupSpec":
        return GroupSpec(self.kind, self.n, 1)

    def __eq__(self, other):
        return (
            isinstance(other, GroupSpec)
            and self.kind == other.kind
            and self.n == other.n
            and self.character == other.character
        )

    def __hash__(self):
        return hash((self.kind, self.n, self.character))

    def __repr__(self):
        bits = [repr(self.kind)]
        if self.n is not None:
            bits.append(str(self.n))
        if self.character != 1:
            bits.append("character=-1")
        return f"GroupSpec({', '.join(bits)})"

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.n is not None:
            out["n"] = self.n
        if self.kind != TRIVIAL:
            out["character"] = [self.character]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "GroupSpec":
        ch = data.get("character", 1)
        if isinstance(ch, (list, tuple)):
            ch = ch[0] if ch else 1
        return cls(data["kind"], data.get("n"), ch)


class GroupRingElt:
    """Element of Z[G] for a catalog group, stored canonically.

    The canonical form is a pair (shift, coeffs): the element is the sum
    of coeffs[i] * g^(shift + i).  Over Z it is (0, (c,)); over Z[C_n],
    (0, the n coefficients of g^0..g^(n-1)); over Z[t,t^-1], the
    coefficients from the lowest to the highest exponent of the support,
    trimmed so both ends are nonzero, and (0, ()) for zero.  Sums,
    differences, products and comparisons work on these tuples directly:
    elementwise over Z[C_n], aligned by shift and trimmed again over
    Z[t,t^-1], and one integer over Z.  The form is unique, so equal
    elements have equal tuples.  Elements are immutable and hashable, so
    they can serve as matrix entries and dict keys throughout the package.
    """

    __slots__ = ("ring", "_shift", "_coeffs")

    def __init__(self, ring: GroupSpec, terms: dict):
        if ring.kind == TRIVIAL:
            v = 0
            for e, c in terms.items():
                if e != 0:
                    raise ValueError("trivial group has a single element")
                v += c
            shift, coeffs = 0, (v,)
        elif ring.kind == CYCLIC:
            buf = [0] * ring.n
            for e, c in terms.items():
                buf[e % ring.n] += c
            shift, coeffs = 0, tuple(buf)
        else:
            buf = {}
            for e, c in terms.items():
                buf[e] = buf.get(e, 0) + c
            buf = {e: c for e, c in buf.items() if c}
            if not buf:
                shift, coeffs = 0, ()
            else:
                lo, hi = min(buf), max(buf)
                shift = lo
                coeffs = tuple(buf.get(e, 0) for e in range(lo, hi + 1))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_shift", shift)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("GroupRingElt is immutable")

    # -- views ----------------------------------------------------------

    def terms(self) -> dict:
        """Nonzero terms as {exponent: coefficient}, canonical exponents."""
        return {
            self._shift + i: c
            for i, c in enumerate(self._coeffs)
            if c
        }

    def coeff(self, exp: int) -> int:
        if self.ring.kind == CYCLIC:
            exp = exp % self.ring.n
        i = exp - self._shift
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    @property
    def is_zero(self) -> bool:
        return not any(self._coeffs)

    @property
    def is_one(self) -> bool:
        a = self._coeffs
        return self._shift == 0 and a[:1] == (1,) and not any(a[1:])

    def min_exp(self) -> int:
        t = self.terms()
        if not t:
            raise ValueError("zero element has no support")
        return min(t)

    def max_exp(self) -> int:
        t = self.terms()
        if not t:
            raise ValueError("zero element has no support")
        return max(t)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        self._check(other)
        return self._sum(other, operator.add)

    def __sub__(self, other):
        self._check(other)
        return self._sum(other, operator.sub)

    def _sum(self, other, op):
        # self op other for op + or -, on the canonical tuples
        ring, a, b = self.ring, self._coeffs, other._coeffs
        if ring.kind != INFINITE_CYCLIC:
            return _elt(ring, 0, tuple(map(op, a, b)))
        if not b:
            return self
        if not a:
            return other if op is operator.add else -other
        s, u = self._shift, other._shift
        lo = min(s, u)
        buf = [0] * (max(s + len(a), u + len(b)) - lo)
        buf[s - lo:s - lo + len(a)] = a
        for i, c in enumerate(b, u - lo):
            buf[i] = op(buf[i], c)
        return _laurent(ring, lo, buf)

    def __neg__(self):
        return _elt(self.ring, self._shift, tuple(-c for c in self._coeffs))

    def __mul__(self, other):
        ring, a = self.ring, self._coeffs
        if isinstance(other, int):
            if not other and ring.kind == INFINITE_CYCLIC:
                return _elt(ring, 0, ())
            return _elt(ring, self._shift, tuple(c * other for c in a))
        self._check(other)
        b = other._coeffs
        if ring.kind == TRIVIAL:
            return _elt(ring, 0, (a[0] * b[0],))
        nonzero = [(j, y) for j, y in enumerate(b) if y]
        if ring.kind == CYCLIC:
            n = ring.n
            buf = [0] * n
            for i, x in enumerate(a):
                if x:
                    for j, y in nonzero:
                        j += i
                        buf[j - n if j >= n else j] += x * y
            return _elt(ring, 0, tuple(buf))
        if not a or not b:
            return _elt(ring, 0, ())
        buf = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in nonzero:
                    buf[i + j] += x * y
        # both ends are products of nonzero integers, so buf is trimmed
        return _elt(ring, self._shift + other._shift, tuple(buf))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("use UnitClass for negative powers")
        acc = self.ring.one()
        for _ in range(k):
            acc = acc * self
        return acc

    def involve(self) -> "GroupRingElt":
        """Orientation-twisted involution: c * g^e maps to c * w(g^e) * g^-e."""
        r = self.ring
        return GroupRingElt(r, {-e: c * r.w(e) for e, c in self.terms().items()})

    def augmentation(self) -> int:
        """Sum of coefficients (push forward along the trivial character)."""
        return sum(self.terms().values())

    def character_value(self) -> int:
        """Push forward along the orientation character to an integer."""
        return sum(c * self.ring.w(e) for e, c in self.terms().items())

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElt)
            and self._coeffs == other._coeffs
            and self._shift == other._shift
            and (self.ring is other.ring or self.ring == other.ring)
        )

    def __hash__(self):
        return hash((self.ring, self._shift, self._coeffs))

    def __repr__(self):
        t = self.terms()
        if not t:
            return "0"
        sym = {TRIVIAL: None, CYCLIC: "g", INFINITE_CYCLIC: "t"}[self.ring.kind]
        bits = []
        for e in sorted(t):
            c = t[e]
            if sym is None or e == 0:
                s = f"{c}"
            else:
                mono = sym if e == 1 else f"{sym}^{e}"
                s = mono if c == 1 else (f"-{mono}" if c == -1 else f"{c}*{mono}")
            bits.append(s)
        out = bits[0]
        for s in bits[1:]:
            out += f" + {s}" if not s.startswith("-") else f" - {s[1:]}"
        return out

    def to_json(self):
        return [[e, c] for e, c in sorted(self.terms().items())]

    @classmethod
    def from_json(cls, ring: GroupSpec, data) -> "GroupRingElt":
        return cls(ring, {int(e): int(c) for e, c in data})


# the slot setters, which GroupRingElt.__setattr__ does not guard
_SET_RING = GroupRingElt.ring.__set__
_SET_SHIFT = GroupRingElt._shift.__set__
_SET_COEFFS = GroupRingElt._coeffs.__set__


def _elt(ring: GroupSpec, shift: int, coeffs: tuple) -> GroupRingElt:
    # the element with this canonical (shift, coeffs), taken as given
    x = object.__new__(GroupRingElt)
    _SET_RING(x, ring)
    _SET_SHIFT(x, shift)
    _SET_COEFFS(x, coeffs)
    return x


def _laurent(ring: GroupSpec, shift: int, buf: list) -> GroupRingElt:
    # sum buf[i] t^(shift + i) over Z[t,t^-1], trimmed at both ends
    lo, hi = 0, len(buf)
    while lo < hi and not buf[lo]:
        lo += 1
    if lo == hi:
        return _elt(ring, 0, ())
    while not buf[hi - 1]:
        hi -= 1
    return _elt(ring, shift + lo, tuple(buf[lo:hi]))


# ---------------------------------------------------------------------------
# Integer matrices.  Inside the package an integer matrix is the list of its
# columns, dense lists as _Smith's kernel(), image() and solve give them, and
# its row count travels beside it.  Row lists live only at the public edge
# (smith_normal_form, FgAbelian(ngens, relations), hom_decompose, the towers
# of endtowers, the matrices of chains), read through _columns and turned
# over whole by _transposed.
# ---------------------------------------------------------------------------


def _transposed(M, n):
    # the lines of the matrix crossing the lines M lists, n of them: its
    # rows when M lists its columns and its columns when M lists its rows
    return [list(line) for line in zip(*M)] if M else [[] for _ in range(n)]


def _combine(cols, x, n):
    # the product of the matrix with n-entry columns cols and the vector
    # x, summing the columns x selects, so zeros of x cost nothing
    out = [0] * n
    for col, v in zip(cols, x):
        if v:
            out = list(map(operator.add, out, col)) if v == 1 else [o + a * v for o, a in zip(out, col)]
    return out


def _compose(A, B, n):
    # the columns of the product A B, A with n rows
    return [_combine(A, b, n) for b in B]


def _blocks(zero, row_sizes, col_sizes, blocks):
    """Block matrix with blocks[(a, b)] at block row a, block column b.

    Sizes are listed in order, as a sequence (keys 0, 1, ...) or a dict
    from key to size; absent blocks are zero.  Entries are placed as they
    are, so integer and ring matrices assemble alike.
    """
    rows, cols = (s if isinstance(s, dict) else dict(enumerate(s)) for s in (row_sizes, col_sizes))
    roff, coff = (dict(zip(s, itertools.accumulate(s.values(), initial=0))) for s in (rows, cols))
    out = [[zero] * sum(cols.values()) for _ in range(sum(rows.values()))]
    for (a, b), M in blocks.items():
        for i, row in enumerate(M, roff[a]):
            out[i][coff[b]:coff[b] + len(row)] = row
    return out


def _sparse_sub(row, src, q):
    # row -= q * src on {column: entry} rows, keeping no zero entries
    for j, s in src.items():
        x = row.get(j, 0) - q * s
        if x:
            row[j] = x
        else:
            del row[j]


def _swap_cols(rows, t, j):
    # swaps columns t and j of the rows; returns the rows holding column t
    held = []
    for row in rows:
        if t in row or j in row:
            a, b = row.pop(t, 0), row.pop(j, 0)
            if b:
                row[t] = b
                held.append(row)
            if a:
                row[j] = a
    return held


def _replay(steps, n, inverse=False):
    # smith_normal_form's logged steps applied in order to the n x n
    # identity as row steps, on sparse {column: entry} rows; inverse takes
    # (i, k, q) as (k, i, -q), the transposed inverse step.  Row steps give
    # U or the columns of U^-1, column steps the columns of V or V^-1.
    rows = [{i: 1} for i in range(n)]
    for step in steps:
        if len(step) == 3:
            i, k, q = step
            if inverse:
                i, k, q = k, i, -q
            _sparse_sub(rows[i], rows[k], q)
        elif len(step) == 2:
            i, k = step
            rows[i], rows[k] = rows[k], rows[i]
        else:  # a negation (i,)
            rows[step[0]] = {j: -a for j, a in rows[step[0]].items()}
    return rows


def _transpose(rows, n):
    # the n columns of sparse {column: entry} rows, as {row: entry} dicts
    cols = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, a in row.items():
            cols[j][i] = a
    return cols


def _dense(rows, n):
    # sparse {index: entry} vectors as lists of n entries
    out = [[0] * n for _ in rows]
    for dst, row in zip(out, rows):
        for j, v in row.items():
            dst[j] = v
    return out


def smith_normal_form(mat, nrows=None, ncols=None):
    """Smith normal form in product form: returns (D, row_steps, col_steps).

    D is the diagonal d1 | d2 | ... of the Smith form (min(nrows, ncols)
    nonnegative entries), and U*mat*V = D where U is the row steps applied
    in order to the identity and V the column steps.  A row step is a swap
    (i, k), a subtraction (i, k, q) of q times row k from row i, or a
    negation (i,); a column step is a swap (t, j) or a subtraction (j, t, q)
    of q times column t from column j.  _Smith replays a log only for a
    reader of its factor.  Pivoting is deterministic: the lexicographically
    least (|a|, i, j) over the nonzero entries a = A[i][j] of the block wins.

    The elimination runs on mat alone, as sparse {column: entry} rows.
    Two invariants keep the column work small.  Once step t starts, rows
    above t are zero from column t on, so column work touches only A[t:];
    a column step touches only the rows there holding column t, which
    after the row sweep is row t alone until a column swap refills the
    column.  Clearing entry (t, j) changes only columns t and j, so the
    nonzero columns of row t past t are listed once before each sweep
    along the row.  Each step, and its order, is that of the dense
    elimination.

    >>> A = [[2, 4], [6, 8]]
    >>> smith_normal_form(A)
    ([2, 4], [(1, 0, 3), (1,)], [(1, 0, 2)])
    >>> U, V = (_dense(_replay(steps, 2), 2) for steps in smith_normal_form(A)[1:])
    >>> _compose(_transposed(U, 2), _compose(_transposed(A, 2), V, 2), 2)  # U A V, by columns
    [[2, 0], [0, 4]]
    """
    r = len(mat) if nrows is None else nrows
    c = (len(mat[0]) if mat else 0) if ncols is None else ncols
    if len(mat) != r or any(len(row) != c for row in mat):
        raise ValueError(f"matrix is not {r} x {c}")
    A = [{j: int(a) for j, a in enumerate(row) if a} for row in mat]
    rows, cols = [], []
    t = 0
    while t < r and t < c:
        best = None
        for i in range(t, r):
            if A[i]:
                a, j = min((abs(a), j) for j, a in A[i].items())
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
            rows.append((t, pi))
        if pj != t:
            _swap_cols(A[t:], t, pj)
            cols.append((t, pj))
        while True:
            dirty = False
            for i in [i for i in range(t + 1, r) if t in A[i]]:
                while t in A[i]:
                    q = A[i][t] // A[t][t]
                    if q:
                        _sparse_sub(A[i], A[t], q)
                        rows.append((i, t, q))
                    if t in A[i]:
                        A[t], A[i] = A[i], A[t]
                        rows.append((t, i))
                        dirty = True
            col_t = [A[t]]  # the rows of A holding column t
            for j in sorted(j for j in A[t] if j > t):
                while j in A[t]:
                    q = A[t][j] // A[t][t]
                    if q:
                        for row in col_t:  # _sparse_sub(row, {j: row[t]}, q), inlined
                            x = row.get(j, 0) - q * row[t]
                            if x:
                                row[j] = x
                            else:
                                del row[j]
                        cols.append((j, t, q))
                    if j in A[t]:
                        col_t = _swap_cols(A[t:], t, j)
                        cols.append((t, j))
                        dirty = True
            if dirty:
                continue
            d = A[t][t]
            if d in (1, -1):
                break
            offender = next((i for i in range(t + 1, r) if any(a % d for a in A[i].values())), None)
            if offender is None:
                break
            _sparse_sub(A[t], A[offender], -1)
            rows.append((t, offender, -1))
        if A[t][t] < 0:
            A[t] = {j: -a for j, a in A[t].items()}
            rows.append((t,))
        t += 1
    return [A[i].get(i, 0) for i in range(min(r, c))], rows, cols


class _Smith:
    """One Smith factorization U*mat*V = D and the answers read off it.

    This is the one reader of smith_normal_form: the diagonal, the rank,
    the kernel and image lattices, the coordinates and the solver all come
    from the same factorization, so a matrix asked several of these
    questions is factored once.  snf_solver, FgAbelian and the homology
    presentations of chains read it, and the orientation search of
    simplicial_products reads its rank.  With rank r, ker mat has basis
    V e_j for j >= r, and a vector x lies in it exactly when mat*x = 0,
    with coordinates (V^-1 x)[r:] there; im mat has basis mat V e_j for
    j < r, the images of the lifts V e_j.  The factors stay in product
    form, as the two logs of steps, until a reader asks for one; its log
    is then replayed onto sparse identity rows, and the factor kept as
    sparse columns (U and the rows of V^-1 past r through one transpose).
    So the rank builds no factor, a boundary never builds U and a
    presented group never V^-1.  mat is given by its rows, or by its
    columns when columns is set; it is read once, here, into the sparse
    columns the cycle test and the image basis read, and not kept.  Every
    product costs only the nonzeros it touches.
    """

    __slots__ = ("nrows", "ncols", "diag", "rank", "_steps", "_factors", "_cols")

    def __init__(self, mat, nrows=None, ncols=None, columns=False):
        if columns:  # mat lists its columns, and both shapes are given
            mat = _transposed(mat, nrows)
        r = len(mat) if nrows is None else nrows
        c = (len(mat[0]) if mat else 0) if ncols is None else ncols
        self.diag, rows, cols = smith_normal_form(mat, r, c)
        self._cols = _transpose([{j: a for j, a in enumerate(row) if a} for row in mat], c)
        self.nrows, self.ncols, self._steps, self._factors = r, c, (rows, cols), {}
        self.rank = sum(1 for d in self.diag if d)

    def _factor(self, name):
        # "U", "Uinv", "V" or "Vinv" (its rows past the rank) as sparse
        # columns, replayed from its log on first use and kept
        if name not in self._factors:
            (rows, cols), r, c = self._steps, self.nrows, self.ncols
            self._factors[name] = (
                _transpose(_replay(rows, r), r) if name == "U" else
                _replay(rows, r, True) if name == "Uinv" else
                _replay(cols, c) if name == "V" else
                _transpose(_replay(cols, c, True)[self.rank:], c))
        return self._factors[name]

    def kernel(self):
        """Basis of the integer kernel lattice: the columns of V past the rank."""
        return _dense(self._factor("V")[self.rank:], self.ncols)

    def kernel_coordinates(self, x):
        """Coordinates (V^-1 x)[rank:] of x in the kernel() basis, or None off the kernel."""
        if len(x) != self.ncols:
            raise ValueError(f"right-hand side has {len(x)} entries, the matrix has {self.ncols} columns")
        if any(_apply(self._cols, x, self.nrows)):
            return None
        return _apply(self._factor("Vinv"), x, self.ncols - self.rank)

    def lifts(self):
        """The columns V e_j, j < rank, that mat carries onto the image() basis."""
        return _dense(self._factor("V")[:self.rank], self.ncols)

    def image(self):
        """Basis of the column lattice of mat: mat V e_j, j < rank."""
        return [_apply(self._cols, v, self.nrows) for v in self.lifts()]

    def solve(self, b):
        """One x with mat*x = b, or None when b is off the column lattice.

        Computes y = U*b, divides y by the diagonal of D and returns V
        applied to the quotients; both products skip zeros, so a sparse b
        costs only the columns of U and V it selects.
        """
        y = self.image_coordinates(b)
        if y is None:
            return None
        return _apply(self._factor("V"), y, self.ncols)

    def image_coordinates(self, b):
        """Coordinates of b in the image() basis, or None off the lattice.

        Basis vector j is U^-1 D e_j = d_j U^-1 e_j, so the coordinates
        are y = U*b divided by the diagonal, and y must vanish past the rank.
        """
        if len(b) != self.nrows:
            raise ValueError(f"right-hand side has {len(b)} entries, the matrix has {self.nrows} rows")
        y, diag = _apply(self._factor("U"), b, self.nrows), self.diag[:self.rank]
        if any(y[self.rank:]) or any(yj % d for yj, d in zip(y, diag)):
            return None
        return [yj // d for yj, d in zip(y, diag)]

    def det(self):
        """det mat = +-prod(D): each row or column swap and each negation flips the sign."""
        flips = sum(len(step) != 3 for log in self._steps for step in log)
        return -prod(self.diag) if flips % 2 else prod(self.diag)


def _apply(cols, x, n):
    # the product of the n-row matrix with sparse columns cols and the
    # vector x, costing only the nonzeros of the columns x selects
    out = [0] * n
    for col, v in zip(cols, x):
        if v:
            for i, a in col.items():
                out[i] += a * v
    return out


def snf_solver(mat, nrows=None, ncols=None):
    """Factor once, solve many: returns a function b -> x with mat*x = b.

    Worth it whenever several right-hand sides share one matrix.  The
    returned solver is _Smith.solve on the factorization: it gives None on
    vectors off the column lattice and raises ValueError on a vector
    whose length is not the row count.

    >>> solve = snf_solver([[2, 0], [0, 3]])
    >>> solve([4, -3])
    [2, -1]
    >>> solve([1, 0]) is None
    True
    """
    return _Smith(mat, nrows, ncols).solve


# ---------------------------------------------------------------------------
# Finitely generated abelian groups, presented by relation columns.
# ---------------------------------------------------------------------------


class FgAbelian:
    """Z^ngens modulo the column span of an integer relation matrix.

    Smith coordinates: with U*relations*V = D from smith_normal_form, the
    group is the sum of Z/d over the diagonal d of D (padded with zeros
    to ngens), and U carries a generator-basis vector to its coordinates
    there.  canon(v) keeps the coordinates with d != 1, reduced mod d when
    d > 1 and exact when d = 0: the torsion coordinates in divisibility
    order, then the free ones.  So v is zero exactly when canon(v) is, and
    torsion exactly when its free coordinates vanish.  lift(z) goes back:
    a generator-basis vector whose Smith coordinates are z, through the
    inverse of U.  The factorization is made once, on first use, and read
    in product form: invariants() reads its diagonal, canon replays U and
    lift U^-1 from its row steps, and V and V^-1 are never built.

    The relation matrix is taken and given by its ngens rows, and kept
    as its columns, one per relation.

    >>> FgAbelian(1, [[2]]).invariants()
    (0, (2,))
    >>> FgAbelian.free(2).invariants()
    (2, ())
    >>> FgAbelian(2, [[2, 1], [0, 3]]).canon([0, 1])
    (5,)
    """

    __slots__ = ("ngens", "nrels", "_rels", "_inv", "_snf")

    def __init__(self, ngens: int, relations=None, nrels: int | None = None):
        relations = [] if relations is None else [list(map(int, row)) for row in relations]
        if relations and len(relations) != ngens:
            raise ValueError("relation matrix must have ngens rows")
        if nrels is None:
            nrels = len(relations[0]) if relations else 0
        if ngens and not relations:
            relations = [[] for _ in range(ngens)]
        for row in relations:
            if len(row) != nrels:
                raise ValueError("ragged relation matrix")
        self._fill(ngens, _transposed(relations, nrels))

    def _fill(self, ngens, rels):
        for name, value in zip(self.__slots__, (ngens, len(rels), rels, None, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _quotient(cls, ngens: int, rels) -> "FgAbelian":
        """Z^ngens modulo the span of rels, integer columns kept as given."""
        G = cls.__new__(cls)
        G._fill(ngens, rels)
        return G

    def __setattr__(self, *a):
        raise AttributeError("FgAbelian is immutable")

    @property
    def relations(self):
        """The relation matrix by rows: ngens rows of nrels entries."""
        return _transposed(self._rels, self.ngens)

    @classmethod
    def free(cls, n: int) -> "FgAbelian":
        return cls(n, [])

    @classmethod
    def zero(cls) -> "FgAbelian":
        return cls(0, [])

    @classmethod
    def from_invariants(cls, free_rank: int, torsion=()) -> "FgAbelian":
        torsion = list(torsion)
        n = free_rank + len(torsion)
        return cls._quotient(n, [[d * x for x in _unit(n, i)] for i, d in enumerate(torsion)])

    def _smith(self):
        """The Smith factorization of the relation matrix, as a _Smith."""
        if self._snf is None:
            object.__setattr__(self, "_snf", _Smith(self._rels, self.ngens, self.nrels, columns=True))
        return self._snf

    def _moduli(self):
        """The diagonal of D padded with zeros to ngens."""
        diag = self._smith().diag
        return diag + [0] * (self.ngens - len(diag))

    def invariants(self):
        """(free rank, torsion coefficients in divisibility order)."""
        if self._inv is None:
            moduli = self._moduli()
            tors = tuple(d for d in moduli if d > 1)
            free = sum(1 for d in moduli if d == 0)
            object.__setattr__(self, "_inv", (free, tors))
        return self._inv

    @property
    def is_zero(self) -> bool:
        return self.invariants() == (0, ())

    def order(self):
        free, tors = self.invariants()
        return None if free else prod(tors)

    def iso_to(self, other: "FgAbelian") -> bool:
        return self.invariants() == other.invariants()

    def canon(self, vec):
        """Canonical coordinates of an element given in the generator basis."""
        if len(vec) != self.ngens:
            raise ValueError(f"vector has {len(vec)} entries, the group has {self.ngens} generators")
        z = _apply(self._smith()._factor("U"), vec, self.ngens)
        return tuple(zi % d if d else zi for zi, d in zip(z, self._moduli()) if d != 1)

    def element_is_zero(self, vec) -> bool:
        return all(x == 0 for x in self.canon(vec))

    def lift(self, z):
        """A generator-basis vector whose Smith coordinates are z.

        z has one entry per coordinate of canon, so canon(lift(z)) is z
        reduced mod the torsion coefficients.

        >>> G = FgAbelian(3, [[2, 1], [0, 3], [0, 0]])
        >>> G.invariants()
        (1, (6,))
        >>> G.lift([1, 0])
        [0, -1, 0]
        >>> G.canon(G.lift([7, 4]))
        (1, 4)
        """
        keep = [i for i, d in enumerate(self._moduli()) if d != 1]
        if len(z) != len(keep):
            raise ValueError(f"{len(z)} coordinates given, the group has {len(keep)}")
        cols = self._smith()._factor("Uinv")  # the columns of U^-1
        return _apply([cols[i] for i in keep], z, self.ngens)

    def elements(self):
        """All elements as generator-basis vectors; finite groups only."""
        free, tors = self.invariants()
        if free:
            raise ValueError("infinite group")
        return [self.lift(z) for z in itertools.product(*(range(d) for d in tors))]

    def __eq__(self, other):
        return isinstance(other, FgAbelian) and (self.ngens, self.relations) == (other.ngens, other.relations)

    def __hash__(self):
        return hash((self.ngens, tuple(map(tuple, self.relations))))

    def __repr__(self):
        free, tors = self.invariants()
        bits = []
        if free == 1:
            bits.append("Z")
        elif free > 1:
            bits.append(f"Z^{free}")
        bits.extend(f"Z/{d}" for d in tors)
        return " + ".join(bits) if bits else "0"

    def to_json(self):
        return {"generators": self.ngens, "relations": self.relations}

    @classmethod
    def from_json(cls, data) -> "FgAbelian":
        return cls(int(data["generators"]), data.get("relations") or [])


def hom_decompose(F, dom: FgAbelian, cod: FgAbelian):
    """Kernel, image, cokernel of the map the matrix F induces dom -> cod.

    F is cod.ngens x dom.ngens over the integers, by rows.  Raises
    ValueError when F does not carry the relations of dom into cod's.
    """
    F = _columns(F, dom, cod)
    _require_hom(F, dom, cod)
    coker = _cokernel(F, cod)
    kernel, K, _ = _kernel_lattice(coker, dom)
    return kernel, FgAbelian._quotient(dom.ngens, K), coker


# ---------------------------------------------------------------------------
# The presented-group layer.  A presentation triple (group, lattice,
# solver) presents a subquotient L / R of Z^dim: lattice lists a basis of
# L, generator j is the class of lattice[j], and the solver takes a vector
# of Z^dim to its coordinates in that basis (None off L).  Those of a space
# carry its cells as a fourth field, which no reader here needs.  Column j
# of the matrix of a map is the image of generator j.  A cycle-basis
# presentation has many generators but few Smith coordinates (the moduli
# d != 1 of its relations), so isomorphism and exactness are decided on
# the map in those coordinates (_smith_map), whose factorization has one
# row per coordinate of the target; witnesses are lifted back to the
# generators.  hom_decompose still factors [F | relations] whole.
# ---------------------------------------------------------------------------


def _unit(n, j):
    return [1 if i == j else 0 for i in range(n)]


def _quotient_on_lattice(K, solve, vectors):
    """Presentation triple of span(K) / span(vectors) inside Z^dim.

    K lists a basis of a lattice holding every vector, and solve takes a
    vector of that lattice to its coordinates in K.
    """
    rels = [solve(v) for v in vectors]
    if None in rels:
        raise RuntimeError("image escaped the kernel lattice")
    return FgAbelian._quotient(len(K), rels), K, solve


def _columns(M, dom: FgAbelian, cod: FgAbelian):
    # the columns of the integer matrix of a map dom -> cod whose rows M
    # lists; ValueError on a matrix of another shape
    if len(M) != cod.ngens or any(len(row) != dom.ngens for row in M):
        raise ValueError("matrix shape does not match the presentations")
    return _transposed(M, dom.ngens)


def _unmapped_relation(F, dom: FgAbelian, cod: FgAbelian):
    """First relation of dom that F does not carry into cod's relations, or None."""
    return next((j for j, rel in enumerate(dom._rels)
                 if not cod.element_is_zero(_combine(F, rel, cod.ngens))), None)


def _require_hom(F, dom: FgAbelian, cod: FgAbelian):
    """Raise ValueError unless the matrix F defines a homomorphism dom -> cod."""
    j = _unmapped_relation(F, dom, cod)
    if j is not None:
        raise ValueError(f"map not well defined: relation {j} of the domain is not sent into the relations of the codomain")


def _cokernel(F, cod: FgAbelian) -> FgAbelian:
    """cod modulo the image of F, presented by [F | relations of cod]."""
    return FgAbelian._quotient(cod.ngens, F + cod._rels)


def _kernel_lattice(coker: FgAbelian, dom: FgAbelian):
    """Presentation triple of the kernel of the map F induces dom -> cod.

    coker is _cokernel(F, cod).  The kernel vectors of its relation
    matrix, cut to their first dom.ngens entries, span the preimage of
    cod's relations, and the kernel is that lattice modulo dom's relations.
    """
    a = dom.ngens
    kerv = coker._smith().kernel()
    S = _Smith([v[:a] for v in kerv], a, len(kerv), columns=True)
    return _quotient_on_lattice(S.image(), S.image_coordinates, dom._rels)


def _induced(src, M, tgt):
    """Matrix of the map the integer matrix M of the ambient lattices induces.

    src and tgt are presentations; fields after (group, lattice, solver)
    are not read.  Raises ValueError when some generator lands off the
    target lattice: M is then no chain map between the two sides.
    """
    _, lat, *_ = src
    _, _, solve, *_ = tgt
    n = len(M[0]) if M else 0
    cols = [solve(_combine(M, v, n)) for v in lat]
    if None in cols:
        raise ValueError(f"generator {cols.index(None)} is pushed off the target lattice")
    return cols


def _maps_agree(M1, M2, cod: FgAbelian, sign: int = 1):
    """First generator where M1 and sign*M2 differ as maps into cod, or None."""
    for j, (a, b) in enumerate(zip(M1, M2)):
        col = [x - sign * y for x, y in zip(a, b)]
        if not cod.element_is_zero(col):
            return {"generator": j, "difference": list(cod.canon(col))}
    return None


def _smith_map(F, dom: FgAbelian, cod: FgAbelian):
    """The map F induces dom -> cod in Smith coordinates: (F', dmod).

    dmod lists the moduli d != 1 of dom, one per Smith coordinate: the
    torsion coefficients, then a 0 for each free one, as
    FgAbelian.from_invariants presents a group on them.  Column i of
    the k_cod x k_dom matrix F' is the image of Smith generator i of dom:
    its lift by dom.lift, pushed through F and read back by cod.canon.
    """
    dmod = [d for d in dom._moduli() if d != 1]
    k = len(dmod)
    return [list(cod.canon(_combine(F, dom.lift(_unit(k, i)), cod.ngens))) for i in range(k)], dmod


def _reduced_iso(F, dom: FgAbelian, cod: FgAbelian):
    # what _iso_failure and _iso_inverse share: after _require_hom, the
    # factorization S of [F' | nonzero moduli of cod], the number k of
    # dom's Smith coordinates, and the first kernel class, lifted to
    # dom's generators, or None
    _require_hom(F, dom, cod)
    Fs, dmod = _smith_map(F, dom, cod)
    S = _cokernel(Fs, FgAbelian.from_invariants(*cod.invariants()))._smith()
    k = len(dmod)
    for v in S.kernel():
        if any(x % d if d else x for x, d in zip(v[:k], dmod)):
            return S, k, dom.lift(v[:k])
    return S, k, None


def _onto(S) -> bool:
    # S factors [F' | nonzero moduli of cod]: every Smith generator of cod
    # is hit exactly when D is the identity on all of cod's coordinates
    return S.rank == S.nrows and all(d == 1 for d in S.diag)


def _iso_failure(F, dom: FgAbelian, cod: FgAbelian):
    """None when the map F induces dom -> cod is an isomorphism, else a witness.

    The map is decided in Smith coordinates (_smith_map): the matrix
    factored is [F' | nonzero moduli of cod], k_cod rows, never
    [F | relations of cod].  Its kernel vectors, cut to their first k_dom
    entries, span the preimage of cod's relations in dom's coordinates;
    the first one nonzero modulo dom's moduli is a class that dies, and
    the witness is ("kernel", w) with w its dom.lift.  As canon(lift(z))
    is z reduced and F' is F read in Smith coordinates, w is nonzero in
    dom and sent by F to zero in cod, as the witness of a factorization
    of [F | relations of cod] is.  Otherwise it is ("cokernel", e_j), the
    first generator of cod whose class is not hit.  Whether a class is
    hit depends on the map of groups alone, not on the presentation it is
    read in, so this is the e_j that lifting each generator through
    [F | relations of cod] finds; the Smith generators of cod are tested
    first, all at once on the diagonal, and the e_j are scanned only when
    one is missed.  Raises ValueError when F is not a homomorphism.
    """
    S, _, w = _reduced_iso(F, dom, cod)
    if w is not None:
        return "kernel", w
    if _onto(S):
        return None
    e = (_unit(cod.ngens, j) for j in range(cod.ngens))
    return "cokernel", next(ej for ej in e if S.image_coordinates(cod.canon(ej)) is None)


def _iso_inverse(F, dom: FgAbelian, cod: FgAbelian):
    """The integer matrix (columns) of the inverse of the map F induces, or None.

    None when the map is no isomorphism; _iso_failure says why.  The
    inverse G' in Smith coordinates is read off the solutions of
    [F' | nonzero moduli of cod] for the Smith generators of cod, and
    column j of the inverse is dom.lift(G' cod.canon(e_j)).  Raises
    ValueError when F is not a homomorphism.
    """
    S, k, w = _reduced_iso(F, dom, cod)
    if w is not None or not _onto(S):
        return None
    Gs = [S.solve(_unit(k, i))[:k] for i in range(k)]  # an isomorphism has k_cod = k_dom
    return [dom.lift(_combine(Gs, cod.canon(_unit(cod.ngens, j)), k)) for j in range(cod.ngens)]


def _exact_at(Fin, Fout, dom: FgAbelian, mid: FgAbelian, cod: FgAbelian):
    """Exactness at mid for dom --Fin--> mid --Fout--> cod; witness or None.

    The composite is checked on dom's generators; the kernel of Fout and
    the image of Fin are compared in mid's Smith coordinates, where a
    class that escapes is read.
    """
    for j, col in enumerate(_compose(Fout, Fin, cod.ngens)):
        if not cod.element_is_zero(col):
            return {"reason": "composite is nonzero", "generator": j,
                    "class": list(cod.canon(col))}
    Fin_s = _smith_map(Fin, dom, mid)[0]
    Fout_s, mmod = _smith_map(Fout, mid, cod)
    solve_in = _cokernel(Fin_s, FgAbelian.from_invariants(*mid.invariants()))._smith().image_coordinates
    for v in _cokernel(Fout_s, FgAbelian.from_invariants(*cod.invariants()))._smith().kernel():
        w = v[:len(mmod)]
        if solve_in(w) is None:
            return {"reason": "kernel class escapes the image",
                    "class": list(mid.canon(mid.lift(w)))}
    return None


def _direct_sum(G: FgAbelian, H: FgAbelian) -> FgAbelian:
    """G + H, presented block-diagonally."""
    g, h = [0] * G.ngens, [0] * H.ngens
    return FgAbelian._quotient(G.ngens + H.ngens,
                               [col + h for col in G._rels] + [g + col for col in H._rels])


# ---------------------------------------------------------------------------
# Matrices over the group rings.
# ---------------------------------------------------------------------------


def rmat_zero(ring, r, c):
    z = ring.zero()
    return [[z] * c for _ in range(r)]


def rmat_eye(ring, n):
    one, zero = ring.one(), ring.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rmat_from_int(ring, A):
    return [[ring.monomial(0, x) for x in row] for row in A]


def rmat_to_int(A):
    """Integer matrix of the coefficients at the identity element."""
    return [[x.coeff(0) for x in row] for row in A]


def rmat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def rmat_neg(A):
    return [[-a for a in row] for row in A]


def rmat_mul(ring, A, B, r=None, k=None, c=None):
    r = len(A) if r is None else r
    k = (len(B) if B else (len(A[0]) if A else 0)) if k is None else k
    c = (len(B[0]) if B else 0) if c is None else c
    zero = ring.zero()
    out = [[zero] * c for _ in range(r)]
    # the nonzero entries of each row of B, found once
    sparse = [[(j, B[t][j]) for j in range(c) if not B[t][j].is_zero] for t in range(k)]
    for i in range(r):
        row = out[i]
        for t in range(k):
            a = A[i][t]
            if sparse[t] and not a.is_zero:
                for j, b in sparse[t]:
                    row[j] = row[j] + a * b
    return out


def rmat_is_zero(A):
    return all(all(x.is_zero for x in row) for row in A)


def rmat_involve_transpose(A, r=None, c=None):
    """Conjugate transpose for the orientation-twisted involution."""
    c = (len(A[0]) if A else 0) if c is None else c
    return [[x.involve() for x in col] for col in _transposed(A, c)]


def ring_det(ring: GroupSpec, A, n=None) -> GroupRingElt:
    """Determinant of the leading n x n block of A over the ring, exactly.

    Integers read it off one Smith factorization (_Smith.det).  Over Z[C_n] and Z[t,t^-1] the rows are
    first eliminated on pivots that are trivial units +-g^k (or +-t^k),
    by _eliminate, the loop ring_solve runs too.  Row operations keep the
    determinant, and taken in pivot order the rows and columns leave a
    block triangle, so it is the product of the pivots times the
    determinant of the core left without a unit entry, signed by the
    permutation taking each pivot row to its column and the core rows to
    the core columns in order.  Only that core goes to Bird's
    division-free iteration (_bird_det), which needs N - 1 ring matrix
    products.  The result is the determinant itself, not just its class.

    >>> R = GroupSpec("cyclic", 5)
    >>> ring_det(R, [[R.monomial(1), R.monomial(0, 2)], [R.zero(), R.monomial(2)]])
    g^3
    """
    n = len(A) if n is None else n
    if n == 0:
        return ring.one()
    if ring.kind == TRIVIAL:
        return ring.monomial(0, _Smith(rmat_to_int([row[:n] for row in A[:n]]), n, n).det())
    rows = {i: {j: A[i][j] for j in range(n) if not A[i][j].is_zero} for i in range(n)}
    steps = _eliminate(rows, {i: {} for i in rows})
    if not all(rows.values()):
        return ring.zero()
    col_of = {i: j for i, j, *_ in steps}
    cols = sorted(set(range(n)) - set(col_of.values()))
    col_of.update(zip(rows, cols))
    det = ring.monomial(0, _perm_sign([col_of[i] for i in range(n)]))
    for _, _, pivot, *_ in steps:
        det = det * pivot
    if rows:
        zero = ring.zero()
        core = [[row.get(c, zero) for c in cols] for row in rows.values()]
        det = det * _bird_det(ring, core, len(core))
    return det


def _perm_sign(perm):
    # the sign +-1 of a permutation of range(len(perm)), read off the
    # parity of its inversions
    return -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1


def _eliminate(rows, rhs):
    # Gaussian elimination of the sparse {column: entry} rows on trivial
    # units +-g^k, sparsest row first, each row operation also applied to
    # the rows of rhs.  Pivot rows leave rows and rhs and come back in
    # order as steps (row, column, pivot, inverse, row without the pivot
    # column, rhs row); what stays in rows is the core with no such entry
    steps = []
    while (pivot := _unit_pivot(rows)) is not None:
        i, j, inv = pivot
        prow, pb = rows.pop(i), rhs.pop(i)
        x = prow.pop(j)
        for r, row in rows.items():
            y = row.pop(j, None)
            if y is not None:
                f = y * inv
                _sub_multiple(row, f, prow)
                _sub_multiple(rhs[r], f, pb)
        steps.append((i, j, x, inv, prow, pb))
    return steps


def _unit_pivot(rows):
    # (row, column, inverse) of a trivial-unit entry in the sparsest row
    # that has one, or None
    for i, row in sorted(rows.items(), key=lambda item: len(item[1])):
        for j, x in row.items():
            inv = _trivial_unit_inverse(x)
            if inv is not None:
                return i, j, inv
    return None


def _sub_multiple(row, f, src):
    # row -= f * src on sparse {column: entry} rows, dropping zeros
    for c, y in src.items():
        v = row.get(c)
        v = -(f * y) if v is None else v - f * y
        if v.is_zero:
            row.pop(c, None)
        else:
            row[c] = v


def _trivial_unit_inverse(x: GroupRingElt):
    # the inverse of a trivial unit +-g^k is +-g^-k; None for any other x
    t = x.terms()
    if len(t) != 1:
        return None
    (e, c), = t.items()
    return GroupRingElt(x.ring, {-e: c}) if c in (1, -1) else None


def _bird_det(ring: GroupSpec, A, n):
    # Bird's division-free determinant (Inf. Process. Lett. 111, 2011)
    # of the leading n x n block, n >= 1
    X = [list(row[:n]) for row in A[:n]]
    for _ in range(n - 1):
        X = _bird_step(ring, X, A, n)
    d = X[0][0]
    return d if (n - 1) % 2 == 0 else -d


def _bird_step(ring, X, A, n):
    # one application of the division-free iteration: X <- mu(X) * A,
    # where mu(X) keeps the strict upper triangle and puts minus the sum
    # of the trailing diagonal of X on each diagonal slot
    zero = ring.zero()
    M = [[X[i][j] if j > i else zero for j in range(n)] for i in range(n)]
    acc = zero
    for i in range(n - 1, -1, -1):
        M[i][i] = acc
        acc = acc - X[i][i]
    return rmat_mul(ring, M, A, n, n, n)


def element_regular_rep(u: GroupRingElt):
    """Integer matrix of multiplication by u on Z[C_n], basis g^0..g^(n-1)."""
    if u.ring.kind != CYCLIC:
        raise ValueError("regular representation wants a finite cyclic ring")
    return _expansion([[u]], 1, 1, range(u.ring.n), range(u.ring.n))


def try_inverse(u: GroupRingElt):
    """(inverse, None) when u is a unit, else (None, reason string).

    The units of Z are +-1 and, by Higman ("The units of group rings",
    Proc. London Math. Soc. 46, 1940), those of Z[t,t^-1] are +-t^k, so
    there the terms decide: the reason names the support or the
    coefficient, and +-t^k inverts to +-t^-k with no search.  Over Z[C_n]
    u is a unit iff its regular representation has determinant +-1, which
    makes u*x = 1 a unimodular integer system for ring_solve.  Every
    inverse is verified by multiplication.

    >>> R = GroupSpec("infinite-cyclic")
    >>> try_inverse(R.monomial(-2, -1))
    (-t^2, None)
    >>> try_inverse(R.one() + R.monomial(3))
    (None, 'support spans exponents 0..3')
    """
    ring = u.ring
    if u.is_zero:
        return None, "zero is not a unit"
    if ring.kind == CYCLIC:
        d = _Smith(element_regular_rep(u), ring.n, ring.n).det()
        if d not in (1, -1):
            return None, f"regular representation determinant {d} is not +-1"
        inv = ring_solve(ring, [[u]], [[ring.one()]], 1, 1, 1)[0][0]
    else:
        (k, c), *rest = u.terms().items()
        if ring.kind == TRIVIAL and c not in (1, -1):
            return None, f"integer {c} is not a unit"
        if rest:
            return None, f"support spans exponents {u.min_exp()}..{u.max_exp()}"
        if c not in (1, -1):
            return None, f"coefficient {c} is not +-1"
        inv = ring.monomial(-k, c)
    if not (u * inv).is_one:
        return None, "candidate inverse failed verification"
    return inv, None


class UnitClass:
    """A unit of the ring remembered together with its inverse.

    Equality is taken modulo the trivial units +-g^k, which is exactly the
    reduced K1 comparison this catalog supports: determinants over these
    commutative rings separate the classes that matter here.

    >>> R = GroupSpec("infinite-cyclic")
    >>> UnitClass.from_element(R.monomial(3, -1)).is_trivial
    True
    """

    __slots__ = ("ring", "unit", "inverse")

    def __init__(self, unit: GroupRingElt, inverse: GroupRingElt):
        if unit.ring != inverse.ring:
            raise ValueError("ring mismatch")
        if not (unit * inverse).is_one:
            raise ValueError("not an inverse pair")
        object.__setattr__(self, "ring", unit.ring)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "inverse", inverse)

    def __setattr__(self, *a):
        raise AttributeError("UnitClass is immutable")

    @classmethod
    def from_element(cls, u: GroupRingElt) -> "UnitClass":
        inv, reason = try_inverse(u)
        if inv is None:
            raise ValueError(f"not a unit: {reason}")
        return cls(u, inv)

    @classmethod
    def one(cls, ring: GroupSpec) -> "UnitClass":
        return cls(ring.one(), ring.one())

    def normalized(self) -> GroupRingElt:
        """Canonical representative of the class modulo trivial units.

        Over Z[C_n] it is the multiple +-g^k * unit with the
        lexicographically largest coefficient vector, so the trivial
        class is represented by 1.
        """
        ring = self.ring
        if ring.kind != CYCLIC:
            # the units of Z are +-1, and by Higman ("The units of group
            # rings", Proc. London Math. Soc. 46, 1940) those of Z[t,t^-1]
            # are +-t^k, so every class over these rings is trivial
            return ring.one()
        best = None
        n = ring.n
        for k in range(n):
            for s in (1, -1):
                cand = self.unit * ring.monomial(k, s)
                key = tuple(cand.coeff(i) for i in range(n))
                if best is None or key > best[0]:
                    best = (key, cand)
        return best[1]

    @property
    def is_trivial(self) -> bool:
        return self.normalized() == UnitClass.one(self.ring).normalized()

    def __mul__(self, other: "UnitClass") -> "UnitClass":
        return UnitClass(self.unit * other.unit, self.inverse * other.inverse)

    def inv(self) -> "UnitClass":
        return UnitClass(self.inverse, self.unit)

    def __pow__(self, k: int) -> "UnitClass":
        out = UnitClass.one(self.ring)
        base = self if k >= 0 else self.inv()
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, other):
        return (
            isinstance(other, UnitClass)
            and self.ring == other.ring
            and self.normalized() == other.normalized()
        )

    def __hash__(self):
        return hash((self.ring, self.normalized()))

    def __repr__(self):
        return f"UnitClass({self.unit!r})"


def det_unit_class(ring: GroupSpec, A, n=None) -> UnitClass:
    """Determinant of an invertible matrix as a unit class.

    Raises ValueError when the determinant is zero, or with try_inverse's
    reason when it is not a unit.
    """
    d = ring_det(ring, A, n)
    if d.is_zero:
        raise ValueError("determinant is zero")
    inv, reason = try_inverse(d)
    if inv is None:
        raise ValueError(f"determinant is not a unit: {reason}")
    return UnitClass(d, inv)


# ---------------------------------------------------------------------------
# Linear solving over the catalog rings: unit pivots first, then integer
# expansion of what they leave undecided.
# ---------------------------------------------------------------------------


def _expansion(A, r, k, eq_exps, var_exps):
    """Integer matrix by which the r x k ring matrix A acts on coefficients.

    Unknown j contributes one column per exponent e in var_exps, equation
    i one row per exponent d in eq_exps, and entry A[i][j] becomes the
    block [A[i][j].coeff(d - e)].  Over Z both ranges are {0}; over Z[C_n]
    both are 0..n-1 and coeff reduces d - e mod n, which gives the regular
    representation; over Z[t,t^-1] the ranges are finite windows.
    """
    m, q = len(var_exps), len(eq_exps)
    big = [[0] * (k * m) for _ in range(r * q)]
    for i in range(r):
        for j in range(k):
            a = A[i][j]
            if a.is_zero:
                continue
            for ei, d in enumerate(eq_exps):
                row = big[i * q + ei]
                for vi, e in enumerate(var_exps):
                    coef = a.coeff(d - e)
                    if coef:
                        row[j * m + vi] = coef
    return big


def ring_solve(ring: GroupSpec, A, B, r=None, k=None, c=None):
    """Solve A*X = B over the ring; X is k x c, or None when none is found.

    A is r x k and B is r x c; other shapes raise ValueError.  Every
    system is first eliminated exactly on its trivial-unit entries +-g^j
    (+-t^j, +-1 over Z) by _eliminate, the loop of ring_det: their
    inverses +-g^-j are known, so each step is exact over every catalog
    ring.  A row left at 0 = b with b nonzero proves there is no solution;
    when no row is left, or every row left has right-hand side 0, the
    unknowns are read off by back-substitution, every unpivoted one set
    to 0, with no window.  Only a core without a trivial unit and with a
    nonzero right-hand side falls back to the integer expansion of the
    whole system (_expansion_solve).  Over Z and Z[C_n] that is exact too, so None
    means there is no solution.  Over Z[t,t^-1] the expansion searches
    the unknown exponents -W..W, W = max(2, 2 * spread), where spread is
    the largest absolute exponent in A and B; a miss there says only that
    the window held no solution.  _ring_solve takes another window, as the
    contraction search does, and returns the reason with the answer: "no
    solution", a proof, or ("window", W) with the window it searched.

    >>> R = GroupSpec("infinite-cyclic")
    >>> t, one = R.monomial(1), R.one()
    >>> ring_solve(R, [[one - t]], [[one - t**3]])
    [[1 + t + t^2]]
    >>> _ring_solve(R, [[one - t]], [[one - t**3]], 1, 1, 1, window=1)
    (None, ('window', 1))
    >>> ring_solve(R, [[t**3, one], [R.zero(), t**3]], [[one], [one]])
    [[-t^-6 + t^-3], [t^-3]]
    >>> _ring_solve(R, [[t], [R.zero()]], [[one], [one]], 2, 1, 1)
    (None, 'no solution')
    """
    r = len(A) if r is None else r
    k = (len(A[0]) if A else 0) if k is None else k
    c = (len(B[0]) if B else 0) if c is None else c
    return _ring_solve(ring, A, B, r, k, c)[0]


def _ring_solve(ring: GroupSpec, A, B, r, k, c, window=None):
    # ring_solve with the reason of a miss: (X, None), (None, "no
    # solution") when that is proved, or (None, ("window", W)) when only
    # the Laurent exponent window -W..W of the expansion held no solution.
    # W is settled here, and only when a Laurent expansion runs: window,
    # or window() when it is a function, else max(2, 2 * spread)
    for M, cols, name in ((A, k, "A"), (B, c, "B")):
        if len(M) != r or any(len(row) != cols for row in M):
            raise ValueError(f"{name} is not {r} x {cols}")
    rows = {i: {j: x for j, x in enumerate(row) if not x.is_zero} for i, row in enumerate(A)}
    rhs = {i: {j: x for j, x in enumerate(row) if not x.is_zero} for i, row in enumerate(B)}
    steps = _eliminate(rows, rhs)
    if any(rhs[i] for i, row in rows.items() if not row):
        return None, "no solution"
    # a core row with right-hand side 0 holds with its unknowns at 0
    if any(rhs[i] for i, row in rows.items() if row):
        if ring.kind != INFINITE_CYCLIC:
            X = _expansion_solve(ring, A, B, r, k, c, None)
            return (None, "no solution") if X is None else (X, None)
        W = window() if callable(window) else window
        if W is None:
            W = max(2, 2 * _spread(A, B))
        X = _expansion_solve(ring, A, B, r, k, c, W)
        return (None, ("window", W)) if X is None else (X, None)
    sol = {}
    for _, j, _, inv, prow, pb in reversed(steps):
        acc = dict(pb)
        for col, a in prow.items():
            if col in sol:
                _sub_multiple(acc, a, sol[col])
        sol[j] = {m: inv * x for m, x in acc.items()}
    zero = ring.zero()
    return [[sol.get(j, {}).get(m, zero) for m in range(c)] for j in range(k)], None


def _spread(A, B):
    # the largest absolute exponent in A and B, 1 when they have no terms
    return max((abs(e) for M in (A, B) for row in M for x in row for e in x.terms()), default=1)


def _expansion_solve(ring: GroupSpec, A, B, r, k, c, W):
    # A*X = B expanded to integers by _expansion and solved there column
    # by column, or None; over Z[t,t^-1] the unknown exponents run over
    # the window -W..W that _ring_solve settled, and the equation
    # exponents cover every product
    if ring.kind == INFINITE_CYCLIC:
        spread = _spread(A, B)
        var_exps = range(-W, W + 1)
        eq_exps = range(-(spread + W) - 1, spread + W + 2)
    else:
        var_exps = eq_exps = range(ring.n if ring.kind == CYCLIC else 1)
    m = len(var_exps)
    solve = snf_solver(_expansion(A, r, k, eq_exps, var_exps), r * len(eq_exps), k * m)
    out = [[None] * c for _ in range(k)]
    for col, bcol in enumerate(_transposed(B, c)):
        x = solve([b.coeff(d) for b in bcol for d in eq_exps])
        if x is None:
            return None
        for j in range(k):
            out[j][col] = GroupRingElt(ring, dict(zip(var_exps, x[j * m:(j + 1) * m])))
    return out


def ring_solve_multi(ring: GroupSpec, shape, equations):
    """Solve simultaneous constraints L*X*R = B for one unknown matrix X.

    shape is (k, l) for the unknown.  equations is a list of triples
    (L, R, B): L is a ring matrix with k columns or None for the identity,
    R has l rows or None for the identity, and B is the right-hand side.
    Returns X (k x l ring matrix) or None, decided as ring_solve decides:
    exactly on trivial units first, a window only over the Laurent ring.
    One equation L*X = B is one ring_solve; anything else is stacked into
    one ring_solve on vec(X), using vec(L X R) = (R^T (x) L) vec(X) in
    these commutative rings.
    """
    k, l = shape
    if len(equations) == 1 and equations[0][1] is None:
        L, _, B = equations[0]
        return ring_solve(ring, rmat_eye(ring, k) if L is None else L, B, len(B), k, l)
    rows, rhs = [], []
    for L, R, B in equations:
        L = rmat_eye(ring, k) if L is None else L
        R = rmat_eye(ring, l) if R is None else R
        Rcols = _transposed(R, len(B[0]) if B else 0)
        for ai, Brow in enumerate(B):
            for b, Rcol in zip(Brow, Rcols):
                rows.append([L[ai][i] * y for i in range(k) for y in Rcol])
                rhs.append([b])
    x = ring_solve(ring, rows, rhs, len(rows), k * l, 1)
    if x is None:
        return None
    return [[x[i * l + j][0] for j in range(l)] for i in range(k)]
