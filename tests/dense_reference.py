"""Matrices as dense lists of rows: the reference the tests read.

Integer matrices, and matrices over the group rings as lists of rows of
GroupRingElt.  Inside the package a ring matrix is held as sparse rows;
these dense helpers, once the package's own, check it entry for entry.
"""

import itertools


def eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(A, B, c=None):
    # A B; c is its column count, read off B unless B has no rows
    c = len(B[0]) if B else c or 0
    return [[sum(a * B[t][j] for t, a in enumerate(row)) for j in range(c)] for row in A]


def mat_vec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def transpose(A, c=None):
    # the rows of the transpose of A, which has c columns when it has no rows
    return [[row[j] for row in A] for j in range(len(A[0]) if A else c or 0)]


# ---------------------------------------------------------------------------
# Induced maps built whole: every generator of the source pushed, as the
# duality checks once built them, and the map in Smith coordinates read
# off the full matrix afterwards.
# ---------------------------------------------------------------------------


def induced_by(src, entries, tgt):
    """Full matrix (columns) of the map chain-level entries induce between presentations.

    src and tgt are (group, lattice, solver, cells); every lattice vector
    of src, a (co)cycle on its cells, is pushed through the (source cell,
    target cell, coefficient) triples and solved in tgt.  Triples off the
    cells are dropped.
    """
    _, lattice, _, cells = src
    _, _, solve, tcells = tgt
    entries = list(entries)
    cols = []
    for vector in lattice:
        value = dict(zip(cells, vector))
        image = dict.fromkeys(tcells, 0)
        for s, t, c in entries:
            if t in image:
                image[t] += c * value.get(s, 0)
        cols.append(solve(list(image.values())))
    return cols


def smith_map(F, dom, cod):
    """The map the full matrix F (columns) induces, in Smith coordinates.

    Column i is cod.canon of F applied to dom.lift(e_i), one column per
    Smith coordinate of dom.
    """
    free, torsion = dom.invariants()
    k = free + len(torsion)
    out = []
    for i in range(k):
        v = dom.lift([int(i == j) for j in range(k)])
        image = [sum(x * col[r] for x, col in zip(v, F)) for r in range(cod.ngens)]
        out.append(list(cod.canon(image)))
    return out


# ---------------------------------------------------------------------------
# Matrices over the group rings as lists of rows of GroupRingElt, the dense
# form the package reads and writes at its public edge only.
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
    return [[x.involve() for x in col] for col in transpose(A, c)]


def rmat_blocks(zero, row_sizes, col_sizes, blocks):
    """Dense block matrix with blocks[(a, b)] at block row a, block column b.

    Sizes are listed in order, as a sequence (keys 0, 1, ...) or a dict
    from key to size; absent blocks are zero.
    """
    rows, cols = (s if isinstance(s, dict) else dict(enumerate(s)) for s in (row_sizes, col_sizes))
    roff, coff = (dict(zip(s, itertools.accumulate(s.values(), initial=0))) for s in (rows, cols))
    out = [[zero] * sum(cols.values()) for _ in range(sum(rows.values()))]
    for (a, b), M in blocks.items():
        for i, row in enumerate(M, roff[a]):
            out[i][coff[b]:coff[b] + len(row)] = row
    return out
