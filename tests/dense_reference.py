"""Integer matrices as lists of rows: the dense reference the tests read."""


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
