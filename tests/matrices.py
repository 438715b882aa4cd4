"""Matrix product, plain Gauss-Jordan elimination and reference ranks for
the tests, which check identities such as M X = B, the engine's echelon
forms and the ranks of result matrices with them, apart from the library."""

from fractions import Fraction

from facering.linalg import Matrix


def matmul(A: Matrix, B: Matrix) -> Matrix:
    """A B over the common field of A and B; over F_p the sums enter F_p as any entry does."""
    if A.field != B.field:
        raise ValueError("field mismatch")
    if A.ncols != B.nrows:
        raise ValueError("shape mismatch in matmul")
    bcols = [B.column(j) for j in range(B.ncols)]
    rows = [[sum(x * y for x, y in zip(r, c) if x and y) for c in bcols] for r in A.tolist()]
    return Matrix(A.field, rows, B.ncols)


def gauss_jordan(rows, ncols, p=None):
    """Nonzero rows and pivot columns of the reduced echelon form mod p, or
    over Q in Fractions when p is None, by plain Gauss-Jordan over all columns."""
    exact = Fraction if p is None else (lambda x: x % p)
    rows = [[exact(x) for x in r] for r in rows]
    pivots, r = [], 0
    for c in range(ncols):
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = 1 / rows[r][c] if p is None else pow(rows[r][c], -1, p)
        rows[r] = [exact(x * inv) for x in rows[r]]
        for k2 in range(len(rows)):
            f = rows[k2][c]
            if k2 != r and f:
                rows[k2] = [exact(x - f * y) for x, y in zip(rows[k2], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def bareiss_rank(rows, ncols):
    """Rank of integer rows by dense fraction-free Bareiss elimination."""
    rows, prev, r = [list(row) for row in rows], 1, 0
    for c in range(ncols):
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        piv = rows[r][c]
        for k in range(r + 1, len(rows)):
            f = rows[k][c]
            rows[k] = [(piv * x - f * y) // prev for x, y in zip(rows[k], rows[r])]
        prev, r = piv, r + 1
    return r


def rank(M: Matrix) -> int:
    """Rank of M by forward elimination on dict rows, in Fractions over Q or
    mod p, one row at a time against the pivot rows before it."""
    p = M.field.p
    exact = Fraction if p is None else (lambda x: x % p)
    pivots = {}
    for row in M.tolist():
        row = {c: exact(x) for c, x in enumerate(row) if x}
        while row:
            c = min(row)
            if c not in pivots:
                inv = 1 / row[c] if p is None else pow(row[c], -1, p)
                pivots[c] = {k: exact(x * inv) for k, x in row.items()}
                break
            f = row[c]
            for k, y in pivots[c].items():
                v = exact(row.get(k, 0) - f * y)
                if v:
                    row[k] = v
                else:
                    row.pop(k, None)
    return len(pivots)
