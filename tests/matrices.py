"""Matrix product for the tests, which check identities such as M X = B with it."""

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
