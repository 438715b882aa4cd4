"""Exact dense linear algebra over the rationals and prime fields.

Rational matrices are eliminated fraction-free (Bareiss) after clearing
denominators row by row, which keeps every intermediate entry an integer.
Prime-field matrices are reduced with vectorized modular row operations on
int64 numpy arrays.  Entries must be exact: an int enters F_p as `x % p`, a
Fraction through the modular inverse of its denominator, and a float raises
TypeError (over F_p when the matrix is built, over Q when it is eliminated).
No floating point is used anywhere.

Ranks and pivot columns need only forward elimination in both engines
(`_q_echelon`, `_p_echelon`), which clears the rows below each pivot in the
columns from the pivot on.  Kernels and solving read off one reduced echelon
form per field: `_q_rref` and `_p_rref` run that forward elimination, then
back-substitution (exact Fractions over Q, modular inverses over F_p).

All pivot choices are "first nonzero", so every result (kernel bases,
class representatives, ...) is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index

import numpy as np

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit integers."""
    if p < 2:
        return False
    for q in _MR_WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The coefficient field: the rationals (p is None) or F_p for a prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"modulus {p!r} is not prime")
            if p >= 2**31:
                raise ValueError("prime moduli above 2^31 are not supported")
        object.__setattr__(self, "p", p)

    def __setattr__(self, *_):
        raise AttributeError("FieldSpec is immutable")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Parse "q" or "fp:<prime>"."""
        if text == "q":
            return FieldSpec(None)
        if text.startswith("fp:"):
            try:
                p = int(text[3:])
            except ValueError:
                raise ValueError(f"bad field spec {text!r}") from None
            return FieldSpec(p)
        raise ValueError(f"bad field spec {text!r} (expected 'q' or 'fp:<prime>')")

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __str__(self):
        return "q" if self.p is None else f"fp:{self.p}"

    def __repr__(self):
        return f"FieldSpec({self.p!r})"


QQ = FieldSpec(None)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)


def _residue(x, p: int) -> int:
    """Exact image of an integer or Fraction in F_p; other entries raise TypeError.

    A Fraction whose denominator p divides raises ValueError.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator % p
        return x.numerator * pow(x.denominator, -1, p) % p
    return index(x) % p


class Matrix:
    """Immutable dense matrix with exact entries.

    Over Q the entries are ints or Fractions; over F_p they are residues in
    [0, p).  Rows with no entries still carry an explicit column count.
    """

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: FieldSpec, rows, ncols: int | None = None):
        p = field.p
        if p is None:
            rows = [list(r) for r in rows]
        else:
            rows = [[x % p if type(x) is int else _residue(x, p) for x in r] for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        return Matrix(field, [[int(i == j) for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_columns(field: FieldSpec, columns, nrows: int) -> "Matrix":
        cols = [list(c) for c in columns]
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column length mismatch")
        rows = [[c[i] for c in cols] for i in range(nrows)]
        return Matrix(field, rows, len(cols))

    # -- access ------------------------------------------------------------

    def row(self, i: int) -> list:
        return list(self._rows[i])

    def column(self, j: int) -> list:
        return [r[j] for r in self._rows]

    def tolist(self) -> list[list]:
        return [list(r) for r in self._rows]

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        row_idx, col_idx = list(row_idx), list(col_idx)
        rows = [[self._rows[i][j] for j in col_idx] for i in row_idx]
        return Matrix(self.field, rows, len(col_idx))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        if self.field.is_rational:
            return all(
                Fraction(a) == Fraction(b)
                for ra, rb in zip(self._rows, other._rows)
                for a, b in zip(ra, rb)
            )
        return self._rows == other._rows

    def __hash__(self):
        if self.field.is_rational:
            body = tuple(tuple(Fraction(x) for x in r) for r in self._rows)
        else:
            body = tuple(tuple(r) for r in self._rows)
        return hash((self.field, self.nrows, self.ncols, body))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    # -- arithmetic ---------------------------------------------------------

    def scaled(self, c) -> "Matrix":
        return Matrix(self.field, [[c * x for x in r] for r in self._rows], self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        bcols = [other.column(j) for j in range(other.ncols)]
        rows = []
        for r in self._rows:
            rows.append([sum(x * y for x, y in zip(r, c) if x and y) for c in bcols])
        return Matrix(self.field, rows, other.ncols)

    # -- numpy bridge (prime fields) ----------------------------------------

    def _np(self) -> np.ndarray:
        return np.array(self._rows, dtype=np.int64).reshape(self.nrows, self.ncols)


def hstack(*mats: Matrix) -> Matrix:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("hstack of nothing")
    field, nrows = mats[0].field, mats[0].nrows
    for m in mats:
        if m.field != field or m.nrows != nrows:
            raise ValueError("hstack shape/field mismatch")
    rows = [[x for m in mats for x in m._rows[i]] for i in range(nrows)]
    return Matrix(field, rows, sum(m.ncols for m in mats))


def vstack(*mats: Matrix) -> Matrix:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("vstack of nothing")
    field, ncols = mats[0].field, mats[0].ncols
    for m in mats:
        if m.field != field or m.ncols != ncols:
            raise ValueError("vstack shape/field mismatch")
    rows = [r for m in mats for r in m._rows]
    return Matrix(field, rows, ncols)


# ---------------------------------------------------------------------------
# rational engine (fraction-free)
# ---------------------------------------------------------------------------


def _q_int_rows(rows) -> list[list[int]]:
    """Scale each row to integer entries and strip the content.

    Entries are integers or Fractions; anything else raises TypeError.
    """
    out = []
    for r in rows:
        den = 1
        for x in r:
            if type(x) is not int:
                if isinstance(x, Fraction):
                    if x.denominator != 1:
                        den = lcm(den, x.denominator)
                else:
                    index(x)
        ints = [int(x * den) for x in r] if den != 1 else [int(x) for x in r]
        g = 0
        for x in ints:
            g = gcd(g, x)
        if g > 1:
            ints = [x // g for x in ints]
        out.append(ints)
    return out


def _q_echelon(rows: list[list[int]], pivot_cols: int):
    """Bareiss forward elimination in place; returns (rows, pivot column list).

    Row k of the result has its pivot in column pivots[k].  Row operations are
    scalings and eliminations only, so row space and null space are preserved.
    """
    m = len(rows)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(pivot_cols):
        if r == m:
            break
        k = None
        for k2 in range(r, m):
            if rows[k2][c]:
                k = k2
                break
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
        prow = rows[r]
        piv = prow[c]
        for k2 in range(r + 1, m):
            row = rows[k2]
            f = row[c]
            if f:
                rows[k2] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
            elif piv != prev:
                rows[k2] = [piv * x // prev if x else 0 for x in row]
        pivots.append(c)
        prev = piv
        r += 1
    return rows, pivots


def _q_rref(rows: list[list[int]], pivot_cols: int):
    """Reduced echelon form over Q: Bareiss forward, then exact back-substitution.

    Returns (Fraction rows, pivot column list); row r has a 1 in column
    pivots[r] and zeros in every other pivot column.
    """
    rows, pivots = _q_echelon(rows, pivot_cols)
    rows = [[Fraction(x) for x in r] for r in rows]
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        piv = rows[r][c]
        if piv != 1:
            rows[r] = [x / piv for x in rows[r]]
        for r2 in range(r):
            f = rows[r2][c]
            if f:
                rows[r2] = [a - f * b for a, b in zip(rows[r2], rows[r])]
    return rows, pivots


# ---------------------------------------------------------------------------
# prime-field engine (numpy)
# ---------------------------------------------------------------------------


def _p_echelon(R: np.ndarray, p: int, pivot_cols: int):
    """Forward elimination mod p in place on R; returns (R, pivot column list).

    Row k of the result has its pivot in column pivots[k].  Rows at or below
    the pivot row are zero left of the pivot column, so a step touches only
    the rows below it that are nonzero there, and only the columns from it on.
    Entries stay in [0, p) with p < 2^31, so every product is below 2^62.
    """
    m = R.shape[0]
    pivots: list[int] = []
    r = 0
    for c in range(pivot_cols):
        if r == m:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            R[[r, k], c:] = R[[k, r], c:]
        if nz.size > 1:
            touched = r + nz[1:]
            f = R[touched, c] * pow(int(R[r, c]), -1, p) % p
            R[touched, c:] = (R[touched, c:] - np.outer(f, R[r, c:])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def _p_rref(R: np.ndarray, p: int, pivot_cols: int):
    """Reduced echelon form mod p in place on R: forward, then back-substitution.

    Returns (R, pivot column list); row r has a 1 in column pivots[r] and zeros
    in every other pivot column.
    """
    R, pivots = _p_echelon(R, p, pivot_cols)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        R[r, c:] = R[r, c:] * pow(int(R[r, c]), -1, p) % p
        above = np.flatnonzero(R[:r, c])
        if above.size:
            R[above, c:] = (R[above, c:] - np.outer(R[above, c], R[r, c:])) % p
    return R, pivots


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _rref(M: Matrix, pivot_cols: int):
    """Reduced echelon form of M in its first pivot_cols columns: (rows, pivots).

    Rows are lists; row r has a 1 in column pivots[r] and zeros in the other
    pivot columns, and rows past len(pivots) vanish in those columns.
    """
    if M.nrows == 0 or pivot_cols == 0:
        return M.tolist(), []
    if M.field.is_rational:
        return _q_rref(_q_int_rows(M._rows), pivot_cols)
    R, pivots = _p_rref(M._np(), M.field.p, pivot_cols)
    return R.tolist(), pivots


def pivot_columns(M: Matrix) -> list[int]:
    """Indices of the first maximal independent set of columns of M, in order."""
    if M.nrows == 0 or M.ncols == 0:
        return []
    if M.field.is_rational:
        _, pivots = _q_echelon(_q_int_rows(M._rows), M.ncols)
    else:
        _, pivots = _p_echelon(M._np(), M.field.p, M.ncols)
    return pivots


def rank(M: Matrix) -> int:
    return len(pivot_columns(M))


def kernel_basis(M: Matrix) -> Matrix:
    """Columns span ker M, one per free column: 1 there, 0 at the other free columns."""
    n = M.ncols
    rows, pivots = _rref(M, n)
    pivset = set(pivots)
    cols = []
    for free in range(n):
        if free in pivset:
            continue
        v = [0] * n
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        cols.append(v)
    if M.field.is_rational:
        cols = _q_int_rows(cols)
    return Matrix.from_columns(M.field, cols, n)


class Solver:
    """Reusable solver for M x = b: one elimination, many right-hand sides."""

    def __init__(self, M: Matrix):
        self.field = M.field
        self.nrows = M.nrows
        self.ncols = M.ncols
        rows, self.pivots = _rref(hstack(M, Matrix.identity(M.field, M.nrows)), M.ncols)
        self._transform = [row[M.ncols:] for row in rows]

    def solve(self, b) -> list | None:
        b = list(b)
        if len(b) != self.nrows:
            raise ValueError("rhs length mismatch")
        y = [sum(t * v for t, v in zip(row, b) if t and v) for row in self._transform]
        if self.field.p is not None:
            y = [v % self.field.p for v in y]
        for r in range(len(self.pivots), self.nrows):
            if y[r]:
                return None
        x: list = [0] * self.ncols
        for r, c in enumerate(self.pivots):
            x[c] = y[r]
        return x
