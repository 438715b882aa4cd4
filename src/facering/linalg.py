"""Exact linear algebra over the rationals and prime fields.

There is one elimination loop, on sparse rows {column: entry}.  The rows
are inserted one at a time into an echelon form (`_echelon_insert`): each
is reduced against the rows kept before it and either adds one pivot or
none, and insertion stops once every column is a pivot, or earlier at a
bound on the rank that the caller knows.  Coboundaries and θ stacks have a
few entries per row, so the work follows the entries rather than the area
of the matrix.  The leading column is the leftmost, so the fill-in of the
echelon rows depends on how the columns are numbered.  The engines never
renumber them: the code that builds the rows chooses the order
(`local_cohomology._theta_rows` for θ stacks, `cohomology.coboundary_rank`
for coboundaries).

The loop works mod p over F_p and exactly over Q (p = None).  Over Q it
works in integers, fraction-free: each row enters scaled to integers with
no common factor, and an echelon row is kept primitive with a positive
leading entry.  A row whose leading x meets the echelon row with pivot a
becomes the row times a/g minus that echelon row times x/g, g = gcd(a, x),
so the span of the rows seen so far never changes.  A pivot 1 makes that
the int multiplier x, so rows of ±1 such as coboundaries eliminate as they
would over Z (Kaczynski-Mrozek-Ślusarek 1998), and torsion brings the
other pivots.  Ranks and pivot columns are read off the echelon rows, so
every prefix of the rows has them exactly, with no second method.
`kernel_basis` and `solve` (M X = B for a whole matrix B at once) read off
the reduced echelon form: over Q the integer echelon rows are divided by
their pivots, and back-substitution over the sparse rows
(`_back_substitute`) clears the other pivot columns.  That form is unique,
so it does not depend on the order in which rows were reduced.  Entries
must be exact: an int enters F_p as `x % p`, a Fraction through the
modular inverse of its denominator, and a float raises TypeError (over F_p
when the matrix is built, over Q when it is eliminated).  No floating
point is used anywhere.

All pivot choices are "first nonzero", so every result (kernel bases,
class representatives, ...) is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import index

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
    """The coefficient field: the rationals (p is None) or F_p for a prime p.

    There is one instance per field, so fields compare and hash by identity,
    in C (they key every memo).  Copies and unpickled fields are that instance.
    """

    __slots__ = ("p",)
    _instances: dict = {}

    def __new__(cls, p: int | None = None):
        if p is not None:
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"modulus {p!r} is not prime")
            if p >= 2**31:
                raise ValueError("prime moduli above 2^31 are not supported")
        field = cls._instances.get(p)
        if field is None:
            field = cls._instances[p] = object.__new__(cls)
            object.__setattr__(field, "p", p)
        return field

    def __reduce__(self):
        return FieldSpec, (self.p,)

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
        """The matrix with the given columns, for results whose columns carry meaning."""
        columns = list(columns)
        if any(len(c) != nrows for c in columns):
            raise ValueError("column length mismatch")
        return Matrix(field, zip(*columns) if columns else [()] * nrows, len(columns))

    # -- access ------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# integer rows over Q
# ---------------------------------------------------------------------------


def _q_int_rows(rows) -> list[list[int]]:
    """Scale each row to integer entries and strip the content.

    Entries are integers or Fractions; anything else raises TypeError.  A row
    that needs no change is returned as it is: the eliminations copy the rows
    into sparse dicts and never change them.
    """
    out = []
    for r in rows:
        if set(map(type, r)) <= {int}:
            ints = r
        else:
            den = 1
            for x in r:
                if type(x) is not int:
                    if isinstance(x, Fraction):
                        if x.denominator != 1:
                            den = lcm(den, x.denominator)
                    else:
                        index(x)
            ints = [int(x * den) for x in r] if den != 1 else [int(x) for x in r]
        g = gcd(*ints)
        if g > 1:
            ints = [x // g for x in ints]
        out.append(ints)
    return out


# ---------------------------------------------------------------------------
# the elimination loop (sparse rows, mod p or over Q)
# ---------------------------------------------------------------------------


def _echelon_insert(echelon: dict, row: dict, p: int | None) -> None:
    """Reduce the sparse row {column: entry} against the echelon rows; store it if it is new.

    echelon maps each pivot column to its row, a dict {column: entry} with
    nothing to the left of the pivot.  The leading column comes off a heap
    of the row's columns: it is eliminated by the echelon row with that
    pivot, if there is one, or else becomes the pivot of the stored row.
    The row is consumed.

    Over F_p the entries are integers: the leading one is reduced mod p, and
    the others gather products of residues as Python ints, unbounded,
    reduced only when they lead or are stored; a stored row has 1 at its
    pivot.  p = None is exact over Q on integer rows, fraction-free: a
    stored row is primitive with a positive pivot a, and a leading x
    against it turns the row into row * (a/g) - echelon row * (x/g) with
    g = gcd(a, x).  A pivot 1 leaves that x times the echelon row, an int
    multiplier, so a row that meets only pivots 1 and is stored at a lead
    ±1, as coboundaries mostly are, calls no gcd.
    """
    heap = list(row)
    heapify(heap)
    while heap:
        c = heappop(heap)
        x = row[c] % p if p else row[c]
        if not x:
            del row[c]
            continue
        prow = echelon.get(c)
        if prow is None:
            if p is not None:
                inv = pow(x, -1, p)
                echelon[c] = {k: y for k, v in row.items() if (y := v * inv % p)}
            elif x == 1 or x == -1:
                echelon[c] = {k: y for k, v in row.items() if (y := v * x)}
            else:
                g = gcd(*row.values()) if x > 0 else -gcd(*row.values())
                echelon[c] = {k: v // g for k, v in row.items() if v}
            return
        if p is None and (a := prow[c]) != 1:
            g = gcd(a, x)
            x //= g
            if a != g:
                a //= g
                for k in row:
                    row[k] *= a
        for k, v in prow.items():  # leaves row[c] = 0 (mod p), deleted below
            y = row.get(k)
            if y is None:
                row[k] = -x * v
                heappush(heap, k)
            else:
                row[k] = y - x * v
        del row[c]


def _sparse_echelon(rows, p: int | None, most: int) -> dict:
    """Echelon rows of the sparse rows {column: entry}, inserted in order, mod p or over Q.

    Insertion stops once there are `most` echelon rows: with most = ncols
    every column is a pivot then, and no later row can add one.
    """
    echelon: dict = {}
    for row in rows:
        if len(echelon) == most:
            break
        _echelon_insert(echelon, row, p)
    return echelon


def _back_substitute(echelon: dict, p: int | None) -> None:
    """Clear every other pivot column from each echelon row, in place: the reduced echelon form.

    Rows are cleared from the last pivot up, so a row is cleared only by
    rows that are reduced already: each carries no pivot column but its own,
    and subtracting it brings no new pivot column into the row.  Entries are
    reduced mod p, or kept exact when p is None.
    """
    for c in sorted(echelon, reverse=True):
        row = echelon[c]
        for k in [k for k in row if k != c and k in echelon]:
            x = row.pop(k)
            for j, v in echelon[k].items():
                if j != k:
                    y = row.get(j, 0) - x * v
                    if p:
                        y %= p
                    if y:
                        row[j] = y
                    else:
                        row.pop(j, None)


def _sparse(rows):
    """Dense rows as sparse rows {column: entry}, one at a time."""
    return ({c: x for c, x in enumerate(r) if x} for r in rows)


def _non_pivots(pivots: list[int], ncols: int) -> list[int]:
    pivset = set(pivots)
    return [c for c in range(ncols) if c not in pivset]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _echelon(M: Matrix) -> dict:
    """Echelon rows of all of M, each row of a matrix over Q scaled to integers first."""
    p = M.field.p
    return _sparse_echelon(_sparse(M._rows if p else _q_int_rows(M._rows)), p, M.ncols)


def _rref(M: Matrix, pivot_cols: int):
    """Reduced echelon form of M, zero rows left out, and its pivots left of pivot_cols.

    Rows are lists sorted by pivot; row r has a 1 in column pivots[r] and
    zeros in the other pivot columns, and rows past len(pivots) vanish in
    the first pivot_cols columns.
    """
    if M.nrows == 0 or pivot_cols == 0:
        return M.tolist(), []
    echelon = _echelon(M)
    if M.field.is_rational:  # divide each integer row by its pivot
        for c, row in echelon.items():
            if (a := row[c]) != 1:
                echelon[c] = {k: Fraction(x, a) for k, x in row.items()}
    _back_substitute(echelon, M.field.p)
    rows, pivots = [], []
    for c in sorted(echelon):
        row = [0] * M.ncols
        for k, x in echelon[c].items():
            row[k] = x
        rows.append(row)
        if c < pivot_cols:
            pivots.append(c)
    return rows, pivots


def pivot_columns(M: Matrix) -> list[int]:
    """Indices of the first maximal independent set of columns of M, in order."""
    return sorted(_echelon(M))


def rank(M: Matrix) -> int:
    """Rank of M: the number of its echelon rows."""
    return len(_echelon(M))


def sparse_rank(field: FieldSpec, rows, most: int) -> int:
    """Rank of the sparse integer rows {column: integer}, known to be at most `most`.

    The rows come one at a time from an iterable, and insertion stops once
    the rank reaches `most`, so the rows after that are never built.
    Columns are any integers, eliminated in ascending order.  The rows go to
    `_sparse_echelon`, mod p or exactly over Q in integers: rows of ±1, such
    as coboundaries, mostly keep pivots 1, and torsion brings the others.
    """
    return len(_sparse_echelon(rows, field.p, most))


def block_pivots(field: FieldSpec, blocks, ncols: int) -> tuple[list[int], list[list[int]]]:
    """Ranks and pivot columns of the stacked blocks of rows, after every block.

    A row is a dict {column: entry} with exact entries, as in Matrix, and a
    zero row may be {}.  ranks[k] and pivots[k] belong to the first k blocks,
    so ranks[0] = 0 and pivots[0] = [] for the empty stack.  The coordinate
    vectors at the columns outside pivots[k] span the quotient by the rows of
    the first k blocks.  All of it is exact, over Q as over F_p.

    The rows are sparse, so they are eliminated one at a time in pure Python
    (`_echelon_insert`): each is reduced against the echelon rows kept from
    all rows before it, never eliminated again, and either adds one pivot or
    none, so every prefix's rank is the number of echelon rows after it.
    Over Q each row enters scaled to integers with no common factor.
    pivots[k] is the set of leading columns of an echelon basis of the span
    of the first k blocks, and that set depends only on the span (column c
    leads exactly when the span's dimension grows on adding the coordinates
    at c), so it equals the pivot columns of any forward elimination of the
    dense prefix, `pivot_columns` included.  Once every column is a pivot no
    row can add rank, and later rows skip elimination; every entry of every
    row is still checked, so a float raises TypeError, and over F_p a
    Fraction whose denominator p divides raises ValueError.
    """
    p = field.p
    echelon: dict[int, dict[int, int]] = {}
    ranks, after = [0], [[]]
    for block in blocks:
        if p is None:
            block = [dict(zip(row, ints)) for row, ints in
                     zip(block, _q_int_rows([list(row.values()) for row in block]))]
        for row in block:
            if p is not None:
                row = {c: x % p if type(x) is int else _residue(x, p) for c, x in row.items()}
            if len(echelon) < ncols:
                _echelon_insert(echelon, row, p)
        ranks.append(len(echelon))
        after.append(sorted(echelon))
    return ranks, after


def kernel_basis(M: Matrix) -> Matrix:
    """Columns span ker M, one per free column: 1 there, 0 at the other free columns."""
    n = M.ncols
    rows, pivots = _rref(M, n)
    cols = []
    for free in _non_pivots(pivots, n):
        v = [0] * n
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        cols.append(v)
    if M.field.is_rational:
        cols = _q_int_rows(cols)
    return Matrix.from_columns(M.field, cols, n)


def solve(M: Matrix, B: Matrix) -> Matrix | None:
    """X with M X = B, zero at the non-pivot columns of M, or None if there is none.

    One reduced echelon form of [M | B] in the columns of M: row r gives row
    pivots[r] of X, and a nonzero row past the pivots of M has no solution.
    """
    n = M.ncols
    rows, pivots = _rref(hstack(M, B), n)
    if any(any(row[n:]) for row in rows[len(pivots):]):
        return None
    X = [[0] * B.ncols for _ in range(n)]
    for row, c in zip(rows, pivots):
        X[c] = row[n:]
    return Matrix(M.field, X, B.ncols)
