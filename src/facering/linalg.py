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

The loop works mod p over F_p and exactly over Q (p = None).  Over Q a
leading ±1 normalizes its row as an int multiplier, so rows of ±1 such as
coboundaries mostly stay in exact integers (Kaczynski-Mrozek-Ślusarek
1998), and any other leading entry, which torsion brings, normalizes it by
a Fraction.  Pivot columns and ranks are read off the echelon rows.
`kernel_basis` and `solve` (M X = B for a whole matrix B at once) read off
the reduced echelon form, which back-substitution over the sparse rows
gives (`_back_substitute`); it is unique, so it does not depend on the
order in which rows were reduced.  A dense matrix over Q enters with each
row scaled to integers with no common factor.  Entries must be exact: an
int enters F_p as `x % p`, a Fraction through the modular inverse of its
denominator, and a float raises TypeError (over F_p when the matrix is
built, over Q when it is eliminated).  No floating point is used anywhere.

`rank` over Q, and `block_pivots` for its rank-deficient prefixes, use
the certified rank (`_q_rank`), proved modulo primes.  Let W be the integer
matrix or its transpose, whichever has no more rows than columns (it
touches fewer rows per pivot), and n its number of rows.  For every prime
p, rank(W mod p) <= rank(W), so full row rank modulo one prime settles it.
Otherwise the r pivot columns of W mod p are independent over Q, and if the
rank is r, the vectors y with y W = 0 are exactly the kernel of C, the
transpose of those columns.  The reduced echelon forms of C modulo a few
primes with the same pivots give n - r such vectors, the identity at the
free columns of C, lifted by CRT and rational reconstruction with one
common denominator per vector (Wang 1981; Dixon 1982).  If every y W is
exactly zero, checked by sparse integer dot products, these independent
vectors prove rank <= r and the bounds meet.  When the lift or the check
fails, or below `_BAREISS_CELLS` entries, Bareiss decides (`_q_echelon`,
fraction-free, so every intermediate entry is an integer); it runs nowhere
else.  Pivot columns are never read modulo a prime: [[p, 1]] has pivot
column 0 over Q and 1 modulo p.  The one exception is `block_pivots`,
which reads them modulo p only to choose columns whose coordinate vectors
span a quotient, and says why that is sound.

All pivot choices are "first nonzero", so every result (kernel bases,
class representatives, ...) is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from operator import index

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Certified rank over Q: matrices with fewer entries go to Bareiss, larger ones
# are eliminated modulo the largest primes below 2^31.  Timed per call, best of
# 9 each way, on every Q rank of `verify corpus --m-max 2`, `analyze` of the
# perfbench analyze-grow complexes, `reduce rp2_6 --m 2 --cutoff 10` and
# `reduce octahedron --m 3 --cutoff 10`, Bareiss against modular took on
# average 0.21 against 0.27 ms at 1024-2047 entries (17 calls), 0.48 against
# 0.36 ms at 2048-4095 (12 calls), 1.07 against 1.10 ms at 4096-8191 (6 calls),
# and 4 to 28 against 2 to 5 ms above.
_BAREISS_CELLS = 2048
_RANK_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549)


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
# integer rows over Q, and Bareiss for the certified rank
# ---------------------------------------------------------------------------


def _q_int_rows(rows) -> list[list[int]]:
    """Scale each row to integer entries and strip the content.

    Entries are integers or Fractions; anything else raises TypeError.  A row
    that needs no change is returned as it is: the eliminations replace rows
    of the returned list but never change one.
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


# ---------------------------------------------------------------------------
# the elimination loop (sparse rows, mod p or over Q)
# ---------------------------------------------------------------------------


def _echelon_insert(echelon: dict, row: dict, p: int | None) -> None:
    """Reduce the sparse row {column: entry} against the echelon rows; store it if it is new.

    echelon maps each pivot column to its row, a dict {column: entry} with
    1 at the pivot and nothing to the left of it.  The leading column comes
    off a heap of the row's columns: it is eliminated by the echelon row
    with that pivot, if there is one, or else becomes the pivot of the
    normalized row.  The row is consumed.

    Over F_p the entries are integers: the leading one is reduced mod p, and
    the others gather products of residues as Python ints, unbounded,
    reduced only when they lead or are stored.  p = None is exact over Q:
    nothing is reduced, a leading ±1 normalizes the row as an int multiplier
    (1/x = x), so ±1 rows such as coboundaries stay in ints, and any other
    leading x normalizes it by the Fraction 1/x.
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
            else:
                inv = x if x == 1 or x == -1 else 1 / Fraction(x)
                echelon[c] = {k: y for k, v in row.items() if (y := v * inv)}
            return
        for k, v in prow.items():  # prow[c] = 1 leaves row[c] = 0 (mod p), deleted below
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
# certified rank over Q (modular elimination, exact kernel check)
# ---------------------------------------------------------------------------


def _rational(y: int, N: int, bound: int):
    """(a, b) with a = b*y mod N, |a| <= bound and 0 < b <= bound, or None (Wang)."""
    r0, r1, t0, t1 = N, y, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(images: list[list[int]], N: int):
    """Integer vectors from rational images mod N: a list of (d, numerators), or None.

    Each vector is its numerators over one common denominator d; the
    denominator found so far multiplies each next entry before its
    reconstruction, so it is mostly an integer by then.
    """
    bound = isqrt(N // 2)
    vectors = []
    for image in images:
        d, nums = 1, []
        for y in image:
            ab = _rational(y * d % N, N, bound)
            if ab is None:
                return None
            a, b = ab
            if b != 1:
                nums = [x * b for x in nums]
                d *= b
            nums.append(a)
        vectors.append((d, nums))
    return vectors


def _bareiss_rank(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank of sparse integer rows by Bareiss on a dense copy."""
    dense = [[0] * ncols for _ in rows]
    for out, row in zip(dense, rows):
        for c, x in row.items():
            out[c] = x
    return len(_q_echelon(dense, ncols)[1])


def _q_rank(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank over Q of sparse integer rows {column: integer}, proved modulo
    primes (see module docstring); columns are 0 .. ncols - 1.

    Its callers are `block_pivots`, for the rank-deficient prefixes of θ
    stacks and Artinian reductions, and `rank`, for dense matrices.
    Columns are eliminated in the order the caller numbers them; the rank
    does not depend on it, but the fill-in of the echelon rows does.  The
    tall θ stacks make W their transpose and the columns of C their
    columns, which `local_cohomology._theta_rows` numbers against the lex
    order of its rows (its docstring says why); the prefixes of a reduction
    keep the lex order of `artinian`, whose pivot columns it reads.  The
    rows keep their order: when W is the matrix itself, the kernel vectors
    are then 1 at a free row late in the matrix, and rows that are
    combinations of earlier rows give short lifts.
    """
    nrows = len(rows)
    if nrows * ncols < _BAREISS_CELLS:
        return _bareiss_rank(rows, ncols)
    columns: list[dict[int, int]] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, x in row.items():
            columns[c][i] = x
    # W has no more rows than columns: it touches fewer rows per pivot
    wrows, wcols = (columns, rows) if nrows > ncols else (rows, columns)
    n = len(wrows)
    cols = sorted(_sparse_echelon(map(dict, wrows), _RANK_PRIMES[0], len(wcols)))
    if len(cols) == n:
        return n
    best = None
    for p in _RANK_PRIMES:
        echelon = _sparse_echelon((dict(wcols[c]) for c in cols), p, n)  # y W = 0 => y in ker C
        pivots = sorted(echelon)
        if len(pivots) < len(cols) or (best is not None and pivots > best):
            continue  # the rank or the pivots of C drop modulo p
        if pivots != best:
            best, images, N = pivots, [[0] * len(pivots)] * (n - len(pivots)), 1
        _back_substitute(echelon, p)
        free = _non_pivots(pivots, n)
        block = [[-echelon[c].get(f, 0) % p for c in pivots] for f in free]
        del echelon
        inv = pow(N, -1, p)
        images = [[x + N * ((y - x) * inv % p) for x, y in zip(xs, ys)]
                  for xs, ys in zip(images, block)]
        N *= p
        vectors = _lift(images, N)
        if vectors is None:
            continue
        ys = []
        for f, (d, nums) in zip(free, vectors):
            y = dict(zip(pivots, nums))
            y[f] = d
            ys.append(y)
        if all(not sum(y.get(j, 0) * x for j, x in col.items()) for y in ys for col in wcols):
            return len(cols)
    return _bareiss_rank(rows, ncols)


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
    if M.nrows == 0 or M.ncols == 0:
        return []
    return sorted(_echelon(M))


def rank(M: Matrix) -> int:
    """Rank of M; over Q the certified rank `_q_rank`."""
    if M.nrows == 0 or M.ncols == 0:
        return 0
    if M.field.is_rational:
        return _q_rank(list(_sparse(_q_int_rows(M._rows))), M.ncols)
    return len(_echelon(M))


def sparse_rank(field: FieldSpec, rows, most: int) -> int:
    """Rank of the sparse integer rows {column: integer}, known to be at most `most`.

    The rows come one at a time from an iterable, and insertion stops once
    the rank reaches `most`, so the rows after that are never built.
    Columns are any integers, eliminated in ascending order.  The rows go to
    `_sparse_echelon`, mod p or exactly over Q: rows of ±1, such as
    coboundaries, mostly keep unit pivots and int entries, and torsion
    brings a Fraction pivot.
    """
    return len(_sparse_echelon(rows, field.p, most))


def block_pivots(field: FieldSpec, blocks, ncols: int) -> tuple[list[int], list[list[int]]]:
    """Ranks and pivot columns of the stacked blocks of rows, after every block.

    A row is a dict {column: entry} with exact entries, as in Matrix, and a
    zero row may be {}.  ranks[k] and pivots[k] belong to the first k blocks,
    so ranks[0] = 0 and pivots[0] = [] for the empty stack.  The coordinate
    vectors at the columns outside pivots[k] span the quotient by the rows of
    the first k blocks.  Over F_p all of it is exact.  Over Q each row is
    scaled to integers and the rows are eliminated modulo _RANK_PRIMES[0]; a
    prefix whose rank there equals its number of nonzero rows or ncols has
    that rank over Q, and any other prefix goes to `_q_rank`.

    The rows are sparse, so they are eliminated one at a time in pure Python
    (`_echelon_insert`): each is reduced against the echelon rows kept from
    all rows before it, never eliminated again, and either adds one pivot or
    none.  pivots[k] is the set of leading columns of an echelon basis of
    the span of the first k blocks, and that set depends only on the span
    (column c leads exactly when the span's dimension grows on adding the
    coordinates at c), so it equals the pivot columns of any forward
    elimination of the dense prefix, `pivot_columns` included.  Once every
    column is a pivot no row can add rank, and later rows skip elimination;
    every entry of every row is still mapped into F_p, so a float raises
    TypeError and a Fraction whose denominator p divides raises ValueError.

    The pivot columns over Q are read modulo p, the one exception to the
    rule of the module docstring.  The r pivot columns mod p carry an r x r
    minor of the integer rows that is nonzero mod p, hence nonzero over Q, so
    over Q the rows reach every vector on those columns and the coordinate
    vectors at the other columns still span the quotient.  They may be more
    than its dimension when the rank drops modulo p.
    """
    p = field.p or _RANK_PRIMES[0]
    if field.is_rational:  # rows scaled to integers; {} adds no rank, nor a row to count
        blocks = [[dict(zip(row, ints)) for row, ints in
                   zip(block, _q_int_rows([list(row.values()) for row in block])) if row]
                  for block in blocks]
    echelon: dict[int, dict[int, int]] = {}
    rows, ranks, after = [], [0], [[]]
    for block in blocks:
        for row in block:
            row = {c: x % p if type(x) is int else _residue(x, p) for c, x in row.items()}
            if len(echelon) < ncols:
                _echelon_insert(echelon, row, p)
        pivots = sorted(echelon)
        rows += block
        rank = len(pivots)
        if field.is_rational and rank < min(len(rows), ncols):
            rank = _q_rank(rows, ncols)
        ranks.append(rank)
        after.append(pivots)
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
