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
(`local_cohomology._theta_rows` for θ stacks, `cohomology._pair_ranks`
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

Every elimination takes sparse rows in the field: over F_p, ints, and
over Q, integers.  The public `block_pivots` and `kernel_vectors` take
exact entries, ints or Fractions, and map every row into the field as a
new row (`_field_rows`), so a float raises TypeError and no floating point
is used anywhere; their loops (`_block_pivots`, `_kernel_vectors`) take
rows that are in the field already, as `sparse_rank` does.  The Artinian
reduction maps its forms into the field once and builds its rows from
them, and coboundary rows of ±1 need no mapping.  `_reduce` brings an
echelon form to the reduced echelon form: over Q the integer rows are
divided by their pivots, and back-substitution clears the other pivot
columns.  That form is unique, so it does not depend on the order of the
rows.  Kernels (`kernel_vectors`) are read off it, and `_clear_pivots`
writes a vector in its rows with no elimination.  `Matrix` is only the
dense form in which results are handed out.

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
    """Immutable dense matrix with exact entries, for results; no elimination reads one.

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

    @staticmethod
    def from_entries(field: FieldSpec, nrows: int, ncols: int, entries) -> "Matrix":
        """The matrix with the given (row, column, entry) triples and zeros elsewhere."""
        rows = [[0] * ncols for _ in range(nrows)]
        for r, c, x in entries:
            rows[r][c] = x
        return Matrix(field, rows, ncols)

    def column(self, j: int) -> list:
        return [r[j] for r in self._rows]

    def tolist(self) -> list[list]:
        return [list(r) for r in self._rows]

    # ints and Fractions compare and hash by value (Fraction(2) == 2, with
    # equal hashes), so neither method needs to know the field
    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field, self.ncols, self._rows) == (other.field, other.ncols, other._rows)

    def __hash__(self):
        return hash((self.field, self.ncols, tuple(map(tuple, self._rows))))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# rows into the field
# ---------------------------------------------------------------------------


def _q_int_row(row: dict) -> dict:
    """The sparse row scaled to integer entries with no common factor, as a new dict.

    Entries are integers or Fractions; anything else raises TypeError.
    """
    ints = row
    if not set(map(type, row.values())) <= {int}:
        den = 1
        for x in row.values():
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
            else:
                index(x)
        ints = {c: int(x * den) if den != 1 else int(x) for c, x in row.items()}
    g = gcd(*ints.values())
    return {c: x // g for c, x in ints.items()} if g > 1 else dict(ints)


def _field_rows(rows, p: int | None):
    """The sparse rows {column: entry} as new rows in the field, one at a time.

    Over F_p an int enters as x % p and a Fraction through the modular
    inverse of its denominator (ValueError when p divides it); over Q each
    row is scaled to integers with no common factor.  A float raises
    TypeError.  The eliminations consume these rows, never the caller's.
    """
    if p is None:
        return map(_q_int_row, rows)
    return ({c: x % p if type(x) is int else _residue(x, p) for c, x in row.items()}
            for row in rows)


# ---------------------------------------------------------------------------
# the elimination loop (sparse rows, mod p or over Q)
# ---------------------------------------------------------------------------


def _echelon_insert(echelon: dict, row: dict, p: int | None) -> int | None:
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
            return c
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
    return None


def _sparse_echelon(rows, p: int | None, most: int | None) -> dict:
    """Echelon rows of the sparse rows {column: entry}, inserted in order, mod p or over Q.

    Insertion stops once there are `most` echelon rows (never when most is
    None): with most = ncols every column is a pivot then, and no later row
    can add one.
    """
    echelon: dict = {}
    for row in rows:
        if len(echelon) == most:
            break
        _echelon_insert(echelon, row, p)
    return echelon


def _clear_pivots(row: dict, echelon: dict, p: int | None, own: int | None = None) -> None:
    """Subtract row[k] times the echelon row at k from the row, in place, for
    each pivot column k of the row other than `own`.

    The echelon rows at those pivots must be reduced (1 at the pivot and
    nothing at the other pivot columns), so no pivot column enters the row.
    Entries are reduced mod p, or kept exact when p is None.
    """
    for k in [k for k in row if k != own and k in echelon]:
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


def _reduce(echelon: dict, p: int | None) -> None:
    """Bring the echelon rows to the reduced echelon form, in place.

    Over Q each integer row is divided by its pivot first, so every row has
    1 at its pivot.  Rows are then cleared from the last pivot up, so a row
    is cleared only by rows that are reduced already.
    """
    if p is None:
        for c, row in echelon.items():
            if (a := row[c]) != 1:
                echelon[c] = {k: Fraction(x, a) for k, x in row.items()}
    for c in sorted(echelon, reverse=True):
        _clear_pivots(echelon[c], echelon, p, c)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


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

    A row is a dict {column: entry} with exact entries, and a zero row may
    be {}.  ranks[k] and pivots[k] belong to the first k blocks, so
    ranks[0] = 0 and pivots[0] = [] for the empty stack.  The coordinate
    vectors at the columns outside pivots[k] span the quotient by the rows
    of the first k blocks.  All of it is exact, over Q as over F_p.

    Every entry of every row enters the field (`_field_rows`), so a float
    raises TypeError, and over F_p a Fraction whose denominator p divides
    raises ValueError; `_block_pivots` eliminates the new rows.
    """
    p = field.p
    return _block_pivots((_field_rows(block, p) for block in blocks), ncols, p)


def _block_pivots(blocks, ncols: int, p: int | None) -> tuple[list[int], list[list[int]]]:
    """`block_pivots` of rows already in the field, which it consumes: over
    F_p rows of ints, over Q rows of integers, primitive or not.

    The rows are inserted one at a time (`_echelon_insert`), each adding one
    pivot or none, so every prefix's rank is the number of echelon rows
    after it.  pivots[k] is the set of leading columns of an echelon basis
    of the span of the first k blocks, and that set depends only on the span
    (column c leads exactly when the span's dimension grows on adding the
    coordinates at c), so it equals the pivot columns of any forward
    elimination of the dense prefix.  Once every column is a pivot no row
    can add rank, and later rows skip elimination, though each is still
    taken from its block.
    """
    echelon: dict[int, dict[int, int]] = {}
    ranks, after = [0], [[]]
    for block in blocks:
        for row in block:
            if len(echelon) < ncols:
                _echelon_insert(echelon, row, p)
        ranks.append(len(echelon))
        after.append(sorted(echelon))
    return ranks, after


def kernel_vectors(field: FieldSpec, rows, ncols: int) -> list[dict]:
    """A basis of the vectors v in field^ncols with row . v = 0 for every sparse row.

    One sparse vector {column: entry} per free column, in ascending order:
    1 at its free column (over Q, a positive integer), 0 at the other free
    columns.  Over Q each is scaled to integers with no common factor.  The
    rows enter the field (`_field_rows`) as new rows, so a float raises
    TypeError; `_kernel_vectors` eliminates them.
    """
    p = field.p
    return _kernel_vectors(_field_rows(rows, p), ncols, p)


def _kernel_vectors(rows, ncols: int, p: int | None) -> list[dict]:
    """`kernel_vectors` of rows already in the field, which it consumes."""
    echelon = _sparse_echelon(rows, p, ncols)
    _reduce(echelon, p)
    vectors = {free: {free: 1} for free in range(ncols) if free not in echelon}
    for c, row in echelon.items():
        for k, x in row.items():
            if k != c:
                vectors[k][c] = -x % p if p else -x
    return [_q_int_row(v) if p is None else v for v in vectors.values()]
