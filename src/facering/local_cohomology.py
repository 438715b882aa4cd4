"""Finely graded local cohomology of a face ring, realized combinatorially.

The degree -r piece of the cohomological-degree-l local cohomology module
splits into blocks indexed by the exponent vectors U >= 0 with |U| = r whose
support is a face; the block at U is the relative cohomology space
H^{l-1}(X | support(U)).  Multiplication by a linear form maps the -(r+1)
piece to the -r piece blockwise through the contravariant restriction maps,
scaled by the form's coefficients.  A block whose support does not change
is the identity and is written entry by entry, with no cocycle basis built;
every other block is fetched once per pair of supports as sparse rows.

On top of that structure this module provides:
  * per-degree dimensions by a closed count over face sizes (`cohomology_by_size`);
  * the Z-graded Hilbert series as a rational function in one variable with
    denominator a power of (1 - t), with exact pole-order queries;
  * certified-generic coefficient matrices (positive Vandermonde over Q,
    sampled, or else extended Cauchy, and minor-verified over prime fields);
  * the dimension of the common kernel of several multiplication maps,
    computed both by brute force, from the ranks of the stacked maps
    eliminated block by block (`linalg.block_pivots`, as in the Artinian
    reduction), and by a closed binomial formula.

Row r of the block of form k at degree -(i+1) is the transposed map
theta_k applied to the r-th dual coordinate vector of the -i piece, so the
first k blocks span J_k(i) = theta_1 D_i + ... + theta_k D_i, with D_i the
dual of the -i piece.  The forms commute, so theta_k J_{k-1}(i-1) lies in
J_{k-1}(i), and

    J_k(i) = J_{k-1}(i) + theta_k Q^{k-1}_i,

with Q^{k-1}_i the dual coordinate vectors of the -i piece at the columns
outside the pivots of the first k-1 blocks one degree down, which span D_i
modulo J_{k-1}(i-1).  This is the dual of the S^k spans of `artinian`.  So
the block of form k keeps only its rows at Q^{k-1}_i (`theta_stack`); the
first form's block keeps all, as Q^0_i is every coordinate vector; and the
ranks and pivots after every block are those of the whole stack.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import accumulate, combinations
from math import comb

from .cohomology import _induced_map, cohomology_by_face, cohomology_by_size, relative_cohomology_dim
from .complexes import SimplicialComplex, monomial_supports, monomial_table, per_complex
from .linalg import QQ, FieldSpec, Matrix, block_pivots

GENERIC_TRIES = 64  # draws of a whole matrix before make_generic gives up


def binom0(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 whenever b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


# ---------------------------------------------------------------------------
# graded pieces
# ---------------------------------------------------------------------------


class GradedPiece:
    """The degree -r piece in cohomological degree l, as an ordered block sum,
    one block per degree-r monomial in the order of `degree_monomials`,
    sized by its support (`monomial_supports`)."""

    __slots__ = ("dims", "offsets", "total_dim")

    def __init__(self, cx, ell, r, field):
        by_face = cohomology_by_face(cx, ell - 1, field)
        self.dims = tuple(by_face[F] for F in monomial_supports(cx, r))
        *offsets, self.total_dim = accumulate(self.dims, initial=0)
        self.offsets = tuple(offsets)


@per_complex
def graded_piece(cx: SimplicialComplex, ell: int, r: int, field: FieldSpec) -> GradedPiece:
    return GradedPiece(cx, ell, r, field)


def lc_coarse_dim(cx: SimplicialComplex, ell: int, j: int, field: FieldSpec) -> int:
    """Dimension of the Z-degree j piece (j <= 0) by the closed blockwise count."""
    if j > 0:
        raise ValueError("local cohomology of a face ring vanishes in positive Z-degrees")
    if j == 0:
        return relative_cohomology_dim(cx, frozenset(), ell - 1, field)
    h = cohomology_by_size(cx, ell - 1, field)
    return sum(binom0(-j - 1, s - 1) * h_s for s, h_s in enumerate(h))


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------


def _strip(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


class HilbertSeries(namedtuple("HilbertSeries", "numerator denom_power")):
    """numerator(t) / (1 - t)^denom_power with integer numerator coefficients
    (a tuple) and an int power."""

    __slots__ = ()

    def reduce(self) -> "HilbertSeries":
        """Cancel all factors of (1 - t); the zero series reduces to 0/(1-t)^0."""
        num = list(_strip(list(self.numerator)))
        e = self.denom_power
        if not num:
            return HilbertSeries((), 0)
        while e > 0 and sum(num) == 0:
            # synthetic division by (1 - t): q_k = p_k + q_{k-1}
            q = []
            acc = 0
            for c in num[:-1]:
                acc += c
                q.append(acc)
            num = list(_strip(q))
            e -= 1
            if not num:
                return HilbertSeries((), 0)
        return HilbertSeries(tuple(num), e)

    @property
    def pole_order(self) -> int:
        """Order of the pole at t = 1; zero for the zero series."""
        return self.reduce().denom_power

    def coefficient(self, j: int) -> int:
        """Coefficient of t^j in the power-series expansion."""
        if j < 0:
            return 0
        red = self.reduce()
        e = red.denom_power
        if e == 0:
            return red.numerator[j] if j < len(red.numerator) else 0
        return sum(
            c * comb(j - k + e - 1, e - 1)
            for k, c in enumerate(red.numerator)
            if k <= j
        )

    def to_json(self) -> dict:
        red = self.reduce()
        return {"numerator": list(red.numerator), "denom_power": red.denom_power}


def lc_hilbert_series(cx: SimplicialComplex, i: int, field: FieldSpec) -> HilbertSeries:
    """Hilbert series of the i-th local cohomology in the contragradient variable.

    The coefficient of t^j is the dimension in Z-degree -j: each face F with a
    nonvanishing block contributes dim * t^|F| / (1-t)^|F|.  Over the common
    denominator (1-t)^e, with h_s the summed block dimension of the faces of
    size s and e the largest s with h_s != 0, the numerator is
    num_k = sum_{s<=k} h_s (-1)^(k-s) C(e-s, k-s).
    """
    if i > cx.d:
        raise ValueError("cohomological degree above the Krull dimension")
    h = cohomology_by_size(cx, i - 1, field)
    e = max((s for s, h_s in enumerate(h) if h_s), default=0)
    num = [sum(h[s] * (-1) ** (k - s) * comb(e - s, k - s) for s in range(k + 1))
           for k in range(e + 1)]
    return HilbertSeries(_strip(num), e).reduce()


# ---------------------------------------------------------------------------
# generic coefficient matrices
# ---------------------------------------------------------------------------


class GenericCoefficients:
    """n x m coefficient matrix of linear forms, certified generic.

    Every square submatrix is nonsingular: analytic for the positive
    Vandermonde over Q, checked minor by minor over prime fields.  It
    compares and hashes by identity, so a `theta_stack` memo lookup does
    not hash the matrix.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *_):
        raise AttributeError("GenericCoefficients is immutable")

    def __repr__(self):
        return f"GenericCoefficients(matrix={self.matrix!r})"

    @property
    def m(self) -> int:
        return self.matrix.ncols

    def prefix(self, k: int) -> "GenericCoefficients":
        """The first k columns: a new matrix, or this one when k is all of
        them.  Every square submatrix of a column prefix is one of the whole
        matrix, so the prefix is certified generic as well."""
        if not 0 <= k <= self.m:
            raise ValueError("prefix out of range for the coefficient matrix")
        if k == self.m:
            return self
        return GenericCoefficients(Matrix(self.matrix.field,
                                          [row[:k] for row in self.matrix.tolist()], k))

    def to_json(self) -> dict:
        entries = [
            [x if isinstance(x, int) else str(x) for x in row]
            for row in self.matrix.tolist()
        ]
        return {"field": str(self.matrix.field), "entries": entries, "verified": True}


def vandermonde_coefficients(nodes, m: int) -> GenericCoefficients:
    """Columns node^0, node^1, ... on strictly increasing positive integer nodes.

    Every square submatrix is a generalized Vandermonde with positive
    increasing nodes, hence has positive determinant.
    """
    nodes = list(nodes)
    if any(t <= 0 for t in nodes) or sorted(set(nodes)) != nodes:
        raise ValueError("nodes must be strictly increasing positive integers")
    rows = [[t ** p for p in range(m)] for t in nodes]
    return GenericCoefficients(Matrix(QQ, rows, m))


def all_minors_nonsingular(M: Matrix) -> bool:
    """Whether every square submatrix of M has a nonzero determinant.

    The k x k minors are taken for k = 1, 2, ... in turn, each expanded along
    its last row from the (k-1)-minors of the rows above it, which are kept
    from the step before: k products per minor, exact over Q and reduced mod p
    over F_p.  The first zero returns False.
    """
    p, A = M.field.p, M.tolist()
    below = {((), ()): 1}  # the (k-1)-minors by (rows, columns)
    for k in range(1, min(M.nrows, M.ncols) + 1):
        minors = {}
        for rows in combinations(range(M.nrows), k):
            last, above = A[rows[-1]], rows[:-1]
            for cols in combinations(range(M.ncols), k):
                det = 0
                for j, c in enumerate(cols):
                    term = last[c] * below[above, cols[:j] + cols[j + 1:]]
                    det += -term if (k - 1 - j) % 2 else term
                if p is not None:
                    det %= p
                if not det:
                    return False
                minors[rows, cols] = det
        below = minors
    return True


def generic_fits(n: int, m: int, field: FieldSpec) -> bool:
    """Whether an n x m matrix A over the field with all minors nonzero exists:
    over F_p with n, m >= 2, exactly when n + m <= p + 1, the length bound of
    the MDS code that [I | A] generates (Ball 2012, for p prime)."""
    return field.is_rational or min(n, m) < 2 or n + m <= field.p + 1


def make_generic(n: int, m: int, field: FieldSpec, seed: int | None = None) -> GenericCoefficients:
    """A verified-generic n x m coefficient matrix.

    Over Q this is the Vandermonde on nodes 1..n (no randomness, certificate
    analytic).  Over F_p entries are sampled uniformly from the nonzero
    residues (a zero draw is drawn again) and all square submatrices are
    checked; sampling stops after GENERIC_TRIES draws of the whole matrix.
    Then the extended Cauchy matrix is taken, a row of ones over the rows
    1/(x_i - y_j) with x = 0..n-2 and y = n-1..n+m-2, distinct residues
    exactly when n + m <= p + 1; every square submatrix of a Cauchy matrix,
    with or without the row of ones, is nonsingular, and it is checked like
    a draw.  A shape that generic_fits rules out is refused before any draw.
    """
    if field.is_rational:
        return vandermonde_coefficients(range(1, n + 1), m)
    p = field.p
    if not generic_fits(n, m, field):
        raise ValueError(
            f"no {n} x {m} matrix over F_{p} has all minors nonzero: with two or more "
            f"rows and columns, rows + columns is at most p + 1 = {p + 1} (the MDS bound)"
        )
    rng = random.Random(seed)

    def entry():  # a zero entry is a singular 1 x 1 minor: draw again
        x = rng.randrange(p)
        while not x:
            x = rng.randrange(p)
        return x

    for _ in range(GENERIC_TRIES):
        rows = [[entry() for _ in range(m)] for _ in range(n)]
        M = Matrix(field, rows, m)
        if all_minors_nonsingular(M):
            return GenericCoefficients(M)
    cauchy = [[pow(x - y, -1, p) for y in range(n - 1, n + m - 1)] for x in range(n - 1)]
    M = Matrix(field, [[1] * m, *cauchy], m)
    if all_minors_nonsingular(M):
        return GenericCoefficients(M)
    raise ValueError(f"no verified generic matrix over F_{p} after {GENERIC_TRIES} tries")


# ---------------------------------------------------------------------------
# multiplication action and kernels
# ---------------------------------------------------------------------------


def _theta_rows(cx: SimplicialComplex, ell: int, i: int, thetas, field: FieldSpec,
                drop=None) -> list:
    """The multiplication maps by the forms with coefficient columns thetas,
    one block of sparse rows {column: entry} per form.

    Each block maps the Z-degree -(i+1) piece (columns) to the -i piece (rows):
    row r of block p is row r of the map by thetas[p], and a zero row is {}.
    The block structure is walked once for all forms: the sub-block joining
    column vector U = T + e_t to row vector T is theta[t] times the induced
    map between the corresponding relative cohomology spaces.  When T[t] > 0
    the supports agree and the block is the identity, written directly;
    every other block is read from `cohomology._induced_map`, the rows of
    the induced map as (source class, entry) pairs, memoized per pair of
    supports.  The pairs (T, U) come from the lattice table of degree i
    (`complexes.monomial_table`), built once per complex for every l, field
    and set of forms: the support of T and, flat, the position of T + e_t in
    degree i + 1 and t, for each t with T + e_t a monomial.

    Rows follow the target piece in the lex order of `degree_monomials`.
    Columns follow the source piece backwards: its last basis vector is
    column 0, and its first is the last column.  That limits fill-in, as
    `block_pivots` eliminates from the leftmost column and takes each block's
    rows in ascending lex order of T.  The leading column of a row is then
    U = T + e_s with s the first vertex that T can take.  Which rows of a
    later form raise the rank does not depend on the column order: they come
    early in their block, most of them at a T with no power of its s.  Such
    a row cancels its lead against the first form's row at T, its next
    column is no pivot, and it is stored after one or two reductions.  In
    lex order the last vertex leads instead, and the first rows of a block
    carry it to the highest powers: column after column is a pivot, each
    reduction adds a pivot row's entries, and the echelon rows fill in.

    drop, when given, holds one set of row indices per form: those rows of
    its block are neither built nor listed, and the block lists the rest
    in order (`theta_stack` leaves out the rows that cannot raise the rank).
    """
    if any(len(theta) != cx.n for theta in thetas):
        raise ValueError("coefficient column must have one entry per vertex")
    if i < 0:
        raise ValueError("target degree must be -i with i >= 0")
    src = graded_piece(cx, ell, i + 1, field)
    dst = graded_piece(cx, ell, i, field)
    blocks = [[None if r in skip else {} for r in range(dst.total_dim)]
              for skip in drop or [()] * len(thetas)]
    scales = [[(rows, theta[t]) for rows, theta in zip(blocks, thetas) if theta[t]]
              for t in range(cx.n)]
    last = src.total_dim - 1
    supports, steps = monomial_table(cx, i)
    for kt, sT in enumerate(supports):
        dim = dst.dims[kt]
        if dim == 0:
            continue
        roff = dst.offsets[kt]
        pairs = iter(steps[kt])
        for ku, t in zip(pairs, pairs):
            if src.dims[ku] == 0:
                continue
            coff = last - src.offsets[ku]
            if t + 1 in sT:
                for rows, a in scales[t]:
                    for rr in range(dim):
                        row = rows[roff + rr]
                        if row is not None:
                            row[coff - rr] = a
                continue
            for rr, entries in enumerate(_induced_map(cx, sT | {t + 1}, sT, ell - 1, field)):
                for rows, a in scales[t]:
                    row = rows[roff + rr]
                    if row is not None:
                        row.update((coff - cc, a * val) for cc, val in entries)
    return [[row for row in rows if row is not None] for rows in blocks]


@per_complex
def _stacks(cx: SimplicialComplex, ell: int, coeffs: GenericCoefficients, field: FieldSpec) -> dict:
    """i -> `theta_stack` at degree -(i+1), for the stacks eliminated so far."""
    return {}


def theta_stack(cx: SimplicialComplex, ell: int, i: int, coeffs: GenericCoefficients,
                field: FieldSpec) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """`block_pivots` of the multiplication maps by the forms of coeffs,
    stacked, at degree -(i+1): the ranks and the pivot columns after each
    block, memoized per (complex, l, coefficients, field).

    When the stack at degree -i is in the memo, the block of form k keeps
    only the rows at the columns outside that stack's pivots after its
    first k - 1 blocks (see the module docstring); otherwise, and for
    degree i = 0, every row is built.  Either way the span of the first k
    blocks is that of the first k maps, so ranks and pivots are the same.
    No lower degree is computed to serve a higher one.
    """
    stacks = _stacks(cx, ell, coeffs, field)
    if i in stacks:
        return stacks[i]
    thetas = [coeffs.matrix.column(p) for p in range(coeffs.m)]
    drop, below = None, stacks.get(i - 1)
    if below is not None:
        # the stack below numbers its columns, this stack's rows, backwards
        last = graded_piece(cx, ell, i, field).total_dim - 1
        drop = [{last - c for c in pivots} for pivots in below[1][:-1]]
    blocks = _theta_rows(cx, ell, i, thetas, field, drop)
    ranks, pivots = block_pivots(field, blocks, graded_piece(cx, ell, i + 1, field).total_dim)
    stacks[i] = stack = (tuple(ranks), tuple(map(tuple, pivots)))
    return stack


def kernel_dim_bruteforce(cx: SimplicialComplex, ell: int, m: int, i: int,
                          coeffs: GenericCoefficients, field: FieldSpec) -> int:
    """Dimension of the common kernel of the first m multiplication maps at degree -(i+1),
    by exact elimination of the stacked maps (`theta_stack`).  The rows left
    out of a stack are decided by commutation of the forms and the pivots of
    the stack one degree down, never by the closed formula, so this stays
    an independent check of `kernel_dim_formula`."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    if m < 0 or m > coeffs.m:
        raise ValueError("m out of range for the coefficient matrix")
    source_dim = graded_piece(cx, ell, i + 1, field).total_dim
    if m == 0:
        return source_dim
    return source_dim - theta_stack(cx, ell, i, coeffs, field)[0][m]


def kernel_dim_formula(cx: SimplicialComplex, ell: int, m: int, i: int, field: FieldSpec) -> int:
    """Closed form: sum over faces of C(i-m, |F|-m-1) * dim H^{ell-1}(X|F)."""
    d = cx.d
    if not 0 <= m <= d:
        raise ValueError("m out of range")
    if not 1 <= ell <= d:
        raise ValueError("cohomological degree out of range")
    if i < m:
        raise ValueError("i must be at least m")
    h = cohomology_by_size(cx, ell - 1, field)
    return sum(binom0(i - m, s - m - 1) * h_s for s, h_s in enumerate(h))


def restricted_theta_rank(cx: SimplicialComplex, ell: int, m: int, i: int,
                          coeffs: GenericCoefficients, field: FieldSpec) -> int:
    """Rank of the (m+1)-st multiplication map restricted to the m-fold kernel.

    For i >= m+1 this equals the kernel dimension one degree lower, i.e. the
    map between consecutive kernel pieces is onto.  By rank-nullity it is the
    rank of the first m+1 maps stacked minus the rank of the first m.
    """
    if coeffs.m < m + 1:
        raise ValueError("coefficient matrix needs at least m+1 columns")
    ranks = theta_stack(cx, ell, i, coeffs, field)[0]
    return ranks[m + 1] - ranks[m]
