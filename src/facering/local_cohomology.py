"""Finely graded local cohomology of a face ring, realized combinatorially.

The degree -r piece of the cohomological-degree-l local cohomology module
splits into blocks indexed by the exponent vectors U >= 0 with |U| = r whose
support is a face; the block at U is the relative cohomology space
H^{l-1}(X | support(U)).  Multiplication by a linear form maps the -(r+1)
piece to the -r piece blockwise through the contravariant restriction maps
(identity blocks when the support does not change, scaled by the form's
coefficients).

On top of that structure this module provides:
  * per-degree dimensions by a closed count over the faces;
  * the Z-graded Hilbert series as a rational function in one variable with
    denominator a power of (1 - t), with exact pole-order queries;
  * certified-generic coefficient matrices (positive Vandermonde over Q,
    sampled and minor-verified over prime fields);
  * the dimension of the common kernel of several multiplication maps,
    computed both by brute force, from the ranks of the stacked maps
    eliminated block by block (`linalg.block_pivots`, as in the Artinian
    reduction), and by a closed binomial formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .cohomology import induced_map, relative_cohomology_dim
from .complexes import SimplicialComplex, degree_monomials, per_complex
from .linalg import QQ, FieldSpec, Matrix, block_pivots

GENERIC_TRIES = 64  # draws of a whole matrix before make_generic gives up


def support(U) -> frozenset:
    """Positions (1-based) of the nonzero entries of an exponent vector."""
    return frozenset(t + 1 for t, u in enumerate(U) if u)


def binom0(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 whenever b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


# ---------------------------------------------------------------------------
# graded pieces
# ---------------------------------------------------------------------------


class GradedPiece:
    """The degree -r piece in cohomological degree l, as an ordered block sum."""

    __slots__ = ("vectors", "dims", "offsets", "total_dim", "_index")

    def __init__(self, cx, ell, r, field):
        self.vectors = tuple(degree_monomials(cx, r))
        self.dims = tuple(
            relative_cohomology_dim(cx, support(U), ell - 1, field) for U in self.vectors
        )
        offsets = []
        total = 0
        for dim in self.dims:
            offsets.append(total)
            total += dim
        self.offsets = tuple(offsets)
        self.total_dim = total
        self._index = {U: k for k, U in enumerate(self.vectors)}

    def block_index(self, U) -> int | None:
        return self._index.get(tuple(U))


@per_complex
def graded_piece(cx: SimplicialComplex, ell: int, r: int, field: FieldSpec) -> GradedPiece:
    return GradedPiece(cx, ell, r, field)


def lc_coarse_dim(cx: SimplicialComplex, ell: int, j: int, field: FieldSpec) -> int:
    """Dimension of the Z-degree j piece (j <= 0) by the closed blockwise count."""
    if j > 0:
        raise ValueError("local cohomology of a face ring vanishes in positive Z-degrees")
    if j == 0:
        return relative_cohomology_dim(cx, frozenset(), ell - 1, field)
    i = -j - 1
    total = 0
    for F in cx.faces():
        c = binom0(i, len(F) - 1)
        if c:
            total += c * relative_cohomology_dim(cx, F, ell - 1, field)
    return total


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------


def _strip(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


@dataclass(frozen=True)
class HilbertSeries:
    """numerator(t) / (1 - t)^denom_power with integer numerator coefficients."""

    numerator: tuple[int, ...]
    denom_power: int

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
    size s, the numerator is num_k = sum_{s<=k} h_s (-1)^(k-s) C(e-s, k-s).
    """
    if i > cx.d:
        raise ValueError("cohomological degree above the Krull dimension")
    dims: dict[int, int] = {}
    for F in cx.faces():
        h = relative_cohomology_dim(cx, F, i - 1, field)
        if h:
            dims[len(F)] = dims.get(len(F), 0) + h
    if not dims:
        return HilbertSeries((), 0)
    e = max(dims)
    num = [sum(h * (-1) ** (k - s) * comb(e - s, k - s) for s, h in dims.items() if s <= k)
           for k in range(e + 1)]
    return HilbertSeries(_strip(num), e).reduce()


# ---------------------------------------------------------------------------
# generic coefficient matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenericCoefficients:
    """n x m coefficient matrix of linear forms, certified generic.

    Every square submatrix is nonsingular: analytic for the positive
    Vandermonde over Q, checked minor by minor over prime fields.
    """

    matrix: Matrix

    @property
    def m(self) -> int:
        return self.matrix.ncols

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


def make_generic(n: int, m: int, field: FieldSpec, seed: int | None = None) -> GenericCoefficients:
    """A verified-generic n x m coefficient matrix.

    Over Q this is the Vandermonde on nodes 1..n (no randomness, certificate
    analytic).  Over F_p entries are sampled uniformly from the nonzero
    residues (a zero draw is drawn again) and all square submatrices are
    checked; sampling stops after GENERIC_TRIES draws of the whole matrix.
    With m >= 2 no such matrix exists when n > p - 1: every entry must be
    nonzero and no two rows proportional on a pair of columns, which leaves
    at most p - 1 rows.
    """
    if field.is_rational:
        return vandermonde_coefficients(range(1, n + 1), m)
    p = field.p
    if m >= 2 and n > p - 1:
        raise ValueError(
            f"no {n} x {m} matrix over F_{p} has all minors nonzero: with two or more "
            f"columns it can have at most p - 1 = {p - 1} rows"
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
    raise ValueError(f"no verified generic matrix over F_{p} after {GENERIC_TRIES} tries")


# ---------------------------------------------------------------------------
# multiplication action and kernels
# ---------------------------------------------------------------------------


def _theta_rows(cx: SimplicialComplex, ell: int, i: int, thetas, field: FieldSpec) -> list:
    """The multiplication maps by the forms with coefficient columns thetas,
    one block of sparse rows {column: entry} per form.

    Each block maps the Z-degree -(i+1) piece (columns) to the -i piece (rows):
    row r of block p is row r of the map by thetas[p], and a zero row is {}.
    The block structure is walked once for all forms: the sub-block joining
    column vector U = T + e_t to row vector T is theta[t] times the induced
    map between the corresponding relative cohomology spaces (the identity
    when the supports agree), fetched once.

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
    reduction adds a pivot row's entries, and the echelon rows fill in.  On
    the 2,964 x 1,168 stack of `rp2_6` suspended (l = 4, i = 6, F_32003), a
    row of the second form that raises the rank meets about 2 pivot rows in
    this order and about 60 in lex order, the echelon rows hold 6,579
    entries against 29,406, and `block_pivots` takes 0.06 s against 0.42 s.
    Largest exponent first, which does not follow the row order, takes 0.10 s.
    """
    if any(len(theta) != cx.n for theta in thetas):
        raise ValueError("coefficient column must have one entry per vertex")
    if i < 0:
        raise ValueError("target degree must be -i with i >= 0")
    src = graded_piece(cx, ell, i + 1, field)
    dst = graded_piece(cx, ell, i, field)
    blocks = [[{} for _ in range(dst.total_dim)] for _ in thetas]
    last = src.total_dim - 1
    for kt, T in enumerate(dst.vectors):
        if dst.dims[kt] == 0:
            continue
        sT = support(T)
        roff = dst.offsets[kt]
        for t in range(cx.n):
            scales = [(rows, theta[t]) for rows, theta in zip(blocks, thetas) if theta[t]]
            U = T[:t] + (T[t] + 1,) + T[t + 1:]
            ku = src.block_index(U)
            if ku is None or src.dims[ku] == 0:
                continue
            coff = src.offsets[ku]
            block = induced_map(cx, support(U), sT, ell - 1, field)
            for rr, block_row in enumerate(block.tolist()):
                entries = [(last - coff - cc, val) for cc, val in enumerate(block_row) if val]
                for rows, a in scales:
                    rows[roff + rr].update((c, a * val) for c, val in entries)
    return blocks


@per_complex
def theta_ranks(cx: SimplicialComplex, ell: int, i: int,
                coeffs: GenericCoefficients, field: FieldSpec) -> tuple[int, ...]:
    """Ranks of the first 0, 1, ..., coeffs.m multiplication maps, stacked, at degree -(i+1).

    The kernel of a stack is the common kernel of its maps, so kernel
    dimensions and restricted ranks follow from these ranks by rank-nullity.
    One elimination, block by block, gives all of them.
    """
    blocks = _theta_rows(cx, ell, i, [coeffs.matrix.column(p) for p in range(coeffs.m)], field)
    return tuple(block_pivots(field, blocks, graded_piece(cx, ell, i + 1, field).total_dim)[0])


def kernel_dim_bruteforce(cx: SimplicialComplex, ell: int, m: int, i: int,
                          coeffs: GenericCoefficients, field: FieldSpec) -> int:
    """Dimension of the common kernel of the first m multiplication maps at degree -(i+1),
    by exact elimination of the stacked maps."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    if m < 0 or m > coeffs.m:
        raise ValueError("m out of range for the coefficient matrix")
    source_dim = graded_piece(cx, ell, i + 1, field).total_dim
    if m == 0:
        return source_dim
    return source_dim - theta_ranks(cx, ell, i, coeffs, field)[m]


def kernel_dim_formula(cx: SimplicialComplex, ell: int, m: int, i: int, field: FieldSpec) -> int:
    """Closed form: sum over faces of C(i-m, |F|-m-1) * dim H^{ell-1}(X|F)."""
    d = cx.d
    if not 0 <= m <= d:
        raise ValueError("m out of range")
    if not 1 <= ell <= d:
        raise ValueError("cohomological degree out of range")
    if i < m:
        raise ValueError("i must be at least m")
    total = 0
    for F in cx.faces():
        c = binom0(i - m, len(F) - m - 1)
        if c:
            total += c * relative_cohomology_dim(cx, F, ell - 1, field)
    return total


def restricted_theta_rank(cx: SimplicialComplex, ell: int, m: int, i: int,
                          coeffs: GenericCoefficients, field: FieldSpec) -> int:
    """Rank of the (m+1)-st multiplication map restricted to the m-fold kernel.

    For i >= m+1 this equals the kernel dimension one degree lower, i.e. the
    map between consecutive kernel pieces is onto.  By rank-nullity it is the
    rank of the first m+1 maps stacked minus the rank of the first m.
    """
    if coeffs.m < m + 1:
        raise ValueError("coefficient matrix needs at least m+1 columns")
    ranks = theta_ranks(cx, ell, i, coeffs, field)
    return ranks[m + 1] - ranks[m]
