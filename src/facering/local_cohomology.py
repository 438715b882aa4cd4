"""Finely graded local cohomology of a face ring, realized combinatorially.

The degree -r piece of the cohomological-degree-l local cohomology module
splits into blocks indexed by the exponent vectors U >= 0 with |U| = r whose
support is a face; the block at U is the relative cohomology space
H^{l-1}(X | support(U)).  Multiplication by a linear form maps the -(r+1)
piece to the -r piece blockwise through the contravariant restriction maps
(identity blocks when the support does not change, scaled by the form's
coefficients).

On top of that structure this module provides:
  * per-degree dimensions, both finely and coarsely graded;
  * the Z-graded Hilbert series as a rational function in one variable with
    denominator a power of (1 - t), with exact pole-order queries;
  * certified-generic coefficient matrices (positive Vandermonde over Q,
    sampled and minor-verified over prime fields);
  * the dimension of the common kernel of several multiplication maps,
    computed both by brute force, as the rank of the stacked maps, and by a
    closed binomial formula; the stack is written as one matrix, by rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .cohomology import induced_map, relative_cohomology_dim
from .complexes import SimplicialComplex, degree_monomials, per_complex
from .linalg import QQ, FieldSpec, Matrix, _residue, rank

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

    __slots__ = ("ell", "r", "field", "vectors", "dims", "offsets", "total_dim", "_index")

    def __init__(self, cx, ell, r, field):
        self.ell = ell
        self.r = r
        self.field = field
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


def lc_fine_dim(cx: SimplicialComplex, ell: int, U, field: FieldSpec) -> int:
    """Dimension of the piece in multidegree U (U nonpositive); zero off-support."""
    U = tuple(U)
    if any(u > 0 for u in U):
        raise ValueError("local cohomology of a face ring vanishes in positive multidegrees")
    s = support(U)
    if s not in cx.faces():
        return 0
    return relative_cohomology_dim(cx, s, ell - 1, field)


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


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _one_minus_t_power(e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _poly_mul(out, [1, -1])
    return out


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
    nonvanishing block contributes dim * t^|F| / (1-t)^|F|.
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
    num = [0] * (e + 1)
    for size, total in dims.items():
        term = _poly_mul([0] * size + [total], _one_minus_t_power(e - size))
        for k, c in enumerate(term):
            num[k] += c
    return HilbertSeries(_strip(num), e).reduce()


# ---------------------------------------------------------------------------
# generic coefficient matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenericCoefficients:
    """n x m coefficient matrix of linear forms, with a genericity certificate.

    verified means every square submatrix is nonsingular: analytic for the
    positive Vandermonde over Q, checked minor by minor over prime fields.
    """

    matrix: Matrix
    verified: bool

    @property
    def n(self) -> int:
        return self.matrix.nrows

    @property
    def m(self) -> int:
        return self.matrix.ncols

    def column_in(self, p: int, field: FieldSpec) -> list:
        """Coefficients of the (p+1)-st form in `field`: rationals reduce mod p."""
        col = self.matrix.column(p)
        if field.p is not None and self.matrix.field.is_rational:
            return [_residue(x, field.p) for x in col]
        return col

    def to_json(self) -> dict:
        entries = [
            [x if isinstance(x, int) else str(x) for x in row]
            for row in self.matrix.tolist()
        ]
        return {"field": str(self.matrix.field), "entries": entries, "verified": self.verified}


def vandermonde_coefficients(nodes, m: int) -> GenericCoefficients:
    """Columns node^0, node^1, ... on strictly increasing positive integer nodes.

    Every square submatrix is a generalized Vandermonde with positive
    increasing nodes, hence has positive determinant.
    """
    nodes = list(nodes)
    if any(t <= 0 for t in nodes) or sorted(set(nodes)) != nodes:
        raise ValueError("nodes must be strictly increasing positive integers")
    rows = [[t ** p for p in range(m)] for t in nodes]
    return GenericCoefficients(Matrix(QQ, rows, m), True)


def all_minors_nonsingular(M: Matrix) -> bool:
    k_max = min(M.nrows, M.ncols)
    for k in range(1, k_max + 1):
        for rows in combinations(range(M.nrows), k):
            for cols in combinations(range(M.ncols), k):
                if rank(M.submatrix(rows, cols)) < k:
                    return False
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
            return GenericCoefficients(M, True)
    raise ValueError(f"no verified generic matrix over F_{p} after {GENERIC_TRIES} tries")


# ---------------------------------------------------------------------------
# multiplication action and kernels
# ---------------------------------------------------------------------------


def _theta_rows(cx: SimplicialComplex, ell: int, i: int, thetas, field: FieldSpec) -> Matrix:
    """The multiplication maps by the forms with coefficient columns thetas,
    one row block per form, stacked in order into one matrix.

    Each block maps the Z-degree -(i+1) piece (columns) to the -i piece (rows).
    The block structure is walked once for all forms: the sub-block joining
    column vector U = T + e_t to row vector T is theta[t] times the induced
    map between the corresponding relative cohomology spaces (the identity
    when the supports agree), fetched once.
    """
    if any(len(theta) != cx.n for theta in thetas):
        raise ValueError("coefficient column must have one entry per vertex")
    if i < 0:
        raise ValueError("target degree must be -i with i >= 0")
    src = graded_piece(cx, ell, i + 1, field)
    dst = graded_piece(cx, ell, i, field)
    rows = [[0] * src.total_dim for _ in range(len(thetas) * dst.total_dim)]
    for kt, T in enumerate(dst.vectors):
        if dst.dims[kt] == 0:
            continue
        sT = support(T)
        roffs = [p * dst.total_dim + dst.offsets[kt] for p in range(len(thetas))]
        for t in range(cx.n):
            scales = [(roff, theta[t]) for roff, theta in zip(roffs, thetas) if theta[t]]
            if not scales:
                continue
            U = T[:t] + (T[t] + 1,) + T[t + 1:]
            ku = src.block_index(U)
            if ku is None or src.dims[ku] == 0:
                continue
            coff = src.offsets[ku]
            block = induced_map(cx, support(U), sT, ell - 1, field)
            for rr, block_row in enumerate(block.tolist()):
                entries = [(coff + cc, val) for cc, val in enumerate(block_row) if val]
                for roff, a in scales:
                    target = rows[roff + rr]
                    for c, val in entries:
                        target[c] = a * val
    return Matrix(field, rows, src.total_dim)


def theta_action_matrix(cx: SimplicialComplex, ell: int, i: int, theta, field: FieldSpec) -> Matrix:
    """Matrix of multiplication by the linear form with coefficients theta,
    from the Z-degree -(i+1) piece (columns) to the -i piece (rows)."""
    return _theta_rows(cx, ell, i, [list(theta)], field)


@per_complex
def stacked_theta_rank(cx: SimplicialComplex, ell: int, m: int, i: int,
                       coeffs: GenericCoefficients, field: FieldSpec) -> int:
    """Rank of the first m multiplication maps, stacked, at degree -(i+1).

    The kernel of the stack is the common kernel of the m maps, so kernel
    dimensions and restricted ranks follow from these ranks by rank-nullity.
    """
    if m == 0:
        return 0
    return rank(_theta_rows(cx, ell, i, [coeffs.column_in(p, field) for p in range(m)], field))


def kernel_dim_bruteforce(cx: SimplicialComplex, ell: int, m: int, i: int,
                          coeffs: GenericCoefficients | None, field: FieldSpec) -> int:
    """Dimension of the common kernel of the first m multiplication maps at degree -(i+1).

    Computed by exact elimination of the stacked maps.  When no coefficients
    are supplied the rational default is the Vandermonde; prime fields need an
    explicit (seeded) matrix to stay reproducible.
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    if m < 0 or (coeffs is not None and m > coeffs.m):
        raise ValueError("m out of range for the coefficient matrix")
    if coeffs is None:
        if not field.is_rational:
            raise ValueError("explicit generic coefficients are required over a prime field")
        coeffs = make_generic(cx.n, m, field)
    source_dim = graded_piece(cx, ell, i + 1, field).total_dim
    return source_dim - stacked_theta_rank(cx, ell, m, i, coeffs, field)


def kernel_dim_formula(cx: SimplicialComplex, ell: int, m: int, i: int, field: FieldSpec) -> int:
    """Closed form: sum over faces of C(i-m, |F|-m-1) * dim H^{ell-1}(X|F)."""
    d = cx.d
    if not 0 <= m <= d:
        raise ValueError("m out of range")
    if ell > d:
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
    return (stacked_theta_rank(cx, ell, m + 1, i, coeffs, field)
            - stacked_theta_rank(cx, ell, m, i, coeffs, field))
