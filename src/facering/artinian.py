"""Brute-force Hilbert functions of a face ring modulo generic linear forms.

No Groebner bases: since the ideal generated by the forms lives in degree 1,
its degree-j piece is spanned by (form) * (degree j-1 monomial basis of the
face ring), reduced modulo the nonface monomials.  The quotient dimension in
each degree is then a single exact rank computation in the monomial basis,
of a matrix written one row per degree-j monomial.  The matrices of all
degrees are sized, together, before the first one is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import SimplicialComplex, SizeLimitError, count_degree_monomials, degree_monomials
from .linalg import FieldSpec, Matrix, rank
from .local_cohomology import GenericCoefficients, make_generic, vandermonde_coefficients

# The guard on one reduction: cells summed over all degrees, where each degree
# is also charged DEGREE_CELLS for its fixed Python cost, so no run passes
# 5,000 degrees.  The benchmark's reductions reach 992,065 cells.
REDUCTION_CELL_LIMIT = 5_000_000
DEGREE_CELLS = 1_000


@dataclass(frozen=True)
class ReductionHilbert:
    """Hilbert function of the quotient by the first m forms, degrees 0..cutoff."""

    m: int
    dims: tuple[int, ...]
    coefficients: GenericCoefficients

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "dims": list(self.dims),
            "coefficients": self.coefficients.to_json(),
        }


def reduction_hilbert(cx: SimplicialComplex, coeffs: GenericCoefficients, m: int,
                      cutoff: int, field: FieldSpec) -> ReductionHilbert:
    """Degreewise dimensions of (face ring)/(first m forms), exactly."""
    if cx.is_void:
        raise ValueError("void complex")
    if m < 0 or m > coeffs.m:
        raise ValueError("m out of range for the coefficient matrix")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    # the degree-j matrix is |R_j| x m |R_{j-1}|; each row costs at least one
    # cell, so m = 0 runs are bounded too
    cells, width = 0, 1
    for j in range(1, cutoff + 1):
        rows = count_degree_monomials(cx, j)
        cells += DEGREE_CELLS + rows * (1 + m * width)
        if cells > REDUCTION_CELL_LIMIT:
            raise SizeLimitError(f"the reduction of degrees 1..{j} costs {cells} cells "
                                 f"({DEGREE_CELLS} per degree plus one per entry and row), "
                                 f"above the guard of {REDUCTION_CELL_LIMIT}")
        width = rows
    theta_cols = [coeffs.column_in(p, field) for p in range(m)]
    dims = [1]
    prev_basis = degree_monomials(cx, 0)
    for j in range(1, cutoff + 1):
        basis = degree_monomials(cx, j)
        ideal = Matrix(field, _ideal_rows(basis, prev_basis, theta_cols), m * len(prev_basis))
        dims.append(len(basis) - rank(ideal))
        prev_basis = basis
    return ReductionHilbert(m, tuple(dims), coeffs)


def _ideal_rows(basis, prev_basis, theta_cols):
    """The rows of the degree-j matrix, one per monomial nu of `basis`, made one
    at a time: theta_p[t] at column (p, nu - e_t) for each t in supp nu, where
    nu - e_t is in `prev_basis` because its support is a face."""
    width = len(prev_basis)
    prev_index = {mu: c for c, mu in enumerate(prev_basis)}
    for nu in basis:
        row = [0] * (len(theta_cols) * width)
        for t, u in enumerate(nu):
            if u:
                c = prev_index[nu[:t] + (u - 1,) + nu[t + 1:]]
                for p, theta in enumerate(theta_cols):
                    row[p * width + c] = theta[t]
        yield row


def _trial_coefficients(n: int, m: int, field: FieldSpec, rng: random.Random) -> GenericCoefficients:
    """A fresh verified-generic matrix per trial.

    Over Q: a Vandermonde on randomly drawn distinct positive nodes (still
    certified by total positivity); over F_p: uniform sampling with the full
    minor check.
    """
    if field.is_rational:
        nodes = sorted(rng.sample(range(1, 50 * n), n))
        return vandermonde_coefficients(nodes, m)
    return make_generic(n, m, field, seed=rng.randrange(2**32))


def determinacy_probe(cx: SimplicialComplex, m: int, trials: int, cutoff: int,
                      field: FieldSpec, seed: int | None = None):
    """Run the reduction on several independent generic systems and compare.

    Returns (constant, runs): whether all Hilbert functions coincide, plus
    the per-trial data.  The probe records; it does not assert an answer.
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    rng = random.Random(seed)
    runs = []
    for _ in range(trials):
        coeffs = _trial_coefficients(cx.n, m, field, rng)
        runs.append(reduction_hilbert(cx, coeffs, m, cutoff, field))
    constant = all(run.dims == runs[0].dims for run in runs[1:])
    return constant, runs

