"""Brute-force Hilbert functions of a face ring modulo generic linear forms.

No Groebner bases: since the ideal generated by the forms lives in degree 1,
its degree-j piece is spanned by (form) * (degree j-1 monomial basis of the
face ring), reduced modulo the nonface monomials.  The quotient dimension in
each degree is then a single exact rank computation in the monomial basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import DEFAULT_BASIS_LIMIT, SimplicialComplex, degree_monomials
from .linalg import FieldSpec, Matrix, rank
from .local_cohomology import GenericCoefficients, make_generic, vandermonde_coefficients


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
                      cutoff: int, field: FieldSpec,
                      basis_limit: int = DEFAULT_BASIS_LIMIT) -> ReductionHilbert:
    """Degreewise dimensions of (face ring)/(first m forms), exactly."""
    if cx.is_void:
        raise ValueError("void complex")
    if m < 0 or m > coeffs.m:
        raise ValueError("m out of range for the coefficient matrix")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    theta_cols = [coeffs.column_in(p, field) for p in range(m)]
    faces = cx.faces()
    dims = [1]
    prev_basis = degree_monomials(cx, 0, limit=basis_limit)
    for j in range(1, cutoff + 1):
        basis = degree_monomials(cx, j, limit=basis_limit)
        index = {U: r for r, U in enumerate(basis)}
        cols = []
        for theta in theta_cols:
            for mu in prev_basis:
                col = [0] * len(basis)
                for t in range(cx.n):
                    a = theta[t]
                    if not a:
                        continue
                    nu = list(mu)
                    nu[t] += 1
                    r = index.get(tuple(nu))
                    if r is not None:
                        col[r] = a
                cols.append(col)
        ideal_rank = rank(Matrix.from_columns(field, cols, len(basis))) if cols else 0
        dims.append(len(basis) - ideal_rank)
        prev_basis = basis
    return ReductionHilbert(m, tuple(dims), coeffs)


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

