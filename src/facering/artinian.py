"""Brute-force Hilbert functions of a face ring modulo generic linear forms.

No Groebner bases.  Write R for the face ring, I_k for the ideal of the
first k forms theta_1..theta_k, and S^k_j for a set of degree-j monomials that
spans R_j modulo I_k, with S^0_j the whole monomial basis of R_j.  Since
theta_k (I_{k-1})_{j-1} lies in (I_{k-1})_j,

    (I_k)_j = (I_{k-1})_j + theta_k S^{k-1}_{j-1},

so (I_m)_j is spanned by the blocks of rows theta_1 S^0_{j-1}, theta_2
S^1_{j-1}, ..., theta_m S^{m-1}_{j-1}: each row a form times a monomial,
reduced modulo the nonface monomials and written in the degree-j monomial
basis.  One elimination per degree, block by block (`linalg.block_pivots`,
as for the multiplication maps of `local_cohomology`), gives the rank of the
whole stack, hence the quotient dimension, and S^k_j as the monomials outside
the pivots of the first k blocks, for the next degree.  On a Cohen-Macaulay
complex the forms are a regular sequence, so when each S^k is a basis every
stack has full row rank.  The matrices of all degrees are sized, together,
before the first one is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import SimplicialComplex, SizeLimitError, count_degree_monomials, degree_monomials
from .linalg import FieldSpec, block_pivots
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
    # charged as if the degree-j matrix were m |R_{j-1}| x |R_j|, an upper bound
    # since every S^k_{j-1} is part of R_{j-1}; each degree-j monomial costs at
    # least one cell, so m = 0 runs are bounded too
    cells, width = 0, 1
    for j in range(1, cutoff + 1):
        rows = count_degree_monomials(cx, j)
        cells += DEGREE_CELLS + rows * (1 + m * width)
        if cells > REDUCTION_CELL_LIMIT:
            raise SizeLimitError(f"the reduction of degrees 1..{j} costs {cells} cells "
                                 f"({DEGREE_CELLS} per degree plus one per entry and row), "
                                 f"above the guard of {REDUCTION_CELL_LIMIT}")
        width = rows
    forms = [coeffs.matrix.column(k) for k in range(m)]
    dims = [1]
    prev_basis = degree_monomials(cx, 0)
    spans = [range(1)] * m  # spans[k]: S^k_{j-1} as indices into prev_basis
    for j in range(1, cutoff + 1):
        basis = degree_monomials(cx, j)
        # up[i]: the pairs (t, c) with basis[c] = prev_basis[i] + e_t, read off
        # each nu = basis[c]: nu - e_t has a face as support, so it is in prev_basis
        prev_index = {mu: i for i, mu in enumerate(prev_basis)}
        up = [[] for _ in prev_basis]
        for c, nu in enumerate(basis):
            for t, u in enumerate(nu):
                if u:
                    up[prev_index[nu[:t] + (u - 1,) + nu[t + 1:]]].append((t, c))
        blocks = [[{c: theta[t] for t, c in up[i]} for i in span]
                  for theta, span in zip(forms, spans)]
        ranks, pivots = block_pivots(field, blocks, len(basis))
        dims.append(len(basis) - ranks[-1])
        spans = [range(len(basis))]
        for piv in map(set, pivots[1:m]):
            spans.append([c for c in range(len(basis)) if c not in piv])
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

