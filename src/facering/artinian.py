"""Brute-force Hilbert functions of a face ring modulo generic linear forms.

No Groebner bases.  Write R for the face ring, I_k for the ideal of the
first k forms theta_1..theta_k, and S^k_j for a set of degree-j monomials that
spans R_j modulo I_k, with S^0_j the whole monomial basis of R_j.  Since
theta_k (I_{k-1})_{j-1} lies in (I_{k-1})_j,

    (I_k)_j = (I_{k-1})_j + theta_k S^{k-1}_{j-1},

so (I_m)_j is spanned by the blocks of rows theta_1 S^0_{j-1}, theta_2
S^1_{j-1}, ..., theta_m S^{m-1}_{j-1}: each row a form times a monomial,
reduced modulo the nonface monomials and written in the degree-j monomial
basis.  One elimination per degree, block by block (as `linalg.block_pivots`
does for the multiplication maps of `local_cohomology`), gives the rank of the
whole stack, hence the quotient dimension, and S^k_j as the monomials outside
the pivots of the first k blocks, for the next degree.  The first k blocks
are the whole stack of the first k forms, so the rank after them gives the
quotient by those k: one elimination per degree gives every prefix m =
0..coeffs.m at once (`reduction_dims`), memoized per (complex, coefficients,
field), and a run serves every lower cutoff.  The rows come from the lattice
table of each degree (`complexes.monomial_table`), built once per complex
for every run.  Each form enters the field once, as one sparse row over
the vertices (`linalg._field_rows`): over F_p its residues, over Q the form
scaled to a primitive integer column.  A form times a nonzero constant
spans the same rows, so ranks and pivots do not change, and the rows built
from the forms are already in the field: they go straight to the
elimination (`linalg._block_pivots`).  On a Cohen-Macaulay complex the
forms are a regular sequence, so when each S^k is a basis every stack has
full row rank.  The matrices of all degrees are sized, together, before
the first one is built.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .complexes import (SimplicialComplex, SizeLimitError, count_degree_monomials, monomial_table,
                        per_complex)
from .linalg import FieldSpec, _block_pivots, _field_rows
from .local_cohomology import GenericCoefficients, make_generic, vandermonde_coefficients

# The guard on one reduction: cells summed over all degrees, where each degree
# is also charged DEGREE_CELLS for its fixed Python cost, so no run passes
# 5,000 degrees.
REDUCTION_CELL_LIMIT = 5_000_000
DEGREE_CELLS = 1_000


class ReductionHilbert(namedtuple("ReductionHilbert", "m dims coefficients")):
    """Hilbert function of the quotient by the first m forms, degrees 0..cutoff:
    dims is a tuple of ints, coefficients the GenericCoefficients."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "dims": list(self.dims),
            "coefficients": self.coefficients.to_json(),
        }


def reduction_hilbert(cx: SimplicialComplex, coeffs: GenericCoefficients, m: int,
                      cutoff: int, field: FieldSpec) -> ReductionHilbert:
    """Degreewise dimensions of (face ring)/(first m forms), exactly: the
    prefix m of `reduction_dims`."""
    if cx.is_void:
        raise ValueError("void complex")
    if m < 0 or m > coeffs.m:
        raise ValueError("m out of range for the coefficient matrix")
    return ReductionHilbert(m, reduction_dims(cx, coeffs, cutoff, field)[m], coeffs)


def reduction_dims(cx: SimplicialComplex, coeffs: GenericCoefficients, cutoff: int,
                   field: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """The Hilbert functions, degrees 0..cutoff, of the quotients by the
    first k forms of coeffs, for k = 0..coeffs.m, from one elimination.

    Memoized per (complex, coefficients, field): degree j reads only the
    degrees below it, so one run serves every cutoff up to its own.  The
    cell guard is charged on every call, for all coeffs.m forms.  A run maps
    the coefficients into the field first: a float raises TypeError, and
    over F_p a Fraction whose denominator p divides raises ValueError.
    """
    if cx.is_void:
        raise ValueError("void complex")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    # charged as if the degree-j matrix were m |R_{j-1}| x |R_j|, an upper bound
    # since every S^k_{j-1} is part of R_{j-1}; each degree-j monomial costs at
    # least one cell, so m = 0 runs are bounded too
    m, sizes, cells = coeffs.m, [1], 0
    for j in range(1, cutoff + 1):
        sizes.append(count_degree_monomials(cx, j))
        cells += DEGREE_CELLS + sizes[j] * (1 + m * sizes[j - 1])
        if cells > REDUCTION_CELL_LIMIT:
            raise SizeLimitError(f"the reduction of degrees 1..{j} costs {cells} cells "
                                 f"({DEGREE_CELLS} per degree plus one per entry and row), "
                                 f"above the guard of {REDUCTION_CELL_LIMIT}")
    runs = _runs(cx, coeffs, field)
    for done, dims in runs.items():
        if done >= cutoff:
            return tuple(d[:cutoff + 1] for d in dims)
    # each form enters the field once, as a sparse row {vertex index: entry}
    p, columns = field.p, (dict(enumerate(coeffs.matrix.column(k))) for k in range(m))
    forms = list(_field_rows(columns, p))
    dims = [[1] for _ in range(m + 1)]
    spans = [range(1)] * m  # spans[k]: S^k_{j-1} as indices into degree j - 1
    for j, size in enumerate(sizes[1:], 1):
        blocks = []
        for theta, span in zip(forms, spans):
            steps = monomial_table(cx, j - 1)[1]
            # the row of T is {c: theta[t]} over its flat c, t, ...: zip takes
            # each c from the iterator and map the t after it
            value, flats = theta.__getitem__, map(iter, (steps[i] for i in span))
            blocks.append([dict(zip(it, map(value, it))) for it in flats])
        ranks, pivots = _block_pivots(blocks, size, p)
        for k in range(m + 1):
            dims[k].append(size - ranks[k])
        spans = [range(size)]
        for piv in map(set, pivots[1:m]):
            spans.append([c for c in range(size) if c not in piv])
    runs[cutoff] = dims = tuple(map(tuple, dims))
    return dims


@per_complex
def _runs(cx: SimplicialComplex, coeffs: GenericCoefficients, field: FieldSpec) -> dict:
    """cutoff -> reduction_dims, for the runs made so far on coeffs."""
    return {}


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

