"""Predicted local cohomology of a face ring modulo generic linear forms.

The Z-degree -i piece of the l-th local cohomology of the quotient by m
generic forms has dimension  sum_F C(i-1, |F|-m-1) * dim H^{l+m-1}(X|F),
which identifies it with the m-fold multiplication kernel one cohomological
degree up.  The quotient has finite local cohomology below its Krull
dimension exactly when every coefficient with |F| > m vanishes, i.e. when
no face of dimension >= m is singular.

For complexes whose singular set is at most zero-dimensional the first
quotient is described fully by the weighted restriction maps from the
vertex-level cohomology spaces into the global one: degree 0 carries the
kernel and cokernel of consecutive such maps, degree 1 the global space,
and everything else vanishes.
"""

from __future__ import annotations

from .cohomology import _induced_map, cohomology_by_size, relative_cohomology_dim
from .complexes import SimplicialComplex
from .linalg import FieldSpec, Matrix, block_pivots
from .local_cohomology import binom0
from .singularity import singularity_dimension


def quotient_lc_dim(cx: SimplicialComplex, m: int, ell: int, i: int, field: FieldSpec) -> int:
    """Predicted dim of the Z-degree -i piece of H^ell of the m-form quotient."""
    d = cx.d
    if not 0 <= m <= d:
        raise ValueError("m out of range")
    if not 1 <= ell <= d - m:
        raise ValueError("cohomological degree out of range for the quotient")
    if i < 1:
        raise ValueError("i must be positive")
    h = cohomology_by_size(cx, ell + m - 1, field)
    return sum(binom0(i - 1, s - m - 1) * h_s for s, h_s in enumerate(h))


def predicts_finite_lc(cx: SimplicialComplex, m: int, field: FieldSpec) -> bool:
    """Whether the m-form quotient is predicted to have finite local cohomology.

    Evaluated coefficient-wise: the prediction vanishes for every i iff each
    contributing relative-cohomology dimension with |F| > m is zero.
    """
    d = cx.d
    if not 0 <= m <= d:
        raise ValueError("m out of range")
    return not any(any(cohomology_by_size(cx, ell + m - 1, field)[m + 1:])
                   for ell in range(1, d - m))


def _vertex_rows(cx: SimplicialComplex, i: int, theta, field: FieldSpec) -> tuple[list, int]:
    """Sparse rows {column: entry} of vertex_cohomology_map and its number of columns."""
    if len(theta) != cx.n:
        raise ValueError("coefficient column must have one entry per vertex")
    if any(not a for a in theta):
        raise ValueError("all vertex coefficients must be nonzero")
    if singularity_dimension(cx, field) > 0:
        raise ValueError("complex must have a singular set of dimension at most 0")
    if not 0 <= i <= cx.dim:
        raise ValueError("degree out of range")
    rows = [{} for _ in range(relative_cohomology_dim(cx, frozenset(), i, field))]
    ncols = 0
    for t in range(1, cx.n + 1):
        if frozenset({t}) in cx:
            for row, pairs in zip(rows, _induced_map(cx, frozenset({t}), frozenset(), i, field)):
                row.update((ncols + s, theta[t - 1] * x) for s, x in pairs)
            ncols += relative_cohomology_dim(cx, frozenset({t}), i, field)
    return rows, ncols


def _rank(field: FieldSpec, rows, ncols: int) -> int:
    return block_pivots(field, [rows], ncols)[0][1]


def vertex_cohomology_map(cx: SimplicialComplex, i: int, theta, field: FieldSpec) -> Matrix:
    """Weighted sum of the restriction maps from vertex-level into global cohomology.

    Columns are blocks, one per vertex t with {t} a face, equal to theta[t]
    times the map H^i(X|{t}) -> H^i(X|empty); requires a singular set of
    dimension at most zero and nonzero weights on every vertex.
    """
    rows, ncols = _vertex_rows(cx, i, theta, field)
    return Matrix.from_entries(field, len(rows), ncols,
                               ((r, c, x) for r, row in enumerate(rows) for c, x in row.items()))


def isolated_quotient_dims(cx: SimplicialComplex, theta, i: int, field: FieldSpec):
    """Dimensions of the one-form quotient's local cohomology in degrees (<0, 0, 1).

    Valid for i < dim(cx): negative degrees vanish, degree 0 carries
    coker(vertex map at i-1) + ker(vertex map at i), degree 1 the reduced
    cohomology of the complex itself.
    """
    if singularity_dimension(cx, field) > 0:
        raise ValueError("complex must have a singular set of dimension at most 0")
    if not 0 <= i < cx.d - 1:
        raise ValueError("degree out of range (need i < dim)")
    if i - 1 >= 0:
        rows, ncols = _vertex_rows(cx, i - 1, theta, field)
        coker = len(rows) - _rank(field, rows, ncols)
    else:
        coker = 0
    rows, ncols = _vertex_rows(cx, i, theta, field)
    ker = ncols - _rank(field, rows, ncols)
    h_global = relative_cohomology_dim(cx, frozenset(), i, field)
    return (0, coker + ker, h_global)


def is_homologically_isolated(cx: SimplicialComplex, field: FieldSpec) -> bool:
    """Whether the vertex-level images inside global cohomology form a direct sum.

    Checked in every degree 0 <= i <= dim - 1: the sum of the image
    dimensions must equal the dimension of their joint span.
    """
    if singularity_dimension(cx, field) > 0:
        raise ValueError("complex must have a singular set of dimension at most 0")
    for i in range(0, cx.d - 1):
        rows, ncols = _vertex_rows(cx, i, [1] * cx.n, field)
        parts = sum(_rank(field, [dict(pairs) for pairs in
                                  _induced_map(cx, frozenset({t}), frozenset(), i, field)],
                          relative_cohomology_dim(cx, frozenset({t}), i, field))
                    for t in range(1, cx.n + 1) if frozenset({t}) in cx)
        if _rank(field, rows, ncols) != parts:
            return False
    return True
