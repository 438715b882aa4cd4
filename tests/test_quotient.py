"""Quotient local cohomology predictions and the isolated-singularity maps."""

import pytest

from facering.complexes import SimplicialComplex
from facering.linalg import GF, QQ
from facering.local_cohomology import kernel_dim_formula
from facering.quotient import (
    is_homologically_isolated,
    isolated_quotient_dims,
    predicts_finite_lc,
    quotient_lc_dim,
    vertex_cohomology_map,
)

from matrices import rank

FIELDS = [QQ, GF(2), GF(3)]


# ---------------------------------------------------------------------------
# the prediction formula
# ---------------------------------------------------------------------------

def test_quotient_lc_dim_examples(bowtie, cycle3):
    assert [quotient_lc_dim(bowtie, 1, 1, i, QQ) for i in range(1, 5)] == [0, 0, 0, 0]
    assert [quotient_lc_dim(bowtie, 1, 2, i, QQ) for i in range(1, 5)] == [0, 2, 4, 6]
    assert [quotient_lc_dim(cycle3, 0, 2, i, QQ) for i in range(1, 4)] == [3, 6, 9]


def test_quotient_lc_dim_validation(bowtie):
    with pytest.raises(ValueError):
        quotient_lc_dim(bowtie, 4, 1, 1, QQ)
    with pytest.raises(ValueError):
        quotient_lc_dim(bowtie, 1, 3, 1, QQ)  # ell above d - m
    with pytest.raises(ValueError):
        quotient_lc_dim(bowtie, 1, 1, 0, QQ)


def test_predicts_finite_lc_examples(bowtie, octahedron):
    assert predicts_finite_lc(bowtie, 1, QQ)
    assert not predicts_finite_lc(bowtie, 0, QQ)
    assert predicts_finite_lc(octahedron, 0, QQ)


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_identification_identity(complexes, field):
    # the quotient formula is the kernel formula reindexed
    for cx in complexes.values():
        d = cx.d
        for m in range(0, d + 1):
            for ell in range(1, d - m + 1):
                for i in range(1, 6):
                    assert quotient_lc_dim(cx, m, ell, i, field) == kernel_dim_formula(
                        cx, ell + m, m, i + m - 1, field
                    )


@pytest.mark.parametrize("field", FIELDS)
def test_theorem_main_equivalence(complexes, field):
    from facering.singularity import singularity_dimension

    for cx in complexes.values():
        sd = singularity_dimension(cx, field)
        for m in range(0, cx.d + 1):
            assert predicts_finite_lc(cx, m, field) == (sd < m)


def test_one_form_quotient_of_isolated_complex_is_finite(bowtie, pair_edges):
    for cx in (bowtie, pair_edges):
        for ell in range(1, cx.d - 1):
            for i in range(1, 6):
                assert quotient_lc_dim(cx, 1, ell, i, QQ) == 0


def test_table_entry(bowtie):
    assert quotient_lc_dim(bowtie, 1, 2, 3, QQ) == 4


# ---------------------------------------------------------------------------
# vertex maps, isolated quotients, homological isolation
# ---------------------------------------------------------------------------

def test_vertex_map_shapes_bowtie(bowtie):
    f1 = vertex_cohomology_map(bowtie, 1, [1] * 5, QQ)
    assert (f1.nrows, f1.ncols) == (0, 1)
    f0 = vertex_cohomology_map(bowtie, 0, [1] * 5, QQ)
    assert (f0.nrows, f0.ncols) == (0, 0)


def test_vertex_map_rejects_zero_coefficients(bowtie):
    with pytest.raises(ValueError):
        vertex_cohomology_map(bowtie, 1, [1, 1, 0, 1, 1], QQ)


def test_vertex_map_rejects_higher_singularities():
    # two solid tetrahedra glued along an edge: the edge's link is a pair of
    # disjoint edges, one dimension short of the expected sphere
    glued = SimplicialComplex(6, [{1, 2, 3, 4}, {1, 2, 5, 6}])
    from facering.singularity import singularity_dimension

    assert singularity_dimension(glued, QQ) == 1
    with pytest.raises(ValueError):
        vertex_cohomology_map(glued, 1, [1] * 6, QQ)


def test_isolated_quotient_dims_bowtie(bowtie):
    assert isolated_quotient_dims(bowtie, [1] * 5, 1, QQ) == (0, 1, 0)
    assert isolated_quotient_dims(bowtie, [1] * 5, 0, QQ) == (0, 0, 0)
    with pytest.raises(ValueError):
        isolated_quotient_dims(bowtie, [1] * 5, 2, QQ)


def test_isolated_quotient_dims_pair_edges(pair_edges):
    # vertex-level spaces vanish (links are points), so degree zero is empty
    # and degree one carries the reduced cohomology of the complex
    assert isolated_quotient_dims(pair_edges, [1] * 4, 0, QQ) == (0, 0, 1)


def test_homologically_isolated_examples(bowtie, octahedron, pair_edges):
    assert is_homologically_isolated(bowtie, QQ)
    assert is_homologically_isolated(octahedron, QQ)
    assert is_homologically_isolated(pair_edges, QQ)


def test_homologically_isolated_fails_on_shared_pinch_points():
    # two strips glued at two pinch vertices: both vertex classes hit the
    # same one-dimensional global cohomology, so the images overlap
    pinched = SimplicialComplex(6, [{1, 3, 4}, {2, 3, 4}, {1, 5, 6}, {2, 5, 6}])
    from facering.singularity import singular_faces

    assert [sorted(F) for F in singular_faces(pinched, QQ)] == [[], [1], [2]]
    assert not is_homologically_isolated(pinched, QQ)


def test_vertex_map_rank_on_pinched_strips():
    pinched = SimplicialComplex(6, [{1, 3, 4}, {2, 3, 4}, {1, 5, 6}, {2, 5, 6}])
    f1 = vertex_cohomology_map(pinched, 1, [1] * 6, QQ)
    assert (f1.nrows, f1.ncols) == (1, 2)
    assert rank(f1) == 1
