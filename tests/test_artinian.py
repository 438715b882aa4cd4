"""Brute-force Artinian reductions against closed-form and h-vector anchors."""

import random
from fractions import Fraction

import pytest

from facering.artinian import determinacy_probe, reduction_hilbert
from facering.complexes import (
    SimplicialComplex,
    SizeLimitError,
    count_degree_monomials,
    degree_monomials,
)
from facering.linalg import GF, QQ, Matrix
from facering.local_cohomology import GenericCoefficients, make_generic
from facering.squarefree import sqfree_data_of_face_ring, sqfree_quotient_hilbert

from matrices import rank
from test_verification import _random_family


def full_stack_dims(cx, coeffs, m, cutoff, field):
    """dim R_j minus the rank of the whole |R_j| x m |R_{j-1}| matrix of the
    ideal in degree j: row nu holds theta_p[t] at column (p, nu - e_t)."""
    forms = [coeffs.matrix.column(p) for p in range(m)]
    dims = [1]
    prev = degree_monomials(cx, 0)
    for j in range(1, cutoff + 1):
        basis = degree_monomials(cx, j)
        index = {mu: c for c, mu in enumerate(prev)}
        rows = []
        for nu in basis:
            row = [0] * (m * len(prev))
            for t, u in enumerate(nu):
                if u:
                    c = index[nu[:t] + (u - 1,) + nu[t + 1:]]
                    for p, theta in enumerate(forms):
                        row[p * len(prev) + c] = theta[t]
            rows.append(row)
        dims.append(len(basis) - rank(Matrix(field, rows, m * len(prev))))
        prev = basis
    return tuple(dims)


def seeded_complexes(count, seed):
    """Complexes on 4 to 6 vertices with 2 to 5 random facets of 1 to 3 vertices."""
    rng = random.Random(seed)
    return [SimplicialComplex(n, [rng.sample(range(1, n + 1), rng.randint(1, 3))
                                  for _ in range(rng.randint(2, 5))])
            for n in (rng.randint(4, 6) for _ in range(count))]


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(101)], ids=str)
def test_reduction_matches_full_stack_oracle(complexes, field):
    cases = list(complexes.values()) + seeded_complexes(12, seed=4)
    for k, cx in enumerate(cases):
        coeffs = make_generic(cx.n, cx.d, field, seed=k)
        for m in range(cx.d + 1):
            got = reduction_hilbert(cx, coeffs, m, m + 4, field).dims
            assert got == full_stack_dims(cx, coeffs, m, m + 4, field), (sorted(cx.facets), m)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_fraction_coefficients_match_full_stack_oracle(field):
    # over GF(5), 1/2 enters as the inverse of 2; over Q the rows are scaled
    points = SimplicialComplex(2, [[1], [2]])
    coeffs = GenericCoefficients(Matrix(QQ, [[Fraction(1, 2)], [3]]))
    got = reduction_hilbert(points, coeffs, 1, 5, field).dims
    assert got == full_stack_dims(points, coeffs, 1, 5, field)
    assert got == (1, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_float_coefficient_is_refused(field):
    # each form enters the field once, and a float has no exact image there
    points = SimplicialComplex(2, [[1], [2]])
    coeffs = GenericCoefficients(Matrix(QQ, [[0.5], [3]]))
    with pytest.raises(TypeError):
        reduction_hilbert(points, coeffs, 1, 3, field)


def test_fraction_coefficient_needs_a_denominator_prime_to_p():
    points = SimplicialComplex(2, [[1], [2]])
    coeffs = GenericCoefficients(Matrix(QQ, [[Fraction(1, 5)], [3]]))
    with pytest.raises(ValueError):
        reduction_hilbert(points, coeffs, 1, 3, GF(5))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_every_prefix_of_one_reduction_matches_its_own_run(field):
    # the first k blocks of each degree's stack are the stack of k forms, so
    # one elimination gives every prefix: each equals a separate run on the
    # first k columns, a new matrix that shares no memo entry
    for seed, cx in enumerate(_random_family()):
        C = make_generic(cx.n, min(cx.d + 1, cx.n), field, seed=seed)
        cutoff = C.m + 3
        for k in range(C.m + 1):
            own = GenericCoefficients(Matrix(field, [row[:k] for row in C.matrix.tolist()], k))
            assert (reduction_hilbert(cx, C, k, cutoff, field).dims
                    == reduction_hilbert(cx, own, k, cutoff, field).dims), (sorted(cx.facets), k)


def test_cohen_macaulay_reduction_needs_no_certificate(rp2_6, no_fractions):
    # every stack has full row rank, and the integer loop over Q reads it
    # off its echelon rows, building no Fraction
    red = reduction_hilbert(rp2_6, make_generic(6, 2, QQ), 2, 10, QQ)
    assert red.dims == (1, 4) + (10,) * 9


def test_rank_deficient_reduction_is_certified_over_q(no_fractions):
    # two disjoint triangles are not Cohen-Macaulay: the second form is a
    # zero divisor modulo the first, so the stacks drop rank, and each rank
    # and pivot set over Q is exact without a Fraction
    triangles = SimplicialComplex(6, [[1, 2, 3], [4, 5, 6]])
    coeffs = make_generic(6, 2, QQ)
    got = reduction_hilbert(triangles, coeffs, 2, 6, QQ).dims
    assert got == full_stack_dims(triangles, coeffs, 2, 6, QQ)
    assert got == (1, 4, 2, 2, 2, 2, 2)  # k[t] on each triangle from degree 2


def test_reduction_cycle3(cycle3):
    A = make_generic(3, 2, QQ)
    assert reduction_hilbert(cycle3, A, 1, 4, QQ).dims == (1, 2, 3, 3, 3)
    assert reduction_hilbert(cycle3, A, 2, 4, QQ).dims == (1, 1, 1, 0, 0)


def test_reduction_octahedron_h_vector(octahedron):
    A = make_generic(6, 3, QQ)
    assert reduction_hilbert(octahedron, A, 3, 4, QQ).dims == (1, 3, 3, 1, 0)


def test_reduction_degree_zero_and_one(complexes):
    for cx in complexes.values():
        A = make_generic(cx.n, cx.d, QQ)
        for m in range(0, cx.d + 1):
            red = reduction_hilbert(cx, A, m, 1, QQ)
            assert red.dims[0] == 1
            assert red.dims[1] == cx.n - m


def test_reduction_bounded_by_monomial_count(bowtie):
    A = make_generic(5, 2, QQ)
    red = reduction_hilbert(bowtie, A, 1, 5, QQ)
    for j, value in enumerate(red.dims):
        assert 0 <= value <= count_degree_monomials(bowtie, j)


def test_reduction_m_zero_is_face_ring_hilbert(bowtie):
    A = make_generic(5, 1, QQ)
    red = reduction_hilbert(bowtie, A, 0, 5, QQ)
    assert red.dims == tuple(count_degree_monomials(bowtie, j) for j in range(6))


def test_reduction_validation(cycle3, monkeypatch):
    A = make_generic(3, 1, QQ)
    with pytest.raises(ValueError):
        reduction_hilbert(cycle3, A, 2, 3, QQ)  # more forms than columns
    with pytest.raises(ValueError):
        reduction_hilbert(cycle3, A, 1, -1, QQ)
    cycle3.faces()  # 7 faces, computed before the basis guard drops below them
    monkeypatch.setattr("facering.complexes.DEFAULT_BASIS_LIMIT", 5)
    with pytest.raises(SizeLimitError, match="degree-2 basis has 6 elements"):
        reduction_hilbert(cycle3, A, 1, 6, QQ)


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_reduction_matches_sqfree_formula(complexes, field):
    for name, cx in complexes.items():
        data = sqfree_data_of_face_ring(cx)
        for m in range(1, cx.d + 1):
            coeffs = make_generic(cx.n, m, field, seed=101)
            red = reduction_hilbert(cx, coeffs, m, m + 4, field)
            for j in range(m + 1, m + 5):
                assert red.dims[j] == sqfree_quotient_hilbert(data, m, j), (name, m, j)


def test_cm_anchor_padded_h_vectors(cycle3, octahedron, rp2_6):
    for cx in (cycle3, octahedron, rp2_6):
        d = cx.d
        A = make_generic(cx.n, d, QQ)
        red = reduction_hilbert(cx, A, d, d + 2, QQ)
        expected = tuple(cx.h_vector()) + (0, 0)
        assert red.dims == expected


def test_determinacy_probe_cm(cycle3):
    constant, runs = determinacy_probe(cycle3, 2, 3, 4, QQ, seed=5)
    assert constant
    assert runs[0].dims == (1, 1, 1, 0, 0)
    assert len(runs) == 3


def test_determinacy_probe_prime_field(bowtie):
    constant, runs = determinacy_probe(bowtie, 3, 5, 5, GF(32003), seed=9)
    assert constant
    assert len(runs) == 5


def test_determinacy_probe_seed_determinism(bowtie):
    _, runs1 = determinacy_probe(bowtie, 2, 2, 3, GF(32003), seed=77)
    _, runs2 = determinacy_probe(bowtie, 2, 2, 3, GF(32003), seed=77)
    assert [r.coefficients.matrix.tolist() for r in runs1] == [
        r.coefficients.matrix.tolist() for r in runs2
    ]
    with pytest.raises(ValueError):
        determinacy_probe(bowtie, 2, 1, 3, QQ, seed=1)


def test_reduction_json_includes_coefficients(cycle3):
    A = make_generic(3, 1, QQ)
    data = reduction_hilbert(cycle3, A, 1, 3, QQ).to_json()
    assert data["dims"] == [1, 2, 3, 3]
    assert data["coefficients"]["entries"] == [[1], [1], [1]]
    assert data["coefficients"]["verified"] is True
