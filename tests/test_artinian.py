"""Brute-force Artinian reductions against closed-form and h-vector anchors."""

import pytest

from facering.artinian import determinacy_probe, reduction_hilbert
from facering.complexes import SizeLimitError, count_degree_monomials
from facering.linalg import GF, QQ
from facering.local_cohomology import make_generic
from facering.squarefree import sqfree_data_of_face_ring, sqfree_quotient_hilbert


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
    assert all(run.coefficients.verified for run in runs)


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
