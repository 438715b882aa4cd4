"""Squarefree-degree tables and their Hilbert / local cohomology formulas."""

import json

import pytest

from facering.complexes import SimplicialComplex, count_degree_monomials
from facering.linalg import GF, QQ
from facering.quotient import quotient_lc_dim
from facering.squarefree import (
    SqfreeData,
    sqfree_data_of_face_ring,
    sqfree_hilbert,
    sqfree_lc_data,
    sqfree_quotient_hilbert,
    sqfree_quotient_lc,
)


def test_face_ring_data_entry_counts(cycle3, bowtie):
    assert len(sqfree_data_of_face_ring(cycle3)) == 7
    assert len(sqfree_data_of_face_ring(bowtie)) == 14
    single = sqfree_data_of_face_ring(SimplicialComplex(2, []))
    assert len(single) == 1
    assert single.items() == ((frozenset(), 1),)


def test_lc_data_examples(cycle3, bowtie):
    data = sqfree_lc_data(cycle3, 2, QQ)
    assert len(data) == 7 and all(v == 1 for _, v in data.items())
    data2 = sqfree_lc_data(bowtie, 2, QQ)
    assert [(sorted(F), v) for F, v in data2.items()] == [([3], 1)]
    data3 = sqfree_lc_data(bowtie, 3, QQ)
    assert [(sorted(F), v) for F, v in data3.items()] == [([1, 2, 3], 1), ([3, 4, 5], 1)]


def test_sqfree_hilbert_examples(cycle3, bowtie, octahedron):
    assert sqfree_hilbert(sqfree_data_of_face_ring(cycle3), 2) == 6
    assert sqfree_hilbert(sqfree_data_of_face_ring(bowtie), 1) == 5
    assert sqfree_hilbert(sqfree_data_of_face_ring(octahedron), 0) == 1
    with pytest.raises(ValueError):
        sqfree_hilbert(sqfree_data_of_face_ring(cycle3), -1)


def test_sqfree_hilbert_matches_monomial_count(complexes):
    for cx in complexes.values():
        data = sqfree_data_of_face_ring(cx)
        for i in range(0, 7):
            assert sqfree_hilbert(data, i) == count_degree_monomials(cx, i)


def test_quotient_hilbert_examples(cycle3, bowtie):
    cdata = sqfree_data_of_face_ring(cycle3)
    assert sqfree_quotient_hilbert(cdata, 1, 2) == 3
    assert sqfree_quotient_hilbert(cdata, 2, 3) == 0
    assert sqfree_quotient_hilbert(sqfree_data_of_face_ring(bowtie), 1, 3) == 8
    with pytest.raises(ValueError):
        sqfree_quotient_hilbert(cdata, 2, 2)


def test_quotient_lc_examples(cycle3, bowtie):
    table = sqfree_lc_data(bowtie, 3, QQ)
    assert [sqfree_quotient_lc(table, 1, i) for i in (1, 2, 3)] == [0, 2, 4]
    table0 = sqfree_lc_data(cycle3, 2, QQ)
    assert [sqfree_quotient_lc(table0, 0, i) for i in (1, 2, 3)] == [3, 6, 9]
    empty = SqfreeData.from_dict(3, {})
    assert sqfree_quotient_lc(empty, 1, 4) == 0
    with pytest.raises(ValueError):
        sqfree_quotient_lc(table, 1, 0)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_quotient_lc_matches_direct_formula(complexes, field):
    for cx in complexes.values():
        d = cx.d
        for m in range(0, d + 1):
            for ell in range(1, d - m + 1):
                table = sqfree_lc_data(cx, ell + m, field)
                for i in range(1, 6):
                    assert sqfree_quotient_lc(table, m, i) == quotient_lc_dim(
                        cx, m, ell, i, field
                    )


def test_json_roundtrip(cycle3):
    data = sqfree_lc_data(cycle3, 2, QQ)
    blob = json.dumps(data.to_json())
    again = SqfreeData.from_json(json.loads(blob))
    assert again == data


def test_json_vector_encoding():
    data = SqfreeData.from_dict(3, {frozenset({1, 2}): 2})
    assert data.to_json() == {"n": 3, "dims": [{"F": [1, 1, 0], "dim": 2}]}
    with pytest.raises(ValueError):
        SqfreeData.from_json({"n": 3, "dims": [{"F": [1, 2, 0], "dim": 1}]})
    with pytest.raises(ValueError):
        SqfreeData.from_dict(2, {frozenset({5}): 1})
    with pytest.raises(ValueError):
        SqfreeData.from_dict(2, {frozenset({1}): -1})
