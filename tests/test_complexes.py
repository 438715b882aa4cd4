"""Simplicial complex combinatorics: construction, faces by dimension, links, counting."""

import gc
import json
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facering.complexes import (
    SimplicialComplex,
    SizeLimitError,
    count_degree_monomials,
    degree_monomials,
)
from facering.linalg import QQ
from facering.local_cohomology import kernel_dim_bruteforce
from facering.singularity import cm_in_codim, singular_faces

from complex_strategies import small_complexes


def test_from_facets_cycle3_face_count(cycle3):
    assert len(cycle3.faces()) == 7
    assert cycle3.dim == 1


def test_from_facets_bowtie_f_vector(bowtie):
    assert bowtie.f_vector() == (1, 5, 6, 2)


def test_absorption_and_dedup():
    a = SimplicialComplex(3, [{1, 2}, {1, 2, 3}])
    b = SimplicialComplex(3, [{1, 2, 3}])
    assert a == b
    assert SimplicialComplex(3, [{1, 2}, {1, 2}]).facets == frozenset({frozenset({1, 2})})


def test_vertex_out_of_range_rejected():
    with pytest.raises(ValueError):
        SimplicialComplex(3, [{1, 4}])
    with pytest.raises(ValueError):
        SimplicialComplex(0, [])
    with pytest.raises(ValueError):
        SimplicialComplex(3, [{0, 1}])


def test_bool_rejected_as_count_and_label():
    with pytest.raises(ValueError):
        SimplicialComplex(True, [[1]])
    with pytest.raises(ValueError):
        SimplicialComplex(2, [[True, 2]])


def test_faces_size_guard():
    # one facet whose 2^40 faces exceed the guard is refused before listing
    with pytest.raises(SizeLimitError, match="2\\^40 faces"):
        SimplicialComplex(40, [range(1, 41)]).faces()
    # two facets of 2^17 faces each pass one by one but not together
    with pytest.raises(SizeLimitError, match="more than"):
        SimplicialComplex(34, [range(1, 18), range(18, 35)]).faces()


def test_faces_of_dim_ordering(cycle3, bowtie):
    assert [sorted(F) for F in cycle3.faces_of_dim(1)] == [[1, 2], [1, 3], [2, 3]]
    assert [sorted(F) for F in bowtie.faces_of_dim(2)] == [[1, 2, 3], [3, 4, 5]]
    assert cycle3.faces_of_dim(2) == []
    assert cycle3.faces_of_dim(-1) == [frozenset()]
    with pytest.raises(ValueError):
        cycle3.faces_of_dim(-2)


def test_link_examples(cycle3, bowtie):
    assert {tuple(sorted(f)) for f in bowtie.link({3}).facets} == {(1, 2), (4, 5)}
    assert {tuple(sorted(f)) for f in cycle3.link({1}).facets} == {(2,), (3,)}
    assert bowtie.link(frozenset()) == bowtie
    with pytest.raises(ValueError):
        bowtie.link({1, 4})


def test_link_of_facet_is_empty_complex(bowtie):
    link = bowtie.link({1, 2, 3})
    assert not link.is_void
    assert link.faces() == frozenset({frozenset()})
    assert link.dim == -1


def test_link_downward_closed(complexes):
    for cx in complexes.values():
        for F in cx.faces():
            faces = cx.link(F).faces()
            for G in faces:
                for v in G:
                    assert G - {v} in faces


def test_link_dim_bound_and_purity(complexes):
    for cx in complexes.values():
        pure = cx.is_pure()
        equality = True
        for F in cx.faces():
            link = cx.link(F)
            assert link.dim <= cx.dim - len(F)
            if link.dim != cx.dim - len(F):
                equality = False
        assert equality == pure


def test_f_and_h_vectors(cycle3, bowtie, octahedron):
    assert cycle3.f_vector() == (1, 3, 3)
    assert cycle3.h_vector() == (1, 1, 1)
    assert bowtie.h_vector() == (1, 2, -1, 0)
    assert octahedron.f_vector() == (1, 6, 12, 8)
    assert octahedron.h_vector() == (1, 3, 3, 1)


def test_f_vector_matches_faces_of_dim(complexes):
    for cx in complexes.values():
        f = cx.f_vector()
        for k in range(-1, cx.dim + 1):
            assert f[k + 1] == len(cx.faces_of_dim(k))


def test_rp2_validation(rp2_6):
    f = rp2_6.f_vector()
    assert f == (1, 6, 15, 10)
    # Euler characteristic 1
    assert f[1] - f[2] + f[3] == 1
    # every edge lies in exactly two facets
    for edge in rp2_6.faces_of_dim(1):
        assert sum(1 for T in rp2_6.facets if edge <= T) == 2


def test_empty_and_void_complexes_roundtrip():
    empty = SimplicialComplex(3, [])
    void = SimplicialComplex(3, [], is_void=True)
    assert empty != void
    assert empty.faces() == frozenset({frozenset()})
    assert void.faces() == frozenset()
    assert empty.f_vector() == (1,)
    with pytest.raises(ValueError):
        void.f_vector()
    for cx in (empty, void):
        copied = SimplicialComplex.from_json(json.loads(json.dumps(cx.to_json())))
        assert copied == cx


def test_void_rejects_facets():
    with pytest.raises(ValueError):
        SimplicialComplex(3, [{1}], is_void=True)


def test_json_roundtrip(complexes):
    for cx in complexes.values():
        again = SimplicialComplex.from_json(json.loads(json.dumps(cx.to_json())))
        assert again == cx


# ---------------------------------------------------------------------------
# monomial / exponent-vector enumeration
# ---------------------------------------------------------------------------

def test_degree_monomials_lex_and_counts(complexes):
    for cx in complexes.values():
        for r in range(0, 5):
            vecs = degree_monomials(cx, r)
            assert vecs == sorted(vecs)
            assert len(vecs) == count_degree_monomials(cx, r)
            faces = cx.faces()
            for U in vecs:
                assert sum(U) == r
                assert frozenset(t + 1 for t, u in enumerate(U) if u) in faces


def _monomials_by_definition(cx, r):
    """Every vector of sum r in N^n whose support is a face, in lex order."""
    faces = cx.faces()
    return [U for U in product(range(r + 1), repeat=cx.n)
            if sum(U) == r and frozenset(t + 1 for t, u in enumerate(U) if u) in faces]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_complexes(), st.integers(0, 5))
def test_generated_degree_monomials_match_definition(cx, r):
    assert degree_monomials(cx, r) == _monomials_by_definition(cx, r)


def test_degree_monomials_of_degenerate_complexes():
    for cx in (SimplicialComplex(3, []), SimplicialComplex(3, [], is_void=True)):
        for r in range(0, 3):
            assert degree_monomials(cx, r) == _monomials_by_definition(cx, r)


def test_degree_monomials_cycle3_degree2(cycle3):
    assert degree_monomials(cycle3, 2) == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
    ]


def test_degree_monomials_size_guard(octahedron, monkeypatch):
    octahedron.faces()  # 27 faces: under both guards below
    monkeypatch.setattr("facering.complexes.DEFAULT_BASIS_LIMIT", 100)
    with pytest.raises(SizeLimitError, match="degree-6 basis has 146 elements"):
        degree_monomials(octahedron, 6)
    monkeypatch.setattr("facering.complexes.DEFAULT_BASIS_LIMIT", 200)
    assert len(degree_monomials(octahedron, 6)) == 146


def test_memo_is_freed_with_its_complex():
    # derived data lives on the complex: a process that analyses many complexes
    # one after another must not keep the earlier ones' cohomology, graded
    # pieces or stacked ranks
    rng = random.Random(2024)
    traced = {}
    tracemalloc.start()
    try:
        for k in range(1, 41):
            cx = SimplicialComplex(7, [rng.sample(range(1, 8), 3) for _ in range(8)])
            singular_faces(cx, QQ)
            cm_in_codim(cx, 1, QQ)
            kernel_dim_bruteforce(cx, 2, 1, 1, None, QQ)
            del cx
            if k in (1, 10, 40):
                gc.collect()
                traced[k] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert traced[40] - traced[10] < 64 * 1024, traced
