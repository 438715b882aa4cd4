"""Simplicial complex combinatorics: construction, faces by dimension, links, counting."""

import gc
import json
import random
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facering.complexes import (
    SimplicialComplex,
    SizeLimitError,
    count_degree_monomials,
    degree_monomials,
    face_table,
    mixed_face_key,
    monomial_supports,
    monomial_table,
)
from facering.linalg import QQ
from facering.local_cohomology import kernel_dim_bruteforce, make_generic
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


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(1, 7), min_size=1, max_size=5), max_size=12))
def test_generated_absorption_keeps_the_maximal_facets(facets):
    # repeated labels, repeated facets and facets inside others, in any
    # order, leave the inclusion-maximal sets that the pairwise test finds
    entries = facets + facets[::3] + [f[:len(f) // 2 + 1] for f in facets[1::2]]
    sets = [frozenset(f) for f in entries]
    assert SimplicialComplex(7, entries).facets == {f for f in sets if not any(f < g for g in sets)}


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


def test_faces_size_guard_boundary(monkeypatch):
    # the guard counts the empty face: the simplex on 3 vertices has 8 faces
    monkeypatch.setattr("facering.complexes.DEFAULT_BASIS_LIMIT", 8)
    assert len(SimplicialComplex(3, [range(1, 4)]).faces()) == 8
    with pytest.raises(SizeLimitError, match="more than 8 faces"):
        SimplicialComplex(4, [range(1, 4), [4]]).faces()


def _faces_by_definition(cx):
    """Every subset of every facet, the empty face included unless cx is void."""
    if cx.is_void:
        return set()
    return {frozenset(c) for f in cx.facets for k in range(len(f) + 1)
            for c in combinations(f, k)} | {frozenset()}


def _check_face_layer(cx):
    """faces, faces_of_dim, the face ids and the coface table against their definitions."""
    faces = _faces_by_definition(cx)
    assert cx.faces() == faces
    top = max(map(len, faces), default=0)
    for k in range(-1, top + 1):
        assert cx.faces_of_dim(k) == sorted((F for F in faces if len(F) == k + 1), key=sorted)
    table, start, ids, cofaces = face_table(cx)
    if cx.is_void:
        assert (table, start, ids, cofaces) == ((), (0,), {}, [])
        return
    by_id = sorted(faces, key=mixed_face_key)
    assert list(table) == by_id
    assert ids == {F: g for g, F in enumerate(by_id)}
    assert list(start) == [sum(1 for F in faces if len(F) < s) for s in range(top + 2)]
    # each coface H = G + {v} with (-1)^(position of v in sorted H), by ascending id
    assert cofaces == [
        sorted((ids[H], (-1) ** sorted(H).index(min(H - G)))
               for H in faces if G < H and len(H) == len(G) + 1)
        for G in by_id]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_complexes())
def test_generated_face_layer_matches_definition(cx):
    _check_face_layer(cx)


def test_face_layer_of_degenerate_complexes(complexes):
    for cx in (SimplicialComplex(3, []), SimplicialComplex(3, [], is_void=True),
               *complexes.values()):
        _check_face_layer(cx)


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
    assert (empty.dim, empty.d) == (-1, 0)
    with pytest.raises(ValueError):
        void.f_vector()
    with pytest.raises(ValueError):
        void.dim
    with pytest.raises(ValueError):
        void.d
    for cx in (empty, void):
        copied = SimplicialComplex.from_json(json.loads(json.dumps(cx.to_json())))
        assert copied == cx and hash(copied) == hash(cx)


def test_complex_stores_only_its_facets():
    # the faces live in the face table alone, memoized like everything else
    # derived from the complex
    assert SimplicialComplex.__slots__ == ("n", "facets", "is_void", "_dim", "_memo")
    cx = SimplicialComplex(4, [[1, 2, 3], [3, 4]])
    assert len(cx.faces()) == 10 and cx.faces() is not cx.faces()
    assert [2, 3] in cx and [2, 4] not in cx
    assert cx.faces_of_dim(1) == [frozenset(e) for e in ([1, 2], [1, 3], [2, 3], [3, 4])]
    assert cx.f_vector() == (1, 4, 4, 1)
    assert list(cx._memo) == [(face_table.__wrapped__, ())]


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
            assert vecs == tuple(sorted(vecs))
            assert len(vecs) == count_degree_monomials(cx, r)
            faces = cx.faces()
            for U in vecs:
                assert sum(U) == r
                assert frozenset(t + 1 for t, u in enumerate(U) if u) in faces


def _monomials_by_definition(cx, r):
    """Every vector of sum r in N^n whose support is a face, in lex order."""
    faces = cx.faces()
    return tuple(U for U in product(range(r + 1), repeat=cx.n)
                 if sum(U) == r and frozenset(t + 1 for t, u in enumerate(U) if u) in faces)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_complexes(), st.integers(0, 5))
def test_generated_degree_monomials_match_definition(cx, r):
    assert degree_monomials(cx, r) == _monomials_by_definition(cx, r)


def test_degree_monomials_of_degenerate_complexes():
    for cx in (SimplicialComplex(3, []), SimplicialComplex(3, [], is_void=True)):
        for r in range(0, 3):
            assert degree_monomials(cx, r) == _monomials_by_definition(cx, r)


def test_degree_monomials_cycle3_degree2(cycle3):
    assert degree_monomials(cycle3, 2) == (
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
    )


def test_degree_monomials_size_guard(octahedron, monkeypatch):
    octahedron.faces()  # 27 faces: under both guards below
    monkeypatch.setattr("facering.complexes.DEFAULT_BASIS_LIMIT", 100)
    with pytest.raises(SizeLimitError, match="degree-6 basis has 146 elements"):
        degree_monomials(octahedron, 6)
    monkeypatch.setattr("facering.complexes.DEFAULT_BASIS_LIMIT", 200)
    assert len(degree_monomials(octahedron, 6)) == 146


def test_degree_monomials_built_once_behind_the_guard(monkeypatch):
    # one tuple per (complex, r); the guard runs before the memo is read, and
    # a refused basis is not remembered
    octahedron = SimplicialComplex(6, [[a, b, c] for a in (1, 4) for b in (2, 5) for c in (3, 6)])
    first = degree_monomials(octahedron, 5)
    assert type(first) is tuple and degree_monomials(octahedron, 5) is first
    monkeypatch.setattr("facering.complexes.DEFAULT_BASIS_LIMIT", 100)
    with pytest.raises(SizeLimitError, match="degree-5 basis has 102 elements"):
        degree_monomials(octahedron, 5)
    with pytest.raises(SizeLimitError, match="degree-6 basis has 146 elements"):
        degree_monomials(octahedron, 6)
    monkeypatch.setattr("facering.complexes.DEFAULT_BASIS_LIMIT", 200)
    assert degree_monomials(octahedron, 5) is first
    assert len(degree_monomials(octahedron, 6)) == 146


def _check_table_by_membership(cx, r, lower, upper):
    """monomial_table(cx, r) against the monomials of degrees r and r + 1:
    each T of degree r steps to T + e_t exactly when T + e_t is a monomial
    of degree r + 1, found here by a membership test on that basis."""
    supports, steps = monomial_table(cx, r)
    assert supports is monomial_supports(cx, r) and len(steps) == len(lower)
    position = {U: c for c, U in enumerate(upper)}
    for T, F, flat in zip(lower, supports, steps):
        assert F == frozenset(t + 1 for t, u in enumerate(T) if u)
        assert all(type(x) is int for x in flat)
        want = []
        for t in range(cx.n):
            U = T[:t] + (T[t] + 1,) + T[t + 1:]
            if U in position:
                want.append((position[U], t))
        assert list(zip(flat[::2], flat[1::2])) == sorted(want)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_complexes(), st.integers(0, 4))
def test_generated_monomial_table_matches_membership(cx, r):
    _check_table_by_membership(cx, r, degree_monomials(cx, r), degree_monomials(cx, r + 1))


def test_monomial_codes_where_the_width_grows(cycle3, bowtie):
    # the lattice table of degree r codes the exponents of degrees r and
    # r + 1 in (r + 1).bit_length() bits, which grows at r + 2 = 2^k; on two
    # points every degree holds (0, r) and (r, 0), past 2^32 as well
    points = SimplicialComplex(2, [[1], [2]])
    for r in [2**k - d for k in (2, 3, 5, 8, 13, 20) for d in (3, 2, 1, 0)] + [2**32 + 1]:
        lower, upper = ((0, r), (r, 0)), ((0, r + 1), (r + 1, 0))
        assert degree_monomials(points, r) == lower
        assert monomial_supports(points, r) == (frozenset({2}), frozenset({1}))
        _check_table_by_membership(points, r, lower, upper)
        assert monomial_table(points, r)[1] == ((0, 1), (1, 0))
    # the bases read back sorted, distinct, of sum r on faces and as many
    # as counted, so they are all the monomials, in lex order
    for cx in (cycle3, bowtie):
        for r in [*range(62, 67), *range(126, 131)]:
            basis = degree_monomials(cx, r)
            assert list(basis) == sorted(set(basis))
            assert len(basis) == count_degree_monomials(cx, r)
            assert all(sum(U) == r and frozenset(t + 1 for t, u in enumerate(U) if u) in cx
                       for U in basis)
        for r in [*range(62, 66), *range(126, 130)]:
            _check_table_by_membership(cx, r, degree_monomials(cx, r), degree_monomials(cx, r + 1))


def test_monomial_table_is_built_once_behind_both_guards(monkeypatch):
    octahedron = SimplicialComplex(6, [[a, b, c] for a in (1, 4) for b in (2, 5) for c in (3, 6)])
    first = monomial_table(octahedron, 5)
    assert monomial_table(octahedron, 5)[1] is first[1]
    monkeypatch.setattr("facering.complexes.DEFAULT_BASIS_LIMIT", 120)
    with pytest.raises(SizeLimitError, match="degree-6 basis has 146 elements"):
        monomial_table(octahedron, 5)
    monkeypatch.setattr("facering.complexes.DEFAULT_BASIS_LIMIT", 100)
    with pytest.raises(SizeLimitError, match="degree-5 basis has 102 elements"):
        monomial_table(octahedron, 5)


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
            kernel_dim_bruteforce(cx, 2, 1, 1, make_generic(cx.n, 1, QQ), QQ)
            del cx
            if k in (1, 10, 40):
                gc.collect()
                traced[k] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert traced[40] - traced[10] < 64 * 1024, traced
