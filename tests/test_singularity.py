"""Singular face classification and the codimension Cohen-Macaulay criteria."""

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings

from facering import cli, cohomology, linalg, singularity
from facering.cohomology import reduced_cohomology_dim, relative_cohomology_dim
from facering.complexes import SimplicialComplex, face_table
from facering.linalg import GF, QQ, sparse_rank
from facering.singularity import (
    NEG_INFINITY,
    _depths,
    cm_in_codim,
    is_buchsbaum,
    is_cm,
    is_cm_along,
    singular_faces,
    singularity_dimension,
)

from complex_strategies import small_complexes

FIELDS = [QQ, GF(2), GF(3)]


def test_singular_face_examples(bowtie, pair_edges):
    assert frozenset({3}) in singular_faces(bowtie, QQ)
    assert frozenset({1}) not in singular_faces(bowtie, QQ)
    assert frozenset() in singular_faces(pair_edges, QQ)


def test_singularity_dimension_examples(bowtie, cycle3, rp2_6):
    assert singularity_dimension(bowtie, QQ) == 0
    assert singularity_dimension(cycle3, QQ) == NEG_INFINITY
    assert singularity_dimension(rp2_6, GF(2)) == -1
    assert singularity_dimension(rp2_6, QQ) == NEG_INFINITY


def test_neg_infinity_orders_below_all_integers():
    assert NEG_INFINITY < 0
    assert NEG_INFINITY < -10**9
    assert not (NEG_INFINITY >= 0)


def test_singular_faces_listing(bowtie, pair_edges):
    assert [sorted(F) for F in singular_faces(bowtie, QQ)] == [[3]]
    assert [sorted(F) for F in singular_faces(pair_edges, QQ)] == [[]]
    assert singularity_dimension(bowtie, QQ) == 0


def test_is_cm_examples(octahedron, bowtie, rp2_6):
    assert is_cm(octahedron, QQ)
    assert not is_cm(bowtie, QQ)
    assert not is_cm(rp2_6, GF(2))
    assert is_cm(rp2_6, QQ)


def test_is_buchsbaum_examples(pair_edges, bowtie, octahedron, rp2_6):
    assert is_buchsbaum(pair_edges, QQ)
    assert not is_buchsbaum(bowtie, QQ)
    assert is_buchsbaum(octahedron, QQ)
    assert is_buchsbaum(rp2_6, GF(2))


def test_is_cm_along_examples(bowtie):
    assert is_cm_along(bowtie, {1, 2}, 0, QQ)
    assert not is_cm_along(bowtie, {3}, 1, QQ)
    assert not is_cm_along(bowtie, {1}, 0, QQ)


def test_cm_in_codim_examples(bowtie, octahedron):
    assert cm_in_codim(bowtie, 1, QQ)
    assert not cm_in_codim(bowtie, 2, QQ)
    assert cm_in_codim(octahedron, 4, QQ)  # above r+1, falls back to full CM


@pytest.mark.parametrize("field", FIELDS)
def test_codimension_criterion_equivalence(complexes, field):
    # singularity dimension < m iff CM in codimension r - m, for every m
    for cx in complexes.values():
        r = cx.dim
        sd = singularity_dimension(cx, field)
        for m in range(0, r + 2):
            assert (sd < m) == cm_in_codim(cx, r - m, field), (cx, field, m)


@pytest.mark.parametrize("field", FIELDS)
def test_cm_implies_buchsbaum_implies_low_singularity(complexes, field):
    for cx in complexes.values():
        if is_cm(cx, field):
            assert is_buchsbaum(cx, field)
        if is_buchsbaum(cx, field):
            assert singularity_dimension(cx, field) <= -1
            assert cx.is_pure()


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_pure_complex_link_shortcut(complexes, field):
    # for pure complexes the codimension condition reduces to plain CM links
    for cx in complexes.values():
        if not cx.is_pure():
            continue
        r = cx.dim
        for c in range(0, r + 2):
            via_links = all(
                is_cm(cx.link(F), field) for F in cx.faces_of_dim(r - c)
            )
            assert cm_in_codim(cx, c, field) == via_links


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_complexes())
def test_generated_pair_route_matches_links(cx):
    # reference: link complexes built explicitly, and links of links for CM;
    # most drawn complexes are non-pure, so dim lk F + |F| < dim cx occurs
    def singular(K, G, field):
        link = K.link(G)
        return any(reduced_cohomology_dim(link, i, field) for i in range(-1, K.dim - len(G)))

    r = cx.dim
    for field in (QQ, GF(2)):
        sing = {F for F in cx.faces() if singular(cx, F, field)}
        assert set(singular_faces(cx, field)) == sing
        for F in cx.faces():
            link = cx.link(F)
            link_cm = not any(singular(link, G, field) for G in link.faces())
            for i in range(-1, r + 2):
                assert is_cm_along(cx, F, i, field) == (link.dim == i and link_cm)
        assert is_buchsbaum(cx, field) == (cx.is_pure() and all(not F for F in sing))
        sd = max((len(F) - 1 for F in sing), default=NEG_INFINITY)
        assert singularity_dimension(cx, field) == sd
        for m in range(0, r + 2):
            assert (sd < m) == cm_in_codim(cx, r - m, field)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_complexes())
def test_depth_table_matches_pair_cohomology(cx):
    # the cone and facet shortcuts, and the search from degree |H| for a
    # non-facet, skip elimination; every entry must still be the least
    # k >= |H| - 1 with H^k(X, cost H) != 0, capped at dim X, found here by
    # reading every degree.  top, built from the cofaces' entries, is the
    # largest facet over H, found here by a scan
    r = cx.dim
    for field in (QQ, GF(2)):
        depth = {}
        for H in cx.faces():
            dims = [relative_cohomology_dim(cx, H, k, field) for k in range(len(H) - 1, r)]
            if len(H) <= r:  # H^(|H|-1)(X, cost H) = H~^-1(lk H) != 0 exactly on facets
                assert (dims[0] != 0) == (H in cx.facets)
            depth[H] = next((len(H) - 1 + j for j, dim in enumerate(dims) if dim), r)
        faces, table = face_table(cx)[0], _depths(cx, field)
        assert len(table) == len(faces) and set(faces) == set(depth)
        for H, (d, least, top) in zip(faces, table):
            assert d == depth[H]
            assert least == min(depth[G] for G in depth if H <= G)
            assert top == max((len(f) for f in cx.facets if H <= f), default=0) - 1


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=str)
def test_cone_links_read_no_rank(monkeypatch, rp2_6, field):
    # a face whose link is a cone, when the facets over it share a vertex
    # outside it, has depth dim X with no rank: no face of the 7-simplex
    # reaches one, and on the cone over rp2_6 only the apex (two degrees,
    # its link rp2_6) and the six edges through it (one degree, a hexagon)
    reads = []
    real = singularity.relative_cohomology_dim
    monkeypatch.setattr(singularity, "relative_cohomology_dim",
                        lambda cx, H, *args: reads.append(H) or real(cx, H, *args))
    simplex = SimplicialComplex(8, [range(1, 9)])
    cone = SimplicialComplex(7, [F | {7} for F in rp2_6.facets])
    for cx, count in ((simplex, 0), (cone, 8)):
        del reads[:]
        singular_faces(cx, field)
        assert len(reads) == count
        for H in reads:  # brute force: the vertices of every facet over H lie in H
            assert frozenset.intersection(*(f for f in cx.facets if H <= f)) == H


def test_depth_table_grows_linearly():
    # one entry per face, and while the table fills one face id per face for
    # the face common to the facets over it: on isolated points and on a path,
    # four times the labels take about four times the memory
    def peak(cx):
        face_table(cx)
        tracemalloc.start()
        try:
            assert singular_faces(cx, GF(2)) == []
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for build in (lambda n: SimplicialComplex(n, [[v] for v in range(1, n + 1)]),
                  lambda n: SimplicialComplex(n, list(zip(range(1, n), range(2, n + 1))))):
        small, large = peak(build(5_000)), peak(build(20_000))
        assert large <= 6 * small, (small, large)


def test_long_path_components_by_union_find(monkeypatch):
    # H~^0 of a graph is read from its vertices and edges alone: a path on
    # 3,000 shuffled labels is connected and acyclic, and cut in the middle
    # it has two components
    labels = list(range(1, 3001))
    random.Random(0).shuffle(labels)
    edges = list(zip(labels, labels[1:]))
    path = SimplicialComplex(3000, edges)
    cut = SimplicialComplex(3000, edges[:1500] + edges[1501:])
    monkeypatch.setattr(cohomology, "sparse_rank", None)  # no elimination
    for field in (QQ, GF(2)):
        assert [reduced_cohomology_dim(path, i, field) for i in (-1, 0, 1)] == [0, 0, 0]
        assert singular_faces(path, field) == []
        assert [reduced_cohomology_dim(cut, i, field) for i in (-1, 0, 1)] == [0, 1, 0]
        assert singular_faces(cut, field) == [frozenset()]


def test_analyze_keeps_no_star_in_the_memo(monkeypatch, capsys, rp2_6):
    # the star of a face is walked anew for each reader: the rank tuples and
    # the cocycle bases (with their row labels, as face ids) are memoized
    # themselves, while the cochain bases and coboundary rows are not
    cx = SimplicialComplex(rp2_6.n, rp2_6.facets)  # a fresh memo
    monkeypatch.setattr(cli, "_load_single", lambda spec: ("rp2_6", cx))
    for field in ("q", "fp:2"):
        assert cli.main(["analyze", "rp2_6", "--field", field, "--format", "json"]) == 0
    capsys.readouterr()
    names = {fn.__name__ for fn, _ in cx._memo}
    assert "_pair_ranks" in names and "_star" not in names


def _count_gcds(monkeypatch):
    """The gcds the Q loop takes: one for each leading entry it stores or
    pivot it eliminates against that is not 1 (or -1 for a lead)."""
    calls = []
    real = linalg.gcd
    monkeypatch.setattr(linalg, "gcd", lambda *args: calls.append(args) or real(*args))
    return calls


def _analyze(cx, field):
    """What `analyze` reads from the depth table."""
    return singular_faces(cx, field), [cm_in_codim(cx, c, field) for c in range(cx.dim + 3)]


@pytest.mark.parametrize("k", [3, 5])
def test_unit_pivots_settle_cross_polytopes_over_q(monkeypatch, k):
    # the boundary of the k-dimensional cross-polytope (k = 3: the octahedron);
    # every link is a sphere, and its coboundary ranks never leave unit pivots
    cx = SimplicialComplex(2 * k, product(*[(i, i + k) for i in range(1, k + 1)]))
    calls = _count_gcds(monkeypatch)
    assert _analyze(cx, QQ) == ([], [True] * (k + 2))
    assert calls == []


def test_torsion_needs_no_certified_rank(monkeypatch, rp2_6, no_fractions):
    # the 2-torsion of rp2_6, which makes it CM over Q but not over F_2,
    # leaves leading entries other than +-1 in its coboundary ranks; the
    # integer loop eliminates them fraction-free, with no Fraction
    cx = SimplicialComplex(rp2_6.n, rp2_6.facets)  # a fresh memo
    calls = _count_gcds(monkeypatch)
    assert is_cm(cx, QQ)
    assert calls
    assert not is_cm(cx, GF(2))
    del calls[:]
    assert sparse_rank(QQ, [{0: 2, 1: 1}, {0: 1, 1: 2}], 2) == 2  # a pivot 2, then 3
    assert calls == [(2, 1), (2, 1), (3,)]
