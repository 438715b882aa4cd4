"""Relative cohomology: frozen dimensions, an independent rank oracle,
the rank route against the basis route, the link isomorphism (also on
generated complexes), functoriality of induced maps, induced maps on
generated complexes against plain elimination, Euler characteristics, and a
digest of every class representative and codimension-one induced map."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from facering import cohomology, linalg
from facering.cohomology import (
    coboundary_rows,
    induced_map,
    reduced_cohomology_dim,
    relative_cochain_basis,
    relative_cohomology,
    relative_cohomology_dim,
)
from facering.complexes import SimplicialComplex, face_table, mixed_face_key
from facering.linalg import GF, QQ, Matrix

from complex_strategies import small_complexes
from matrices import gauss_jordan, matmul, rank

FIELDS = [QQ, GF(2), GF(3)]


# ---------------------------------------------------------------------------
# independent oracle: reduced cohomology dims from plain row reduction
# ---------------------------------------------------------------------------

def _oracle_rank(rows, p):
    """Self-contained Gaussian elimination, separate from the library code."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = None
        for k in range(r, len(rows)):
            if rows[k][c] != 0:
                piv = k
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p) if p else Fraction(1, rows[r][c])
        rows[r] = [x * inv % p if p else x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [
                    (a - f * b) % p if p else a - f * b
                    for a, b in zip(rows[k], rows[r])
                ]
        r += 1
    return r


def _oracle_coboundary(cx, k):
    """Reduced coboundary C^k -> C^{k+1} built independently of the library."""
    source = cx.faces_of_dim(k) if k >= -1 else []
    target = cx.faces_of_dim(k + 1)
    rows = []
    for H in target:
        verts = sorted(H)
        row = [0] * len(source)
        lookup = {F: j for j, F in enumerate(source)}
        for pos, v in enumerate(verts):
            G = frozenset(H) - {v}
            if G in lookup:
                row[lookup[G]] = (-1) ** pos
        rows.append(row)
    return rows, len(source), len(target)


def _oracle_reduced_dim(cx, i, p):
    delta_out, ncochains, _ = _oracle_coboundary(cx, i)
    rank_out = _oracle_rank(delta_out, p)
    delta_in, _, _ = _oracle_coboundary(cx, i - 1)
    rank_in = _oracle_rank(delta_in, p)
    return ncochains - rank_out - rank_in


@pytest.mark.parametrize("p", [0, 2, 3])
def test_reduced_cohomology_matches_independent_oracle(complexes, p):
    field = QQ if p == 0 else GF(p)
    for cx in complexes.values():
        for i in range(-1, cx.dim + 1):
            assert reduced_cohomology_dim(cx, i, field) == _oracle_reduced_dim(cx, i, p)


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

def test_circle_has_one_loop(cycle3):
    assert reduced_cohomology_dim(cycle3, 1, QQ) == 1
    assert reduced_cohomology_dim(cycle3, 0, QQ) == 0


def test_projective_plane_is_two_torsion(rp2_6):
    assert reduced_cohomology_dim(rp2_6, 1, GF(2)) == 1
    assert reduced_cohomology_dim(rp2_6, 1, QQ) == 0
    assert reduced_cohomology_dim(rp2_6, 2, GF(2)) == 1
    assert reduced_cohomology_dim(rp2_6, 2, QQ) == 0


def test_empty_complex_has_degree_minus_one_class():
    empty = SimplicialComplex(3, [])
    assert reduced_cohomology_dim(empty, -1, QQ) == 1
    assert reduced_cohomology_dim(empty, 0, QQ) == 0


def test_relative_examples(bowtie, cycle3, octahedron):
    assert relative_cohomology(bowtie, {3}, 1, QQ).ncols == 1
    assert relative_cohomology(cycle3, {1, 2}, 1, QQ).ncols == 1
    assert relative_cohomology(octahedron, {1}, 1, QQ).ncols == 0
    with pytest.raises(ValueError):
        relative_cohomology(bowtie, {1, 4}, 1, QQ)
    with pytest.raises(ValueError, match="not a face"):
        relative_cohomology_dim(bowtie, {1, 4}, 1, QQ)


def _coboundary(cx, tau, k, field):
    """delta^k of (X, cost tau) as a dense Matrix, from its sparse rows."""
    ncols = len(relative_cochain_basis(cx, tau, k))
    rows = [[row.get(c, 0) for c in range(ncols)] for row in coboundary_rows(cx, tau, k)]
    return Matrix(field, rows, ncols)


def test_cocycle_bases_are_valid(complexes):
    for cx in complexes.values():
        for field in (QQ, GF(2)):
            for F in cx.faces():
                for i in range(-1, cx.dim + 1):
                    reps = relative_cohomology(cx, F, i, field)
                    delta = _coboundary(cx, F, i, field)
                    if reps.ncols:
                        assert not any(x for row in matmul(delta, reps).tolist() for x in row)
                    delta_in = _coboundary(cx, F, i - 1, field)
                    both = Matrix(field, [a + b for a, b in zip(delta_in.tolist(), reps.tolist())],
                                  delta_in.ncols + reps.ncols)
                    assert rank(both) == rank(delta_in) + reps.ncols


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)])
def test_rank_route_matches_basis_route(complexes, field):
    for cx in complexes.values():
        for F in cx.faces():
            for i in range(-2, cx.d + 1):
                assert (
                    relative_cohomology_dim(cx, F, i, field)
                    == relative_cohomology(cx, F, i, field).ncols
                )


def _reference_coboundary_rows(cx, tau, k, p):
    """delta^k of (X, cost tau) by its definition: the column of a k-face G
    holds (-1)^(position of v in sorted G + {v}) at every coface G + {v}."""
    def cochains(dim):
        return sorted((F for F in cx.faces() if len(F) == dim + 1 and tau <= F),
                      key=lambda F: sorted(F))
    source, target = cochains(k), cochains(k + 1)
    cols = []
    for G in source:
        col = [0] * len(target)
        for v in range(1, cx.n + 1):
            H = G | {v}
            if v not in G and H in cx.faces():
                col[target.index(H)] = (-1) ** sorted(H).index(v)
        cols.append(col)
    rows = [[c[r] for c in cols] for r in range(len(target))]
    return [[x % p for x in row] for row in rows] if p else rows, len(source)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_complexes())
def test_generated_coboundary_matches_definition(cx):
    for tau in cx.faces():
        for k in range(-2, cx.dim + 2):
            rows, ncols = _reference_coboundary_rows(cx, tau, k, 0)
            assert len(relative_cochain_basis(cx, tau, k)) == ncols
            assert coboundary_rows(cx, tau, k) == [{c: x for c, x in enumerate(r) if x}
                                                  for r in rows]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_complexes())
def test_generated_coboundary_rank_matches_independent_elimination(cx):
    # the sparse rows over face ids, the exact loop over Q and the cap at
    # dim C^k - rank delta^(k-1), against the definition and plain elimination;
    # the one pass per face holds the ranks of the degrees k >= |tau| - 1
    for p, field in ((0, QQ), (2, GF(2)), (3, GF(3))):
        for tau in cx.faces():
            ranks = cohomology._pair_ranks(cx, tau, field)
            for k in range(-2, cx.dim + 2):
                rows, _ = _reference_coboundary_rows(cx, tau, k, p)
                j = k + 1 - len(tau)
                assert (ranks[j][1] if 0 <= j < len(ranks) else 0) == _oracle_rank(rows, p)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_complexes())
def test_generated_star_is_the_faces_containing_tau(cx):
    # the walk up the coface table against the brute-force set, by size
    ids = face_table(cx)[2]
    for tau in cx.faces():
        assert cohomology._star(cx, tau) == [
            sorted(ids[G] for G in cx.faces() if tau <= G and len(G) == s)
            for s in range(cx.dim + 2)]
    assert cohomology._star(cx, frozenset({cx.n + 1})) == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_degree_of_a_face_is_one_pass(monkeypatch, rp2_6, field):
    # on a fresh rp2_6, every degree of H^*(X, cost tau) runs at most one
    # sparse_rank per level of the star from the link's edges up into the
    # next, none for the link's first two levels, and a second read
    # eliminates nothing
    cx = SimplicialComplex(rp2_6.n, rp2_6.facets)
    ranks, inserts = [], []
    real_rank, real_insert = cohomology.sparse_rank, linalg._echelon_insert
    monkeypatch.setattr(cohomology, "sparse_rank", lambda *a: ranks.append(a) or real_rank(*a))
    monkeypatch.setattr(linalg, "_echelon_insert",
                        lambda *a: inserts.append(a) or real_insert(*a))
    faces = (frozenset(), frozenset({1}), frozenset({1, 2}))
    for tau in faces:
        dims = [relative_cohomology_dim(cx, tau, i, field) for i in range(-2, cx.dim + 2)]
        above_edges = sum(1 for level in cohomology._star(cx, tau)[len(tau) + 3:] if level)
        if tau:
            # the links of {1} (a 5-cycle) and {1, 2} (two points) have no
            # triangles: their ranks come from the coface table alone
            assert above_edges == 0 and not ranks and not inserts
        else:
            # RP^2 has triangles, so the empty face still eliminates
            assert 0 < len(ranks) <= above_edges and inserts
        ranks.clear()
        inserts.clear()
        assert [relative_cohomology_dim(cx, tau, i, field) for i in range(-2, cx.dim + 2)] == dims
        assert not ranks and not inserts
    # the memo holds one rank tuple per (face, field), none per degree
    assert [args for fn, args in cx._memo if fn is cohomology._pair_ranks.__wrapped__] == [
        (tau, field) for tau in faces]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_complexes())
def test_generated_rank_route_and_link_iso(cx):
    for field in (QQ, GF(2)):
        for F in cx.faces():
            link = cx.link(F)
            for i in range(0, cx.d + 1):
                got = relative_cohomology_dim(cx, F, i - 1, field)
                assert got == relative_cohomology(cx, F, i - 1, field).ncols
                assert got == reduced_cohomology_dim(link, i - 1 - len(F), field)


# ---------------------------------------------------------------------------
# link isomorphism and induced maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
def test_link_isomorphism(complexes, field):
    for cx in complexes.values():
        for F in cx.faces():
            link = cx.link(F)
            for i in range(-1, cx.dim + 1):
                assert (
                    relative_cohomology(cx, F, i, field).ncols
                    == reduced_cohomology_dim(link, i - len(F), field)
                )


def test_induced_map_same_face_is_identity(bowtie):
    m = induced_map(bowtie, {3}, {3}, 1, QQ)
    assert m == Matrix(QQ, [[1]])


def test_induced_map_into_vanishing_target(bowtie):
    m = induced_map(bowtie, {3}, frozenset(), 1, QQ)
    assert (m.nrows, m.ncols) == (0, 1)


def test_induced_map_nonvanishing_on_circle(cycle3):
    # both spaces one-dimensional and the extension survives in cohomology
    m = induced_map(cycle3, {1}, frozenset(), 1, QQ)
    assert (m.nrows, m.ncols) == (1, 1)
    assert rank(m) == 1


def test_induced_map_rejects_non_nested(bowtie):
    with pytest.raises(ValueError):
        induced_map(bowtie, {3}, {1}, 1, QQ)


@pytest.mark.parametrize("field", FIELDS)
def test_functoriality_of_induced_maps(complexes, field):
    chains = {
        "bowtie": [(frozenset(), {3}, {1, 3}), (frozenset(), {1}, {1, 2})],
        "octahedron": [(frozenset(), {1}, {1, 2}), (frozenset(), {2}, {1, 2, 3})],
        "rp2_6": [(frozenset(), {1}, {1, 2}), (frozenset(), {3}, {3, 4, 6})],
        "cycle3": [(frozenset(), {1}, {1, 2})],
        "pair_edges": [(frozenset(), {1}, {1, 2})],
    }
    for name, cx in complexes.items():
        for small, mid, big in chains[name]:
            small, mid, big = frozenset(small), frozenset(mid), frozenset(big)
            for i in range(0, cx.dim + 1):
                two_step = matmul(induced_map(cx, mid, small, i, field),
                                  induced_map(cx, big, mid, i, field))
                one_step = induced_map(cx, big, small, i, field)
                assert two_step == one_step


def test_basis_route_over_q_keeps_primitive_integer_rows(monkeypatch, rp2_6):
    # rp2_6 suspended twice (288 faces): the cocycle bases and induced maps
    # over Q at every face of up to two vertices come from the one sparse
    # loop, in integers: every echelon row is primitive with a positive
    # pivot, and the torsion brings pivots other than 1
    n, facets = rp2_6.n, [sorted(F) for F in rp2_6.facets]
    for _ in range(2):
        facets = [F + [v] for F in facets for v in (n + 1, n + 2)]
        n += 2
    cx = SimplicialComplex(n, facets)
    pivots, real = [], linalg._sparse_echelon

    def checked(rows, p, most):
        echelon = real(rows, p, most)
        for c, row in echelon.items():
            assert min(row) == c and all(type(x) is int for x in row.values())
            assert row[c] > 0 and math.gcd(*row.values()) == 1
            pivots.append(row[c])
        return echelon

    monkeypatch.setattr(linalg, "_sparse_echelon", checked)
    for big in cx.faces():
        if len(big) > 2:
            continue
        for i in range(-1, cx.dim + 1):
            dim = relative_cohomology_dim(cx, big, i, QQ)
            assert relative_cohomology(cx, big, i, QQ).ncols == dim
            for small in [big - {v} for v in big]:
                M = induced_map(cx, big, small, i, QQ)
                assert (M.nrows, M.ncols) == (relative_cohomology_dim(cx, small, i, QQ), dim)
    assert 1 in pivots and set(pivots) != {1}


def _span_rank(vectors, ncols, p):
    return len(gauss_jordan(vectors, ncols, p)[1])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(small_complexes())
def test_generated_induced_maps_are_classes_of_the_extensions(cx):
    # for F + {v} -> F in every degree: the target representatives are
    # independent modulo the column span of delta^(i-1) (by its definition),
    # and target reps . M minus the source reps extended by zero lies in that
    # span, decided by plain Gauss-Jordan apart from the library
    for p, field in ((None, QQ), (2, GF(2)), (32003, GF(32003))):
        for F in cx.faces():
            for v in range(1, cx.n + 1):
                big = F | {v}
                if v in F or big not in cx:
                    continue
                for i in range(-1, cx.dim + 1):
                    rows, _ = _reference_coboundary_rows(cx, F, i - 1, p)
                    dim = len(relative_cochain_basis(cx, F, i))
                    images = [list(col) for col in zip(*rows)] if rows else []
                    T = relative_cohomology(cx, F, i, field)
                    S = relative_cohomology(cx, big, i, field)
                    M = induced_map(cx, big, F, i, field)
                    assert (M.nrows, M.ncols) == (T.ncols, S.ncols)
                    base = _span_rank(images, dim, p)
                    reps = [T.column(t) for t in range(T.ncols)]
                    assert _span_rank(images + reps, dim, p) == base + T.ncols
                    index = relative_cochain_basis(cx, F, i).index
                    at = [index(G) for G in relative_cochain_basis(cx, big, i)]
                    TM = matmul(T, M)
                    for s in range(S.ncols):
                        diff = TM.column(s)
                        for r, x in zip(at, S.column(s)):
                            diff[r] -= x
                        assert _span_rank(images + [diff], dim, p) == base


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_induced_map_runs_no_elimination_once_both_spaces_are_memoized(monkeypatch, field):
    # a fresh octahedron, so no map is memoized: H^2(X) <- H^2(X, cost {1}),
    # both one-dimensional, from the echelon that chose the target's reps
    cx = SimplicialComplex(6, [[a, b, c] for a in (1, 2) for b in (3, 4) for c in (5, 6)])
    for tau in (frozenset(), frozenset({1})):
        assert len(cohomology._relative_cohomology(cx, tau, 2, field)[0]) == 1

    def boom(*args):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(linalg, "_echelon_insert", boom)
    monkeypatch.setattr(cohomology, "_echelon_insert", boom)
    M = induced_map(cx, {1}, frozenset(), 2, field)
    assert M.nrows == M.ncols == 1 and rank(M) == 1


@pytest.mark.parametrize("field", FIELDS)
def test_euler_characteristic(complexes, field):
    for cx in complexes.values():
        f = cx.f_vector()
        face_side = sum((-1) ** k * f[k + 1] for k in range(0, cx.dim + 1)) - 1
        coh_side = sum(
            (-1) ** i * reduced_cohomology_dim(cx, i, field) for i in range(-1, cx.dim + 1)
        )
        assert coh_side == face_side


# ---------------------------------------------------------------------------
# class layer digest: representatives and coordinates, not only ranks
# ---------------------------------------------------------------------------

CLASS_LAYER_DIGEST = "d71bac84fbfa132e32526c2ad67a48c651e0971c24f438aef576a7c4eb7b696a"


def _hash_matrix(h, M):
    h.update(f"{M.nrows}x{M.ncols}:".encode())
    h.update(",".join(str(Fraction(x)) for row in M.tolist() for x in row).encode())
    h.update(b";")


def test_class_layer_digest(complexes):
    """SHA-256 over every cocycle basis and every codimension-one induced map
    of the corpus over Q, F_2, F_3 and F_32003, pinned to known output."""
    h = hashlib.sha256()
    for name in sorted(complexes):
        cx = complexes[name]
        faces = sorted(cx.faces(), key=mixed_face_key)
        for field in (QQ, GF(2), GF(3), GF(32003)):
            for F in faces:
                for i in range(-1, cx.dim + 1):
                    h.update(f"{name} {field} {sorted(F)} {i}".encode())
                    _hash_matrix(h, relative_cohomology(cx, F, i, field))
                    for v in range(1, cx.n + 1):
                        if v not in F and F | {v} in cx:
                            h.update(f"<-{v}".encode())
                            _hash_matrix(h, induced_map(cx, F | {v}, F, i, field))
    assert h.hexdigest() == CLASS_LAYER_DIGEST
