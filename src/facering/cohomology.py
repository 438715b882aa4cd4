"""Relative simplicial cohomology of pairs (complex, contrastar of a face).

The relative i-cochains of (X, cost tau) are spanned by the duals of the
i-faces containing tau, in lexicographic order.  The coboundary of the
cochain dual to a face G sends it to the sum of its cofaces G + {v} with
sign (-1)^(position of v in the sorted coface), the sign its coface list
in the face table holds (`complexes.face_table`).  Taking
tau = emptyset gives the reduced (augmented) complex, including the
(-1)-cochain dual to the empty face, so H^{-1} of the one-face complex
{emptyset} is the field.

Dimensions come from ranks alone: dim H^i = dim C^i - rank delta^i -
rank delta^(i-1), and a rank never builds a Matrix.  The star of tau, the
faces containing it by size, is one walk up the face table
(`complexes.face_table`): each level is the sorted union of the cofaces of
the level below.  One pass over the levels (`_pair_ranks`) gives
(dim C^k, rank delta^k) for every degree k >= |tau| - 1, one tuple per
(face, field).  The link's first two levels need no elimination:
rank delta^(|tau|-1) is 1 when lk tau has a vertex, and rank delta^|tau|
is the link's vertex count minus its component count, over every field,
counted by a union-find.  From the link's edges up, the row of delta^k at
a (k+1)-face H of the star gathers {-id of G: sign} from the coface lists
of the k-faces G, a sparse row of +-1 whose columns run backwards through
the lexicographic order, and `linalg.sparse_rank` eliminates the rows in
the lexicographic order of H.  Over Q the pivots are mostly +-1 and the
entries stay integers; torsion, such as that of rp2_6, brings a leading
entry other than +-1, which the same loop divides by exactly.  Since
delta^k delta^(k-1) = 0, rank delta^k <= dim C^k - rank delta^(k-1), and
the elimination stops there: on a face whose link has no cohomology in
degree k, the rows past the rank are never reduced.

Cocycle bases are built only for the contravariant maps induced by
contrastar inclusions, a second route to the same dimensions, on the same
star: a cochain is numbered by its place in its star level, and the
coboundaries are read off the coface lists (`coboundary_rows`).  One
echelon form per space (`_relative_cohomology`) takes the columns of
delta^(i-1), then each kernel vector z of delta^i
(`linalg.kernel_vectors`) with 1 at a tag column dim C^i +
(representatives so far).  Stored at a cochain pivot, z is a
representative; at a tag, z is a coboundary plus earlier representatives,
and its row is dropped.  So each row (u, a) has u - sum a_t rep_t a
coboundary.  Reduced, the rows give every map into the space with no
elimination (`_induced_map`): a source representative, moved through the
ids to the positions of the target star and extended by zero, clears
against them (`linalg._clear_pivots`) to tags alone, minus its
coordinates in the target classes.  Each target class keeps its row as
(source class, entry) pairs, which the θ stacks and the vertex maps read;
only the public `relative_cohomology` and `induced_map` write a dense
Matrix.

The sums over faces of Hochster's count, the kernel and quotient formulas
and the squarefree table weight dim H^k(X, cost F) by |F| alone, so one table
per (complex, k, field) holds each face's dimension (`cohomology_by_face`,
filled by `relative_cohomology_dim`) and their sums h_s over the faces of
size s (`cohomology_by_size`).

Stars, cochain bases and coboundary rows are not memoized; rank tuples,
cohomology tables, class representatives (sparse vectors) with their
reduced echelon forms and row labels, and induced maps (their rows) are
memoized on the complex object (`per_complex`) and freed with it.
Outputs are immutable, so an entry recomputed under a race is
indistinguishable from the first result.
"""

from __future__ import annotations

from types import MappingProxyType

from .complexes import SimplicialComplex, face_table, per_complex
from .linalg import (FieldSpec, Matrix, _clear_pivots, _echelon_insert, _kernel_vectors, _reduce,
                     sparse_rank)


def _star(cx: SimplicialComplex, tau: frozenset) -> list:
    """The faces containing tau, by size: ascending ids.

    A walk up the coface table from tau: each level is the sorted union of
    the cofaces of the level below.
    """
    _, start, ids, cofaces = face_table(cx)
    tid = ids.get(tau)
    if tid is None:
        return []
    star, level = [[] for _ in tau], [tid]
    while level:
        star.append(level)
        level = sorted({h for g in level for h, _ in cofaces[g]})
    return star + [[] for _ in range(len(start) - 1 - len(star))]


def _cochains(star: list, k: int) -> list:
    """The ids of the k-faces in the star: C^k(X, cost tau) has one row per id, ascending."""
    return star[k + 1] if 0 <= k + 1 < len(star) else []


def relative_cochain_basis(cx: SimplicialComplex, tau: frozenset, k: int) -> tuple:
    """k-dimensional faces containing tau, lexicographically ordered."""
    faces = face_table(cx)[0]
    return tuple(faces[g] for g in _cochains(_star(cx, tau), k))


def coboundary_rows(cx: SimplicialComplex, tau: frozenset, k: int) -> list[dict]:
    """Sparse rows of delta: C^k(X, cost tau) -> C^{k+1}(X, cost tau), as new dicts.

    The c-th k-face G of the star enters column c of the row of each coface,
    with the sign of its coface list.
    """
    return _coboundary_rows(_star(cx, tau), face_table(cx)[3], k)


def _coboundary_rows(star: list, cofaces: list, k: int) -> list[dict]:
    rows = {h: {} for h in _cochains(star, k + 1)}
    for c, g in enumerate(_cochains(star, k)):
        for h, sign in cofaces[g]:
            rows[h][c] = sign
    return list(rows.values())


@per_complex
def _pair_ranks(cx: SimplicialComplex, tau: frozenset, field: FieldSpec) -> tuple:
    """(dim C^k, rank delta^k) of (X, cost tau) for k = |tau| - 1, |tau|, ..., dim X.

    The first two ranks need no elimination.  delta^(|tau|-1) sends the
    one cochain dual to tau to its cofaces, so its rank is 1 when lk tau
    has a vertex.  delta^|tau| goes from the link's vertices to its edges,
    so over every field its rank is the number of vertices minus the
    number of components (`_forest_rank`).  From the link's edges up, the
    row of delta^k at a (k+1)-face H of the star gathers {-id of G: sign}
    from the coface lists of the k-faces G, and the rows go to `sparse_rank`
    in ascending H, at most dim C^k - rank delta^(k-1) of them eliminated
    (see the module docstring).
    """
    cofaces, levels = face_table(cx)[3], _star(cx, tau)[len(tau):]
    ranks, rank = [], 0
    for k, (level, above) in enumerate(zip(levels, levels[1:] + [[]])):
        most = len(level) - rank
        if not (most and above):
            rank = 0
        elif k == 0:  # tau to its cofaces
            rank = 1
        elif k == 1:  # the link's vertices to its edges
            rank = _forest_rank(cofaces, level)
        else:
            rows = {h: {} for h in above}
            for g in level:
                for h, sign in cofaces[g]:
                    rows[h][-g] = sign
            rank = sparse_rank(field, rows.values(), most)
        ranks.append((len(level), rank))
    return tuple(ranks)


def _forest_rank(cofaces: list, vertices: list) -> int:
    """The number of edges of a spanning forest of the graph whose vertices
    are the faces `vertices` and whose edges are their shared cofaces:
    the vertex count minus the component count.

    A union-find with path halving, so a long path stays linear.  Each
    coface joins the tree of the first vertex that reached it to the tree of
    the vertex g at hand, whose root stays g: every join hangs a root under g.
    """
    parent, first, joined = {}, {}, 0
    for g in vertices:
        parent[g] = g
        for h, _ in cofaces[g]:
            a = first.setdefault(h, g)
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            if a != g:
                parent[a] = g
                joined += 1
    return joined


def relative_cohomology_dim(cx: SimplicialComplex, tau, i: int, field: FieldSpec) -> int:
    """dim H^i(X, cost tau) = dim C^i - rank delta^i - rank delta^(i-1), with no basis."""
    tau = frozenset(tau)
    if tau not in cx:
        raise ValueError(f"{sorted(tau)} is not a face")
    ranks, j = _pair_ranks(cx, tau, field), i + 1 - len(tau)
    if not 0 <= j < len(ranks):
        return 0
    return ranks[j][0] - ranks[j][1] - (ranks[j - 1][1] if j else 0)


@per_complex
def cohomology_by_face(cx: SimplicialComplex, k: int, field: FieldSpec) -> MappingProxyType:
    """Face F -> dim H^k(X, cost F), for every face, from relative_cohomology_dim."""
    return MappingProxyType({F: relative_cohomology_dim(cx, F, k, field)
                             for F in face_table(cx)[0]})


@per_complex
def cohomology_by_size(cx: SimplicialComplex, k: int, field: FieldSpec) -> tuple:
    """(h_0, ..., h_d): h_s = sum of dim H^k(X, cost F) over the faces F of size s."""
    h = [0] * (0 if cx.is_void else cx.d + 1)
    for F, dim in cohomology_by_face(cx, k, field).items():
        h[len(F)] += dim
    return tuple(h)


def relative_cohomology(cx: SimplicialComplex, tau, i: int, field: FieldSpec) -> Matrix:
    """Cocycle representatives of a basis of H^i(X, cost tau), one per column.

    The rows follow relative_cochain_basis(cx, tau, i); the columns are
    independent modulo coboundaries.  tau = emptyset is reduced cohomology.
    """
    reps, _, labels = _relative_cohomology(cx, frozenset(tau), i, field)
    return Matrix.from_entries(field, len(labels), len(reps),
                               ((r, j, x) for j, rep in enumerate(reps) for r, x in rep))


@per_complex
def _relative_cohomology(cx: SimplicialComplex, tau: frozenset, i: int, field: FieldSpec) -> tuple:
    """(representatives of relative_cohomology as (row, entry) pairs, the
    reduced tagged echelon rows that chose them, the ids of the i-faces that
    label the rows; read only)."""
    if tau not in cx:
        raise ValueError(f"{sorted(tau)} is not a face")
    star, cofaces, p = _star(cx, tau), face_table(cx)[3], field.p
    labels = _cochains(star, i)
    row = {h: r for r, h in enumerate(labels)}
    echelon, dim, reps = {}, len(row), []
    for g in _cochains(star, i - 1):  # the columns of delta^(i-1)
        _echelon_insert(echelon, {row[h]: sign for h, sign in cofaces[g]}, p)
    for z in _kernel_vectors(_coboundary_rows(star, cofaces, i), dim, p):
        pivot = _echelon_insert(echelon, {**z, dim + len(reps): 1}, p)
        if pivot < dim:
            reps.append(tuple(sorted(z.items())))
        else:
            del echelon[pivot]
    _reduce(echelon, p)
    return tuple(reps), echelon, labels


def reduced_cohomology_dim(cx: SimplicialComplex, i: int, field: FieldSpec) -> int:
    """dim of reduced simplicial cohomology of the complex itself."""
    if cx.is_void:
        raise ValueError("reduced cohomology of the void complex")
    return relative_cohomology_dim(cx, frozenset(), i, field)


def induced_map(cx: SimplicialComplex, f_big, f_small, i: int, field: FieldSpec) -> Matrix:
    """Matrix of the contravariant map H^i(X|f_big) -> H^i(X|f_small), f_small inside f_big.

    A representative supported on faces containing f_big is extended by zero
    to the cochain space over f_small, then rewritten in the target basis
    modulo coboundaries.
    """
    f_big, f_small = frozenset(f_big), frozenset(f_small)
    rows = _induced_map(cx, f_big, f_small, i, field)
    return Matrix.from_entries(field, len(rows), len(_relative_cohomology(cx, f_big, i, field)[0]),
                               ((r, s, x) for r, row in enumerate(rows) for s, x in row))


@per_complex
def _induced_map(cx: SimplicialComplex, f_big: frozenset, f_small: frozenset, i: int,
                 field: FieldSpec) -> tuple:
    """The rows of induced_map, one per target class, as (source class, nonzero entry) pairs."""
    if not f_small <= f_big:
        raise ValueError("the target face must be contained in the source face")
    source, _, big = _relative_cohomology(cx, f_big, i, field)
    if f_big == f_small:
        return tuple(((s, 1),) for s in range(len(source)))
    target, echelon, small = _relative_cohomology(cx, f_small, i, field)
    at = {g: c for c, g in enumerate(small)}
    dim, p = len(at), field.p
    rows = [[] for _ in target]
    for s, rep in enumerate(source):
        w = {at[big[r]]: x for r, x in rep}
        _clear_pivots(w, echelon, p)
        if any(c < dim for c in w):
            raise AssertionError("cocycle does not reduce against the stored bases")
        for c, x in sorted(w.items()):
            rows[c - dim].append((s, -x % p if p else -x))
    return tuple(map(tuple, rows))
