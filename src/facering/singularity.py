"""Singular faces, singularity dimension, and Cohen-Macaulay style criteria.

A face F is nonsingular when every reduced cohomology group of its link
vanishes below dimension dim(complex) - |F|; the singularity dimension is
the largest dimension of a singular face, with a sentinel of -infinity for
complexes without singular faces (exactly the Cohen-Macaulay ones, by
Reisner's criterion).  Buchsbaumness (Schenzel) and the codimension-c
Cohen-Macaulay conditions are expressed through links as well.

No link complex is built: H~^i(lk F) = H^(i+|F|)(X, cost F), so every link
condition is read from the parent's pair cohomology.  One table per
(complex, field) holds, for each face H, its depth, the least k >= |H| - 1
with H^k(X, cost H) != 0 (capped at dim X), the least depth of a face
containing H, and top H, one less than the size of the largest facet over H.
It is filled from the largest faces down, over the id ranges of the face
table (`complexes.face_table`), each face reading the entries of its
cofaces, with no scan of the facets: a face with no cofaces is a facet, and
the facets over any other face are those over its cofaces.  So the vertices
common to the facets over H are the intersection of its cofaces' (kept as
bit masks, for the level above only), and when they include a vertex
outside H, lk H is a cone, which is acyclic, so depth H = dim X with no
elimination.  H^(|H|-1)(X, cost H) = H~^-1(lk H) is nonzero exactly when H
is a facet, so a facet has depth |H| - 1, and the search for any other face
starts at degree |H|: a non-facet of size dim X reads no ranks at all.
Every other depth reads the one rank tuple of H that holds every degree
(`cohomology.relative_cohomology_dim`).  F is singular iff depth F < dim X.
lk F is Cohen-Macaulay iff no face H containing F has depth below top F =
dim lk F + |F|, since the link of H - F in lk F is lk H.  The link route
lives only in the link-iso oracle of the verification ledger and in the
tests.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import and_

from .cohomology import relative_cohomology_dim
from .complexes import SimplicialComplex, face_table, mixed_face_key, per_complex
from .linalg import FieldSpec

NEG_INFINITY = -math.inf


@per_complex
def _depths(cx: SimplicialComplex, field: FieldSpec) -> dict:
    """Face H -> (depth H, least depth of a face containing H, top H)."""
    if cx.is_void:
        return {}
    r = cx.dim
    faces, start, _, cofaces = face_table(cx)
    table, above = {}, []
    for size in range(r + 1, -1, -1):
        # level[g - start[size]] for the face with id g: (least depth over
        # it, top, the vertices common to the facets over it as a bit mask);
        # above is the level of size + 1
        level, first = [], start[size + 1]
        for g in range(start[size], first):
            H, up = faces[g], [above[h - first] for h, _ in cofaces[g]]
            if not up:  # H is a facet: H^(|H|-1)(X, cost H) = H~^-1({emptyset}) != 0
                top, common = size - 1, sum(1 << v for v in H)
                depth = top  # at most r, with equality on the largest facets
            else:
                top = max(u[1] for u in up)
                common = reduce(and_, (u[2] for u in up))
                if common.bit_count() > size:
                    depth = r  # lk H is a cone, acyclic over every field
                else:  # H^(|H|-1)(X, cost H) = H~^-1(lk H) = 0, as lk H has a vertex
                    depth = next((k for k in range(size, r)
                                  if relative_cohomology_dim(cx, H, k, field)), r)
            least = min([depth, *(u[0] for u in up)])
            level.append((least, top, common))
            table[H] = depth, least, top
        above = level
    return table


def singular_faces(cx: SimplicialComplex, field: FieldSpec) -> list:
    r = cx.dim
    return sorted((F for F, (depth, _, _) in _depths(cx, field).items() if depth < r),
                  key=mixed_face_key)


def singularity_dimension(cx: SimplicialComplex, field: FieldSpec):
    """Max dimension of a singular face; NEG_INFINITY when there is none."""
    if cx.is_void:
        raise ValueError("the void complex has no singularity dimension")
    return max((len(F) - 1 for F in singular_faces(cx, field)), default=NEG_INFINITY)


def is_cm(cx: SimplicialComplex, field: FieldSpec) -> bool:
    """Reisner: Cohen-Macaulay over the field iff no face is singular."""
    return singularity_dimension(cx, field) == NEG_INFINITY


def is_buchsbaum(cx: SimplicialComplex, field: FieldSpec) -> bool:
    """Schenzel: pure, and the empty face is the only one allowed to be singular."""
    return cx.is_pure() and all(not F for F in singular_faces(cx, field))


def is_cm_along(cx: SimplicialComplex, F, i: int, field: FieldSpec) -> bool:
    """lk F is Cohen-Macaulay of dimension exactly i."""
    F = frozenset(F)
    if F not in cx:
        raise ValueError(f"{sorted(F)} is not a face")
    _, least, top = _depths(cx, field)[F]
    return top - len(F) == i and least >= top


def cm_in_codim(cx: SimplicialComplex, c: int, field: FieldSpec) -> bool:
    """CM of dimension c-1 along every face of dimension r-c (r = dim).

    For c > r+1 the condition is full Cohen-Macaulayness; for c < 0 there are
    no faces of dimension r-c and the condition holds vacuously.
    """
    if cx.is_void:
        raise ValueError("void complex")
    r = cx.dim
    if c > r + 1:
        return is_cm(cx, field)
    return all(is_cm_along(cx, F, c - 1, field) for F in cx.faces_of_dim(r - c))
