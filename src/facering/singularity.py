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
containing H, and top H, one less than the size of the largest facet
over H.  It is a list indexed by face id (`complexes.face_table`),
filled from the last id down, as a coface has a larger id than its face.
Each face reads the entries of its cofaces, with no scan of the facets: a
face with no cofaces is a facet, and the facets over any other face are
those over its cofaces.  So the face common to the facets over H, kept as its id, is
the intersection of its cofaces' (no intersection when they share one id),
and when it is larger than H, lk H is a cone, which is acyclic, so
depth H = dim X with no elimination.  H^(|H|-1)(X, cost H) = H~^-1(lk H) is
nonzero exactly when H is a facet, so a facet has depth |H| - 1, and the
search for any other face starts at degree |H|: a non-facet of size dim X
reads no ranks at all.  Every other depth reads the one rank tuple of H
that holds every degree (`cohomology.relative_cohomology_dim`).  F is
singular iff depth F < dim X.  lk F is Cohen-Macaulay iff no face H
containing F has depth below top F = dim lk F + |F|, since the link of
H - F in lk F is lk H.  The link route lives only in the link-iso oracle
of the verification ledger and in the tests.
"""

from __future__ import annotations

import math

from .cohomology import relative_cohomology_dim
from .complexes import SimplicialComplex, face_table, per_complex
from .linalg import FieldSpec

NEG_INFINITY = -math.inf


@per_complex
def _depths(cx: SimplicialComplex, field: FieldSpec) -> list:
    """(depth H, least depth of a face containing H, top H), indexed by the id of H."""
    if cx.is_void:
        return []
    r = cx.dim
    faces, _, ids, cofaces = face_table(cx)
    # common[g]: the id of the face common to the facets over the face with id g
    table, common = [None] * len(faces), [None] * len(faces)
    for g in reversed(range(len(faces))):  # cofaces have larger ids
        H, up = faces[g], cofaces[g]
        if not up:  # H is a facet: H^(|H|-1)(X, cost H) = H~^-1({emptyset}) != 0
            depth = top = len(H) - 1  # at most r, with equality on the largest facets
            common[g] = g
        else:
            top = max(table[h][2] for h, _ in up)
            shared = {common[h] for h, _ in up}
            common[g] = (shared.pop() if len(shared) == 1
                         else ids[frozenset.intersection(*[faces[c] for c in shared])])
            if len(faces[common[g]]) > len(H):
                depth = r  # lk H is a cone, acyclic over every field
            else:  # H^(|H|-1)(X, cost H) = H~^-1(lk H) = 0, as lk H has a vertex
                depth = next((k for k in range(len(H), r)
                              if relative_cohomology_dim(cx, H, k, field)), r)
        table[g] = depth, min([depth, *(table[h][1] for h, _ in up)]), top
    return table


def singular_faces(cx: SimplicialComplex, field: FieldSpec) -> list:
    r, faces = cx.dim, face_table(cx)[0]
    return [faces[g] for g, (depth, _, _) in enumerate(_depths(cx, field)) if depth < r]


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
    g = face_table(cx)[2].get(F)
    if g is None:
        raise ValueError(f"{sorted(F)} is not a face")
    _, least, top = _depths(cx, field)[g]
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
