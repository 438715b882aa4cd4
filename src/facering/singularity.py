"""Singular faces, singularity dimension, and Cohen-Macaulay style criteria.

A face F is nonsingular when every reduced cohomology group of its link
vanishes below dimension dim(complex) - |F|; the singularity dimension is
the largest dimension of a singular face, with a sentinel of -infinity for
complexes without singular faces (exactly the Cohen-Macaulay ones, by
Reisner's criterion).  Buchsbaumness (Schenzel) and the codimension-c
Cohen-Macaulay conditions are expressed through links as well.

No link complex is built: H~^i(lk F) = H^(i+|F|)(X, cost F), so every link
condition is read from the parent's pair cohomology.  One table per (complex,
field) holds, for each face H, its depth, the least k >= |H| - 1 with
H^k(X, cost H) != 0 (capped at dim X), and the least depth of a face
containing H; it is filled from the largest faces down, so the second entry
reads the cofaces H + {v}.  One list of the facets containing H
(`facets_over`) serves three readers: when those facets share a vertex
outside H, lk H is a cone, which is acyclic, so depth H = dim X with no
elimination; the cofaces H + {v} are those of the vertices v of their union
outside H; and `is_cm_along` reads the dimension of lk H from the largest.
Every other depth reads one tuple of coboundary ranks per (face, field),
from one pass up the star of H in the coface table (`cohomology._pair_ranks`),
which holds every degree at once.  F is singular
iff depth F < dim X.  lk F is Cohen-Macaulay iff no face H containing F has
depth below top = dim lk F + |F| (the largest facet over F has top + 1
vertices), since the link of H - F in lk F is lk H.  The link route lives
only in the link-iso oracle of the verification ledger and in the tests.
"""

from __future__ import annotations

import math

from .cohomology import relative_cohomology_dim
from .complexes import SimplicialComplex, facets_over, mixed_face_key, per_complex
from .linalg import FieldSpec

NEG_INFINITY = -math.inf


@per_complex
def _depths(cx: SimplicialComplex, field: FieldSpec) -> dict:
    """Face H -> (depth H, least depth of a face containing H)."""
    if cx.is_void:
        return {}
    r = cx.dim
    table = {}
    for size in range(r + 1, -1, -1):
        for H in cx.faces_of_dim(size - 1):
            over = facets_over(cx, H)
            if over and frozenset.intersection(*over) - H:
                depth = r  # lk H is a cone, acyclic over every field
            else:
                depth = next((k for k in range(size - 1, r)
                              if relative_cohomology_dim(cx, H, k, field)), r)
            cofaces = (H | {v} for v in set().union(*over) - H)
            table[H] = (depth, min([depth, *(table[G][1] for G in cofaces)]))
    return table


def singular_faces(cx: SimplicialComplex, field: FieldSpec) -> list:
    r = cx.dim
    return sorted((F for F, (depth, _) in _depths(cx, field).items() if depth < r), key=mixed_face_key)


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
    top = max(map(len, facets_over(cx, F)), default=0) - 1
    return top - len(F) == i and _depths(cx, field)[F][1] >= top


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
