"""Hypothesis strategies shared by the generated-complex tests."""

from itertools import combinations

from hypothesis import strategies as st

from facering.complexes import SimplicialComplex

# the nonempty proper subsets of {1..6}, smallest first, so failures shrink
# toward small facets; a facet on all six vertices would absorb every other
_FACETS = [f for k in range(1, 6) for f in combinations(range(1, 7), k)]


@st.composite
def small_complexes(draw):
    """Complexes on at most 6 vertices generated by at most 5 distinct facets.

    The vertex count is the largest vertex of a facet, or one more (a vertex
    in no face), or 1 with no facets (the complex {emptyset}).  Drawn the
    other way round, a vertex count first and facets inside it, most draws
    repeat the few complexes on 1 to 3 vertices.
    """
    facets = draw(st.lists(st.sampled_from(_FACETS), max_size=5, unique=True))
    n = max((v for f in facets for v in f), default=0) + draw(st.integers(0, 1))
    return SimplicialComplex(max(1, min(n, 6)), facets)
