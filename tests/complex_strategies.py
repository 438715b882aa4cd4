"""Hypothesis strategies shared by the generated-complex tests."""

from hypothesis import strategies as st

from facering.complexes import SimplicialComplex


@st.composite
def small_complexes(draw):
    """Complexes on at most 6 vertices generated by at most 5 random facets."""
    n = draw(st.integers(1, 6))
    facets = draw(st.lists(st.frozensets(st.integers(1, n), min_size=1), max_size=5))
    return SimplicialComplex(n, facets)
