"""Seeded generators for the complexes the benchmark feeds to facering.

Every complex is a plain list of facets on vertices 1..n, built here from
the workload seed alone; nothing is read from the repository.  A seed
changes vertex labels, glue points and random facets, never the sizes, so
the work per round stays comparable from seed to seed.
"""

from __future__ import annotations

import random
from itertools import combinations

RP2_6 = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]
OCTAHEDRON = [(a, b, c) for a in (1, 4) for b in (2, 5) for c in (3, 6)]
CORPUS = {
    "cycle3": (3, [(1, 2), (1, 3), (2, 3)]),
    "bowtie": (5, [(1, 2, 3), (3, 4, 5)]),
    "pair_edges": (4, [(1, 2), (3, 4)]),
    "octahedron": (6, OCTAHEDRON),
    "rp2_6": (6, RP2_6),
}


def relabel(n: int, facets, rng: random.Random):
    """The same complex under a random permutation of 1..n."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return n, sorted(tuple(sorted(perm[v - 1] for v in f)) for f in facets)


def simplex(n: int):
    return n, [tuple(range(1, n + 1))]


def cross_polytope_boundary(k: int):
    """Boundary of the k-dimensional cross-polytope on 2k vertices (a (k-1)-sphere)."""
    facets = [()]
    for i in range(1, k + 1):
        facets = [f + (v,) for f in facets for v in (i, i + k)]
    return 2 * k, facets


def join(a, b):
    """Join of two complexes; the vertices of b are shifted past those of a."""
    (na, fa), (nb, fb) = a, b
    return na + nb, [tuple(f) + tuple(v + na for v in g) for f in fa for g in fb]


def sphere_chain(k: int, rng: random.Random):
    """k boundaries of tetrahedra, each glued to the next at one vertex.

    Returns (n, facets, glue vertices).  The link of a glue vertex is two
    disjoint circles, so the glue vertices are exactly the singular faces.
    """
    facets, glue = [], []
    n = 4
    current = [1, 2, 3, 4]
    for s in range(k):
        facets += [tuple(sorted(c)) for c in combinations(current, 3)]
        if s == k - 1:
            break
        g = rng.choice(current if s == 0 else current[1:])
        glue.append(g)
        current = [g, n + 1, n + 2, n + 3]
        n += 3
    return n, facets, glue


def circle_chain(k: int, size: int, rng: random.Random):
    """k cycles of `size` vertices, each glued to the next at one vertex.

    A one-dimensional complex on many vertices, so that the genericity
    certificate of n x m coefficient matrices has weight.
    """
    facets = []
    cycle = list(range(1, size + 1))
    n = size
    for s in range(k):
        facets += [tuple(sorted((cycle[i], cycle[(i + 1) % size]))) for i in range(size)]
        if s == k - 1:
            break
        g = rng.choice(cycle if s == 0 else cycle[1:])
        cycle = [g] + list(range(n + 1, n + size))
        n += size - 1
    return n, facets


def random_pure(n: int, dim: int, count: int, rng: random.Random):
    """count distinct random dim-faces on n vertices, every vertex used."""
    pool = list(combinations(range(1, n + 1), dim + 1))
    while True:
        facets = sorted(rng.sample(pool, count))
        if len({v for f in facets for v in f}) == n:
            return n, facets


def to_json(n: int, facets) -> dict:
    return {"n": n, "facets": [list(f) for f in facets]}
