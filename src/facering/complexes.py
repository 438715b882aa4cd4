"""Simplicial complexes on the vertex set {1, ..., n}, stored by their facets.

Faces are frozensets of 1-based vertex labels.  Wherever faces are listed,
they are ordered by the sorted tuple of their vertices (lexicographically),
so every matrix built downstream has a reproducible layout.

Two degenerate complexes are distinguished by an explicit flag: the complex
{emptyset} (facet list empty, not void) and the void complex (no faces at
all).
"""

from __future__ import annotations

from functools import wraps
from itertools import combinations
from math import comb

Face = frozenset

DEFAULT_BASIS_LIMIT = 200_000


class SizeLimitError(ValueError):
    """A requested basis enumeration exceeds the configured size guard."""


def face_key(F) -> tuple:
    return tuple(sorted(F))


def mixed_face_key(F) -> tuple:
    return (len(F), tuple(sorted(F)))


def per_complex(fn):
    """Memoize fn(cx, *args) in cx's own memo, so the entries are freed with cx.

    Entries are keyed by identity of the complex, not by value: two equal
    complexes built separately share nothing.
    """

    @wraps(fn)
    def memoized(cx, *args):
        memo = cx._memo
        key = (fn, args)
        try:
            return memo[key]
        except KeyError:
            pass
        value = memo[key] = fn(cx, *args)
        return value

    return memoized


class SimplicialComplex:
    __slots__ = ("n", "facets", "is_void", "_faces", "_by_dim", "_memo", "_hash")

    def __init__(self, n: int, facets, is_void: bool = False):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError("vertex count must be a positive integer")
        clean = set()
        for f in facets:
            fs = frozenset(f)
            if not fs:
                raise ValueError("facets must be nonempty (use the void/empty flags)")
            for v in fs:
                if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= n:
                    raise ValueError(f"vertex index {v!r} out of range [1, {n}]")
            clean.add(fs)
        if is_void and clean:
            raise ValueError("the void complex has no facets")
        # absorb inclusion-dominated entries
        maximal = {f for f in clean if not any(f < g for g in clean)}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facets", frozenset(maximal))
        object.__setattr__(self, "is_void", bool(is_void))
        object.__setattr__(self, "_faces", None)
        object.__setattr__(self, "_by_dim", None)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("SimplicialComplex is immutable")

    # -- basic structure ----------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension; the complex {emptyset} has dimension -1."""
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max((len(f) for f in self.facets), default=0) - 1

    @property
    def d(self) -> int:
        """dim + 1, the Krull dimension of the face ring."""
        return self.dim + 1

    def faces(self) -> frozenset:
        """All faces; more than DEFAULT_BASIS_LIMIT of them raises SizeLimitError."""
        if self._faces is None:
            if self.is_void:
                fs = frozenset()
            else:
                acc = {frozenset()}
                for f in self.facets:
                    if 2 ** len(f) > DEFAULT_BASIS_LIMIT:
                        raise SizeLimitError(
                            f"a facet on {len(f)} vertices has 2^{len(f)} faces, "
                            f"above the guard of {DEFAULT_BASIS_LIMIT}"
                        )
                    members = sorted(f)
                    for k in range(1, len(members) + 1):
                        acc.update(frozenset(c) for c in combinations(members, k))
                    if len(acc) > DEFAULT_BASIS_LIMIT:
                        raise SizeLimitError(
                            f"the complex has more than {DEFAULT_BASIS_LIMIT} faces, "
                            "above the guard"
                        )
                fs = frozenset(acc)
            object.__setattr__(self, "_faces", fs)
        return self._faces

    def __contains__(self, F) -> bool:
        return frozenset(F) in self.faces()

    def faces_of_dim(self, k: int) -> list:
        """All k-dimensional faces in lexicographic order; k = -1 gives [emptyset].

        The faces are sorted once per complex; each call copies one bucket.
        """
        if k < -1:
            raise ValueError("dimension below -1")
        if self._by_dim is None:
            buckets = {}
            for f in sorted(self.faces(), key=face_key):
                buckets.setdefault(len(f), []).append(f)
            object.__setattr__(self, "_by_dim", buckets)
        return list(self._by_dim.get(k + 1, ()))

    def vertices(self) -> list[int]:
        return sorted({v for f in self.facets for v in f})

    def is_pure(self) -> bool:
        sizes = {len(f) for f in self.facets}
        return len(sizes) <= 1

    # -- derived complexes ----------------------------------------------------

    def link(self, F) -> "SimplicialComplex":
        """lk F: faces disjoint from F whose union with F is a face."""
        F = frozenset(F)
        if F not in self:
            raise ValueError(f"{sorted(F)} is not a face")
        if not F:
            return self
        over = [f - F for f in self.facets if F <= f]
        return SimplicialComplex(self.n, [g for g in over if g])

    # -- enumeration ----------------------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        """(f_{-1}, f_0, ..., f_{dim})."""
        if self.is_void:
            raise ValueError("the void complex has no f-vector")
        counts = [0] * (self.dim + 2)
        for f in self.faces():
            counts[len(f)] += 1
        return tuple(counts)

    def h_vector(self) -> tuple[int, ...]:
        """Binomial transform of the f-vector: h_j = sum_i (-1)^{j-i} C(d-i, d-j) f_{i-1}."""
        f = self.f_vector()
        d = self.d
        return tuple(
            sum((-1) ** (j - i) * comb(d - i, d - j) * f[i] for i in range(j + 1))
            for j in range(d + 1)
        )

    # -- identity / serialization ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.n, self.facets, self.is_void) == (other.n, other.facets, other.is_void)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, self.facets, self.is_void)))
        return self._hash

    def __repr__(self):
        if self.is_void:
            return f"SimplicialComplex(n={self.n}, void)"
        facets = sorted(self.facets, key=mixed_face_key)
        return f"SimplicialComplex(n={self.n}, facets={[sorted(f) for f in facets]})"

    def to_json(self) -> dict:
        data = {"n": self.n, "facets": [sorted(f) for f in sorted(self.facets, key=mixed_face_key)]}
        if self.is_void:
            data["void"] = True
        return data

    @staticmethod
    def from_json(data: dict) -> "SimplicialComplex":
        if not isinstance(data, dict) or "n" not in data or "facets" not in data:
            raise ValueError("complex JSON needs 'n' and 'facets' fields")
        is_void = data.get("void", False)
        if type(is_void) is not bool:
            raise ValueError(f"'void' must be true or false, got {is_void!r}")
        return SimplicialComplex(data["n"], data["facets"], is_void=is_void)


def count_degree_monomials(cx: SimplicialComplex, r: int) -> int:
    """Number of degree-r monomials whose support is a face (compositions count)."""
    if r < 0:
        return 0
    if r == 0:
        return 0 if cx.is_void else 1
    return sum(comb(r - 1, len(F) - 1) for F in cx.faces() if F)


def degree_monomials(cx: SimplicialComplex, r: int):
    """Exponent vectors U in N^n with |U| = r and support(U) a face, in lex order.

    This is simultaneously the degree-r monomial basis of the face ring and
    the index set V_r of the finely graded local cohomology pieces.  Each
    nonempty face F carries the compositions of r into |F| positive parts,
    one per choice of |F| - 1 cut points in 1..r-1, which is the sum that
    count_degree_monomials counts.  More than DEFAULT_BASIS_LIMIT of them
    raise SizeLimitError before any is built.
    """
    total = count_degree_monomials(cx, r)
    if total > DEFAULT_BASIS_LIMIT:
        raise SizeLimitError(
            f"degree-{r} basis has {total} elements, above the guard of {DEFAULT_BASIS_LIMIT}"
        )
    if r < 0 or cx.is_void:
        return []
    if r == 0:
        return [(0,) * cx.n]
    out = []
    for F in cx.faces():
        if not F:
            continue
        positions = [v - 1 for v in sorted(F)]
        for cuts in combinations(range(1, r), len(F) - 1):
            vec = [0] * cx.n
            for t, lo, hi in zip(positions, (0, *cuts), (*cuts, r)):
                vec[t] = hi - lo
            out.append(tuple(vec))
    out.sort()
    return out
