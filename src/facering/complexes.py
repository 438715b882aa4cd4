"""Simplicial complexes on the vertex set {1, ..., n}, stored by their facets.

Faces are frozensets of 1-based vertex labels.  Wherever faces are listed,
they are ordered by size and then by the sorted tuple of their vertices
(lexicographically), so every matrix built downstream has a reproducible
layout.  The faces are closed as those sorted tuples, the combinations of
each facet's sorted vertices, so a subface shared by many facets costs a
duplicate tuple, not a new frozenset; one sort per size fixes the order,
and each distinct face becomes one frozenset.

That order numbers the faces once per complex: the face table
(`face_table`) gives each face its id and the signed entries of its
cofaces.  The pair cohomology walks up this table from a face to its star,
and the depth table of `singularity` reads it from the largest faces down.

Two degenerate complexes are distinguished by an explicit flag: the complex
{emptyset} (facet list empty, not void) and the void complex (no faces at
all).

Derived data is memoized on the complex itself (`per_complex`) and freed
with it, such as the degree-r monomials, built once their size guard
passes, their supports, and the lattice table that steps each of them up
to degree r + 1.

The library works on monomials as packed integers, never as exponent
tuples.  Within the lattice table of degree r, an exponent vector U is
coded as the sum of U[t] * 2^(w * (n - 1 - t)) with w = (r + 1).bit_length():
vertex 1 is the most significant digit, so ascending codes follow the lex
order, and T + e_t is one int addition.  The width follows the degree so
that every exponent of degrees r and r + 1 fits its digit, whatever the
degree.  A fixed width would be correct only by the size guard, which
counts monomials, not degrees: it caps the degree of a complex with an
edge (r - 1 monomials in degree r) near DEFAULT_BASIS_LIMIT, but a
0-dimensional complex reaches any degree.  The codes of one degree are
memoized per (r, w), so consecutive tables share them except where the
width grows.  Only `degree_monomials` decodes them into tuples, for
readers outside the library.
"""

from __future__ import annotations

from functools import wraps
from itertools import accumulate, combinations
from math import comb

DEFAULT_BASIS_LIMIT = 200_000


class SizeLimitError(ValueError):
    """A requested basis enumeration exceeds the configured size guard."""


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
    __slots__ = ("n", "facets", "is_void", "_faces", "_order", "_start", "_memo", "_hash")

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
        # absorb inclusion-dominated entries: a facet over f passes through
        # every vertex of f, so f is tested against those through its rarest
        through = {}
        for f in clean:
            for v in f:
                through.setdefault(v, []).append(f)
        maximal = [f for f in clean
                   if not any(f < g for g in min((through[v] for v in f), key=len))]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facets", frozenset(maximal))
        object.__setattr__(self, "is_void", bool(is_void))
        object.__setattr__(self, "_faces", None)
        object.__setattr__(self, "_order", None)
        object.__setattr__(self, "_start", None)
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
        """All faces; more than DEFAULT_BASIS_LIMIT of them raises SizeLimitError.

        The faces are closed as sorted tuples and kept in the order of the
        face table (see the module docstring).  The guard counts the empty face.
        """
        if self._faces is None:
            by_size = [] if self.is_void else [{()}] + [set() for _ in range(self.d)]
            for f in self.facets:
                if 2 ** len(f) > DEFAULT_BASIS_LIMIT:
                    raise SizeLimitError(
                        f"a facet on {len(f)} vertices has 2^{len(f)} faces, "
                        f"above the guard of {DEFAULT_BASIS_LIMIT}"
                    )
                members = sorted(f)
                for k in range(1, len(members) + 1):
                    by_size[k].update(combinations(members, k))
                if sum(map(len, by_size)) > DEFAULT_BASIS_LIMIT:
                    raise SizeLimitError(
                        f"the complex has more than {DEFAULT_BASIS_LIMIT} faces, "
                        "above the guard"
                    )
            order = tuple(frozenset(t) for level in by_size for t in sorted(level))
            object.__setattr__(self, "_order", order)
            object.__setattr__(self, "_start", tuple(accumulate(map(len, by_size), initial=0)))
            object.__setattr__(self, "_faces", frozenset(order))
        return self._faces

    def __contains__(self, F) -> bool:
        return frozenset(F) in self.faces()

    def faces_of_dim(self, k: int) -> list:
        """All k-dimensional faces in lexicographic order; k = -1 gives [emptyset].

        A slice of the faces in the order of the face table.
        """
        if k < -1:
            raise ValueError("dimension below -1")
        self.faces()
        start = self._start
        return list(self._order[start[k + 1]:start[k + 2]]) if k + 2 < len(start) else []

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


@per_complex
def face_table(cx: SimplicialComplex) -> tuple[tuple, tuple, dict, list]:
    """(faces, start, face -> id, cofaces), one pass over the faces by id.

    faces lists every face by id, the faces of size s at start[s] ..
    start[s + 1] - 1.  cofaces[g] holds (id of G + {v}, sign) for each
    coface of the face G with id g, ascending, sign (-1)^(position of v in
    the sorted coface).  Each face H is read as its sorted tuple t, held only
    while the table is built: its boundary faces are combinations(t, |H| - 1),
    which omit the positions |H| - 1, ..., 1, 0 in turn, and have smaller
    ids, so they are already in the tuple -> id index.
    """
    cx.faces()
    faces, ids, index = cx._order, {}, {}
    # odd[s]: the parities of the omitted positions s - 1, ..., 1, 0 in turn
    odd = [[pos & 1 for pos in range(s - 1, -1, -1)] for s in range(len(cx._start))]
    cofaces = [[] for _ in faces]
    for h, H in enumerate(faces):
        t = tuple(sorted(H))
        ids[H] = index[t] = h
        if t:
            entry = (h, 1), (h, -1)  # shared by the faces of H
            for G, parity in zip(combinations(t, len(t) - 1), odd[len(t)]):
                cofaces[index[G]].append(entry[parity])
    return faces, cx._start, ids, cofaces


@per_complex
def count_degree_monomials(cx: SimplicialComplex, r: int) -> int:
    """Number of degree-r monomials whose support is a face (compositions
    count); each size guard reads it, so it is memoized."""
    if r < 0:
        return 0
    if r == 0:
        return 0 if cx.is_void else 1
    return sum(comb(r - 1, len(F) - 1) for F in cx.faces() if F)


def degree_monomials(cx: SimplicialComplex, r: int) -> tuple:
    """Exponent vectors U in N^n with |U| = r and support(U) a face, in lex order.

    This is simultaneously the degree-r monomial basis of the face ring and
    the index set V_r of the finely graded local cohomology pieces.  Each
    nonempty face F carries the compositions of r into |F| positive parts,
    one per choice of |F| - 1 cut points in 1..r-1, which is the sum that
    count_degree_monomials counts.  More than DEFAULT_BASIS_LIMIT of them
    raise SizeLimitError before any is built or looked up.

    The tuples are decoded, once per (complex, r), from the codes of the
    lattice table of degree r (see the module docstring), where each
    exponent fits its digit; the library itself reads only the codes.
    """
    _guard(cx, r)
    return _monomial_tuples(cx, r)


@per_complex
def _monomial_tuples(cx: SimplicialComplex, r: int) -> tuple:
    w = _width(r)
    mask, shifts = (1 << w) - 1, [w * (cx.n - v) for v in range(1, cx.n + 1)]
    return tuple(tuple(code >> s & mask for s in shifts) for code in _coded(cx, r, w)[0])


def monomial_supports(cx: SimplicialComplex, r: int) -> tuple:
    """The support of each degree-r monomial, in the order of degree_monomials:
    the face itself, as cx.faces() holds it, so monomials on one face share it."""
    _guard(cx, r)
    return _coded(cx, r, _width(r))[1]


def _guard(cx: SimplicialComplex, r: int) -> None:
    """The size guard on the degree-r monomials, run before any is built or looked up."""
    total = count_degree_monomials(cx, r)
    if total > DEFAULT_BASIS_LIMIT:
        raise SizeLimitError(
            f"degree-{r} basis has {total} elements, above the guard of {DEFAULT_BASIS_LIMIT}"
        )


def _width(r: int) -> int:
    """Bits per exponent in the lattice table of degree r, whose monomials
    of degree r + 1 have exponents up to r + 1 < 2^width."""
    return (r + 1).bit_length()


@per_complex
def _coded(cx: SimplicialComplex, r: int, w: int) -> tuple[tuple, tuple]:
    """(the codes at width w of the degree-r monomials, ascending; their supports).

    The exponent of vertex v is the digit at bit w * (n - v), which holds
    it when r < 2^w; then ascending codes follow the lex order.
    """
    if r < 0 or cx.is_void:
        return (), ()
    if r == 0:
        return (0,), (frozenset(),)
    support = {}
    for F in cx.faces():
        if F:
            places = [1 << w * (cx.n - v) for v in sorted(F)]
            support.update(dict.fromkeys(_compositions(r, places), F))
    codes = sorted(support)
    return tuple(codes), tuple(map(support.__getitem__, codes))


def _compositions(r: int, places: list):
    """The codes sum of a_j places[j] over the compositions of r into
    len(places) positive parts a_j.  A vertex face has the one monomial
    r e_v, built directly, whatever r, and an edge's codes are a range."""
    if len(places) == 1:
        return (r * places[0],)
    first, rest = places[0], places[1:]
    if not rest[1:]:
        # a e_first + (r - a) e_second codes as r second + a (first - second)
        step = first - rest[0]
        return range(r * rest[0] + step, r * rest[0] + r * step, step)
    out = []
    for a in range(1, r - len(rest) + 1):
        out += map((a * first).__add__, _compositions(r - a, rest))
    return out


def monomial_table(cx: SimplicialComplex, r: int) -> tuple[tuple, tuple]:
    """(supports, steps) of the degree-r monomials, in the order of degree_monomials.

    supports is monomial_supports(cx, r).  steps[k] is a flat tuple of ints
    c, t, c, t, ...: one pair for each t with T + e_t a monomial, T the k-th
    monomial of degree r and c the position of T + e_t in
    degree_monomials(cx, r + 1), c ascending.  It is read off each monomial
    nu of degree r + 1: nu - e_t, for every t in its support, has a face as
    support, so it has degree r.  Both degrees are coded at the width of
    degree r (`_width`), so nu - e_t is one subtraction and its position
    one int lookup.  The size guards of degrees r and r + 1 apply on every
    call.
    """
    supports = monomial_supports(cx, r)
    _guard(cx, r + 1)
    return supports, _monomial_steps(cx, r)


@per_complex
def _monomial_steps(cx: SimplicialComplex, r: int) -> tuple:
    w = _width(r)
    lower = _coded(cx, r, w)[0]
    index = dict(zip(lower, range(len(lower))))
    unit = [1 << w * (cx.n - v) for v in range(cx.n + 1)]  # unit[v]: the code of e_v
    steps = [[] for _ in lower]
    for c, (nu, F) in enumerate(zip(*_coded(cx, r + 1, w))):
        for v in F:
            steps[index[nu - unit[v]]] += c, v - 1
    return tuple(map(tuple, steps))
