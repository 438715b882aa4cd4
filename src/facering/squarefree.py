"""Enumerative calculus of squarefree-degree data.

A module generated and related in 0/1 multidegrees is determined by the
dimensions of its squarefree pieces; this module manipulates just those
dimension tables.  Hilbert functions of the module and of its quotient by
generic linear forms, and the quotient's predicted local cohomology, are all
binomial sums over the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import cohomology_by_face
from .complexes import SimplicialComplex
from .linalg import FieldSpec
from .local_cohomology import binom0


@dataclass(frozen=True)
class SqfreeData:
    """Map from squarefree degrees (subsets of [n]) to dimensions; zeros omitted."""

    n: int
    dims: tuple  # of (frozenset, int), sorted

    @staticmethod
    def from_dict(n: int, table: dict) -> "SqfreeData":
        clean = []
        for F, value in table.items():
            F = frozenset(F)
            if any(not isinstance(v, int) or not 1 <= v <= n for v in F):
                raise ValueError("squarefree degree outside the vertex range")
            if value < 0:
                raise ValueError("dimensions must be nonnegative")
            if value:
                clean.append((F, int(value)))
        clean.sort(key=lambda item: (len(item[0]), tuple(sorted(item[0]))))
        return SqfreeData(n, tuple(clean))

    def items(self):
        return self.dims

    def __len__(self):
        return len(self.dims)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dims": [
                {"F": [1 if v in F else 0 for v in range(1, self.n + 1)], "dim": value}
                for F, value in self.dims
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "SqfreeData":
        n = data["n"]
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count {n!r} is not a nonnegative integer")
        table = {}
        for entry in data["dims"]:
            vec, dim = entry["F"], entry["dim"]
            if len(vec) != n or any(type(x) is not int or x not in (0, 1) for x in vec):
                raise ValueError("squarefree degree must be a 0/1 vector of length n")
            if type(dim) is not int:
                raise ValueError(f"dimension {dim!r} is not an integer")
            F = frozenset(v + 1 for v, x in enumerate(vec) if x)
            table[F] = table.get(F, 0) + dim
        return SqfreeData.from_dict(n, table)


def sqfree_data_of_face_ring(cx: SimplicialComplex) -> SqfreeData:
    """The face ring's table: one in every face degree, zero elsewhere."""
    if cx.is_void:
        raise ValueError("void complex")
    return SqfreeData.from_dict(cx.n, {F: 1 for F in cx.faces()})


def sqfree_lc_data(cx: SimplicialComplex, j: int, field: FieldSpec) -> SqfreeData:
    """Squarefree table of the j-th local cohomology: F -> dim H^{j-1}(X|F)."""
    if j > cx.d:
        raise ValueError("cohomological degree above the Krull dimension")
    return SqfreeData.from_dict(cx.n, cohomology_by_face(cx, j - 1, field))


def sqfree_hilbert(data: SqfreeData, i: int) -> int:
    """Hilbert function of the module: sum_F C(i-1, |F|-1) * dims[F].

    The empty degree contributes exactly at i = 0 (the empty monomial).
    """
    if i < 0:
        raise ValueError("degree must be nonnegative")
    total = 0
    for F, value in data.items():
        if not F:
            if i == 0:
                total += value
            continue
        total += binom0(i - 1, len(F) - 1) * value
    return total


def sqfree_quotient_hilbert(data: SqfreeData, m: int, i: int) -> int:
    """Hilbert function of the quotient by m generic forms, valid for i > m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if i <= m:
        raise ValueError("the quotient formula is only asserted for i > m")
    return sum(binom0(i - m - 1, len(F) - m - 1) * value for F, value in data.items())


def sqfree_quotient_lc(data: SqfreeData, m: int, i: int) -> int:
    """Quotient local cohomology prediction from a squarefree cohomology table.

    The table is expected to hold the dimensions in cohomological degree
    l + m; the result predicts the Z-degree -i piece in degree l.
    """
    if i < 1:
        raise ValueError("i must be positive")
    return sum(binom0(i - 1, len(F) - m - 1) * value for F, value in data.items())
