"""Independent algebra for checking facering's outputs.

Nothing here imports facering.  Face counts, h-vectors, links and reduced
Betti numbers are recomputed from the facet lists with a plain sparse row
reduction (over Q with Fractions, or modulo a prime), which shares no code
and no pivoting scheme with the library's fraction-free Bareiss engine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def all_faces(facets) -> set:
    """Every face of the complex generated by the facets, the empty face included."""
    out = {frozenset()}
    for f in facets:
        f = tuple(f)
        for k in range(1, len(f) + 1):
            out.update(frozenset(c) for c in combinations(f, k))
    return out


def f_vector(faces) -> list[int]:
    """(f_{-1}, f_0, ..., f_dim) of a face set."""
    top = max(len(F) for F in faces)
    counts = [0] * (top + 1)
    for F in faces:
        counts[len(F)] += 1
    return counts


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def h_vector(f) -> list[int]:
    """h(t) = sum_i f_{i-1} t^i (1-t)^(d-i), expanded as a polynomial."""
    d = len(f) - 1
    h = [0] * (d + 1)
    for i, fi in enumerate(f):
        term = [0] * i + [fi]
        for _ in range(d - i):
            term = _poly_mul(term, [1, -1])
        for k, c in enumerate(term):
            h[k] += c
    return h


def quotient_hilbert(h, e: int, cutoff: int) -> list[int]:
    """Coefficients of h(t) / (1-t)^e in degrees 0..cutoff, by prefix sums."""
    series = list(h[: cutoff + 1]) + [0] * max(0, cutoff + 1 - len(h))
    for _ in range(e):
        acc = 0
        for j in range(len(series)):
            acc += series[j]
            series[j] = acc
    return series


def link_faces(faces, F) -> set:
    F = frozenset(F)
    return {G - F for G in faces if F <= G}


def rank(rows, p: int | None) -> int:
    """Rank of a sparse matrix given as rows {column: int}, over Q (p None) or F_p."""
    pivots: dict[int, dict] = {}
    for row in rows:
        if p is None:
            cur = {c: Fraction(v) for c, v in row.items() if v}
        else:
            cur = {c: v % p for c, v in row.items() if v % p}
        while cur:
            c = min(cur)
            prow = pivots.get(c)
            if prow is None:
                inv = 1 / cur[c] if p is None else pow(cur[c], -1, p)
                pivots[c] = {
                    cc: (v * inv if p is None else v * inv % p) for cc, v in cur.items()
                }
                break
            f = cur[c]
            for cc, v in prow.items():
                nv = cur.get(cc, 0) - f * v
                if p is not None:
                    nv %= p
                if nv:
                    cur[cc] = nv
                else:
                    cur.pop(cc, None)
    return len(pivots)


def reduced_betti(faces, p: int | None) -> dict[int, int]:
    """dim of reduced (co)homology in degrees -1..dim, from the augmented chain complex."""
    by_dim: dict[int, list] = {}
    for F in faces:
        by_dim.setdefault(len(F) - 1, []).append(tuple(sorted(F)))
    top = max(by_dim)
    index = {k: {F: i for i, F in enumerate(sorted(fs))} for k, fs in by_dim.items()}
    ranks = {}
    for k in range(0, top + 1):
        rows = []
        for F in index[k]:
            rows.append({index[k - 1][F[:j] + F[j + 1:]]: (-1) ** j for j in range(len(F))})
        ranks[k] = rank(rows, p)
    return {
        k: len(index[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in range(-1, top + 1)
    }


def singular_faces(faces, p: int | None) -> set:
    """Faces F whose link has reduced homology below dim(complex) - |F|."""
    dim = max(len(F) for F in faces) - 1
    out = set()
    for F in faces:
        betti = reduced_betti(link_faces(faces, F), p)
        if any(b for k, b in betti.items() if k < dim - len(F)):
            out.add(F)
    return out
