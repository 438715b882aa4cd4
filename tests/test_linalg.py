"""Exact linear algebra: frozen examples plus randomized structural properties."""

import random
from fractions import Fraction

import numpy as np
import pytest

from facering.linalg import (
    GF,
    QQ,
    FieldSpec,
    Matrix,
    Solver,
    _rref,
    hstack,
    is_prime,
    kernel_basis,
    pivot_columns,
    rank,
    vstack,
)

FIELDS = [QQ, GF(2), GF(3), GF(32003)]


# ---------------------------------------------------------------------------
# field spec
# ---------------------------------------------------------------------------

def test_field_parse_roundtrip():
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("fp:32003") == GF(32003)
    assert str(GF(7)) == "fp:7"
    assert str(QQ) == "q"


@pytest.mark.parametrize("bad", ["fp:6", "fp:1", "fp:abc", "r", ""])
def test_field_parse_rejects(bad):
    with pytest.raises(ValueError):
        FieldSpec.parse(bad)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(32003)


def _matvec(M, v):
    """M v with plain integer or Fraction sums (no reduction mod p)."""
    assert len(v) == M.ncols
    return [sum(x * y for x, y in zip(row, v)) for row in M.tolist()]


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------

def test_rank_identity():
    assert rank(Matrix.identity(QQ, 2)) == 2


def test_kernel_all_ones_over_f5():
    K = kernel_basis(Matrix(GF(5), [[1, 1, 1]]))
    assert K.ncols == 2
    M = Matrix(GF(5), [[1, 1, 1]])
    for j in range(K.ncols):
        assert all(x % 5 == 0 for x in _matvec(M, K.column(j)))


def test_solver_reuse_matches_one_shot():
    for field in FIELDS:
        M = Matrix(field, [[1, 2, 0], [0, 1, 1]])
        solver = Solver(M)
        for b in ([1, 0], [0, 1], [3, 4]):
            x1 = solver.solve(b)
            got = _matvec(M, x1)
            if field.p is not None:
                got = [v % field.p for v in got]
                want = [v % field.p for v in b]
            else:
                want = list(b)
            assert got == want


# ---------------------------------------------------------------------------
# randomized structural properties
# ---------------------------------------------------------------------------

def _random_matrix(rng, field, nrows, ncols, lo=-4, hi=4):
    rows = [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(field, rows, ncols)


@pytest.mark.parametrize("field", FIELDS)
def test_rank_nullity_randomized(field):
    rng = random.Random(20240)
    for _ in range(30):
        m, n = rng.randint(0, 6), rng.randint(1, 7)
        M = _random_matrix(rng, field, m, n)
        K = kernel_basis(M)
        assert rank(M) + K.ncols == n
        for j in range(K.ncols):
            image = _matvec(M, K.column(j))
            if field.p is not None:
                image = [v % field.p for v in image]
            assert all(v == 0 for v in image)


@pytest.mark.parametrize("field", FIELDS)
def test_image_basis_spans_column_space(field):
    rng = random.Random(99)
    for _ in range(20):
        M = _random_matrix(rng, field, rng.randint(1, 6), rng.randint(1, 6))
        B = M.submatrix(range(M.nrows), pivot_columns(M))
        assert B.ncols == rank(M)
        assert rank(B) == B.ncols
        assert rank(hstack(B, M)) == B.ncols


def _reference_pivots(rows, ncols, p):
    """First-nonzero pivot columns by plain Gaussian elimination on Python ints."""
    rows = [[x % p for x in r] for r in rows]
    pivots, r = [], 0
    for c in range(ncols):
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p)
        for k2 in range(r + 1, len(rows)):
            f = rows[k2][c] * inv % p
            rows[k2] = [(x - f * y) % p for x, y in zip(rows[k2], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_prime_field_eliminations_agree(p):
    # forward elimination (ranks, pivots) against the reduced echelon form
    # (kernels, solving) and a plain-int reference; p = 2^31 - 1 takes entries
    # up to p - 1, so the int64 row update meets products just below 2^62
    field = GF(p)
    rng = random.Random(p)
    shapes = [(0, 0), (0, 5), (5, 0), (4, 4), (2, 9), (9, 2), (1, 1), (7, 7)]
    shapes += [(rng.randint(0, 10), rng.randint(0, 10)) for _ in range(40)]
    for m, n in shapes:
        density = rng.choice([0.0, 0.2, 0.6, 1.0])
        rows = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
        if m > 2 and n:  # a repeated row forces a rank drop
            rows[-1] = list(rows[0])
        M = Matrix(field, rows, n)
        pivots = pivot_columns(M)
        reduced, rref_pivots = _rref(M, n)
        assert pivots == rref_pivots == _reference_pivots(rows, n, p)
        for r, row in enumerate(reduced):
            assert [row[c] for c in pivots] == [int(r == s) for s in range(len(pivots))]
        K = kernel_basis(M)
        assert rank(M) + K.ncols == n
        for j in range(K.ncols):
            assert all(v % p == 0 for v in _matvec(M, K.column(j)))


def test_prime_field_entry_map():
    # ints by x % p, Fractions by the inverse of the denominator, other
    # integers (bool, numpy) through their index
    row = [Fraction(1, 2), Fraction(6, 3), -1, True, 2**70, np.int64(7)]
    assert Matrix(GF(5), [row]).tolist() == [[3, 2, 4, 1, 4, 2]]
    with pytest.raises(ValueError):
        Matrix(GF(5), [[Fraction(1, 5)]])


def test_float_entries_are_rejected():
    with pytest.raises(TypeError):
        Matrix(GF(5), [[2.7]])
    for entries in ([[0.5]], [[1, Fraction(1, 3), 2.0]]):
        M = Matrix(QQ, entries)
        for op in (rank, kernel_basis, Solver):
            with pytest.raises(TypeError):
                op(M)


def test_prime_field_agrees_with_rationals_on_tiny_entries():
    # entries in {-1,0,1} and size <= 5 keep all minors below 32003
    rng = random.Random(4242)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m)]
        assert rank(Matrix(QQ, rows)) == rank(Matrix(GF(32003), rows))


def test_pivot_columns_skip_dependent_columns():
    # past the base column, the first extra column is dependent and skipped
    base = Matrix.from_columns(QQ, [[1, 0, 0]], 3)
    extra = Matrix.from_columns(QQ, [[2, 0, 0], [0, 1, 0], [0, 1, 1]], 3)
    assert pivot_columns(hstack(base, extra)) == [0, 2, 3]


def test_kernel_of_wide_zero_row_matrix():
    M = Matrix(QQ, [], ncols=4)
    assert kernel_basis(M).ncols == 4
    assert rank(M) == 0


def test_matmul_and_stacks():
    A = Matrix(QQ, [[1, 2], [3, 4]])
    B = Matrix(QQ, [[0, 1], [1, 0]])
    assert (A @ B).tolist() == [[2, 1], [4, 3]]
    assert hstack(A, B).ncols == 4
    assert vstack(A, B).nrows == 4
    Ap = Matrix(GF(5), [[1, 2], [3, 4]])
    Bp = Matrix(GF(5), [[0, 1], [1, 0]])
    assert (Ap @ Bp).tolist() == [[2, 1], [4, 3]]
    assert (Ap @ Ap).tolist() == [[2, 0], [0, 2]]  # [[7, 10], [15, 22]] mod 5


def test_fraction_entries_are_exact():
    M = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert rank(M) == 1
    K = kernel_basis(M)
    assert K.ncols == 1
    assert all(x == 0 for x in _matvec(M, K.column(0)))
