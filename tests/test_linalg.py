"""Exact linear algebra: frozen examples plus randomized structural properties."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from facering import linalg
from facering.linalg import (
    GF,
    QQ,
    FieldSpec,
    Matrix,
    _q_echelon,
    _q_int_rows,
    _rref,
    block_pivots,
    hstack,
    is_prime,
    kernel_basis,
    pivot_columns,
    rank,
    solve,
)

from matrices import matmul

FIELDS = [QQ, GF(2), GF(3), GF(32003)]


# ---------------------------------------------------------------------------
# field spec
# ---------------------------------------------------------------------------

def test_field_parse_roundtrip():
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("fp:32003") == GF(32003)
    assert str(GF(7)) == "fp:7"
    assert str(QQ) == "q"


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_field_copies_and_pickles_are_equal(field):
    # fields compare and hash by identity, so a copy must be the same field
    for copied in (copy.copy(field), copy.deepcopy(field), pickle.loads(pickle.dumps(field))):
        assert copied == field and hash(copied) == hash(field)
    assert GF(32003) != QQ and GF(32003) != GF(7) and GF(32003) != 32003
    with pytest.raises(ValueError):
        GF(32003.0)


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


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)])
def test_solve_rank_deficient_and_inconsistent(field):
    # row 3 = row 1 + row 2, so M has rank 2 and M X has third row = first + second
    M = Matrix(field, [[1, 2, 0, 1], [0, 1, 1, 1], [1, 3, 1, 2]])
    B = matmul(M, Matrix(field, [[1, 0, 5], [2, 1, 0], [0, 3, 1], [-1, 1, 1]]))
    X = solve(M, B)
    assert (X.nrows, X.ncols) == (4, 3) and matmul(M, X) == B
    pivots = pivot_columns(M)
    assert len(pivots) == 2
    assert all(X.column(j)[c] == 0 for j in range(3) for c in range(4) if c not in pivots)
    assert solve(M, Matrix(field, [[1, 0], [0, 0], [0, 1]])) is None  # column 2 is outside
    assert solve(M, Matrix(field, [[], [], []], 0)).ncols == 0
    empty = Matrix(field, [[], []], 0)
    assert solve(empty, Matrix(field, [[0], [0]])).nrows == 0
    assert solve(empty, Matrix(field, [[0], [1]])) is None


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
        assert rank(M) == len(pivots)
        for r, row in enumerate(reduced):
            assert [row[c] for c in pivots] == [int(r == s) for s in range(len(pivots))]
        K = kernel_basis(M)
        assert rank(M) + K.ncols == n
        for j in range(K.ncols):
            assert all(v % p == 0 for v in _matvec(M, K.column(j)))


def _reference_rref(rows, ncols, p):
    """Nonzero rows and pivot columns of the reduced echelon form mod p, by
    plain Gauss-Jordan on Python ints over all columns."""
    rows = [[x % p for x in r] for r in rows]
    pivots, r = [], 0
    for c in range(ncols):
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for k2 in range(len(rows)):
            f = rows[k2][c]
            if k2 != r and f:
                rows[k2] = [(x - f * y) % p for x, y in zip(rows[k2], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _reference_solve(rows, brows, ncols, width, p):
    """X with M X = B mod p, zero at the non-pivot columns of M, or None."""
    reduced, pivots = _reference_rref([a + b for a, b in zip(rows, brows)], ncols + width, p)
    if any(c >= ncols for c in pivots):
        return None
    X = [[0] * width for _ in range(ncols)]
    for row, c in zip(reduced, pivots):
        X[c] = row[ncols:]
    return X


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_prime_field_rref_and_solve_match_gauss_jordan(p):
    # wide, tall and zero-row matrices.  The reduced echelon form is unique,
    # so _rref(M, k) gives the reference's rows for every k, and its pivots
    # left of k; solve meets consistent right-hand sides wider than M and
    # inconsistent ones
    field = GF(p)
    rng = random.Random(p + 1)
    shapes = [(0, 4), (3, 8), (8, 3), (6, 6)]
    shapes += [(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(30)]
    inconsistent = 0
    for m, n in shapes:
        density = rng.choice([0.2, 0.5, 1.0])
        rows = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
        if m > 2:  # a dependent row
            rows[-1] = [(a + 2 * b) % p for a, b in zip(rows[0], rows[1])]
        M = Matrix(field, rows, n)
        want, want_pivots = _reference_rref(rows, n, p)
        for k in range(1, n + 1):
            assert _rref(M, k) == (want, [c for c in want_pivots if c < k])
        width = n + rng.randint(1, 3)
        X = Matrix(field, [[rng.randrange(p) for _ in range(width)] for _ in range(n)], width)
        B = matmul(M, X)
        assert solve(M, B).tolist() == _reference_solve(rows, B.tolist(), n, width, p)
        brows = [[rng.randrange(p) for _ in range(width)] for _ in range(m)]
        got = solve(M, Matrix(field, brows, width))
        assert (got and got.tolist()) == _reference_solve(rows, brows, n, width, p)
        inconsistent += got is None
    assert inconsistent > 5


class _Seven:
    """An integer that is not an int, as numpy's integer scalars are."""

    def __index__(self):
        return 7


def test_prime_field_entry_map():
    # ints by x % p, Fractions by the inverse of the denominator, other
    # integers (bool, any type with __index__) through their index
    row = [Fraction(1, 2), Fraction(6, 3), -1, True, 2**70, _Seven()]
    assert Matrix(GF(5), [row]).tolist() == [[3, 2, 4, 1, 4, 2]]
    with pytest.raises(ValueError):
        Matrix(GF(5), [[Fraction(1, 5)]])


def test_float_entries_are_rejected():
    with pytest.raises(TypeError):
        Matrix(GF(5), [[2.7]])
    for entries in ([[0.5]], [[1, Fraction(1, 3), 2.0]]):
        M = Matrix(QQ, entries)
        for op in (rank, kernel_basis, lambda M: solve(M, M)):
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
    # matmul is the tests' own product, which the other tests check identities with
    A = Matrix(QQ, [[1, 2], [3, 4]])
    B = Matrix(QQ, [[0, 1], [1, 0]])
    assert matmul(A, B).tolist() == [[2, 1], [4, 3]]
    assert hstack(A, B).ncols == 4
    Ap = Matrix(GF(5), [[1, 2], [3, 4]])
    Bp = Matrix(GF(5), [[0, 1], [1, 0]])
    assert matmul(Ap, Bp).tolist() == [[2, 1], [4, 3]]
    assert matmul(Ap, Ap).tolist() == [[2, 0], [0, 2]]  # [[7, 10], [15, 22]] mod 5


def test_fraction_entries_are_exact():
    M = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert rank(M) == 1
    K = kernel_basis(M)
    assert K.ncols == 1
    assert all(x == 0 for x in _matvec(M, K.column(0)))


# ---------------------------------------------------------------------------
# certified rank over Q
# ---------------------------------------------------------------------------

def _bareiss_rank(rows, ncols):
    return len(_q_echelon(_q_int_rows(rows), ncols)[1])


def _product(U, V, n):
    return [[sum(u * row[j] for u, row in zip(urow, V)) for j in range(n)] for urow in U]


def _count_bareiss(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "_q_echelon", lambda *a: calls.append(a) or _q_echelon(*a))
    return calls


def test_certificate_primes():
    assert all(is_prime(p) and 2**30 < p < 2**31 for p in linalg._RANK_PRIMES)
    assert len(set(linalg._RANK_PRIMES)) == len(linalg._RANK_PRIMES)


def test_annihilation_check_is_exact(monkeypatch):
    # columns 0 and 1 are the pivots modulo every rank prime, and the left
    # kernel of C there is y = (1, 1, -1), which lifts at once.  y W = (0, 0, -P)
    # vanishes modulo every rank prime but not over Z, so the exact check
    # rejects y on every prime and Bareiss decides
    monkeypatch.setattr(linalg, "_BAREISS_CELLS", 0)
    calls = _count_bareiss(monkeypatch)
    P = 1
    for p in linalg._RANK_PRIMES:
        P *= p
    assert rank(Matrix(QQ, [[1, 0, P], [0, 1, 2 * P], [1, 1, 4 * P]])) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("scale", [2, 2**70])
def test_certified_rank_agrees_with_bareiss(monkeypatch, scale):
    # every nonempty shape takes the modular route; 2^70 is beyond int64
    monkeypatch.setattr(linalg, "_BAREISS_CELLS", 0)
    rng = random.Random(scale)
    shapes = [(1, 1), (1, 9), (9, 1), (6, 6), (6, 14), (14, 6), (25, 40), (40, 25)]
    shapes += [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(25)]
    for m, n in shapes:
        for r in sorted({0, rng.randint(0, min(m, n)), min(m, n)}):
            U = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]
            V = [[rng.randint(-scale, scale) for _ in range(n)] for _ in range(r)]
            rows = _product(U, V, n)
            want = _bareiss_rank(rows, n)
            assert rank(Matrix(QQ, rows, n)) == want
            fractions = [[Fraction(x, k + 1) for x in row] for k, row in enumerate(rows)]
            assert rank(Matrix(QQ, fractions, n)) == want
    for m, n in ((0, 0), (0, 5), (5, 0)):
        assert rank(Matrix(QQ, [[]] * m if n == 0 else [[0] * n] * m, n)) == 0


@pytest.mark.parametrize("seed", [1, 1 << 13])
def test_certified_rank_lifts_small_kernels(monkeypatch, seed):
    # rows past the first r are small combinations of them, so the kernel on
    # the smaller side is small and the certificate needs no Bareiss, with
    # entries of 2^70 too; two seeds give two sets of random matrices
    calls = _count_bareiss(monkeypatch)
    rng = random.Random(seed)
    for r, extra, n, scale in ((50, 20, 90, 3), (40, 30, 75, 2**70), (79, 1, 85, 3)):
        A = [[rng.randint(-scale, scale) for _ in range(n)] for _ in range(r)]
        T = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(extra)]
        wide = A + _product(T, A, n)
        for rows in (wide, [list(c) for c in zip(*wide)]):
            assert len(rows) * len(rows[0]) >= linalg._BAREISS_CELLS
            assert rank(Matrix(QQ, rows)) == r
    assert not calls
    assert rank(Matrix(QQ, [[1, 2], [2, 4]])) == 1  # below _BAREISS_CELLS entries
    assert len(calls) == 1


def test_certified_rank_lifts_over_several_primes(monkeypatch):
    # the left kernel (T, -I) has entries near 2^70, so its lift takes five
    # primes; columns 6 and 7, which the modular pass takes first since it
    # reads the columns backwards, agree modulo the second prime, which
    # drops the rank of C there and must be skipped, leaving exactly five
    monkeypatch.setattr(linalg, "_BAREISS_CELLS", 0)
    calls = _count_bareiss(monkeypatch)
    rng = random.Random(11)
    p1 = linalg._RANK_PRIMES[1]
    A = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(4)]
    for i, row in enumerate(A):
        row[6] = row[7] + (p1 if i == 0 else 0)
    T = [[rng.randint(-2**70, 2**70) for _ in range(4)] for _ in range(2)]
    rows = A + _product(T, A, 8)
    assert _bareiss_rank(rows, 8) == 4
    assert rank(Matrix(QQ, rows)) == 4
    assert not calls


def test_certified_rank_falls_back_to_bareiss(monkeypatch):
    # the left kernel is spanned by (a, b, -1), near 2^400: past what the
    # primes can lift, so Bareiss decides
    monkeypatch.setattr(linalg, "_BAREISS_CELLS", 0)
    calls = _count_bareiss(monkeypatch)
    a, b = 3**252, 2**400 + 1
    assert rank(Matrix(QQ, [[1, 0, 5], [0, 1, 7], [a, b, 5 * a + 7 * b]])) == 2
    assert calls


def test_certified_rank_survives_a_drop_modulo_the_first_prime(monkeypatch):
    # the last column vanishes modulo p, but the determinant is p
    monkeypatch.setattr(linalg, "_BAREISS_CELLS", 0)
    p = linalg._RANK_PRIMES[0]
    M = Matrix(QQ, [[1, 0, p], [0, 1, 2 * p], [1, 1, 4 * p]])
    assert rank(Matrix(GF(p), M.tolist())) == 2
    assert rank(M) == 3
    # equal ranks do not give equal pivots, so pivots are never read mod p
    assert pivot_columns(Matrix(QQ, [[p, 1]])) == [0]
    assert pivot_columns(Matrix(GF(p), [[p, 1]])) == [1]


def test_block_pivots_proves_every_prefix_over_q():
    # each prefix rank is exact, not only the last.  A single row [p] is
    # scaled to [1] first; the rows [1, 1, 0] and [1, 1 + p, 0] have rank 2
    # over Q but 1 modulo p, so only a proof of the first prefix reads 2
    p = linalg._RANK_PRIMES[0]
    ranks, pivots = block_pivots(QQ, [[{0: p}], [{1: 1}]], 2)
    assert ranks == [0, 1, 2]
    assert pivots == [[], [0], [0, 1]]
    ranks, pivots = block_pivots(QQ, [[{0: 1, 1: 1}, {0: 1, 1: 1 + p}], [{2: 1}]], 3)
    assert ranks == [0, 2, 3]
    assert pivots == [[], [0], [0, 2]]  # read modulo p, as the docstring says
    assert block_pivots(GF(p), [[{0: 1, 1: 1}, {0: 1, 1: 1 + p}], [{2: 1}]], 3)[0] == [0, 1, 2]


def _block_row(rng, p, ncols, earlier):
    """A sparse row: a combination of two earlier rows (a dependent row) or up
    to 5 entries, each a small int, an int within 1 of -p, 0 or p, or a
    Fraction with denominator 5 or 7."""
    if earlier and rng.random() < 0.3:
        a, b = rng.choice(earlier), rng.choice(earlier)
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        return {c: s * a.get(c, 0) + t * b.get(c, 0) for c in a.keys() | b.keys()}
    row = {}
    for c in rng.sample(range(ncols), rng.randint(0, min(ncols, 5))):
        kind = rng.randrange(3)
        if kind == 0:
            row[c] = rng.randint(-3, 3)
        elif kind == 1:
            row[c] = rng.choice((-p, 0, p)) + rng.choice((-1, 0, 1))
        else:
            row[c] = Fraction(rng.randint(-3, 3), rng.choice((5, 7)))
    return row


def test_block_pivots_ranks_match_dense_prefixes():
    # random sparse blocks with zero rows {}, dependent rows, entries near
    # +-p and Fractions, and tall blocks that reach rank ncols inside a block.
    # Pivots are read mod p' (p over F_p, the first rank prime over Q, after
    # the rows are scaled to coprime integers as block_pivots scales them)
    # and must be those of the dense prefix
    rng = random.Random(9)
    for field in FIELDS + [GF(linalg._RANK_PRIMES[0])]:
        p = field.p or linalg._RANK_PRIMES[0]
        for trial in range(60):
            ncols = rng.randint(0, 9)
            tall = trial % 3 == 0
            blocks, earlier = [], []
            for _ in range(rng.randint(0, 4)):
                block = []
                for _ in range(rng.randint(0, 3 * ncols if tall else 4)):
                    block.append(_block_row(rng, p, ncols, earlier))
                    earlier.append(block[-1])
                blocks.append(block)
            ranks, pivots = block_pivots(field, blocks, ncols)
            assert len(ranks) == len(pivots) == len(blocks) + 1
            for k in range(len(blocks) + 1):
                dense = [[row.get(c, 0) for c in range(ncols)]
                         for block in blocks[:k] for row in block]
                assert ranks[k] == rank(Matrix(field, dense, ncols))
                if field.is_rational:
                    dense = _q_int_rows(dense)
                assert pivots[k] == pivot_columns(Matrix(GF(p), dense, ncols))


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(2147483647)], ids=str)
def test_block_pivots_maps_every_row_after_saturation(field):
    # once every column is a pivot later rows are not eliminated, but their
    # entries still enter F_p: a denominator divisible by p and a float raise
    p = field.p
    full = [{0: 1, 1: p - 1}, {1: 1}]
    assert block_pivots(field, [full, [{0: 1 + p, 1: -p}]], 2) == ([0, 2, 2], [[], [0, 1], [0, 1]])
    with pytest.raises(ValueError):
        block_pivots(field, [full, [{1: 1}, {0: Fraction(1, p)}]], 2)
    with pytest.raises(ValueError):
        block_pivots(field, [full + [{0: 1, 1: Fraction(1, p)}]], 2)
    with pytest.raises(TypeError):
        block_pivots(field, [full, [{1: 0.5}]], 2)
    with pytest.raises(TypeError):
        block_pivots(QQ, [full, [{1: 0.5}]], 2)
