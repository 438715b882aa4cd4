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
    block_pivots,
    is_prime,
    kernel_vectors,
)

from matrices import bareiss_rank, gauss_jordan, matmul, rank

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


@pytest.mark.parametrize("bad", ["fp:6", "fp:1", "fp:abc", "r", "",
                                 "fp:2305843009213693951", "fp:" + str(10**30)])
def test_field_parse_rejects(bad):
    with pytest.raises(ValueError):
        FieldSpec.parse(bad)


@pytest.mark.parametrize("p", [2**31, 2**61 - 1, 10**30])
def test_moduli_above_the_bound_are_refused_before_primality(p):
    # trial division up to sqrt(2^61 - 1) would take minutes
    with pytest.raises(ValueError, match="above 2\\^31 are not supported"):
        FieldSpec(p)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(32003)
    sieve = [False, False] + [True] * 9998
    for q in range(2, 100):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, 10_000, q))
    assert [is_prime(p) for p in range(-3, 10_000)] == [False] * 3 + sieve


def _sparse(rows, offset=0):
    """Dense rows as sparse rows {column: entry}, columns shifted by offset."""
    return [{offset + c: x for c, x in enumerate(r) if x} for r in rows]


def _rank(field, rows, ncols):
    """The library's rank of the dense rows: one block of block_pivots."""
    return block_pivots(field, [_sparse(rows)], ncols)[0][1]


def _ref_rank(rows, ncols, p):
    return len(gauss_jordan(rows, ncols, p)[1])


def _annihilates(rows, v, p):
    """Whether every dense row dotted with the sparse vector v vanishes (mod p)."""
    dots = (sum(r[c] * x for c, x in v.items()) for r in rows)
    return all(not (dot % p if p else dot) for dot in dots)


def _reduced(field, rows, ncols):
    """The library's reduced echelon form {pivot column: row} of the dense rows."""
    echelon = linalg._sparse_echelon(linalg._field_rows(_sparse(rows), field.p), field.p, ncols)
    linalg._reduce(echelon, field.p)
    return echelon


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------

def test_rank_identity():
    assert block_pivots(QQ, [[{0: 1}, {1: 1}]], 2) == ([0, 2], [[], [0, 1]])
    assert kernel_vectors(QQ, [{0: 1}, {1: 1}], 2) == []


def test_kernel_all_ones_over_f5():
    # one vector per free column, 1 there and a residue -1 = 4 at the pivot
    K = kernel_vectors(GF(5), [{0: 1, 1: 1, 2: 1}], 3)
    assert K == [{0: 4, 1: 1}, {0: 4, 2: 1}]
    assert all(_annihilates([[1, 1, 1]], v, 5) for v in K)


# ---------------------------------------------------------------------------
# randomized structural properties
# ---------------------------------------------------------------------------

def _random_rows(rng, nrows, ncols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("field", FIELDS)
def test_rank_nullity_randomized(field):
    rng = random.Random(20240)
    for _ in range(30):
        m, n = rng.randint(0, 6), rng.randint(1, 7)
        rows = _random_rows(rng, m, n)
        K = kernel_vectors(field, _sparse(rows), n)
        assert _ref_rank(rows, n, field.p) + len(K) == n
        assert all(_annihilates(rows, v, field.p) for v in K)
        # the tests' own rank of result matrices agrees with Gauss-Jordan
        assert rank(Matrix(field, rows, n)) == _ref_rank(rows, n, field.p)


@pytest.mark.parametrize("field", FIELDS)
def test_image_basis_spans_column_space(field):
    # the coordinate vectors outside the pivot columns span the quotient by
    # the row space: with them the rows span everything
    rng = random.Random(99)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_rows(rng, m, n)
        ranks, pivots = block_pivots(field, [_sparse(rows)], n)
        assert ranks[1] == len(pivots[1]) == _ref_rank(rows, n, field.p)
        units = [[int(c == k) for c in range(n)] for k in range(n) if k not in pivots[1]]
        assert _ref_rank(rows + units, n, field.p) == n


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
    # (kernels) and a plain-int reference; p = 2^31 - 1 takes entries up to
    # p - 1, so products of residues come just below 2^62
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
        ranks, pivots = block_pivots(field, [_sparse(rows)], n)
        reduced = _reduced(field, rows, n)
        assert pivots[1] == sorted(reduced) == _reference_pivots(rows, n, p)
        assert ranks[1] == len(pivots[1])
        for c, row in reduced.items():
            assert row[c] == 1 and not any(k in reduced for k in row if k != c)
        K = kernel_vectors(field, _sparse(rows), n)
        assert ranks[1] + len(K) == n
        assert all(_annihilates(rows, v, p) for v in K)


def _reference_residue(reduced, pivots, y, p):
    """y minus y[c] times the reduced row at pivot c, for each pivot c, as a
    sparse vector (mod p, or over Q when p is None)."""
    rest = list(y)
    for row, c in zip(reduced, pivots):
        rest = [a - y[c] * b for a, b in zip(rest, row)]
    return {k: x % p if p else x for k, x in enumerate(rest) if (x % p if p else x)}


@pytest.mark.parametrize("p", [None, 2, 3, 32003])
def test_prime_field_rref_and_solve_match_gauss_jordan(p):
    # wide, tall and zero-row matrices, over F_p and over Q (p = None, with
    # ints and Fractions mixed, so pivots other than +-1 come up).  The
    # reduced echelon form is unique, so `_reduce` gives the reference's
    # rows.  Solving y = sum a_c R_c against it is `_clear_pivots`: a
    # combination of the rows clears to nothing, with a_c = y[c], and any
    # other vector leaves the reference's residue
    field = FieldSpec(p)
    rng = random.Random((p or 0) + 1)

    def entry():
        if p is not None:
            return rng.randrange(p)
        x = rng.randint(-9, 9)
        return x if rng.random() < 0.5 else Fraction(x, rng.randint(2, 5))

    shapes = [(0, 4), (3, 8), (8, 3), (6, 6)]
    shapes += [(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(30)]
    outside = 0
    for m, n in shapes:
        density = rng.choice([0.2, 0.5, 1.0])
        rows = [[entry() if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
        if m > 2:  # a dependent row
            rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
        want, want_pivots = gauss_jordan(rows, n, p)
        reduced = _reduced(field, rows, n)
        assert sorted(reduced) == want_pivots
        assert [reduced[c] for c in want_pivots] == _sparse(want)
        coeffs = [entry() for _ in range(m)]
        inside = [_in_field(sum(a * r[k] for a, r in zip(coeffs, rows)), p) for k in range(n)]
        y = _sparse([inside])[0]
        linalg._clear_pivots(y, reduced, p)
        assert y == {}
        other = [_in_field(entry(), p) for _ in range(n)]
        y = _sparse([other])[0]
        linalg._clear_pivots(y, reduced, p)
        assert y == _reference_residue(want, want_pivots, other, p)
        outside += bool(y)
    assert outside > 5


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
    for field in (QQ, GF(5)):
        for rows in ([{0: 0.5}], [{0: 1, 1: Fraction(1, 3), 2: 2.0}]):
            for op in (lambda r: kernel_vectors(field, r, 3), lambda r: block_pivots(field, [r], 3)):
                with pytest.raises(TypeError):
                    op([dict(row) for row in rows])


def test_prime_field_agrees_with_rationals_on_tiny_entries():
    # entries in {-1,0,1} and size <= 5 keep all minors below 32003
    rng = random.Random(4242)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m)]
        assert _rank(QQ, rows, n) == _rank(GF(32003), rows, n) == _ref_rank(rows, n, None)


def test_pivot_columns_skip_dependent_columns():
    # past column 0, column 1 is a multiple of it and is skipped
    rows = [[1, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    assert block_pivots(QQ, [_sparse(rows)], 4)[1][1] == [0, 2, 3]


def test_kernel_of_wide_zero_row_matrix():
    assert kernel_vectors(QQ, [], 4) == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]
    assert kernel_vectors(QQ, [{}, {}], 2) == [{0: 1}, {1: 1}]
    assert block_pivots(QQ, [[]], 4) == ([0, 0], [[], []])


def test_matmul_and_stacks():
    # matmul is the tests' own product, which the other tests check identities with
    A = Matrix(QQ, [[1, 2], [3, 4]])
    B = Matrix(QQ, [[0, 1], [1, 0]])
    assert matmul(A, B).tolist() == [[2, 1], [4, 3]]
    Ap = Matrix(GF(5), [[1, 2], [3, 4]])
    Bp = Matrix(GF(5), [[0, 1], [1, 0]])
    assert matmul(Ap, Bp).tolist() == [[2, 1], [4, 3]]
    assert matmul(Ap, Ap).tolist() == [[2, 0], [0, 2]]  # [[7, 10], [15, 22]] mod 5


def test_fraction_entries_are_exact():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    assert _rank(QQ, rows, 2) == 1
    K = kernel_vectors(QQ, _sparse(rows), 2)
    assert K == [{0: -2, 1: 3}]  # primitive integers, positive at the free column
    assert _annihilates(rows, K[0], None)


def test_matrix_equality_is_by_value():
    # ints and Fractions of equal value give equal matrices with equal hashes
    A = Matrix(QQ, [[1, Fraction(4, 2)]])
    B = Matrix(QQ, [[Fraction(1), 2]])
    assert A == B and hash(A) == hash(B)
    assert A != Matrix(QQ, [[1, 3]]) and A != Matrix(GF(5), [[1, 2]])
    assert Matrix(QQ, [], 2) != Matrix(QQ, [], 3)
    assert Matrix(GF(5), [[6, -1]]) == Matrix(GF(5), [[1, 4]])


# ---------------------------------------------------------------------------
# exact rank over Q: the integer loop
# ---------------------------------------------------------------------------

P31 = 2147483647  # 2^31 - 1, the largest prime modulus


def _product(U, V, n):
    return [[sum(u * row[j] for u, row in zip(urow, V)) for j in range(n)] for urow in U]


@pytest.mark.parametrize("scale", [2, 2**70])
def test_integer_loop_rank_agrees_with_bareiss(scale):
    # low-rank products, wide and tall, with entries up to 2^70 (past any
    # machine word) and with rows divided by 1, 2, 3, ...: the exact rank
    # over Q is the rank Bareiss gives
    rng = random.Random(scale)
    shapes = [(1, 1), (1, 9), (9, 1), (6, 6), (6, 14), (14, 6), (25, 40), (40, 25)]
    shapes += [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(25)]
    for m, n in shapes:
        for r in sorted({0, rng.randint(0, min(m, n)), min(m, n)}):
            U = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]
            V = [[rng.randint(-scale, scale) for _ in range(n)] for _ in range(r)]
            rows = _product(U, V, n)
            want = bareiss_rank(rows, n)
            assert _rank(QQ, rows, n) == want
            fractions = [[Fraction(x, k + 1) for x in row] for k, row in enumerate(rows)]
            assert _rank(QQ, fractions, n) == want
    for m, n in ((0, 0), (0, 5), (5, 0)):
        assert _rank(QQ, [[0] * n] * m, n) == 0


def test_q_rank_survives_a_drop_modulo_p():
    # the last column vanishes modulo p, but the determinant is p
    rows = [[1, 0, P31], [0, 1, 2 * P31], [1, 1, 4 * P31]]
    assert _rank(GF(P31), rows, 3) == 2
    assert _rank(QQ, rows, 3) == 3
    # equal ranks do not give equal pivots, so pivots are never read mod p
    assert block_pivots(QQ, [[{0: P31, 1: 1}]], 2)[1][1] == [0]
    assert block_pivots(GF(P31), [[{0: P31, 1: 1}]], 2)[1][1] == [1]


def test_block_pivots_ranks_every_prefix_over_q():
    # every prefix gets its own rank and pivots over Q, also where they drop
    # modulo p: the row [p, 1] leads at column 0 over Q and at column 1
    # modulo p, and the rows [1, 1] and [1, 1 + p] have rank 2 over Q but 1
    # modulo p.  The fraction-free steps against the pivot p stay exact
    blocks = [[{0: P31, 1: 1}], [{1: 1}], [{0: 1}]]
    assert block_pivots(QQ, blocks, 2) == ([0, 1, 2, 2], [[], [0], [0, 1], [0, 1]])
    assert block_pivots(GF(P31), blocks, 2) == ([0, 1, 1, 2], [[], [1], [1], [0, 1]])
    blocks = [[{0: 1, 1: 1}, {0: 1, 1: 1 + P31}], [{2: 1}]]
    assert block_pivots(QQ, blocks, 3) == ([0, 2, 3], [[], [0, 1], [0, 1, 2]])
    assert block_pivots(GF(P31), blocks, 3) == ([0, 1, 2], [[], [0], [0, 2]])


def test_integer_loop_keeps_primitive_rows():
    # over Q a stored row is primitive with a positive pivot, whatever the
    # scaling and sign of the rows that produced it: [6, 4, 0] is kept as
    # [3, 2, 0]; [4, 0, 2] becomes 3 [4, 0, 2] - 4 [3, 2, 0] = [0, -8, 6],
    # kept as [0, 4, -3]; and [0, 8, -6] reduces to zero against it
    echelon = linalg._sparse_echelon([{0: 6, 1: 4}, {0: 4, 2: 2}, {1: 8, 2: -6}], None, 3)
    assert echelon == {0: {0: 3, 1: 2}, 1: {1: 4, 2: -3}}
    assert all(type(x) is int for row in echelon.values() for x in row.values())


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


def _in_field(x, p):
    """x as a Fraction over Q (p is None), or its residue mod p."""
    x = Fraction(x)
    return x if p is None else x.numerator * pow(x.denominator, -1, p) % p


def test_block_pivots_ranks_match_dense_prefixes():
    # random sparse blocks with zero rows {}, dependent rows, entries near
    # +-p and Fractions, and tall blocks that reach rank ncols inside a block.
    # Over Q the entries near +-(2^31 - 1) make ranks and pivots drop modulo
    # that prime.  Ranks and pivots must be those of the dense prefix by
    # plain Gauss-Jordan, in Fractions over Q
    rng = random.Random(9)
    for field in FIELDS + [GF(P31)]:
        p = field.p or P31
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
                dense = [[_in_field(row.get(c, 0), field.p) for c in range(ncols)]
                         for block in blocks[:k] for row in block]
                want = gauss_jordan(dense, ncols, field.p)[1]
                assert (ranks[k], pivots[k]) == (len(want), want)


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
