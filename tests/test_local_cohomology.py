"""Graded local cohomology pieces, Hilbert series, generic coefficients,
multiplication maps, and the kernel-dimension formula against brute force."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facering.artinian import reduction_hilbert
from facering import cohomology
from facering.cohomology import induced_map, relative_cohomology_dim
from facering.complexes import (SimplicialComplex, degree_monomials, monomial_supports,
                                monomial_table)
from facering.linalg import GF, QQ, Matrix, block_pivots
from facering.local_cohomology import (
    GenericCoefficients,
    HilbertSeries,
    _theta_rows,
    all_minors_nonsingular,
    binom0,
    generic_fits,
    graded_piece,
    kernel_dim_bruteforce,
    kernel_dim_formula,
    lc_coarse_dim,
    lc_hilbert_series,
    make_generic,
    restricted_theta_rank,
    theta_stack,
    vandermonde_coefficients,
)
from facering.quotient import predicts_finite_lc, quotient_lc_dim
from facering.squarefree import SqfreeData, sqfree_lc_data
from facering import local_cohomology, verification
from facering.verification import run_checks

from complex_strategies import small_complexes
from matrices import gauss_jordan, matmul, rank
from test_artinian import seeded_complexes


def support(U) -> frozenset:
    """Positions (1-based) of the nonzero entries of an exponent vector."""
    return frozenset(t + 1 for t, u in enumerate(U) if u)


def dense_theta(cx, ell, i, thetas, field):
    """The blocks of `_theta_rows`, stacked, as one dense Matrix whose columns
    follow the source piece in `graded_piece` order (`_theta_rows` numbers
    them backwards)."""
    ncols = graded_piece(cx, ell, i + 1, field).total_dim
    rows = [[row.get(ncols - 1 - c, 0) for c in range(ncols)]
            for block in _theta_rows(cx, ell, i, thetas, field) for row in block]
    return Matrix(field, rows, ncols)


# ---------------------------------------------------------------------------
# fine and coarse dimensions
# ---------------------------------------------------------------------------

def face_sum(cx, k, field, weight):
    """sum over the faces F of weight(|F|) * dim H^k(X, cost F), face by face."""
    total = 0
    for F in cx.faces():
        c = weight(len(F))
        if c:
            total += c * relative_cohomology_dim(cx, F, k, field)
    return total


def series_face_by_face(cx, i, field):
    """lc_hilbert_series from the block dimensions of the faces, one at a time."""
    dims = {}
    for F in cx.faces():
        h = relative_cohomology_dim(cx, F, i - 1, field)
        if h:
            dims[len(F)] = dims.get(len(F), 0) + h
    if not dims:
        return HilbertSeries((), 0)
    e = max(dims)
    num = [sum(h * (-1) ** (k - s) * comb(e - s, k - s) for s, h in dims.items() if s <= k)
           for k in range(e + 1)]
    return HilbertSeries(tuple(num), e).reduce()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=str)
def test_closed_formulas_match_per_face_sums(complexes, field):
    # the formulas read the cohomology table by face size; here every face
    # is asked on its own
    for cx in list(complexes.values()) + seeded_complexes(12, seed=4):
        d, faces = cx.d, cx.faces()
        for ell in range(0, d + 2):
            assert lc_coarse_dim(cx, ell, 0, field) == relative_cohomology_dim(
                cx, frozenset(), ell - 1, field)
            for j in range(1, 6):
                assert lc_coarse_dim(cx, ell, -j, field) == face_sum(
                    cx, ell - 1, field, lambda s: binom0(j - 1, s - 1))
        for i in range(0, d + 1):
            assert lc_hilbert_series(cx, i, field) == series_face_by_face(cx, i, field)
        for ell in range(1, d + 1):
            for m in range(0, d + 1):
                for i in range(m, m + 4):
                    assert kernel_dim_formula(cx, ell, m, i, field) == face_sum(
                        cx, ell - 1, field, lambda s: binom0(i - m, s - m - 1))
            for r in range(0, 4):
                piece = graded_piece(cx, ell, r, field)
                assert piece.dims == tuple(relative_cohomology_dim(cx, support(U), ell - 1, field)
                                           for U in degree_monomials(cx, r))
        for m in range(0, d + 1):
            for ell in range(1, d - m + 1):
                for i in range(1, 5):
                    assert quotient_lc_dim(cx, m, ell, i, field) == face_sum(
                        cx, ell + m - 1, field, lambda s: binom0(i - 1, s - m - 1))
            assert predicts_finite_lc(cx, m, field) == (not any(
                relative_cohomology_dim(cx, F, ell + m - 1, field)
                for ell in range(1, d - m) for F in faces if len(F) >= m + 1))
        for j in range(0, d + 1):
            table = {F: relative_cohomology_dim(cx, F, j - 1, field) for F in faces}
            assert sqfree_lc_data(cx, j, field) == SqfreeData.from_dict(cx.n, table)

def test_fine_dims(cycle3, bowtie):
    # the piece of H^2 in multidegree -U is H^1(X | supp U)
    assert relative_cohomology_dim(cycle3, support((0, 0, 0)), 1, QQ) == 1
    assert relative_cohomology_dim(cycle3, support((1, 0, 0)), 1, QQ) == 1
    assert relative_cohomology_dim(bowtie, support((1, 1, 0, 0, 0)), 1, QQ) == 0
    # a support that is not a face has no block
    assert (1, 1, 1) not in degree_monomials(cycle3, 3)


def test_graded_pieces_share_one_lattice_table_per_degree(bowtie):
    # the monomials, their supports and the lattice table depend on
    # (complex, r) alone, and the table holds the supports
    a, b = graded_piece(bowtie, 1, 2, QQ), graded_piece(bowtie, 2, 2, GF(2))
    assert len(a.dims) == len(b.dims) == len(degree_monomials(bowtie, 2))
    supports, steps = monomial_table(bowtie, 2)
    assert supports is monomial_supports(bowtie, 2) is monomial_supports(bowtie, 2)
    assert steps is monomial_table(bowtie, 2)[1]
    assert supports == tuple(map(support, degree_monomials(bowtie, 2)))


def test_coarse_dims(cycle3):
    assert lc_coarse_dim(cycle3, 2, -1, QQ) == 3
    assert lc_coarse_dim(cycle3, 2, -2, QQ) == 6
    assert lc_coarse_dim(cycle3, 1, -1, QQ) == 0
    assert lc_coarse_dim(cycle3, 2, 0, QQ) == 1
    with pytest.raises(ValueError):
        lc_coarse_dim(cycle3, 2, 1, QQ)


def test_support_helper(complexes):
    assert support((0, -2, 1)) == frozenset({2, 3})
    assert support((0, 0)) == frozenset()
    # the supports enumerated with the monomials are the faces themselves
    for cx in complexes.values():
        faces = {F: F for F in cx.faces()}
        for r in range(0, 4):
            got = monomial_supports(cx, r)
            assert got == tuple(map(support, degree_monomials(cx, r)))
            assert all(F is faces[F] for F in got if F)


def test_binom0_convention():
    assert binom0(3, -1) == 0
    assert binom0(2, 3) == 0
    assert binom0(4, 2) == 6
    assert binom0(0, 0) == 1


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------

def test_series_cycle3(cycle3):
    s = lc_hilbert_series(cycle3, 2, QQ)
    assert s.to_json() == {"numerator": [1, 1, 1], "denom_power": 2}
    assert s.pole_order == 2
    assert [s.coefficient(j) for j in range(5)] == [1, 3, 6, 9, 12]
    zero = lc_hilbert_series(cycle3, 1, QQ)
    assert zero.to_json() == {"numerator": [], "denom_power": 0} and zero.pole_order == 0


def test_series_bowtie(bowtie):
    assert lc_hilbert_series(bowtie, 2, QQ).pole_order == 1
    s3 = lc_hilbert_series(bowtie, 3, QQ)
    assert s3.pole_order == 3
    assert s3.to_json() == {"numerator": [0, 0, 0, 2], "denom_power": 3}


def test_series_pair_edges(pair_edges):
    s = lc_hilbert_series(pair_edges, 1, QQ)
    assert s.to_json() == {"numerator": [1], "denom_power": 0}
    assert s.pole_order == 0


def test_pole_order_cancellation():
    # (1 - t)(1 + t) / (1 - t)^3 has a pole of order 2
    s = HilbertSeries((1, 0, -1), 3)
    assert s.pole_order == 2
    assert HilbertSeries((), 0).pole_order == 0
    assert HilbertSeries((0, 0), 2).pole_order == 0


def test_series_polynomial_part_coefficients():
    s = HilbertSeries((2, 5), 0)
    assert [s.coefficient(j) for j in range(4)] == [2, 5, 0, 0]


def test_series_compare_hash_and_print_by_value():
    s = HilbertSeries((1, 2), 3)
    assert s == HilbertSeries((1, 2), 3) and hash(s) == hash(HilbertSeries((1, 2), 3))
    assert s != HilbertSeries((1, 2), 2) and s != HilbertSeries((1, 3), 3)
    assert len({s, HilbertSeries((1, 2), 3), HilbertSeries((), 0)}) == 2
    assert repr(s) == "HilbertSeries(numerator=(1, 2), denom_power=3)"
    with pytest.raises(AttributeError):
        s.denom_power = 0


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_series_coefficients_match_coarse_dims(complexes, field):
    for cx in complexes.values():
        for i in range(0, cx.d + 1):
            s = lc_hilbert_series(cx, i, field)
            for j in range(0, 7):
                assert s.coefficient(j) == lc_coarse_dim(cx, i, -j, field)


# ---------------------------------------------------------------------------
# generic coefficients
# ---------------------------------------------------------------------------

def test_vandermonde_matrix():
    A = make_generic(5, 2, QQ)
    assert A.matrix.tolist() == [[1, 1], [1, 2], [1, 3], [1, 4], [1, 5]]
    assert A.matrix.column(1) == [1, 2, 3, 4, 5]


def test_vandermonde_minors_are_nonsingular():
    A = vandermonde_coefficients([1, 3, 7, 20], 3)
    assert all_minors_nonsingular(A.matrix)


def test_make_generic_prime_field_verified_and_seeded():
    A = make_generic(4, 2, GF(32003), seed=7)
    B = make_generic(4, 2, GF(32003), seed=7)
    C = make_generic(4, 2, GF(32003), seed=8)
    assert all_minors_nonsingular(A.matrix)
    assert A.matrix == B.matrix
    assert A.matrix != C.matrix


def test_make_generic_too_small_field_errors():
    with pytest.raises(ValueError):
        make_generic(6, 2, GF(2), seed=0)
    # with two or more rows and columns, rows + columns is at most p + 1
    with pytest.raises(ValueError, match=r"rows \+ columns is at most p \+ 1 = 4 \(the MDS bound\)"):
        make_generic(3, 2, GF(3), seed=0)
    # shapes past the bound, which no matrix has, are refused before any
    # draw, so the message names no tries
    for n, m, p in ((4, 3, 5), (6, 3, 7), (5, 4, 7), (2, 5, 5)):
        assert not generic_fits(n, m, GF(p))
        with pytest.raises(ValueError, match="MDS bound"):
            make_generic(n, m, GF(p), seed=0)
    # shapes on the bound exist: one witness each, found by a search over
    # matrices whose first row and column are ones; random draws seldom hit one
    witnesses = {
        5: ([[1, 1, 1], [1, 2, 3], [1, 3, 4]], [[1, 1, 1, 1], [1, 2, 3, 4]]),
        7: ([[1, 1, 1], [1, 2, 3], [1, 3, 2], [1, 5, 6], [1, 6, 5]],),
    }
    for p, shapes in witnesses.items():
        for rows in shapes:
            assert generic_fits(len(rows), len(rows[0]), GF(p))
            assert all_minors_nonsingular(Matrix(GF(p), rows))
    assert all_minors_nonsingular(make_generic(2, 2, GF(3), seed=0).matrix)
    assert all_minors_nonsingular(make_generic(5, 1, GF(3), seed=0).matrix)


def test_make_generic_falls_back_to_the_extended_cauchy_matrix(monkeypatch):
    # with no draws, every shape under the MDS bound gets the row of ones over
    # 1/(x_i - y_j), certified; a certificate that fails still raises
    monkeypatch.setattr(local_cohomology, "GENERIC_TRIES", 0)
    for p in (2, 3, 5, 7, 11, 13, 17):
        for n in range(1, 8):
            for m in range(1, min(7, p + 1 - n) + 1):
                A = make_generic(n, m, GF(p), seed=0).matrix
                rows = A.tolist()
                assert rows[0] == [1] * m
                assert all((x - (n - 1 + j)) * a % p == 1
                           for x, row in enumerate(rows[1:]) for j, a in enumerate(row))
                assert all_minors_nonsingular(A)
    monkeypatch.setattr(local_cohomology, "all_minors_nonsingular", lambda M: False)
    with pytest.raises(ValueError, match="no verified generic matrix over F_11 after 0 tries"):
        make_generic(6, 3, GF(11), seed=1)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5)], ids=str)
def test_all_minors_nonsingular_matches_minor_ranks(field):
    # the determinant expansion against a rank per square submatrix, on
    # random shapes up to 5 x 4 with and without zero entries
    rng = random.Random(field.p)
    seen = set()
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
        low = rng.choice((0, 1))
        M = Matrix(field, [[rng.randrange(low, field.p) for _ in range(ncols)]
                           for _ in range(nrows)], ncols)
        A = M.tolist()
        expected = all(rank(Matrix(field, [[A[r][c] for c in cols] for r in rows], k)) == k
                       for k in range(1, min(nrows, ncols) + 1)
                       for rows in combinations(range(nrows), k)
                       for cols in combinations(range(ncols), k))
        assert all_minors_nonsingular(M) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_make_generic_redraws_zero_entries():
    # over F_2 the only certified 6 x 1 matrix is all ones; drawing zeros too
    # made 64 tries fail for about 37% of seeds
    for seed in range(20):
        assert make_generic(6, 1, GF(2), seed=seed).matrix.tolist() == [[1]] * 6


def test_column_with_all_nonzero_entries():
    A = make_generic(3, 1, GF(32003), seed=1)
    assert all(x != 0 for x in A.matrix.column(0))


def test_generic_coefficients_compare_and_hash_by_identity(cycle3):
    # theta_stack and reduction_dims key their memos on the coefficients
    # object: equal entries do not make a memo hit, and a prefix is a key of
    # its own
    C = vandermonde_coefficients([1, 2, 3], 2)
    twin = vandermonde_coefficients([1, 2, 3], 2)
    assert C.matrix.tolist() == twin.matrix.tolist()
    assert C == C and C != twin and hash(C) != hash(twin)
    P = C.prefix(1)
    assert C.prefix(2) is C and P != C.prefix(1)
    memo = {C: "C", P: "P"}
    assert twin not in memo and memo[P] == "P"
    stacks = local_cohomology._stacks
    assert stacks(cycle3, 1, P, QQ) is stacks(cycle3, 1, P, QQ)
    assert stacks(cycle3, 1, P, QQ) is not stacks(cycle3, 1, C, QQ)
    assert stacks(cycle3, 1, C, QQ) is not stacks(cycle3, 1, twin, QQ)
    assert repr(C).startswith("GenericCoefficients(matrix=")
    with pytest.raises(AttributeError):
        C.matrix = twin.matrix


def test_rational_coefficients_map_exactly_into_prime_field():
    # 1/2 is the inverse of 2 mod 5, not int(1/2) = 0: on two points the form
    # (1/2) x_1 + 3 x_2 reduces like 3 x_1 + 3 x_2, while a zero first
    # coefficient would leave the powers of x_1 standing
    points = SimplicialComplex(2, [[1], [2]])

    def dims(column):
        coeffs = GenericCoefficients(Matrix(QQ, [[a] for a in column]))
        return reduction_hilbert(points, coeffs, 1, 3, GF(5)).dims

    assert dims([Fraction(1, 2), 3]) == dims([3, 3]) == (1, 1, 0, 0)
    assert dims([0, 3]) == (1, 1, 1, 1)


# ---------------------------------------------------------------------------
# multiplication action
# ---------------------------------------------------------------------------

def test_theta_action_shape_and_rank(cycle3):
    M = dense_theta(cycle3, 2, 0, [[1, 1, 1]], QQ)
    assert (M.nrows, M.ncols) == (1, 3)
    assert rank(M) == 1


def test_theta_zero_coefficients_kill_blocks(cycle3):
    # with theta = e_3 only transitions lowering the third exponent survive
    M = dense_theta(cycle3, 2, 1, [[0, 0, 1]], QQ)
    src = graded_piece(cycle3, 2, 2, QQ)
    dst = graded_piece(cycle3, 2, 1, QQ)
    for k, U in enumerate(degree_monomials(cycle3, 2)):
        col = M.column(src.offsets[k])
        if U[2] == 0:
            assert all(x == 0 for x in col)
    # identity block: U = (0,0,2) -> T = (0,0,1), same support
    ku = degree_monomials(cycle3, 2).index((0, 0, 2))
    kt = degree_monomials(cycle3, 1).index((0, 0, 1))
    assert M.tolist()[dst.offsets[kt]][src.offsets[ku]] == 1


def test_graded_piece_dims_match_coarse(complexes):
    for cx in complexes.values():
        for ell in range(1, cx.d + 1):
            for r in range(0, 5):
                piece = graded_piece(cx, ell, r, QQ)
                assert piece.total_dim == lc_coarse_dim(cx, ell, -r, QQ)


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_theta_actions_commute(complexes, field):
    # multiplication by two linear forms must agree in either order, which
    # exercises the compatibility of all the induced-map blocks
    for cx in complexes.values():
        coeffs = make_generic(cx.n, 2, field, seed=3)
        t1, t2 = coeffs.matrix.column(0), coeffs.matrix.column(1)
        for ell in range(1, cx.d + 1):
            for i in range(0, 3):
                first = matmul(dense_theta(cx, ell, i, [t1], field),
                               dense_theta(cx, ell, i + 1, [t2], field))
                second = matmul(dense_theta(cx, ell, i, [t2], field),
                                dense_theta(cx, ell, i + 1, [t1], field))
                assert first == second


def test_theta_rows_keep_zero_rows_in_place(octahedron):
    # l = 3, i = 1: vertex 4 is opposite vertex 1, so x_4 x_1 = 0 and the row
    # of e_1 at the target block of x_4 (row 2) is {}, in its place
    blocks = _theta_rows(octahedron, 3, 1, [[1, 0, 0, 0, 0, 0], [1, 2, 3, 4, 5, 6]], QQ)
    assert degree_monomials(octahedron, 1)[2] == (0, 0, 0, 1, 0, 0)
    assert [len(block) for block in blocks] == [6, 6]
    assert [k for k, row in enumerate(blocks[0]) if not row] == [2]
    assert all(blocks[1])


def test_theta_rows_refuse_bad_input(cycle3):
    coeffs = make_generic(3, 2, QQ)
    with pytest.raises(ValueError, match="one entry per vertex"):
        _theta_rows(cycle3, 2, 0, [[1, 1, 1], [1, 1]], QQ)
    with pytest.raises(ValueError, match="i >= 0"):
        _theta_rows(cycle3, 2, -1, [[1, 1, 1]], QQ)
    with pytest.raises(ValueError, match="i >= 0"):
        restricted_theta_rank(cycle3, 2, 0, -1, coeffs, QQ)


def theta_rows_from_dense_blocks(cx, ell, i, thetas, field):
    """`_theta_rows` built from the dense `induced_map` of every pair of
    blocks, the identity blocks of equal supports included."""
    src, dst = graded_piece(cx, ell, i + 1, field), graded_piece(cx, ell, i, field)
    lower, upper = degree_monomials(cx, i), degree_monomials(cx, i + 1)
    index = {U: k for k, U in enumerate(upper)}  # not the lattice table
    last = src.total_dim - 1
    blocks = [[{} for _ in range(dst.total_dim)] for _ in thetas]
    for kt, T in enumerate(lower):
        for t in range(cx.n):
            ku = index.get(T[:t] + (T[t] + 1,) + T[t + 1:])
            if ku is None or not src.dims[ku] or not dst.dims[kt]:
                continue
            block = induced_map(cx, support(upper[ku]), support(T), ell - 1, field)
            for rr, row in enumerate(block.tolist()):
                for cc, val in enumerate(row):
                    for rows, theta in zip(blocks, thetas):
                        if val and theta[t]:
                            rows[dst.offsets[kt] + rr][last - src.offsets[ku] - cc] = theta[t] * val
    return blocks


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_theta_rows_match_dense_induced_blocks(field, monkeypatch):
    # identity blocks are written directly and never ask for a map from a
    # support to itself; every other block is the dense induced map's.  The
    # spy sits at both bindings: `_theta_rows` reads the memo through its
    # own import, the reference through `induced_map`
    real = cohomology._induced_map
    calls = {"theta": [], "reference": []}
    phase = ["theta"]

    def spy(cx, f_big, f_small, k, fld):
        calls[phase[0]].append(f_big == f_small)
        return real(cx, f_big, f_small, k, fld)

    monkeypatch.setattr(cohomology, "_induced_map", spy)
    monkeypatch.setattr(local_cohomology, "_induced_map", spy)
    zero_rows = 0
    for k, cx in enumerate(seeded_complexes(12, seed=4)):
        coeffs = make_generic(cx.n, 2, field, seed=k)
        first = coeffs.matrix.column(0)
        # a third form with zero coefficients, so some sub-blocks vanish
        thetas = [first, coeffs.matrix.column(1), [x if t % 3 else 0 for t, x in enumerate(first)]]
        for ell in range(1, cx.d + 1):
            for i in range(3):
                phase[0] = "theta"
                got = _theta_rows(cx, ell, i, thetas, field)
                phase[0] = "reference"
                assert got == theta_rows_from_dense_blocks(cx, ell, i, thetas, field), (k, ell, i)
                zero_rows += sum(not row for block in got for row in block)
    assert calls["theta"] and not any(calls["theta"])
    assert any(calls["reference"]) and zero_rows


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(101)], ids=str)
def test_theta_ranks_match_dense_stacks(complexes, field):
    # the ranks of theta_stack: [m] is that of the first m blocks written as one matrix
    cases = list(complexes.values()) + seeded_complexes(12, seed=4)
    for k, cx in enumerate(cases):
        coeffs = make_generic(cx.n, min(cx.d + 1, cx.n), field, seed=k)
        thetas = [coeffs.matrix.column(p) for p in range(coeffs.m)]
        for ell in range(1, cx.d + 1):
            for i in range(3):
                want = [rank(dense_theta(cx, ell, i, thetas[:m], field))
                        for m in range(coeffs.m + 1)]
                assert list(theta_stack(cx, ell, i, coeffs, field)[0]) == want, (k, ell, i)


def suspended_once(cx):
    """The suspension of cx on two new vertices."""
    facets = sorted(sorted(F) for F in cx.facets)
    return SimplicialComplex(cx.n + 2, [F + [v] for F in facets for v in (cx.n + 1, cx.n + 2)])


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(101), GF(7), GF(5)], ids=str)
def test_pruned_theta_stacks_match_whole_stacks(complexes, rp2_6, field):
    # asked for in ascending degree, every stack past degree 0 leaves out the
    # rows at the pivots of the stack below; its ranks and its pivots after
    # every block are those of `block_pivots` over all the rows.  Asked for
    # in descending degree, no stack finds the one below it and each is
    # eliminated whole.  The forms are as many as the ledger draws, or as
    # many as the field can carry
    cases = list(complexes.values()) + seeded_complexes(12, seed=4) + [suspended_once(rp2_6)]
    pruned = 0
    for k, cx in enumerate(cases):
        forms = min(cx.d + 1, cx.n)
        while not generic_fits(cx.n, forms, field):
            forms -= 1
        coeffs = make_generic(cx.n, forms, field, seed=k)
        thetas = [coeffs.matrix.column(p) for p in range(coeffs.m)]
        fresh, cold = (SimplicialComplex(cx.n, cx.facets) for _ in range(2))
        for ell in range(1, cx.d + 1):
            below = None
            for i in range(7):
                ncols = graded_piece(fresh, ell, i + 1, field).total_dim
                ranks, pivots = block_pivots(field, _theta_rows(fresh, ell, i, thetas, field),
                                             ncols)
                assert theta_stack(fresh, ell, i, coeffs, field)[0] == tuple(ranks), (k, ell, i)
                assert theta_stack(fresh, ell, i, coeffs, field) == (
                    tuple(ranks), tuple(map(tuple, pivots))), (k, ell, i)
                pruned += below is not None and any(below[1:-1])
                below = pivots
            for i in reversed(range(7)):
                want = theta_stack(fresh, ell, i, coeffs, field)[0]
                assert theta_stack(cold, ell, i, coeffs, field)[0] == want, (k, ell, i)
    assert pruned


def test_q_rank_ignores_the_theta_column_order(complexes):
    # `block_pivots` over Q eliminates the columns in the order `_theta_rows`
    # numbers them; every prefix of every stack has the rank and pivots of
    # plain Gauss-Jordan in Fractions, and the same ranks with its columns
    # reversed
    for cx in list(complexes.values()) + seeded_complexes(12, seed=4):
        coeffs = make_generic(cx.n, min(cx.d + 1, cx.n), QQ)
        thetas = [coeffs.matrix.column(p) for p in range(coeffs.m)]
        for ell in range(1, cx.d + 1):
            for i in range(3):
                ncols = graded_piece(cx, ell, i + 1, QQ).total_dim
                blocks = _theta_rows(cx, ell, i, thetas, QQ)
                backwards = [[{ncols - 1 - c: x for c, x in row.items()} for row in block]
                             for block in blocks]
                want = [gauss_jordan([[row.get(c, 0) for c in range(ncols)]
                                      for block in blocks[:k] for row in block], ncols)[1]
                        for k in range(len(blocks) + 1)]
                assert block_pivots(QQ, blocks, ncols) == ([len(w) for w in want], want)
                assert block_pivots(QQ, backwards, ncols)[0] == [len(w) for w in want]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(cx=small_complexes(), seed=st.integers(0, 2**16))
def test_generated_theta_maps_commute(field, cx, seed):
    # M_j at degree -i after M_k at degree -(i+1) is M_k after M_j, exactly:
    # the pruning of `theta_stack` rests on it
    coeffs = make_generic(cx.n, 2, field, seed=seed)
    tj, tk = coeffs.matrix.column(0), coeffs.matrix.column(1)
    for ell in range(1, cx.d + 1):
        for i in range(1, 4):
            assert (matmul(dense_theta(cx, ell, i - 1, [tj], field),
                           dense_theta(cx, ell, i, [tk], field))
                    == matmul(dense_theta(cx, ell, i - 1, [tk], field),
                              dense_theta(cx, ell, i, [tj], field))), (ell, i)


@pytest.fixture(scope="module")
def susp1_theta_stacks(rp2_6):
    """rp2_6 suspended once, and its theta stacks over Q for four forms at
    every l and i = 0..6, as (l, i, number of columns, blocks); built on the
    basis route, before any test of the module patches linalg."""
    cx = suspended_once(rp2_6)
    coeffs = make_generic(cx.n, 4, QQ)
    thetas = [coeffs.matrix.column(p) for p in range(coeffs.m)]
    return cx, [(ell, i, graded_piece(cx, ell, i + 1, QQ).total_dim,
                 _theta_rows(cx, ell, i, thetas, QQ))
                for ell in range(1, cx.d + 1) for i in range(7)]


def test_theta_stacks_stay_in_integers_over_q(susp1_theta_stacks, no_fractions):
    # with a Fraction built inside linalg raising, block_pivots still ranks
    # the theta stacks of rp2_6 suspended, and the ranks give the closed
    # kernel count and the surjectivity of the next form, as the
    # lemma-equality ledger reads them for m <= 3
    cx, stacks = susp1_theta_stacks
    for ell, i, ncols, blocks in stacks:
        ranks = block_pivots(QQ, blocks, ncols)[0]
        for m in range(min(i, 3) + 1):
            assert ncols - ranks[m] == kernel_dim_formula(cx, ell, m, i, QQ)
            if i > m:
                assert ranks[m + 1] - ranks[m] == kernel_dim_formula(cx, ell, m, i - 1, QQ)


# ---------------------------------------------------------------------------
# kernel dimensions: formula vs brute force (small cases; full sweep in acceptance)
# ---------------------------------------------------------------------------

def test_kernel_formula_examples(cycle3):
    assert [kernel_dim_formula(cycle3, 2, 1, i, QQ) for i in (1, 2, 3)] == [3, 3, 3]
    assert kernel_dim_formula(cycle3, 2, 0, 2, QQ) == 9
    with pytest.raises(ValueError):
        kernel_dim_formula(cycle3, 2, 3, 3, QQ)
    with pytest.raises(ValueError):
        kernel_dim_formula(cycle3, 2, 1, 0, QQ)
    with pytest.raises(ValueError):
        kernel_dim_formula(cycle3, 5, 0, 1, QQ)
    for ell in (0, -1):
        with pytest.raises(ValueError, match="cohomological degree"):
            kernel_dim_formula(cycle3, ell, 0, 1, QQ)


def test_kernel_formula_at_m_equals_i_counts_top_blocks(complexes):
    # at i = m only faces of size m+1 contribute, each by its cohomology dim
    from facering.cohomology import relative_cohomology

    for cx in complexes.values():
        d = cx.d
        for ell in range(1, d + 1):
            for m in range(0, d):
                direct = sum(
                    relative_cohomology(cx, F, ell - 1, QQ).ncols
                    for F in cx.faces()
                    if len(F) == m + 1
                )
                assert kernel_dim_formula(cx, ell, m, m, QQ) == direct


def test_bruteforce_m0_equals_piece_dim(cycle3):
    for i in range(4):
        assert kernel_dim_bruteforce(cycle3, 2, 0, i, make_generic(3, 0, QQ), QQ) == 3 + 3 * i


def test_bruteforce_default_coefficients(cycle3):
    # make_generic's default over Q is the Vandermonde on nodes 1..n
    assert kernel_dim_bruteforce(cycle3, 2, 1, 2, make_generic(3, 1, QQ), QQ) == 3


def test_theta_memo_never_hashes_the_coefficient_matrix(monkeypatch, octahedron):
    # the coefficients key the theta_stack memo by identity: a lookup hashes
    # no Matrix, and the second call on the same coefficients is a hit
    def refuse(self):
        raise AssertionError("Matrix hashed")

    monkeypatch.setattr(Matrix, "__hash__", refuse)
    calls = []
    monkeypatch.setattr(local_cohomology, "_theta_rows",
                        lambda *a, real=_theta_rows: calls.append(a) or real(*a))
    cx = SimplicialComplex(octahedron.n, octahedron.facets)  # a fresh memo
    coeffs = make_generic(cx.n, 2, QQ)
    first = kernel_dim_bruteforce(cx, 3, 1, 2, coeffs, QQ)
    assert kernel_dim_bruteforce(cx, 3, 2, 2, coeffs, QQ) <= first
    assert len(calls) == 1


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_lemma_equality_small(cycle3, bowtie, pair_edges, field):
    for cx in (cycle3, bowtie, pair_edges):
        coeffs = make_generic(cx.n, 3, field, seed=13)
        for ell in range(1, cx.d + 1):
            for m in (0, 1, 2):
                for i in range(m, m + 3):
                    assert (
                        kernel_dim_bruteforce(cx, ell, m, i, coeffs, field)
                        == kernel_dim_formula(cx, ell, m, i, field)
                    )


@pytest.mark.parametrize("field", [QQ, GF(32003)])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(cx=small_complexes(), seed=st.integers(0, 2**16))
def test_generated_lemma_equality(field, cx, seed):
    # over Q the seed draws nothing; the stacks take the integer loop
    with pytest.MonkeyPatch.context() as mp:  # a fixture would span all examples
        mp.setattr(verification, "I_EXTENT", 2)
        records = run_checks("generated", cx, field, checks=("lemma-equality",),
                             m_max=2, seed=seed)
    assert {r.check for r in records} <= {"lemma-equality", "lemma-surjectivity"}
    if cx.d >= 1:
        assert {r.check for r in records} == {"lemma-equality", "lemma-surjectivity"}
    assert all(r.passed for r in records)


def test_surjectivity_rank(cycle3, bowtie):
    for cx in (cycle3, bowtie):
        coeffs = make_generic(cx.n, 3, QQ)
        for ell in range(1, cx.d + 1):
            for m in (0, 1):
                for i in range(m + 1, m + 4):
                    got = restricted_theta_rank(cx, ell, m, i, coeffs, QQ)
                    assert got == kernel_dim_formula(cx, ell, m, i - 1, QQ)
