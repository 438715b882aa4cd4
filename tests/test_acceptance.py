"""Acceptance criteria: exact (tolerance-zero) arithmetic identities.

Each test covers one numbered criterion over the bundled complex corpus and
prints a PASS line once every identity in its sweep has been checked.  All
comparisons are exact: integer dimensions, booleans, or byte equality.
"""

import json

from facering.artinian import determinacy_probe, reduction_hilbert
from facering.cli import main as cli_main
from facering.cohomology import induced_map, reduced_cohomology_dim, relative_cohomology
from facering.linalg import GF, QQ
from facering.local_cohomology import (
    graded_piece,
    kernel_dim_bruteforce,
    kernel_dim_formula,
    lc_coarse_dim,
    lc_hilbert_series,
    make_generic,
    restricted_theta_rank,
)
from facering.quotient import (
    is_homologically_isolated,
    isolated_quotient_dims,
    predicts_finite_lc,
    quotient_lc_dim,
    vertex_cohomology_map,
)
from facering.singularity import cm_in_codim, singularity_dimension
from facering.squarefree import (
    sqfree_data_of_face_ring,
    sqfree_lc_data,
    sqfree_quotient_hilbert,
    sqfree_quotient_lc,
)

from matrices import rank

F2, F3, FBIG = GF(2), GF(3), GF(32003)


def _pass(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_lemma_equality_bruteforce(complexes):
    cells = 0
    for field in (QQ, FBIG):
        for name, cx in complexes.items():
            coeffs = make_generic(cx.n, 3, field, seed=1001)
            for ell in range(1, cx.d + 1):
                for m in (0, 1, 2):
                    for i in range(m, m + 4):
                        brute = kernel_dim_bruteforce(cx, ell, m, i, coeffs, field)
                        formula = kernel_dim_formula(cx, ell, m, i, field)
                        assert brute == formula, (name, str(field), ell, m, i, brute, formula)
                        cells += 1
                        if i >= m + 1:
                            got = restricted_theta_rank(cx, ell, m, i, coeffs, field)
                            want = kernel_dim_formula(cx, ell, m, i - 1, field)
                            assert got == want, (name, str(field), ell, m, i, got, want)
    _pass(1, f"kernel brute force = closed formula (+ surjectivity ranks), {cells} cells, Q and F_32003")


def test_criterion_2_theorem_main_agreement(complexes):
    cells = 0
    anchors = {}
    for field in (QQ, F2, F3):
        for name, cx in complexes.items():
            sd = singularity_dimension(cx, field)
            r = cx.dim
            for m in range(0, cx.d + 1):
                p1 = sd < m
                p2 = predicts_finite_lc(cx, m, field)
                p3 = all(
                    lc_hilbert_series(cx, i, field).pole_order <= m for i in range(0, cx.d)
                )
                p4 = cm_in_codim(cx, r - m, field)
                assert p1 == p2 == p3 == p4, (name, str(field), m, p1, p2, p3, p4)
                anchors[(name, str(field), m)] = p1
                cells += 1
    # known anchors
    assert [anchors[("bowtie", "q", m)] for m in range(4)] == [False, True, True, True]
    assert all(anchors[("rp2_6", "fp:2", m)] for m in range(4))
    assert all(anchors[("octahedron", "q", m)] for m in range(4))
    _pass(2, f"four finite-local-cohomology predicates agree, {cells} cells, Q/F_2/F_3")


def test_criterion_3_link_coherence(complexes):
    cells = 0
    for field in (QQ, F2):
        for name, cx in complexes.items():
            for F in cx.faces():
                link = cx.link(F)
                for i in range(0, cx.d + 1):
                    lhs = relative_cohomology(cx, F, i - 1, field).ncols
                    rhs = reduced_cohomology_dim(link, i - 1 - len(F), field)
                    assert lhs == rhs, (name, str(field), sorted(F), i, lhs, rhs)
                    cells += 1
    _pass(3, f"pair cohomology = link cohomology at every face, {cells} cells, Q and F_2")


def test_criterion_4_hochster_coarse_counts(complexes):
    cells = 0
    for field in (QQ, F2):
        for name, cx in complexes.items():
            for i in range(0, cx.d + 1):
                series = lc_hilbert_series(cx, i, field)
                for j in range(0, 7):
                    a = series.coefficient(j)
                    b = lc_coarse_dim(cx, i, -j, field)
                    c = graded_piece(cx, i, j, field).total_dim
                    assert a == b == c, (name, str(field), i, j, a, b, c)
                    cells += 1
    anchor = [lc_hilbert_series(complexes["cycle3"], 2, QQ).coefficient(j) for j in range(5)]
    assert anchor == [1, 3, 6, 9, 12]
    _pass(4, f"series expansion = closed count = block enumeration, {cells} cells")


def test_criterion_5_kernel_identification(complexes):
    cells = 0
    for field in (QQ, F2):
        for name, cx in complexes.items():
            d = cx.d
            for m in range(0, d + 1):
                for ell in range(1, d - m + 1):
                    for i in range(1, 7):
                        lhs = quotient_lc_dim(cx, m, ell, i, field)
                        rhs = kernel_dim_formula(cx, ell + m, m, i + m - 1, field)
                        assert lhs == rhs, (name, str(field), m, ell, i, lhs, rhs)
                        cells += 1
    _pass(5, f"quotient prediction = kernel formula, {cells} cells")


def test_criterion_6_sqfree_vs_artinian_oracle(complexes):
    cells = 0
    for field, seed in ((QQ, None), (FBIG, 2024)):
        for name, cx in complexes.items():
            data = sqfree_data_of_face_ring(cx)
            for m in range(1, cx.d + 1):
                coeffs = make_generic(cx.n, m, field, seed=seed)
                red = reduction_hilbert(cx, coeffs, m, m + 4, field)
                for j in range(m + 1, m + 5):
                    want = sqfree_quotient_hilbert(data, m, j)
                    assert red.dims[j] == want, (name, str(field), m, j, red.dims[j], want)
                    cells += 1
    # anchors
    A = make_generic(3, 1, QQ)
    assert reduction_hilbert(complexes["cycle3"], A, 1, 4, QQ).dims[2:] == (3, 3, 3)
    A6 = make_generic(6, 3, QQ)
    assert reduction_hilbert(complexes["octahedron"], A6, 3, 5, QQ).dims == (1, 3, 3, 1, 0, 0)
    _pass(6, f"Artinian rank oracle = squarefree quotient formula, {cells} cells, Q and F_32003")


def test_criterion_7_cm_anchor(complexes):
    expected = {
        "cycle3": (1, 1, 1, 0),
        "octahedron": (1, 3, 3, 1, 0),
        "rp2_6": (1, 3, 6, 0, 0),
    }
    for name, want in expected.items():
        cx = complexes[name]
        d = cx.d
        coeffs = make_generic(cx.n, d, QQ)
        red = reduction_hilbert(cx, coeffs, d, d + 1, QQ)
        assert red.dims == want, (name, red.dims, want)
        assert red.dims == tuple(cx.h_vector()) + (0,)
    _pass(7, "full reductions of CM corpus members equal their padded h-vectors")


def test_criterion_8_isolated_singularity_block(complexes):
    bowtie = complexes["bowtie"]
    ones = [1] * 5
    f1 = vertex_cohomology_map(bowtie, 1, ones, QQ)
    assert f1.ncols - rank(f1) == 1  # ker f^1
    # only the singular vertex 3 has classes: f^1 is the map they induce
    assert f1 == induced_map(bowtie, {3}, (), 1, QQ)
    f0 = vertex_cohomology_map(bowtie, 0, ones, QQ)
    assert f0.nrows - rank(f0) == 0  # coker f^0
    assert isolated_quotient_dims(bowtie, ones, 1, QQ) == (0, 1, 0)
    assert is_homologically_isolated(bowtie, QQ)
    constant, runs = determinacy_probe(bowtie, 3, 5, 5, FBIG, seed=31)
    assert constant
    assert len({run.dims for run in runs}) == 1
    _pass(8, "vertex-map kernel/cokernel block, homological isolation, and determinacy probe")


def test_criterion_9_tsqfree_consistency(complexes):
    cells = 0
    for field in (QQ, F2):
        for name, cx in complexes.items():
            d = cx.d
            for m in range(0, d + 1):
                for ell in range(1, d - m + 1):
                    table = sqfree_lc_data(cx, ell + m, field)
                    for i in range(1, 6):
                        lhs = sqfree_quotient_lc(table, m, i)
                        rhs = quotient_lc_dim(cx, m, ell, i, field)
                        assert lhs == rhs, (name, str(field), m, ell, i, lhs, rhs)
                        cells += 1
    _pass(9, f"squarefree-route quotient prediction matches the direct formula, {cells} cells")


def test_criterion_10_verify_determinism(capsys):
    argv = [
        "verify", "bowtie", "--field", "fp:32003", "--seed", "11",
        "--m-max", "2", "--format", "json",
    ]
    code1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    ledger = json.loads(out1)
    assert ledger["passed"] is True
    _pass(10, "repeated verify runs with one seed emit byte-identical JSON ledgers")
