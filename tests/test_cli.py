"""Command-line interface: reports, round trips, exit codes, determinism."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import facering
from facering.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFY_FAILED, build_parser, main
from facering.corpus import corpus
from facering.verification import CheckResult, ledger_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_bowtie_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "bowtie", "--field", "q", "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["singularity_dimension"] == 0
    assert report["singular_faces"] == [[3]]
    assert report["cm_in_codim"] == {"0": True, "1": True, "2": False, "3": False, "4": False}
    assert report["is_cm"] is False and report["is_buchsbaum"] is False


def test_analyze_rp2_over_f2(capsys):
    code, out, _ = run_cli(capsys, "analyze", "rp2_6", "--field", "fp:2", "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["singularity_dimension"] == -1
    assert report["is_buchsbaum"] is True


def test_analyze_octahedron(capsys):
    code, out, _ = run_cli(capsys, "analyze", "octahedron", "--format", "json")
    report = json.loads(out)
    assert report["is_cm"] is True
    assert report["singularity_dimension"] == "-inf"


def test_analyze_accepts_files(tmp_path, capsys):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]}))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["singularity_dimension"] == "-inf"


def test_lc_rows(capsys):
    code, out, _ = run_cli(capsys, "lc", "cycle3", "--format", "json")
    rows = json.loads(out)["rows"]
    by_i = {row["i"]: row for row in rows}
    assert by_i[2]["pole_order"] == 2
    assert by_i[2]["coefficients"][:4] == [1, 3, 6, 9]
    assert by_i[1]["pole_order"] == 0 and by_i[1]["coefficients"] == [0] * 7
    code, out, _ = run_cli(capsys, "lc", "bowtie", "--format", "json")
    by_i = {row["i"]: row for row in json.loads(out)["rows"]}
    assert by_i[2]["pole_order"] == 1
    assert by_i[3]["pole_order"] == 3
    code, out, _ = run_cli(capsys, "lc", "pair_edges", "--format", "json")
    by_i = {row["i"]: row for row in json.loads(out)["rows"]}
    assert by_i[1]["series"] == {"numerator": [1], "denom_power": 0}
    assert by_i[1]["pole_order"] == 0


def test_predict_command(capsys):
    code, out, _ = run_cli(capsys, "predict", "bowtie", "--m", "1", "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["finite_local_cohomology"] is True
    dims = {(e["l"], e["i"]): e["dim"] for e in report["table"]["entries"]}
    assert [dims[(2, i)] for i in (1, 2, 3)] == [0, 2, 4]
    code, out, _ = run_cli(capsys, "predict", "bowtie", "--m", "0", "--format", "json")
    assert json.loads(out)["finite_local_cohomology"] is False
    code, out, _ = run_cli(capsys, "predict", "octahedron", "--m", "0", "--format", "json")
    assert json.loads(out)["finite_local_cohomology"] is True


def test_predict_tsv_agrees_with_json(capsys):
    _, out_json, _ = run_cli(capsys, "predict", "bowtie", "--m", "1", "--format", "json")
    _, out_tsv, _ = run_cli(capsys, "predict", "bowtie", "--m", "1", "--format", "tsv")
    entries = json.loads(out_json)["table"]["entries"]
    lines = out_tsv.strip().splitlines()
    assert lines[0] == "l\ti\tdim"
    cells = [tuple(map(int, line.split("\t"))) for line in lines[1:]]
    assert cells == [(e["l"], e["i"], e["dim"]) for e in entries]


def test_reduce_command(capsys):
    code, out, _ = run_cli(capsys, "reduce", "cycle3", "--m", "2", "--cutoff", "4", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["dims"] == [1, 1, 1, 0, 0]
    code, out, _ = run_cli(capsys, "reduce", "octahedron", "--m", "3", "--cutoff", "4", "--format", "json")
    assert json.loads(out)["result"]["dims"] == [1, 3, 3, 1, 0]


def test_reduce_with_trials(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "bowtie", "--m", "3", "--trials", "5",
        "--field", "fp:32003", "--seed", "2", "--cutoff", "5", "--format", "json",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["determinate"] is True
    assert len(report["runs"]) == 5


def test_verify_corpus_small_checks(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "corpus", "--check", "theorem-main", "--format", "json",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["passed"] is True
    assert report["summary"]["failed"] == 0
    assert all(rec["check"] == "theorem-main" for rec in report["checks"])


def test_verify_single_check_with_ranges(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "bowtie", "--check", "lemma-equality",
        "--l", "3", "--m", "1", "--i", "1..4", "--format", "json",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    recs = report["checks"]
    assert {rec["params"]["l"] for rec in recs} == {3}
    assert {rec["params"]["m"] for rec in recs} == {1}
    assert {rec["params"]["i"] for rec in recs} == {1, 2, 3, 4}
    equality = [rec for rec in recs if rec["check"] == "lemma-equality"]
    assert {rec["params"]["i"] for rec in equality} == {1, 2, 3, 4}
    for rec in equality:
        assert rec["values"]["bruteforce"] == rec["values"]["formula"]
    surjectivity = [rec for rec in recs if rec["check"] == "lemma-surjectivity"]
    assert {rec["params"]["i"] for rec in surjectivity} == {2, 3, 4}
    assert all(rec["passed"] for rec in surjectivity)


def test_verify_artinian_check_pinned_m(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "cycle3", "--check", "artinian-vs-sqfree", "--m", "1",
        "--format", "json",
    )
    assert code == EXIT_OK
    recs = json.loads(out)["checks"]
    by_degree = {rec["params"]["degree"]: rec["values"] for rec in recs}
    for j in (2, 3, 4, 5):
        assert by_degree[j]["reduction_rank_oracle"] == 3
        assert by_degree[j]["sqfree_formula"] == 3


def test_verify_huge_m_max_sweeps_only_up_to_d(capsys):
    # the m sweep stops at d = 2 for cycle3, however large --m-max is
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "cycle3", "--m-max", "1000000000",
                           "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    _, small, _ = run_cli(capsys, "verify", "cycle3", "--m-max", "2", "--format", "json")
    assert json.loads(out)["checks"] == json.loads(small)["checks"]


def test_verify_cm_anchor_check(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "octahedron", "--check", "cm-anchor", "--format", "json",
    )
    assert code == EXIT_OK
    rec = json.loads(out)["checks"][0]
    assert rec["values"]["reduction"] == [1, 3, 3, 1, 0]
    code, out, _ = run_cli(
        capsys, "verify", "bowtie", "--check", "cm-anchor", "--format", "json",
    )
    assert code == EXIT_OK
    assert "skipped" in json.loads(out)["checks"][0]["values"]


def test_verify_exit_code_reflects_ledger():
    good = CheckResult("demo", "cx", "q", {}, {"lhs": 1, "rhs": 1}, True)
    bad = CheckResult("demo", "cx", "q", {}, {"lhs": 1, "rhs": 2}, False)
    assert ledger_json([good])["passed"] is True
    assert ledger_json([good, bad])["passed"] is False
    assert ledger_json([good, bad])["summary"] == {"total": 2, "failed": 1}
    assert ledger_json([])["passed"] is False


def test_verify_empty_ledger_fails(capsys):
    for extra in (
        ["--check", "lemma-equality", "--i", "5..1"],
        ["--check", "lemma-equality", "--m", "5"],
        ["--check", "artinian-vs-sqfree", "--m", "0"],
    ):
        code, out, err = run_cli(capsys, "verify", "cycle3", *extra)
        assert code == EXIT_VERIFY_FAILED
        assert "all checks passed" not in out
        assert "no checks ran" in err
        code, out, _ = run_cli(capsys, "verify", "cycle3", *extra, "--format", "json")
        assert code == EXIT_VERIFY_FAILED
        report = json.loads(out)
        assert report["summary"]["total"] == 0 and report["passed"] is False


# SHA-256 of `verify corpus --format json` stdout, with its record count; a
# refactor must keep these ledgers byte-identical.  The --m-max 2 and 3 runs
# are the ones the benchmark times, and they pin the stacks of two and three
# forms.
LEDGER_DIGESTS = {
    ("--field", "q"):
        (943, "490e75c926ce7e09546f41bbbb8d9e0469b2b1069236e12ee11ee3161e1e22bd"),
    ("--field", "fp:32003", "--seed", "1"):
        (943, "1e8f221f6bb56ab099f0b248f3624310d10f0175dcc0f148bb66259f0796f1ce"),
    ("--field", "q", "--m-max", "2"):
        (1054, "ad0da984aa20076061be751aea5666da018d6c580905f0ecb109e4d7e14ef24b"),
    ("--field", "fp:32003", "--m-max", "3", "--seed", "1"):
        (1129, "559d591e5ab594819269e408697cb77e885db31418a13a262e72e3a2c6daaa0d"),
}


@pytest.mark.parametrize("args", sorted(LEDGER_DIGESTS))
def test_verify_corpus_ledger_digest(capsys, args):
    total, digest = LEDGER_DIGESTS[args]
    code, out, _ = run_cli(capsys, "verify", "corpus", "--format", "json", *args)
    assert code == EXIT_OK
    assert json.loads(out)["summary"] == {"total": total, "failed": 0}
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# SHA-256 of the concatenated `<command> <name> --field F --format json ...`
# stdout over CORPUS_ORDER; fp:2 covers the 2-torsion of rp2_6.
CORPUS_ORDER = ("cycle3", "bowtie", "pair_edges", "octahedron", "rp2_6")
REPORT_DIGESTS = {
    ("analyze", "q"): "aac440e21aa32baca57eeb9e44a659eec8f318734442b4207c670cec9e6f8bed",
    ("analyze", "fp:2"): "9e3e8951488769c80764f5d32553bc164168628349d93308d5ff90fa099c07da",
    ("lc", "q"): "d228cce04d9da75e003aad70f674a4f80e6b29cd221a5bcd2d51fa83eb17a9e9",
    ("lc", "fp:2"): "2eb870f4c888be1f03b8bb06b7cc9271133f7dc046bba11e2cbf84f2cc0302c9",
    ("predict", "q"): "6a2bc2b730925ed837fd8c15fa77bf1d9f056c042a7e4e8cfbb22edaa4c669e5",
    ("predict", "fp:2"): "3c6dd38380bf8f54ef4bb374eeb83b8168e0b6acfa826c5d7239266f4d4e2403",
}
REPORT_EXTRA = {"analyze": (), "lc": ("--cutoff", "6"), "predict": ("--m", "1")}


@pytest.mark.parametrize("command,field", sorted(REPORT_DIGESTS))
def test_report_digest(capsys, command, field):
    outs = []
    for name in CORPUS_ORDER:
        code, out, _ = run_cli(capsys, command, name, "--field", field, "--format", "json",
                               *REPORT_EXTRA[command])
        assert code == EXIT_OK
        outs.append(out)
    digest = hashlib.sha256("".join(outs).encode("utf-8")).hexdigest()
    assert digest == REPORT_DIGESTS[command, field]


# SHA-256 of the concatenated `reduce <name> --m 2 --cutoff 8 --format json ...`
# stdout over CORPUS_ORDER; pins the reduction matrices past the ledger's cutoffs.
REDUCE_DIGESTS = {
    ("--field", "q"): "6c270c1fa4941cbbda20042e6dffd29ef0a4d83fd24805cae24323c70af524d9",
    ("--field", "fp:32003", "--trials", "2", "--seed", "3"):
        "3decdf52ee6eba8458d22d0dc8b324f5df1204d1096e77688133b2d8da0bdc89",
}


@pytest.mark.parametrize("args", sorted(REDUCE_DIGESTS))
def test_reduce_digest(capsys, args):
    outs = []
    for name in CORPUS_ORDER:
        code, out, _ = run_cli(capsys, "reduce", name, "--m", "2", "--cutoff", "8",
                               *args, "--format", "json")
        assert code == EXIT_OK
        outs.append(out)
    digest = hashlib.sha256("".join(outs).encode("utf-8")).hexdigest()
    assert digest == REDUCE_DIGESTS[args]


# SHA-256 of the concatenated stdout of the three reductions the benchmark's
# reduce-deep workload runs (its probe with --seed 1), taken before the
# incremental elimination replaced the one-rank-per-degree matrices.
REDUCE_DEEP = (
    ("rp2_6", "--m", "2", "--cutoff", "10"),
    ("rp2_6", "--m", "2", "--cutoff", "10", "--field", "fp:32003", "--trials", "2", "--seed", "1"),
    ("octahedron", "--m", "3", "--cutoff", "10"),
)
REDUCE_DEEP_DIGEST = "dfa5a24e2f5ad35ea54b9806d8aef09078e98a5074224dc33e5cb468e970f0ce"


def test_reduce_deep_digest(capsys):
    outs = []
    for args in REDUCE_DEEP:
        code, out, _ = run_cli(capsys, "reduce", *args, "--format", "json")
        assert code == EXIT_OK
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode("utf-8")).hexdigest() == REDUCE_DEEP_DIGEST


# The corpus is pure; these non-pure complexes have faces F with
# dim lk F + |F| < dim, which the CM-along-a-face test must handle.
NON_PURE = {
    "pendant.json": {"n": 4, "facets": [[1, 2, 3], [3, 4]]},
    "tetra_tail.json": {"n": 6, "facets": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4],
                                           [4, 5], [5, 6]]},
    "mixed.json": {"n": 7, "facets": [[1, 2, 3, 4], [4, 5, 6], [6, 7], [1, 7]]},
}
NON_PURE_DIGESTS = {
    "q": "2be7ad142015687bab7ba51fec579109d3aba1b4bc51b476300f376be88518ed",
    "fp:2": "0a2dc12d3eb3368cdc2b5194d2fb33b1f69c1bd4634da6602468ccb1214a44ed",
}


@pytest.mark.parametrize("field", sorted(NON_PURE_DIGESTS))
def test_non_pure_analyze_digest(capsys, tmp_path, monkeypatch, field):
    monkeypatch.chdir(tmp_path)
    outs = []
    for name, data in NON_PURE.items():
        with open(name, "w") as fh:
            json.dump(data, fh)
        code, out, _ = run_cli(capsys, "analyze", name, "--field", field, "--format", "json")
        assert code == EXIT_OK
        outs.append(out)
    digest = hashlib.sha256("".join(outs).encode("utf-8")).hexdigest()
    assert digest == NON_PURE_DIGESTS[field]


# `rp2_6` suspended: its F_p ledger holds the largest θ stacks of any pinned
# run (2,964 x 1,168 at l = 4, i = 6), so it pins their column order.
SUSP1_FP_DIGEST = "85e8cd189f822905f0bd0330638930ba271530f2e4af957353cd09e66f7d17da"


def test_suspended_rp2_ledger_digest(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    facets = sorted(sorted(F) for F in corpus()["rp2_6"].facets)
    with open("susp1.json", "w") as fh:
        json.dump({"n": 8, "facets": [F + [7] for F in facets] + [F + [8] for F in facets]}, fh)
    code, out, _ = run_cli(capsys, "verify", "susp1.json", "--field", "fp:32003",
                           "--m-max", "3", "--seed", "1", "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SUSP1_FP_DIGEST


def test_verify_json_deterministic(capsys):
    args = [
        "verify", "bowtie", "--field", "fp:32003", "--seed", "11",
        "--m-max", "2", "--format", "json",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_verify_json_same_across_processes():
    # string hashing is salted per process; the ledger must not depend on it
    src = str(Path(facering.__file__).resolve().parents[1])
    args = [sys.executable, "-m", "facering.cli", "verify", "bowtie", "--field", "fp:32003",
            "--m-max", "2", "--seed", "1", "--format", "json"]
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(args, env=env, capture_output=True, timeout=120, check=True)
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_runs_without_numpy():
    # importing the CLI loads no numpy, and verify passes with every import
    # of numpy made to fail
    src = str(Path(facering.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import sys
        import facering.cli
        assert "numpy" not in sys.modules
        sys.modules["numpy"] = None
        for field in (["q", "--m-max", "2"], ["fp:32003", "--m-max", "3", "--seed", "1"]):
            argv = ["verify", "rp2_6", "--format", "json", "--field", *field]
            assert facering.cli.main(argv) == facering.cli.EXIT_OK, argv
    """)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_sqfree_command(tmp_path, capsys):
    data = {
        "n": 3,
        "dims": [
            {"F": [0, 0, 0], "dim": 1},
            {"F": [1, 0, 0], "dim": 1},
            {"F": [0, 1, 0], "dim": 1},
            {"F": [0, 0, 1], "dim": 1},
            {"F": [1, 1, 0], "dim": 1},
            {"F": [1, 0, 1], "dim": 1},
            {"F": [0, 1, 1], "dim": 1},
        ],
    }
    path = tmp_path / "sq.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "sqfree", str(path), "--m", "1", "--cutoff", "5", "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["module_hilbert"] == [1, 3, 6, 9, 12, 15]
    assert [e["dim"] for e in report["quotient_hilbert"]] == [3, 3, 3, 3]
    assert "caveat" in report


def test_sqfree_tsv_agrees_with_json(tmp_path, capsys):
    # the quotient column is blank in degrees i <= m
    path = tmp_path / "sq.json"
    path.write_text(json.dumps({"n": 3, "dims": [{"F": [0, 0, 0], "dim": 1},
                                                 {"F": [1, 1, 0], "dim": 2},
                                                 {"F": [1, 1, 1], "dim": 1}]}))
    args = ("sqfree", str(path), "--m", "2", "--cutoff", "7")
    _, out_json, _ = run_cli(capsys, *args, "--format", "json")
    _, out_tsv, _ = run_cli(capsys, *args, "--format", "tsv")
    report = json.loads(out_json)
    lines = out_tsv.splitlines()
    assert lines[0] == "i\tmodule_dim\tquotient_dim"
    quotient = {e["i"]: str(e["dim"]) for e in report["quotient_hilbert"]}
    assert sorted(quotient) == [3, 4, 5, 6, 7]
    assert [line.split("\t") for line in lines[1:]] == [
        [str(i), str(dim), quotient.get(i, "")] for i, dim in enumerate(report["module_hilbert"])]


@pytest.mark.parametrize("argv", [
    pytest.param(("lc", "cycle3", "--cutoff", "100000000"), id="lc"),
    pytest.param(("predict", "rp2_6", "--m", "1", "--cutoff", "100000000"), id="predict"),
    pytest.param(("sqfree", "SQ", "--m", "1", "--cutoff", "100000000"), id="sqfree"),
])
def test_huge_cutoff_is_refused_before_work(tmp_path, capsys, argv):
    # every reported number is charged the faces or table entries it sums
    path = tmp_path / "sq.json"
    path.write_text(json.dumps({"n": 1, "dims": []}))
    argv = [str(path) if a == "SQ" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT_ERROR
    assert not out and "guard of 5000000" in err


@pytest.mark.parametrize("data", [
    {"n": 2, "dims": [{"F": [1, 0], "dim": 1.9}]},
    {"n": 2, "dims": [{"F": [1, 0], "dim": "2"}]},
    {"n": 2, "dims": [{"F": [1, 0], "dim": True}]},
    {"n": 2, "dims": [{"F": [True, False], "dim": 1}]},
    {"n": True, "dims": [{"F": [1], "dim": 1}]},
    {"n": 2.0, "dims": []},
    {"n": -1, "dims": []},
])
def test_sqfree_rejects_non_integer_entries(tmp_path, capsys, data):
    path = tmp_path / "sq.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "sqfree", str(path), "--m", "1", "--cutoff", "3")
    assert code == EXIT_INPUT_ERROR
    assert not out and "error" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "/no/such/file.json")
    assert code == EXIT_INPUT_ERROR
    assert "error" in err


def test_bad_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_INPUT_ERROR
    assert "line" in err


def test_nonprime_field_rejected(capsys):
    code, _, err = run_cli(capsys, "analyze", "cycle3", "--field", "fp:6")
    assert code == EXIT_INPUT_ERROR
    assert "prime" in err


def test_bad_vertex_index_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "facets": [[1, 5]]}))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_INPUT_ERROR
    assert "out of range" in err


@pytest.mark.parametrize("facets", [5, [5]])
def test_malformed_facets_are_input_error(tmp_path, capsys, facets):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"n": 3, "facets": facets}))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_INPUT_ERROR
    assert "malformed.json" in err


def test_oversized_reduction_is_refused_before_elimination(capsys):
    # the reduction matrices of rp2_6 with two forms pass 5,000,000 cells,
    # summed over the degrees with 1,000 charged per degree, at degree 14
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "reduce", "rp2_6", "--m", "2", "--cutoff", "40")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT_ERROR
    assert "degrees 1..14 costs 5370057 cells" in err and "guard" in err


@pytest.mark.parametrize("m, cutoff, spec", [
    pytest.param("1", "740", "cycle3", id="1-740"),
    pytest.param("0", "100000", "cycle3", id="0-100000"),
    # one vertex: one monomial per degree, so only the per-degree charge stops these
    pytest.param("1", "20000", "POINT", id="point-1-20000"),
    pytest.param("0", "1000000000", "POINT", id="point-0-1000000000"),
    pytest.param("1", "1000000", "POINT", id="point-1-1000000"),
])
def test_reduction_guard_sums_all_degrees(tmp_path, capsys, m, cutoff, spec):
    # the top-degree matrix alone is under the guard (m = 1) or empty (m = 0)
    if spec == "POINT":
        spec = str(tmp_path / "point.json")
        Path(spec).write_text(json.dumps({"n": 1, "facets": [[1]]}))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "reduce", spec, "--m", m, "--cutoff", cutoff)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT_ERROR
    assert "guard" in err


@pytest.mark.parametrize("void", ["false", 0, 1, None])
def test_void_flag_must_be_boolean(tmp_path, capsys, void):
    path = tmp_path / "void.json"
    path.write_text(json.dumps({"n": 3, "facets": [], "void": void}))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_INPUT_ERROR
    assert not out and "'void' must be true or false" in err


@pytest.mark.parametrize("argv", [
    ("analyze", "cycle3", "--seed", "1"),
    ("analyze", "cycle3", "--cutoff", "3"),
    ("lc", "cycle3", "--seed", "1"),
    ("predict", "cycle3", "--m", "1", "--seed", "1"),
    ("verify", "cycle3", "--cutoff", "3"),
    ("sqfree", "DATA", "--m", "1", "--field", "fp:6"),
    ("sqfree", "DATA", "--m", "1", "--seed", "1"),
])
def test_commands_refuse_options_they_do_not_read(tmp_path, capsys, argv):
    data = tmp_path / "sq.json"
    data.write_text(json.dumps({"n": 2, "dims": [{"F": [1, 0], "dim": 1}]}))
    with pytest.raises(SystemExit) as exc:
        main([str(data) if a == "DATA" else a for a in argv])
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err


def test_positional_help_names_what_each_command_reads():
    (commands,) = [a.choices for a in build_parser()._actions if a.dest == "command"]
    helps = {name: next(a.help for a in p._actions if a.dest == "input")
             for name, p in commands.items()}
    assert "squarefree data" in helps.pop("sqfree")
    assert "'corpus'" in helps.pop("verify")
    assert set(helps) == {"analyze", "lc", "predict", "reduce"}
    for text in helps.values():
        assert "complex" in text and "corpus" not in text


def test_readme_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = [line for line in readme.read_text(encoding="utf-8").splitlines()
                if line.startswith("facering ")]
    assert len(examples) >= 6
    parser = build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])


def test_huge_facet_is_input_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 40, "facets": [list(range(1, 41))]}))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_INPUT_ERROR
    assert "guard" in err


def test_negative_cutoff_is_input_error(capsys):
    for command in (["lc", "cycle3"], ["reduce", "cycle3", "--m", "1"]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--cutoff", "-3"])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "nonnegative" in capsys.readouterr().err


def test_negative_m_max_is_input_error(capsys):
    # a negative sweep would drop the brute-force checks from the ledger
    # instead of running them
    for extra in ([], ["--check", "lemma-equality"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "cycle3", "--m-max", "-3", *extra])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--m", "-3", "expected a nonnegative integer, got '-3'"),
    ("--l", "0", "expected a positive integer, got '0'"),
    ("--l", "-1", "expected a positive integer, got '-1'"),
])
def test_verify_pins_are_range_checked(capsys, option, value, message):
    # --m -3 used to fail deep inside the ledger, and --l -1 passed with
    # records whose two routes both read 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "cycle3", "--check", "lemma-equality", option, value])
    assert exc.value.code == EXIT_INPUT_ERROR
    assert message in capsys.readouterr().err


def test_generic_matrix_impossible_over_small_prime(capsys):
    code, _, err = run_cli(capsys, "verify", "corpus", "--check", "lemma-equality",
                           "--i", "2..3", "--m", "2", "--field", "fp:3", "--seed", "5")
    assert code == EXIT_INPUT_ERROR
    assert "at most p - 1 = 2 rows" in err
    assert "tries" not in err


def test_corpus_only_for_verify(capsys):
    code, _, err = run_cli(capsys, "analyze", "corpus")
    assert code == EXIT_INPUT_ERROR


def test_reports_reparse_identically(capsys):
    for argv in (
        ["analyze", "bowtie", "--format", "json"],
        ["lc", "cycle3", "--format", "json"],
        ["predict", "bowtie", "--m", "1", "--format", "json"],
        ["reduce", "cycle3", "--m", "1", "--format", "json"],
    ):
        _, out, _ = run_cli(capsys, *argv)
        report = json.loads(out)
        assert json.loads(json.dumps(report, sort_keys=True)) == report
