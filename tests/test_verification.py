"""The verify ledger's table of checks, and the whole suite on generated complexes."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings

from facering import verification
from facering.complexes import SimplicialComplex
from facering.linalg import GF, QQ, Matrix
from facering.verification import SUITE_CHECKS, ledger_json, run_checks

from complex_strategies import small_complexes


def test_every_check_is_called_once_from_the_table(bowtie, monkeypatch):
    # run_checks calls each CHECKS entry once per complex and gets a
    # finished list back
    calls = {}

    def counting(check, fn):
        def wrapper(*args):
            result = fn(*args)
            calls[check] = calls.get(check, 0) + 1
            assert isinstance(result, list)
            return result
        return wrapper

    for check, fn in list(verification.CHECKS.items()):
        monkeypatch.setitem(verification.CHECKS, check, counting(check, fn))
    records = run_checks("bowtie", bowtie, QQ)
    assert calls == dict.fromkeys(SUITE_CHECKS, 1)
    assert records and all(r.passed and r.complex_name == "bowtie" for r in records)


def test_unknown_check_is_refused(bowtie):
    with pytest.raises(ValueError, match="unknown check 'nope'"):
        run_checks("bowtie", bowtie, QQ, checks=("nope",))


def test_prime_field_mismatch_is_redrawn_once(cycle3, monkeypatch):
    # the first coefficient draw is made to look unlucky: over F_p the redraw
    # settles every degree, over Q nothing is redrawn and the mismatch stands
    real, drawn = verification.kernel_dim_bruteforce, []

    def unlucky(cx, ell, m, i, coeffs, field):
        drawn.append(coeffs)
        return -1 if coeffs is drawn[0] else real(cx, ell, m, i, coeffs, field)

    monkeypatch.setattr(verification, "kernel_dim_bruteforce", unlucky)
    for field, redrawn in ((GF(32003), True), (QQ, False)):
        drawn.clear()
        records = [r for r in run_checks("cycle3", cycle3, field, checks=("lemma-equality",),
                                         seed=5)
                   if r.check == "lemma-equality"]
        assert records
        assert all(r.params["retried"] is redrawn and r.passed is redrawn for r in records)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_lemma_equality_builds_no_matrix_but_the_coefficients(rp2_6, field, monkeypatch):
    # the θ stacks read the induced maps as sparse rows, so on rp2_6
    # suspended (a fresh complex, so no memo is warm) every Matrix built
    # during the check is a coefficient matrix that make_generic draws
    n, facets = rp2_6.n, [sorted(F) for F in rp2_6.facets]
    susp1 = SimplicialComplex(n + 2, [F + [v] for F in facets for v in (n + 1, n + 2)])
    built, inside = {True: 0, False: 0}, [False]
    real_init, real_generic = Matrix.__init__, verification.make_generic

    def init(self, *args, **kwargs):
        built[inside[0]] += 1
        real_init(self, *args, **kwargs)

    def generic(*args, **kwargs):
        inside[0] = True
        try:
            return real_generic(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(Matrix, "__init__", init)
    monkeypatch.setattr(verification, "make_generic", generic)
    records = run_checks("susp1", susp1, field, checks=("lemma-equality",), m_max=2, seed=1)
    assert records and all(r.passed for r in records)
    assert built[True] >= 1 and built[False] == 0


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_complexes())
def test_generated_series_and_main_theorem(cx):
    # the Hilbert series numerator against the closed count and the block
    # enumeration, and the four finite-local-cohomology characterizations
    for field in (QQ, GF(2)):
        records = run_checks("generated", cx, field, checks=("hochster-counts", "theorem-main"))
        assert {r.check for r in records} == {"hochster-counts", "theorem-main"}
        assert all(r.passed for r in records), [r for r in records if not r.passed]


def _random_family():
    """60 complexes (51 distinct) on 4 to 7 vertices, each generated by 2 to 6
    facets of 1 to 4 vertices, drawn from random.Random(11)."""
    rng = random.Random(11)
    out = []
    for _ in range(60):
        n = rng.randint(4, 7)
        facets = [rng.sample(range(1, n + 1), rng.randint(1, 4))
                  for _ in range(rng.randint(2, 6))]
        out.append(SimplicialComplex(n, facets))
    return out


# SHA-256 of the ledger_json of the whole suite on _random_family, m_max = 3
RANDOM_FAMILY_DIGESTS = {
    "q": (17733, "26920f96bb936dba748415ffae3fdc45f1817843de24f67404704f9a9a439b68"),
    "fp:32003": (17733, "02c33e70e31ecf7780e59800292c1b011c38ddb0210224f4963ad66cbe7601b4"),
}


@pytest.mark.parametrize("field,seed", [(QQ, None), (GF(32003), 1)], ids=str)
def test_whole_suite_on_a_random_family(field, seed):
    records = []
    for k, cx in enumerate(_random_family()):
        records += run_checks(f"random{k}", cx, field, m_max=3, seed=seed)
    assert all(r.passed for r in records), [r for r in records if not r.passed]
    assert {r.check for r in records} == {*SUITE_CHECKS, "lemma-surjectivity"}
    text = json.dumps(ledger_json(records), indent=2, sort_keys=True)
    total, digest = RANDOM_FAMILY_DIGESTS[str(field)]
    assert len(records) == total
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
