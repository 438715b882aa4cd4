"""The verify ledger's table of checks: lookup, dispatch and traceability."""

import pytest
from hypothesis import given, settings

from facering import verification
from facering.complexes import SimplicialComplex
from facering.linalg import GF, QQ, Matrix
from facering.verification import SUITE_CHECKS, run_checks

from complex_strategies import small_complexes


def test_every_check_is_called_through_its_module_attribute(bowtie, monkeypatch):
    # a tracer times a check by replacing its module attribute, so run_checks
    # must call that attribute, once per complex, and get a finished list back
    calls = {}

    def counting(check, fn):
        def wrapper(*args):
            result = fn(*args)
            calls[check] = calls.get(check, 0) + 1
            assert isinstance(result, list)
            return result
        return wrapper

    for check in SUITE_CHECKS:
        attr = verification.CHECKS[check]
        monkeypatch.setattr(verification, attr, counting(check, getattr(verification, attr)))
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
