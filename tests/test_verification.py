"""The verify ledger's table of checks: lookup, dispatch and traceability."""

import pytest

from facering import verification
from facering.linalg import GF, QQ
from facering.verification import SUITE_CHECKS, run_checks


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
