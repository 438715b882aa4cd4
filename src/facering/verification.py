"""Named consistency checks pairing independent computation routes.

A check is a function (cx, field, run) that returns, for one complex, a list
of (label, params, values, passed) tuples carrying the parameters and the
values computed on each route, so a failing ledger line is directly
actionable.  run_checks alone turns them into CheckResult records with the
complex name and field.  Adding a check means one function and one entry in
CHECKS, which maps the check's name to the function's name.  The routes are
kept genuinely independent: closed binomial formulas against brute-force
elimination (the rank of the stacked multiplication maps), link cohomology
against pair cohomology, Hilbert series expansions against direct basis
enumeration, and the Artinian rank oracle against the squarefree quotient
formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import artinian, quotient, singularity, squarefree
from .cohomology import reduced_cohomology_dim, relative_cohomology_dim
from .complexes import SimplicialComplex, mixed_face_key
from .linalg import FieldSpec
from .local_cohomology import (
    graded_piece,
    kernel_dim_bruteforce,
    kernel_dim_formula,
    lc_coarse_dim,
    lc_hilbert_series,
    make_generic,
    restricted_theta_rank,
)

J_MAX = 6  # hochster-counts: Z-degrees 0 down to -J_MAX
I_MAX = 5  # kernel-identification and tsqfree: quotient degrees -1 down to -I_MAX
I_EXTENT = 3  # lemma-equality: kernel degrees m..m+I_EXTENT unless i_values pins them
RESAMPLE_SEED_OFFSET = 7919  # a prime-field mismatch is redrawn with seed (seed or 0) + this


@dataclass(frozen=True)
class CheckResult:
    check: str
    complex_name: str
    field: str
    params: dict
    values: dict
    passed: bool

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "complex": self.complex_name,
            "field": self.field,
            "params": self.params,
            "values": self.values,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class Run:
    """The parameters run_checks passes every check.  Each check keeps the
    members of m_values in its own range; ell_values and i_values are None
    unless pinned."""

    m_values: tuple[int, ...]
    ell_values: tuple[int, ...] | None
    i_values: tuple[int, ...] | None
    seed: int | None


def _resampled(got, want, recompute, cx: SimplicialComplex, m: int, field: FieldSpec,
               seed: int | None):
    """(value, retried): over a prime field a value that disagrees with want is
    recomputed once on freshly drawn n x m coefficients, to rule out an
    unlucky, non-generic draw."""
    if got == want or field.is_rational:
        return got, False
    return recompute(make_generic(cx.n, m, field, seed=(seed or 0) + RESAMPLE_SEED_OFFSET)), True


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def check_link_iso(cx: SimplicialComplex, field: FieldSpec, run: Run) -> list:
    """Pair cohomology against link cohomology, all faces, all degrees up to d."""
    out = []
    for F in sorted(cx.faces(), key=mixed_face_key):
        link = cx.link(F)
        for i in range(0, cx.d + 1):
            lhs = relative_cohomology_dim(cx, F, i - 1, field)
            rhs = reduced_cohomology_dim(link, i - 1 - len(F), field)
            out.append(("link-iso", {"face": sorted(F), "i": i},
                        {"pair_route": lhs, "link_route": rhs}, lhs == rhs))
    return out


def check_hochster_counts(cx: SimplicialComplex, field: FieldSpec, run: Run) -> list:
    """Series expansion vs the closed count vs direct block enumeration, Z-degrees 0..-J_MAX."""
    out = []
    for i in range(0, cx.d + 1):
        series = lc_hilbert_series(cx, i, field)
        for j in range(0, J_MAX + 1):
            values = {
                "series": series.coefficient(j),
                "formula": lc_coarse_dim(cx, i, -j, field),
                "enumeration": graded_piece(cx, i, j, field).total_dim,
            }
            out.append(("hochster-counts", {"i": i, "j": j}, values,
                        len(set(values.values())) == 1))
    return out


def check_theorem_main(cx: SimplicialComplex, field: FieldSpec, run: Run) -> list:
    """Four-way agreement of the finite-local-cohomology characterizations."""
    out = []
    sd = singularity.singularity_dimension(cx, field)
    for m in range(0, cx.d + 1):
        values = {
            "singularity_dimension_lt_m": sd < m,
            "finite_lc_prediction": quotient.predicts_finite_lc(cx, m, field),
            "pole_orders_le_m": all(lc_hilbert_series(cx, i, field).pole_order <= m
                                    for i in range(0, cx.d)),
            "cm_in_codim_r_minus_m": singularity.cm_in_codim(cx, cx.dim - m, field),
        }
        out.append(("theorem-main", {"m": m}, values, len(set(values.values())) == 1))
    return out


def check_singdim_chain(cx: SimplicialComplex, field: FieldSpec, run: Run) -> list:
    """Finite-local-cohomology prediction against the codimension criterion."""
    out = []
    for m in range(0, cx.d + 1):
        p2 = quotient.predicts_finite_lc(cx, m, field)
        p4 = singularity.cm_in_codim(cx, cx.dim - m, field)
        out.append(("singdim-chain", {"m": m},
                    {"finite_lc_prediction": p2, "cm_in_codim_r_minus_m": p4}, p2 == p4))
    return out


def check_lemma_equality(cx: SimplicialComplex, field: FieldSpec, run: Run) -> list:
    """Brute-force kernel dimensions against the closed formula, with surjectivity.

    For each m <= d of the run the kernel degrees are i = m..m+I_EXTENT, or
    the members of run.i_values that are at least m.  The brute-force side is
    the rank of the stacked multiplication maps.
    """
    d = cx.d
    m_values = [m for m in run.m_values if m <= d]
    if not m_values:
        return []
    out = []
    coeffs = make_generic(cx.n, min(max(m_values) + 1, cx.n), field, seed=run.seed)
    for ell in run.ell_values if run.ell_values is not None else range(1, d + 1):
        for m in m_values:
            if run.i_values is None:
                degrees = range(m, m + I_EXTENT + 1)
            else:
                degrees = [i for i in run.i_values if i >= m]
            for i in degrees:
                formula = kernel_dim_formula(cx, ell, m, i, field)
                brute, retried = _resampled(
                    kernel_dim_bruteforce(cx, ell, m, i, coeffs, field), formula,
                    lambda fresh: kernel_dim_bruteforce(cx, ell, m, i, fresh, field),
                    cx, coeffs.m, field, run.seed)
                out.append(("lemma-equality", {"l": ell, "m": m, "i": i, "retried": retried},
                            {"bruteforce": brute, "formula": formula}, brute == formula))
                if i >= m + 1 and coeffs.m >= m + 1:
                    got = restricted_theta_rank(cx, ell, m, i, coeffs, field)
                    want = kernel_dim_formula(cx, ell, m, i - 1, field)
                    out.append(("lemma-surjectivity", {"l": ell, "m": m, "i": i},
                                {"restricted_rank": got, "kernel_dim_below": want},
                                got == want))
    return out


def check_kernel_identification(cx: SimplicialComplex, field: FieldSpec, run: Run) -> list:
    """Quotient prediction formula against the kernel-dimension formula, i = 1..I_MAX."""
    out = []
    d = cx.d
    for m in range(0, d + 1):
        for ell in range(1, d - m + 1):
            for i in range(1, I_MAX + 1):
                lhs = quotient.quotient_lc_dim(cx, m, ell, i, field)
                rhs = kernel_dim_formula(cx, ell + m, m, i + m - 1, field)
                out.append(("kernel-identification", {"m": m, "l": ell, "i": i},
                            {"quotient_formula": lhs, "kernel_formula": rhs}, lhs == rhs))
    return out


def check_artinian_vs_sqfree(cx: SimplicialComplex, field: FieldSpec, run: Run) -> list:
    """Rank-oracle Hilbert functions against the squarefree quotient formula,
    degrees m+1..m+4 for each 1 <= m <= d of the run."""
    out = []
    data = squarefree.sqfree_data_of_face_ring(cx)
    for m in run.m_values:
        if not 1 <= m <= cx.d:
            continue
        coeffs = make_generic(cx.n, m, field, seed=run.seed)
        cutoff = m + 4
        red = artinian.reduction_hilbert(cx, coeffs, m, cutoff, field)
        for j in range(m + 1, cutoff + 1):
            want = squarefree.sqfree_quotient_hilbert(data, m, j)
            got, retried = _resampled(
                red.dims[j], want,
                lambda fresh: artinian.reduction_hilbert(cx, fresh, m, cutoff, field).dims[j],
                cx, m, field, run.seed)
            out.append(("artinian-vs-sqfree", {"m": m, "degree": j, "retried": retried},
                        {"reduction_rank_oracle": got, "sqfree_formula": want}, got == want))
    return out


def check_tsqfree(cx: SimplicialComplex, field: FieldSpec, run: Run) -> list:
    """Squarefree-route quotient local cohomology against the direct formula, i = 1..I_MAX."""
    out = []
    d = cx.d
    for m in range(0, d + 1):
        for ell in range(1, d - m + 1):
            table = squarefree.sqfree_lc_data(cx, ell + m, field)
            for i in range(1, I_MAX + 1):
                lhs = squarefree.sqfree_quotient_lc(table, m, i)
                rhs = quotient.quotient_lc_dim(cx, m, ell, i, field)
                out.append(("tsqfree-vs-isomorphism", {"m": m, "l": ell, "i": i},
                            {"sqfree_route": lhs, "direct_formula": rhs}, lhs == rhs))
    return out


def check_cm_anchor(cx: SimplicialComplex, field: FieldSpec, run: Run) -> list:
    """For a Cohen-Macaulay complex the full reduction equals the h-vector."""
    if not singularity.is_cm(cx, field):
        return [("cm-anchor", {}, {"skipped": "complex is not CM over this field"}, True)]
    d = cx.d
    cutoff = d + 1
    red = artinian.reduction_hilbert(cx, make_generic(cx.n, d, field, seed=run.seed),
                                     d, cutoff, field)
    h = list(cx.h_vector()) + [0] * (cutoff - d)
    return [("cm-anchor", {"m": d, "cutoff": cutoff},
             {"reduction": list(red.dims), "h_vector_padded": h}, list(red.dims) == h)]


# check name -> the module attribute run_checks calls, looked up at call time
# so that a wrapper set on the attribute (the perfbench tracer) runs
CHECKS = {
    "link-iso": "check_link_iso",
    "hochster-counts": "check_hochster_counts",
    "theorem-main": "check_theorem_main",
    "singdim-chain": "check_singdim_chain",
    "lemma-equality": "check_lemma_equality",
    "kernel-identification": "check_kernel_identification",
    "artinian-vs-sqfree": "check_artinian_vs_sqfree",
    "tsqfree-vs-isomorphism": "check_tsqfree",
    "cm-anchor": "check_cm_anchor",
}
SUITE_CHECKS = tuple(CHECKS)


def run_checks(name: str, cx: SimplicialComplex, field: FieldSpec,
               checks=SUITE_CHECKS, m_max: int = 1, m_pin: int | None = None,
               ell_values=None, i_values=None,
               seed: int | None = None) -> list[CheckResult]:
    """Run the named checks on one complex and return the combined ledger.

    m_pin restricts the kernel and reduction checks to a single number of
    forms; otherwise they sweep 0..min(m_max, d) (kernels) and 1..min(m_max, d)
    (reductions).
    """
    m_values = (m_pin,) if m_pin is not None else tuple(range(0, min(m_max, cx.d) + 1))
    run = Run(m_values, ell_values, i_values, seed)
    out: list[CheckResult] = []
    for check in checks:
        if check not in CHECKS:
            raise ValueError(f"unknown check {check!r}")
        rows = globals()[CHECKS[check]](cx, field, run)
        out.extend(CheckResult(label, name, str(field), params, values, bool(passed))
                   for label, params, values, passed in rows)
    return out


def ledger_json(records: list[CheckResult], **meta) -> dict:
    failed = [r for r in records if not r.passed]
    body = dict(sorted(meta.items()))
    body["checks"] = [r.to_json() for r in records]
    body["summary"] = {"total": len(records), "failed": len(failed)}
    body["passed"] = bool(records) and not failed
    return body
