"""Named consistency checks pairing independent computation routes.

Every check emits records carrying the parameters and the values computed on
each route, so a failing ledger line is directly actionable.  The routes are
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


def _record(check, name, field, params, values, passed) -> CheckResult:
    return CheckResult(check, name, str(field), dict(params), dict(values), bool(passed))


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def check_link_iso(name: str, cx: SimplicialComplex, field: FieldSpec) -> list[CheckResult]:
    """Pair cohomology against link cohomology, all faces, all degrees up to d."""
    out = []
    for F in sorted(cx.faces(), key=mixed_face_key):
        link = cx.link(F)
        for i in range(0, cx.d + 1):
            lhs = relative_cohomology_dim(cx, F, i - 1, field)
            rhs = reduced_cohomology_dim(link, i - 1 - len(F), field)
            out.append(
                _record(
                    "link-iso", name, field,
                    {"face": sorted(F), "i": i},
                    {"pair_route": lhs, "link_route": rhs},
                    lhs == rhs,
                )
            )
    return out


def check_hochster_counts(name: str, cx: SimplicialComplex, field: FieldSpec) -> list[CheckResult]:
    """Series expansion vs the closed count vs direct block enumeration, Z-degrees 0..-J_MAX."""
    out = []
    for i in range(0, cx.d + 1):
        series = lc_hilbert_series(cx, i, field)
        for j in range(0, J_MAX + 1):
            from_series = series.coefficient(j)
            from_formula = lc_coarse_dim(cx, i, -j, field)
            from_blocks = graded_piece(cx, i, j, field).total_dim
            out.append(
                _record(
                    "hochster-counts", name, field,
                    {"i": i, "j": j},
                    {
                        "series": from_series,
                        "formula": from_formula,
                        "enumeration": from_blocks,
                    },
                    from_series == from_formula == from_blocks,
                )
            )
    return out


def _pole_orders_le(cx, m, field) -> bool:
    return all(
        lc_hilbert_series(cx, i, field).pole_order <= m for i in range(0, cx.d)
    )


def check_theorem_main(name: str, cx: SimplicialComplex, field: FieldSpec) -> list[CheckResult]:
    """Four-way agreement of the finite-local-cohomology characterizations."""
    out = []
    r = cx.dim
    sd = singularity.singularity_dimension(cx, field)
    for m in range(0, cx.d + 1):
        p1 = sd < m
        p2 = quotient.predicts_finite_lc(cx, m, field)
        p3 = _pole_orders_le(cx, m, field)
        p4 = singularity.cm_in_codim(cx, r - m, field)
        out.append(
            _record(
                "theorem-main", name, field,
                {"m": m},
                {
                    "singularity_dimension_lt_m": p1,
                    "finite_lc_prediction": p2,
                    "pole_orders_le_m": p3,
                    "cm_in_codim_r_minus_m": p4,
                },
                p1 == p2 == p3 == p4,
            )
        )
    return out


def check_singdim_chain(name: str, cx: SimplicialComplex, field: FieldSpec) -> list[CheckResult]:
    """Finite-local-cohomology prediction against the codimension criterion."""
    out = []
    r = cx.dim
    for m in range(0, cx.d + 1):
        p2 = quotient.predicts_finite_lc(cx, m, field)
        p4 = singularity.cm_in_codim(cx, r - m, field)
        out.append(
            _record(
                "singdim-chain", name, field,
                {"m": m},
                {"finite_lc_prediction": p2, "cm_in_codim_r_minus_m": p4},
                p2 == p4,
            )
        )
    return out


def check_lemma_equality(name: str, cx: SimplicialComplex, field: FieldSpec,
                         m_values=(0, 1, 2), i_extent: int = 3, i_values=None,
                         ell_values=None, seed: int | None = None) -> list[CheckResult]:
    """Brute-force kernel dimensions against the closed formula, with surjectivity.

    The kernel degrees are i = m..m+i_extent for each m, or the members of
    i_values that are at least m.  The brute-force side is the rank of the
    stacked multiplication maps.  Over a prime field a mismatch triggers one
    resample of the coefficient matrix before being reported, to rule out an
    unlucky draw.
    """
    out = []
    d = cx.d
    max_m = min(max(m_values), d)
    coeffs = make_generic(cx.n, min(max_m + 1, cx.n), field, seed=seed)
    ells = ell_values if ell_values is not None else range(1, d + 1)
    for ell in ells:
        for m in m_values:
            if m > d:
                continue
            if i_values is None:
                degrees = range(m, m + i_extent + 1)
            else:
                degrees = [i for i in i_values if i >= m]
            for i in degrees:
                brute = kernel_dim_bruteforce(cx, ell, m, i, coeffs, field)
                formula = kernel_dim_formula(cx, ell, m, i, field)
                retried = False
                if brute != formula and not field.is_rational:
                    fresh = make_generic(cx.n, coeffs.m, field,
                                         seed=(seed or 0) + 7919)
                    brute = kernel_dim_bruteforce(cx, ell, m, i, fresh, field)
                    retried = True
                out.append(
                    _record(
                        "lemma-equality", name, field,
                        {"l": ell, "m": m, "i": i, "retried": retried},
                        {"bruteforce": brute, "formula": formula},
                        brute == formula,
                    )
                )
                if i >= m + 1 and coeffs.m >= m + 1:
                    got = restricted_theta_rank(cx, ell, m, i, coeffs, field)
                    want = kernel_dim_formula(cx, ell, m, i - 1, field)
                    out.append(
                        _record(
                            "lemma-surjectivity", name, field,
                            {"l": ell, "m": m, "i": i},
                            {"restricted_rank": got, "kernel_dim_below": want},
                            got == want,
                        )
                    )
    return out


def check_kernel_identification(name: str, cx: SimplicialComplex, field: FieldSpec) -> list[CheckResult]:
    """Quotient prediction formula against the kernel-dimension formula, i = 1..I_MAX."""
    out = []
    d = cx.d
    for m in range(0, d + 1):
        for ell in range(1, d - m + 1):
            for i in range(1, I_MAX + 1):
                lhs = quotient.quotient_lc_dim(cx, m, ell, i, field)
                rhs = kernel_dim_formula(cx, ell + m, m, i + m - 1, field)
                out.append(
                    _record(
                        "kernel-identification", name, field,
                        {"m": m, "l": ell, "i": i},
                        {"quotient_formula": lhs, "kernel_formula": rhs},
                        lhs == rhs,
                    )
                )
    return out


def check_artinian_vs_sqfree(name: str, cx: SimplicialComplex, field: FieldSpec,
                             m_values=None, seed: int | None = None) -> list[CheckResult]:
    """Rank-oracle Hilbert functions against the squarefree quotient formula.

    Over a prime field a mismatch triggers one coefficient resample, since a
    bad draw may be non-generic.
    """
    out = []
    d = cx.d
    data = squarefree.sqfree_data_of_face_ring(cx)
    if m_values is None:
        m_values = range(1, d + 1)
    for m in m_values:
        if m > d:
            continue
        coeffs = make_generic(cx.n, m, field, seed=seed)
        cutoff = m + 4
        red = artinian.reduction_hilbert(cx, coeffs, m, cutoff, field)
        for j in range(m + 1, m + 5):
            want = squarefree.sqfree_quotient_hilbert(data, m, j)
            got = red.dims[j]
            retried = False
            if got != want and not field.is_rational:
                fresh = make_generic(cx.n, m, field, seed=(seed or 0) + 7919)
                got = artinian.reduction_hilbert(cx, fresh, m, cutoff, field).dims[j]
                retried = True
            out.append(
                _record(
                    "artinian-vs-sqfree", name, field,
                    {"m": m, "degree": j, "retried": retried},
                    {"reduction_rank_oracle": got, "sqfree_formula": want},
                    got == want,
                )
            )
    return out


def check_tsqfree(name: str, cx: SimplicialComplex, field: FieldSpec) -> list[CheckResult]:
    """Squarefree-route quotient local cohomology against the direct formula, i = 1..I_MAX."""
    out = []
    d = cx.d
    for m in range(0, d + 1):
        for ell in range(1, d - m + 1):
            table = squarefree.sqfree_lc_data(cx, ell + m, field)
            for i in range(1, I_MAX + 1):
                lhs = squarefree.sqfree_quotient_lc(table, m, i)
                rhs = quotient.quotient_lc_dim(cx, m, ell, i, field)
                out.append(
                    _record(
                        "tsqfree-vs-isomorphism", name, field,
                        {"m": m, "l": ell, "i": i},
                        {"sqfree_route": lhs, "direct_formula": rhs},
                        lhs == rhs,
                    )
                )
    return out


def check_cm_anchor(name: str, cx: SimplicialComplex, field: FieldSpec,
                    seed: int | None = None) -> list[CheckResult]:
    """For a Cohen-Macaulay complex the full reduction equals the h-vector."""
    if not singularity.is_cm(cx, field):
        return [
            _record("cm-anchor", name, field, {}, {"skipped": "complex is not CM over this field"}, True)
        ]
    d = cx.d
    coeffs = make_generic(cx.n, d, field, seed=seed)
    cutoff = d + 1
    red = artinian.reduction_hilbert(cx, coeffs, d, cutoff, field)
    h = list(cx.h_vector()) + [0] * (cutoff - cx.d)
    return [
        _record(
            "cm-anchor", name, field,
            {"m": d, "cutoff": cutoff},
            {"reduction": list(red.dims), "h_vector_padded": h},
            list(red.dims) == h,
        )
    ]


SUITE_CHECKS = (
    "link-iso",
    "hochster-counts",
    "theorem-main",
    "singdim-chain",
    "lemma-equality",
    "kernel-identification",
    "artinian-vs-sqfree",
    "tsqfree-vs-isomorphism",
    "cm-anchor",
)


def run_checks(name: str, cx: SimplicialComplex, field: FieldSpec,
               checks=SUITE_CHECKS, m_max: int = 1, m_pin: int | None = None,
               ell_values=None, i_values=None,
               seed: int | None = None) -> list[CheckResult]:
    """Run the named checks on one complex and return the combined ledger.

    m_pin restricts the kernel and reduction checks to a single number of
    forms; otherwise they sweep 0..m_max (kernels) and 1..m_max (reductions).
    """
    out: list[CheckResult] = []
    for check in checks:
        if check == "link-iso":
            out.extend(check_link_iso(name, cx, field))
        elif check == "hochster-counts":
            out.extend(check_hochster_counts(name, cx, field))
        elif check == "theorem-main":
            out.extend(check_theorem_main(name, cx, field))
        elif check == "singdim-chain":
            out.extend(check_singdim_chain(name, cx, field))
        elif check == "lemma-equality":
            if m_pin is not None:
                m_values = (m_pin,) if m_pin <= cx.d else ()
            else:
                m_values = tuple(range(0, min(m_max, cx.d) + 1))
            if m_values:
                out.extend(
                    check_lemma_equality(
                        name, cx, field, m_values=m_values, i_values=i_values,
                        ell_values=ell_values, seed=seed,
                    )
                )
        elif check == "kernel-identification":
            out.extend(check_kernel_identification(name, cx, field))
        elif check == "artinian-vs-sqfree":
            if m_pin is not None:
                m_range = (m_pin,) if 1 <= m_pin <= cx.d else ()
            else:
                m_range = range(1, min(m_max, cx.d) + 1)
            out.extend(
                check_artinian_vs_sqfree(name, cx, field, m_values=m_range, seed=seed)
            )
        elif check == "tsqfree-vs-isomorphism":
            out.extend(check_tsqfree(name, cx, field))
        elif check == "cm-anchor":
            out.extend(check_cm_anchor(name, cx, field, seed=seed))
        else:
            raise ValueError(f"unknown check {check!r}")
    return out


def ledger_json(records: list[CheckResult], **meta) -> dict:
    failed = [r for r in records if not r.passed]
    body = dict(sorted(meta.items()))
    body["checks"] = [r.to_json() for r in records]
    body["summary"] = {"total": len(records), "failed": len(failed)}
    body["passed"] = bool(records) and not failed
    return body
