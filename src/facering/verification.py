"""Named consistency checks pairing computation routes.

CHECKS maps each check's name to its function (cx, field, run), which
returns, for one complex, a finished list of (label, params, values, passed)
tuples carrying the parameters and the values computed on each route, so a
failing ledger line is directly actionable.  run_checks alone turns them into
CheckResult records with the complex name and field.  Adding a check is one
function and one CHECKS entry that names it.  The routes: closed binomial
formulas against brute-force elimination (the rank of the stacked
multiplication maps, less the rows that commutation of the forms alone puts
in the span of the others, so no formula decides a rank), link cohomology
against pair cohomology, Hilbert series
expansions against direct basis enumeration, the four characterizations of
finite local cohomology against each other, and the Artinian rank oracle
against the squarefree quotient formula.  kernel-identification and
tsqfree-vs-isomorphism compare two closed forms of the same sum, not a
formula with an independent oracle.

The checks that need generic linear forms (lemma-equality,
artinian-vs-sqfree, cm-anchor) share one certified coefficient matrix per
(complex, field, seed), drawn on first use (`Draw`), and each reads a
column prefix of it.  Every square submatrix of a prefix is a square
submatrix of the whole matrix, so each prefix carries the certificate.  The
matrix is as wide as the most forms those checks ask for, as far as
generic_fits allows (`draw_size`), which the run's parameters alone decide:
a check's records are the same whichever other checks run.
"""

from __future__ import annotations

from collections import namedtuple

from . import artinian, quotient, singularity, squarefree
from .cohomology import reduced_cohomology_dim, relative_cohomology_dim
from .complexes import SimplicialComplex, face_table
from .linalg import FieldSpec
from .local_cohomology import (
    GenericCoefficients,
    generic_fits,
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


class CheckResult(namedtuple("CheckResult", "check complex_name field params values passed")):
    """One ledger record: the check, complex and field names (str), its
    params and values (dicts), and whether it passed (bool)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "complex": self.complex_name,
            "field": self.field,
            "params": self.params,
            "values": self.values,
            "passed": self.passed,
        }


class Draw:
    """The one certified n x forms coefficient matrix of a complex, drawn with
    the run's seed on first use, and its column prefixes.

    Every square submatrix of a column prefix is one of the whole matrix, so
    each prefix is certified too.  The prefix of k columns is one object for
    every check that asks, so `theta_stack` and `artinian.reduction_dims`
    memo entries, which match coefficients by identity, are shared.  More
    columns than forms means no n x k matrix exists (see `draw_size`), and
    make_generic refuses the shape as it would a draw of its own.
    """

    def __init__(self, n: int, forms: int, field: FieldSpec, seed: int | None):
        self.n, self.forms, self.field, self.seed = n, forms, field, seed
        self._prefixes: dict[int, GenericCoefficients] = {}

    def columns(self, k: int) -> GenericCoefficients:
        if k > self.forms:
            return make_generic(self.n, k, self.field, seed=self.seed)
        prefixes = self._prefixes
        if not prefixes:
            prefixes[self.forms] = make_generic(self.n, self.forms, self.field, seed=self.seed)
        if k not in prefixes:
            prefixes[k] = prefixes[self.forms].prefix(k)
        return prefixes[k]


def draw_size(cx: SimplicialComplex, m_values, field: FieldSpec) -> int:
    """Columns of the complex's one draw: the most forms that lemma-equality
    (the largest m <= d, plus one), artinian-vs-sqfree (the largest m) and
    cm-anchor (d) ask for, as far as generic_fits allows.  It depends on the
    run's parameters alone, so a check's records do not depend on which
    other checks run."""
    top = max((m for m in m_values if m <= cx.d), default=0)
    forms = max(min(top + 1, cx.n), cx.d)
    while not generic_fits(cx.n, forms, field):
        forms -= 1
    return forms


class Run(namedtuple("Run", "m_values ell_values i_values seed draw")):
    """The parameters run_checks passes every check, and the complex's one
    draw.  Each check keeps the members of m_values in its own range;
    ell_values and i_values are None unless pinned."""

    __slots__ = ()


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
    for F in face_table(cx)[0]:
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


def check_lemma_equality(cx: SimplicialComplex, field: FieldSpec, run: Run) -> list:
    """Brute-force kernel dimensions against the closed formula, with surjectivity.

    For each m <= d of the run the kernel degrees are i = m..m+I_EXTENT, or
    the members of run.i_values that are at least m.  The brute-force side is
    the rank of the stacked multiplication maps.  The surjectivity records
    of the largest m need m + 1 generic forms; over a prime field too small
    to carry them (see make_generic) one record says they were skipped.  The
    forms are a column prefix of the complex's draw.
    """
    d = cx.d
    m_values = [m for m in run.m_values if m <= d]
    if not m_values:
        return []
    out = []
    top = max(m_values)
    forms = min(top + 1, cx.n)
    if not generic_fits(cx.n, forms, field):
        forms = top
        out.append(("lemma-surjectivity", {"m": top},
                    {"skipped": f"no {cx.n} x {top + 1} generic matrix over F_{field.p}"}, True))
    coeffs = run.draw.columns(forms)
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
    degrees m+1..m+4 for each 1 <= m <= d of the run.

    Every m reads one reduction, by the first top forms of the complex's
    draw at cutoff top + 4, top the largest m: its stack in each degree
    holds the stack of every m below as its first m blocks, and the draw's
    column prefixes are certified generic like the draw itself.
    """
    m_values = [m for m in run.m_values if 1 <= m <= cx.d]
    if not m_values:
        return []
    out = []
    data = squarefree.sqfree_data_of_face_ring(cx)
    top = max(m_values)
    # a shape that does not fit raises for the least such m, as a draw per m did
    coeffs = run.draw.columns(min(top, run.draw.forms + 1))
    reduced = artinian.reduction_dims(cx, coeffs, top + 4, field)
    for m in m_values:
        cutoff = m + 4
        for j in range(m + 1, cutoff + 1):
            want = squarefree.sqfree_quotient_hilbert(data, m, j)
            got, retried = _resampled(
                reduced[m][j], want,
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
    """For a Cohen-Macaulay complex the full reduction equals the h-vector;
    skipped, in one record, where d generic forms cannot exist (generic_fits).

    The forms are the first d columns of the complex's draw, a certified
    prefix.  Where artinian-vs-sqfree has run with d forms (its largest m is
    d), its reduction at cutoff d + 4 gives degrees 0..d + 1 with no
    elimination; elsewhere this check reduces to cutoff d + 1 on its own.
    """
    if not singularity.is_cm(cx, field):
        return [("cm-anchor", {}, {"skipped": "complex is not CM over this field"}, True)]
    d = cx.d
    if not generic_fits(cx.n, d, field):
        return [("cm-anchor", {"m": d},
                 {"skipped": f"no {cx.n} x {d} generic matrix over F_{field.p}"}, True)]
    cutoff = d + 1
    red = artinian.reduction_hilbert(cx, run.draw.columns(d), d, cutoff, field)
    h = list(cx.h_vector()) + [0] * (cutoff - d)
    return [("cm-anchor", {"m": d, "cutoff": cutoff},
             {"reduction": list(red.dims), "h_vector_padded": h}, list(red.dims) == h)]


CHECKS = {
    "link-iso": check_link_iso,
    "hochster-counts": check_hochster_counts,
    "theorem-main": check_theorem_main,
    "lemma-equality": check_lemma_equality,
    "kernel-identification": check_kernel_identification,
    "artinian-vs-sqfree": check_artinian_vs_sqfree,
    "tsqfree-vs-isomorphism": check_tsqfree,
    "cm-anchor": check_cm_anchor,
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
    run = Run(m_values, ell_values, i_values, seed,
              Draw(cx.n, draw_size(cx, m_values, field), field, seed))
    out: list[CheckResult] = []
    for check in checks:
        if check not in CHECKS:
            raise ValueError(f"unknown check {check!r}")
        rows = CHECKS[check](cx, field, run)
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
