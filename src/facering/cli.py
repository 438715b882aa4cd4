"""Command-line front end.

Commands: analyze, lc, predict, reduce, verify, sqfree.  Inputs are complex
JSON files ({"n": 5, "facets": [[1,2,3],[3,4,5]]}), the name of a bundled
fixture complex, or the word "corpus" (verify only); sqfree reads a squarefree
data file instead.  Exit codes: 0 success, 1 verification failure, 2 input
error.

Each command takes only the options it reads: --field everywhere but sqfree,
--cutoff for lc, predict, reduce and sqfree, --m for predict, reduce and
sqfree, --seed for the two commands that sample (reduce, verify), and
--trials for reduce.  Argparse refuses any other option with exit code 2.

Output is deterministic: over Q nothing is sampled at all, and over a prime
field all sampling is driven by --seed, so identical invocations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import quotient, singularity, verification
from .artinian import REDUCTION_CELL_LIMIT, determinacy_probe, reduction_hilbert
from .complexes import SimplicialComplex, SizeLimitError
from .corpus import CORPUS_BUILDERS, corpus
from .linalg import FieldSpec
from .local_cohomology import lc_coarse_dim, lc_hilbert_series, make_generic
from .squarefree import SqfreeData, sqfree_hilbert, sqfree_quotient_hilbert

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


class InputError(ValueError):
    pass


def _load_inputs(spec: str, allow_corpus: bool) -> dict[str, SimplicialComplex]:
    if spec == "corpus":
        if not allow_corpus:
            raise InputError("'corpus' is only accepted by the verify command")
        return corpus()
    if spec in CORPUS_BUILDERS:
        return {spec: CORPUS_BUILDERS[spec]()}
    try:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {spec}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{spec}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    try:
        cx = SimplicialComplex.from_json(data)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{spec}: {exc}") from None
    return {spec: cx}


def _load_single(spec: str) -> tuple[str, SimplicialComplex]:
    items = _load_inputs(spec, allow_corpus=False)
    return next(iter(items.items()))


def _emit(report: dict, fmt: str, tsv_rows=None, pretty_lines=None):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif fmt == "tsv":
        for row in tsv_rows or []:
            print("\t".join(str(x) for x in row))
    else:
        for line in pretty_lines or []:
            print(line)


def _guard(numbers: int, terms: int):
    """Refuse, before any work, a report of `numbers` numbers that each sum up
    to `terms` terms (faces of the complex or entries of the table, at least one)."""
    cost = numbers * max(terms, 1)
    if cost > REDUCTION_CELL_LIMIT:
        raise SizeLimitError(f"the report sums {cost} terms ({numbers} numbers of up to "
                             f"{terms} each), above the guard of {REDUCTION_CELL_LIMIT}")


def _sd_json(value):
    return "-inf" if value == singularity.NEG_INFINITY else int(value)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    name, cx = _load_single(args.input)
    field = FieldSpec.parse(args.field)
    r = cx.dim
    profile = {
        str(c): singularity.cm_in_codim(cx, c, field) for c in range(0, r + 3)
    }
    report = {
        "command": "analyze",
        "complex": name,
        "field": str(field),
        "d": cx.d,
        "f_vector": list(cx.f_vector()),
        "h_vector": list(cx.h_vector()),
        "singularity_dimension": _sd_json(singularity.singularity_dimension(cx, field)),
        "singular_faces": [sorted(F) for F in singularity.singular_faces(cx, field)],
        "is_cm": singularity.is_cm(cx, field),
        "is_buchsbaum": singularity.is_buchsbaum(cx, field),
        "cm_in_codim": profile,
    }
    tsv = [["c", "cm_in_codim"]] + [[c, v] for c, v in profile.items()]
    pretty = [
        f"complex {name} (field {field}): d = {cx.d}",
        f"  f-vector {report['f_vector']}  h-vector {report['h_vector']}",
        f"  singularity dimension: {report['singularity_dimension']}",
        f"  singular faces: {report['singular_faces']}",
        f"  Cohen-Macaulay: {report['is_cm']}   Buchsbaum: {report['is_buchsbaum']}",
        "  CM in codimension: "
        + ", ".join(f"{c}:{'yes' if v else 'no'}" for c, v in profile.items()),
    ]
    _emit(report, args.format, tsv, pretty)
    return EXIT_OK


def cmd_lc(args) -> int:
    name, cx = _load_single(args.input)
    field = FieldSpec.parse(args.field)
    cutoff = args.cutoff
    _guard((cx.d + 1) * (cutoff + 1), len(cx.faces()))
    rows = []
    for i in range(0, cx.d + 1):
        series = lc_hilbert_series(cx, i, field)
        rows.append({"i": i, "series": series.to_json(), "pole_order": series.pole_order,
                     "coefficients": [lc_coarse_dim(cx, i, -j, field) for j in range(cutoff + 1)]})
    report = {"command": "lc", "complex": name, "field": str(field), "rows": rows}
    tsv = [["i", "pole_order", "numerator", "denom_power", "coefficients"]]
    pretty = [f"local cohomology of {name} over {field}:"]
    for row in rows:
        num, e = row["series"]["numerator"], row["series"]["denom_power"]
        tsv.append([row["i"], row["pole_order"], ",".join(map(str, num)), e,
                    ",".join(map(str, row["coefficients"]))])
        pretty.append(f"  i={row['i']}: series {num} / (1-t)^{e}, pole order {row['pole_order']}, "
                      f"dims by -degree {row['coefficients']}")
    _emit(report, args.format, tsv, pretty)
    return EXIT_OK


def cmd_predict(args) -> int:
    name, cx = _load_single(args.input)
    field = FieldSpec.parse(args.field)
    m = args.m
    if not 0 <= m <= cx.d:
        raise InputError(f"--m must be between 0 and {cx.d} for this complex")
    _guard((cx.d - m) * args.cutoff, len(cx.faces()))
    entries = [
        {"l": ell, "i": i, "dim": quotient.quotient_lc_dim(cx, m, ell, i, field)}
        for ell in range(1, cx.d - m + 1)
        for i in range(1, args.cutoff + 1)
    ]
    finite = quotient.predicts_finite_lc(cx, m, field)
    report = {
        "command": "predict",
        "complex": name,
        "field": str(field),
        "finite_local_cohomology": finite,
        "table": {"m": m, "entries": entries},
    }
    tsv = [["l", "i", "dim"]] + [[e["l"], e["i"], e["dim"]] for e in entries]
    pretty = [
        f"quotient of {name} by {m} generic forms over {field}: "
        f"finite local cohomology: {finite}",
    ]
    pretty += [f"  l={e['l']} i={e['i']}: {e['dim']}" for e in entries]
    _emit(report, args.format, tsv, pretty)
    return EXIT_OK


def cmd_reduce(args) -> int:
    name, cx = _load_single(args.input)
    field = FieldSpec.parse(args.field)
    m = args.m
    if m < 0:
        raise InputError("--m must be nonnegative")
    if args.trials:
        constant, runs = determinacy_probe(
            cx, m, args.trials, args.cutoff, field, seed=args.seed
        )
        report = {
            "command": "reduce",
            "complex": name,
            "field": str(field),
            "m": m,
            "trials": args.trials,
            "seed": args.seed,
            "determinate": constant,
            "runs": [run.to_json() for run in runs],
        }
        dims_list = [list(run.dims) for run in runs]
        tsv = [["trial"] + [f"deg{j}" for j in range(args.cutoff + 1)]]
        tsv += [[t] + dims for t, dims in enumerate(dims_list)]
        pretty = [
            f"Artinian reduction of {name}, m={m}, {args.trials} trials over {field}:",
            f"  constant Hilbert function: {constant}",
        ] + [f"  trial {t}: {dims}" for t, dims in enumerate(dims_list)]
    else:
        coeffs = make_generic(cx.n, max(m, 1), field, seed=args.seed)
        red = reduction_hilbert(cx, coeffs, m, args.cutoff, field)
        report = {
            "command": "reduce",
            "complex": name,
            "field": str(field),
            "seed": args.seed,
            "result": red.to_json(),
        }
        tsv = [["degree", "dim"]] + [[j, v] for j, v in enumerate(red.dims)]
        pretty = [
            f"Artinian reduction of {name}, m={m} over {field}:",
            f"  Hilbert function {list(red.dims)}",
        ]
    _emit(report, args.format, tsv, pretty)
    return EXIT_OK


def cmd_verify(args) -> int:
    inputs = _load_inputs(args.input, allow_corpus=True)
    field = FieldSpec.parse(args.field)
    checks = verification.SUITE_CHECKS if args.check is None else (args.check,)
    i_values = _parse_range(args.i) if args.i else None
    ell_values = (args.l,) if args.l is not None else None
    records = []
    for name, cx in inputs.items():
        records.extend(
            verification.run_checks(
                name, cx, field,
                checks=checks, m_max=args.m_max, m_pin=args.m,
                ell_values=ell_values, i_values=i_values,
                seed=args.seed,
            )
        )
    report = verification.ledger_json(
        records,
        command="verify",
        input=args.input,
        field=str(field),
        seed=args.seed,
        m_max=args.m_max,
        m=args.m,
    )
    tsv = None
    if args.format == "tsv":  # two json.dumps per record, for this format only
        tsv = [["check", "complex", "params", "values", "passed"]]
        tsv += [[rec.check, rec.complex_name, json.dumps(rec.params, sort_keys=True),
                 json.dumps(rec.values, sort_keys=True), rec.passed] for rec in records]
    failed = [r for r in records if not r.passed]
    pretty = [f"verify {args.input} over {field}: {len(records)} checks, {len(failed)} failed"]
    for rec in failed:
        pretty.append(f"  FAIL {rec.check} {rec.complex_name} {rec.params}: {rec.values}")
    if report["passed"]:
        pretty.append("  all checks passed")
    _emit(report, args.format, tsv, pretty)
    if not records:
        print("error: no checks ran for these parameters", file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def cmd_sqfree(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            data = SqfreeData.from_json(json.load(fh))
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from None
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{args.input}: {exc}") from None
    m = args.m
    cutoff = args.cutoff
    _guard(2 * (cutoff + 1), len(data))
    module_dims = [sqfree_hilbert(data, i) for i in range(0, cutoff + 1)]
    quotient_dims = [
        {"i": i, "dim": sqfree_quotient_hilbert(data, m, i)} for i in range(m + 1, cutoff + 1)
    ]
    report = {
        "command": "sqfree",
        "input": args.input,
        "m": m,
        "module_hilbert": module_dims,
        "quotient_hilbert": quotient_dims,
        "caveat": "for general squarefree data the quotient formula is asserted only in large degrees",
    }
    tsv = [["i", "module_dim", "quotient_dim"]]
    for i in range(0, cutoff + 1):
        tsv.append([i, module_dims[i], quotient_dims[i - m - 1]["dim"] if i > m else ""])
    pretty = [f"squarefree data on {data.n} vertices, {len(data)} nonzero degrees, m={m}:"]
    pretty.append(f"  module Hilbert function: {module_dims}")
    pretty.append(f"  quotient Hilbert function (i > {m}): {[e['dim'] for e in quotient_dims]}")
    pretty.append(f"  note: {report['caveat']}")
    _emit(report, args.format, tsv, pretty)
    return EXIT_OK


def _parse_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return (int(text),)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or not int(text):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facering",
        description="Exact computations on face rings of simplicial complexes with singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    field = ("--field", {"default": "q", "help": "q or fp:<prime> (default q)"})
    seed = ("--seed", {"type": int, "default": None, "help": "seed for prime-field sampling"})
    cutoff = ("--cutoff", {"type": _nonnegative_int, "default": 6,
                           "help": "degree cutoff (nonnegative)"})
    forms = ("--m", {"type": int, "required": True, "help": "number of generic linear forms"})

    complex_input = "complex JSON file or a bundled complex name"

    def command(name, func, summary, input_help, *options):
        p = sub.add_parser(name, help=summary)
        p.add_argument("input", help=input_help)
        p.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    command("analyze", cmd_analyze,
            "singular faces, CM/Buchsbaum flags, codimension profile", complex_input, field)
    command("lc", cmd_lc,
            "local cohomology series, pole orders, graded dimensions", complex_input,
            field, cutoff)
    command("predict", cmd_predict,
            "predicted local cohomology of a generic quotient", complex_input,
            field, cutoff, forms)
    p = command("reduce", cmd_reduce,
                "brute-force Artinian reduction Hilbert functions", complex_input,
                field, seed, cutoff, forms)
    p.add_argument("--trials", type=int, default=0, help="determinacy probe trials")

    p = command("verify", cmd_verify,
                "run consistency checks and emit a pass/fail ledger",
                complex_input + ", or 'corpus' for every bundled complex", field, seed)
    p.add_argument("--check", default=None,
                   choices=verification.SUITE_CHECKS, help="run a single named check")
    p.add_argument("--m", type=_nonnegative_int, default=None,
                   help="pin the kernel/reduction checks to one number of forms (nonnegative)")
    p.add_argument("--m-max", type=_nonnegative_int, default=1, dest="m_max",
                   help="largest number of forms exercised by the heavy checks (nonnegative)")
    p.add_argument("--l", type=_positive_int, default=None,
                   help="restrict to one cohomological degree (positive)")
    p.add_argument("--i", default=None, help="restrict kernel degrees, e.g. 1..4")

    command("sqfree", cmd_sqfree,
            "Hilbert formulas on user-supplied squarefree data",
            'squarefree data JSON file ({"n": ..., "dims": [...]})', cutoff, forms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
