"""facering benchmark: four workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/facering).
Inputs are generated from --seed into .perfbench_out/NAME/, facering runs in
child processes (perfbench/worker.py), one computation at a time, and the
last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

A run repeats whole rounds of the workload's operations until --seconds have
passed.  With --trace 0 it reports wall_s and cpu_s (each op's fastest round,
summed over the ops), peak_rss_mb (median over rounds of the largest worker)
and setup_s (median of at least five set-up samples).  Times are rescaled to
a reference CPU speed (worker.Speedometer); rounds.json keeps the raw ones.
With --trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds (medians) plus the tracing overhead.  Outputs are checked
after the timed rounds; see README.md for what is checked.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks
import gen
import spans
import worker

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
PRIME = 32003
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _per_layer() -> dict[str, str]:
    out = {}
    for name in ("kernel_basis", "rank"):
        for field in ("q", "fp"):
            out[f"linalg.{name}.{field}.calls"] = "count"
            out[f"linalg.{name}.{field}.self_s"] = "s"
            out[f"linalg.{name}.{field}.cells"] = "count"
    for name in ("solver.build", "solver.solve", "subspace_intersection", "image_basis"):
        out[f"linalg.{name}.self_s"] = "s"
    out["linalg.q.max_entry_bits"] = "bit"
    out.update({"linalg.matrix_init.calls": "count", "linalg.matrix_init.self_s": "s",
                "linalg.matrix_init.cells": "count"})
    for name in ("faces", "faces_of_dim", "link"):
        out[f"complexes.{name}.calls"] = "count"
        out[f"complexes.{name}.self_s"] = "s"
    out.update({"complexes.degree_monomials.calls": "count",
                "complexes.degree_monomials.self_s": "s",
                "complexes.degree_monomials.monomials": "count",
                "artinian.reduction_hilbert.calls": "count",
                "artinian.reduction_hilbert.self_s": "s",
                "artinian.reduction_hilbert.cells": "count"})
    for name in ("relative_cohomology", "coboundary_matrix", "induced_map"):
        out[f"cohomology.{name}.self_s"] = "s"
        out[f"cohomology.{name}.hits"] = "count"
        out[f"cohomology.{name}.misses"] = "count"
    out["cohomology.cache_entries"] = "count"
    out["singularity.is_singular_face.calls"] = "count"
    out["singularity.is_singular_face.self_s"] = "s"
    for name in ("theta_action_matrix", "kernel_intersection_basis", "graded_piece",
                 "lc_hilbert_series", "make_generic"):
        out[f"local_cohomology.{name}.calls"] = "count"
        out[f"local_cohomology.{name}.self_s"] = "s"
    out["local_cohomology.theta_action_matrix.cells"] = "count"
    out["local_cohomology.minor_rank_calls"] = "count"
    out["quotient.self_s"] = "s"
    out["squarefree.self_s"] = "s"
    for check in spans.SUITE_CHECKS:
        out[f"verification.{check}.self_s"] = "s"
        out[f"verification.{check}.total_s"] = "s"
    out["cli.emit_s"] = "s"
    out.update({"trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
                "trace.overhead_s": "s"})
    return out


PER_LAYER = _per_layer()
# tracer statistic feeding a per-layer metric of another name
RENAMED = {"cli.emit_s": "cli.emit.total_s"}


# ---------------------------------------------------------------------------
# output checks (independent of facering; see checks.py)
# ---------------------------------------------------------------------------


class Expect:
    """Independent facts about one complex, computed once per run."""

    def __init__(self, facets, p):
        self.facets, self.p = [tuple(f) for f in facets], p
        self.faces = checks.all_faces(self.facets)
        self.f = checks.f_vector(self.faces)
        self.h = checks.h_vector(self.f)
        self.d = len(self.f) - 1
        self._betti = {}

    def link_betti(self, F) -> dict:
        F = frozenset(F)
        if F not in self._betti:
            self._betti[F] = checks.reduced_betti(checks.link_faces(self.faces, F), self.p)
        return self._betti[F]


def check_ledger(text: str, expects: dict) -> str | None:
    data = json.loads(text)
    recs = data["checks"]
    if not data["passed"] or data["summary"]["failed"] or not recs:
        return f"ledger not passing or empty: {data['summary']}"
    if data["summary"]["total"] != len(recs) or not all(r["passed"] for r in recs):
        return "ledger summary disagrees with its records"
    if {r["complex"] for r in recs} != set(expects):
        return "ledger does not cover exactly the input complexes"
    for name, ex in expects.items():
        iso = [r for r in recs if r["complex"] == name and r["check"] == "link-iso"]
        if len(iso) != len(ex.faces) * (ex.d + 1):
            return f"{name}: {len(iso)} link-iso records for {len(ex.faces)} faces"
        for r in iso:
            F, i = r["params"]["face"], r["params"]["i"]
            want = ex.link_betti(F).get(i - 1 - len(F), 0)
            got = (r["values"]["pair_route"], r["values"]["link_route"])
            if got != (want, want):
                return f"{name}: link-iso at {F}, i={i}: {got}, independent Betti number {want}"
    return None


def check_analyze(text: str, ex: Expect, singular) -> str | None:
    """singular: the known singular faces, or None to recompute them here."""
    data = json.loads(text)
    if data["f_vector"] != ex.f or data["h_vector"] != ex.h:
        return f"f/h-vector {data['f_vector']} {data['h_vector']}, expected {ex.f} {ex.h}"
    got = {frozenset(F) for F in data["singular_faces"]}
    want = checks.singular_faces(ex.faces, ex.p) if singular is None else singular
    if got != want:
        return f"singular faces {sorted(map(sorted, got))}, expected {sorted(map(sorted, want))}"
    sd = max((len(F) - 1 for F in got), default="-inf")
    if data["singularity_dimension"] != sd:
        return f"singularity dimension {data['singularity_dimension']}, expected {sd}"
    if data["is_cm"] != (not got):
        return "is_cm disagrees with Reisner's criterion"
    pure = len({len(f) for f in ex.facets}) == 1
    if data["is_buchsbaum"] != (pure and got <= {frozenset()}):
        return "is_buchsbaum disagrees with Schenzel's criterion"
    if data["is_cm"] and not all(data["cm_in_codim"].values()):
        return "a Cohen-Macaulay complex is not CM in every codimension"
    return None


def check_reduce(text: str, ex: Expect, m: int, cutoff: int, trials: int) -> str | None:
    data = json.loads(text)
    want = checks.quotient_hilbert(ex.h, ex.d - m, cutoff)
    if trials:
        if data["determinate"] is not True or len(data["runs"]) != trials:
            return "determinacy probe is not determinate"
        dims = [run["dims"] for run in data["runs"]]
    else:
        dims = [data["result"]["dims"]]
    for got in dims:
        if got != want:
            return f"Hilbert function {got}, expected h(t)/(1-t)^{ex.d - m} = {want}"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """files: path -> complex JSON; ops: (label, argv, check(text)).

    A round runs every op in order in one fresh worker process."""

    def __init__(self, files, ops):
        self.files, self.ops = files, ops


def _verify_ops(flags, p, extra=()):
    """The corpus ledger as one CLI call per complex (what `verify corpus` computes,
    complex by complex), then `extra` (path, facets) inputs with the same flags."""
    inputs = [(name, facets) for name, (_, facets) in gen.CORPUS.items()] + list(extra)
    ops = []
    for name, facets in inputs:
        expect = {name: Expect(facets, p)}
        ops.append((os.path.basename(name), ["verify", name, *flags],
                    lambda t, e=expect: check_ledger(t, e)))
    return ops


def verify_q(seed: int, indir: str) -> Workload:
    # The Q ledger samples nothing, so its corpus run is the same for every seed.
    return Workload({}, _verify_ops(["--field", "q", "--m-max", "2", "--format", "json"], None))


def verify_fp(seed: int, indir: str) -> Workload:
    rng = random.Random(seed)
    n, facets = gen.relabel(*gen.circle_chain(4, 4, rng), rng)
    path = os.path.join(indir, "circle_chain.json")
    flags = ["--field", f"fp:{PRIME}", "--m-max", "3", "--seed", str(seed), "--format", "json"]
    return Workload({path: gen.to_json(n, facets)},
                    _verify_ops(flags, PRIME, extra=[(path, facets)]))


def analyze_family(rng: random.Random):
    """(label, n, facets, known singular faces or None), smallest family first."""
    S0 = (2, [(1,), (2,)])
    rp2 = (6, gen.RP2_6)
    family = [(f"simplex{k}", *gen.simplex(k), set()) for k in (7, 8, 9)]
    for k in (4, 5):
        family.append((f"cross{k}", *gen.relabel(*gen.cross_polytope_boundary(k), rng), set()))
    joins = {"cone_rp2": gen.join(rp2, gen.simplex(1)), "susp_rp2": gen.join(rp2, S0),
             "rp2_join_cycle3": gen.join(rp2, gen.CORPUS["cycle3"]),
             "rp2_join_square": gen.join(gen.join(rp2, S0), S0)}
    for label, cx in joins.items():
        family.append((label, *gen.relabel(*cx, rng), set()))
    for k in (6, 12):
        n, facets, glue = gen.sphere_chain(k, rng)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        facets = [tuple(sorted(perm[v - 1] for v in f)) for f in facets]
        family.append((f"sphere_chain{k}", n, facets, {frozenset({perm[g - 1]}) for g in glue}))
    for n, dim, count in ((12, 2, 30), (10, 3, 30), (11, 3, 40)):
        family.append((f"random{n}_{dim}_{count}", *gen.random_pure(n, dim, count, rng), None))
    return family


def analyze_grow(seed: int, indir: str) -> Workload:
    files, ops = {}, []
    for label, n, facets, singular in analyze_family(random.Random(seed)):
        path = os.path.join(indir, f"{label}.json")
        files[path] = gen.to_json(n, facets)
        ex = Expect(facets, None)
        ops.append((label, ["analyze", path, "--field", "q", "--format", "json"],
                    lambda t, ex=ex, s=singular: check_analyze(t, ex, s)))
    return Workload(files, ops)


def reduce_deep(seed: int, indir: str) -> Workload:
    rp2 = Expect(gen.RP2_6, None)
    octa = Expect(gen.OCTAHEDRON, None)
    fmt = ["--format", "json"]
    ops = [
        ("rp2_6-q", ["reduce", "rp2_6", "--m", "2", "--cutoff", "10", *fmt],
         lambda t: check_reduce(t, rp2, 2, 10, 0)),
        ("rp2_6-fp-trials", ["reduce", "rp2_6", "--m", "2", "--cutoff", "10", "--field",
                             f"fp:{PRIME}", "--trials", "2", "--seed", str(seed), *fmt],
         lambda t: check_reduce(t, rp2, 2, 10, 2)),
        ("octahedron-q", ["reduce", "octahedron", "--m", "3", "--cutoff", "10", *fmt],
         lambda t: check_reduce(t, octa, 3, 10, 0)),
    ]
    return Workload({}, ops)


WORKLOADS = {
    "verify-q": verify_q,
    "verify-fp": verify_fp,
    "analyze-grow": analyze_grow,
    "reduce-deep": reduce_deep,
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(job: dict, job_path: str) -> dict | None:
    """Run one worker to completion; None when it crashed or timed out."""
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {job_path}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probe_median() -> float:
    return statistics.median(worker.speed_probe() for _ in range(7))


def time_setup(wl: Workload, rundir: str) -> tuple[float, float]:
    """(wall time, reference wall time) of a worker that only sets up.

    The worker starts on the fastest CPU; the reference time rescales the
    wall time by the CPU's speed probed just before and just after it."""
    allowed = os.sched_getaffinity(0)
    worker.pin_to_fastest_cpu(sorted(allowed))  # the child inherits the pinning
    try:
        p0 = _probe_median()
        t0 = time.perf_counter()
        res = run_worker({"files": list(wl.files), "ops": []},
                         os.path.join(rundir, "setup.json"))
        elapsed = time.perf_counter() - t0
        p1 = _probe_median()
    finally:
        os.sched_setaffinity(0, allowed)
    if res is None:
        raise RuntimeError("set-up worker failed")
    return elapsed, elapsed * worker.PROBE_REF_S * 2 / (p0 + p1)


def run_round(wl: Workload, rundir: str, rnd: int, traced: bool):
    """One round of every op in one worker; returns (per-op records or Nones, peak RSS MB)."""
    ops = [{"argv": argv, "out": os.path.join(rundir, f"r{rnd}-op{k}.out")}
           for k, (_, argv, _) in enumerate(wl.ops)]
    res = run_worker({"files": list(wl.files), "ops": ops, "trace": traced},
                     os.path.join(rundir, f"r{rnd}-job.json"))
    if res is None:
        return [None] * len(ops), 0.0
    return res["ops"], res["maxrss_mb"]


def check_outputs(wl: Workload, rundir: str, rounds: list) -> int:
    """Count failed ops: bad exit code, failed check, or output differing from round 0."""
    failed = 0
    first: dict[int, bytes] = {}
    for rnd, (records, _, _) in enumerate(rounds):
        for k, (label, _, check) in enumerate(wl.ops):
            rec = records[k]
            path = os.path.join(rundir, f"r{rnd}-op{k}.out")
            if rec is None or rec["rc"] != 0 or not os.path.exists(path):
                print(f"FAIL {label} round {rnd}: exit {rec and rec['rc']}", file=sys.stderr)
                failed += 1
                continue
            with open(path, "rb") as fh:
                body = fh.read()
            if k not in first:
                try:
                    err = check(body.decode("utf-8"))
                except (ValueError, KeyError, TypeError) as exc:
                    err = f"unreadable output: {exc!r}"
                if err:
                    print(f"FAIL {label} round {rnd}: {err}", file=sys.stderr)
                    failed += 1
                    continue
                first[k] = body
            elif body != first[k]:
                print(f"FAIL {label} round {rnd}: output differs from an earlier round",
                      file=sys.stderr)
                failed += 1
    return failed


def _best_round(rounds, field: str) -> float:
    """Sum over ops of the op's fastest time over the rounds.

    Every round repeats the same deterministic computation, and interference
    from other tenants of the machine only ever adds time, so the fastest
    repetition is the steadiest estimate of an op's own cost (see README).
    """
    total = 0.0
    for k in range(len(rounds[0][0])):
        vals = [r[0][k][field] for r in rounds if r[0][k] is not None]
        if vals:
            total += min(vals)
    return total


def _layers(records) -> dict:
    out: dict[str, float] = {}
    for rec in records:
        if rec is None:
            continue
        for key, value in rec["layers"].items():
            if key in spans.MAX_STATS:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "facering", "__init__.py")):
        print("error: run from the root of a facering checkout (src/facering not found)",
              file=sys.stderr)
        return 2

    rundir = os.path.join(OUT_DIR, args.workload)
    shutil.rmtree(rundir, ignore_errors=True)
    indir = os.path.join(rundir, "in")
    os.makedirs(indir)
    wl = WORKLOADS[args.workload](args.seed, indir)
    for path, data in wl.files.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    # Whole rounds while the next one (as long as the last) still ends within
    # --seconds; a trace run needs one untraced and one traced round at least.
    setups, rounds = [], []  # rounds: (records, peak RSS, traced)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if not args.trace:
            setups.append(time_setup(wl, rundir))
        records, rss = run_round(wl, rundir, len(rounds), traced)
        rounds.append((records, rss, traced))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds and len(rounds) >= 1 + args.trace:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(time_setup(wl, rundir))

    failed = check_outputs(wl, rundir, rounds)
    with open(os.path.join(rundir, "rounds.json"), "w", encoding="utf-8") as fh:
        json.dump({"ops": [label for label, _, _ in wl.ops], "setup_s": [w for w, _ in setups],
                   "setup_ref_s": [r for _, r in setups],
                   "rounds": [{"traced": t, "peak_rss_mb": rss, "records": recs}
                              for recs, rss, t in rounds]}, fh, indent=1)
    attempted = len(rounds) * len(wl.ops)
    plain = [r for r in rounds if not r[2]]
    traced_rounds = [r for r in rounds if r[2]]
    metrics = {}
    if not args.trace:
        values = {
            "wall_s": _best_round(plain, "ref_wall_s"),
            "cpu_s": _best_round(plain, "ref_cpu_s"),
            "peak_rss_mb": statistics.median(r[1] for r in plain),
            "setup_s": statistics.median(ref for _, ref in setups),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        layer_rounds = [_layers(r[0]) for r in traced_rounds]
        untraced = _best_round(plain, "ref_wall_s")
        traced_wall = _best_round(traced_rounds, "ref_wall_s")
        extra = {"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced_wall,
                 "trace.overhead_s": traced_wall - untraced}
        for name, unit in PER_LAYER.items():
            if name in extra:
                value = extra[name]
            else:
                key = RENAMED.get(name, name)
                value = statistics.median(lr.get(key, 0) for lr in layer_rounds)
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
