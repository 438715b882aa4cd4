"""Child process of the benchmark: one process, one computation at a time.

    python3 perfbench/worker.py JOB.json

The job names input files, CLI invocations and output paths.  The worker
imports facering and parses the input files (this is set-up, not timed
here), then calls facering.cli.main on each invocation in turn with stdout
sent to that invocation's output file, timing each call with a wall clock
and the process's own CPU time, both as measured and rescaled to a reference
CPU speed by a Speedometer.  A job with no invocations lets the parent
time interpreter start, imports and input loading on their own.  With
"trace" the per-layer tracer is installed after set-up.  Before each
invocation the worker moves itself to the CPU that runs a short probe
fastest (pin_to_fastest_cpu).

It prints one JSON line: {"ops": [{"rc", "wall_s", "cpu_s", "ref_wall_s",
"ref_cpu_s", "layers"?}], "maxrss_mb"}.
"""

from __future__ import annotations

import array
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# Time of speed_probe() on the host the reference figures come from, while its
# CPU runs fast; a slice of time during which the probe takes PROBE_REF_S
# counts at face value.
PROBE_REF_S = 18e-6
SAMPLE_INTERVAL_S = 0.01


def speed_probe(iterations: int = 300) -> float:
    """Fastest of three runs of a fixed pure-Python loop, in seconds (about 20 us
    at the default length)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class Speedometer:
    """Wall and CPU time of a computation, rescaled to the reference CPU speed.

    The CPUs of a shared virtual machine switch, independently and within
    seconds, between a fast state and one in which all code runs about 1.4x
    slower; a computation of a few seconds often straddles both.  While one
    runs, a SIGALRM every SAMPLE_INTERVAL_S interrupts it between bytecodes
    to time speed_probe().  Each slice of time between two samples is
    weighted by PROBE_REF_S over the probe's time at that moment (a running
    median over five samples, so that one disturbed probe does not count),
    and the weighted slices are summed.  The result is the time the
    computation would have taken at the reference speed; sampling costs
    under 1% of it.
    """

    CAPACITY = 40000  # samples; past it the last slot is overwritten

    def __init__(self):
        # (wall, cpu, probe) triples in one buffer allocated up front: a list
        # growing inside the program's allocations made its peak RSS vary
        # by several MB from run to run.
        self._buf = array.array("d", bytes(8 * 3 * self.CAPACITY))
        self._n = 0

    def _sample(self, *_):
        k = 3 * min(self._n, self.CAPACITY - 1)
        self._buf[k] = time.perf_counter()
        self._buf[k + 1] = time.process_time()
        self._buf[k + 2] = speed_probe()
        self._n += 1

    def start(self) -> None:
        self._n = 0
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """(reference wall seconds, reference CPU seconds) since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        n = min(self._n, self.CAPACITY)
        walls, cpus, probes = self._buf[0:3 * n:3], self._buf[1:3 * n:3], self._buf[2:3 * n:3]
        speed = [PROBE_REF_S / statistics.median(probes[max(0, i - 2):i + 3])
                 for i in range(n)]
        wall = cpu = 0.0
        for i in range(1, n):
            weight = (speed[i - 1] + speed[i]) / 2
            wall += (walls[i] - walls[i - 1]) * weight
            cpu += (cpus[i] - cpus[i - 1]) * weight
        return wall, cpu


def pin_to_fastest_cpu(cpus) -> None:
    """Pin the calling thread to whichever allowed CPU runs a probe loop fastest.

    The CPUs of a shared virtual machine slow down independently of each
    other, by half or more, in spells of seconds to minutes; running each
    computation on the CPU that is fast at that moment keeps those spells
    out of most measurements.
    """
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = speed_probe(20000)
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    from facering import SimplicialComplex
    from facering import cli

    for path in job["files"]:
        with open(path, encoding="utf-8") as fh:
            SimplicialComplex.from_json(json.load(fh))
    tracer = None
    if job.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    results = []
    meter = Speedometer()
    cpus = sorted(os.sched_getaffinity(0))
    for op in job["ops"]:
        pin_to_fastest_cpu(cpus)
        if tracer is not None:
            tracer.begin_op()
        with open(op["out"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            meter.start()
            c0, t0 = _cpu(), time.perf_counter()
            try:
                rc = cli.main(op["argv"])
            except Exception:  # an op that raises is reported as failed, the rest still run
                traceback.print_exc()
                rc = -1
            t1, c1 = time.perf_counter(), _cpu()
            ref_wall, ref_cpu = meter.stop()
        rec = {"rc": rc, "wall_s": t1 - t0, "cpu_s": c1 - c0,
               "ref_wall_s": ref_wall, "ref_cpu_s": ref_cpu}
        if tracer is not None:
            rec["layers"] = tracer.end_op()
        results.append(rec)
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"ops": results, "maxrss_mb": maxrss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
