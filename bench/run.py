"""polyrealize benchmark: three seeded workloads, one command.

    python3 bench/run.py --workload {search,check,gramian} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  The load is one process, closed loop: ops run one after
another in-process, with BLAS pinned to one thread.  Times are CPU time
of the process (``spans.CLOCK``), so that waiting for a core on a shared
host does not count; the end-to-end times are also rescaled to a fixed
reference speed of the core (``Gauge``).

--trace 0 measures the end-to-end metrics: passes over the workload's
ops repeat until S seconds have gone by (at least two passes), and each
op is judged against its expected outcome outside the timed region.
--trace 1 runs every op untraced and then traced, back to back, checks
that both give the same answers, and reports per-layer span totals and
counts plus the tracing overhead.  Spans stay in memory and are written to
``.bench_out/`` at the end, next to a manifest of the generated inputs.

The last line of stdout is the result as one JSON object.
"""

import time

T0 = time.process_time()
# Everything imported from here on counts in setup_s.

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "polyrealize", "__init__.py")):
    sys.exit(f"bench: no polyrealize sources under {SRC}; run from a source checkout")
sys.path.insert(0, SRC)

import argparse
import contextlib
import json
import platform
import resource
import signal
import statistics
import traceback
from collections import deque

import numpy as np
import scipy
import scipy.spatial  # hull generation; imported here so it is timed once

import polyrealize
import workloads
from spans import CLOCK, NULL, Tracer

IMPORT_S = CLOCK() - T0

PROBE_LOOPS = 200_000
PROBE_REF_S = 0.02
"""Nominal CPU time of the speed probe: it sets the reference speed.  On
the reference machine the probe takes 13-25 ms, depending on the moment."""
PROBE_EVERY_S = 1.0
PROBE_WINDOW = 5


def speed_probe() -> float:
    """CPU time of a fixed pure-Python loop, about 20 ms."""
    start = CLOCK()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return CLOCK() - start


class Gauge:
    """Rescales CPU times to the reference speed that PROBE_REF_S sets.

    The reference host changes speed by up to 2x, within seconds and for
    minutes at a time, for reasons outside this process: CPU time leaves
    out waiting for a core, so this is the core itself running slower.
    Speed probes sample it around and inside each timed stretch: the last
    PROBE_WINDOW probes before it, one from a CPU-time interval timer every
    PROBE_EVERY_S inside it, and one per PROBE_EVERY_S of it after it (at
    least one, at most PROBE_WINDOW).  The stretch's CPU time, less the
    probes inside it, is multiplied by PROBE_REF_S over the mean of the
    before, inside and after probe times.
    """

    def __init__(self):
        self.recent = deque((speed_probe() for _ in range(PROBE_WINDOW)), maxlen=PROBE_WINDOW)
        self.inside = []
        self.factors = []
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        self.inside.append(speed_probe())

    def start(self) -> float:
        """Begins a stretch; returns its start on CLOCK."""
        self.inside = []
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return CLOCK()

    def stop(self, start: float) -> tuple:
        """Ends the stretch begun at ``start``; returns its CPU time less the
        probes inside it, and the same at reference speed."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        seconds = CLOCK() - start - sum(self.inside)
        before = statistics.mean(self.recent)
        after = [speed_probe() for _ in range(min(PROBE_WINDOW, 1 + int(seconds / PROBE_EVERY_S)))]
        self.recent.extend(after)
        factor = PROBE_REF_S / statistics.mean([before, *self.inside, statistics.mean(after)])
        self.factors.append(factor)
        return seconds, seconds * factor


SETUP_REPEATS = 3
MIN_PASSES = 2
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "op_max_cpu_s": "s",
    "solved_fraction": "fraction",
    "ok_fraction": "fraction",
    "peak_rss_mb": "MB",
}

SPAN_METRICS = (
    "complete.search",
    "incidence.lattice",
    "incidence.gate_checks",
    "incidence.flags",
    "incidence.super_cycles",
    "realize.certificate",
    "realize.convert",
    "realize.oracle",
    "numkernel.rank",
    "gale.dual",
    "gramian.verify",
    "gramian.spherical",
    "gramian.hyperbolic",
    "gramian.realize_cone",
)
COUNT_METRICS = (
    "complete.searches",
    "complete.restarts",
    "incidence.lattice_elements",
    "incidence.flags",
    "incidence.super_cycles",
    "realize.pattern_entries",
    "numkernel.lp_calls",
    "gramian.pairs",
    "gramian.sampled_checks",
)
DERIVED_METRICS = {
    "complete.found_per_restart": "ratio",
    "gramian.verify_self_s": "s",
    "trace.untraced_cpu_s": "s",
    "trace.traced_cpu_s": "s",
    "trace.probe_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER = {
    **{name + "_s": "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    **DERIVED_METRICS,
}


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "load": "one process, closed loop, one op at a time",
    }


def set_up(workload: str, seed: int):
    """Generate the inputs and warm up on the first op; time each repeat."""
    gauge = Gauge()
    import_s = IMPORT_S * PROBE_REF_S / statistics.mean(gauge.recent)
    times = []
    for _ in range(SETUP_REPEATS):
        start = gauge.start()
        ops = workloads.BUILDERS[workload](seed)
        workloads.judge(ops[0], *workloads.run(ops[0]))
        times.append(gauge.stop(start)[1])
    return ops, import_s + statistics.median(times)


class Tally:
    """Op outcomes of the measured passes."""

    def __init__(self):
        self.rows = []
        self.unexpected = 0
        self.wrong = 0

    def add(self, op, seconds, value, exc):
        outcome = workloads.judge(op, value, exc)
        if outcome.status == "wrong":
            self.wrong += 1
        row = {"op": op.name, "seconds": seconds, "outcome": outcome.status,
               "note": outcome.note}
        if outcome.status == "wrong" or (
            outcome.status == "failed" and not workloads.expected_failure(op, exc)
        ):
            self.unexpected += 1
            if exc is not None:
                row["traceback"] = "".join(traceback.format_exception(exc))
        self.rows.append(row)

    def share(self, *statuses) -> float:
        return sum(r["outcome"] in statuses for r in self.rows) / len(self.rows)


def run_op(op, tr, tally, keys=None, gauge=None):
    """Run one op and judge it; returns its CPU time (judging is not
    timed).  With a gauge, returns (CPU time, CPU time at reference speed)."""
    if tr is not NULL:
        tr.op = op.name
    start = CLOCK() if gauge is None else gauge.start()
    value, exc = workloads.run(op, tr)
    if tr is not NULL and workloads.verify_calls(op):
        workloads.probe(op, tr)
    seconds = CLOCK() - start if gauge is None else gauge.stop(start)
    tally.add(op, seconds if gauge is None else seconds[0], value, exc)
    if keys is not None:
        keys.append(workloads.result_key(op, value, exc))
    return seconds


@contextlib.contextmanager
def counting_lp_calls(tr: Tracer):
    """Count the library's LP solves made inside spans, by wrapping the
    function where the library's modules look it up.  Traced runs only."""
    original = polyrealize.numkernel.lp_strict_feasibility
    holders = [
        mod for name, mod in list(sys.modules.items())
        if name.startswith("polyrealize.")
        and getattr(mod, "lp_strict_feasibility", None) is original
    ]

    def counted(*args, **kwargs):
        if tr.active:
            tr.count("numkernel.lp_calls")
        return original(*args, **kwargs)

    for mod in holders:
        mod.lp_strict_feasibility = counted
    try:
        yield
    finally:
        for mod in holders:
            mod.lp_strict_feasibility = original


def measure(ops, seconds: float, setup_s: float) -> tuple:
    tally = Tally()
    gauge = Gauge()
    scaled, maxima, cpus, walls = [], [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        raw, times = zip(*(run_op(op, NULL, tally, gauge=gauge) for op in ops))
        walls.append(time.perf_counter() - pass_start)
        cpus.append(sum(raw))
        scaled.append(sum(times))
        maxima.append(max(times))
        if len(cpus) >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
    metrics = {
        "setup_s": setup_s,
        "cpu_s": statistics.median(scaled),
        "op_max_cpu_s": statistics.median(maxima),
        "solved_fraction": tally.share("solved"),
        "ok_fraction": 1.0 - tally.share("failed", "wrong"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"passes": len(cpus), "pass_scaled_s": scaled, "pass_cpu_s": cpus,
             "pass_wall_s": walls, "speed_factors": statistics.quantiles(gauge.factors, n=4)}
    return metrics, tally, notes


def measure_traced(ops, workload: str, seed: int) -> tuple:
    """Each op untraced, then traced right after, so that machine drift
    cancels in the overhead; both runs must give the same answer."""
    tally = Tally()
    tr = Tracer()
    plain_keys, traced_keys = [], []
    untraced = traced = 0.0
    for op in ops:
        untraced += run_op(op, NULL, tally, plain_keys)
        with counting_lp_calls(tr):
            traced += run_op(op, tr, tally, traced_keys)
    mismatches = [op.name for op, a, b in zip(ops, plain_keys, traced_keys) if a != b]

    metrics = {name + "_s": tr.total(name) for name in SPAN_METRICS}
    metrics.update({name: tr.counts[name] for name in COUNT_METRICS})
    restarts = tr.counts["complete.restarts"]
    metrics["complete.found_per_restart"] = tr.counts["complete.found"] / restarts if restarts else 0.0
    probe_s = sum(tr.op_total(op.name, workloads.PROBE_SPANS) for op in ops
                  if workloads.verify_calls(op))
    verifier_s = sum(metrics[k] for k in ("gramian.verify_s", "gramian.spherical_s",
                                          "gramian.hyperbolic_s"))
    metrics["gramian.verify_self_s"] = verifier_s - sum(
        workloads.verify_calls(op) * tr.op_total(op.name, workloads.PROBE_SPANS) for op in ops
    )
    metrics.update({
        "trace.untraced_cpu_s": untraced,
        "trace.traced_cpu_s": traced,
        "trace.probe_s": probe_s,
        "trace.overhead_s": traced - untraced - probe_s,
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.write(os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.jsonl"))
    notes = {"passes": 2, "trace_mismatches": mismatches}
    return metrics, tally, notes


def collect(workload: str, ops, seconds: float, trace: bool, seed: int, setup_s: float) -> dict:
    if trace:
        metrics, tally, notes = measure_traced(ops, workload, seed)
        units = PER_LAYER
    else:
        metrics, tally, notes = measure(ops, seconds, setup_s)
        units = END_TO_END
    mismatches = notes.get("trace_mismatches", [])
    result = {
        "correct": tally.wrong == 0 and not mismatches,
        "attempted": len(tally.rows),
        "failed": tally.unexpected,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "machine": machine_record(),
        "manifest": [op.manifest() for op in ops],
        "ops": tally.rows,
        "notes": notes,
        "result": result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops, setup_s = set_up(args.workload, args.seed)
    record = collect(args.workload, ops, args.seconds, bool(args.trace), args.seed, setup_s)
    result = record["result"]
    rows = record["ops"]
    print("machine:", json.dumps(record["machine"], sort_keys=True))
    print(f"ops: {len(rows)} attempted, "
          + ", ".join(f"{sum(r['outcome'] == s for r in rows)} {s}"
                      for s in ("solved", "unsolved", "failed", "wrong")))
    for row in rows:
        if row["outcome"] != "solved":
            print(f"  {row['op']}: {row['outcome']} {row['note']}")
    for mismatch in record["notes"].get("trace_mismatches", []):
        print(f"  {mismatch}: traced calls disagree with the untraced run")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
