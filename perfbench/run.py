"""Benchmark for tscnc: one workload per invocation, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off: the set-up
several times, then repetitions until ``--seconds`` have passed and the
workload's minimum count has run.  ``--trace 1`` runs one set-up and one
repetition (a unit) untraced to warm up, then traced, then untraced again,
and reports per-layer metrics of the traced unit and the tracing overhead
against the second untraced one.  ``--smoke`` shortens every workload for
the benchmark's own test.

Standard output is a readable report and a JSON ``detail`` line, then, as
the last line, one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench-trace")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mlp-quickstart", "cnn-trend", "diagnose"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="shortened configs and two repetitions, for the smoke test")
    return p.parse_args(argv)


def blas_info():
    """Thread count and version of the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        # numpy's PyPI wheels bundle scipy-openblas; other builds link openblas
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.restype, threads.argtypes = ctypes.c_int, []
            config.restype, config.argtypes = ctypes.c_char_p, []
            return threads(), config().decode()
    return None, None


def environment(np, seed):
    threads, blas = blas_info()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "pinned": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def timed_run(wl, args):
    """End-to-end metrics with tracing off."""
    from workloads import import_seconds

    state = None
    setups = 2 if args.smoke else wl.setup_count
    for index in range(setups):
        imported = import_seconds(SRC)
        t0 = time.perf_counter()
        state = wl.setup(args.seed, index)
        wl.samples["setup_s"].append(imported + time.perf_counter() - t0)
    min_reps = 2 if args.smoke else wl.min_reps
    t0 = time.perf_counter()
    i = 0
    while i < min_reps or time.perf_counter() - t0 < args.seconds:
        wl.rep(state, i)
        i += 1
    metrics = wl.metrics()
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, {"reps": i, "workload_metrics": wl.report}


def traced_run(make, args, per_layer):
    """Per-layer metrics of one traced unit, and the tracing overhead.

    per_layer lists the metrics to report, as BENCHMARK.json does; a
    function the unit never called reports 0.
    """
    from tracer import Tracer

    def unit(wl):
        t0 = time.perf_counter()
        with wl.tracer.span("bench.setup"):
            state = wl.setup(args.seed, 0)
        with wl.tracer.span("bench.rep"):
            wl.rep(state, 0)
        return time.perf_counter() - t0

    # The first untraced unit warms caches and gives the reference hash;
    # the overhead compares the traced unit with the untraced one after it.
    reference = make(None)
    unit(reference)
    tracer = Tracer()
    traced = make(tracer)
    tracer.install()
    try:
        wall = unit(traced)
    finally:
        tracer.uninstall()
    plain = make(None)
    untraced = unit(plain)
    with reference.ledger.op("traced rerun") as problems:
        if len({wl.hashes.get(0) for wl in (reference, traced, plain)}) != 1:
            problems.append("traced and untraced units trained different weights")
    metrics, self_s, calls, stages = tracer.summary(wall)
    metrics["untraced_wall_s"] = untraced
    metrics["tracing_overhead_s"] = wall - untraced
    out = {m["name"]: (metrics.get(m["name"], 0), m["unit"]) for m in per_layer}
    os.makedirs(TRACE_DIR, exist_ok=True)
    spans_path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")
    tracer.dump(spans_path)
    return out, {"self_s": self_s, "calls": calls, "stages": stages,
                 "spans": len(tracer.spans),
                 "spans_file": os.path.relpath(spans_path, ROOT)}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tscnc", "__init__.py")):
        print(f"no tscnc package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Pin the BLAS pool before numpy is first imported: the package promises
    # single-threaded runs, and with default threads timings jump tenfold.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import numpy as np
    from tracer import NullTracer
    from workloads import WORKLOADS, Ledger

    ledger = Ledger()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        def make(tracer):
            return WORKLOADS[args.workload](ledger, tracer or NullTracer(), workdir,
                                            smoke=args.smoke)

        if args.trace:
            with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
                per_layer = json.load(f)["per_layer"]
            metrics, detail = traced_run(make, args, per_layer)
        else:
            metrics, detail = timed_run(make(None), args)

    detail.update(workload=args.workload, trace=args.trace,
                  environment=environment(np, args.seed),
                  failed_ops_ratio=ledger.failed / ledger.attempted,
                  failures=ledger.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<44} {value:>16.6g} {unit}")
    for name, value in detail.get("workload_metrics", {}).items():
        print(f"  {name}: {value}")
    print(f"  checks: {ledger.failed} of {ledger.attempted} operations failed")
    for failure in ledger.failures:
        print(f"  FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
