"""One workload in its own process: set up, warm up, time passes, gate.

run.py starts this with BLAS pinned to one thread in the environment,
so the pin is in place before numpy loads.  The worker writes its result
to <work>/result.json.

    python3 perfbench/worker.py --workload verify --seed 1 --seconds 10 \
        --trace 0 --work DIR --t0 MONOTONIC [--setup-only]
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

from cmkit import cli

import gate
import tracer
import workloads


def run_case(case):
    """Run one cmkit command in this process; return (exit code, seconds).

    The command's stdout goes to <case dir>/stdout.log.  The exit code is
    None when the command raised instead of returning one.
    """
    with open(os.path.join(os.path.dirname(case.config), "stdout.log"), "w") as log, \
            contextlib.redirect_stdout(log):
        t0 = time.perf_counter()
        try:
            rc = cli.main(case.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = None
        return rc, time.perf_counter() - t0


def run_pass(cases):
    """Run every case once; returns (pass seconds, per-case seconds, codes)."""
    t0 = time.perf_counter()
    times, codes = [], []
    for case in cases:
        rc, dt = run_case(case)
        times.append(dt)
        codes.append(rc)
    return time.perf_counter() - t0, times, codes


def gate_pass(cases, codes):
    outcome = gate.Outcome()
    for case, rc in zip(cases, codes):
        outcome.add(gate.check(case, rc))
    return outcome


def op_seconds(cases, times):
    """Median seconds per primary operation of the pass: per continuation
    solve (a sweep's time is spread over its points), or per cmkit verify
    on the verify workload."""
    ops = []
    for case, dt in zip(cases, times):
        if case.command in ("solve", "verify"):
            ops.append(dt)
        elif case.command == "sweep":
            ops.append(dt / len(case.expect["points"]))
    return statistics.median(ops)


def bytes_written(cases):
    return sum(os.path.getsize(os.path.join(case.out, name))
               for case in cases for name in os.listdir(case.out))


def blas_threads():
    """{library: threads} for each OpenBLAS loaded into this process."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cases = workloads.generate(args.workload, args.seed, os.path.join(args.work, "cases"))
    warm = workloads.warm_up_cases(os.path.join(args.work, "warm"))
    _, _, codes = run_pass(warm)
    warm_gate = gate_pass(warm, codes)
    if warm_gate.failed:
        print("warm-up failed: " + "; ".join(warm_gate.problems), file=sys.stderr)
        return 1
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        result.update(measure(cases, args))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment()
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def measure(cases, args):
    """Untraced passes for about args.seconds (at least one); with --trace 1,
    one untraced and one traced pass."""
    outcome = gate.Outcome()
    passes = []
    start = time.perf_counter()
    while True:
        wall, times, codes = run_pass(cases)
        gated = gate_pass(cases, codes)
        outcome.add(gated)
        passes.append((wall, op_seconds(cases, times)))
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + wall > args.seconds:
            break
    result = {"passes": len(passes),
              "pass_s": statistics.median(p[0] for p in passes),
              "op_s": statistics.median(p[1] for p in passes),
              "newton_iters": gated.newton_iters,
              "cont_steps": gated.cont_steps}
    if args.trace:
        with tracer.Tracer() as tr:
            wall, _, codes = run_pass(cases)
        outcome.add(gate_pass(cases, codes))
        tr.write(os.path.join(args.work, "spans.jsonl"))
        layers = tracer.layer_metrics(tr.spans)
        layers["io.bytes_written"] = (bytes_written(cases), "B")
        layers["trace.pass_s"] = (wall, "s")
        layers["trace.overhead_s"] = (wall - result["pass_s"], "s")
        result["layers"] = layers
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  declined=outcome.declined, problems=outcome.problems[:20])
    return result


if __name__ == "__main__":
    sys.exit(main())
