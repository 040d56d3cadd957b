"""cmkit benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload solve-default --seed 1 --seconds 25 --trace 0

Run from the root of a cmkit checkout; the program is imported from its
src/ directory.  Each workload runs in a fresh worker process with BLAS
pinned to one thread before numpy loads.  With --trace 0 the result holds
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
pass.  See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solve-default", "solve-large", "sweep-small", "verify")
SETUP_SAMPLES = 3  # set-up is measured this many times; the median is reported
TIMEOUT_S = 170.0  # all worker processes of one run together


def worker_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "CMK_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, work, env, deadline, setup_only=False):
    """Run one worker to completion; return its result dict."""
    os.makedirs(work)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker exceeded the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    with open(os.path.join(work, "result.json")) as fh:
        return json.load(fh)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cmkit", "cli.py")):
        print("error: run from the root of a cmkit checkout (no src/cmkit)",
              file=sys.stderr)
        return 2
    # on SIGTERM, unwind so the worker is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + TIMEOUT_S
    env = worker_env(root)
    work_root = os.path.join(root, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(start_worker(args, os.path.join(work, f"setup{i}"),
                                           env, deadline, setup_only=True)["setup_s"])
        res = start_worker(args, os.path.join(work, "run"), env, deadline)
        if args.trace:  # keep the spans of the traced pass
            os.replace(os.path.join(work, "run", "spans.jsonl"),
                       f"{work_root}/spans-{args.workload}-{args.seed}.jsonl")
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # only when empty
    setups.append(res["setup_s"])

    if args.trace:
        metrics = {name: metric(v, unit) for name, (v, unit) in res["layers"].items()}
    else:
        metrics = {"pass_s": metric(res["pass_s"], "s"),
                   "op_s": metric(res["op_s"], "s"),
                   "setup_s": metric(statistics.median(setups), "s"),
                   "peak_rss_mb": metric(res["peak_rss_mb"], "MB")}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": res["passes"], "declined": res["declined"],
                      "newton_iters": res["newton_iters"],
                      "cont_steps": res["cont_steps"],
                      "setup_samples_s": setups, "env": res["env"]}))
    for problem in res["problems"]:
        print(f"gate: {problem}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
