"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload eol_fit --seed 1 --seconds 15 --trace 0

Run from the repository root.  The workload runs in a child process
(``workloads.py``) so that set-up time counts from that process's start and
its peak resident memory is its own.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (cells_per_s,
cell_p50_s, setup_s, peak_rss_mb).  With ``--trace 1`` a traced child runs
first and gives the per-layer metrics; an untraced child then repeats the
same number of lines, and the difference in timed wall time per cell is
reported as ``trace.overhead_s``.  The spans go to
``perfbench/out/trace-<workload>-s<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("eol_fit", "aging_refit", "line_ingest")
# Every run must end within 180 s; children are killed past this budget.
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def run_child(args, workdir, deadline, trace, rounds=None, trace_out=None):
    """Run one workload process; return (its result, setup_s, peak RSS in MB)."""
    result_path = os.path.join(workdir, "result.json")
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--size", args.size,
        "--workdir", os.path.join(workdir, "data"),
        "--result", result_path,
    ]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{args.workload} did not finish within the {DEADLINE_S:.0f} s budget")
    if code != 0:
        raise ChildFailed(f"{args.workload} exited with code {code}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["t_first_cell"] - t0, peak_rss_mb


def measure(args, workdir, deadline):
    """The result line for one run, as a dict."""
    if not args.trace:
        res, setup_s, peak_rss_mb = run_child(args, workdir, deadline, trace=0)
        metrics = {
            "cells_per_s": (res["cells_per_s"], "1/s"),
            "cell_p50_s": (res["cell_p50_s"], "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        failures = res["failures"]
    else:
        sys.path.insert(0, BENCH_DIR)
        from spans import per_layer_metric_units

        trace_out = os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.jsonl")
        res, _, _ = run_child(args, workdir, deadline, trace=1, trace_out=trace_out)
        plain, _, _ = run_child(args, workdir, deadline, trace=0, rounds=res["rounds"])
        per_layer = dict(res["per_layer"])
        per_layer["trace.overhead_s"] = (res["timed_s"] - plain["timed_s"]) / res["attempted"]
        units = per_layer_metric_units()
        metrics = {name: (per_layer[name], unit) for name, unit in units.items()}
        failures = res["failures"] + plain["failures"]
    return {
        "correct": not failures,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    start = time.monotonic()
    p = argparse.ArgumentParser(description="Run one dvafit benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small shrinks every line for the self-test")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "dvafit", "__init__.py")):
        print(f"error: no dvafit sources under {ROOT}/src; run from a repository checkout",
              file=sys.stderr)
        return 2

    workdir = os.path.join(OUT_DIR, f"run-{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        line = measure(args, workdir, start + DEADLINE_S)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
