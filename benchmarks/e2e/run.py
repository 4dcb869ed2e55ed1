"""The repo's benchmark: six workloads, end to end and layer by layer.

Two ways to run it, both from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload thr_fresh --seed 1 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py [--seed N] [--smoke] [--out results.json]

The first runs one workload in this process and prints its metrics, one
per line with unit, then one JSON object as the last line (``--trace 0``:
the end-to-end metrics, measured with tracing off; ``--trace 1``: the
per-layer metrics of a separate traced run).  The second runs every
workload, untraced then traced, each in a fresh subprocess, checks that
the two runs scanned the same rows, and writes one result file with an
environment fingerprint.  Names, units and regression bounds come from
``BENCHMARK.json``; ``README.md`` says why each workload exists.

Exits non-zero when any answer differs from the brute-force oracle or
from the first answer the same query got.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: scratch space for saved stores: inside the checkout, git-ignored
SCRATCH = ROOT / ".bench_tmp"
DETAILS_PREFIX = "details "

INTERACTION_NOTES = [
    "closed-loop workloads: a faster layer saves at most its share of the op",
    "cluster_open at rate_hi: a service-time saving also shortens the queue, "
    "so latency_p95_ms should move more than latency_p50_ms; each query waits "
    "for the slower of two partitions",
    "rows_scanned_per_op moves only when pruning/occupancy logic changes, "
    "never from a pure speed-up",
]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=[w["name"] for w in spec["workloads"]],
        help="run this one workload in-process (default: all, in subprocesses)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        help=f"measuring time per run (default {spec['run_seconds']}, smoke 1)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: end-to-end metrics, tracing off; 1: per-layer metrics from "
        "a traced run (default with --workload: 0; without: both)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the smoke test"
    )
    parser.add_argument("--out", help="write the result file here (all-workloads mode)")
    parser.add_argument("--spans-out", help="write the traced run's raw spans here")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    return args


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def pin_to_one_cpu() -> None:
    """Keep this process — and the cluster workers it forks — on one CPU.

    The sandbox's CPUs drift in speed independently.  On one CPU the
    calibration loop that scales every time shares the core with all
    the work it scales, the cluster's workers included, which is what
    makes ``cluster_open`` repeatable (p50 spread 2 % pinned, 8 % not).
    The price: the two partitions of a query take turns instead of
    running side by side, so ``cluster_open`` measures the serving
    tier's own cost, not a parallel speed-up.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    import workloads as wl
    from harness import HARNESSES, Run

    pin_to_one_cpu()
    trace = bool(args.trace)
    declared = spec["per_layer" if trace else "end_to_end"]
    workload = wl.WORKLOADS[args.workload]

    started = time.perf_counter()
    world = wl.make_world(workload.name, args.smoke)
    queries = wl.make_queries(world, args.seed)
    order = wl.make_order(len(queries), args.seed)
    datagen_s = time.perf_counter() - started

    SCRATCH.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH)
    try:
        measured, details, checker = HARNESSES[workload.harness](
            Run(
                workload=workload,
                world=world,
                queries=queries,
                order=order,
                seconds=args.seconds,
                trace=trace,
                smoke=args.smoke,
                tmp=tmp,
                spans_out=args.spans_out,
            )
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # unless another run is using it
        except OSError:
            pass

    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    # A layer that did no work on this workload reports 0.
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    details.update(
        datagen_s=datagen_s,
        oracle_s=checker.oracle_s,
        wall_s=time.perf_counter() - started,
        failed_ops_ratio=checker.failed / checker.attempted,
        stored_trajectories=len(world.data),
        distinct_queries=len(queries),
        oracle_queries=len(checker.oracle),
        measured=sorted(measured),
    )

    kind = "traced, per layer" if trace else "untraced, end to end"
    print(f"== {workload.name} ({kind}; seed {args.seed}, {args.seconds:g} s)")
    print(f"   {workload.why}")
    for name, metric in metrics.items():
        if name in measured:  # layers that do no work here are left out
            print(f"{name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'failed_ops_ratio':<40} {details['failed_ops_ratio']:>14.6g} ratio")
    print(f"{'samples':<40} {details['samples']:>14d} count")
    if trace and "layer_shares" in details:
        for layer, share in details["layer_shares"].items():
            print(f"  share {layer:<32} {100 * share:>14.1f} %")
    for message in checker.messages:
        print(f"MISMATCH {message}")
    print(DETAILS_PREFIX + json.dumps(details, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if checker.failed == 0 else 1


# ----------------------------------------------------------------------
# Every workload, each run in a fresh subprocess
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def fingerprint(args: argparse.Namespace) -> dict:
    import numpy
    import workloads as wl

    return {
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "constants": {
            **wl.constants(),
            "plan_cache_size": wl.engine_config().plan_cache_size,
        },
    }


def run_child(args: argparse.Namespace, workload: str, trace: int) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.spans_out and trace:
        command += ["--spans-out", f"{args.spans_out}.{workload}.json"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"{workload} (trace {trace}) exited {done.returncode}")
    result = json.loads(lines[-1])
    details = json.loads(lines[-2][len(DETAILS_PREFIX):])
    # The result file leaves out what does not apply to the workload.
    measured = details.pop("measured")
    result["metrics"] = {n: result["metrics"][n] for n in measured}
    result["details"] = details
    return result


def run_all(args: argparse.Namespace, spec: dict) -> int:
    result = {
        "schema": 1,
        "fingerprint": fingerprint(args),
        "interaction_notes": INTERACTION_NOTES,
        "workloads": {},
    }
    traces = (0, 1) if args.trace is None else (args.trace,)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {("traced" if t else "timed"): run_child(args, workload, t) for t in traces}
        ok = ok and all(r["correct"] for r in runs.values())
        if len(runs) == 2:
            timed = runs["timed"]["metrics"]["rows_scanned_per_op"]["value"]
            traced = runs["traced"]["details"]["rows_scanned_per_op"]
            same = timed == traced
            ok = ok and same
            print(
                f"{workload}: rows_scanned_per_op timed {timed!r} "
                f"traced {traced!r} {'identical' if same else 'DIFFER'}"
            )
        result["workloads"][workload] = runs
    result["fingerprint"]["loadavg_1m_end"] = os.getloadavg()[0]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    print("all answers correct" if ok else "FAILED: see MISMATCH / DIFFER lines")
    return 0 if ok else 1


def main() -> int:
    spec = load_spec()
    args = parse_args(spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload:
        if args.trace is None:
            args.trace = 0
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
