"""Judge two sides of benchmark results, row by row.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py --a A1.json A2.json --b B1.json B2.json
    python3 benchmarks/e2e/compare.py --pairs 10 --a-root ../parent --b-root . --out-dir /tmp/ab

A is the base (the parent commit), B the change; each file is one
``run.py --out`` result.  ``--pairs N`` makes the files itself: N runs
of each root's own ``run.py`` (untraced), alternating which side goes
first, pair ``i`` sharing seed ``--seed + i``.

For every (workload, end-to-end metric) row it prints both medians, the
ratio B/A with its base, each side's own spread (the distance between
its quartiles over its median) and a verdict against the metric's bound
from ``BENCHMARK.json``:

* ``worse``  — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than the bound and, with
  paired runs, B wins at least nine pairs in ten;
* ``same``   — the medians differ by no more than the bound;
* ``unresolved`` — either side's spread exceeds the bound, or the
  difference does not exceed A's spread: the runs cannot tell.

A failed op on either side is its own row and is ``worse`` whenever B
fails more than A.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
#: share of pairs the change must win before a gain is believed
WIN_SHARE = 0.9


def spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def load_side(paths: Sequence[str]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per result file, in file order."""
    rows: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        for workload, runs in result["workloads"].items():
            timed = runs["timed"]
            for name, metric in timed["metrics"].items():
                rows.setdefault((workload, name), []).append(metric["value"])
            rows.setdefault((workload, "failed_ops"), []).append(timed["failed"])
    return rows


def judge(a: Sequence[float], b: Sequence[float], better: str, bound: float):
    """(verdict, worsening as a share of A's median, wins of B)."""
    base, change = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (change - base) / abs(base) if base else float(change != base)
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    noise = max(spread(a), spread(b))
    if abs(worsening) <= bound:
        verdict = "unresolved" if noise > bound else "same"
    elif noise > bound or abs(worsening) <= spread(a):
        verdict = "unresolved"
    elif worsening > 0:
        verdict = "worse"
    elif len(a) == len(b) > 1 and wins < WIN_SHARE * len(a):
        verdict = "unresolved"
    else:
        verdict = "better"
    return verdict, worsening, wins


def compare(a_paths: Sequence[str], b_paths: Sequence[str]) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics["failed_ops"] = {"unit": "count", "better": "lower", "bound": 0.0}
    side_a, side_b = load_side(a_paths), load_side(b_paths)
    print(
        f"A = {len(a_paths)} run(s), B = {len(b_paths)} run(s); "
        "ratio = median B / median A (base A); + means B is worse"
    )
    header = (
        f"{'workload':<14} {'metric':<22} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7} {'worse by':>9} {'bound':>6} {'spread A':>9} "
        f"{'spread B':>9} {'B wins':>7}  verdict"
    )
    print(header)
    tally: Dict[str, int] = {}
    for key in sorted(side_a.keys() & side_b.keys()):
        workload, name = key
        metric = metrics[name]
        a, b = side_a[key], side_b[key]
        verdict, worsening, wins = judge(a, b, metric["better"], metric["bound"])
        tally[verdict] = tally.get(verdict, 0) + 1
        base, change = statistics.median(a), statistics.median(b)
        ratio = f"{change / base:7.3f}" if base else "    n/a"
        print(
            f"{workload:<14} {name:<22} {base:>12.6g} {change:>12.6g} "
            f"{ratio} {100 * worsening:>+8.1f}% {100 * metric['bound']:>5.0f}% "
            f"{100 * spread(a):>8.1f}% {100 * spread(b):>8.1f}% "
            f"{wins:>3}/{min(len(a), len(b)):<3}  {verdict}"
        )
    for key in sorted(side_a.keys() ^ side_b.keys()):
        print(f"{key[0]:<14} {key[1]:<22} only on one side, not compared")
    print(", ".join(f"{count} {verdict}" for verdict, count in sorted(tally.items())))
    return 1 if tally.get("worse") else 0


def run_pairs(args: argparse.Namespace) -> Tuple[List[str], List[str]]:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files: Dict[str, List[str]] = {"a": [], "b": []}
    roots = {"a": Path(args.a_root).resolve(), "b": Path(args.b_root).resolve()}
    for pair in range(args.pairs):
        for side in ("a", "b") if pair % 2 == 0 else ("b", "a"):
            out = out_dir / f"{side}{pair:02d}.json"
            command = [
                sys.executable,
                str(roots[side] / "benchmarks" / "e2e" / "run.py"),
                "--seed", str(args.seed + pair),
                "--trace", "0",
                "--out", str(out),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            print(f"pair {pair}: side {side.upper()}", flush=True)
            subprocess.run(
                command, cwd=roots[side], check=True, stdout=subprocess.DEVNULL
            )
            files[side].append(str(out))
    return files["a"], files["b"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--a", nargs="+", help="result files of the base side")
    parser.add_argument("--b", nargs="+", help="result files of the change")
    parser.add_argument("--pairs", type=int, help="run this many A/B pairs first")
    parser.add_argument("--a-root", help="checkout of the base (with --pairs)")
    parser.add_argument("--b-root", help="checkout of the change (with --pairs)")
    parser.add_argument("--out-dir", help="where --pairs writes its result files")
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    parser.add_argument("--seconds", type=float, help="passed to run.py")
    args = parser.parse_args()
    if args.pairs:
        if not (args.a_root and args.b_root and args.out_dir):
            parser.error("--pairs needs --a-root, --b-root and --out-dir")
        a_paths, b_paths = run_pairs(args)
    elif args.a and args.b:
        a_paths, b_paths = args.a, args.b
    elif len(args.files) == 2:
        a_paths, b_paths = [args.files[0]], [args.files[1]]
    else:
        parser.error("give A.json B.json, or --a ... --b ..., or --pairs N")
    return compare(a_paths, b_paths)


if __name__ == "__main__":
    sys.exit(main())
