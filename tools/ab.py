#!/usr/bin/env python3
"""Alternating A/B of two built sorbench binaries on one workload.

Runs N pairs of the parent and the change binary, alternating which side
runs first (odd pairs parent first), each run for `--seconds` at one seed.
For every end-to-end metric of BENCHMARK.json it prints both medians, the
change/parent median ratio, the change's wins out of N (a win is a pair in
which the change is strictly better in the metric's `better` direction),
the parent's quartiles, and whether the medians differ by more than the
distance between the parent's quartiles. A metric whose change median is
worse than the parent's by more than its bound is flagged.

    python3 tools/ab.py PARENT_BIN CHANGE_BIN --workload eval-perm \\
        [--seed 1] [--pairs 3] [--seconds 20] [--metric latency_ms]

Each pair's progress line on stderr shows both runs' value of `--metric`
(default `latency_ms`), any end-to-end metric of BENCHMARK.json.

Build each binary from its own checkout first, e.g.
`cargo build --release --offline --manifest-path sorbench/Cargo.toml`,
and copy `sorbench/target/release/sorbench` aside.

Exit status: 0 when every run was correct and nothing is flagged, 1 when
a metric is flagged, 2 when a run exits non-zero, prints no result line,
or reports an incorrect output or a failed operation.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)


def run(binary, workload, seed, seconds):
    """One sorbench run; returns its metric values or exits 2."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if out.returncode != 0 or result is None:
        fail(f"{binary} exited {out.returncode}:\n{out.stderr}")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{binary}: correct={result['correct']} "
             f"failed={result['failed']}/{result['attempted']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="sorbench binary built from the parent")
    ap.add_argument("change", help="sorbench binary built from the change")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--metric", default="latency_ms",
                    choices=[m["name"] for m in bench["end_to_end"]],
                    help="metric shown in each pair's progress line")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be at least 1")

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run(getattr(args, side), args.workload,
                                  args.seed, args.seconds))
        shown = "  ".join(f"{s} {args.metric} {runs[s][-1][args.metric]:.4g}"
                          for s in ("parent", "change"))
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): {shown}",
              file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {args.pairs} alternating pairs "
          f"of {args.seconds} s, every run correct with 0 failed")
    print(f"{'metric':<16} {'parent':>12} {'change':>12} {'ratio':>7} "
          f"{'wins':>5} {'parent q1-q3':>25} {'>IQR':>4}  verdict")
    flagged = []
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        a = [r[name] for r in runs["parent"]]
        b = [r[name] for r in runs["change"]]
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = mb / ma if ma else float("nan")
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        q1, q3 = quartiles(a)
        beyond_iqr = abs(mb - ma) > q3 - q1
        worse = mb > ma * (1 + m["bound"]) if lower else mb < ma * (1 - m["bound"])
        verdict = f"FLAG: worse than the {m['bound']:.0%} bound" if worse else "ok"
        if worse:
            flagged.append(name)
        print(f"{name:<16} {ma:>12.6g} {mb:>12.6g} {ratio:>7.4f} "
              f"{wins:>2}/{args.pairs:<2} {q1:>12.6g}-{q3:<12.6g} "
              f"{'yes' if beyond_iqr else 'no':>4}  {verdict}")
    if flagged:
        print(f"flagged: {', '.join(flagged)}")
        sys.exit(1)


if __name__ == "__main__":
    main()
