#!/usr/bin/env python3
"""Alternating A/B of two built sorbench binaries on one or more workloads.

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

`--workload` takes one workload, a comma-separated list of them, or
`all`. `--seed` takes one seed or a comma-separated list of them. The
workloads run one after another in BENCHMARK.json order; within a
workload the seeds run in the order given, all pairs of one seed before
the next, and each (workload, seed) prints its own table.

Each pair's progress line on stderr shows both runs' value of each
`--metric` (default `latency_ms`): one end-to-end metric of
BENCHMARK.json or a comma-separated list of them, e.g.
`--metric peak_rss_mb,setup_s,latency_ms`.

Build each binary from its own checkout first, e.g.
`cargo build --release --offline --manifest-path sorbench/Cargo.toml`,
and copy `sorbench/target/release/sorbench` aside.

Exit status: 0 when every run was correct and nothing is flagged, 1 when
a metric is flagged, 2 when a run exits non-zero, prints no result line,
or reports an incorrect output or a failed operation. Such a run ends its
(workload, seed)'s pairs; the next one still runs, and the exit status is
the worst of all the tables'.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(Exception):
    """A run that exited non-zero, printed no result, or was not correct."""


def run(binary, workload, seed, seconds):
    """One sorbench run; returns its metric values or raises RunFailed."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if out.returncode != 0 or result is None:
        raise RunFailed(f"{binary} exited {out.returncode}:\n{out.stderr}")
    if not result["correct"] or result["failed"] != 0:
        raise RunFailed(f"{binary}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(args, bench, workload, seed, shown_metrics):
    """All pairs of one workload at one seed and their table; returns
    its exit status."""
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            try:
                runs[side].append(run(getattr(args, side), workload,
                                      seed, args.seconds))
            except RunFailed as e:
                print(f"{workload} seed {seed}: {e}", file=sys.stderr)
                return 2
        shown = "  ".join(f"{s} {name} {runs[s][-1][name]:.4g}"
                          for name in shown_metrics
                          for s in ("parent", "change"))
        print(f"{workload} seed {seed} pair {i + 1}/{args.pairs} "
              f"({order[0]} first): {shown}", file=sys.stderr)

    print(f"{workload} seed {seed}: {args.pairs} alternating pairs "
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
        return 1
    return 0


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="sorbench binary built from the parent")
    ap.add_argument("change", help="sorbench binary built from the change")
    ap.add_argument("--workload", required=True,
                    help=f"comma-separated workloads, or all "
                         f"(from {', '.join(names)})")
    ap.add_argument("--seed", default="1",
                    help="one seed or a comma-separated list of them")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--metric", default="latency_ms",
                    help="comma-separated metrics shown in each pair's "
                         "progress line")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be at least 1")
    asked = names if args.workload == "all" else args.workload.split(",")
    for name in asked:
        if name not in names:
            ap.error(f"--workload: invalid choice: {name!r} "
                     f"(choose from {', '.join(names)}, or all)")
    try:
        seeds = [int(s) for s in args.seed.split(",")]
    except ValueError:
        ap.error(f"--seed: expected integers, got {args.seed!r}")
    known = [m["name"] for m in bench["end_to_end"]]
    shown_metrics = args.metric.split(",")
    for name in shown_metrics:
        if name not in known:
            ap.error(f"--metric: invalid choice: {name!r} "
                     f"(choose from {', '.join(known)})")

    status = 0
    tables = [(w, s) for w in names if w in asked for s in seeds]
    for i, (workload, seed) in enumerate(tables):
        if i > 0:
            print()
        status = max(status,
                     compare(args, bench, workload, seed, shown_metrics))
    sys.exit(status)


if __name__ == "__main__":
    main()
