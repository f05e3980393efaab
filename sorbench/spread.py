#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the command of BENCHMARK.json once per seed on each workload, from
the repository root, and prints for every end-to-end metric the median,
the quartiles and the interquartile spread as a share of the median, next
to the metric's bound.

    python3 sorbench/spread.py --seeds 1-10 [--workload NAME ...] [--json OUT]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json", help="write the per-run values and summary here")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"seeds": args.seeds, "workloads": {}}
    for w in workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {out.returncode}:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{w} seed {seed}: failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bound}
            print(f"{w:<12} {name:<16} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {(q3 - q1) / med:7.2%}  bound {bound:.0%}")
        record["workloads"][w] = {"runs": runs, "summary": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
