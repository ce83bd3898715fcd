#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload tpcc-dist --seeds 1-10 [--seconds 10] [--trace 0]

Run from the repository root. For every metric it prints the median of the
runs and the distance between the first and third quartile as a share of
that median, with quartiles from statistics.quantiles(values, n=4). With
--bounds it compares each spread with the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bounds", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        result = json.loads(last)
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect or failed calls\n{out.stdout}")
        runs.append(result["metrics"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    worst = True
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        note = ""
        if args.bounds and name in bounds:
            ok = name == "setup_s" or spread <= bounds[name] / 3
            worst = worst and ok
            note = f"bound {bounds[name]} {'ok' if ok else 'OVER A THIRD OF BOUND'}"
        print(f"{name:28s} median {med:<14.6g} spread {spread:7.2%} {note}")
    sys.exit(0 if worst else 1)


if __name__ == "__main__":
    main()
