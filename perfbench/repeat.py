#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

Usage (from the repository root):
    python3 perfbench/repeat.py --workload stream [--workload replay ...] \
        --seeds 0-9 [--seconds 50] [--out summary.json]

Each run is a separate `perfbench/run.py` process, one after another. For
every metric the summary gives the median, the quartiles from
statistics.quantiles(values, n=4), and the spread: the distance between the
quartiles as a share of the median. With BENCHMARK.json present, the spread
is compared with a third of the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarise(results, bounds):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        if name in bounds:
            out[name]["bound"] = bounds[name]
            out[name]["steady"] = spread < bounds[name] / 3
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = {}
    if os.path.exists(spec_path):
        with open(spec_path) as fh:
            spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    summary = {}
    for workload in args.workload:
        results = [run_once(workload, s, seconds) for s in parse_seeds(args.seeds)]
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summarise(results, bounds),
        }
        print(f"{workload}: correct={summary[workload]['correct']} "
              f"failed {summary[workload]['failed']}/{summary[workload]['attempted']}")
        for name, m in summary[workload]["metrics"].items():
            flag = "" if "steady" not in m else ("  ok" if m["steady"] else "  WIDE")
            print(f"  {name:<50} median {m['median']:14.6f}  spread {m['spread']:7.2%}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": seconds, "seeds": args.seeds, "workloads": summary}, fh, indent=1)
    return 0 if all(w["correct"] for w in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
