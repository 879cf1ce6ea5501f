#!/usr/bin/env python3
"""Runs the whole ledger: every workload of BENCHMARK.json, untraced for the
end-to-end metrics and traced for the per-layer ones, and writes
perf_ledger/out/results.json.

    python3 perf_ledger/run_all.py [--seed N] [--seeds K] [--no-trace]
                                   [--workload NAME ...] [--out PATH]

`--seeds K` repeats the untraced run on seeds N, N+1, ... N+K-1 and reports,
per metric, the median and the spread (interquartile range over median) the
acceptance rule of the benchmark uses. Exits non-zero when any run fails its
correctness checks. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    """One benchmark process; returns its parsed result line."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CORA_")}
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: incorrect output")
    return result


def spread(values):
    """Interquartile range as a share of the median; None below 2 values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs):
    """{metric: {unit, values, median, spread}} over the runs of one workload."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
            "median": statistics.median(values),
            "spread": spread(values),
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seeds", type=int, default=1, help="untraced runs per workload")
    ap.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    ap.add_argument("--out", default="perf_ledger/out/results.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    results = {"seed": args.seed, "seeds": args.seeds, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        if args.workload and name not in args.workload:
            continue
        runs = [run_once(bench, name, args.seed + i, 0) for i in range(args.seeds)]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summarize(runs),
        }
        print(f"== {name}: {entry['attempted']} operations checked, {entry['failed']} failed")
        for metric, s in entry["end_to_end"].items():
            tail = "" if s["spread"] is None else f"  spread {s['spread']:.3f} over {len(s['values'])} seeds"
            print(f"{metric:<24} {s['median']:>16.4f} {s['unit']}{tail}")
        if not args.no_trace:
            traced = run_once(bench, name, args.seed, 1)
            entry["per_layer"] = summarize([traced])
            for metric, s in entry["per_layer"].items():
                print(f"{metric:<52} {s['median']:>18.4f} {s['unit']}")
        results["workloads"][name] = entry

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
