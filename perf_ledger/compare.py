#!/usr/bin/env python3
"""Compares two result files of run_all.py, or validates the benchmark's
declaration.

    python3 perf_ledger/compare.py A.json B.json     # A = parent, B = change
    python3 perf_ledger/compare.py --validate

Comparison: one verdict per end-to-end metric and workload, from the bounds
BENCHMARK.json fixes. With A's runs as the parent and B's as the change:

  improved    B wins at least 9 of 10 seed-matched pairs and the medians
              differ by more than A's own interquartile range
  regressed   B's median is worse than A's by more than the bound
  unresolved  neither, and A's run-to-run spread is wider than the bound
  unchanged   neither, and the spread is within the bound

A metric whose every B run beats every A run is improved whatever the spread.
Exits 1 when anything regressed.

Validation: BENCHMARK.json has exactly the contract's keys, names, units and
limits, and perf_ledger/interactions.json says for every per-layer metric
which end-to-end metric it should move, on which workload.
"""

import json
import re
import statistics
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def validate(bench_path="BENCHMARK.json", moves_path="perf_ledger/interactions.json"):
    """Returns the list of problems found (empty when the files are sound)."""
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    with open(bench_path, "rb") as f:
        raw = f.read()
    need(len(raw) <= 64 * 1024, "BENCHMARK.json is larger than 64 KiB")
    bench = json.loads(raw)
    keys = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    need(sorted(bench) == sorted(keys), f"top-level keys must be exactly {keys}")
    if problems:
        return problems

    cmd = bench["command"]
    need(1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd),
         "command: 1 to 32 strings of at most 200 characters")
    need(not any(c.startswith("/") or ".." in c.split("/") for c in cmd),
         "command: no absolute path and no `..`")
    need(1 <= len(bench["paths"]) <= 16 and all(PATH.match(p) for p in bench["paths"]),
         "paths: 1 to 16 relative paths of letters, digits, `_`, `.`, `-`, `/`")
    rs = bench["run_seconds"]
    need(isinstance(rs, int) and 1 <= rs <= 60, "run_seconds: a whole number from 1 to 60")

    names = []
    need(2 <= len(bench["workloads"]) <= 8, "workloads: 2 to 8")
    for w in bench["workloads"]:
        need(sorted(w) == ["name", "why"], f"workload {w.get('name')}: exactly `name` and `why`")
        why = w.get("why", "")
        need(0 < len(why) <= 200 and "\n" not in why, f"workload {w.get('name')}: `why` is one line of at most 200 characters")
        names.append(w.get("name", ""))
    need(1 <= len(bench["end_to_end"]) <= 16, "end_to_end: 1 to 16 metrics")
    for m in bench["end_to_end"]:
        need(sorted(m) == ["better", "bound", "name", "unit"], f"end_to_end {m.get('name')}: exactly name, unit, better, bound")
        b = m.get("bound")
        need(isinstance(b, (int, float)) and 0 < b <= 0.25, f"end_to_end {m.get('name')}: bound in (0, 0.25]")
    need(1 <= len(bench["per_layer"]) <= 128, "per_layer: 1 to 128 metrics")
    for m in bench["per_layer"]:
        need(sorted(m) == ["better", "name", "unit"], f"per_layer {m.get('name')}: exactly name, unit, better")
    for m in bench["end_to_end"] + bench["per_layer"]:
        need(UNIT.match(m.get("unit", "")), f"metric {m.get('name')}: bad unit `{m.get('unit')}`")
        need(m.get("better") in ("lower", "higher"), f"metric {m.get('name')}: better is `lower` or `higher`")
        names.append(m.get("name", ""))
    for n in names:
        need(NAME.match(n), f"bad name `{n}`")
    need(len(set(names)) == len(names), "every name is used once")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
         "end_to_end needs `setup_s` with unit `s`, better `lower`")

    with open(moves_path) as f:
        moves = json.load(f)["moves"]
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for entry in moves:
        need(entry.get("moves"), f"interactions `{entry.get('prefix')}`: names no end-to-end metric")
        for metric, workload in entry.get("moves", []):
            need(metric in e2e, f"interactions `{entry['prefix']}`: `{metric}` is not an end-to-end metric")
            need(workload in workloads, f"interactions `{entry['prefix']}`: `{workload}` is not a workload")
    for m in bench["per_layer"]:
        need(any(m["name"].startswith(e["prefix"]) for e in moves),
             f"per-layer metric `{m['name']}` names no end-to-end metric and workload it should move")
    return problems


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    """Verdict for one metric on one workload; `a`, `b` are the runs' values."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    gain = sign * (med_b - med_a) / abs(med_a)
    iqr = q3 - q1
    every_b_better = min(sign * v for v in b) > max(sign * v for v in a)
    pairs = list(zip(a, b))
    wins = sum(sign * y > sign * x for x, y in pairs)
    decided = sum(x != y for x, y in pairs)
    if every_b_better and len(a) > 1:
        return "improved", gain
    if gain < -bound:
        return "regressed", gain
    if decided and wins >= 0.9 * decided and len(pairs) >= 10 and abs(med_b - med_a) > iqr:
        return "improved", gain
    if len(a) > 1 and iqr / abs(med_a) > bound:
        return "unresolved", gain
    return "unchanged", gain


def compare(path_a, path_b):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(path_a) as f:
        a = json.load(f)["workloads"]
    with open(path_b) as f:
        b = json.load(f)["workloads"]
    regressed = False
    print(f"{'workload':<18} {'metric':<18} {'A median':>14} {'B median':>14} {'change':>8} {'bound':>6}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            print(f"{name:<18} missing from one side")
            regressed = True
            continue
        if b[name]["failed"] > a[name]["failed"]:
            print(f"{name:<18} more failed operations in B: {b[name]['failed']} > {a[name]['failed']}")
            regressed = True
        for m in bench["end_to_end"]:
            va = a[name]["end_to_end"][m["name"]]["values"]
            vb = b[name]["end_to_end"][m["name"]]["values"]
            v, gain = verdict(va, vb, m["better"], m["bound"])
            regressed |= v == "regressed"
            print(f"{name:<18} {m['name']:<18} {statistics.median(va):>14.4f} "
                  f"{statistics.median(vb):>14.4f} {gain:>+8.1%} {m['bound']:>6.2f}  {v}")
    return 1 if regressed else 0


def main():
    if sys.argv[1:] == ["--validate"]:
        problems = validate()
        for p in problems:
            print(f"INVALID: {p}")
        if not problems:
            print("BENCHMARK.json and interactions.json are valid")
        sys.exit(1 if problems else 0)
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))


if __name__ == "__main__":
    main()
