#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent and a change.

  python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS
  python3 perfbench/compare.py --run PARENT_CHECKOUT CHANGE_CHECKOUT [--seeds 10]
                               [--workloads warm_hits cold_mix] [--out DIR]

The first form reads the result records perfbench/run.py saved (the
.bench_build/results/ directory of each checkout, or copies of them). The
second form makes the runs first: for every workload and seed it runs both
checkouts, alternating which goes first, and collects their records under
--out/{parent,change}.

One row per workload and end-to-end metric: both sides' medians and
quartiles, the share of pairs (same workload and seed) the change won, and a
verdict by the choosing-metrics rule, with the bounds in BENCHMARK.json:

  improved    the change won at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own spread is wider than the bound and not every
              change run reads better (or worse) than every parent run;
  unchanged   otherwise.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, pairs, better, bound):
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    sign = 1 if better == "lower" else -1
    worse_rel = sign * (c_med - p_med) / p_med if p_med else 0.0
    decided = [(p, c) for p, c in pairs if p != c]
    won = sum(1 for p, c in decided if sign * (c - p) < 0)
    share = won / len(pairs) if pairs else 0.0
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    if share >= 0.9 and abs(c_med - p_med) > (p_q3 - p_q1) and worse_rel < 0:
        return share, "improved"
    if spread > bound and not (all_better or all_worse):
        return share, "unresolved"
    if worse_rel > bound:
        return share, "regressed"
    return share, "unchanged"


def compare(parent_dir, change_dir, spec):
    parent, change = load(parent_dir), load(change_dir)
    rows = [("workload", "metric", "parent q1/med/q3", "change q1/med/q3", "won", "verdict")]
    worst = "unchanged"
    for workload in sorted(set(parent) & set(change)):
        by_seed_p = {r["seed"]: r for r in parent[workload]}
        by_seed_c = {r["seed"]: r for r in change[workload]}
        seeds = sorted(set(by_seed_p) & set(by_seed_c))
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in parent[workload]]
            cv = [r["result"]["metrics"][name]["value"] for r in change[workload]]
            pairs = [(by_seed_p[s]["result"]["metrics"][name]["value"],
                      by_seed_c[s]["result"]["metrics"][name]["value"]) for s in seeds]
            share, v = verdict(pv, cv, pairs, m["better"], m["bound"])
            if v == "regressed" or (v == "unresolved" and worst != "regressed"):
                worst = v
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            rows.append((workload, f"{name} [{m['unit']}]", fmt(quartiles(pv)),
                         fmt(quartiles(cv)), f"{share:.2f} of {len(pairs)}", v))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 1 if worst == "regressed" else 0


def run_pairs(parent_co, change_co, seeds, workloads, seconds, out):
    sides = {"parent": parent_co, "change": change_co}
    for side in sides:
        os.makedirs(os.path.join(out, side), exist_ok=True)
    for workload in workloads:
        for i in range(seeds):
            seed = 1000 + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                co = sides[side]
                results = os.path.join(co, ".bench_build", "results")
                before = set(glob.glob(os.path.join(results, "*.json")))
                rc = subprocess.call([sys.executable, "perfbench/run.py", "--workload", workload,
                                      "--seed", str(seed), "--seconds", str(seconds),
                                      "--trace", "0"], cwd=co, stdout=subprocess.DEVNULL)
                if rc != 0:
                    sys.exit(f"compare: {side} run of {workload} seed {seed} failed (exit {rc})")
                for path in set(glob.glob(os.path.join(results, "*.json"))) - before:
                    shutil.copy(path, os.path.join(out, side))
                print(f"{workload} seed {seed}: {side} done", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="parent results directory (or checkout with --run)")
    ap.add_argument("change", help="change results directory (or checkout with --run)")
    ap.add_argument("--run", action="store_true", help="make the runs first, alternating")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", default="perfbench-compare")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(os.path.abspath(
        __file__)), "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    if args.run:
        workloads = args.workloads or [w["name"] for w in spec["workloads"]]
        run_pairs(args.parent, args.change, args.seeds, workloads, spec["run_seconds"], args.out)
        return compare(os.path.join(args.out, "parent"), os.path.join(args.out, "change"), spec)
    return compare(args.parent, args.change, spec)


if __name__ == "__main__":
    sys.exit(main())
