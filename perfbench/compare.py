#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per (workload, metric).

    python3 perfbench/compare.py PARENT_RUNS... --vs CHANGE_RUNS... [--trace 0|1]

Each side is a directory of run records (perfbench/run.py keeps one per
run under .bench_build/runs) or a list of record files. For every
(workload, metric) pair the tool prints each side's median and
quartiles, the pairwise win fraction of the change, and a verdict:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own spread (the distance between its quartiles);
  worse       the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  either side's spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run;
  no worse    otherwise.

Runs pair by seed when both sides ran the same seeds, else in the order
they finished. Per-layer metrics (--trace 1) have no bound; they get
improved / changed / no change by the same pair and spread rules. The
end-to-end timings are already at the reference host speed (see
HostSpeed in perfbench/cpp/harness.hpp); each side's host slowness is
printed first, so a comparison made on a drifting host shows it. Exit code 1 when any metric is worse.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(paths, trace):
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = []
    for f in files:
        try:
            r = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(r, dict) or "workload" not in r or r.get("smoke"):
            continue
        if bool(r.get("trace")) == bool(trace):
            runs.append(r)
    return sorted(runs, key=lambda r: r.get("finished", 0.0))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, change):
    """(base value, change value) pairs: by seed when the seeds match."""
    bs = {r["seed"]: r for r in base}
    cs = {r["seed"]: r for r in change}
    if len(bs) == len(base) and len(cs) == len(change) and set(bs) & set(cs):
        common = sorted(set(bs) & set(cs))
        return [(bs[s], cs[s]) for s in common]
    return list(zip(base, change))


def metric_values(runs, name):
    out = []
    for r in runs:
        for m in r["metrics"]:
            if m["name"] == name:
                out.append(m["value"])
    return out


def verdict(base_v, change_v, paired, better, bound):
    sign = 1.0 if better == "lower" else -1.0  # positive = change is worse
    b1, bm, b3 = quartiles(base_v)
    c1, cm, c3 = quartiles(change_v)
    spread_b = (b3 - b1) / abs(bm) if bm else 0.0
    spread_c = (c3 - c1) / abs(cm) if cm else 0.0
    wins = sum(1 for b, c in paired if sign * (c - b) < 0)
    win_frac = wins / len(paired) if paired else 0.0
    worse_by = sign * (cm - bm) / abs(bm) if bm else 0.0
    all_better = all(sign * (c - b) < 0 for b in base_v for c in change_v)
    if win_frac >= 0.9 and abs(cm - bm) > (b3 - b1) and worse_by < 0:
        v = "improved"
    elif bound is None:
        v = "changed" if win_frac <= 0.1 and abs(cm - bm) > (b3 - b1) else "no change"
    elif max(spread_b, spread_c) > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "no worse"
    return (b1, bm, b3), (c1, cm, c3), win_frac, worse_by, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="+", help="parent run records (dirs or files), then --vs")
    ap.add_argument("--vs", nargs="+", required=True, help="change run records")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()

    bench = json.loads(Path(args.bench).read_text())
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    base = load_runs(args.parent, args.trace)
    change = load_runs(args.vs, args.trace)
    if not base or not change:
        print("compare: no runs on one side", file=sys.stderr)
        return 2

    by_w = defaultdict(lambda: ([], []))
    for r in base:
        by_w[r["workload"]][0].append(r)
    for r in change:
        by_w[r["workload"]][1].append(r)

    for side, runs in (("parent", base), ("change", change)):
        slow = [float(r["provenance"]["host_slowness"]) for r in runs
                if "host_slowness" in r.get("provenance", {})]
        shas = sorted({r.get("provenance", {}).get("git_sha", "?") for r in runs})
        if slow:
            print(f"{side}: {len(runs)} runs, git {','.join(shas)}, host slowness median "
                  f"{statistics.median(slow):.3f} (range {min(slow):.3f}-{max(slow):.3f})")

    any_worse = False
    header = (f"{'workload':8} {'metric':30} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'wins':>5} {'worse by':>9}  verdict")
    print(header)
    for w in sorted(by_w):
        b_runs, c_runs = by_w[w]
        if not b_runs or not c_runs:
            print(f"{w:8} runs on one side only")
            continue
        paired_runs = pairs(b_runs, c_runs)
        for spec in specs:
            name = spec["name"]
            bv, cv = metric_values(b_runs, name), metric_values(c_runs, name)
            if not bv or not cv:
                continue
            paired = [(metric_values([b], name)[0], metric_values([c], name)[0])
                      for b, c in paired_runs
                      if metric_values([b], name) and metric_values([c], name)]
            bq, cq, win, worse_by, v = verdict(bv, cv, paired, spec["better"],
                                               spec.get("bound"))
            any_worse |= v == "worse"
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{w:8} {name:30} {fmt(bq):>32} {fmt(cq):>32} "
                  f"{win:5.2f} {worse_by:+9.3f}  {v} (n={len(bv)}/{len(cv)}, "
                  f"pairs={len(paired)})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
