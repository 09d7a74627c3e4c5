#!/usr/bin/env python3
"""Diff two sets of recorded benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--top N]

Each file holds records appended by `run.py ... --record FILE`, typically
ten seeds per workload on each commit. For every workload, each
end-to-end metric of BENCHMARK.json is listed with both sides' median and
quartiles and a verdict against the metric's bound:

  worse       the new median is worse than the base median by more than
              the bound
  unresolved  it is, but the base's own quartile spread is wider than the
              bound and not every new run beats every base run
  better      the new median is better by more than the base's quartile
              spread
  within      anything else

Traced runs (--trace 1) are then diffed per layer: the per-layer metrics
whose medians moved most, relative to the base, are named. The exit code
is 1 when any verdict is `worse`, 0 otherwise.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_records(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            flat = {}
            for group in ("measured", "modeled", "counts"):
                for name, m in rec.get(group, {}).items():
                    flat[name] = m["value"]
            runs.setdefault((rec["workload"], rec["trace"]), []).append(flat)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, bound, better):
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    spread = (b3 - b1) / abs(bmed) if bmed else 0.0
    if worse_by > bound:
        all_better = all(sign * (n - b) < 0 for n in new for b in base)
        if spread > bound and not all_better:
            return "unresolved", worse_by
        return "worse", worse_by
    if -worse_by > spread:
        return "better", worse_by
    return "within", worse_by


def fmt(x):
    return f"{x:.6g}"


def main(argv):
    top = 10
    if "--top" in argv:
        i = argv.index("--top")
        top = int(argv[i + 1])
        argv = argv[:i] + argv[i + 2:]
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load_records(argv[0]), load_records(argv[1])
    any_worse = False
    for wl in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get((wl, 0), []), new.get((wl, 0), [])
        print(f"== {wl}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r[name] for r in b_runs if name in r]
            nv = [r[name] for r in n_runs if name in r]
            if not bv or not nv:
                print(f"  {name:<20} missing on one side")
                continue
            v, worse_by = verdict(bv, nv, m["bound"], m["better"])
            any_worse |= v == "worse"
            bq, nq = quartiles(bv), quartiles(nv)
            print(
                f"  {name:<20} base {fmt(bq[1])} [{fmt(bq[0])}, {fmt(bq[2])}]  "
                f"new {fmt(nq[1])} [{fmt(nq[0])}, {fmt(nq[2])}] {m['unit']}  "
                f"worse by {worse_by:+.1%} (bound {m['bound']:.0%}): {v}"
            )
        b_tr, n_tr = base.get((wl, 1), []), new.get((wl, 1), [])
        moved = []
        for name in sorted(set().union(*b_tr, *n_tr) if b_tr and n_tr else []):
            bv = [r[name] for r in b_tr if name in r]
            nv = [r[name] for r in n_tr if name in r]
            if not bv or not nv:
                continue
            bmed, nmed = statistics.median(bv), statistics.median(nv)
            rel = (nmed - bmed) / abs(bmed) if bmed else (0.0 if nmed == bmed else float("inf"))
            moved.append((abs(rel), rel, name, bmed, nmed))
        if moved:
            print(f"  per-layer metrics that moved most ({len(b_tr)} vs {len(n_tr)} traced runs):")
            for _, rel, name, bmed, nmed in sorted(moved, reverse=True)[:top]:
                print(f"    {name:<40} {fmt(bmed)} -> {fmt(nmed)} ({rel:+.1%})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
