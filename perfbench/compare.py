"""Compare two sets of benchmark runs, such as a parent commit and a change.

Each set is a directory laid out as record.py writes it:
<set>/<workload>/seed-<n>.json, each file the result object one run
printed. Runs are paired by workload and seed. For every workload and
metric the table gives each side's median and quartiles, the share of
pairs the change won (ties count for neither side), and a verdict:

  improved    the change won at least 9 of 10 pairs and the medians differ
              by more than the base's own quartile spread;
  regressed   the change's median is worse than the base's by more than the
              metric's bound (for per-layer metrics, which have no bound:
              the base won 9 of 10 pairs by more than the quartile spread);
  unresolved  the base's spread is wider than the bound, and not every
              change run beats every base run;
  unchanged   otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(set_dir: Path):
    """{workload: {seed: result}}"""
    runs = {}
    for path in sorted(set_dir.glob("*/seed-*.json")):
        seed = int(path.stem.split("-", 1)[1])
        runs.setdefault(path.parent.name, {})[seed] = json.loads(path.read_text())
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, pairs, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    q1, mb, q3 = quartiles(base)
    mc = statistics.median(change)
    spread = q3 - q1
    wins = sum(sign * (c - b) < 0 for b, c in pairs)
    losses = sum(sign * (c - b) > 0 for b, c in pairs)
    worse = sign * (mc - mb) / abs(mb) if mb else 0.0
    if wins >= 0.9 * len(pairs) and abs(mc - mb) > spread and worse < 0:
        return "improved", wins
    if bound is None:
        if losses >= 0.9 * len(pairs) and abs(mc - mb) > spread and worse > 0:
            return "regressed", wins
        return "unchanged" if mc == mb else "unresolved", wins
    beats_all = all(sign * (c - b) < 0 for c in change for b in base)
    if mb and spread / abs(mb) > bound and not beats_all:
        return "unresolved", wins
    if worse > bound:
        return "regressed", wins
    return "unchanged", wins


def main(base_dir: Path, change_dir: Path, bench_path: Path) -> int:
    bench = json.loads(bench_path.read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = load(base_dir), load(change_dir)
    header = (f"{'workload':<14} {'metric':<44} {'base q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>6} verdict")
    print(header)
    regressed = False
    for workload in sorted(set(base) & set(change)):
        seeds = sorted(set(base[workload]) & set(change[workload]))
        b_runs = [base[workload][s] for s in seeds]
        c_runs = [change[workload][s] for s in seeds]
        counts = (f"attempted/failed base {sum(r['attempted'] for r in b_runs)}/"
                  f"{sum(r['failed'] for r in b_runs)}, change "
                  f"{sum(r['attempted'] for r in c_runs)}/{sum(r['failed'] for r in c_runs)}, "
                  f"correct base {all(r['correct'] for r in b_runs)} "
                  f"change {all(r['correct'] for r in c_runs)}, {len(seeds)} pairs")
        print(f"{workload:<14} {counts}")
        for name, spec in specs.items():
            if not all(name in r["metrics"] for r in b_runs + c_runs):
                continue
            bv = [r["metrics"][name]["value"] for r in b_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            result, wins = verdict(bv, cv, list(zip(bv, cv)), spec["better"], spec.get("bound"))
            regressed |= result == "regressed"
            fmt = lambda qs: "/".join(f"{q:.4g}" for q in qs)
            print(f"{workload:<14} {name:<44} {fmt(quartiles(bv)):>32} {fmt(quartiles(cv)):>32} "
                  f"{wins}/{len(seeds):<4} {result}")
    return 1 if regressed else 0
