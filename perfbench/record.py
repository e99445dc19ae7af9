"""Record repeated benchmark runs and report their spread.

    python3 perfbench/record.py --out DIR [--seeds 1-10] [--workloads a,b]
                                [--checkout LABEL=PATH ...] [--trace 0|1]

Runs the command from BENCHMARK.json once per seed and workload in each
checkout (default: this one, labelled `here`), alternating which checkout
goes first from one seed to the next, and stores each run's result object
as DIR/<label>/<workload>/seed-<n>.json for `run.py --compare`. Then
prints, per checkout, workload and metric, the median and the quartile
spread (q3 - q1) / median, flagging spreads above a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load, quartiles

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--checkout", action="append", default=[], metavar="LABEL=PATH")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkouts = [tuple(c.split("=", 1)) for c in args.checkout] or [("here", str(ROOT))]

    for k, seed in enumerate(args.seeds):
        order = checkouts if k % 2 == 0 else checkouts[::-1]
        for workload in args.workloads.split(","):
            for label, path in order:
                cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True, timeout=900)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    sys.exit(f"{label} {workload} seed {seed}: exit {proc.returncode}")
                dest = args.out / label / workload / f"seed-{seed}.json"
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_text(proc.stdout.strip().splitlines()[-1] + "\n")
                print(f"{label} {workload} seed {seed}: {dest}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    for label, _ in checkouts:
        for workload, runs in sorted(load(args.out / label).items()):
            results = list(runs.values())
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print(f"{label} {workload}: {len(results)} runs, failed {failed}/{attempted}, "
                  f"correct {all(r['correct'] for r in results)}")
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                bound = bounds.get(name)
                flag = "  above bound/3" if bound and spread > bound / 3 else ""
                print(f"  {name:<44} median {med:<12.5g} spread {spread:.3f}"
                      f"{'' if bound is None else f' (bound {bound})'}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
