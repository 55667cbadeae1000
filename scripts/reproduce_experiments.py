#!/usr/bin/env python3
"""Reproduce the two-problem benchmark study end to end.

Runs the inexact boosted solver on ex1 and ex2 from 100 random starts in
[-10, 10]^2 under the reference configuration (rho = 0.6, beta = 0.1, trial
step 1, theta = 0.2, allowance 0.01 ||d^k||^2 / (k+1), step tolerance 1e-5),
then replays every certified inequality on the stored traces and evaluates
the iteration-count bounds.  Also emits single-trajectory runs from the two
documented start points with per-iteration objective and path CSVs, which is
enough to regenerate the usual convergence plots externally.

Usage: python3 scripts/reproduce_experiments.py [--out results] [--starts N]
"""

import argparse
import csv
import json
import pathlib
import sys

from dcboost import problems
from dcboost.cli import main as dcboost_main
from dcboost.core import config_to_flat

SINGLE_STARTS = {"ex1": "6.2945,8.1158", "ex2": "-4.4615,-9.0766"}


def run(args):
    code = dcboost_main(args)
    if code != 0:
        print(f"command failed ({code}): {' '.join(args)}", file=sys.stderr)
        sys.exit(code)


def summarize(out_dir):
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    worst_resid = max(float(r["final_residual"]) for r in rows)
    best_phi = min(float(r["final_phi"]) for r in rows)
    iters = [int(r["iterations"]) for r in rows]
    print(f"  {len(rows)} runs | iterations {min(iters)}-{max(iters)} | "
          f"best phi {best_phi:.9f} | worst final residual {worst_resid:.2e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--starts", type=int, default=100)
    ap.add_argument("--workers", type=int, default=1)
    opts = ap.parse_args()
    root = pathlib.Path(opts.out)
    root.mkdir(parents=True, exist_ok=True)
    config = root / "config.json"
    config.write_text(json.dumps(config_to_flat(problems.experiment_config())))
    ref_flags = ["--solver", "inmbdca", "--config", str(config)]

    for name in ("ex1", "ex2"):
        out = root / name
        print(f"== {name}: {opts.starts} starts ==")
        run(["run", "--problem", name, "--out", str(out),
             "--starts-count", str(opts.starts), "--starts-seed", "42",
             "--starts-box", "-10", "10", "--workers", str(opts.workers),
             *ref_flags])
        summarize(out)

        traces = sorted(str(p) for p in out.glob("trace_*.jsonl"))
        print(f"== {name}: replaying certificates on {len(traces)} traces ==")
        run(["check", *traces])

        single = root / f"{name}_single"
        print(f"== {name}: documented start {SINGLE_STARTS[name]} ==")
        run(["run", "--problem", name, "--out", str(single),
             f"--start={SINGLE_STARTS[name]}", "--plot-data", *ref_flags])
        print(f"== {name}: iteration-count bounds ==")
        run(["complexity", str(single / "trace_000.jsonl")])

    print(f"done; outputs under {root}/")


if __name__ == "__main__":
    main()
