#!/usr/bin/env python3
"""Exit-probability decay curves for the balanced profile under one SW step.

Runs one_step_exit over an n grid at several lambda values and prints, per
lambda, the exit probability for each n together with the least-squares
slope of log(estimate) against n. Negative slopes of roughly constant size
are the finite-n signature of exponential stability. Above lambda_c the
exit probability tends to the all-giants-one-color collision probability
(1/9 at q = 3, rho = 0.08) only for n >> 10^5, far beyond this grid: at
lambda = 3.2 the exact values are 0.6785/0.5663/0.4404/0.3133 at
n = 200/400/800/1600 (mcd.countlevel.exit_probability).

Each (lambda, n, replica) triple draws from its own named stream, so the
numbers are reproducible for a fixed --seed regardless of --threads.

Example:
    python scripts/slowdown_curves.py --lambdas 2.3,2.6,2.9,3.2 \
        --n-grid 100:800:100 --replicas 400 --threads 4 --out-dir curves
"""

from __future__ import annotations

import argparse
import os
import sys

from mcd import __version__
from mcd.cli import _parse_grid
from mcd.experiments import one_step_exit
from mcd.report import write_report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--rho", type=float, default=0.08)
    ap.add_argument("--lambdas", default="2.3,2.6,2.9,3.2")
    ap.add_argument("--n-grid", default="100:800:100")
    ap.add_argument("--replicas", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out-dir", default=None,
                    help="also write one CSV (+ sidecar) per lambda here")
    args = ap.parse_args(argv)

    lams = _parse_grid(args.lambdas)
    n_grid = _parse_grid(args.n_grid, kind="int")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    print(f"# balanced-start one-step exit  q={args.q}  rho={args.rho}  "
          f"replicas={args.replicas}  seed={args.seed}")
    header = f"{'lambda':>8} " + " ".join(f"{'n=' + str(n):>10}" for n in n_grid)
    print(header + f" {'log-slope':>12}")
    for lam in lams:
        report = one_step_exit(n_grid, lam, args.q, args.rho, "balanced",
                               args.replicas, args.seed, threads=args.threads)
        row = " ".join(f"{c.estimate:10.4f}" for c in report.cells)
        slope = report.summary["log_slope"]  # None for a single n
        if slope is None:
            slope = float("nan")
        print(f"{lam:8.4f} {row} {slope:12.6f}")
        if args.out_dir:
            path = os.path.join(args.out_dir, f"exit_lam{lam:g}.csv")
            echo = {"lambda": lam, "q": args.q, "rho": args.rho,
                    "n": n_grid, "replicas": args.replicas,
                    "seed": args.seed, "start": "balanced"}
            write_report(report, path, config_echo=echo, version=__version__)
            print(f"  -> {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
