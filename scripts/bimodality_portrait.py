#!/usr/bin/env python3
"""Text histogram of the SW majority fraction from both metastable starts.

Runs the two chains of the bimodality_scan experiment through
mcd.experiments.bimodality_chains (the same named streams, so the portrait
shows exactly the draws the experiment summarizes) and prints one
histogram per start over [1/q, 1], with the valley interval marked. At
the q = 3 critical coupling the balanced chain should pile up near 1/q
and the ordered chain near the drift fixed point a; how cleanly they
separate depends strongly on n.

Example:
    python scripts/bimodality_portrait.py --n 30000 --burn 200 --samples 1000
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from mcd.analytic import critical_points
from mcd.experiments import bimodality_chains
from mcd.model import integer_q

BAR_WIDTH = 56


def histogram(values: np.ndarray, lo: float, hi: float, width: float):
    edges = np.arange(lo, hi + width, width)
    counts, _ = np.histogram(values, bins=edges)
    return edges, counts


def print_portrait(name: str, vals: np.ndarray, q: int, valley) -> None:
    edges, counts = histogram(vals, 1.0 / q - 0.02, 1.0, 0.02)
    peak = max(int(counts.max()), 1)
    print(f"-- {name} start: mean {vals.mean():.4f}, "
          f"valley mass {np.mean((vals > valley[0]) & (vals < valley[1])):.4f}")
    for k, c in enumerate(counts):
        a, b = edges[k], edges[k + 1]
        if c == 0 and not (valley[0] < b and a < valley[1]):
            continue
        bar = "#" * max(int(round(BAR_WIDTH * c / peak)), 1 if c else 0)
        mark = " <- valley" if valley[0] < b and a < valley[1] else ""
        print(f"  [{a:6.3f},{b:6.3f}) {c:6d} {bar}{mark}")
    print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=10000)
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--lam", type=float, default=None,
                    help="coupling; defaults to lambda_c(q)")
    ap.add_argument("--burn", type=int, default=200)
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    try:
        integer_q(args.q, 3, "bimodality portrait")
        lam = args.lam if args.lam is not None \
            else critical_points(args.q).lambda_c
        a_ord, valley, series = bimodality_chains(
            args.n, lam, args.q, args.burn, args.samples, args.seed)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    print(f"# n={args.n} q={args.q} lambda={lam:.6f} a={a_ord:.6f} "
          f"valley=({valley[0]:.4f}, {valley[1]:.4f}) seed={args.seed}")
    for name, vals in series.items():
        print_portrait(name, vals, args.q, valley)
    return 0


if __name__ == "__main__":
    sys.exit(main())
