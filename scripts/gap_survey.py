#!/usr/bin/env python3
"""Survey the exact spectral gaps of the three chains on small systems.

For each lambda on the grid this builds the full transition matrix of the
Swendsen-Wang, Chayes-Machta, and edge-flip heat-bath chains, computes the
spectral gap, the minimum bottleneck ratio phi = Q(S, S^c)/(pi(S) pi(S^c)),
and the exact mixing time, and prints one table per kind. Everything here
is observational: phi^2/2 is printed beside the gap so one can see how
tight the bottleneck bound runs, not asserted. gap <= phi holds for every
cut, but for this normalisation Cheeger's inequality gives only
phi^2/8 <= gap; phi^2/2 <= gap is stronger than the theorem and has held
on every kernel scanned, without being guaranteed.

State spaces grow like q^n and 2^(n(n-1)/2), so n stays small; n = 4 with
q = 2 (the default) already separates the kinds visibly near lambda = q.

Example:
    python scripts/gap_survey.py --n 4 --q 2 --lambdas 0.5:3.5:0.5
"""

from __future__ import annotations

import argparse
import sys

from mcd.cli import _parse_grid
from mcd.model import integer_q
from mcd.oracle import build_kernel, min_conductance, mixing_time_exact, spectral_gap

KINDS = ("sw", "cm", "glauber")


def survey_row(kind: str, n: int, q: float, lam: float) -> tuple:
    kernel = build_kernel(kind, n, q, lam)
    gap = spectral_gap(kernel)
    phi, tag = min_conductance(kernel)
    tmix = mixing_time_exact(kernel)
    return gap, phi, tag, tmix


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--q", type=float, default=2.0)
    ap.add_argument("--lambdas", default="0.5:3.5:0.5",
                    help="grid a:b:h, comma list, or single value")
    ap.add_argument("--kinds", default=",".join(KINDS))
    args = ap.parse_args(argv)

    lams = _parse_grid(args.lambdas)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    for kind in kinds:
        if kind not in KINDS:
            ap.error(f"unknown kind {kind!r}")

    for kind in kinds:
        if kind == "sw":
            try:
                integer_q(args.q, 2, "sw")
            except ValueError:
                print(f"# {kind}: skipped (needs integer q, got {args.q})")
                continue
        print(f"# {kind}  n={args.n}  q={args.q}")
        print(f"{'lambda':>8} {'gap':>12} {'phi_min':>12} {'cut':>7} "
              f"{'phi^2/2':>12} {'t_mix':>6}")
        for lam in lams:
            gap, phi, tag, tmix = survey_row(kind, args.n, args.q, lam)
            print(f"{lam:8.3f} {gap:12.6f} {phi:12.6f} {tag:>7} "
                  f"{0.5 * phi * phi:12.6f} {tmix:6d}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
