#!/usr/bin/env python3
"""Scan the weak-coupling regime: existence of the gap-0 state against
the sign of the total perturbation, and the eps^2 approach to the band
edge, for a grid of flux values.  Exits 1, naming the row, wherever a
state exists against sum(gamma) >= 0 or is missing with sum(gamma) < 0.

    python scripts/weak_coupling_scan.py
"""

import argparse
import sys

from ringchain import ChainParams, WeakCouplingProblem, band_edges
from ringchain.asymptotics import weak_exact, weak_gap_distance_scaling

EPS_LIST = [1e-2, 5e-3, 2.5e-3, 1.25e-3]


def run(alpha: float) -> list[str]:
    """Print the scan; return the rows where the existence law fails."""
    broken = []
    print(f"alpha = {alpha}")
    print("cosA   sum(gamma)  state?   slope     r2")
    for cos_flux in (0.3, 0.5, 0.7, 0.9):
        p = ChainParams.from_cos_flux(cos_flux, alpha)
        gap0 = band_edges(p, 10.0).gaps[0]
        for gammas in ((-1.0,), (0.4, -0.9), (0.7, 0.5)):
            total = sum(gammas)
            states = weak_exact(gap0, WeakCouplingProblem(gammas, 1e-3), p)
            found = bool(states)
            line = f"{cos_flux:4.1f}   {total:+9.3f}  {found!s:5}"
            if found != (total < 0):
                broken.append(f"cosA {cos_flux} gamma {list(gammas)}: state? {found} with sum(gamma) {total:+.3f}")
            if total < 0:
                fit = weak_gap_distance_scaling(
                    gap0, WeakCouplingProblem(gammas, 1e-2), p, EPS_LIST
                )
                line += f"   {fit.slope:7.4f}  {fit.r2:.6f}"
            print(line)
    return broken


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.0)
    args = ap.parse_args()
    broken = run(args.alpha)
    for row in broken:
        print(f"existence law broken at {row}", file=sys.stderr)
    sys.exit(1 if broken else 0)
