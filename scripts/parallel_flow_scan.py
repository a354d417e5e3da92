#!/usr/bin/env python3
"""Scan the parallel flow of the tube family and print the focal structure.

For each tau, tabulates H(l), the cross-base-point spreads, det Q, and the
bisected focal radius, and compares the latter against arccosh(-tau)/sqrt(2).

Usage:
    python scripts/parallel_flow_scan.py [--tau -2.0 ...] [--step 0.02]
"""

import argparse
import math

import numpy as np

from h2h2 import model_zoo as mz
from h2h2 import parallel_flow as pf
from h2h2 import report as rp
from h2h2 import surface_calculus as sc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--tau", type=float, nargs="*", default=[-1.5, -2.0, -3.0])
    ap.add_argument("--step", type=float, default=0.02)
    ap.add_argument("--samples", type=int, default=6)
    args = ap.parse_args()

    for tau in args.tau:
        surface, _ = mz.make_M_tau(tau)
        pts = rp.sobol_points(surface.domain, args.samples, seed=0)
        radius = mz.mtau_focal_radius(tau)
        grid = np.arange(-0.5, radius + 0.4, args.step)
        rep = pf.isoparametric_scan(sc.point_geometry(surface, pts, order=2), grid)
        print(f"== tau = {tau}  (expected focal radius {radius:.6f})")
        print(f"   mode={rep.mode}  max H spread {rep.max_h_spread:.3e}  "
              f"max lambda spread {rep.max_lambda_spread:.3e}")
        if rep.focal_roots:
            for root in rep.focal_roots:
                print(f"   det Q root at l = {root:.9f}  "
                      f"(deviation {abs(root - radius):.2e})")
        else:
            print("   no focal value inside the grid")
        shown = slice(None, None, max(1, len(rep.l) // 8))
        for l, h_mean, detq, focal in zip(rep.l[shown].tolist(), rep.h_mean[shown].tolist(),
                                          rep.min_abs_detq[shown].tolist(),
                                          rep.focal[shown].tolist()):
            h = "    -    " if math.isnan(h_mean) else f"{h_mean:+.6f}"
            print(f"   l={l:+.3f}  H(l)={h}  min|detQ|={detq:.3e}"
                  + ("  [focal]" if focal else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
