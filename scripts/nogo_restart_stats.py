#!/usr/bin/env python3
"""Restart statistics for the obstruction certificate: distribution of
the minimized squared residual of the lifting system over many seeded
least-squares restarts, the solver's residual and Jacobian evaluations
summed over them, and the feasible self-test control.

This is the calibration experiment behind the acceptance threshold: the
smallest residual ever reached stays orders of magnitude above the
self-test optimum, which is the numerical no-go evidence.

Usage:  python scripts/nogo_restart_stats.py [--s 2.0] [--restarts 200]
        [--seed 0] [--csv FILE]
"""

import argparse
import sys

import numpy as np

from loopbrackets import models
from loopbrackets.cli import atomic_write, parse_complex


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=parse_complex, default=2.0,
                    help="pole-order parameter of the lifting system")
    ap.add_argument("--restarts", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", default=None,
                    help="write the per-restart residuals as CSV")
    args = ap.parse_args()
    if args.restarts < 1:
        ap.error(f"--restarts must be >= 1, not {args.restarts}")

    sys_ = models.prop1_system(args.s)
    print(f"s = {args.s}: {len(sys_.c)} equations, "
          f"{len(sys_.unknowns)} unknowns")

    cert = models.prop1_certificate(sys_, restarts=args.restarts,
                                    seed=args.seed)
    values = np.array(cert["values"])
    print(f"solver evaluations over {args.restarts} restarts: "
          f"{sum(cert['nfev'])} residual, {sum(cert['njev'])} Jacobian")

    qs = [0, 1, 5, 25, 50, 75, 100]
    print("squared-residual quantiles over restarts:")
    for q in qs:
        print(f"  {q:3d}%: {np.percentile(values, q):.6g}")

    selftest = models.prop1_feasible_selftest(seed=args.seed)
    print(f"feasible self-test minimum: {selftest['min_residual']:.3g}")
    print(f"separation factor: "
          f"{values.min() / max(selftest['min_residual'], 1e-300):.3g}")

    if args.csv:
        lines = ["restart,squared_residual"]
        lines += [f"{i},{v!r}" for i, v in enumerate(cert["values"])]
        atomic_write(args.csv, "\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
