#!/usr/bin/env python3
"""Run every verification suite and write one JSON report per suite.

Usage:  python scripts/run_all_suites.py [--seed N] [--out DIR] [--nmax 2..6]

Exit code 0 when every suite passes, 1 otherwise.
"""

import argparse
import pathlib
import sys

from loopbrackets import verify
from loopbrackets.cli import atomic_write


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="reports")
    ns = verify.POISSON_NS
    ap.add_argument("--nmax", type=int, default=ns[-1], choices=ns,
                    metavar=f"{{{ns[0]}..{ns[-1]}}}",
                    help="largest field count for the Poisson suites")
    args = ap.parse_args()

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    runs = [("identities", lambda: verify.run_identity_suite(seed=args.seed)),
            ("oracle", lambda: verify.run_oracle_suite(seed=args.seed)),
            ("prop2", lambda: verify.run_prop2_suite(seed=args.seed)),
            ("cp2", lambda: verify.run_cp2_suite()),
            ("nogo", lambda: verify.run_nogo_suite(seed=args.seed))]
    runs += [(f"thm2_n{n}", lambda n=n: verify.run_thm2_suite(
        n=n, seed=args.seed)) for n in (2, 3)]
    runs += [(f"poisson_n{n}", lambda n=n: verify.run_poisson_suite(
        n=n, seed=args.seed)) for n in range(ns[0], args.nmax + 1)]

    verdicts = {}
    for name, fn in runs:
        rep = fn()
        path = outdir / f"{name}.json"
        atomic_write(str(path), rep.to_json(include_duration=True))
        status = "pass" if rep.passed else "FAIL"
        print(f"{name:14s} {status}  ({rep.duration_seconds:6.1f}s)  -> {path}")
        verdicts[name] = rep.passed

    atomic_write(str(outdir / "summary.json"),
                 verify.json_text({"seed": args.seed, "suites": verdicts}))
    return 0 if all(verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
