#!/usr/bin/env python3
"""Export the structure-constant tables for a range of field counts,
from both derivation routes, and confirm they agree entry for entry.
Prints the seconds spent per n in each stage: extract, appendix, match
and document (both documents).

Usage:  python scripts/export_tables.py [--nmin 2..6] [--nmax 2..6] [--out DIR]

The range must not be empty: --nmin <= --nmax.
"""

import argparse
import json
import pathlib
import sys
import time

from loopbrackets import models
from loopbrackets.cli import atomic_write


def _timed(seconds: dict, stage: str, fn, *args):
    """fn(*args), adding its wall-clock seconds to seconds[stage]."""
    t0 = time.perf_counter()
    out = fn(*args)
    seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - t0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    for flag, default in (("--nmin", 2), ("--nmax", 6)):
        ap.add_argument(flag, type=int, default=default, choices=range(2, 7),
                        metavar="{2..6}")
    ap.add_argument("--out", default="tables")
    args = ap.parse_args()
    if args.nmin > args.nmax:
        ap.error(f"--nmin {args.nmin} exceeds --nmax {args.nmax}")

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    ok = True
    for n in range(args.nmin, args.nmax + 1):
        seconds = {}
        a = _timed(seconds, "extract", models.thm3_extract, n)
        b = _timed(seconds, "appendix", models.appendix_table, n)
        mismatches = _timed(seconds, "match", models.match_structconsts, a, b)
        for sc, tag in ((a, "extract"), (b, "closed_form")):
            doc = _timed(seconds, "document",
                         models.structconsts_to_document, sc)
            path = outdir / f"structconsts_n{n}_{tag}.json"
            atomic_write(str(path),
                         json.dumps(doc, indent=2, sort_keys=True) + "\n")
        status = "exact match" if not mismatches else \
            f"{len(mismatches)} MISMATCHES"
        stages = ", ".join(f"{k} {v:.2f}s" for k, v in seconds.items())
        print(f"n={n}: {status}  ({stages})")
        for m in mismatches[:5]:
            print("   ", m)
        ok &= not mismatches
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
