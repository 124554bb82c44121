"""Command-line surface: evaluate special functions, emit structure
constants, run verification suites, descend tables to affine charts.

Exit codes: 0 success / suite pass, 1 verification failure, 2 usage or
domain error.  Complex flags use the form "a+bi" with decimal literals;
the global seed can be overridden by the LOOPB_SEED environment
variable.  JSON artifacts are written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import elliptic
from . import models
from . import symexpr as sx
from . import verify
from .errors import LoopBracketsError


def parse_complex(text: str) -> complex:
    """Parse "a+bi" / "a" / "bi" with decimal literals."""
    s = text.strip().replace(" ", "")
    if not s:
        raise argparse.ArgumentTypeError("empty complex literal")
    try:
        if s.endswith("i"):
            return complex(s[:-1] + "j")
        return complex(float(s), 0.0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad complex literal {text!r}")


def format_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.12g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}i"


def atomic_write(path: str, payload: str):
    """Write via a temp file + rename so readers never see partials."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-loopb-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def effective_seed(args) -> int:
    env = os.environ.get("LOOPB_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _cmd_elliptic(args) -> int:
    if args.fn == "q" and args.v is None:
        print("error: --fn q requires --v", file=sys.stderr)
        return 2
    ctx = elliptic.make_context(args.tau)
    if args.fn in ("g1", "g2", "g3"):
        val = getattr(ctx, args.fn)
    else:
        if args.z is None:
            print("error: --z required for this function", file=sys.stderr)
            return 2
        if args.fn == "q":
            val = elliptic.q_weight(ctx, args.z, args.v)
        else:
            val = getattr(elliptic, args.fn)(ctx, args.z)
    print(format_complex(val))
    return 0


def _report_out(rep: verify.SuiteReport, args) -> int:
    text = rep.to_json()
    if getattr(args, "json", None):
        atomic_write(args.json, text)
        print(f"report written to {args.json}")
    else:
        sys.stdout.write(text)
    print(f"suite={rep.suite} seed={rep.seed} "
          f"pass={rep.passed} ({rep.duration_seconds:.1f}s)",
          file=sys.stderr)
    return 0 if rep.passed else 1


def _tol(args, name: str = "tol") -> dict:
    """The --tol flag as a keyword argument, only when it is given, so the
    suites keep their own defaults.  ValueError unless it is >= 0."""
    if args.tol is not None and not args.tol >= 0:
        raise ValueError(f"--tol must be >= 0, not {args.tol}")
    return {} if args.tol is None else {name: args.tol}


def _trials(args, name: str, default: int | None = None) -> dict:
    """The --trials flag as the suite's own sample-count keyword `name`.
    Without the flag the suite keeps its default, or gets `default`."""
    count = default if args.trials is None else args.trials
    return {} if count is None else {name: count}


# without --trials the CLI runs 100 identity and thm2 trials
_SUITES = {
    "identities": lambda a, seed: verify.run_identity_suite(
        seed=seed, **_trials(a, "trials", 100), **_tol(a)),
    "oracle": lambda a, seed: verify.run_oracle_suite(
        seed=seed, **_trials(a, "points"), **_tol(a)),
    "poisson": lambda a, seed: verify.run_poisson_suite(
        n=a.n, seed=seed, **_trials(a, "jets"), **_tol(a)),
    "prop2": lambda a, seed: verify.run_prop2_suite(seed=seed, **_tol(a)),
    "thm2": lambda a, seed: verify.run_thm2_suite(
        n=a.n, seed=seed, **_trials(a, "trials", 100), **_tol(a)),
    "nogo": lambda a, seed: verify.run_nogo_suite(
        s=a.s, restarts=a.restarts, seed=seed, **_tol(a, "threshold")),
    "cp2": lambda a, seed: verify.run_cp2_suite(),
}

# suites without a sample count, where --trials is a usage error
_NO_TRIALS = ("prop2", "nogo", "cp2")


def _cmd_verify(args) -> int:
    if args.trials is not None and args.suite in _NO_TRIALS:
        print(f"error: --trials does not apply to suite {args.suite}",
              file=sys.stderr)
        return 2
    seed = effective_seed(args)
    print(f"effective seed: {seed}", file=sys.stderr)
    return _report_out(_SUITES[args.suite](args, seed), args)


def _cmd_table(args) -> int:
    if args.source == "extract":
        sc = models.thm3_extract(args.n)
    else:
        sc = models.appendix_table(args.n)
    doc = models.structconsts_to_document(sc)
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        atomic_write(args.out, payload)
        print(f"table written to {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_descend(args) -> int:
    sc = models.thm3_extract(args.n)
    table = sc.to_bracket_table()
    red = models.lemma1_descend(table, args.denominator)
    doc = {
        "n": args.n,
        "denominator": args.denominator,
        "fields": list(red.fields),
        "entries": [
            {"a": a, "b": b,
             "terms": [{"order": t.orders[0],
                        "coeff": sx.render(t.value, red.scale)}
                       for t in terms]}
            for (a, b), terms in sorted(red.entries.items())
        ],
    }
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        atomic_write(args.out, payload)
        print(f"descended table written to {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="loopb",
        description="Elliptic special functions, quadratic loop-space "
                    "brackets, and their verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("elliptic", help="numeric special-function values")
    se = pe.add_subparsers(dest="subcommand", required=True)
    ev = se.add_parser("eval", help="evaluate one function")
    ev.add_argument("--fn", required=True,
                    choices=["wp", "zeta", "sigma", "g1", "g2", "g3", "q"])
    ev.add_argument("--z", type=parse_complex, default=None)
    ev.add_argument("--v", type=parse_complex, default=None)
    ev.add_argument("--tau", type=parse_complex, required=True)
    ev.set_defaults(func=_cmd_elliptic)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=list(_SUITES))
    pv.add_argument("--n", type=int, default=2)
    pv.add_argument("--trials", type=int, default=None)
    pv.add_argument("--tol", type=float, default=None)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--s", type=parse_complex, default=2.0)
    pv.add_argument("--restarts", type=int, default=100)
    pv.add_argument("--json", default=None)
    pv.set_defaults(func=_cmd_verify)

    pt = sub.add_parser("table", help="emit structure constants as JSON")
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--source", required=True,
                    choices=["extract", "appendix"])
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=_cmd_table)

    pd = sub.add_parser("descend",
                        help="affine-chart descent of an extracted table")
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--denominator", required=True)
    pd.add_argument("--out", default=None)
    pd.set_defaults(func=_cmd_descend)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except LoopBracketsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
