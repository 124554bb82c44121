"""Output checks for the benchmark workloads.

Each check takes plain data (report dictionaries, sympy expressions,
documents, complex numbers) and returns a list of problems; an empty
list accepts the output.  The checks use only properties the outputs
must have and references computed apart from the package, so that a
wrong answer from the package cannot pass by agreeing with itself.
"""

from __future__ import annotations

import json
import re

import sympy as sp

NOGO_MIN_RESIDUAL = 0.05
SELFTEST_MAX_RESIDUAL = 1e-10
CONTROL_FLOOR = 1e-3

g1, g2, g3, T = sp.symbols("g1 g2 g3 T")
# d/dx of the modular forms: T = th_x times the quasi-modular derivation
# 2 pi i d/dtau  (g1' = g2/12 - g1^2, g2' = 6 g3 - 4 g1 g2,
# g3' = g2^2/3 - 6 g1 g3)
_DX_FORMS = {g1: T * (g2 / 12 - g1 ** 2),
             g2: T * (6 * g3 - 4 * g1 * g2),
             g3: T * (g2 ** 2 / 3 - 6 * g1 * g3)}
_JET = re.compile(r"^(z\d+)(?:_x(\d*))?$")


def dx(e: sp.Expr) -> sp.Expr:
    """Total x-derivative of an expression in z jets and g1, g2, g3."""
    out = sp.Integer(0)
    for s in e.free_symbols:
        if s in _DX_FORMS:
            ds = _DX_FORMS[s]
        else:
            m = _JET.match(s.name)
            if m is None:
                raise ValueError(f"no x-derivative rule for {s}")
            order = 0 if m.group(2) is None else int(m.group(2) or 1)
            ds = sp.Symbol(f"{m.group(1)}_x{order + 1}" if order
                           else f"{m.group(1)}_x")
        out += sp.diff(e, s) * ds
    return out


def _fields_of(P: dict) -> list[sp.Symbol]:
    zs = set()
    for e in P.values():
        zs |= {s for s in sp.sympify(e).free_symbols if _JET.match(s.name)}
    return sorted(zs, key=str)


def structconsts_problems(P: dict, Q: dict) -> list[str]:
    """P symmetric, every P entry homogeneous quadratic in the fields with
    no jets, and the antisymmetry relation Q_ab + Q_ba = D_x P_ab."""
    out = []
    zs = [s for s in _fields_of(P) if "_x" not in s.name]
    for (a, b), e in sorted(P.items()):
        if sp.expand(e - P[(b, a)]) != 0:
            out.append(f"P{(a, b)} != P{(b, a)}")
        e = sp.expand(e)
        if e != 0:
            if e.free_symbols - set(zs) - {g1, g2, g3}:
                out.append(f"P{(a, b)} has jets or T")
            elif any(sum(m) != 2 for m in sp.Poly(e, *zs).monoms()):
                out.append(f"P{(a, b)} not homogeneous quadratic in z")
        if sp.expand(Q[(a, b)] + Q[(b, a)] - dx(P[(a, b)])) != 0:
            out.append(f"Q{(a, b)} + Q{(b, a)} != D_x P{(a, b)}")
    return out


def exported_text(doc: dict) -> str:
    """A document as export_tables.py writes it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def documents_problems(text_a: str, text_b: str) -> list[str]:
    """Exported documents must be byte-identical apart from the line that
    names their generator."""
    def strip(text):
        return [ln for ln in text.splitlines(keepends=True)
                if not ln.startswith('  "generator": ')]
    if strip(text_a) != strip(text_b):
        return ["documents differ apart from generator"]
    return []


def _check(report: dict, name: str) -> dict | None:
    return next((c for c in report["checks"] if c["name"] == name), None)


def poisson_problems(report: dict) -> dict[str, list[str]]:
    """Problems per suite check of a `verify poisson` report."""
    out = {}
    for c in report["checks"]:
        probs = [] if c["passed"] else ["check failed"]
        name = c["name"]
        if name == "antisymmetry_and_jacobi" or name.startswith(
                "descended_chart_"):
            if c.get("max_residual") != 0.0:
                probs.append(f"defects not exactly zero: max residual "
                             f"{c.get('max_residual')}")
        if name == "control_flipped_sign":
            if not c.get("max_residual", 0.0) > CONTROL_FLOOR:
                probs.append(f"control residual {c.get('max_residual')} "
                             f"not above {CONTROL_FLOOR}")
        out[name] = probs
    for required in ("extract_matches_closed_form", "antisymmetry_and_jacobi",
                     "modular_centrality", "control_flipped_sign"):
        out.setdefault(required, ["check missing from the report"])
    if sum(n.startswith("descended_chart_") for n in out) != 2:
        out["descended_charts"] = ["expected two descended charts"]
    return out


def nogo_problems(report: dict) -> dict[str, list[str]]:
    """The certificate stays above NOGO_MIN_RESIDUAL (the lift is
    infeasible) and the feasible self-test reaches SELFTEST_MAX_RESIDUAL."""
    out = {}
    cert = _check(report, "lifting_system_infeasible")
    if cert is None:
        out["lifting_system_infeasible"] = ["check missing from the report"]
    else:
        probs = [] if cert["passed"] else ["check failed"]
        if not cert["max_residual"] > NOGO_MIN_RESIDUAL:
            probs.append(f"minimum residual {cert['max_residual']} not "
                         f"above {NOGO_MIN_RESIDUAL}")
        out["lifting_system_infeasible"] = probs
    st = _check(report, "control_feasible_selftest")
    if st is None:
        out["control_feasible_selftest"] = ["check missing from the report"]
    else:
        probs = [] if st["passed"] else ["check failed"]
        if not st["max_residual"] < SELFTEST_MAX_RESIDUAL:
            probs.append(f"self-test minimum {st['max_residual']} not below "
                         f"{SELFTEST_MAX_RESIDUAL}")
        out["control_feasible_selftest"] = probs
    return out


def suite_problems(report: dict) -> list[str]:
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    return [f"failed checks: {failed}"] if failed or not report["passed"] \
        else []


def thm2_problems(res: dict, tol: float) -> list[str]:
    """One Theorem 2 trial: the bracket identity and the modular row hold
    to tol."""
    return [f"{k} residual {res[k]:.3g} not below {tol:g}"
            for k in ("bracket", "modular_row") if not res[k] < tol]


def control_problems(residuals: list, floor: float = CONTROL_FLOOR) -> list:
    """A negative control over several trials: the largest residual must
    exceed floor, as run_thm2_suite requires of its own control."""
    mx = max(residuals, default=0.0)
    return [] if mx > floor else [f"control max residual {mx:.3g} not "
                                  f"above {floor:g}"]


def value_problem(name: str, got: complex, ref: complex,
                  tol: float) -> str | None:
    """Relative error against max(1, |ref|), None within tol."""
    err = abs(got - ref) / max(1.0, abs(ref))
    if not err <= tol:
        return f"{name}: relative error {err:.3g} above {tol:g}"
    return None
