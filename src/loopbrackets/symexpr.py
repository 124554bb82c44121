"""Symbolic expression layer for differential polynomials in field jets
and elliptic builtin leaves.

Expressions are sympy objects over an exact rational coefficient field.
The leaf alphabet:

* field jets ``z0, z0_x, z0_x2, ...``, named by :func:`jet`;
* the scaled modular field ``th`` := tau/(2 pi i), whose first jet is the
  symbol ``T`` (so tau'(x) = 2 pi i T) and whose higher jets print as
  ``T_x``, ``T_x2``, ...;
* quasi-modular leaves ``g1, g2, g3`` (functions of th);
* spectral variables ``u, v`` and the elliptic leaves
  ``wpu = wp(u)``, ``dwpu = wp_u(u)``, ``zwu = zeta(u)`` (same with v);
* ``dinv = 1/(wpv - wpu)``, the shared spectral denominator.

Working with th instead of tau keeps every derivative rewrite exactly
rational: d g2/dx = (6 g3 - 4 g1 g2) * T and so on, with no pi or i in
any coefficient.

No alphabet is recorded here: :func:`jet_info` reads a jet off its name
and the fields at hand, and each table lists its own x-constants.
:func:`sample_jets` draws {symbol: complex} values for the alphabet.
"""

from __future__ import annotations

import functools
import re

import numpy as np
import sympy as sp

from . import elliptic
from .errors import ClosureError, UnboundSymbolError

# ---------------------------------------------------------------------------
# the leaf alphabet and the jet naming rule

u, v = sp.symbols("u v")
wpu, wpv = sp.symbols("wpu wpv")
dwpu, dwpv = sp.symbols("dwpu dwpv")
zwu, zwv = sp.symbols("zwu zwv")
dinv = sp.Symbol("dinv")
g1, g2, g3 = sp.symbols("g1 g2 g3")

MODULAR_FIELD = "th"


def _jet_name(field: str, order: int) -> str:
    """The naming rule: z1, z1_x, z1_x2, ...; the modular field's jets of
    order >= 1 are T, T_x, T_x2, ..."""
    if field == MODULAR_FIELD and order >= 1:
        field, order = "T", order - 1
    return field + ("" if order == 0 else "_x" if order == 1 else f"_x{order}")


def jet(field: str, order: int = 0) -> sp.Symbol:
    """Jet symbol of a field: order 0 is the field value, order k its
    k-th total x-derivative."""
    if order < 0:
        raise ValueError("negative jet order")
    return sp.Symbol(_jet_name(field, order))


T = jet(MODULAR_FIELD, 1)


def jet_info(sym: sp.Symbol, fields=None):
    """(field, order) when the name of sym is, by the naming rule of
    jet, a jet of one of `fields` (any field when None) or of the modular
    field, whose jets the tau-dependent leaves bring in; else None."""
    base, k = re.fullmatch(r"(.*?)(?:_x(\d*))?", sym.name).groups()
    field = MODULAR_FIELD if base == "T" else base
    order = (base == "T") + (0 if k is None else int(k or 1))
    if fields is not None and field not in fields and field != MODULAR_FIELD:
        return None
    return (field, order) if _jet_name(field, order) == sym.name else None


# ---------------------------------------------------------------------------
# derivations

# 2*pi*i * d/dtau, equivalently d/d(th), on each tau-dependent leaf.
_WPU_TAU = (zwu - u * g1) * dwpu + 2 * wpu**2 - 2 * g1 * wpu - g2 / sp.Integer(3)
_WPV_TAU = (zwv - v * g1) * dwpv + 2 * wpv**2 - 2 * g1 * wpv - g2 / sp.Integer(3)

DTAU_RULES: dict[sp.Symbol, sp.Expr] = {
    g1: g2 / 12 - g1**2,
    g2: 6 * g3 - 4 * g1 * g2,
    g3: g2**2 / 3 - 6 * g1 * g3,
    wpu: _WPU_TAU,
    wpv: _WPV_TAU,
    zwu: g1 * u * wpu + g2 * u / 12 - g1 * zwu - zwu * wpu - dwpu / 2,
    zwv: g1 * v * wpv + g2 * v / 12 - g1 * zwv - zwv * wpv - dwpv / 2,
    dwpu: 3 * (wpu - g1) * dwpu + (zwu - u * g1) * (6 * wpu**2 - g2 / 2),
    dwpv: 3 * (wpv - g1) * dwpv + (zwv - v * g1) * (6 * wpv**2 - g2 / 2),
    dinv: -dinv**2 * (_WPV_TAU - _WPU_TAU),
}

_DU_RULES = {
    "u": {wpu: dwpu, dwpu: 6 * wpu**2 - g2 / 2, zwu: -wpu, u: sp.Integer(1),
          dinv: dinv**2 * dwpu},
    "v": {wpv: dwpv, dwpv: 6 * wpv**2 - g2 / 2, zwv: -wpv, v: sp.Integer(1),
          dinv: -dinv**2 * dwpv},
}


def _apply_derivation(e: sp.Expr, rules) -> sp.Expr:
    out = sp.Integer(0)
    for s in e.free_symbols:
        r = rules(s)
        if r is not None and r != 0:
            out += e.diff(s) * sp.sympify(r)
    return out


def d_dtau_scaled(e: sp.Expr) -> sp.Expr:
    """Derivation d/d(th) = 2*pi*i*d/dtau on the leaf alphabet."""
    return _apply_derivation(e, lambda s: DTAU_RULES.get(s))


def d_dz_spectral(e: sp.Expr, var: str) -> sp.Expr:
    """Spectral derivative d/du or d/dv with the closed-form leaf rewrites."""
    if var not in ("u", "v"):
        raise ClosureError(f"unknown spectral variable {var!r}")
    rules = _DU_RULES[var]
    return _apply_derivation(e, lambda s: rules.get(s))


def total_x_derivative(e: sp.Expr, fields) -> sp.Expr:
    """Total x-derivative: jets of `fields` prolong, tau-dependent leaves
    rewrite through T, the spectral variables u, v drop out."""
    def rule(s: sp.Symbol):
        info = jet_info(s, fields)
        if info is not None:
            f, k = info
            return jet(f, k + 1)
        if s in DTAU_RULES:
            return T * DTAU_RULES[s]
        if s in (u, v):
            return sp.Integer(0)
        raise ClosureError(f"no x-derivative rewrite for leaf {s}")

    return _apply_derivation(e, rule)


@functools.lru_cache(maxsize=64)
def _name_order(names):
    """(positions, names) of the generators named `names` sorted by name,
    as sympy sorts Symbols."""
    at = sorted(range(len(names)), key=names.__getitem__)
    return tuple(at), tuple(names[i] for i in at)


def _render_poly(terms, names) -> str:
    """The text of sympy's lex-ordered printer for the polynomial over QQ
    with `terms` [(exponents, c)] in the generators named `names`, written
    from the terms: descending lex order of the exponents with the
    generators sorted by name, each term [-][num*]x**e*.../den."""
    at, names = _name_order(names)
    out = []
    for m, c in sorted(((tuple(m[i] for i in at), c) for m, c in terms),
                       reverse=True):
        factors = [x if e == 1 else f"{x}**{e}"
                   for x, e in zip(names, m) if e]
        num, den = abs(c.numerator), c.denominator
        if num != 1 or not factors:
            factors.insert(0, str(num))
        out.append(("- " if c < 0 else "+ ") + "*".join(factors)
                   + ("" if den == 1 else f"/{den}"))
    text = " ".join(out)
    return "0" if not text else text[2:] if text[0] == "+" else "-" + text[2:]


def render(c, scale: int = 1) -> str:
    """Deterministic canonical textual form (expanded, lex-ordered) of an
    Expr, or of the value c / scale of an element of a coefficient
    algebra.  A polynomial element is printed straight from its g-basis
    terms, byte for byte as sympy's lex-ordered printer prints its Expr;
    anything else is expanded and goes through that printer."""
    ring = getattr(c, "ring", None)
    if ring is None:
        return sp.sstr(sp.expand(sp.sympify(c) / scale), order="lex")
    if c.den:
        return render(c.as_expr(), scale)
    return _render_poly(ring.g_terms(c, scale), ring.names)


# ---------------------------------------------------------------------------
# numeric evaluation

def evaluate(e: sp.Expr, values: dict) -> complex:
    """e at `values` by substitution: the reference for the ring evaluator
    of distcalc.  UnboundSymbolError for leaves without values."""
    missing = sorted(e.free_symbols - values.keys(), key=str)
    if missing:
        raise UnboundSymbolError(f"no value for {missing}")
    return complex(e.xreplace({s: values[s] for s in e.free_symbols}))


def _annulus(rng, lo=0.2, hi=2.0):
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0, 2 * np.pi)
    return complex(r * np.cos(phi), r * np.sin(phi))


def spectral_point(rng, tau: complex) -> complex:
    """Random off-lattice point, comfortably inside the fundamental cell."""
    re = rng.uniform(0.12, 0.42) * rng.choice([-1.0, 1.0])
    im = rng.uniform(0.08, 0.38) * tau.imag * rng.choice([-1.0, 1.0])
    return complex(re, im)


def sample_jets(ctx: elliptic.EllipticContext, fields, max_order: int = 1,
                seed: int = 0) -> dict:
    """Deterministic random jet values plus consistent builtin leaf values
    at fresh off-lattice spectral points, as {symbol: complex}."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    rng = np.random.default_rng(seed)
    vals: dict = {}
    for f in fields:
        if f == MODULAR_FIELD:
            continue
        for k in range(max_order + 1):
            vals[jet(f, k)] = _annulus(rng)
    for k in range(1, max_order + 2):
        vals[jet(MODULAR_FIELD, k)] = _annulus(rng, 0.1, 0.8)
    for _ in range(100):
        up = spectral_point(rng, ctx.tau)
        vp = spectral_point(rng, ctx.tau)
        wu_val, wv_val = elliptic.wp(ctx, up), elliptic.wp(ctx, vp)
        if abs(wu_val - wv_val) > 1e-3 * max(1.0, abs(wu_val), abs(wv_val)):
            break
    vals.update({
        u: up, v: vp,
        wpu: wu_val, wpv: wv_val,
        dwpu: elliptic.wp_z(ctx, up), dwpv: elliptic.wp_z(ctx, vp),
        zwu: elliptic.zeta(ctx, up), zwv: elliptic.zeta(ctx, vp),
        g1: ctx.g1, g2: ctx.g2, g3: ctx.g3,
    })
    return vals
