"""Formal delta-distribution calculus on one, two and three points.

A local bracket is stored as a :class:`BracketTable`: for each ordered
pair of generators, a list of :class:`DeltaTerm` whose coefficients are
differential polynomials anchored at the first point x.  Composite
brackets (Leibniz extension, triple brackets for Jacobi) are built as
raw multi-point terms and pushed to the canonical basis

    coeff(x) * delta^(p)(x-y) * delta^(q)(x-w)

by rewrite rules applied to a fixpoint:

  R1  delta^(k)(b-a) = (-1)^k delta^(k)(a-b)
  R2  f(y) delta^(m)(x-y) = sum_j binom(m,j) f^(j)(x) delta^(m-j)(x-y)
  R3  delta^(m)(x-y) delta^(n)(y-w)
        = sum_j binom(m,j) delta^(m-j)(x-y) delta^(n+j)(x-w)
  R3' delta^(m)(x-w) delta^(n)(y-w)
        = (-1)^n sum_j binom(m,j) delta^(n+j)(x-y) delta^(m-j)(x-w)

R3' follows from R1 and R3; all four are validated against direct
pairings with polynomial test functions in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import sympy as sp

from . import symexpr as sx
from .errors import ClosureError, StructureError, UnknownFieldError

_POINT_INDEX = {"x": 0, "y": 1, "w": 2}


@dataclass(frozen=True)
class DeltaTerm:
    """One canonical term: coefficient (jets at x) times a product of
    delta derivatives; orders=(m,) two-point, orders=(p,q) three-point
    for delta^(p)(x-y) delta^(q)(x-w)."""

    coeff: sp.Expr
    orders: tuple[int, ...]


@dataclass(frozen=True)
class DistPoly:
    """Canonicalized distribution: merged terms, zero coefficients gone."""

    terms: tuple[DeltaTerm, ...]

    def coeff(self, orders) -> sp.Expr:
        orders = tuple(orders)
        for t in self.terms:
            if t.orders == orders:
                return t.coeff
        return sp.Integer(0)

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class _RawTerm:
    """Pre-canonical term: coefficient factors attached to points, times
    deltas (a, b, k) meaning delta^(k)(a-b).  A factor (p, e, i) stands
    for the i-th total x-derivative of e, taken after conversion."""

    factors: tuple[tuple, ...]
    deltas: tuple[tuple[str, str, int], ...]


_DEPTH = 14


def _ring_symbols(seed_exprs) -> list:
    """Generators for the coefficient ring of the seeds: their leaves,
    closed under the tau-chain rewrites, and every field jet prolonged
    _DEPTH orders past the highest one seen (the modular field from T)."""
    leaves: set = set()
    jets_max: dict[str, int] = {sx.MODULAR_FIELD: 1}

    def note(s):
        info = sx.jet_info(s)
        if info is not None:
            f, k = info
            jets_max[f] = max(jets_max.get(f, 0), k)
        else:
            leaves.add(s)

    for e in seed_exprs:
        for s in sp.sympify(e).free_symbols:
            note(s)
    frontier = set(leaves)
    while frontier:
        new = set()
        for s in frontier:
            if s.name in sx._CONSTANTS:
                continue
            rule = sx.DTAU_RULES.get(s)
            if rule is None:
                raise ClosureError(f"no derivative rewrite for leaf {s}")
            for t in rule.free_symbols:
                if sx.jet_info(t) is not None:
                    note(t)
                elif t not in leaves and t.name not in sx._CONSTANTS:
                    new.add(t)
        leaves |= new
        frontier = new

    gens: set = set(leaves)
    for f, kmax in jets_max.items():
        for k in range(kmax + _DEPTH + 1):
            if f == sx.MODULAR_FIELD and k == 0:
                continue
            gens.add(sx.jet(f, k))
    return sorted(gens, key=str)


class _RingAlgebra:
    """Coefficient arithmetic in a sparse polynomial ring over QQ or CC
    (or its fraction field, for descended tables with rational
    coefficients) with a built-in total x-derivative.  With `frozen` the
    modular parameter is a constant: g1, g2, g3, the other tau-dependent
    leaves and the modular jets T, T_x, ... all have zero derivative."""

    def __init__(self, syms, domain, fraction: bool, frozen: bool):
        self.fraction = fraction
        if fraction:
            self.F, *_ = sp.field(syms, domain)
            self.R = self.F.ring
            self.one = self.F.one
        else:
            self.R, *_ = sp.ring(syms, domain)
            self.one = self.R.one
        index = {s: i for i, s in enumerate(syms)}
        self._img = []
        for s in syms:
            info = sx.jet_info(s)
            if info is not None:
                f, k = info
                if frozen and f == sx.MODULAR_FIELD:
                    self._img.append(self.R.zero)
                    continue
                i = index.get(sx.jet(f, k + 1))
                self._img.append(None if i is None else self.R.gens[i])
            elif s.name in sx._CONSTANTS or frozen:
                self._img.append(self.R.zero)
            else:
                self._img.append(
                    self.R.from_expr(sx.T * sx.DTAU_RULES[s]))

    def conv(self, e):
        if self.fraction:
            return self.F.from_expr(e)
        return self.R.from_expr(e)

    def _dx_poly(self, p):
        out = self.R.zero
        for monom, coeff in p.iterterms():
            for i, k in enumerate(monom):
                if not k:
                    continue
                img = self._img[i]
                if img is None:
                    raise ClosureError("prolongation depth exceeded")
                m2 = list(monom)
                m2[i] = k - 1
                out = out + self.R({tuple(m2): coeff * k}) * img
        return out

    def dx(self, p):
        if not self.fraction:
            return self._dx_poly(p)
        num, den = p.numer, p.denom
        return self.F.new(self._dx_poly(num) * den - num * self._dx_poly(den),
                          den * den)

    def is_zero(self, p):
        return not p

    def to_expr(self, p):
        if self.fraction:
            return sp.expand(p.as_expr())
        return p.as_expr()


def _convert(alg, factor):
    p, e, *order = factor
    c = alg.conv(e)
    for _ in range(order[0] if order else 0):
        c = alg.dx(c)
    return p, c


def _merge_factors(alg, factors) -> dict:
    out: dict = {}
    for p, e in factors:
        out[p] = out.get(p, alg.one) * e
    return out


def canonicalize(raw_terms, frozen: bool = False) -> DistPoly:
    """Push raw terms to the canonical x-anchored basis and merge.

    Coefficients live in a sparse polynomial ring over QQ, else its
    fraction field; floating-point complex coefficients use CC instead.
    ClosureError for a leaf without a derivative rewrite."""
    raw_terms = list(raw_terms)
    syms = _ring_symbols(e for t in raw_terms for _, e, *_ in t.factors)
    for domain in (sp.QQ, sp.CC):
        for fraction in (False, True):
            alg = _RingAlgebra(syms, domain, fraction, frozen)
            try:
                converted = [
                    _RawTerm(tuple(_convert(alg, f) for f in t.factors),
                             t.deltas)
                    for t in raw_terms]
            except (sp.polys.polyerrors.CoercionFailed, ValueError):
                continue
            return _canonicalize(alg, converted)
    raise ClosureError("coefficients are not rational functions of the "
                       "leaves over QQ or CC")


def _canonicalize(alg, raw_terms) -> DistPoly:
    out: dict[tuple[int, ...], object] = {}
    queue = list(raw_terms)
    while queue:
        t = queue.pop()
        fac = _merge_factors(alg, t.factors)
        if any(alg.is_zero(e) for e in fac.values()):
            continue

        # R1: orient every delta along the fixed point order x < y < w.
        sign = 1
        deltas = []
        for a, b, k in t.deltas:
            if _POINT_INDEX[a] > _POINT_INDEX[b]:
                a, b = b, a
                sign *= (-1) ** k
            deltas.append((a, b, k))
        if sign != 1:
            fac["x"] = fac.get("x", alg.one) * sign
        factors = tuple(fac.items())

        pairs = tuple(sorted((a, b) for a, b, _ in deltas))
        if len(deltas) == 2 and pairs == (("x", "y"), ("y", "w")):
            xy = next(d for d in deltas if d[:2] == ("x", "y"))
            yw = next(d for d in deltas if d[:2] == ("y", "w"))
            m, n = xy[2], yw[2]
            for j in range(m + 1):
                queue.append(_RawTerm(
                    factors + (("x", alg.one * int(sp.binomial(m, j))),),
                    (("x", "y", m - j), ("x", "w", n + j))))
            continue
        if len(deltas) == 2 and pairs == (("x", "w"), ("y", "w")):
            xw = next(d for d in deltas if d[:2] == ("x", "w"))
            yw = next(d for d in deltas if d[:2] == ("y", "w"))
            m, n = xw[2], yw[2]
            for j in range(m + 1):
                queue.append(_RawTerm(
                    factors + (("x",
                                alg.one * ((-1) ** n * int(sp.binomial(m, j))))
                               ,),
                    (("x", "y", n + j), ("x", "w", m - j))))
            continue

        moved = False
        for p in ("y", "w"):
            if p in fac:
                # R2: move the factor at p to x across the linking delta.
                link = next((d for d in deltas if d[:2] == ("x", p)), None)
                if link is None:
                    raise StructureError(
                        f"cannot anchor factor at {p}: deltas {deltas}")
                rest = tuple(d for d in deltas if d != link)
                m = link[2]
                others = tuple((q, e) for q, e in fac.items() if q != p)
                fp = fac[p]
                for j in range(m + 1):
                    queue.append(_RawTerm(
                        others + (("x", fp * int(sp.binomial(m, j))),),
                        (("x", p, m - j),) + rest))
                    if j < m:
                        fp = alg.dx(fp)
                moved = True
                break
        if moved:
            continue

        if len(deltas) == 1:
            key = (deltas[0][2],)
        else:
            d_xy = next(d for d in deltas if d[:2] == ("x", "y"))
            d_xw = next(d for d in deltas if d[:2] == ("x", "w"))
            key = (d_xy[2], d_xw[2])
        prev = out.get(key)
        cx = fac.get("x", alg.one)
        out[key] = cx if prev is None else prev + cx

    terms = []
    for key in sorted(out):
        c = alg.to_expr(out[key])
        if c != 0:
            terms.append(DeltaTerm(coeff=c, orders=key))
    return DistPoly(terms=tuple(terms))


def evaluate_distpoly(dp: DistPoly, jets: sx.JetAssignment) -> list[complex]:
    """Numeric values of all canonical coefficients."""
    return [jets.evaluate(t.coeff) for t in dp.terms]


# ---------------------------------------------------------------------------
# bracket tables

@dataclass(frozen=True)
class BracketTable:
    """Local bracket: canonical (x,y) DeltaTerm lists for every ordered
    pair of generators.  frozen_modular marks descended tables whose
    modular parameter is constant: their residuals are evaluated with all
    th jets set to zero."""

    fields: tuple[str, ...]
    entries: dict
    frozen_modular: bool = False

    def entry(self, a: str, b: str) -> tuple[DeltaTerm, ...]:
        try:
            return self.entries[(a, b)]
        except KeyError:
            raise UnknownFieldError(f"no bracket entry for ({a}, {b})")

    def order(self) -> int:
        return max((t.orders[0] for e in self.entries.values() for t in e),
                   default=0)


def transpose_entry(entry, frozen: bool = False) -> tuple[DeltaTerm, ...]:
    """Canonical (x,y) form of {b(x), a(y)} swapped to {b(y), a(x)}."""
    raw = [_RawTerm((("y", t.coeff),), (("y", "x", t.orders[0]),))
           for t in entry]
    return canonicalize(raw, frozen=frozen).terms


def build_table(fields, given, frozen_modular: bool = False) -> BracketTable:
    """Complete a partially given table by antisymmetry.

    `given` maps ordered pairs (a, b) to lists of (coeff, order); every
    missing transpose (b, a) is filled in as -{a(x), b(y)} with the
    points exchanged and recanonicalized.
    """
    entries = {}
    for (a, b), terms in given.items():
        canon = tuple(DeltaTerm(sp.expand(c), (m,)) for c, m in terms
                      if sp.expand(c) != 0)
        entries[(a, b)] = canon
    for (a, b) in list(entries):
        if (b, a) not in entries:
            neg = tuple(DeltaTerm(-t.coeff, t.orders) for t in entries[(a, b)])
            entries[(b, a)] = transpose_entry(neg, frozen=frozen_modular)
    for a, b in itertools.product(fields, repeat=2):
        entries.setdefault((a, b), ())
    return BracketTable(fields=tuple(fields), entries=entries,
                        frozen_modular=frozen_modular)


def _partials(E: sp.Expr, fields):
    """Nonzero partials of E with respect to the field jets.  The order-0
    partial of the modular field picks up the chain through g1, g2, g3
    (and the other tau-dependent leaves) on top of any literal th symbol."""
    E = sp.sympify(E)
    out = []
    for s in E.free_symbols:
        info = sx.jet_info(s)
        if info is None:
            continue
        f, k = info
        if f not in fields:
            raise UnknownFieldError(f"expression references unknown field {f}")
        d = E.diff(s)
        if d != 0:
            out.append((f, k, d))
    if sx.MODULAR_FIELD in fields:
        d = sx.d_dtau_scaled(E)
        if d != 0:
            out.append((sx.MODULAR_FIELD, 0, d))
    return out


def _table_cache(table: BracketTable) -> dict:
    cache = table.__dict__.get("_op_cache")
    if cache is None:
        object.__setattr__(table, "_op_cache", {})
        cache = table.__dict__["_op_cache"]
    return cache


def leibniz_bracket(table: BracketTable, a: str, E: sp.Expr) -> DistPoly:
    """{a(x), E(y)} for a differential expression E in the table fields,
    canonicalized on (x, y) with coefficients at x.  Memoized per table:
    triple-bracket assembly re-derives the same pairs constantly."""
    cache = _table_cache(table)
    key = ("leibniz", a, E)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if a not in table.fields:
        raise UnknownFieldError(f"unknown generator {a}")
    raw = []
    for f, k, dE in _partials(E, table.fields):
        for t in table.entry(a, f):
            m = t.orders[0]
            # d^k/dy^k delta^(m)(x-y) = (-1)^k delta^(m+k)(x-y)
            raw.append(_RawTerm(
                (("x", t.coeff), ("y", (-1) ** k * dE)),
                (("x", "y", m + k),)))
    out = canonicalize(raw, frozen=table.frozen_modular)
    cache[key] = out
    return out


def bracket_of_functions(table: BracketTable, F: sp.Expr, G: sp.Expr) -> DistPoly:
    """{F(x), G(y)} for differential expressions F, G in the table fields."""
    raws = []
    for f, k, dF in _partials(F, table.fields):
        for g, l, dG in _partials(G, table.fields):
            for t in table.entry(f, g):
                m = t.orders[0]
                # d^k/dx^k d^l/dy^l [C(x) delta^(m)(x-y)]
                for i in range(k + 1):
                    raws.append(_RawTerm(
                        (("x", sp.binomial(k, i) * dF), ("x", t.coeff, i),
                         ("y", (-1) ** l * dG)),
                        (("x", "y", m + l + k - i),)))
    return canonicalize(raws, frozen=table.frozen_modular)


def antisymmetry_defect(table: BracketTable, a: str, b: str) -> DistPoly:
    """{a(x), b(y)} + {b(y), a(x)}; identically zero for a bracket."""
    raw = [_RawTerm((("x", t.coeff),), (("x", "y", t.orders[0]),))
           for t in table.entry(a, b)]
    raw += [_RawTerm((("y", t.coeff),), (("y", "x", t.orders[0]),))
            for t in table.entry(b, a)]
    return canonicalize(raw, frozen=table.frozen_modular)


def _cyclic_term(table: BracketTable, outer: str, inner: tuple[str, str],
                 points: tuple[str, str, str]) -> list[_RawTerm]:
    """Raw terms of {outer(p0), {inner[0](p1), inner[1](p2)}}."""
    p0, p1, p2 = points
    raws = []
    for t in table.entry(*inner):
        m = t.orders[0]
        for s_term in leibniz_bracket(table, outer, t.coeff).terms:
            raws.append(_RawTerm(
                ((p0, s_term.coeff),),
                ((p0, p1, s_term.orders[0]), (p1, p2, m))))
    return raws


def jacobi_defect(table: BracketTable, a: str, b: str, c: str) -> DistPoly:
    """Cyclic sum {a(x),{b(y),c(w)}} + {b(y),{c(w),a(x)}} +
    {c(w),{a(x),b(y)}} in the canonical three-point basis."""
    raws = []
    raws += _cyclic_term(table, a, (b, c), ("x", "y", "w"))
    raws += _cyclic_term(table, b, (c, a), ("y", "w", "x"))
    raws += _cyclic_term(table, c, (a, b), ("w", "x", "y"))
    return canonicalize(raws, frozen=table.frozen_modular)


def jacobi_triples(fields) -> list[tuple[str, str, str]]:
    """Unordered generator triples (with repetition); by antisymmetry the
    cyclic Jacobi sum of any ordered triple is +/- one of these."""
    return list(itertools.combinations_with_replacement(fields, 3))


# ---------------------------------------------------------------------------
# coordinate changes

def _prolonged_subs(inverse: dict, max_order: int) -> dict:
    subs = {}
    for old, expr in inverse.items():
        cur = sp.sympify(expr)
        subs[sx.jet(old, 0)] = cur
        for k in range(1, max_order + 1):
            cur = sx.total_x_derivative(cur)
            subs[sx.jet(old, k)] = cur
    return subs


def change_coordinates(table: BracketTable, forward: dict, inverse: dict,
                       eliminate: tuple[str, ...] = (),
                       frozen_modular: bool | None = None) -> BracketTable:
    """Bracket table for new generators.

    forward maps each new field name to its expression in the old jets;
    inverse maps each old field name to its expression in the new jets
    (auxiliary fields allowed).  Fields listed in `eliminate` must cancel
    from every coefficient after substitution, else StructureError.
    A frozen_modular result (default: as the source table) holds the
    modular parameter constant, so its jets T, T_x, ... are set to zero.
    """
    new_fields = tuple(forward)
    if frozen_modular is None:
        frozen_modular = table.frozen_modular
    max_ord = table.order() + 2 + max(
        (k for F in forward.values() for s in sp.sympify(F).free_symbols
         if (info := sx.jet_info(s)) is not None for k in (info[1],)),
        default=0)
    subs = _prolonged_subs(inverse, max_ord + 2)
    if frozen_modular:
        subs.update({sx.jet(sx.MODULAR_FIELD, k): 0
                     for k in range(1, max_ord + 3)})
    bad = {sx.jet(f, k) for f in eliminate for k in range(max_ord + 3)}
    entries = {}
    for a, b in itertools.product(new_fields, repeat=2):
        dp = bracket_of_functions(table, forward[a], forward[b])
        terms = []
        for t in dp.terms:
            c = sp.cancel(sp.sympify(t.coeff).subs(subs, simultaneous=True))
            if c.free_symbols & bad:
                raise StructureError(
                    f"coefficient of ({a},{b}) at order {t.orders} does not "
                    f"close on the new fields: {c}")
            c = sp.expand(c)
            if c != 0:
                terms.append(DeltaTerm(c, t.orders))
        entries[(a, b)] = tuple(terms)
    return BracketTable(fields=new_fields, entries=entries,
                        frozen_modular=frozen_modular)
