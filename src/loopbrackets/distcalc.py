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

Every table owns one coefficient algebra (:class:`_RingAlgebra`), built
when the table is: a sparse polynomial ring over ZZ and its fraction
field, in the basis h2 = g2/12, h3 = g3/2 of the quasi-modular leaves.
There the tau-derivative rules have integer coefficients

    dg1 = h2 - g1^2,  dh2 = h3 - 4 g1 h2,  dh3 = 24 h2^2 - 6 g1 h3,

so every coefficient is an integer and no rational arithmetic runs.  A
table stores L times its entries, L (`scale`) the least common
denominator of its entries in that basis.  A bracket is homogeneous in
the table, of degree 1 for antisymmetry and Leibniz and 2 for Jacobi, so
a defect is zero exactly when it is zero at scale L, and its value is
the stored one over L or L^2 (`DistPoly.scale`).  All arithmetic on the
table stays in the algebra, and a term stores its coefficient only as
an element of it; sympy ``Expr`` and the g basis appear only where
coefficients come in (`build_table`, expression arguments) and go out
(`_RingAlgebra.g_basis`, numeric evaluation).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from math import comb, gcd, lcm, prod

import numpy as np
import sympy as sp
from sympy.polys.fields import FracElement
from sympy.polys.rings import PolyElement, PolyRing

from . import symexpr as sx
from .errors import (ClosureError, StructureError, UnboundSymbolError,
                     UnknownFieldError)

_POINT_INDEX = {"x": 0, "y": 1, "w": 2}

# the integral basis: g2 = 12 h2 and g3 = 2 h3, {g: (h, weight)}
_H_BASIS = {sx.g2: (sp.Symbol("h2"), 12), sx.g3: (sp.Symbol("h3"), 2)}
_G_BASIS = {h: (g, w) for g, (h, w) in _H_BASIS.items()}


@dataclass(frozen=True)
class DeltaTerm:
    """One canonical term: coefficient (jets at x) times a product of
    delta derivatives; orders=(m,) two-point, orders=(p,q) three-point
    for delta^(p)(x-y) delta^(q)(x-w).  `value` is the coefficient in
    its table's algebra."""

    value: object
    orders: tuple[int, ...]


@dataclass(frozen=True)
class DistPoly:
    """Canonicalized distribution: merged terms, zero coefficients gone.
    Its value is the terms over `scale` (the table's scale to the degree
    of the bracket in the table)."""

    terms: tuple[DeltaTerm, ...]
    scale: int = 1

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class _RawTerm:
    """Pre-canonical term: coefficient factors (p, c) attached to points,
    times deltas (a, b, k) meaning delta^(k)(a-b)."""

    factors: tuple[tuple, ...]
    deltas: tuple[tuple[str, str, int], ...]


def _free_symbols(e) -> set:
    """The symbols of an Expr, or the generators a polynomial depends on."""
    if isinstance(e, PolyElement):
        return {s for s, col in zip(e.ring.symbols, zip(*e)) if any(col)}
    return sp.sympify(e).free_symbols


def _kind(s, fields, constants):
    """How the alphabet of `fields` and the x-constants `constants` reads
    the symbol s: "constant" for u, v and the listed constants, "tau" for
    a leaf with a rule in DTAU_RULES, else (field, order) for a jet by
    symexpr.jet_info (of any field when `fields` is None) or None."""
    if s in constants or s in (sx.u, sx.v):
        return "constant"
    return "tau" if s in sx.DTAU_RULES else sx.jet_info(s, fields)


def _table_algebra(seeds, orders, fields, constants, frozen: bool):
    """The algebra of a table whose coefficients have the leaves of
    `seeds` and delta orders `orders`.  With delta orders up to N and
    coefficient jets up to J, a Leibniz bracket takes at most N + J
    x-derivatives of a factor and a Jacobi defect 2N + J more, so no jet
    past order 3 (N + J) can occur: that is its prolongation depth."""
    J = max((k[1] for e in seeds for s in _free_symbols(e) if isinstance(
        k := _kind(s, fields, constants), tuple)), default=0)
    depth = 3 * (max(orders, default=0) + J)
    return _RingAlgebra(_ring_symbols(seeds, depth, fields, constants,
                                      frozen), fields, frozen, constants)


def _ring_symbols(seeds, depth: int, fields, constants=(),
                  frozen: bool = False) -> list:
    """Generators for a coefficient algebra over the alphabet of `fields`
    and `constants`: the leaves of the seeds, closed under the tau-chain
    rewrites, and the jets of every field listed or seen, prolonged
    `depth` orders past the highest one seen.  The modular jets T, T_x,
    ... come in with the modular field, or with a tau-dependent leaf
    unless the modular parameter is frozen.  A symbol outside the
    alphabet is kept, for _RingAlgebra to refuse."""
    gens: set = set()
    jets_max: dict[str, int] = dict.fromkeys(fields or (), 0)

    def note(s):
        kind = _kind(s, fields, constants)
        if isinstance(kind, tuple):
            f, k = kind
            jets_max[f] = max(jets_max.get(f, 0), k)
        elif s not in gens:
            gens.add(s)
            if kind == "tau":
                for t in sx.DTAU_RULES[s].free_symbols:
                    note(t)

    for e in seeds:
        for s in _free_symbols(e):
            note(s)
    mod = sx.MODULAR_FIELD
    if mod in jets_max or (not frozen and gens & sx.DTAU_RULES.keys()):
        jets_max[mod] = max(jets_max.get(mod, 1), 1)
    for f, kmax in jets_max.items():
        gens.update(sx.jet(f, k) for k in range(kmax + depth + 1))
    return sorted(gens, key=str)


class _RingAlgebra:
    """Coefficient arithmetic in a sparse polynomial ring and its fraction
    field (elements are ring elements while they are polynomial), with
    the total x-derivative and d/dth built in; each generator is read
    once, by _kind, and one outside the alphabet is a ClosureError.

    It is built from g-basis symbols (`gsyms`).  The ring is over ZZ in
    the basis h2 = g2/12, h3 = g3/2 (`syms`, generator for generator)
    when the d/dth rule of every leaf is integral there, and over QQ in
    the g basis otherwise, which only the zeta leaves' rule (it halves
    dwpu) causes; the h-basis rules are read off DTAU_RULES.  `G` is the
    g basis over QQ with the same generator positions: elements come in
    by `lift` or `conv` and go out by `g_basis`.  With `frozen` the
    modular parameter is a constant: g1, g2, g3, the other tau-dependent
    leaves and the modular jets T, T_x, ... all have zero x-derivative.
    `memo` holds the Leibniz brackets of every table that shares this
    algebra, keyed on the row they read."""

    def __init__(self, syms, fields, frozen: bool, constants=()):
        self.gsyms = tuple(syms)
        self.G = PolyRing(self.gsyms, sp.QQ)
        self.constants = frozenset(constants)
        kinds = [_kind(s, fields, self.constants) for s in self.gsyms]
        for s, kind in zip(self.gsyms, kinds):
            if kind is None:
                raise ClosureError(f"no derivative rewrite for leaf {s}")
        # d/dth of the tau-dependent leaves, in the g basis and, divided
        # by the leaf's weight, in the h basis
        dth = {i: self.G.from_expr(sx.DTAU_RULES[s])
               for i, s in enumerate(self.gsyms) if kinds[i] == "tau"}
        self._hpos = [(i, _H_BASIS[s][1]) for i, s in enumerate(self.gsyms)
                      if s in _H_BASIS]
        weight = dict(self._hpos)
        h_dth = {i: {m: c * self._weight(m) / weight.get(i, 1)
                     for m, c in r.items()} for i, r in dth.items()}
        if all(c.denominator == 1 for r in h_dth.values() for c in r.values()):
            dom = sp.ZZ
            self.syms = tuple(_H_BASIS.get(s, (s,))[0] for s in self.gsyms)
            dth = {i: {m: c.numerator for m, c in r.items()}
                   for i, r in h_dth.items()}
        else:
            dom, self._hpos, self.syms = sp.QQ, [], self.gsyms
        self.F, *_ = sp.field(self.syms, dom)
        self.R = self.F.ring
        self.index = {s: i for i, s in enumerate(self.syms)}
        self.jets = [k if isinstance(k, tuple) else None for k in kinds]
        self.memo: dict = {}
        self._dth = {i: self.R.from_dict(r) for i, r in dth.items()}
        # x-derivative of each generator: the index of the next jet, the
        # terms of a polynomial image, or None past the prolongation depth
        self._img: list = []
        T = self.index.get(sx.T)
        for i, info in enumerate(self.jets):
            if info is not None:
                f, k = info
                if frozen and f == sx.MODULAR_FIELD:
                    self._img.append(())
                else:
                    self._img.append(self.index.get(sx.jet(f, k + 1)))
            elif kinds[i] == "constant" or frozen:
                self._img.append(())
            else:
                self._img.append(tuple(
                    (self._dth[i] * self.R.gens[T]).items()))

    def _weight(self, monom) -> int:
        """The factor a g-basis monomial picks up in the h basis."""
        return prod(w ** monom[i] for i, w in self._hpos)

    def lift(self, e):
        """(c, d) with c / d equal to e, an Expr or a polynomial over QQ in
        the g basis: c an element, d the least positive integer that leaves
        no ground denominator in c (1 over QQ).  ClosureError for anything
        that is not a rational function over QQ in the generators, floats
        included."""
        if not isinstance(e, PolyElement):
            e = sp.sympify(e)
        syms = _free_symbols(e)
        if not syms <= set(self.gsyms):
            missing = sorted(map(str, syms - set(self.gsyms)))
            raise ClosureError(f"{missing} are not generators of the "
                               "coefficient ring")
        if isinstance(e, PolyElement):
            if e.ring.domain == sp.QQ:
                return self._from_g(e.set_ring(self.G))
        elif not e.has(sp.Float):
            try:
                return self._from_g(self.G.from_expr(e))
            except ValueError:
                pass
            try:
                q = self.G.to_field().from_expr(e)
            except ValueError:
                pass
            else:
                (n, dn), (m, dm) = self._from_g(q.numer), self._from_g(q.denom)
                return self.F.new(n * dm, m * dn), 1
        raise ClosureError(f"{e} is not a rational function over QQ")

    def _from_g(self, q):
        """lift of a polynomial q of G."""
        terms = {m: c * self._weight(m) for m, c in q.items()}
        if self.R.domain == sp.QQ:
            return self.R.from_dict(terms), 1
        d = lcm(*(c.denominator for c in terms.values()))
        return self.R.from_dict({m: c.numerator * (d // c.denominator)
                                 for m, c in terms.items()}), d

    def conv(self, e):
        """lift(e) as one element: c, or c / d in the fraction field."""
        c, d = self.lift(e)
        return c if d == 1 else self.F.new(c, self.R(d))

    def g_basis(self, p, scale: int = 1):
        """The value p / scale of the element p, as an element of G (or of
        its fraction field): exact, for everything that leaves the
        algebra."""
        if isinstance(p, FracElement):
            return self.G.to_field().new(self.g_basis(p.numer, scale),
                                         self.g_basis(p.denom))
        return self.G.from_dict({m: sp.QQ(c) / (scale * self._weight(m))
                                 for m, c in p.items()})

    def _dx_poly(self, p):
        out = self.R.zero
        get, zero = out.get, self.R.domain.zero
        mul = self.R.monomial_mul
        for monom, coeff in p.items():
            for i, k in enumerate(monom):
                if not k:
                    continue
                img = self._img[i]
                if img is None:
                    raise ClosureError(f"prolongation depth exceeded at "
                                       f"{self.syms[i]}")
                c = coeff * k if k > 1 else coeff
                m = list(monom)
                m[i] = k - 1
                if type(img) is int:
                    m[img] += 1
                    m = tuple(m)
                    out[m] = get(m, zero) + c
                    continue
                m = tuple(m)
                for im, ic in img:
                    mm = mul(m, im)
                    out[mm] = get(mm, zero) + c * ic
        out.strip_zero()
        return out

    def gen(self, s):
        """The generator for the symbol s."""
        return self.R.gens[self.index[s]]

    def dx(self, p):
        if not isinstance(p, FracElement):
            return self._dx_poly(p)
        num, den = p.numer, p.denom
        return self.F.new(self._dx_poly(num) * den - num * self._dx_poly(den),
                          den * den)

    def diff(self, p, i: int):
        """Partial derivative in generator i."""
        x = self.R.gens[i]
        if not isinstance(p, FracElement):
            return p.diff(x)
        num, den = p.numer, p.denom
        return self.F.new(num.diff(x) * den - num * den.diff(x), den * den)

    def support(self, p) -> set[int]:
        """Indices of the generators that p depends on."""
        polys = (p.numer, p.denom) if isinstance(p, FracElement) else (p,)
        return {i for q in polys for i, col in enumerate(zip(*q.keys()))
                if any(col)}

    def dth(self, p):
        """d/dth through the tau-dependent leaves (DTAU_RULES)."""
        out = self.F.zero if isinstance(p, FracElement) else self.R.zero
        for i in self.support(p):
            rule = self._dth.get(i)
            if rule is not None:
                out = out + self.diff(p, i) * rule
        return out


def _field_first(a, b):
    """The operands with a field element first: a ring element meets a
    field element on its right only after sympy has formatted a
    CoercionFailed message with both."""
    return (b, a) if isinstance(b, FracElement) else (a, b)


def _merge(fac: dict, p: str, c) -> dict:
    fac = dict(fac)
    if p in fac:
        a, b = _field_first(fac[p], c)
        c = a * b
    fac[p] = c
    return fac


def canonicalize(raw_terms, alg) -> DistPoly:
    """Push raw terms, whose factors are elements of the algebra `alg`
    (a table's), to the canonical x-anchored basis and merge."""
    out: dict[tuple[int, ...], object] = {}
    # queue items: (integer scale, factor at each point, deltas)
    queue = []
    for t in raw_terms:
        fac: dict = {}
        for p, c in t.factors:
            fac = _merge(fac, p, c)
        queue.append((1, fac, t.deltas))
    # x-derivatives of each transported factor, [c, dx c, ...] by id(c):
    # R3 hands one factor object to several queue items
    chains: dict[int, list] = {}
    while queue:
        scale, fac, t_deltas = queue.pop()
        if not all(fac.values()):
            continue

        # R1: orient every delta along the fixed point order x < y < w.
        deltas = []
        for a, b, k in t_deltas:
            if _POINT_INDEX[a] > _POINT_INDEX[b]:
                a, b = b, a
                if k % 2:
                    scale = -scale
            deltas.append((a, b, k))

        pairs = tuple(sorted((a, b) for a, b, _ in deltas))
        if len(deltas) == 2 and pairs == (("x", "y"), ("y", "w")):
            m = next(d[2] for d in deltas if d[:2] == ("x", "y"))
            n = next(d[2] for d in deltas if d[:2] == ("y", "w"))
            for j in range(m + 1):
                queue.append((scale * comb(m, j), fac,
                              (("x", "y", m - j), ("x", "w", n + j))))
            continue
        if len(deltas) == 2 and pairs == (("x", "w"), ("y", "w")):
            m = next(d[2] for d in deltas if d[:2] == ("x", "w"))
            n = next(d[2] for d in deltas if d[:2] == ("y", "w"))
            sign = -scale if n % 2 else scale
            for j in range(m + 1):
                queue.append((sign * comb(m, j), fac,
                              (("x", "y", n + j), ("x", "w", m - j))))
            continue

        p = "y" if "y" in fac else "w" if "w" in fac else None
        if p is not None:
            # R2: move the factor at p to x across the linking delta.
            link = next((d for d in deltas if d[:2] == ("x", p)), None)
            if link is None:
                raise StructureError(
                    f"cannot anchor factor at {p}: deltas {deltas}")
            rest = tuple(d for d in deltas if d != link)
            m = link[2]
            others = {q: c for q, c in fac.items() if q != p}
            chain = chains.setdefault(id(fac[p]), [fac[p]])
            while len(chain) <= m:
                chain.append(alg.dx(chain[-1]))
            for j, fp in enumerate(chain[:m + 1]):
                queue.append((scale * comb(m, j), _merge(others, "x", fp),
                              (("x", p, m - j),) + rest))
            continue

        if len(deltas) == 1:
            key = (deltas[0][2],)
        else:
            d_xy = next(d for d in deltas if d[:2] == ("x", "y"))
            d_xw = next(d for d in deltas if d[:2] == ("x", "w"))
            key = (d_xy[2], d_xw[2])
        out.setdefault(key, []).append((scale, fac.get("x", alg.R.one)))

    terms = ((key, _sum(alg, out[key])) for key in sorted(out))
    return DistPoly(terms=tuple(DeltaTerm(c, key) for key, c in terms if c))


def _sum(alg, parts):
    """sum of scale * c over parts, accumulated in place for polynomials."""
    if any(isinstance(c, FracElement) for _, c in parts):
        return sum((alg.F(c) * s for s, c in parts), alg.F.zero)
    acc = alg.R.zero
    get, zero = acc.get, alg.R.domain.zero
    for s, c in parts:
        for m, v in c.items():
            acc[m] = get(m, zero) + (v if s == 1 else v * s)
    acc.strip_zero()
    return acc


def _values(p, samples, scale: int = 1):
    """The element p over `scale` at each sample, from its exponents and
    coefficients, with the g basis's coefficients (each divided exactly,
    in one rounding) and the samples' g2, g3 for h2, h3; a fraction as
    numerator over denominator."""
    if isinstance(p, FracElement):
        return _values(p.numer, samples, scale) / _values(p.denom, samples)
    monoms, coeffs = zip(*p.terms())
    hpos = [(i, _G_BASIS[s][1]) for i, s in enumerate(p.ring.symbols)
            if s in _G_BASIS]
    coeffs = [c / (scale * prod(w ** m[i] for i, w in hpos))
              for m, c in zip(monoms, coeffs)]
    E = np.array(monoms)
    used = np.flatnonzero(E.any(axis=0))
    syms = [_G_BASIS.get(s, (s,))[0] for s in
            (p.ring.symbols[i] for i in used)]
    try:
        V = np.array([[s[g] for g in syms] for s in samples], dtype=complex)
    except KeyError as e:
        raise UnboundSymbolError(f"no value for {e.args[0]}") from None
    monos = np.prod(V[:, None, :] ** E[:, used], axis=2)
    return np.sum(monos * np.array(coeffs, dtype=float), axis=1)


def evaluate_distpoly(dp: DistPoly, samples) -> np.ndarray:
    """Values of the coefficients at jet samples ({symbol: complex}),
    terms x samples; UnboundSymbolError when a sample misses a generator
    of the support."""
    return np.array([_values(t.value, samples, dp.scale) for t in dp.terms],
                    dtype=complex).reshape(len(dp.terms), len(samples))


# ---------------------------------------------------------------------------
# bracket tables

@dataclass(frozen=True)
class BracketTable:
    """Local bracket: canonical (x,y) DeltaTerm lists for every ordered
    pair of generators, with coefficients in `alg`, each `scale` times
    the bracket's.  frozen_modular marks descended tables whose modular
    parameter is constant: their residuals are evaluated with all th
    jets set to zero.  Tables come from build_table and
    change_coordinates; dataclasses.replace with new entries from the
    same algebra keeps its Leibniz memo."""

    fields: tuple[str, ...]
    entries: dict
    frozen_modular: bool = False
    scale: int = 1
    alg: _RingAlgebra = dataclasses.field(kw_only=True, compare=False,
                                          repr=False)

    def entry(self, a: str, b: str) -> tuple[DeltaTerm, ...]:
        try:
            return self.entries[(a, b)]
        except KeyError:
            raise UnknownFieldError(f"no bracket entry for ({a}, {b})")

    def order(self) -> int:
        return max((t.orders[0] for e in self.entries.values() for t in e),
                   default=0)


def transpose_entry(entry, alg) -> tuple[DeltaTerm, ...]:
    """Canonical (x,y) form of {b(x), a(y)} swapped to {b(y), a(x)}; the
    entry's values are elements of `alg`."""
    raw = [_RawTerm((("y", t.value),), (("y", "x", t.orders[0]),))
           for t in entry]
    return canonicalize(raw, alg=alg).terms


def _integral(parts):
    """(L, [L c / d]) for pairs (c, d) of an element and a positive
    integer, L the least positive integer that leaves no ground
    denominator in any L c / d."""
    reduced = []
    for c, d in parts:
        if isinstance(c, FracElement):
            if not c.denom.is_ground:
                reduced.append((c / d if d != 1 else c, 1))
                continue
            c, d = c.numer, d * c.denom.LC
        if d != 1:
            g = gcd(d, c.content())
            c, d = c.quo_ground(g), d // g
        reduced.append((c, d))
    L = lcm(*(d for _, d in reduced))
    return L, [c * (L // d) for c, d in reduced]


def build_table(fields, given, frozen_modular: bool = False,
                constants=()) -> BracketTable:
    """Complete a partially given table by antisymmetry.

    `given` maps ordered pairs (a, b) to lists of (coeff, order), each
    coefficient an Expr or a polynomial over QQ in the g basis; every
    missing transpose (b, a) is filled in as -{a(x), b(y)} with the
    points exchanged and recanonicalized.  The table's algebra is built
    here, from the given coefficients, the fields and the x-constants
    `constants` (symbols with zero x-derivative besides u and v); the
    table stores its entries times the least common denominator of
    their h-basis coefficients, its scale.
    """
    alg = _table_algebra([c for terms in given.values() for c, _ in terms],
                         [m for terms in given.values() for _, m in terms],
                         fields, constants, frozen_modular)
    keys = [(key, m) for key, terms in given.items() for _, m in terms]
    scale, vals = _integral(alg.lift(c) for terms in given.values()
                            for c, _ in terms)
    entries = {key: () for key in given}
    for (key, m), c in zip(keys, vals):
        if c:
            entries[key] += (DeltaTerm(c, (m,)),)
    for (a, b) in list(entries):
        if (b, a) not in entries:
            neg = tuple(DeltaTerm(-t.value, t.orders) for t in entries[(a, b)])
            entries[(b, a)] = transpose_entry(neg, alg=alg)
    for a, b in itertools.product(fields, repeat=2):
        entries.setdefault((a, b), ())
    return BracketTable(fields=tuple(fields), entries=entries,
                        frozen_modular=frozen_modular, scale=scale, alg=alg)


def _element(table: BracketTable, E):
    """E in the table's algebra; UnknownFieldError for a symbol that is
    neither a jet of the table's fields nor a leaf or x-constant."""
    if isinstance(E, (PolyElement, FracElement)):
        return E
    E = sp.sympify(E)
    for s in E.free_symbols:
        kind = _kind(s, table.fields, table.alg.constants)
        if kind is None or (isinstance(kind, tuple)
                            and kind[0] not in table.fields):
            raise UnknownFieldError(f"expression references {s}, which is "
                                    "no jet of the table's fields")
    return table.alg.conv(E)


def _partials(alg, E, fields):
    """Nonzero partials of the element E with respect to the field jets.
    The order-0 partial of the modular field picks up the chain through
    g1, g2, g3 (and the other tau-dependent leaves) on top of any literal
    th generator."""
    out = []
    mod = alg.R.zero
    for i in sorted(alg.support(E)):
        info = alg.jets[i]
        if info is None:
            continue
        f, k = info
        if f not in fields:
            raise UnknownFieldError(f"expression references unknown field {f}")
        d = alg.diff(E, i)
        if (f, k) == (sx.MODULAR_FIELD, 0):
            mod = d
        elif d:
            out.append((f, k, d))
    if sx.MODULAR_FIELD in fields:
        a, b = _field_first(mod, alg.dth(E))
        d = a + b
        if d:
            out.append((sx.MODULAR_FIELD, 0, d))
    return out


def leibniz_bracket(table: BracketTable, a: str, E) -> DistPoly:
    """{a(x), E(y)} for a differential expression E in the table fields
    (a sympy Expr or an element of the table's algebra), canonicalized on
    (x, y) with coefficients at x, at the table's scale.  Memoized in the
    table's algebra on (a, E, row a): triple-bracket assembly re-derives
    the same pairs constantly, and a table that differs in other rows
    shares them."""
    if a not in table.fields:
        raise UnknownFieldError(f"unknown generator {a}")
    alg = table.alg
    key = (a, E, table.fields, table.scale,
           tuple(table.entries.get((a, f), ()) for f in table.fields))
    hit = alg.memo.get(key)
    if hit is not None:
        return hit
    raw = []
    for f, k, dE in _partials(alg, _element(table, E), table.fields):
        if k % 2:
            dE = -dE
        for t in table.entry(a, f):
            # d^k/dy^k delta^(m)(x-y) = (-1)^k delta^(m+k)(x-y)
            raw.append(_RawTerm((("x", t.value), ("y", dE)),
                                (("x", "y", t.orders[0] + k),)))
    out = DistPoly(canonicalize(raw, alg=alg).terms, table.scale)
    alg.memo[key] = out
    return out


def bracket_of_functions(table: BracketTable, F, G) -> DistPoly:
    """{F(x), G(y)} for differential expressions F, G in the table
    fields, at the table's scale."""
    alg = table.alg
    pF = _partials(alg, _element(table, F), table.fields)
    pG = _partials(alg, _element(table, G), table.fields)
    raws = []
    for f, k, dF in pF:
        for g, l, dG in pG:
            if l % 2:
                dG = -dG
            for t in table.entry(f, g):
                m = t.orders[0]
                c = t.value
                # d^k/dx^k d^l/dy^l [C(x) delta^(m)(x-y)]
                for i in range(k + 1):
                    raws.append(_RawTerm(
                        (("x", dF * comb(k, i)), ("x", c), ("y", dG)),
                        (("x", "y", m + l + k - i),)))
                    if i < k:
                        c = alg.dx(c)
    return DistPoly(canonicalize(raws, alg=alg).terms, table.scale)


def antisymmetry_defect(table: BracketTable, a: str, b: str) -> DistPoly:
    """{a(x), b(y)} + {b(y), a(x)}; identically zero for a bracket."""
    raw = [_RawTerm((("x", t.value),), (("x", "y", t.orders[0]),))
           for t in table.entry(a, b)]
    raw += [_RawTerm((("y", t.value),), (("y", "x", t.orders[0]),))
            for t in table.entry(b, a)]
    return DistPoly(canonicalize(raw, alg=table.alg).terms, table.scale)


def _cyclic_term(table: BracketTable, outer: str, inner: tuple[str, str],
                 points: tuple[str, str, str]) -> list[_RawTerm]:
    """Raw terms of {outer(p0), {inner[0](p1), inner[1](p2)}}."""
    p0, p1, p2 = points
    raws = []
    for t in table.entry(*inner):
        m = t.orders[0]
        for s_term in leibniz_bracket(table, outer, t.value).terms:
            raws.append(_RawTerm(
                ((p0, s_term.value),),
                ((p0, p1, s_term.orders[0]), (p1, p2, m))))
    return raws


def jacobi_defect(table: BracketTable, a: str, b: str, c: str) -> DistPoly:
    """Cyclic sum {a(x),{b(y),c(w)}} + {b(y),{c(w),a(x)}} +
    {c(w),{a(x),b(y)}} in the canonical three-point basis."""
    raws = []
    raws += _cyclic_term(table, a, (b, c), ("x", "y", "w"))
    raws += _cyclic_term(table, b, (c, a), ("y", "w", "x"))
    raws += _cyclic_term(table, c, (a, b), ("w", "x", "y"))
    return DistPoly(canonicalize(raws, alg=table.alg).terms, table.scale ** 2)


def jacobi_triples(fields) -> list[tuple[str, str, str]]:
    """Unordered generator triples (with repetition); by antisymmetry the
    cyclic Jacobi sum of any ordered triple is +/- one of these."""
    return list(itertools.combinations_with_replacement(fields, 3))


# ---------------------------------------------------------------------------
# coordinate changes

def _compose(p, images: dict, K, powers: dict):
    """The polynomial p (of some algebra) with generator i replaced by
    images[i], an element of K; powers caches images[i]**e."""
    out = K.R.zero
    get, zero = out.get, K.R.domain.zero
    fractions = []
    for monom, coeff in p.items():
        term = K.R(coeff)
        for i, e in enumerate(monom):
            if e:
                pw = powers.get((i, e))
                if pw is None:
                    pw = powers[(i, e)] = images[i] ** e
                a, b = _field_first(term, pw)
                term = a * b
        if isinstance(term, FracElement):
            fractions.append(term)
            continue
        for m, c in term.items():
            out[m] = get(m, zero) + c
    out.strip_zero()
    for f in fractions:
        out = f + out
    return out


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

    The substitution is a homomorphism from the table's algebra into a
    fraction field K over the new and auxiliary jets: each old jet goes
    to the prolonged inverse, each modular jet to zero when freezing, and
    every other generator to itself.  The images over the table's scale
    get the new table's own scale.
    """
    new_fields = tuple(forward)
    if frozen_modular is None:
        frozen_modular = table.frozen_modular
    dps = {(a, b): bracket_of_functions(table, forward[a], forward[b])
           for a, b in itertools.product(new_fields, repeat=2)}

    old = table.alg
    inverse = {f: sp.sympify(e) for f, e in inverse.items()}
    used = set().union(*(old.support(t.value) for dp in dps.values()
                         for t in dp.terms))
    depth = max((old.jets[i][1] for i in used
                 if old.jets[i] and old.jets[i][0] in inverse), default=0)
    zeroed = {i for i in used if frozen_modular and old.jets[i]
              and old.jets[i][0] == sx.MODULAR_FIELD}
    kept = [old.gsyms[i] for i in used - zeroed
            if not (old.jets[i] and old.jets[i][0] in inverse)]
    # K reads every symbol that is no constant or leaf as a jet, by the
    # naming rule: the new and auxiliary fields are those of the inverse
    K = _RingAlgebra(_ring_symbols(list(inverse.values()) + kept, depth, None,
                                   old.constants, frozen_modular),
                     None, frozen_modular, old.constants)
    images = {i: K.R.zero for i in zeroed}
    images.update({i: K.R.gens[K.index[old.syms[i]]]
                   for i in used if old.gsyms[i] in kept})
    for f, e in inverse.items():
        cur = K.conv(e)
        for k in range(depth + 1):
            i = old.index.get(sx.jet(f, k))
            if i is not None:
                images[i] = cur
            if k < depth:
                cur = K.dx(cur)

    bad = {i for i, info in enumerate(K.jets) if info and info[0] in eliminate}
    powers: dict = {}
    composed = {}
    for (a, b), dp in dps.items():
        terms = []
        for t in dp.terms:
            v = t.value
            if isinstance(v, FracElement):
                c = (K.F(_compose(v.numer, images, K, powers))
                     / K.F(_compose(v.denom, images, K, powers)))
            else:
                c = _compose(v, images, K, powers)
            if K.support(c) & bad:
                raise StructureError(
                    f"coefficient of ({a},{b}) at order {t.orders} does not "
                    f"close on the new fields: "
                    f"{sx.render(K.g_basis(c, dp.scale))}")
            if c:
                terms.append((c, t.orders))
        composed[(a, b)] = terms

    seeds = {K.gsyms[i] for terms in composed.values() for c, _ in terms
             for i in K.support(c)}
    alg = _table_algebra(seeds, [orders[0] for terms in composed.values()
                                 for _, orders in terms],
                         new_fields, old.constants, frozen_modular)
    scale, vals = _integral((c, table.scale) for terms in composed.values()
                            for c, _ in terms)
    vals = iter(vals)

    def transfer(c):
        if isinstance(c, FracElement):
            return alg.F.raw_new(c.numer.set_ring(alg.R),
                                 c.denom.set_ring(alg.R))
        return c.set_ring(alg.R)

    entries = {key: tuple(DeltaTerm(transfer(next(vals)), orders)
                          for _, orders in terms)
               for key, terms in composed.items()}
    return BracketTable(fields=new_fields, entries=entries,
                        frozen_modular=frozen_modular, scale=scale, alg=alg)
