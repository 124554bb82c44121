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
when the table is: a sparse polynomial ring and its fraction field.  All
arithmetic on the table stays in it; sympy ``Expr`` appears only where
coefficients come in (`build_table`, expression arguments) and through
the ``DeltaTerm.coeff`` view.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np
import sympy as sp
from sympy.polys.fields import FracElement
from sympy.polys.rings import PolyElement

from . import symexpr as sx
from .errors import (ClosureError, StructureError, UnboundSymbolError,
                     UnknownFieldError)

_POINT_INDEX = {"x": 0, "y": 1, "w": 2}


def _as_expr(c) -> sp.Expr:
    """sympy view of a coefficient held as a ring or field element."""
    if isinstance(c, sp.Basic):
        return c
    if isinstance(c, FracElement):
        return sp.expand(c.as_expr())
    return c.as_expr()


@dataclass(frozen=True)
class DeltaTerm:
    """One canonical term: coefficient (jets at x) times a product of
    delta derivatives; orders=(m,) two-point, orders=(p,q) three-point
    for delta^(p)(x-y) delta^(q)(x-w).  `value` is the coefficient in
    its table's algebra, `coeff` the same coefficient as a sympy Expr."""

    value: object
    orders: tuple[int, ...]

    @functools.cached_property
    def coeff(self) -> sp.Expr:
        return _as_expr(self.value)


@dataclass(frozen=True)
class DistPoly:
    """Canonicalized distribution: merged terms, zero coefficients gone."""

    terms: tuple[DeltaTerm, ...]

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
    """Coefficient arithmetic in a sparse polynomial ring over QQ and its
    fraction field (elements are ring elements while they are
    polynomial), with the total x-derivative and d/dth built in; each
    generator is read once, by _kind, and one outside the alphabet is a
    ClosureError.  With `frozen` the modular parameter is a constant: g1,
    g2, g3, the other tau-dependent leaves and the modular jets T, T_x,
    ... all have zero x-derivative.  `memo` holds the Leibniz brackets of
    every table that shares this algebra, keyed on the row they read."""

    def __init__(self, syms, fields, frozen: bool, constants=()):
        self.F, *_ = sp.field(syms, sp.QQ)
        self.R = self.F.ring
        self.syms = tuple(syms)
        self.index = {s: i for i, s in enumerate(self.syms)}
        self.constants = frozenset(constants)
        kinds = [_kind(s, fields, self.constants) for s in self.syms]
        self.jets = [k if isinstance(k, tuple) else None for k in kinds]
        self.memo: dict = {}
        # x-derivative of each generator: the index of the next jet, the
        # terms of a polynomial image, or None past the prolongation depth
        self._img: list = []
        # d/dth of the tau-dependent leaves
        self._dth: dict[int, object] = {}
        T = self.index.get(sx.T)
        for i, s in enumerate(self.syms):
            info = self.jets[i]
            if info is not None:
                f, k = info
                if frozen and f == sx.MODULAR_FIELD:
                    self._img.append(())
                else:
                    self._img.append(self.index.get(sx.jet(f, k + 1)))
            elif kinds[i] == "constant":
                self._img.append(())
            elif kinds[i] is None:
                raise ClosureError(f"no derivative rewrite for leaf {s}")
            else:
                self._dth[i] = self.R.from_expr(sx.DTAU_RULES[s])
                self._img.append(() if frozen else tuple(
                    (self._dth[i] * self.R.gens[T]).items()))

    def conv(self, e):
        """An Expr, or a polynomial over QQ, as an element: a ring element
        when it is polynomial.  ClosureError for anything that is not a
        rational function over QQ in the generators, floats included."""
        if not isinstance(e, PolyElement):
            e = sp.sympify(e)
        syms = _free_symbols(e)
        if not syms <= self.index.keys():
            missing = sorted(map(str, syms - self.index.keys()))
            raise ClosureError(f"{missing} are not generators of the "
                               "coefficient ring")
        if isinstance(e, PolyElement):
            if e.ring.domain == sp.QQ:
                return e.set_ring(self.R)
        elif not e.has(sp.Float):
            for dom in (self.R, self.F):
                try:
                    return dom.from_expr(e)
                except ValueError:
                    pass
        raise ClosureError(f"{e} is not a rational function over QQ")

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
        out = self.R.zero
        for i in self.support(p):
            rule = self._dth.get(i)
            if rule is not None:
                out = out + self.diff(p, i) * rule
        return out


def _merge(fac: dict, p: str, c) -> dict:
    fac = dict(fac)
    fac[p] = fac[p] * c if p in fac else c
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
        return sum((c * s for s, c in parts), alg.R.zero)
    acc = alg.R.zero
    get, zero = acc.get, alg.R.domain.zero
    for s, c in parts:
        for m, v in c.items():
            acc[m] = get(m, zero) + (v if s == 1 else v * s)
    acc.strip_zero()
    return acc


def _values(p, samples):
    """The element p at each sample, from its exponents and QQ
    coefficients; a fraction as numerator over denominator."""
    if isinstance(p, FracElement):
        return _values(p.numer, samples) / _values(p.denom, samples)
    monoms, coeffs = zip(*p.terms())
    E = np.array(monoms)
    used = np.flatnonzero(E.any(axis=0))
    syms = [p.ring.symbols[i] for i in used]
    try:
        V = np.array([[s[g] for g in syms] for s in samples], dtype=complex)
    except KeyError as e:
        raise UnboundSymbolError(f"no value for {e.args[0]}") from None
    monos = np.prod(V[:, None, :] ** E[:, used], axis=2)
    return np.sum(monos * np.array(coeffs, dtype=float), axis=1)


def evaluate_distpoly(dp: DistPoly, samples) -> np.ndarray:
    """Coefficients at jet samples ({symbol: complex}), terms x samples;
    UnboundSymbolError when a sample misses a generator of the support."""
    return np.array([_values(t.value, samples) for t in dp.terms],
                    dtype=complex).reshape(len(dp.terms), len(samples))


# ---------------------------------------------------------------------------
# bracket tables

@dataclass(frozen=True)
class BracketTable:
    """Local bracket: canonical (x,y) DeltaTerm lists for every ordered
    pair of generators, with coefficients in `alg`.  frozen_modular marks
    descended tables whose modular parameter is constant: their residuals
    are evaluated with all th jets set to zero.  Tables come from
    build_table and change_coordinates; dataclasses.replace with new
    entries from the same algebra keeps its Leibniz memo."""

    fields: tuple[str, ...]
    entries: dict
    frozen_modular: bool = False
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


def build_table(fields, given, frozen_modular: bool = False,
                constants=()) -> BracketTable:
    """Complete a partially given table by antisymmetry.

    `given` maps ordered pairs (a, b) to lists of (coeff, order), each
    coefficient an Expr or a polynomial over QQ; every missing transpose
    (b, a) is filled in as -{a(x), b(y)} with the points exchanged and
    recanonicalized.  The table's algebra is built here, from the given
    coefficients, the fields and the x-constants `constants` (symbols
    with zero x-derivative besides u and v).
    """
    alg = _table_algebra([c for terms in given.values() for c, _ in terms],
                         [m for terms in given.values() for _, m in terms],
                         fields, constants, frozen_modular)
    entries = {}
    for (a, b), terms in given.items():
        vals = ((alg.conv(c), m) for c, m in terms)
        entries[(a, b)] = tuple(DeltaTerm(c, (m,)) for c, m in vals if c)
    for (a, b) in list(entries):
        if (b, a) not in entries:
            neg = tuple(DeltaTerm(-t.value, t.orders) for t in entries[(a, b)])
            entries[(b, a)] = transpose_entry(neg, alg=alg)
    for a, b in itertools.product(fields, repeat=2):
        entries.setdefault((a, b), ())
    return BracketTable(fields=tuple(fields), entries=entries,
                        frozen_modular=frozen_modular, alg=alg)


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
        d = mod + alg.dth(E)
        if d:
            out.append((sx.MODULAR_FIELD, 0, d))
    return out


def leibniz_bracket(table: BracketTable, a: str, E) -> DistPoly:
    """{a(x), E(y)} for a differential expression E in the table fields
    (a sympy Expr or an element of the table's algebra), canonicalized on
    (x, y) with coefficients at x.  Memoized in the table's algebra on
    (a, E, row a): triple-bracket assembly re-derives the same pairs
    constantly, and a table that differs in other rows shares them."""
    if a not in table.fields:
        raise UnknownFieldError(f"unknown generator {a}")
    alg = table.alg
    key = (a, E, table.fields,
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
    out = canonicalize(raw, alg=alg)
    alg.memo[key] = out
    return out


def bracket_of_functions(table: BracketTable, F, G) -> DistPoly:
    """{F(x), G(y)} for differential expressions F, G in the table fields."""
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
    return canonicalize(raws, alg=alg)


def antisymmetry_defect(table: BracketTable, a: str, b: str) -> DistPoly:
    """{a(x), b(y)} + {b(y), a(x)}; identically zero for a bracket."""
    raw = [_RawTerm((("x", t.value),), (("x", "y", t.orders[0]),))
           for t in table.entry(a, b)]
    raw += [_RawTerm((("y", t.value),), (("y", "x", t.orders[0]),))
            for t in table.entry(b, a)]
    return canonicalize(raw, alg=table.alg)


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
    return canonicalize(raws, alg=table.alg)


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
                term = term * pw
        if isinstance(term, FracElement):
            fractions.append(term)
            continue
        for m, c in term.items():
            out[m] = get(m, zero) + c
    out.strip_zero()
    return sum(fractions, out)


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
    every other generator to itself.
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
    kept = [old.syms[i] for i in used - zeroed
            if not (old.jets[i] and old.jets[i][0] in inverse)]
    # K reads every symbol that is no constant or leaf as a jet, by the
    # naming rule: the new and auxiliary fields are those of the inverse
    K = _RingAlgebra(_ring_symbols(list(inverse.values()) + kept, depth, None,
                                   old.constants, frozen_modular),
                     None, frozen_modular, old.constants)
    images = {i: K.R.zero for i in zeroed}
    images.update({i: K.R.gens[K.index[old.syms[i]]]
                   for i in used if old.syms[i] in kept})
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
            if isinstance(c, FracElement) and c.denom.is_ground:
                c = c.numer.quo_ground(c.denom.LC)
            if K.support(c) & bad:
                raise StructureError(
                    f"coefficient of ({a},{b}) at order {t.orders} does not "
                    f"close on the new fields: {_as_expr(c)}")
            if c:
                terms.append((c, t.orders))
        composed[(a, b)] = terms

    seeds = {K.syms[i] for terms in composed.values() for c, _ in terms
             for i in K.support(c)}
    alg = _table_algebra(seeds, [orders[0] for terms in composed.values()
                                 for _, orders in terms],
                         new_fields, old.constants, frozen_modular)

    def transfer(c):
        if isinstance(c, FracElement):
            return alg.F.raw_new(c.numer.set_ring(alg.R),
                                 c.denom.set_ring(alg.R))
        return c.set_ring(alg.R)

    entries = {key: tuple(DeltaTerm(transfer(c), orders)
                          for c, orders in terms)
               for key, terms in composed.items()}
    return BracketTable(fields=new_fields, entries=entries,
                        frozen_modular=frozen_modular, alg=alg)
