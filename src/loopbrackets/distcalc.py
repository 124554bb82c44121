"""Formal delta-distribution calculus on one, two and three points.

A local bracket is stored as a :class:`BracketTable`: for each ordered
pair of generators, a list of :class:`DeltaTerm` whose coefficients are
differential polynomials anchored at the first point x.  The Leibniz
extension {a(x), E(y)} and the triple brackets of Jacobi are built as
raw multi-point terms and pushed to the canonical basis

    coeff(x) * delta^(p)(x-y) * delta^(q)(x-w)

by rewrite rules applied to a fixpoint:

  R1  delta^(k)(b-a) = (-1)^k delta^(k)(a-b)
  R2  f(y) delta^(m)(x-y) = sum_j binom(m,j) f^(j)(x) delta^(m-j)(x-y)
  R3  delta^(m)(x-y) delta^(n)(y-w)
        = sum_j binom(m,j) delta^(m-j)(x-y) delta^(n+j)(x-w)
  R3' delta^(m)(x-w) delta^(n)(y-w)
        = (-1)^n sum_j binom(m,j) delta^(n+j)(x-y) delta^(m-j)(x-w)

R3' is R1 on delta^(n)(y-w), then R3 on the chain x-w-y, and canonicalize
applies it that way; all four are validated against direct pairings with
polynomial test functions in the test suite.  A bracket of two
expressions {F(x), G(y)} (bracket_of_functions) makes no raw terms: it
is the sum over the partials dF/d(f^(k)) of dF(x) d^k/dx^k {f(x), G(y)},
each Leibniz bracket read from the memo and differentiated by
d/dx [C(x) delta^(m)(x-y)] = C'(x) delta^(m)(x-y) + C(x) delta^(m+1)(x-y).

Every table owns one coefficient algebra (:class:`_RingAlgebra`), built
when the table is: sparse polynomials over ZZ in the basis h2 = g2/12,
h3 = g3/2 of the quasi-modular leaves and hdwp = dwp/2 of the odd
Weierstrass leaves at u and v.  There every tau- and spectral-derivative
rule has integer coefficients, among them

    dg1 = h2 - g1^2,  dh2 = h3 - 4 g1 h2,  dh3 = 24 h2^2 - 6 g1 h3,

so every coefficient is an integer and no rational arithmetic runs.  A
table stores L times its entries, L (`scale`) the least common
denominator of its entries in that basis.  A bracket is homogeneous in
the table, of degree 1 for antisymmetry and Leibniz and 2 for Jacobi, so
a defect is zero exactly when it is zero at scale L, and its value is
the stored one over L or L^2 (`DistPoly.scale`).

An element (:class:`PackedPoly`) is a dict {monomial: coefficient} whose
monomials are packed exponent vectors (Monagan and Pearce, CASC 2007):
one int with an 8-bit field per generator, generator 0 in the most
significant field, so that integer order is the lex order of the
exponent vectors and a product of monomials is one integer addition.
The x-derivative of a jet adds a precomputed integer, and each
monomial's derivative is memoised on its algebra.  A multiplication
whose total degree would pass 255, the largest exponent a field holds,
raises ExponentOverflowError instead of carrying into the next field.
A fraction is a numerator over one packed monomial, which is all that
z_f / z_den in the descent and the coordinate changes need; any other
denominator is a ClosureError.  All arithmetic on a table stays in its
algebra, and no sympy polynomial ring is built.  sympy ``Expr`` and the
g basis appear only where coefficients come in (`build_table`,
expression arguments), each walked into an element by
`_RingAlgebra.lift`, and where values leave, all through
`_RingAlgebra.g_terms` (`as_expr`, `render`, evaluation).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from math import comb, gcd, lcm, prod
from operator import itemgetter

import numpy as np
import sympy as sp
from sympy.core.sympify import CantSympify

from . import symexpr as sx
from .errors import (ClosureError, ExponentOverflowError, ExtractionError,
                     StructureError, UnboundSymbolError, UnknownFieldError)

_POINT_INDEX = {"x": 0, "y": 1, "w": 2}

# the integral basis {g: (h, weight)}: g2 = 12 h2, g3 = 2 h3, dwp = 2 hdwp
_H_BASIS = {sx.g2: (sp.Symbol("h2"), 12), sx.g3: (sp.Symbol("h3"), 2),
            sx.dwpu: (sp.Symbol("hdwpu"), 2), sx.dwpv: (sp.Symbol("hdwpv"), 2)}

# bits per packed exponent; a total degree up to _MAX_DEGREE fits every field
_BITS = 8
_MAX_DEGREE = (1 << _BITS) - 1
_SCALARS = (int, type(sp.QQ.one))


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
    """The symbols of an Expr, or the g-basis generators an element
    depends on."""
    if isinstance(e, PackedPoly):
        return {e.ring.gsyms[i] for i in e.ring.support(e)}
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
    """The algebra of a table whose coefficients have the leaves and jets
    of `seeds` and delta orders `orders`.  With delta orders up to N and
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


def _fits(deg: int) -> int:
    """deg, a total degree; ExponentOverflowError past the packing bound."""
    if deg > _MAX_DEGREE:
        raise ExponentOverflowError(
            f"total degree {deg} exceeds the packing bound {_MAX_DEGREE}")
    return deg


def _integral(c, d: int):
    """(c', d') with c' / d' = c / d for an element c and a positive
    integer d: c' with integer coefficients, d' the least positive
    integer that allows."""
    q = lcm(*(v.denominator for v in c.values()))
    num = {m: v.numerator * (q // v.denominator) for m, v in c.items()}
    g = gcd(d * q, *num.values())
    return (c.ring._new({m: v // g for m, v in num.items()}, c.deg, c.den),
            d * q // g)


class PackedPoly(dict, CantSympify):
    """An element of a _RingAlgebra (`ring`, set on the algebra's own
    subclass): {packed monomial: coefficient} over `den`, a packed
    monomial (0 for a polynomial).  `deg` bounds the total degree of the
    numerator.  Built once and never changed, so it hashes, and caches
    its hash: the Leibniz memo keys on elements."""

    __slots__ = ("deg", "den", "_hash")
    ring: _RingAlgebra

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((frozenset(self.items()), self.den))
            return h

    def _operand(self, other):
        """other as an element of this algebra; None for a foreign type."""
        if type(other) is type(self):
            return other
        return self.ring.const(other) if isinstance(other, _SCALARS) else None

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and dict.__eq__(self, other)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __add__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self.ring._add(
            self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self.ring._add(
            self, other, -1)

    def __neg__(self):
        return self.ring._new({m: -c for m, c in self.items()}, self.deg,
                              self.den)

    def __mul__(self, other):
        if type(other) is type(self):
            return self.ring._mul(self, other)
        if not isinstance(other, _SCALARS):
            return NotImplemented
        if not other:
            return self.ring.zero
        return self.ring._new({m: c * other for m, c in self.items()},
                              self.deg, self.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, _SCALARS) or not other:
            return NotImplemented
        if other == 1:
            return self
        return self * (sp.QQ.one / other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out, base = self.ring.one, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def as_expr(self):
        """The value of the element, an Expr in the g basis."""
        ring = self.ring

        def expr(p):
            return sp.Add(*(sp.Rational(num, den) * sp.Mul(
                *(s ** e for s, e in zip(ring.gsyms, u) if e))
                for u, num, den in ring.g_terms(p)))

        num, den = map(expr, ring.fraction(self))
        return num / den


class _RingAlgebra:
    """Coefficient arithmetic on PackedPoly elements over the generators
    `syms`, with the total x-derivative and d/dth built in; each
    generator is read once, by _kind, and one outside the alphabet is a
    ClosureError.

    It is built from g-basis symbols (`gsyms`) and computes over ZZ in
    the basis of _H_BASIS (`syms`, generator for generator): h2 = g2/12,
    h3 = g3/2, hdwpu = dwpu/2, hdwpv = dwpv/2, where every leaf rule is
    integral.  A rule table becomes a derivation by `derivation`, which
    `derive` applies; d/dth is the one of DTAU_RULES.  Generator i is the
    exponent field at bit 8 (len(syms) - 1 - i) of a packed monomial; a
    product whose total degree would pass 255 raises
    ExponentOverflowError, and a fraction is a numerator over one packed
    monomial.  Elements come in by `lift` or `conv`, from an Expr (by
    `_walk`) or from another algebra, and their values go out by
    `g_terms` alone: g-basis exponents (the same as here, generator for
    generator) and exact coefficients as integer pairs num / den.
    With `frozen` the modular parameter is a constant: g1, g2, g3, the
    other tau-dependent leaves and the modular jets T, T_x, ... all have
    zero x-derivative.  `memo` holds the Leibniz brackets of every table
    that shares this algebra, keyed on the row they read."""

    def __init__(self, syms, fields, frozen: bool, constants=()):
        self.gsyms = tuple(syms)
        self.names = tuple(s.name for s in self.gsyms)
        self.constants = frozenset(constants)
        kinds = [_kind(s, fields, self.constants) for s in self.gsyms]
        for s, kind in zip(self.gsyms, kinds):
            if kind is None:
                raise ClosureError(f"no derivative rewrite for leaf {s}")
        self.syms = tuple(_H_BASIS.get(s, (s,))[0] for s in self.gsyms)
        self._hpos = [(i, _H_BASIS[s][1]) for i, s in enumerate(self.gsyms)
                      if s in _H_BASIS]
        self.index = {s: i for i, s in enumerate(self.syms)}
        self.jets = [k if isinstance(k, tuple) else None for k in kinds]
        self.memo: dict = {}
        self.dtype = type("PackedPoly", (PackedPoly,),
                          {"__slots__": (), "ring": self})
        self._nbytes = len(self.syms)
        self._unit = [1 << _BITS * (self._nbytes - 1 - i)
                      for i in range(self._nbytes)]
        self.zero = self._new({}, 0)
        self.one = self._new({0: 1}, 0)
        self._g_gens = {s: self._new({u: _H_BASIS.get(s, (s, 1))[1]}, 1)
                        for s, u in zip(self.gsyms, self._unit)}
        self._dth = self.derivation(sx.DTAU_RULES)
        # x-derivative of each generator: the integer that turns it into
        # the next jet, the terms of a polynomial image over it, or None
        # past the prolongation depth; and each monomial's derivative
        self._img: list = []
        self._dxm: dict = {}
        self._dx_grow = 0
        for i, info in enumerate(self.jets):
            if info is not None:
                f, k = info
                j = self.index.get(sx.jet(f, k + 1))
                if frozen and f == sx.MODULAR_FIELD:
                    self._img.append(())
                else:
                    self._img.append(None if j is None
                                     else self._unit[j] - self._unit[i])
            elif kinds[i] == "constant" or frozen:
                self._img.append(())
            else:
                img = self._dth[i] * self.gen(sx.T)
                self._dx_grow = max(self._dx_grow, self._degree(img) - 1)
                self._img.append(tuple((m - self._unit[i], c)
                                       for m, c in img.items()))

    # -- packing --------------------------------------------------------

    def _unpack(self, m: int) -> bytes:
        """The exponents of the packed monomial m, generator 0 first."""
        return m.to_bytes(self._nbytes, "big")

    def _pack(self, exponents) -> int:
        try:
            return int.from_bytes(bytes(exponents), "big")
        except ValueError:
            raise ExponentOverflowError(f"an exponent exceeds the packing "
                                        f"bound {_MAX_DEGREE}") from None

    def _degree(self, p) -> int:
        """The total degree of the numerator of p (of the monomial p)."""
        if isinstance(p, int):
            return sum(self._unpack(p))
        return max((sum(self._unpack(m)) for m in p), default=0)

    def _weight(self, monom) -> int:
        """The factor a g-basis monomial (its exponents) picks up in the h
        basis."""
        return prod(w ** monom[i] for i, w in self._hpos)

    # -- construction ---------------------------------------------------

    def _new(self, terms: dict, deg: int, den: int = 0) -> PackedPoly:
        p = self.dtype(terms)
        p.deg, p.den = deg, den
        return p

    def _strip(self, p: PackedPoly, deg: int) -> PackedPoly:
        """p, filled in place, without its zero terms."""
        for m in [m for m, c in p.items() if not c]:
            del p[m]
        p.deg, p.den = deg, 0
        return p

    def _frac(self, p: PackedPoly, den: int) -> PackedPoly:
        """The numerator p (zero terms allowed) over the monomial den, with
        their common monomial factor cancelled."""
        p = self._strip(self.dtype(p), 0)
        if p and den:
            g = self._pack(map(min, *map(self._unpack, (den, *p))))
            if g:
                p = self.dtype({m - g: c for m, c in p.items()})
                den -= g
        else:
            den = 0
        p.deg, p.den = self._degree(p), den
        return p

    def const(self, c) -> PackedPoly:
        return self._new({0: c} if c else {}, 0)

    def gen(self, s) -> PackedPoly:
        """The generator for the symbol s."""
        return self._new({self._unit[self.index[s]]: 1}, 1)

    def monomial(self, m: int) -> PackedPoly:
        return self._new({m: 1}, self._degree(m))

    def fraction(self, p):
        """(numerator, denominator) of p as elements."""
        return self._new(p, p.deg), self.monomial(p.den)

    def inverse(self, p) -> PackedPoly:
        """1/p for p one term over a monomial; ClosureError for anything
        else: a denominator must be a monomial."""
        if len(p) != 1:
            raise ClosureError(f"denominator {p.as_expr()} is not a monomial")
        (m, c), = p.items()
        return self._frac(self._new({p.den: c if c in (1, -1)
                                     else sp.QQ.one / c}, 0), m)

    # -- arithmetic -----------------------------------------------------

    def _add(self, a, b, sign: int) -> PackedPoly:
        """a + sign * b."""
        if a.den or b.den:
            den = self._pack(map(max, self._unpack(a.den),
                                 self._unpack(b.den)))
            a = self.fraction(a)[0] * self.monomial(den - a.den)
            b = self.fraction(b)[0] * self.monomial(den - b.den)
            return self._frac(self._add(a, b, sign), den)
        out = self.dtype(a)
        get = out.get
        if sign == 1:
            for m, c in b.items():
                out[m] = get(m, 0) + c
        else:
            for m, c in b.items():
                out[m] = get(m, 0) - c
        return self._strip(out, max(a.deg, b.deg))

    def _mul(self, a, b) -> PackedPoly:
        deg = _fits(a.deg + b.deg)
        den = 0
        if a.den or b.den:
            _fits(self._degree(a.den) + self._degree(b.den))
            den = a.den + b.den
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (ma, ca), = a.items()
            out = self._new({ma + mb: ca * cb for mb, cb in b.items()}, deg)
            return self._frac(out, den) if den else out
        out = self.dtype()
        get = out.get
        bi = b.items()
        for ma, ca in a.items():
            for mb, cb in bi:
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
        return self._frac(out, den) if den else self._strip(out, deg)

    def _dx_monomial(self, m: int) -> tuple:
        """The terms of the x-derivative of the monomial m, memoised."""
        out: dict = {}
        for i, e in enumerate(self._unpack(m)):
            if not e:
                continue
            img = self._img[i]
            if img is None:
                raise ClosureError(f"prolongation depth exceeded at "
                                   f"{self.syms[i]}")
            if type(img) is int:
                out[m + img] = out.get(m + img, 0) + e
                continue
            for d, c in img:
                out[m + d] = out.get(m + d, 0) + e * c
        terms = self._dxm[m] = tuple((k, c) for k, c in out.items() if c)
        return terms

    def dx(self, p) -> PackedPoly:
        """The total x-derivative."""
        if p.den:
            _fits(2 * self._degree(p.den))
            num, den = self.fraction(p)
            return self._frac(self.dx(num) * den - num * self.dx(den),
                              2 * p.den)
        memo = self._dxm
        out = self.dtype()
        get = out.get
        for m, c in p.items():
            img = memo.get(m)
            if img is None:
                img = self._dx_monomial(m)
            for mm, k in img:
                out[mm] = get(mm, 0) + c * k
        return self._strip(out, _fits(p.deg + self._dx_grow))

    def diff(self, p, i: int) -> PackedPoly:
        """Partial derivative in generator i."""
        if p.den:
            num, den = self.fraction(p)
            return self.diff(num, i) * self.inverse(den) - num * self.diff(
                den, i) * self.inverse(den * den)
        shift, unit = _BITS * (self._nbytes - 1 - i), self._unit[i]
        return self._new({m - unit: c * e for m, c in p.items()
                          if (e := (m >> shift) & _MAX_DEGREE)},
                         max(p.deg - 1, 0))

    def split(self, p, at, into=None) -> dict:
        """{exponents: group} with p = sum x^exponents group, for p a
        polynomial and x the generators at positions `at`: the exponents a
        tuple in the order of `at`, each group the terms of p with those
        fields cleared, of degree bound p.deg minus the exponents' sum.
        With `into` the groups move to that algebra by symbol; a generator
        neither at `at` nor in `into` is an ExtractionError."""
        if p.den:
            raise ClosureError("a fraction has no terms")
        mask = sum(_MAX_DEGREE * self._unit[i] for i in at)
        groups: dict = {}
        for m, c in p.items():
            k = m & mask
            groups.setdefault(k, {})[m ^ k] = c
        if into is not None:
            # i to j: shift left 8 (len(into.syms) - j + i), right 8 len(syms)
            moves: dict = {}
            kept = set(at)
            for i, s in enumerate(self.syms):
                j = into.index.get(s)
                if j is not None and i not in kept:
                    kept.add(i)
                    d = _BITS * (into._nbytes - j + i)
                    moves[d] = moves.get(d, 0) | _MAX_DEGREE * self._unit[i]
            stray = self.support(p) - kept
            if stray:
                raise ExtractionError(f"{self.gsyms[min(stray)]} survives in "
                                      "a structure constant")
            low = _BITS * self._nbytes
            groups = {k: {sum((m & w) << d for d, w in moves.items()) >> low: c
                          for m, c in t.items()} for k, t in groups.items()}
        get = itemgetter(*at) if len(at) > 1 else lambda e: tuple(e[i]
                                                                  for i in at)
        keys = {k: get(self._unpack(k)) for k in groups}
        return {keys[k]: (into or self)._new(t, p.deg - sum(keys[k]))
                for k, t in groups.items()}

    def support(self, p) -> set[int]:
        """Indices of the generators that p depends on."""
        acc = p.den
        for m in p:
            acc |= m
        return {i for i, e in enumerate(self._unpack(acc)) if e}

    def derivation(self, rules) -> dict:
        """The derivation given by `rules`, {g-basis symbol: Expr of its
        image}, on the generators here: {i: image of generator i}, the
        image of g / w for an h-basis generator (weight w) the rule over
        w, and none for a listed constant.  Converted once; `derive`
        applies it."""
        return {i: self.conv(rules[s], _H_BASIS.get(s, (s, 1))[1])
                for i, s in enumerate(self.gsyms)
                if s in rules and s not in self.constants}

    def derive(self, p, images) -> PackedPoly:
        """sum_i dp/dx_i images[i]: the derivation `images` on p."""
        return sum((self.diff(p, i) * images[i]
                    for i in self.support(p) & images.keys()), self.zero)

    def dth(self, p) -> PackedPoly:
        """d/dth through the tau-dependent leaves (DTAU_RULES)."""
        return self.derive(p, self._dth)

    # -- boundary -------------------------------------------------------

    def lift(self, e, w: int = 1):
        """(c, d) with c / d equal to e / w, e an Expr in the g basis or
        an element of any algebra and w a positive integer: c an element,
        d the least positive integer that leaves no ground denominator in
        c.  An Expr goes in by `_walk`, an element generator by generator
        (ClosureError for one that is no generator here)."""
        if not isinstance(e, PackedPoly):
            return _integral(self._walk(sp.sympify(e)), w)
        missing = _free_symbols(e) - set(self.gsyms)
        if missing:
            raise ClosureError(f"{sorted(map(str, missing))} are not "
                               "generators of the coefficient ring")
        images = {i: self.gen(s) for i, s in enumerate(e.ring.syms)
                  if s in self.index}
        return _integral(_compose(e, images, self, {}), w)

    def _walk(self, e) -> PackedPoly:
        """The element of the g-basis Expr e: a generator's symbol is the
        generator times its h weight, a Rational a constant, Add and Mul a
        sum and a product, an integer power a power (a negative one
        through `inverse`).  Anything else is a ClosureError."""
        if e.is_Symbol and e in self._g_gens:
            return self._g_gens[e]
        if e.is_Rational:
            return self.const(e.p if e.q == 1 else sp.QQ(e.p, e.q))
        if e.is_Add:
            return _sum(self, [(1, self._walk(a)) for a in e.args])
        if e.is_Mul:
            return prod(map(self._walk, e.args), start=self.one)
        if e.is_Pow and e.exp.is_Integer:
            base, n = self._walk(e.base), int(e.exp)
            return base ** n if n >= 0 else self.inverse(base) ** -n
        raise ClosureError(f"{e} is not a rational function of the generators")

    def conv(self, e, w: int = 1) -> PackedPoly:
        """lift(e, w) as one element, c / d."""
        c, d = self.lift(e, w)
        return c / d

    def g_terms(self, p, scale: int = 1) -> list:
        """The value p / scale of the polynomial p in the g basis, as
        [(exponents, num, den)]: the exponents of a term, generator 0
        first, and its exact coefficient num / den in lowest terms (den
        positive), the weight of its h-basis generators divided out.
        Every value that leaves the algebra is read here; a fraction as
        numerator and denominator."""
        if p.den:
            raise ClosureError("a fraction has no terms")
        out = []
        for u, c in ((self._unpack(m), c) for m, c in p.items()):
            num, den = c.numerator, c.denominator * scale * self._weight(u)
            g = gcd(num, den)
            out.append((u, num // g, den // g))
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

        # R3 on the chain x-b-c, delta^(m)(x-b) delta^(n)(b-c).  After R1
        # the delta off x is delta^(n)(y-w): the chain is x-y-w, or x-w-y
        # once R1 turns it into (-1)^n delta^(n)(w-y) (R3').
        tail = next((d for d in deltas if d[0] != "x"), None)
        if len(deltas) == 2 and tail is not None:
            (_, b, m), = (d for d in deltas if d is not tail)
            n = tail[2]
            c = "y" if b == "w" else "w"
            if b == "w" and n % 2:
                scale = -scale
            for j in range(m + 1):
                queue.append((scale * comb(m, j), fac,
                              (("x", b, m - j), ("x", c, n + j))))
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
        out.setdefault(key, []).append((scale, fac.get("x", alg.one)))

    terms = ((key, _sum(alg, out[key])) for key in sorted(out))
    return DistPoly(terms=tuple(DeltaTerm(c, key) for key, c in terms if c))


def _sum(alg, parts):
    """sum of scale * c over parts, accumulated in place for polynomials."""
    if any(c.den for _, c in parts):
        return sum((c * s for s, c in parts), alg.zero)
    acc = alg.dtype()
    get = acc.get
    for s, c in parts:
        if s == 1:
            for m, v in c.items():
                acc[m] = get(m, 0) + v
        else:
            for m, v in c.items():
                acc[m] = get(m, 0) + v * s
    return alg._strip(acc, max(c.deg for _, c in parts))


def _values(p, samples, scale: int = 1):
    """The element p over `scale` at each sample, from its g-basis terms
    (each coefficient rounded once) and the samples' g2, g3; a fraction
    as numerator over denominator.  The terms go in lex order of their
    exponents, which fixes the order of the float sum."""
    ring = p.ring
    if p.den:
        num, den = ring.fraction(p)
        return _values(num, samples, scale) / _values(den, samples)
    rows, nums, dens = zip(*sorted(ring.g_terms(p, scale), reverse=True))
    E = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(
        len(rows), -1).astype(np.int64)
    used = np.flatnonzero(E.any(axis=0))
    syms = [ring.gsyms[i] for i in used]
    try:
        V = np.array([[s[g] for g in syms] for s in samples], dtype=complex)
    except KeyError as e:
        raise UnboundSymbolError(f"no value for {e.args[0]}") from None
    monos = np.prod(V[:, None, :] ** E[:, used], axis=2)
    return np.sum(monos * [n / d for n, d in zip(nums, dens)], axis=1)


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
    the bracket's.  Tables come from build_table and change_coordinates;
    dataclasses.replace with new entries from the same algebra keeps its
    Leibniz memo."""

    fields: tuple[str, ...]
    entries: dict
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


def _common_scale(parts):
    """(L, [L c / d]) for pairs (c, d) of an element and a positive
    integer, L the least positive integer that leaves no ground
    denominator in any L c / d."""
    reduced = [_integral(c, d) for c, d in parts]
    L = lcm(*(d for _, d in reduced))
    return L, [c * (L // d) for c, d in reduced]


def build_table(fields, given, constants=()) -> BracketTable:
    """Complete a partially given table by antisymmetry.

    `given` maps ordered pairs (a, b) to lists of (coeff, order), each
    coefficient an Expr in the g basis or an element of an algebra; every
    missing transpose (b, a) is filled in as -{a(x), b(y)} with the
    points exchanged and recanonicalized.  The table's algebra is built
    here, from the given coefficients, the fields and the x-constants
    `constants` (symbols with zero x-derivative besides u and v); the
    table stores its entries times the least common denominator of
    their h-basis coefficients, its scale.
    """
    alg = _table_algebra([c for terms in given.values() for c, _ in terms],
                         [m for terms in given.values() for _, m in terms],
                         fields, constants, False)
    keys = [(key, m) for key, terms in given.items() for _, m in terms]
    scale, vals = _common_scale(alg.lift(c) for terms in given.values()
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
    return BracketTable(fields=tuple(fields), entries=entries, scale=scale,
                        alg=alg)


def _element(table: BracketTable, E):
    """E in the table's algebra; UnknownFieldError for a symbol that is
    neither a jet of the table's fields nor a leaf or x-constant."""
    if isinstance(E, PackedPoly):
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
    mod = alg.zero
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
    fields, at the table's scale: the sum over the partials (f, k, dF) of
    F of dF(x) d^k/dx^k {f(x), G(y)}, each {f(x), G(y)} a Leibniz bracket
    differentiated k times by

        d/dx [C(x) delta^(m)(x-y)] = C'(x) delta^(m)(x-y)
                                     + C(x) delta^(m+1)(x-y)."""
    alg = table.alg
    G = _element(table, G)
    out: dict[int, list] = {}
    for f, k, dF in _partials(alg, _element(table, F), table.fields):
        terms = {t.orders[0]: t.value
                 for t in leibniz_bracket(table, f, G).terms}
        for _ in range(k):
            parts: dict[int, list] = {}
            for m, c in terms.items():
                parts.setdefault(m, []).append((1, alg.dx(c)))
                parts.setdefault(m + 1, []).append((1, c))
            terms = {m: _sum(alg, p) for m, p in parts.items()}
        for m, c in terms.items():
            out.setdefault(m, []).append((1, dF * c))
    terms = ((m, _sum(alg, out[m])) for m in sorted(out))
    return DistPoly(tuple(DeltaTerm(c, (m,)) for m, c in terms if c),
                    table.scale)


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
    """The element p (of some algebra) with generator i replaced by
    images[i], an element of K; powers caches images[i]**e.  The image
    of p's denominator must be one term over a monomial."""
    def image(m):
        term = K.one
        for i, e in enumerate(p.ring._unpack(m)):
            if e:
                pw = powers.get((i, e))
                if pw is None:
                    pw = powers[(i, e)] = images[i] ** e
                term = term * pw
        return term

    out = K.dtype()
    get = out.get
    fractions, deg = [], 0
    for m, c in p.items():
        term = image(m) * c
        if term.den:
            fractions.append(term)
            continue
        deg = max(deg, term.deg)
        for mm, cc in term.items():
            out[mm] = get(mm, 0) + cc
    out = K._strip(out, deg)
    for f in fractions:
        out = out + f
    return out * K.inverse(image(p.den)) if p.den else out


def change_coordinates(table: BracketTable, forward: dict, inverse: dict,
                       frozen_modular: bool = False) -> BracketTable:
    """Bracket table for new generators.

    forward maps each new field name to its expression in the old jets;
    inverse maps each old field name to its expression in the new jets
    (auxiliary fields allowed).  Every jet of a field that is neither new
    nor the modular field must cancel from every coefficient after
    substitution, else StructureError.  A frozen_modular result holds the
    modular parameter constant, so its jets T, T_x, ... are set to zero.

    The substitution is a homomorphism from the table's algebra into the
    new table's algebra K, over the new and auxiliary jets, whose
    fractions have monomial denominators (ClosureError otherwise): each
    old jet goes to the prolonged inverse, each modular jet to zero when
    freezing, and every other generator to itself.  K is built once, from
    the inverse's jets raised as far as the prolongation reaches, so it
    holds the substitution and the new table's brackets alike.  The
    images over the table's scale get the new table's own scale.
    """
    new_fields = tuple(forward)
    fwd = {f: _element(table, e) for f, e in forward.items()}
    dps = {(a, b): bracket_of_functions(table, fwd[a], fwd[b])
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
    # naming rule: the new and auxiliary fields are those of the inverse.
    # Its seeds hold the inverse's jets raised `depth` orders, the highest
    # the substitution makes, so its prolongation covers the new table.
    seeds = list(inverse.values()) + kept
    for e in inverse.values():
        for s in e.free_symbols:
            if isinstance(kind := _kind(s, None, old.constants), tuple):
                seeds.append(sx.jet(kind[0], kind[1] + depth))
    K = _table_algebra(seeds, [t.orders[0] for dp in dps.values()
                               for t in dp.terms],
                       None, old.constants, frozen_modular)
    images = {i: K.zero for i in zeroed}
    images.update({i: K.gen(old.syms[i])
                   for i in used if old.gsyms[i] in kept})
    for f, e in inverse.items():
        cur = K.conv(e)
        for k in range(depth + 1):
            i = old.index.get(sx.jet(f, k))
            if i is not None:
                images[i] = cur
            if k < depth:
                cur = K.dx(cur)

    bad = {i for i, info in enumerate(K.jets)
           if info and info[0] not in (*new_fields, sx.MODULAR_FIELD)}
    powers: dict = {}
    composed = {}
    for (a, b), dp in dps.items():
        terms = []
        for t in dp.terms:
            c = _compose(t.value, images, K, powers)
            if K.support(c) & bad:
                raise StructureError(
                    f"coefficient of ({a},{b}) at order {t.orders} does not "
                    f"close on the new fields: "
                    f"{sx.render(c, dp.scale)}")
            if c:
                terms.append((c, t.orders))
        composed[(a, b)] = terms

    scale, vals = _common_scale((c, table.scale)
                                for terms in composed.values()
                                for c, _ in terms)
    vals = iter(vals)
    entries = {key: tuple(DeltaTerm(next(vals), orders) for _, orders in terms)
               for key, terms in composed.items()}
    return BracketTable(fields=new_fields, entries=entries, scale=scale,
                        alg=K)
