"""Concrete bracket constructions on loop spaces of C^n and CP^{n-1}.

The central objects are hydrodynamic bracket tables

    {z_a(x), z_b(y)} = P_ab delta'(x-y) + Q_ab delta(x-y)

on fields z_0, z_2, ..., z_n together with the scaled modular field th,
produced two independent ways: by extracting structure constants from
the spectral-parameter bracket on the generating field e(u,x) (the
r-matrix template), and by transcribing closed-form generating
functions.  Exact agreement of the two is the strongest self-check in
the package.  The routes share only the routine that clears their one
pole, 1/(wpv - wpu) in the template and 1/(u - v) in the closed forms,
on packed elements (_clear_pole).

The structure constants are exact, packed elements of one algebra per n
over g1, g2, g3, T, z.., z.._x; they, the r-matrix template and the
delta calculus of their tables compute in the h basis of distcalc.
Numerics enter only in verification suites.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import prod

import numpy as np
import sympy as sp

from . import distcalc as dcx
from . import elliptic
from . import symexpr as sx
from .errors import (DivisibilityError, DomainError, ExtractionError,
                     StructureError)
from .symexpr import (T, dwpu, dwpv, g1, g2, g3, jet, u, v, wpu, wpv, zwu,
                      zwv)

TWO_PI_I = elliptic.TWO_PI_I


# ---------------------------------------------------------------------------
# field bookkeeping

def field_indices(n: int) -> list[int]:
    """Generator indices 0, 2, 3, ..., n (no index 1)."""
    if n < 2:
        raise DomainError("need n >= 2")
    return [0] + list(range(2, n + 1))


def field_name(a: int) -> str:
    return f"z{a}"


# (wp, hdwp = dwp / 2, 2 hdwp^2 = (4 wp^3 - g2 wp - g3) / 2) at u and v
_WP = {var: (w, dcx._H_BASIS[dw][0], (4 * w ** 3 - g2 * w - g3) / 2)
       for var, w, dw in (("u", wpu, dwpu), ("v", wpv, dwpv))}


def spectral_basis(alg: dcx._RingAlgebra, a: int, which: str):
    """Basis function with a pole of order a at the origin, as an element
    of `alg` in the Weierstrass leaves of the chosen spectral variable:
    wp^(a/2) for even a, -hdwp wp^((a-3)/2) for odd a."""
    w, hdw = (alg.gen(s) for s in _WP[which][:2])
    if a == 0:
        return alg.one
    if a == 1 or a < 0:
        raise DomainError(f"no basis element of pole order {a}")
    if a % 2 == 0:
        return w ** (a // 2)
    return -hdw * w ** ((a - 3) // 2)


def generating_field(alg: dcx._RingAlgebra, n: int, which: str):
    """e = sum_a p_a(spectral) z_a over the n generators, in `alg`."""
    return sum((spectral_basis(alg, a, which) * alg.gen(jet(field_name(a)))
                for a in field_indices(n)), alg.zero)


# ---------------------------------------------------------------------------
# the r-matrix template

def q_weight_sym(alg: dcx._RingAlgebra, first: str, second: str):
    """Two-point weight q(first, second) in the rational spectral form, as
    an element of `alg`: the denominator wpv - wpu is its generator
    dinv, shared by every weight so that sums combine exactly."""
    x = alg.gen
    half = (x(_WP["u"][1]) + x(_WP["v"][1])) * x(sx.dinv)
    if (first, second) == ("u", "v"):
        return half + x(zwv) - x(g1) * x(v)
    if (first, second) == ("v", "u"):
        return -half + x(zwu) - x(g1) * x(u)
    raise DomainError(f"unsupported spectral pair ({first}, {second})")


def rmatrix_delta_prime_coeff(qvu, quv, e_u, e_of_v, e_of_u, e_v, lam):
    """delta'-coefficient of {e(u,x), e(v,y)}; works on ring elements or
    numbers."""
    return qvu * e_u * e_of_v + quv * e_of_u * e_v + lam * e_u * e_v


def rmatrix_delta_coeff(qvu, quv, qvu_tau_xderiv, qvu_u, e_of_u, e_of_v,
                        e_u, ex_of_u, ex_of_v, evx, lam):
    """delta-coefficient of {e(u,x), e(v,y)}; qvu_tau_xderiv is
    tau'(x) * d/dtau q(v,u), qvu_u is d/du q(v,u)."""
    return (qvu_tau_xderiv * e_u * e_of_v
            + qvu_u * (e_of_u * ex_of_v - e_of_v * ex_of_u)
            + qvu * e_u * ex_of_v + quv * e_of_u * evx + lam * e_u * evx)


# ---------------------------------------------------------------------------
# structure constants

# generator positions in the structure-constant ring, see _structconsts_algebra
_T_AT, _Z_AT = 3, 4


def _structconsts_algebra(n: int) -> dcx._RingAlgebra:
    """The algebra of the n-field structure constants, over g1, g2, g3,
    T, z.., z.._x in that order (g2, g3 as h2, h3 inside it)."""
    zs = [field_name(a) for a in field_indices(n)]
    syms = [g1, g2, g3, T] + [jet(f) for f in zs] + [jet(f, 1) for f in zs]
    return dcx._RingAlgebra(syms, zs, frozen=False)


# generators of the r-matrix template before those of the structure
# constants: the spectral leaves and dinv = 1/(wpv - wpu)
_SPECTRAL = (u, v, wpu, wpv, dwpu, dwpv, zwu, zwv, sx.dinv)


class StructConsts:
    """Structure constants of the homogeneous bracket on n fields:
    P maps (a, b) to the delta'-coefficient (quadratic in z), Q to the
    delta-coefficient (quadratic in z and z' with at most one first jet,
    or T times a z-quadratic).

    The entries are packed elements of `_structconsts_algebra(n)`
    (`P_poly`, `Q_poly`), and the constructor takes nothing else.  `P`
    and `Q` are cached g-basis Exprs of the same entries that nothing in
    the package reads; they are kept for the benchmark harness, which
    checks the constants through them."""

    def __init__(self, n: int, P: dict, Q: dict,
                 generator: str = "thm3_extract"):
        for key, e in itertools.chain(P.items(), Q.items()):
            if not isinstance(e, dcx.PackedPoly):
                raise TypeError(f"entry {key} is not a packed element: {e!r}")
        self.n = n
        self.generator = generator
        self.P_poly = dict(P)
        self.Q_poly = dict(Q)

    @functools.cached_property
    def P(self) -> dict:
        return {k: p.as_expr() for k, p in self.P_poly.items()}

    @functools.cached_property
    def Q(self) -> dict:
        return {k: p.as_expr() for k, p in self.Q_poly.items()}

    @property
    def indices(self) -> list[int]:
        return field_indices(self.n)

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(field_name(a) for a in self.indices)

    def to_bracket_table(self) -> dcx.BracketTable:
        """Full table including the modular row {th(x), z_a(y)} =
        z_a(y) delta'(x-y)."""
        names = ("th",) + self.fields
        given = {("th", "th"): []}
        for a in self.indices:
            za = field_name(a)
            given[("th", za)] = [(jet(za), 1), (jet(za, 1), 0)]
        for a in self.indices:
            for b in self.indices:
                given[(field_name(a), field_name(b))] = [
                    (self.P_poly[(a, b)], 1), (self.Q_poly[(a, b)], 0)]
        return dcx.build_table(names, given)


def _check_homogeneity(sc: StructConsts):
    k = len(sc.indices)
    at = [*range(_Z_AT, _Z_AT + 2 * k), _T_AT]  # z.., z.._x, T
    for (a, b), p in sc.P_poly.items():
        keys = p.ring.split(p, at)
        if any(sum(key[:k]) != 2 for key in keys):
            raise ExtractionError(f"P[{a},{b}] not homogeneous quadratic")
        if any(any(key[k:]) for key in keys):
            raise ExtractionError(f"P[{a},{b}] contains jets or T")
    for (a, b), p in sc.Q_poly.items():
        for key in p.ring.split(p, at):
            degrees = sum(key[:k]), sum(key[k:-1]), key[-1]  # z, z_x, T
            if degrees not in ((1, 1, 0), (2, 0, 1)):  # z z' or T z z
                raise ExtractionError(
                    f"Q[{a},{b}] has a monomial outside the z z' / T z z "
                    f"shape: {key}")


def _clear_pole(p, i_inv: int, hi, lo):
    """p with its pole cleared, for p an element of a _RingAlgebra whose
    only denominators are the powers of its generator i_inv (an index) =
    1/(hi - lo), hi a generator symbol and lo an element free of it.  On
    p over its least common denominator (so on integers), form D^K p by
    Horner in D = hi - lo, K the i_inv-degree of p, divide by D K times
    by synthetic division in hi (DivisibilityError on a nonzero
    remainder), and divide the scale back out.  A product past the
    packing bound raises ExponentOverflowError."""
    alg = p.ring
    i_hi, h = alg.index[hi], alg.gen(hi)
    p, scale = dcx._integral(p, 1)
    parts = {k: c for (k,), c in alg.split(p, [i_inv]).items()}
    K = max(parts, default=0)
    num = alg.zero
    for k in range(K + 1):
        num = num * (h - lo) + parts.get(k, alg.zero)
    for _ in range(K):
        parts = {k: c for (k,), c in alg.split(num, [i_hi]).items()}
        num, carry = alg.zero, alg.zero
        for k in range(max(parts, default=0), 0, -1):
            carry = parts.get(k, alg.zero) + carry * lo
            num = num + carry * h ** (k - 1)
        if parts.get(0, alg.zero) + carry * lo:
            raise DivisibilityError(
                f"clearing factor ({(h - lo).as_expr()})^{K} does not "
                f"divide the numerator")
    return num / scale


def _spectral_clear(p):
    """The template element p, whose only denominators are the powers of
    its generator dinv = 1/(wpv - wpu), with that pole cleared by
    _clear_pole after 2 hdwp^2 = 2 wp^3 - 6 h2 wp - h3, dwp^2 = 4 wp^3 -
    g2 wp - g3 in the h basis, is rewritten at both spectral points (the
    divisor has no hdwp, so the two commute).  The rewrite runs on
    integers: on p over its least common denominator, times 2^K for
    hdwp^k its highest power and K = k // 2.  Returns the cleared element
    times that scale, and the scale, for the caller to divide out;
    ExtractionError when a u, v or zeta leaf survives."""
    alg = p.ring
    at, x = alg.index, alg.gen
    p, scale = dcx._integral(p, 1)
    for w, hdw, rule in _WP.values():
        twice_square = alg.conv(rule)
        parts = {k: c for (k,), c in alg.split(p, [at[hdw]]).items()}
        K = max(parts, default=0) // 2
        scale <<= K
        p = sum((c * 2 ** (K - k // 2) * x(hdw) ** (k % 2)
                 * twice_square ** (k // 2) for k, c in parts.items()),
                alg.zero)
    p = _clear_pole(p, at[sx.dinv], wpv, x(wpu))
    for bad in (u, v, zwu, zwv):
        if at[bad] in alg.support(p):
            raise ExtractionError(
                f"spectral leaf {bad} survives the cancellation step")
    return p, scale


def _coeff_split(p, n: int, R, scale: int = 1) -> dict:
    """Read off entries, in the algebra R, from a cleared bilinear
    generating polynomial p / scale: the {1, hdwpu} x {1, hdwpv} split
    (p_a = -hdwp wp^((a-3)/2) for odd a) times monomials wpu^a wpv^b."""
    out = {(a, b): R.zero for a in field_indices(n) for b in field_indices(n)}
    at = [p.ring.index[s] for s in (_WP["u"][1], _WP["v"][1], wpu, wpv)]
    for (i, j, a, b), c in p.ring.split(p, at, R).items():
        if i > 1 or j > 1:
            raise ExtractionError("unreduced odd-leaf power")
        ia, ib = 2 * a + 3 * i, 2 * b + 3 * j
        if (ia, ib) not in out:
            raise ExtractionError(
                f"stray generating monomial maps outside the field set: "
                f"pole orders ({ia}, {ib}) for n={n}")
        out[(ia, ib)] += -c if (i + j) % 2 else c
    return {key: c / scale for key, c in out.items()}


# d/dth on the leaves at v alone: the tau chain rule of Dx p_b(v)
_DTH_V = {s: sx.DTAU_RULES[s] for s in (wpv, dwpv)}


def thm3_extract(n: int) -> StructConsts:
    """Structure constants obtained by matching the generating-field
    bracket coefficient-by-coefficient in the spectral basis.

    Substituting e = sum p_a z_a into the template and peeling off the
    modular-row contributions leaves

      sum p_a(u) p_b(v) P_ab = A - e(u) eth(v) - eth(u) e(v)
      sum p_a(u) p_b(v) Q_ab = B - sum p_a(u) Dx(p_b(v)) P_ab
                                 - e(u) Dx(eth(v)) - eth(u) Dx(e(v))

    with A, B the template delta' and delta coefficients and
    eth = d/d(th) applied to the spectral basis inside e.  Both right
    sides are elements of the template algebra, polynomial in the
    Weierstrass leaves and dinv = 1/(wpv - wpu); clearing the shared
    denominator must cancel every bare u, v, zeta leaf exactly.  The
    template is linear in the weights q and lambda = 1/n, so it is
    formed with n q and lambda n = 1, and both sides are cleared times n
    and read off at scale n: every coefficient before that is an integer.
    """
    R = _structconsts_algebra(n)
    alg = dcx._RingAlgebra(_SPECTRAL + R.gsyms,
                           [field_name(a) for a in field_indices(n)],
                           frozen=False)
    Dx, Dth = alg.dx, alg.dth
    du, dv = (alg.derivation(sx._DU_RULES[var]) for var in ("u", "v"))

    eu = generating_field(alg, n, "u")
    ev = generating_field(alg, n, "v")
    du_eu = alg.derive(eu, du)
    dv_ev = alg.derive(ev, dv)
    qvu = q_weight_sym(alg, "v", "u") * n
    quv = q_weight_sym(alg, "u", "v") * n

    nA = rmatrix_delta_prime_coeff(qvu, quv, du_eu, ev, eu, dv_ev, 1)
    nB = rmatrix_delta_coeff(
        qvu, quv, alg.gen(T) * Dth(qvu), alg.derive(qvu, du),
        eu, ev, du_eu, Dx(eu), Dx(ev), Dx(dv_ev), 1)

    eth_u, eth_v = Dth(eu), Dth(ev)

    N, s = _spectral_clear(nA - (eu * eth_v + eth_u * ev) * n)
    P = _coeff_split(N, n, R, n * s)

    # p_b(v) depends on x through tau alone, so with N / s = n sum p_a(u)
    # p_b(v) P_ab the P-sum of the delta side is T dth_v(N) / (n s)
    num, s2 = _spectral_clear(
        (nB - (eu * Dx(eth_v) + eth_u * Dx(ev)) * n) * s
        - alg.gen(T) * alg.derive(N, alg.derivation(_DTH_V)))
    Q = _coeff_split(num, n, R, n * s * s2)

    sc = StructConsts(n=n, P=P, Q=Q, generator="thm3_extract")
    _check_homogeneity(sc)
    return sc


# ---------------------------------------------------------------------------
# closed-form generating functions

# ring generator for 1/(u - v) in the closed forms
_DINV = sp.Symbol("_Dinv")


def _poly_e(n: int, sector: int, var, z: dict, order: int = 0):
    """Even-sector (0) or odd-sector (1) generating polynomial in the
    ring generator `var`, with jet-order `order` field coefficients (z
    maps jet symbols to ring generators)."""
    if sector == 0:
        terms = (var ** a * z[jet(field_name(2 * a), order)]
                 for a in range(n // 2 + 1))
    else:
        terms = (var ** a * z[jet(field_name(2 * a + 3), order)]
                 for a in range((n - 3) // 2 + 1))
    return sum(terms, var.ring.zero)


def _closed_forms(n: int, alg: dcx._RingAlgebra) -> dict:
    """The closed-form generating functions for the even-even, even-odd
    and odd-odd sectors of P and Q, as elements of alg: 1/(u - v) is the
    generator Dinv, and i tau'(x) / pi = -2 T (tau' = 2 pi i T)."""
    z = {s: alg.conv(s) for s in alg.gsyms}
    u, v, g1, g2, g3 = (z[s] for s in (sx.u, sx.v, sx.g1, sx.g2, sx.g3))
    i_u, i_v = alg.index[sx.u], alg.index[sx.v]
    Dinv = z[_DINV]
    e0u_, e1u_ = _poly_e(n, 0, u, z), _poly_e(n, 1, u, z)
    e0v_, e1v_ = _poly_e(n, 0, v, z), _poly_e(n, 1, v, z)
    d_e0u = alg.diff(e0u_, i_u)
    d_e1u = alg.diff(e1u_, i_u)
    d_e0v = alg.diff(e0v_, i_v)
    d_e1v = alg.diff(e1v_, i_v)
    e0x_u, e1x_u = _poly_e(n, 0, u, z, 1), _poly_e(n, 1, u, z, 1)
    e0x_v, e1x_v = _poly_e(n, 0, v, z, 1), _poly_e(n, 1, v, z, 1)
    d_e0x_v = alg.diff(e0x_v, i_v)
    d_e1x_v = alg.diff(e1x_v, i_v)
    itp = -2 * z[T]
    lamn = sp.QQ(1, n)

    gf_P_ee = (
        2 * u * d_e0u * e0v_ * g1
        - sp.QQ(1, 6) * (-12 * u**2 * v + g2 * u + 2 * g2 * v + 3 * g3)
            * d_e0u * e0v_ * Dinv
        + 2 * v * d_e0v * e0u_ * g1
        + sp.QQ(1, 6) * (-12 * u * v**2 + 2 * g2 * u + g2 * v + 3 * g3)
            * d_e0v * e0u_ * Dinv
        + sp.QQ(1, 8) * (4 * v**3 - g2 * v - g3) * (4 * u**3 - g2 * u - g3)
            * d_e1u * e1v_ * Dinv
        - sp.QQ(1, 8) * (4 * v**3 - g2 * v - g3) * (4 * u**3 - g2 * u - g3)
            * d_e1v * e1u_ * Dinv
        + sp.QQ(1, 4) * lamn * (4 * v**3 - g2 * v - g3)
            * (4 * u**3 - g2 * u - g3) * d_e1u * d_e1v
        - (3 * u**2 * v**2 - sp.QQ(1, 4) * g2 * (u - v)**2
           + sp.QQ(1, 16) * g2**2 + sp.QQ(3, 4) * g3 * u
           + sp.QQ(3, 4) * g3 * v) * e1u_ * e1v_
        + sp.QQ(1, 8) * lamn * (12 * v**2 - g2)
            * (4 * u**3 - g2 * u - g3) * d_e1u * e1v_
        + sp.QQ(1, 8) * lamn * (12 * u**2 - g2)
            * (4 * v**3 - g2 * v - g3) * d_e1v * e1u_
        + sp.QQ(1, 16) * lamn * (12 * v**2 - g2) * (12 * u**2 - g2)
            * e1u_ * e1v_)

    gf_P_eo = (
        2 * u * d_e0u * e1v_ * g1
        + sp.QQ(1, 6) * (12 * u**2 * v - g2 * u - 2 * g2 * v - 3 * g3)
            * d_e0u * e1v_ * Dinv
        + sp.QQ(1, 2) * (4 * u**3 - g2 * u - g3)
            * (d_e1u * e0v_ - d_e0v * e1u_) * Dinv
        + 2 * v * d_e1v * e0u_ * g1 + 3 * e0u_ * e1v_ * g1
        - sp.QQ(1, 6) * (12 * u * v**2 - 2 * g2 * u - g2 * v - 3 * g3)
            * d_e1v * e0u_ * Dinv
        - sp.QQ(1, 4) * (12 * u * v - g2) * e0u_ * e1v_ * Dinv
        + sp.QQ(1, 4) * (12 * u**2 - g2) * e0v_ * e1u_ * Dinv
        + lamn * (4 * u**3 - g2 * u - g3) * d_e0v * d_e1u
        + lamn * (6 * u**2 - sp.QQ(1, 2) * g2) * d_e0v * e1u_)

    gf_P_oo = (
        2 * u * d_e1u * e1v_ * g1 + 6 * e1u_ * e1v_ * g1
        + 4 * lamn * d_e0u * d_e0v
        + sp.QQ(1, 6) * (12 * u**2 * v - g2 * u - 2 * g2 * v - 3 * g3)
            * d_e1u * e1v_ * Dinv
        - sp.QQ(1, 6) * (12 * u * v**2 - 2 * g2 * u - g2 * v - 3 * g3)
            * d_e1v * e1u_ * Dinv
        + 2 * (e0v_ * d_e0u - e0u_ * d_e0v) * Dinv
        + 2 * v * d_e1v * e1u_ * g1)

    gf_Q_ee = (
        sp.QQ(1, 6) * (12 * g1 * u * v - 12 * g1 * v**2 - 12 * u * v**2
                       + 2 * g2 * u + g2 * v + 3 * g3)
            * e0u_ * d_e0x_v * Dinv
        - (4 * v**3 - g2 * v - g3) * (4 * u**3 - g2 * u - g3)
            * e1u_ * d_e1x_v * Dinv / 8
        + (12 * g2 * g1 * u - g2**2 + 18 * g1 * g3 - 18 * g3 * u)
            * e0u_ * d_e0v * itp * Dinv / 24
        + (12 * g1 * u**2 - 12 * g1 * u * v + 12 * u**2 * v - g2 * u
           - 2 * g2 * v - 3 * g3) * d_e0u * e0x_v * Dinv / 6
        + (e0v_ * e0x_u - e0u_ * e0x_v) * Dinv**2 / 4
            * (4 * g1 * (u - v)**2 + 4 * u**2 * v + 4 * u * v**2
               - g2 * u - g2 * v - 2 * g3)
        - e1v_ * d_e1u * itp / 8 * lamn
            * (2 * g2 * g1 - 3 * g3) * (4 * u**3 - g2 * u - g3)
        + sp.QQ(1, 8) * (4 * v**3 - g2 * v - g3)
            * (4 * u**3 - g2 * u - g3) * d_e1u * e1x_v * Dinv
        - e1v_ * d_e1u * itp * Dinv / 48
            * (4 * u**3 - g2 * u - g3)
            * (12 * g2 * g1 * v - g2**2 + 18 * g1 * g3 - 18 * g3 * v)
        + sp.QQ(1, 8) * (4 * v**3 - g2 * v - g3)
            * (4 * u**3 - g2 * u - g3) * e1v_ * e1x_u * Dinv**2
        - e1u_ * e1v_ * itp / 16 * lamn
            * (2 * g2 * g1 - 3 * g3) * (12 * u**2 - g2)
        - e1u_ * e1x_v * Dinv**2 / 16
            * (48 * u**4 * v**2 - 64 * u**3 * v**3 + 48 * u**2 * v**4
               - 4 * g2 * u**4 + 8 * g2 * u**3 * v - 24 * g2 * u**2 * v**2
               + 8 * g2 * u * v**3 - 4 * g2 * v**4 + g2**2 * u**2
               + g2**2 * v**2 + 4 * g3 * u**3 - 12 * g3 * u**2 * v
               - 12 * g3 * u * v**2 + 4 * g3 * v**3 + 2 * g2 * g3 * u
               + 2 * g2 * g3 * v + 2 * g3**2)
        + e0v_ * d_e0u * itp * Dinv / 24
            * (24 * g1**2 * u**2 - 24 * g1**2 * u * v - 8 * g2 * g1 * u
               - 4 * g2 * g1 * v - 2 * g2 * u**2 + 2 * g2 * u * v + g2**2
               - 18 * g1 * g3 + 12 * g3 * u + 6 * g3 * v)
        + d_e1u * d_e1x_v / 4 * lamn
            * (4 * v**3 - g2 * v - g3) * (4 * u**3 - g2 * u - g3)
        + e1u_ * d_e1x_v / 8 * lamn * (12 * u**2 - g2)
            * (4 * v**3 - g2 * v - g3)
        - d_e1u * d_e1v * itp / 24 * lamn
            * (4 * u**3 - g2 * u - g3)
            * (12 * g2 * g1 * v - g2**2 + 18 * g1 * g3 - 18 * g3 * v)
        + e1u_ * d_e1v * itp * Dinv / 48
            * (4 * u**3 - g2 * u - g3)
            * (12 * g2 * g1 * v - g2**2 + 18 * g1 * g3 - 18 * g3 * v)
        - e1u_ * d_e1v * itp / 48 * lamn * (12 * u**2 - g2)
            * (12 * g2 * g1 * v - g2**2 + 18 * g1 * g3 - 18 * g3 * v)
        + e1u_ * e1x_v / 16 * lamn * (12 * v**2 - g2) * (12 * u**2 - g2)
        + d_e1u * e1x_v / 8 * lamn * (12 * v**2 - g2)
            * (4 * u**3 - g2 * u - g3)
        + e1u_ * e1v_ * itp / 48
            * (24 * g2 * g1 * u**2 - 24 * g2 * g1 * u * v - 6 * g1 * g2**2
               + 4 * g2**2 * u + 2 * g2**2 * v - 72 * g1 * g3 * u
               - 36 * g1 * g3 * v - 36 * g3 * u**2 + 36 * g3 * u * v
               + 9 * g2 * g3))

    gf_Q_eo = (
        -sp.QQ(1, 2) * (4 * u**3 - g2 * u - g3)
            * e1u_ * d_e0x_v * Dinv
        + sp.QQ(1, 6) * (12 * g1 * u * v - 12 * g1 * v**2
                         - 12 * u * v**2 + 2 * g2 * u + g2 * v + 3 * g3)
            * e0u_ * d_e1x_v * Dinv
        + sp.QQ(1, 6) * (12 * g1 * u**2 - 12 * g1 * u * v
                         + 12 * u**2 * v - g2 * u - 2 * g2 * v - 3 * g3)
            * d_e0u * e1x_v * Dinv
        + e1v_ * d_e0u * itp * Dinv / 24
            * (24 * g1**2 * u**2 - 24 * g1**2 * u * v - 8 * g2 * g1 * u
               - 4 * g2 * g1 * v - 2 * g2 * u**2 + 2 * g2 * u * v + g2**2
               - 18 * g1 * g3 + 12 * g3 * u + 6 * g3 * v)
        + e1v_ * e0x_u * Dinv**2 / 4
            * (4 * g1 * u**2 - 8 * g1 * u * v + 4 * g1 * v**2 + 4 * u**2 * v
               + 4 * u * v**2 - g2 * u - g2 * v - 2 * g3)
        + sp.QQ(1, 2) * (4 * u**3 - g2 * u - g3)
            * e0x_v * d_e1u * Dinv
        + sp.QQ(1, 4) * (4 * u**3 - 12 * u**2 * v + g2 * u + g2 * v
                         + 2 * g3) * e0x_v * e1u_ * Dinv**2
        + sp.QQ(1, 2) * (4 * u**3 - g2 * u - g3)
            * e0v_ * e1x_u * Dinv**2
        + e0u_ * d_e1v * itp * Dinv / 24
            * (12 * g2 * g1 * u - g2**2 + 18 * g1 * g3 - 18 * g3 * u)
        + sp.QQ(1, 2) * (4 * g1 * u**2 - 8 * g1 * u * v + 4 * g1 * v**2
                         - 8 * u**2 * v + 4 * u * v**2 + g2 * u + g3)
            * e1x_v * e0u_ * Dinv**2
        + (e0u_ * e1v_ - e1u_ * e0v_) * itp * Dinv**2 / 24
            * (12 * g1 * g2 * u - g2**2 + 18 * g1 * g3 - 18 * g3 * u)
        + lamn * (4 * u**3 - g2 * u - g3) * d_e0x_v * d_e1u
        + sp.QQ(1, 2) * lamn * (12 * u**2 - g2) * d_e0x_v * e1u_)

    gf_Q_oo = (
        sp.QQ(1, 6) * (12 * g1 * u * v - 12 * g1 * v**2 - 12 * u * v**2
                       + 2 * g2 * u + g2 * v + 3 * g3)
            * e1u_ * d_e1x_v * Dinv
        + 2 * (e0v_ * e0x_u - e0u_ * e0x_v) * Dinv**2
        + sp.QQ(1, 6) * (12 * g1 * u**2 - 12 * g1 * u * v
                         + 12 * u**2 * v - g2 * u - 2 * g2 * v - 3 * g3)
            * d_e1u * e1x_v * Dinv
        + e1v_ * d_e1u * itp * Dinv / 24
            * (24 * g1**2 * u**2 - 24 * g1**2 * u * v - 8 * g2 * g1 * u
               - 4 * g2 * g1 * v - 2 * g2 * u**2 + 2 * g2 * u * v + g2**2
               - 18 * g1 * g3 + 12 * g3 * u + 6 * g3 * v)
        + sp.QQ(1, 4) * (4 * g1 * (u - v)**2 + 4 * u**2 * v
                         + 4 * u * v**2 - g2 * u - g2 * v - 2 * g3)
            * e1v_ * e1x_u * Dinv**2
        + 2 * (d_e0u * e0x_v - e0u_ * d_e0x_v) * Dinv
        + e1u_ * d_e1v * itp * Dinv / 24
            * (12 * g2 * g1 * u - g2**2 + 18 * g1 * g3 - 18 * g3 * u)
        + e1u_ * e1v_ * itp / 8 * (12 * g1**2 - g2)
        + sp.QQ(1, 4) * (20 * g1 * (u - v)**2 - 4 * u**2 * v
                         - 4 * u * v**2 + g2 * u + g2 * v + 2 * g3)
            * e1x_v * e1u_ * Dinv**2
        + 4 * lamn * d_e0x_v * d_e0u)

    return {("P", (0, 0)): gf_P_ee, ("P", (0, 1)): gf_P_eo,
            ("P", (1, 1)): gf_P_oo, ("Q", (0, 0)): gf_Q_ee,
            ("Q", (0, 1)): gf_Q_eo, ("Q", (1, 1)): gf_Q_oo}


def _harvest(target: dict, sector: tuple, p, n: int, R):
    """Add the terms c u^a v^b of a cleared closed form of `sector`
    (0 even, 1 odd, per spectral variable) to the entries of target, as
    elements of R."""
    su, sv = sector
    at = [p.ring.index[s] for s in (u, v)]
    for (a, b), c in p.ring.split(p, at, R).items():
        ia, ib = 2 * a + 3 * su, 2 * b + 3 * sv
        if ia > n or ib > n:
            raise ExtractionError(
                f"generating monomial u^{a} v^{b} out of range")
        target[(ia, ib)] += c


def appendix_table(n: int) -> StructConsts:
    """Structure constants transcribed from the closed-form generating
    functions, with the explicit i tau'(x) / pi replaced by -2 T and
    every (u-v)-denominator divided out exactly by _clear_pole."""
    idx = field_indices(n)
    alg = _structconsts_algebra(n)
    forms = dcx._RingAlgebra((u, v, _DINV) + alg.gsyms,
                             [field_name(a) for a in idx], frozen=False,
                             constants=(_DINV,))
    P = {(a, b): alg.zero for a in idx for b in idx}
    Q = dict(P)
    for (name, sector), gf in _closed_forms(n, forms).items():
        gf = _clear_pole(gf, forms.index[_DINV], u, forms.gen(v))
        _harvest(P if name == "P" else Q, sector, gf, n, alg)

    # The closed-form generating functions cover the even-even, even-odd and
    # odd-odd sectors; the odd-even sector follows from antisymmetry:
    # P is symmetric and Q_ba = Dx(P_ab) - Q_ab.
    for a in idx:
        for b in idx:
            if a % 2 == 1 and b % 2 == 0:
                P[(a, b)] = P[(b, a)]
                Q[(a, b)] = alg.dx(P[(b, a)]) - Q[(b, a)]
    sc = StructConsts(n=n, P=P, Q=Q, generator="appendix")
    _check_homogeneity(sc)
    return sc


def match_structconsts(a: StructConsts, b: StructConsts) -> list[str]:
    """Entry-by-entry exact comparison of generators and terms; returns
    discrepancy descriptions (empty = exact match).  An entry that only
    one side has is a discrepancy too."""
    if a.n != b.n:
        return [f"different n: {a.n} vs {b.n}"]
    out = []
    for name, pa, pb in (("P", a.P_poly, b.P_poly), ("Q", a.Q_poly, b.Q_poly)):
        for key in sorted(pa.keys() | pb.keys()):
            if key not in pb:
                out.append(f"{name}{key}: missing from the second table")
            elif key not in pa:
                out.append(f"{name}{key}: missing from the first table")
            elif ((pa[key].ring.gsyms, pa[key].den, dict(pa[key]))
                  != (pb[key].ring.gsyms, pb[key].den, dict(pb[key]))):
                out.append(f"{name}{key}: {sx.render(pa[key])} != "
                           f"{sx.render(pb[key])}")
    return out


# ---------------------------------------------------------------------------
# JSON documents

def structconsts_to_document(sc: StructConsts) -> dict:
    k = len(sc.indices)
    zs0 = list(range(_Z_AT, _Z_AT + k))
    q_at = [*zs0, *range(_Z_AT + k, _Z_AT + 2 * k), _T_AT]

    def p_terms(p):
        terms = []
        for mono, c in sorted(p.ring.split(p, zs0).items()):
            pos = [i for i, m in enumerate(mono) for _ in range(m)]
            terms.append({"c": sc.indices[pos[0]], "d": sc.indices[pos[1]],
                          "coeff": sx.render(c)})
        return terms

    monomials: dict = {}  # rendered Q monomials by exponents

    def q_terms(p):
        terms = []
        R = p.ring
        for mono, c in sorted(R.split(p, q_at).items()):
            if mono not in monomials:
                monomials[mono] = sx.render(prod(
                    R.gen(R.syms[i]) for i, e in zip(q_at, mono)
                    for _ in range(e)))
            terms.append({"monomial": monomials[mono], "coeff": sx.render(c)})
        return terms

    return {
        "n": sc.n,
        "lambda": "1/n",
        "fields": ["tau"] + list(sc.fields),
        "P": [{"a": a, "b": b, "terms": p_terms(sc.P_poly[(a, b)])}
              for a in sc.indices for b in sc.indices],
        "Q": [{"a": a, "b": b, "terms": q_terms(sc.Q_poly[(a, b)])}
              for a in sc.indices for b in sc.indices],
        "coeff_ring": "Q[g1,g2,g3,T]",
        "generator": sc.generator,
    }


# ---------------------------------------------------------------------------
# the explicit 3-field table and the projective descent

def prop2_table() -> dcx.BracketTable:
    """The explicit bracket on (th, z1, z2) with the modular-derivative
    factors i tau'/(24 pi) = -T/12 and i tau'/(12 pi) = -T/6."""
    z1, z2 = jet("z1"), jet("z2")
    z1x, z2x = jet("z1", 1), jet("z2", 1)
    given = {
        ("th", "th"): [],
        ("th", "z1"): [(z1, 1), (z1x, 0)],
        ("th", "z2"): [(z2, 1), (z2x, 0)],
        ("z1", "z1"): [
            (-g2 / 6 * z1 * z2 + g3 / 2 * z2**2, 1),
            (-g2 / 12 * z2 * z1x + (g3 / 2 * z2 - g2 / 12 * z1) * z2x
             + ((6 * g3 - 4 * g1 * g2) * z1 * z2
                + (18 * g1 * g3 - g2**2) * z2**2) * (-T / 12), 0)],
        ("z1", "z2"): [
            (2 * g1 * z1 * z2 - g2 / 3 * z2**2, 1),
            (g1 * z2 * z1x + (g1 * z1 - g2 / 3 * z2) * z2x
             - (2 * g1 * g2 - 3 * g3) * z2**2 * (-T / 6), 0)],
        ("z2", "z2"): [
            (-2 * z1 * z2 + 4 * g1 * z2**2, 1),
            (-z2 * z1x + (4 * g1 * z2 - z1) * z2x
             + (12 * g1**2 - g2) * z2**2 * (-T / 6), 0)],
    }
    return dcx.build_table(("th", "z1", "z2"), given)


def lemma1_descend(table: dcx.BracketTable,
                   denominator_field: str) -> dcx.BracketTable:
    """Descend a homogeneous table with a modular row to affine
    coordinates p_a = z_a / z_den; asserts centrality of the modular
    field, then freezes its jets to zero (modular parameter becomes a
    constant of the reduced family)."""
    if denominator_field == sx.MODULAR_FIELD:
        raise StructureError(f"the modular field {denominator_field} is no "
                             "projective coordinate to divide by")
    if denominator_field not in table.fields:
        raise StructureError(f"unknown denominator field {denominator_field}")
    zfields = [f for f in table.fields if f != sx.MODULAR_FIELD]
    others = [f for f in zfields if f != denominator_field]
    if not others:
        raise StructureError("nothing to descend: only one projective field")
    den0 = jet(denominator_field)
    forward = {"p" + f[1:]: jet(f) / den0 for f in others}
    inverse = {f: jet("p" + f[1:]) * den0 for f in others}
    inverse[denominator_field] = den0

    if sx.MODULAR_FIELD in table.fields:
        for f in others:
            dp = dcx.bracket_of_functions(table, jet(sx.MODULAR_FIELD, 0),
                                          forward["p" + f[1:]])
            if not dp.is_zero():
                terms = [(sx.render(t.value, dp.scale), t.orders)
                         for t in dp.terms]
                raise StructureError(
                    f"modular field is not central against p{f[1:]}: "
                    f"{terms}")

    return dcx.change_coordinates(table, forward, inverse,
                                  frozen_modular=True)


def linear_identifications(sc: StructConsts,
                           target: dcx.BracketTable) -> list[dict]:
    """Search constant linear field maps sending the n = 2 extracted
    table to an explicit 2-field target table (plus modular row).

    Both tables move into one packed algebra led by the constants
    m11..m22, each times the other's scale; every coefficient in M of the
    identity below, made monic, is one equation for one `sp.solve`.

    Returns sympy solution dicts for the matrix w_i = sum_j M_ij z_j.
    """
    if sc.n != 2:
        raise DomainError("identification search is for the n = 2 table")
    src = sc.to_bracket_table()
    src_fields = ("z0", "z2")
    tgt_fields = tuple(f for f in target.fields if f != sx.MODULAR_FIELD)
    ms = sp.symbols("m11 m12 m21 m22")
    gens = sorted(set(src.alg.gsyms) | set(target.alg.gsyms), key=str)
    K = dcx._RingAlgebra([*ms, *gens], None, True, constants=ms)
    m11, m12, m21, m22 = map(K.gen, ms)
    M, adj = ((m11, m12), (m21, m22)), ((m22, -m12), (-m21, m11))
    det = m11 * m22 - m12 * m21
    images = {i: K.gen(s) for i, s in enumerate(src.alg.syms)}
    # det z_a = sum_j adj_aj w_j, prolonged to first jets; every entry is
    # quadratic in the fields, so {z_a, z_b} picks up det**2
    for k in (0, 1):
        w0, w1 = (K.gen(jet(w, k)) for w in tgt_fields)
        for a, zo in enumerate(src_fields):
            images[src.alg.index[jet(zo, k)]] = adj[a][0] * w0 + adj[a][1] * w1
    old = {(a, b): {t.orders: target.scale * dcx._compose(
        t.value, images, K, {}) for t in src.entry(za, zb)}
        for a, za in enumerate(src_fields) for b, zb in enumerate(src_fields)}
    eqs = set()
    for i, wa in enumerate(tgt_fields):
        for j, wb in enumerate(tgt_fields):
            new = {t.orders: src.scale * K.conv(t.value)
                   for t in target.entry(wa, wb)}
            for order in ((0,), (1,)):
                # {w_i(x), w_j(y)} = sum_ab M_ia M_jb {z_a(x), z_b(y)}
                lhs = sum((M[i][a] * M[j][b] * old[a, b].get(order, K.zero)
                           for a in range(2) for b in range(2)), K.zero)
                diff = lhs - det**2 * new.get(order, K.zero)
                for c in K.split(diff, range(len(ms), len(K.syms))).values():
                    _, num, den = max(K.g_terms(c))
                    eqs.add(c / sp.QQ(num, den))
    sols = sp.solve(sorted((e.as_expr() for e in eqs), key=str), ms,
                    dict=True)
    return [s for s in sols if sp.expand(det.as_expr().xreplace(s)) != 0]


# ---------------------------------------------------------------------------
# flat-coordinate realization of the generating field (numeric)

@dataclass
class SigmaRealization:
    """Numeric generating field built from sigma-function factors over
    flat fields t_1..t_{n-1}, the modular field, and a prefactor f.

    All first and mixed field-derivatives are assembled (in `at`) from
    closed forms for zeta, sigma_tau/sigma, wp_tau, zeta_tau -- no finite
    differences anywhere.  `at` keeps what it computed per spectral
    point, and `pair` per pair of points, so the residuals of one
    realization share them."""

    ctx: elliptic.EllipticContext
    n: int
    t: list  # complex values t_1..t_{n-1}
    f: complex
    jets: dict  # first jets: {"t1": t1', ..., "tau": tau', "f": f'}
    _at: dict = field(default_factory=dict, init=False, repr=False,
                      compare=False)
    _pair: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("need n >= 2")
        if len(self.t) != self.n - 1:
            raise DomainError("wrong number of flat fields")
        self.S = sum(self.t)
        self.Phi = sum(self.t[a] * self.t[b]
                       for a in range(self.n - 1) for b in range(a, self.n - 1))
        self.fields = [f"t{c + 1}" for c in range(self.n - 1)] + ["tau", "f"]

    def at(self, z) -> dict:
        """The generating field at spectral point z and its derivatives,
        from one evaluation of sigma, zeta, wp and wp_z at each of z + S,
        z - t_c and z, and the tau closed forms built from them: "value",
        "du" (spectral), "partial"[F], "second"[F][G], "du_partial"[F],
        and the x-derivatives "dx", "du_dx" and "partial_dx"[G] along the
        field jets; also "zeta" and "zeta_tau", zeta and its tau closed
        form at z itself.  Computed once per z."""
        if z not in self._at:
            self._at[z] = self._evaluate(z)
        return self._at[z]

    def pair(self, up, vp) -> tuple:
        """(wp, zeta, zeta_tau) at up - vp and zeta at vp - up, the
        two-point values of the bracket residual.  Computed once per
        (up, vp)."""
        if (up, vp) not in self._pair:
            ctx, d = self.ctx, up - vp
            wp_d, zeta_d = elliptic.wp(ctx, d), elliptic.zeta(ctx, d)
            zeta_vu = elliptic.zeta(ctx, vp - up)
            zeta_tau_d = elliptic.tau_closed_forms(
                ctx, d, wp_d, elliptic.wp_z(ctx, d), zeta_d)[1]
            self._pair[(up, vp)] = (wp_d, zeta_d, zeta_tau_d, zeta_vu)
        return self._pair[(up, vp)]

    def _evaluate(self, z) -> dict:
        ctx, n, t, f, fields = self.ctx, self.n, self.t, self.f, self.fields
        args = [z + self.S] + [z - ta for ta in t] + [z]
        sig, zet, wpv, wpz = (
            [fn(ctx, a) for a in args]
            for fn in (elliptic.sigma, elliptic.zeta, elliptic.wp,
                       elliptic.wp_z))
        _, zt, lst, lst2 = zip(*(
            elliptic.tau_closed_forms(ctx, *v)
            for v in zip(args, wpv, wpz, zet)))

        def quotient(v):  # log-derivative of the sigma quotient
            return v[0] + sum(v[1:-1]) - n * v[-1]

        num = sig[0]
        for s in sig[1:-1]:
            num *= s
        num /= sig[-1] ** n
        e = num * np.exp(-ctx.g1 * self.Phi) * f
        g1p = elliptic.g_tau_derivatives(ctx)[0]
        g1pp = elliptic.g1_second_derivation(ctx) / TWO_PI_I ** 2
        flat = range(n - 1)
        # log-derivatives M[F]; dM_u[F] = d/dF of the spectral M_u;
        # mixed[F][G] = d^2/dF dG of the log, with "f" entries zero
        M = {f"t{c + 1}": zet[0] - zet[c + 1] - ctx.g1 * (self.S + t[c])
             for c in flat}
        M["tau"] = quotient(lst) - g1p * self.Phi
        M["f"] = 1.0 / f
        M_u = quotient(zet)
        dM_u = {f"t{c + 1}": -wpv[0] + wpv[c + 1] for c in flat}
        dM_u["tau"] = quotient(zt)
        mixed = {F: {G: 0.0 for G in fields} for F in fields}
        mixed["tau"]["tau"] = quotient(lst2) - g1pp * self.Phi
        for c in flat:
            F = f"t{c + 1}"
            mixed[F]["tau"] = mixed["tau"][F] = (
                zt[0] - zt[c + 1] - g1p * (self.S + t[c]))
            for d in flat:
                mixed[F][f"t{d + 1}"] = (-wpv[0]
                                         - (wpv[c + 1] if c == d else 0.0)
                                         - ctx.g1 * (1 + (1 if c == d else 0)))

        def second(F, G):
            if F == "f" and G == "f":
                return 0.0
            if F == "f":
                return e * M[G] / f
            if G == "f":
                return e * M[F] / f
            return e * (M[F] * M[G] + mixed[F][G])

        partial = {F: e * M[F] for F in fields}
        sec = {F: {G: second(F, G) for G in fields} for F in fields}
        du_partial = {F: e * M_u / f if F == "f"
                      else e * (M[F] * M_u + dM_u[F]) for F in fields}
        jets = self.jets
        return {
            "value": e, "du": e * M_u, "partial": partial, "second": sec,
            "du_partial": du_partial, "zeta": zet[-1], "zeta_tau": zt[-1],
            "dx": sum(partial[F] * jets[F] for F in fields),
            "du_dx": sum(du_partial[F] * jets[F] for F in fields),
            "partial_dx": {G: sum(sec[F][G] * jets[F] for F in fields)
                           for G in fields},
        }


def thm2_realization(ctx: elliptic.EllipticContext, n: int, t: list,
                     f: complex, jets: dict) -> SigmaRealization:
    """Numeric generating-field closure over the flat-coordinate table."""
    return SigmaRealization(ctx=ctx, n=n, t=list(t), f=complex(f),
                            jets=dict(jets))


def flat_table_coeffs(n: int, real: SigmaRealization):
    """Canonical (delta', delta) coefficient pairs of the flat table as
    numeric functions C1[F][G], C0[F][G]."""
    fields = real.fields
    C1 = {F: {G: 0.0 for G in fields} for F in fields}
    C0 = {F: {G: 0.0 for G in fields} for F in fields}
    for i in range(n - 1):
        for j in range(n - 1):
            Fi, Fj = f"t{i + 1}", f"t{j + 1}"
            C1[Fi][Fj] = (1.0 / n) if i != j else -(n - 1) / n
    fval = real.f
    fprime = real.jets["f"]
    C1["tau"]["f"] = TWO_PI_I * fval
    C0["tau"]["f"] = TWO_PI_I * fprime
    C1["f"]["tau"] = TWO_PI_I * fval
    return C1, C0


def _check_realization(ctx, n, real: SigmaRealization):
    """DomainError unless (ctx, n) are the ones `real` was built for."""
    if n != real.n:
        raise DomainError(f"realization built for n = {real.n}, "
                          f"asked for n = {n}")
    if ctx is not real.ctx:
        raise DomainError("realization built on another elliptic context")


def thm2_bracket_residual(ctx, n, real: SigmaRealization, up, vp,
                          lam: float | None = None) -> float:
    """Relative residual of the generating-field bracket identity for the
    sigma realization at spectral points (up, vp); lambda defaults to the
    matching coupling 1/n (override for negative controls).  DomainError
    unless (ctx, n) are the realization's own."""
    _check_realization(ctx, n, real)
    if lam is None:
        lam = 1.0 / n
    C1, C0 = flat_table_coeffs(n, real)
    fields = real.fields
    at_u, at_v = real.at(up), real.at(vp)
    pu, pv = at_u["partial"], at_v["partial"]

    lhs1 = sum(pu[F] * C1[F][G] * pv[G] for F in fields for G in fields)
    lhs0 = sum(pu[F] * (C1[F][G] * at_v["partial_dx"][G] + C0[F][G] * pv[G])
               for F in fields for G in fields)

    tpr = real.jets["tau"]
    wp_d, zeta_d, zeta_tau_d, zeta_vu = real.pair(up, vp)
    qvu = zeta_d + at_v["zeta"] - ctx.g1 * up
    quv = zeta_vu + at_u["zeta"] - ctx.g1 * vp
    # tau'(x) * d/dtau q(v,u) = T_value * (2 pi i d/dtau q)
    qvu_tau = (zeta_tau_d + at_v["zeta_tau"]
               - elliptic.g_tau_derivatives(ctx)[0] * up)
    qvu_u = -wp_d - ctx.g1

    rhs1 = rmatrix_delta_prime_coeff(qvu, quv, at_u["du"], at_v["value"],
                                     at_u["value"], at_v["du"], lam)
    rhs0 = rmatrix_delta_coeff(qvu, quv, tpr * qvu_tau, qvu_u,
                               at_u["value"], at_v["value"], at_u["du"],
                               at_u["dx"], at_v["dx"], at_v["du_dx"], lam)
    scale = max(1.0, abs(rhs1), abs(rhs0))
    return max(abs(lhs1 - rhs1), abs(lhs0 - rhs0)) / scale


def thm2_modular_row_residual(ctx, real: SigmaRealization, up) -> float:
    """Residual of {tau(x), e(u,y)} = 2 pi i e(u,y) delta'(x-y) computed
    through the flat table.  DomainError unless ctx is the realization's."""
    _check_realization(ctx, real.n, real)
    fields = real.fields
    C1, C0 = flat_table_coeffs(real.n, real)
    at_u = real.at(up)
    lhs1 = sum(C1["tau"][G] * at_u["partial"][G] for G in fields)
    lhs0 = sum(C1["tau"][G] * at_u["partial_dx"][G]
               + C0["tau"][G] * at_u["partial"][G] for G in fields)
    rhs1 = TWO_PI_I * at_u["value"]
    rhs0 = TWO_PI_I * at_u["dx"]
    scale = max(1.0, abs(rhs1), abs(rhs0))
    return max(abs(lhs1 - rhs1), abs(lhs0 - rhs0)) / scale


# ---------------------------------------------------------------------------
# no-go system for a modular-free homogeneous lift on two fields

@dataclass
class NoGoSystem:
    """Polynomial constraint system for a constant-coefficient
    homogeneous lift of the projective-line bracket with quartic leading
    coefficient G = p(p-1)(p-s) p... see prop1_system.  Unknowns: the 12
    symmetric delta'-coefficients q[ab][cd] and 16 delta-coefficients
    r[ab][cd]; equations of degree <= 2 in the unknowns.

    The normalised equations are held exactly as the tensors of
    r(x) = c + A x + B[x, x]: `c` (one entry per equation), `A` (equations
    x unknowns), and B in coordinates `quad` = (rows, i, j, vals) with
    i <= j, one entry per quadratic monomial x_i x_j.  Row k is the
    equation divided by `scales[k]`, its largest coefficient magnitude."""

    s: complex
    unknowns: list
    c: np.ndarray
    A: np.ndarray
    quad: tuple
    scales: np.ndarray

    def residual_vector(self, vec):
        rows, i, j, vals = self.quad
        r = self.c + self.A @ vec
        np.add.at(r, rows, vals * vec[i] * vec[j])
        return r

    def jacobian(self, vec):
        """Exact Jacobian A + (B + B^T) x of residual_vector."""
        rows, i, j, vals = self.quad
        J = self.A.copy()
        np.add.at(J, (rows, i), vals * vec[j])
        np.add.at(J, (rows, j), vals * vec[i])
        return J


# index pairs (a, b) with a <= b, and all four ordered pairs
_PAIRS = ((1, 1), (1, 2), (2, 2))
_ORDERED_PAIRS = tuple(itertools.product((1, 2), repeat=2))


def _nogo_tables(qsym, rsym, constants=()):
    """BracketTable on (z1, z2) from coefficients, the symbolic ones
    listed in `constants`."""
    z = {1: jet("z1"), 2: jet("z2")}
    zx = {1: jet("z1", 1), 2: jet("z2", 1)}
    given = {}
    for a, b in _ORDERED_PAIRS:
        P = sum(qsym[(a, b, c, d)] * z[c] * z[d] for c, d in _PAIRS)
        Q = sum(rsym[(a, b, c, d)] * z[c] * zx[d] for c, d in _ORDERED_PAIRS)
        given[(f"z{a}", f"z{b}")] = [(P, 1), (Q, 0)]
    return dcx.build_table(("z1", "z2"), given, constants=constants)


def _nogo_unknowns():
    """The 12 symmetric delta'-unknowns q_ab_cd (q[a,b,c,d] = q[a,b,d,c])
    and 16 delta-unknowns r_ab_cd, and all 28 in order."""
    qsym = {}
    rsym = {}
    for a, b, c, d in itertools.product((1, 2), repeat=4):
        if c <= d:
            qsym[(a, b, c, d)] = qsym[(a, b, d, c)] = sp.Symbol(
                f"q_{a}{b}_{c}{d}")
        rsym[(a, b, c, d)] = sp.Symbol(f"r_{a}{b}_{c}{d}")
    return qsym, rsym, (sorted(set(qsym.values()), key=str)
                        + sorted(rsym.values(), key=str))


def _chart_coefficients(table) -> dict:
    """{p(x), p(y)} for p = z1/z2 in the chart z2 = 1, where z1 = p and
    z1' = p' + p zr with zr = z2'/z2: {order: {(i, j, k): coefficient of
    p^i p'^j zr^k, an element of the table's algebra free of the z
    jets}}.  The chart is z2 -> 1, z1_x -> z1_x + z1 z2_x on the table's
    algebra, after which z1, z1_x and z2_x stand for p, p' and zr."""
    alg = table.alg
    z1, z1x, z2, z2x = jet("z1"), jet("z1", 1), jet("z2"), jet("z2", 1)
    images = {i: alg.gen(s) for i, s in enumerate(alg.syms)}
    images[alg.index[z2]] = alg.one
    images[alg.index[z1x]] = alg.gen(z1x) + alg.gen(z1) * alg.gen(z2x)
    at = [alg.index[s] for s in (z1, z1x, z2x)]
    dp = dcx.bracket_of_functions(table, z1 / z2, z1 / z2)
    return {t.orders: {key: c / dp.scale for key, c in alg.split(
        dcx._compose(t.value, images, alg, {}), at).items()}
        for t in dp.terms}


def _quadratic_tensors(rows, m: int):
    """c, A, quad and scales of NoGoSystem from the equations poly = t
    (poly in the m unknowns, the first generators of its algebra, with no
    constant term; t a number): drop the zero ones, scale each by its
    largest coefficient magnitude (so that the residual is invariant
    under trivial rescalings of the system).  Terms go in descending lex
    order, which fixes the order of `quad`."""
    scales, parts = [], ([], [], [])  # (row, *variables, value) by degree
    for poly, t in rows:
        terms = [(monom, complex(num / den)) for monom, num, den
                 in sorted(poly.ring.g_terms(poly), reverse=True)]
        if t:
            terms.append((b"", -t))
        if not terms:
            continue
        scale = max(abs(v) for _, v in terms)
        for monom, v in terms:
            at = [k for k, e in enumerate(monom) for _ in range(e)]
            if len(at) > 2 or any(k >= m for k in at):
                raise DomainError(f"no-go equation term {tuple(monom)} is "
                                  "not of degree <= 2 in the unknowns")
            parts[len(at)].append((len(scales), *at, v / scale))
        scales.append(scale)
    c = np.zeros(len(scales), dtype=complex)
    A = np.zeros((len(scales), m), dtype=complex)
    for row, v in parts[0]:
        c[row] = v
    for row, k, v in parts[1]:
        A[row, k] = v
    cols = list(zip(*parts[2])) or [(), (), (), ()]
    quad = (*(np.array(col, dtype=np.intp) for col in cols[:3]),
            np.array(cols[3], dtype=complex))
    return c, A, quad, np.array(scales)


def prop1_system(s, include_jacobi: bool = True,
                 matching_target=None) -> NoGoSystem:
    """Constraint system for lifting the projective-line hydrodynamic
    bracket with G = p(p-1)(p-s) to a constant homogeneous bracket on
    two fields, read from the packed elements of the table's algebra,
    whose first generators are the unknowns.

    matching_target overrides the (G, G'/2) pair with arbitrary
    canonical (delta', delta) coefficients, {order: {(i, j, k): value}}
    for the monomials p^i p'^j zr^k (zr = z2'/z2) -- used by the
    feasible self-test.  DomainError for a non-finite s.
    """
    if not np.isfinite(complex(s)):
        raise DomainError(f"parameter s = {s} is not finite")
    qsym, rsym, unknowns = _nogo_unknowns()
    table = _nogo_tables(qsym, rsym, unknowns)
    alg = table.alg
    q = {k: alg.gen(sym) for k, sym in qsym.items()}
    r = {k: alg.gen(sym) for k, sym in rsym.items()}

    rows = []  # (polynomial in the unknowns, numeric target)

    # antisymmetry: P symmetric in (a,b); Q_ab + Q_ba = Dx P_ab, which in
    # coefficients reads r_ab^{cd} + r_ba^{cd} = 2 q_ab^{cd}
    rows += [(q[(1, 2, c, d)] - q[(2, 1, c, d)], 0) for c, d in _PAIRS]
    rows += [(r[(a, b, c, d)] + r[(b, a, c, d)] - 2 * q[(a, b, c, d)], 0)
             for (a, b), (c, d) in itertools.product(_PAIRS, _ORDERED_PAIRS)]

    # matching the projective-line bracket through p = z1/z2: G and G'/2
    # times p', G = p^3 - (1 + s) p^2 + s p
    if matching_target is None:
        sc = complex(s)
        matching_target = {
            (1,): {(3, 0, 0): 1, (2, 0, 0): -(1 + sc), (1, 0, 0): sc},
            (0,): {(2, 1, 0): 1.5, (1, 1, 0): -(1 + sc), (0, 1, 0): sc / 2}}
    got = _chart_coefficients(table)
    for order in ((1,), (0,)):
        have, want = got.get(order, {}), matching_target.get(order, {})
        for key in sorted(have.keys() | want.keys(), reverse=True):
            rows.append((have.get(key, alg.zero), want.get(key, 0)))

    if include_jacobi:
        # the z jets in the order z1, z2, z1_x, z2_x, ...
        jets = alg.jets
        at = sorted((i for i, info in enumerate(jets) if info),
                    key=lambda i: jets[i][::-1])
        for tri in dcx.jacobi_triples(("z1", "z2")):
            dp = dcx.jacobi_defect(table, *tri)
            for term in dp.terms:
                g = alg.split(term.value, at)
                rows.extend((g[key] / dp.scale, 0)
                            for key in sorted(g, reverse=True))

    c, A, quad, scales = _quadratic_tensors(rows, len(unknowns))
    return NoGoSystem(s=s, unknowns=unknowns, c=c, A=A, quad=quad,
                      scales=scales)


def _real_split(sys: NoGoSystem):
    """The residual and its exact Jacobian as functions of the real
    vector (Re x, Im x).  The residual is holomorphic in x, so the real
    Jacobian is the block form [[Re J, -Im J], [Im J, Re J]]."""
    m = len(sys.unknowns)

    def resid(xreal):
        r = sys.residual_vector(xreal[:m] + 1j * xreal[m:])
        return np.concatenate([r.real, r.imag])

    def jac(xreal):
        J = sys.jacobian(xreal[:m] + 1j * xreal[m:])
        return np.block([[J.real, -J.imag], [J.imag, J.real]])
    return resid, jac


# residual evaluations per restart, and the gradient, step and decrease
# tolerance of _levenberg_marquardt (scipy's least_squares defaults)
_LM_MAX_NFEV = 400
_LM_TOL = 1e-8


def _levenberg_marquardt(resid, jac, x):
    """Minimise |resid(x)|^2 from x by damped Gauss-Newton steps
    (JtJ + mu I) h = -Jt f (Madsen, Nielsen and Tingleff, "Methods for
    non-linear least squares problems", 2004, alg. 3.16).  mu > 0 keeps
    the system positive definite where J is rank deficient, and follows
    the gain ratio by Nielsen's rule.  Stops once the gradient |Jt f|_inf,
    the step relative to |x|, or an accepted step's relative decrease of
    the squared residual is at most _LM_TOL, or after _LM_MAX_NFEV
    residual evaluations.  Returns (squared residual, nfev, njev)."""
    f = resid(x)
    J = jac(x)
    nfev = njev = 1
    cost, A, g = f @ f, J.T @ J, J.T @ f
    mu, nu = 1e-3 * A.diagonal().max(), 2.0
    eye = np.eye(len(x))
    while nfev < _LM_MAX_NFEV and np.abs(g).max() > _LM_TOL:
        h = np.linalg.solve(A + mu * eye, -g)
        if np.linalg.norm(h) <= _LM_TOL * (np.linalg.norm(x) + _LM_TOL):
            break
        f_new = resid(x + h)
        nfev += 1
        cost_new = f_new @ f_new
        # gain ratio: actual over predicted decrease of |f|^2, the latter
        # positive in exact arithmetic but not always after rounding
        rho = (cost - cost_new) / (h @ (mu * h - g))
        if not (cost_new < cost and rho > 0):
            mu, nu = mu * nu, 2 * nu
            continue
        small = cost - cost_new <= _LM_TOL * cost
        x, f, cost = x + h, f_new, cost_new
        J = jac(x)
        njev += 1
        A, g = J.T @ J, J.T @ f
        mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
        if small:
            break
    return float(cost), nfev, njev


def prop1_certificate(sys: NoGoSystem, restarts: int = 100,
                      seed: int = 0) -> dict:
    """Multi-start least-squares minimization of the squared residual;
    the smallest value found is the no-go evidence.  Each restart starts
    from a seeded normal point and runs _levenberg_marquardt on the
    residual and exact Jacobian of _real_split, for at most _LM_MAX_NFEV
    (400) residual evaluations.  "min_residual" and "median_residual"
    summarise "values", the squared residual of every restart in order,
    and "nfev" and "njev" list its residual and Jacobian evaluations.
    ValueError for fewer than one restart."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    rng = np.random.default_rng(seed)
    resid, jac = _real_split(sys)

    values, nfevs, njevs = [], [], []
    for _ in range(restarts):
        x0 = rng.normal(scale=1.0, size=2 * len(sys.unknowns))
        val, nfev, njev = _levenberg_marquardt(resid, jac, x0)
        values.append(val)
        nfevs.append(nfev)
        njevs.append(njev)
    return {
        "min_residual": min(values),
        "median_residual": float(np.median(values)),
        "values": values,
        "nfev": nfevs,
        "njev": njevs,
    }


def prop1_feasible_selftest(seed: int = 0) -> dict:
    """Feasible control: match the descent of a random antisymmetric
    coefficient choice against its own image (no Jacobi constraints);
    the optimum must reach ~0 because the chosen coefficients solve the
    system by construction.  The coefficients are seeded normal draws
    rounded to multiples of 1/16, so the table is exact over QQ."""
    rng = np.random.default_rng(seed)

    def draw():
        return sp.Rational(round(16 * rng.normal()), 16)
    qv, rv = {}, {}
    for (a, b), (c, d) in itertools.product(_PAIRS, _PAIRS):
        val = draw()
        for key in ((a, b, c, d), (a, b, d, c), (b, a, c, d), (b, a, d, c)):
            qv[key] = val
    for (a, b), (c, d) in itertools.product(_PAIRS, _ORDERED_PAIRS):
        r1 = draw()
        # r_ab + r_ba = 2 q_ab, so r_aa = q_aa
        rv[(a, b, c, d)] = r1 if a != b else qv[(a, b, c, d)]
        rv[(b, a, c, d)] = 2 * qv[(a, b, c, d)] - rv[(a, b, c, d)]

    target = {order: {key: complex(num / den) for key, p in coeffs.items()
                      for _, num, den in p.ring.g_terms(p)}
              for order, coeffs in
              _chart_coefficients(_nogo_tables(qv, rv)).items()}
    sys2 = prop1_system(s=2, include_jacobi=False, matching_target=target)
    return prop1_certificate(sys2, restarts=8, seed=seed)


# ---------------------------------------------------------------------------
# finite-dimensional warm-up on three homogeneous coordinates

def cp2_check(g2val=None, g3val=None, corrupt: bool = False) -> dict:
    """Gradient bracket {z_i(x), z_j(y)} = eps_ijk dQt/dz_k delta(x-y) of
    the cubic Qt on (z1, z2, z3), an ultralocal table: exact Jacobi
    identity, and exact descent to the affine coordinates p1 = z1/z3,
    p2 = z2/z3 by lemma1_descend, where {p1, p2} must be
    (p1^2 - 4 p2^3 + G2 p2 + G3) delta.  `corrupt` perturbs one
    coefficient of the cubic for the negative control."""
    z1, z2, z3 = (jet(f) for f in ("z1", "z2", "z3"))
    G2 = g2 if g2val is None else sp.sympify(g2val)
    G3 = g3 if g3val is None else sp.sympify(g3val)
    cube = 5 if corrupt else 4
    Qt = (z1**2 * z3 - cube * z2**3 + G2 * z2 * z3**2 + G3 * z3**3) / 3
    table = dcx.build_table(("z1", "z2", "z3"), {
        ("z1", "z2"): [(sp.diff(Qt, z3), 0)],
        ("z2", "z3"): [(sp.diff(Qt, z1), 0)],
        ("z3", "z1"): [(sp.diff(Qt, z2), 0)],
    })
    red = lemma1_descend(table, "z3")
    p1, p2 = jet("p1"), jet("p2")
    target = red.scale * red.alg.conv(p1**2 - 4 * p2**3 + G2 * p2 + G3)
    return {
        "descent_exact": red.entry("p1", "p2") == (
            dcx.DeltaTerm(target, (0,)),),
        "jacobi_exact": all(dcx.jacobi_defect(table, *tr).is_zero()
                            for tr in dcx.jacobi_triples(table.fields)),
    }
