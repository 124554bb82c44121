"""Numerical evaluation of Weierstrass functions and the weight-1/2/3
quasi-modular forms on the lattice Z + Z*tau.

The fast path uses nome-series (expansions in q = e^{2 pi i tau} and
x = e^{2 pi i z}) after reducing the argument to the fundamental cell.
`lattice_oracle` provides an independent brute-force truncated lattice
sum used only for cross-validation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CollisionError, ConvergenceError, DomainError, PoleError

TWO_PI_I = 2j * math.pi

MAX_TRUNCATION = 4000
POLE_GUARD = 1e-6


@dataclass(frozen=True)
class EllipticContext:
    """Immutable evaluation environment for a fixed modular parameter.

    g1 is the quasi-period of the zeta function across the period 1;
    g2, g3 are the cubic invariants in wp_z^2 = 4 wp^3 - g2 wp - g3.
    ``eta_tau`` is the zeta quasi-period across the period tau
    (g1*tau - 2*pi*i, validated numerically in the test suite).
    ``q_table`` holds, for n = 1..series_truncation, the row
    (q^n, 2 q^n / (1 - q^n)^2, (1 - q^n)^2): the factors of the series
    kernels that depend on q alone, formed once per context.
    ``q_parts`` holds the same rows for the array kernels: a read-only
    float array of shape (3, 2, n), each column of q_table as its real and
    imaginary parts.
    """

    tau: complex
    nome_q: complex
    g1: complex
    g2: complex
    g3: complex
    series_truncation: int
    q_table: tuple[tuple[complex, complex, complex], ...] = field(
        repr=False, compare=False)
    q_parts: np.ndarray = field(repr=False, compare=False)
    tolerance: float = 1e-10

    @property
    def eta_tau(self) -> complex:
        return self.g1 * self.tau - TWO_PI_I


def make_context(tau: complex) -> EllipticContext:
    """Build an EllipticContext with the series truncation chosen from |q|.

    The context holds tau translated by the integer part of its real
    part, which changes neither the nome nor the lattice Z + Z tau, so
    that the phase 2 pi Re(tau) is formed without rounding a large real
    part; a tau with |Re(tau)| < 1 is kept as it is.

    Raises DomainError for a tau whose nome exp(2 pi i tau) cannot be
    formed (not finite, or a real part whose phase overflows) or with
    Im(tau) <= 0, ConvergenceError if the geometric tail cannot reach the
    tolerance within the configured maximum truncation.
    """
    tau = complex(tau)
    if not (cmath.isfinite(tau) and math.isfinite(2 * math.pi * tau.real)):
        raise DomainError(f"modular parameter {tau} is not finite")
    if tau.imag <= 0:
        raise DomainError(f"modular parameter needs Im(tau) > 0, got {tau}")
    if shift := math.trunc(tau.real):
        tau -= shift
    tolerance = EllipticContext.tolerance
    q = cmath.exp(TWO_PI_I * tau)
    absq = abs(q)
    # Dropped tail of the q-series is geometric; aim two orders below target.
    target = tolerance * 1e-3
    if absq >= 1.0:  # Im(tau) too small for |q| to round below 1
        raise ConvergenceError(f"|q| rounds to 1 at tau={tau}")
    if absq == 0.0:  # nome underflowed; any truncation is exact
        n = 8
    else:
        n = max(8, int(math.ceil(math.log(target) / math.log(absq))) + 2)
    if n > MAX_TRUNCATION:
        raise ConvergenceError(
            f"need {n} series terms for tolerance {tolerance} at |q|={absq:.3g}, "
            f"max is {MAX_TRUNCATION}")
    g1, g2, g3, table = _modular_forms(q, n)
    columns = np.array(table, dtype=complex).T
    parts = np.stack([columns.real, columns.imag], axis=1)
    parts.flags.writeable = False
    return EllipticContext(tau=tau, nome_q=q, g1=g1, g2=g2, g3=g3,
                           series_truncation=n, q_table=table, q_parts=parts)


def _modular_forms(q: complex, n: int
                   ) -> tuple[complex, complex, complex, tuple]:
    """(g1, g2, g3) from their Eisenstein q-series truncated after q^n,
    and the context's q_table of n rows, formed in the same pass."""
    pi2 = math.pi ** 2
    s1 = s3 = s5 = 0.0 + 0.0j
    qm = 1.0 + 0.0j
    table = []
    for m in range(1, n + 1):
        qm *= q
        d = 1.0 - qm
        w = qm / d
        s1 += m * w
        s3 += m ** 3 * w
        s5 += m ** 5 * w
        dd = d * d
        table.append((qm, 2.0 * qm / dd, dd))
    g1 = pi2 / 3.0 - 8.0 * pi2 * s1
    g2 = 4.0 * pi2 ** 2 / 3.0 + 320.0 * pi2 ** 2 * s3
    g3 = 8.0 * pi2 ** 3 / 27.0 - (448.0 / 3.0) * pi2 ** 3 * s5
    return g1, g2, g3, tuple(table)


def reduce_argument(tau: complex, z: complex) -> tuple[complex, int, int]:
    """Reduce z modulo Z + Z*tau to the cell centered at the origin.

    Returns (z_reduced, m, k) with z = z_reduced + m + k*tau;
    DomainError for a non-finite z, or one whose reduction leaves the
    double range.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"argument {z} is not finite")
    try:
        k = round(z.imag / tau.imag)
        zr = z - k * tau
        m = round(zr.real)
    except (OverflowError, ValueError):
        raise DomainError(f"argument {z} is too large to reduce") from None
    zr = zr - m
    return zr, m, k


def _check_pole(zr: complex):
    """PoleError for a reduced argument within POLE_GUARD of 0.  Every
    other lattice point is min(1/2, Im(tau)/2) >= 5.9e-4 or more away at
    a tau that make_context accepts, so 0 is the only one to check."""
    if abs(zr) < POLE_GUARD:
        raise PoleError(f"argument within {POLE_GUARD} of lattice point 0")


def _qz(z: complex) -> complex:
    return cmath.exp(TWO_PI_I * z)


# The array kernels replay CPython's complex arithmetic on split float64
# parts, one correctly rounded ufunc per float operation, so that they give
# the bits of the scalar code.  numpy's own complex128 product and quotient
# use other formulas; its add and multiply accumulate one element after
# another with CPython's.

def cmul(a, b):
    """a * b on split parts a = (re, im), b = (re, im): _Py_c_prod."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def cdiv(a, b):
    """a / b on split parts: _Py_c_quot, Smith's division scaled by the
    larger part of b (R. L. Smith, Algorithm 116, CACM 5 (1962) 435).
    Where `a / b` raises ZeroDivisionError the parts are NaN."""
    by_real = abs(b[0]) >= abs(b[1])
    big, small = np.where(by_real, b[0], b[1]), np.where(by_real, b[1], b[0])
    p, q = np.where(by_real, a[0], a[1]), np.where(by_real, a[1], a[0])
    ratio = small / big
    denom = big + small * ratio
    pr = p * ratio
    return (p + q * ratio) / denom, np.where(by_real, q - pr, pr - q) / denom


class _Split:
    """Complex values as float parts (arrays, or floats), with CPython's
    complex operators: a real or complex operand is promoted as CPython
    promotes it, f to (f, 0.0), so `1.0 - a` is (1.0 - a.re, 0.0 - a.im).
    Where CPython raises, the parts are NaN."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    @staticmethod
    def of(values) -> _Split:
        c = np.asarray(values, dtype=complex)
        return _Split(c.real, c.imag)

    def values(self) -> list[complex]:
        out = np.empty(np.shape(self.re), dtype=complex)
        out.real, out.imag = self.re, self.im
        return out.tolist()

    def where(self, mask) -> _Split:
        """These values where mask holds, NaN elsewhere."""
        return _Split(np.where(mask, self.re, np.nan),
                      np.where(mask, self.im, np.nan))

    def finite(self):
        return np.isfinite(self.re) & np.isfinite(self.im)

    def exp(self) -> _Split:
        """cmath.exp of each value with real part at most 700, where it
        cannot overflow; NaN for the others."""
        ok = self.finite() & (self.re <= 700.0)
        w = self.where(ok).values()
        return _Split.of([cmath.exp(v) if k else v
                          for v, k in zip(w, ok.tolist())])

    def __add__(self, b):
        b = _promote(b)
        return _Split(self.re + b[0], self.im + b[1])

    __radd__ = __add__  # float addition commutes, bit for bit

    def __sub__(self, b):
        b = _promote(b)
        return _Split(self.re - b[0], self.im - b[1])

    def __rsub__(self, a):
        a = _promote(a)
        return _Split(a[0] - self.re, a[1] - self.im)

    def __mul__(self, b):
        return _Split(*cmul((self.re, self.im), _promote(b)))

    __rmul__ = __mul__  # so does cmul

    def __truediv__(self, b):
        return _Split(*cdiv((self.re, self.im), _promote(b)))

    def __rtruediv__(self, a):
        return _Split(*cdiv(_promote(a), (self.re, self.im)))

    def __pow__(self, n: int) -> _Split:
        """An integral power n >= 1 as c_powu forms it, NaN where a part of
        it is infinite (CPython raises OverflowError there)."""
        r, p = _Split(1.0, 0.0), self
        while n:
            if n & 1:
                r = r * p
            n >>= 1
            if n:
                p = p * p
        return r.where(~(np.isinf(r.re) | np.isinf(r.im)))


def _promote(b):
    if isinstance(b, _Split):
        return b.re, b.im
    b = complex(b)
    return b.real, b.imag


# Series terms (points x rows) from which one call sums its rows in the
# numpy kernels instead of the pure-Python loops.  On a 2-vCPU Xeon with
# numpy 2.4 the kernels win from about 215-300 rows for one point (wp_z
# first, sigma last) and from 280-320 terms for wp, wp_z and zeta at many
# points of an 8-row table (sigma_many, with three exponentials a point,
# from about 700).
ARRAY_CROSSOVER = 300
_KERNEL_BLOCK = 1 << 13  # series terms per kernel pass


def _row_sums(terms, ctx: EllipticContext, x: _Split, first: _Split,
              combine=np.add) -> _Split:
    """At each point x, its first value combined (added, or multiplied)
    with the series' row terms `terms(qn, c, e, x)` one row after another,
    as the scalar loop combines them."""
    rows = ctx.series_truncation
    points = len(x.re)
    step = max(1, _KERNEL_BLOCK // rows)
    out = np.empty(points, dtype=complex)
    for lo in range(0, points, step):
        block = slice(lo, lo + step)
        xb = _Split(x.re[block], x.im[block])
        acc = np.empty((len(xb.re), rows + 1), dtype=complex)
        acc.real[:, 0], acc.imag[:, 0] = first.re[block], first.im[block]
        if len(xb.re) > rows:  # the longer axis innermost: rows x points
            t = terms(*(_Split(re[:, None], im[:, None])
                        for re, im in ctx.q_parts), xb)
            t = _Split(t.re.T, t.im.T)
        else:
            t = terms(*(_Split(re, im) for re, im in ctx.q_parts),
                      _Split(xb.re[:, None], xb.im[:, None]))
        acc.real[:, 1:], acc.imag[:, 1:] = t.re, t.im
        out[block] = combine.accumulate(acc, axis=1)[:, -1]
    return _Split(out.real, out.imag)


def _rows(ctx: EllipticContext, loop, terms, x: complex, first: complex,
          combine=np.add) -> complex:
    """loop(ctx.q_table, x, first): through the kernel from
    ARRAY_CROSSOVER rows on, where its value is finite and so the loop's
    (a division by zero, where the loop raises, leaves NaN)."""
    if ctx.series_truncation >= ARRAY_CROSSOVER:
        with np.errstate(all="ignore"):
            val, = _row_sums(terms, ctx, _Split.of([x]), _Split.of([first]),
                             combine).values()
        if cmath.isfinite(val):
            return val
    return loop(ctx.q_table, x, first)


def _reduce(ctx: EllipticContext, z: _Split):
    """reduce_argument on split parts: (zr, m, k), with m and k as
    promoted parts (NaN where z or the reduction is not finite)."""
    k = np.rint(z.im / ctx.tau.imag) + 0.0  # round() gives +0, not -0.0
    zr = z - _Split(k, 0.0) * ctx.tau
    m = np.rint(zr.re) + 0.0
    ok = np.isfinite(k) & np.isfinite(m) & zr.finite()
    return (zr - _Split(m, 0.0)).where(ok), _Split(m, 0.0), _Split(k, 0.0)


def _many(scalar, prepare, terms, ctx: EllipticContext, zs,
          combine=np.add) -> list[complex]:
    """[scalar(ctx, z) for z in zs], bit for bit, raising what that loop
    raises first.  From ARRAY_CROSSOVER series terms on, prepare(ctx, z)
    gives, on the split points z, their x, the first values of their row
    sums and the function that finishes the sums into the values, with x
    NaN at the points it leaves to scalar; one kernel call sums the rows.
    A point whose value is not finite goes through scalar, which raises or
    falls back as it does alone."""
    zs = list(zs)
    if len(zs) * ctx.series_truncation < ARRAY_CROSSOVER:
        return [scalar(ctx, z) for z in zs]
    try:
        z = _Split.of([complex(v) for v in zs])
    except (TypeError, ValueError):
        return [scalar(ctx, z) for z in zs]
    with np.errstate(all="ignore"):
        x, first, finish = prepare(ctx, z)
        vals = finish(_row_sums(terms, ctx, x, first, combine))
        ok = vals.finite().tolist()
    return [v if good else scalar(ctx, z)
            for v, good, z in zip(vals.values(), ok, zs)]


@dataclass(frozen=True)
class _Series:
    """A q-series at the reduced argument zr, x = exp(2 pi i zr):
    tail(ctx, zr, acc) of acc = head(x) plus the row terms, added by
    `loop` or by the kernel `terms`.  `lead` is its collapsed leading term
    and `parity` the function's parity (see _in_double_range); `shift`,
    if any, takes the value at zr to the value at z = zr + m + k tau."""

    head: object
    loop: object
    terms: object
    tail: object
    lead: object
    parity: int
    shift: object = None

    def __call__(self, ctx: EllipticContext, zr: complex) -> complex:
        x = _qz(zr)
        return self.tail(ctx, zr, _rows(ctx, self.loop, self.terms, x,
                                        self.head(x)))

    def prepare(self, ctx: EllipticContext, z: _Split):
        """For _many: the points off the pole guard (with a margin that
        leaves the guard's edge to the scalar check) in the series."""
        zr, m, k = _reduce(ctx, z)
        zr = zr.where(zr.re * zr.re + zr.im * zr.im > (2 * POLE_GUARD) ** 2)
        x = (TWO_PI_I * zr).exp()

        def finish(acc: _Split) -> _Split:
            val = self.tail(ctx, zr, acc)
            return self.shift(ctx, m, k, val) if self.shift else val
        return x, self.head(x), finish


def _in_double_range(series: _Series, ctx: EllipticContext,
                     zr: complex) -> complex:
    """series(ctx, zr) where exp(2 pi i zr) and the powers the series takes
    of it stay in the double range.  Past that, for Im zr < 0 the function's
    parity gives the value from -zr; for Im zr > 0 the exponential has
    underflowed, and with it every q-term (|q^n / x| <= |x| in the cell), so
    the series has collapsed to its leading term series.lead(ctx, zr)."""
    try:
        val = series(ctx, zr)
        if cmath.isfinite(val):
            return val
    except (ZeroDivisionError, OverflowError):
        pass
    if zr.imag < 0:
        return series.parity * _in_double_range(series, ctx, -zr)
    if _qz(zr) == 0:
        return series.lead(ctx, zr)
    raise ConvergenceError(f"q-series overflowed at reduced argument {zr}")


# In the loops over q_table the series write (1 - t)^2 as d*d and
# (1 - t)^3 as d*(d*d), d = 1 - t: the products CPython's complex power
# by 2 and by 3 forms, bit for bit, wherever they are finite.  There
# |t| <= |q|^(1/2) < 1, so they are.  The head in x keeps the power: for
# |x| past about 1e102 (cube) or 1e154 (square) it raises OverflowError,
# and _in_double_range falls back on the parity, where the product would
# give a finite value that drops that term.  Each kernel's terms are its
# loop's body, on _Split rows qn, c, e of ctx.q_parts.

def _wp_loop(table, x: complex, acc: complex) -> complex:
    for qn, c, _ in table:
        a = qn * x
        b = qn / x
        da = 1.0 - a
        db = 1.0 - b
        acc += a / (da * da) + b / (db * db) - c
    return acc


def _wp_terms(qn, c, e, x):
    a = qn * x
    b = qn / x
    da = 1.0 - a
    db = 1.0 - b
    return a / (da * da) + b / (db * db) - c


_WP = _Series(head=lambda x: 1.0 / 12.0 + x / (1.0 - x) ** 2,
              loop=_wp_loop, terms=_wp_terms,
              tail=lambda ctx, zr, acc: TWO_PI_I ** 2 * acc,
              lead=lambda ctx, zr: TWO_PI_I ** 2 / 12.0, parity=1)


def wp(ctx: EllipticContext, z: complex) -> complex:
    """Weierstrass elliptic function for the lattice Z + Z*tau."""
    zr, _, _ = reduce_argument(ctx.tau, z)
    _check_pole(zr)
    return _in_double_range(_WP, ctx, zr)


def wp_many(ctx: EllipticContext, zs) -> list[complex]:
    """[wp(ctx, z) for z in zs], bit for bit; see _many."""
    return _many(wp, _WP.prepare, _WP.terms, ctx, zs)


def _wp_z_loop(table, x: complex, acc: complex) -> complex:
    for qn, _, _ in table:
        a = qn * x
        b = qn / x
        da = 1.0 - a
        db = 1.0 - b
        acc += (a * (1.0 + a) / (da * (da * da))
                - b * (1.0 + b) / (db * (db * db)))
    return acc


def _wp_z_terms(qn, c, e, x):
    a = qn * x
    b = qn / x
    da = 1.0 - a
    db = 1.0 - b
    return (a * (1.0 + a) / (da * (da * da))
            - b * (1.0 + b) / (db * (db * db)))


_WP_Z = _Series(head=lambda x: x * (1.0 + x) / (1.0 - x) ** 3,
                loop=_wp_z_loop, terms=_wp_z_terms,
                tail=lambda ctx, zr, acc: TWO_PI_I ** 3 * acc,
                lead=lambda ctx, zr: 0j, parity=-1)


def wp_z(ctx: EllipticContext, z: complex) -> complex:
    """z-derivative of wp."""
    zr, _, _ = reduce_argument(ctx.tau, z)
    _check_pole(zr)
    return _in_double_range(_WP_Z, ctx, zr)


def wp_z_many(ctx: EllipticContext, zs) -> list[complex]:
    """[wp_z(ctx, z) for z in zs], bit for bit; see _many."""
    return _many(wp_z, _WP_Z.prepare, _WP_Z.terms, ctx, zs)


def wp_zz(ctx: EllipticContext, z: complex) -> complex:
    """Second z-derivative, through the algebraic rewrite wp_zz_rule."""
    return wp_zz_rule(wp(ctx, z), ctx.g2)


def _zeta_loop(table, x: complex, acc: complex) -> complex:
    for qn, _, _ in table:
        acc += (1.0 / (1.0 - qn * x) - 0.5) - (1.0 / (1.0 - qn / x) - 0.5)
    return acc


def _zeta_terms(qn, c, e, x):
    return (1.0 / (1.0 - qn * x) - 0.5) - (1.0 / (1.0 - qn / x) - 0.5)


def _quasi_periods(ctx: EllipticContext, m, k, val):
    """zeta(z) from val = zeta(zr), z = zr + m + k*tau: val plus the
    quasi-periods m*g1 + k*eta_tau."""
    return val + m * ctx.g1 + k * ctx.eta_tau


_ZETA = _Series(head=lambda x: 1.0 / (1.0 - x) - 0.5,
                loop=_zeta_loop, terms=_zeta_terms,
                tail=lambda ctx, zr, acc: ctx.g1 * zr - TWO_PI_I * acc,
                lead=lambda ctx, zr: ctx.g1 * zr - TWO_PI_I * 0.5, parity=-1,
                shift=_quasi_periods)


def zeta(ctx: EllipticContext, z: complex) -> complex:
    """Weierstrass zeta function (quasi-periodic; reduction adds the
    quasi-periods m*g1 + k*eta_tau).  DomainError where they leave the
    double range."""
    zr, m, k = reduce_argument(ctx.tau, z)
    _check_pole(zr)
    val = _quasi_periods(ctx, m, k, _in_double_range(_ZETA, ctx, zr))
    if not cmath.isfinite(val):
        raise DomainError(f"zeta({z}) leaves the double range")
    return val


def zeta_many(ctx: EllipticContext, zs) -> list[complex]:
    """[zeta(ctx, z) for z in zs], bit for bit; see _many."""
    return _many(zeta, _ZETA.prepare, _ZETA.terms, ctx, zs)


def _sigma_loop(table, x: complex, prod: complex) -> complex:
    for qn, _, e in table:
        prod *= (1.0 - qn * x) * (1.0 - qn / x) / e
    return prod


def _sigma_terms(qn, c, e, x):
    return (1.0 - qn * x) * (1.0 - qn / x) / e


def _sigma_head(ctx: EllipticContext, z, exp=cmath.exp):
    """x = exp(2 pi i z) and the prefactor of sigma's product formula."""
    half = exp(1j * math.pi * z)  # x ** (1/2) without branch trouble
    pref = exp(ctx.g1 * z * z / 2.0) * (half - 1.0 / half) / TWO_PI_I
    return exp(TWO_PI_I * z), pref


def sigma(ctx: EllipticContext, z: complex) -> complex:
    """Weierstrass sigma function.  On the origin-centered cell it is the
    product formula; elsewhere, with z = z_r + m + k*tau and w = m + k*tau,
    the quasi-periodicity
    sigma(z) = (-1)^(m+k+mk) exp(eta(w) (z_r + w/2)) sigma(z_r),
    eta(w) = m*g1 + k*eta_tau.  DomainError where a factor or the value
    leaves the double range.
    """
    z = complex(z)
    zr, m, k = reduce_argument(ctx.tau, z)
    try:
        if m != 0 or k != 0:
            w = m + k * ctx.tau
            factor = cmath.exp((m * ctx.g1 + k * ctx.eta_tau) * (zr + w / 2))
            val = factor * sigma(ctx, zr)
            if factor == 0 or not cmath.isfinite(val):
                raise DomainError(f"sigma({z}) leaves the double range")
            return -val if (m + k + m * k) % 2 else val
        x, pref = _sigma_head(ctx, z)
        return pref * _rows(ctx, _sigma_loop, _sigma_terms, x, 1.0 + 0.0j,
                            np.multiply)
    except (ZeroDivisionError, OverflowError, ValueError):
        raise DomainError(f"sigma({z}) leaves the double range") from None


def _sigma_prepare(ctx: EllipticContext, z: _Split):
    """For _many: the points of the origin-centred cell, the product
    formula's empty product, and its prefactor."""
    _, m, k = _reduce(ctx, z)
    x, pref = _sigma_head(ctx, z, _Split.exp)
    ones = np.ones_like(z.re)
    return (x.where((m.re == 0) & (k.re == 0)), _Split(ones, 0.0 * ones),
            lambda prod: pref * prod)


def sigma_many(ctx: EllipticContext, zs) -> list[complex]:
    """[sigma(ctx, z) for z in zs], bit for bit; see _many."""
    return _many(sigma, _sigma_prepare, _sigma_terms, ctx, zs, np.multiply)


# The rules: plain arithmetic, giving numbers at complex arguments and the
# exact rules of symexpr at sympy symbols.  An int factor makes the same
# complex operand a float one does, so every float keeps its bits.

def wp_zz_rule(w, g2):
    """wp'' = 6 wp^2 - g2/2 from w = wp(z)."""
    return 6 * w * w - g2 / 2


def leaf_derivations(z, w, dz, zt, g1, g2):
    """2 pi i d/dtau of (w, zt, dz) = (wp, zeta, wp_z) at z."""
    s = zt - z * g1
    return (s * dz + 2 * w * w - 2 * g1 * w - g2 / 3,
            g1 * z * w + g2 * z / 12 - g1 * zt - zt * w - dz / 2,
            3 * (w - g1) * dz + s * wp_zz_rule(w, g2))


def g_derivations(g1, g2, g3):
    """The closed quasi-modular system: 2 pi i (dg1, dg2, dg3)/dtau."""
    return (g2 / 12 - g1 * g1, 6 * g3 - 4 * g1 * g2,
            g2 * g2 / 3 - 6 * g1 * g3)


def tau_closed_forms(ctx: EllipticContext, z: complex, w: complex,
                     dz: complex, zt: complex
                     ) -> tuple[complex, complex, complex, complex]:
    """(d wp/d tau, d zeta/d tau, d log sigma/d tau, d^2 log sigma/d tau^2)
    at z, from w = wp(z), dz = wp_z(z) and zt = zeta(z).  The second
    applies the scaled derivation to the first closed form and reads the
    scaled derivatives of wp and zeta back from the divided ones."""
    g1, g2 = ctx.g1, ctx.g2
    d_wp, d_zeta, _ = leaf_derivations(z, w, dz, zt, g1, g2)
    wp_t, zeta_t = d_wp / TWO_PI_I, d_zeta / TWO_PI_I
    ls_t = (g1 + g2 * z * z / 24.0 - z * g1 * zt + zt * zt / 2.0
            - w / 2.0) / TWO_PI_I
    d_g1, d_g2, _ = g_derivations(g1, g2, ctx.g3)
    zt_th, wp_th = TWO_PI_I * zeta_t, TWO_PI_I * wp_t
    ls_t2 = (d_g1 + d_g2 * z * z / 24.0 - z * d_g1 * zt - z * g1 * zt_th
             + zt * zt_th - wp_th / 2.0) / TWO_PI_I ** 2
    return wp_t, zeta_t, ls_t, ls_t2


def _closed_forms_at(ctx: EllipticContext, z: complex):
    return tau_closed_forms(ctx, z, wp(ctx, z), wp_z(ctx, z), zeta(ctx, z))


def wp_tau(ctx: EllipticContext, z: complex) -> complex:
    """Closed form for d(wp)/d(tau)."""
    return _closed_forms_at(ctx, z)[0]


def zeta_tau(ctx: EllipticContext, z: complex) -> complex:
    """Closed form for 2*pi*i d(zeta)/d(tau), divided back by 2*pi*i."""
    return _closed_forms_at(ctx, z)[1]


def log_sigma_tau(ctx: EllipticContext, z: complex) -> complex:
    """Closed form for d(log sigma)/d(tau)."""
    return _closed_forms_at(ctx, z)[2]


def log_sigma_tau2(ctx: EllipticContext, z: complex) -> complex:
    """Closed form for d^2(log sigma)/d(tau)^2."""
    return _closed_forms_at(ctx, z)[3]


def g_tau_derivatives(ctx: EllipticContext) -> tuple[complex, complex, complex]:
    """(dg1/dtau, dg2/dtau, dg3/dtau)."""
    return tuple(d / TWO_PI_I
                 for d in g_derivations(ctx.g1, ctx.g2, ctx.g3))


def g1_second_derivation(ctx: EllipticContext) -> complex:
    """(2 pi i)^2 d^2(g1)/dtau^2: the scaled derivation applied twice."""
    d_g1, d_g2, _ = g_derivations(ctx.g1, ctx.g2, ctx.g3)
    return d_g2 / 12.0 - 2.0 * ctx.g1 * d_g1


def q_weight(ctx: EllipticContext, u: complex, v: complex,
             method: str = "zeta") -> complex:
    """Two-point weight q(u, v) = zeta(v-u) + zeta(u) - g1*v.

    method="rational" evaluates the equivalent rational-wp form
    (wp_u(u) + wp_v(v)) / (2 (wp(v) - wp(u))) + zeta(v) - g1*v instead;
    both must agree to tolerance wherever defined.
    """
    if method == "zeta":
        return q_zeta_form(ctx.g1, v, zeta(ctx, v - u), zeta(ctx, u))
    if method == "rational":
        wu, wv = wp(ctx, u), wp(ctx, v)
        if abs(wv - wu) < 1e-8 * max(1.0, abs(wu), abs(wv)):
            raise CollisionError(f"wp collision at u={u}, v={v}")
        return q_rational_form(ctx.g1, v, wu, wv, wp_z(ctx, u), wp_z(ctx, v),
                               zeta(ctx, v))
    raise DomainError(f"unknown q_weight method {method!r}")


def q_zeta_form(g1: complex, v: complex, zeta_vu: complex,
                zeta_u: complex) -> complex:
    """q(u, v) from zeta(v - u) and zeta(u)."""
    return zeta_vu + zeta_u - g1 * v


def q_rational_form(g1: complex, v: complex, wu: complex, wv: complex,
                    dwu: complex, dwv: complex, zeta_v: complex) -> complex:
    """q(u, v) from wp, wp_z at u and v and zeta(v)."""
    return (dwu + dwv) / (2.0 * (wv - wu)) + zeta_v - g1 * v


@dataclass(frozen=True)
class OracleValues:
    wp: complex
    zeta: complex
    sigma: complex


_ORACLE_BLOCK = 1 << 15  # lattice points per block of the oracle sums


def _lattice(tau: complex, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero lattice points a + b*tau, |a|, |b| <= radius, and their
    reciprocals.  DomainError for Im(tau) <= 0 or radius < 10."""
    tau = complex(tau)
    if not tau.imag > 0:
        raise DomainError(f"modular parameter needs Im(tau) > 0, got {tau}")
    if radius < 10:
        raise DomainError("oracle radius must be >= 10")
    r = np.arange(-radius, radius + 1)
    a, b = np.meshgrid(r, r)
    om = np.delete((a + b * tau).ravel(), r.size ** 2 // 2)  # drop a = b = 0
    return om, np.reciprocal(om)


def _blocks(*arrays):
    """The arrays' slices over successive blocks of _ORACLE_BLOCK points."""
    for lo in range(0, arrays[0].size, _ORACLE_BLOCK):
        yield tuple(x[lo:lo + _ORACLE_BLOCK] for x in arrays)


def _oracle_sums(tau: complex, points: list[complex], radius: int):
    """The truncated lattice sums at each point z, as three arrays over
    the points: wp, zeta, and the log-sum sum' log(1 - w) + w + w^2/2
    (w = z/om), whose exponential times z is sigma.

    The logarithm is taken in real arithmetic: arctan2 for the argument,
    and for the modulus log1p(|w|^2 - 2 Re w) where |w| < 1/2 (no
    cancellation for small w) and log |1 - w|^2 elsewhere (no cancellation
    near a lattice point).  Each point's sums depend on that point alone.
    DomainError for a non-finite point, PoleError for a point within 1e-9
    of a summed lattice point."""
    om, inv = _lattice(tau, radius)
    for z in points:
        if not cmath.isfinite(z):
            raise DomainError(f"oracle argument {z} is not finite")
        zr, m, k = reduce_argument(tau, z)
        if abs(zr) < 1e-9 and max(abs(m), abs(k)) <= radius:
            raise PoleError(f"oracle argument {z} too close to a lattice point")
    wp_s = np.array([1.0 / z ** 2 for z in points], dtype=complex)
    zeta_s = np.array([1.0 / z for z in points], dtype=complex)
    log_re = np.zeros(len(points))
    log_im = np.zeros(len(points))
    for o, r in _blocks(om, inv):
        r2 = r * r
        for i, z in enumerate(points):
            d = np.reciprocal(z - o)
            wp_s[i] += np.sum(d * d - r2)
            zeta_s[i] += np.sum(d + r + z * r2)
            w = z * r
            wr, wi = w.real, w.imag
            wr2, wi2 = wr * wr, wi * wi
            near = wr2 + wi2 < 0.25
            mod = np.log1p(wr2 + wi2 - 2.0 * wr, where=near,
                           out=np.empty_like(wr))
            far = ~near
            if far.any():
                mod[far] = np.log((1.0 - wr[far]) ** 2 + wi2[far])
            log_re[i] += np.sum(0.5 * mod + wr + 0.5 * (wr2 - wi2))
            log_im[i] += np.sum(np.arctan2(-wi, 1.0 - wr) + wi + wr * wi)
    return wp_s, zeta_s, log_re + 1j * log_im


def lattice_oracle(tau: complex, z: complex | list[complex],
                   radius: int = 200) -> OracleValues | list[OracleValues]:
    """Brute-force truncated lattice sums over |a|,|b| <= radius, at one
    point z (an OracleValues) or at each point of a sequence z (a list of
    them, in order).  The lattice is built once per call and each point's
    sums depend on that point alone, so a batch gives the values of one
    call per point.

    Slowly convergent (tail ~ 1/radius^2 after the symmetric-box odd-term
    cancellation); meant only as an independent cross-check of the series
    path.  DomainError for Im(tau) <= 0, radius < 10 or a non-finite
    point; PoleError for a point within 1e-9 of a summed lattice point.
    """
    points = [complex(p) for p in np.ravel(z)]
    wp_s, zeta_s, log_s = _oracle_sums(tau, points, radius)
    out = [OracleValues(wp=complex(w), zeta=complex(zt),
                        sigma=complex(p * np.exp(ls)))
           for p, w, zt, ls in zip(points, wp_s, zeta_s, log_s)]
    return out if np.ndim(z) else out[0]


def eisenstein_oracle(tau: complex, radius: int = 100) -> tuple[complex, complex]:
    """(g2, g3) via the direct lattice sums 60 sum' 1/om^4, 140 sum' 1/om^6.
    DomainError for Im(tau) <= 0 or radius < 10."""
    _, inv = _lattice(tau, radius)
    s4 = s6 = 0j
    for (r,) in _blocks(inv):
        r2 = r * r
        r4 = r2 * r2
        s4 += np.sum(r4)
        s6 += np.sum(r4 * r2)
    return complex(60.0 * s4), complex(140.0 * s6)
