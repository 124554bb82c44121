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
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConvergenceError, DomainError, PoleError

TWO_PI_I = 2j * math.pi

MAX_TRUNCATION = 4000


@dataclass(frozen=True)
class EllipticContext:
    """Immutable evaluation environment for a fixed modular parameter.

    g1 is the quasi-period of the zeta function across the period 1;
    g2, g3 are the cubic invariants in wp_z^2 = 4 wp^3 - g2 wp - g3.
    ``eta_tau`` is the zeta quasi-period across the period tau
    (g1*tau - 2*pi*i, validated numerically in the test suite).
    """

    tau: complex
    nome_q: complex
    g1: complex
    g2: complex
    g3: complex
    series_truncation: int
    tolerance: float = 1e-10
    pole_guard: float = 1e-6

    @property
    def eta_tau(self) -> complex:
        return self.g1 * self.tau - TWO_PI_I


def make_context(tau: complex) -> EllipticContext:
    """Build an EllipticContext with the series truncation chosen from |q|.

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
    tolerance = EllipticContext.tolerance
    q = cmath.exp(TWO_PI_I * tau)
    absq = abs(q)
    # Dropped tail of the q-series is geometric; aim two orders below target.
    target = tolerance * 1e-3
    if absq == 0.0:  # nome underflowed; any truncation is exact
        n = 8
    else:
        n = max(8, int(math.ceil(math.log(target) / math.log(absq))) + 2)
    if n > MAX_TRUNCATION:
        raise ConvergenceError(
            f"need {n} series terms for tolerance {tolerance} at |q|={absq:.3g}, "
            f"max is {MAX_TRUNCATION}")
    g1, g2, g3 = _modular_forms(q, n)
    return EllipticContext(tau=tau, nome_q=q, g1=g1, g2=g2, g3=g3,
                           series_truncation=n)


def _modular_forms(q: complex, n: int) -> tuple[complex, complex, complex]:
    pi2 = math.pi ** 2
    s1 = s3 = s5 = 0.0 + 0.0j
    qm = 1.0 + 0.0j
    for m in range(1, n + 1):
        qm *= q
        w = qm / (1.0 - qm)
        s1 += m * w
        s3 += m ** 3 * w
        s5 += m ** 5 * w
    g1 = pi2 / 3.0 - 8.0 * pi2 * s1
    g2 = 4.0 * pi2 ** 2 / 3.0 + 320.0 * pi2 ** 2 * s3
    g3 = 8.0 * pi2 ** 3 / 27.0 - (448.0 / 3.0) * pi2 ** 3 * s5
    return g1, g2, g3


def reduce_argument(tau: complex, z: complex) -> tuple[complex, int, int]:
    """Reduce z modulo Z + Z*tau to the cell centered at the origin.

    Returns (z_reduced, m, k) with z = z_reduced + m + k*tau;
    DomainError for a non-finite z.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"argument {z} is not finite")
    k = round(z.imag / tau.imag)
    zr = z - k * tau
    m = round(zr.real)
    zr = zr - m
    return zr, m, k


def _check_pole(tau: complex, zr: complex, guard: float):
    for om in (0, 1, -1, tau, -tau, 1 + tau, -1 - tau, 1 - tau, -1 + tau):
        if abs(zr - om) < guard:
            raise PoleError(f"argument within {guard} of lattice point {om}")


def _qz(z: complex) -> complex:
    return cmath.exp(TWO_PI_I * z)


def _in_double_range(series, leading, ctx: EllipticContext, zr: complex,
                     parity: int) -> complex:
    """series(ctx, zr) where exp(2 pi i zr) and the powers the series takes
    of it stay in the double range.  Past that, for Im zr < 0 the function's
    parity gives the value from -zr; for Im zr > 0 the exponential has
    underflowed, and with it every q-term (|q^n / x| <= |x| in the cell), so
    the series has collapsed to its leading term leading(ctx, zr)."""
    try:
        val = series(ctx, zr)
        if cmath.isfinite(val):
            return val
    except (ZeroDivisionError, OverflowError):
        pass
    if zr.imag < 0:
        return parity * _in_double_range(series, leading, ctx, -zr, parity)
    if _qz(zr) == 0:
        return leading(ctx, zr)
    raise ConvergenceError(f"q-series overflowed at reduced argument {zr}")


def _wp_series(ctx: EllipticContext, zr: complex) -> complex:
    q, x = ctx.nome_q, _qz(zr)
    acc = 1.0 / 12.0 + x / (1.0 - x) ** 2
    qn = 1.0 + 0.0j
    for _ in range(ctx.series_truncation):
        qn *= q
        a = qn * x
        b = qn / x
        acc += a / (1.0 - a) ** 2 + b / (1.0 - b) ** 2 - 2.0 * qn / (1.0 - qn) ** 2
    return TWO_PI_I ** 2 * acc


def wp(ctx: EllipticContext, z: complex) -> complex:
    """Weierstrass elliptic function for the lattice Z + Z*tau."""
    zr, _, _ = reduce_argument(ctx.tau, z)
    _check_pole(ctx.tau, zr, ctx.pole_guard)
    return _in_double_range(_wp_series, lambda ctx, zr: TWO_PI_I ** 2 / 12.0,
                            ctx, zr, 1)


def _wp_z_series(ctx: EllipticContext, zr: complex) -> complex:
    q, x = ctx.nome_q, _qz(zr)

    def dterm(t):
        return t * (1.0 + t) / (1.0 - t) ** 3

    acc = dterm(x)
    qn = 1.0 + 0.0j
    for _ in range(ctx.series_truncation):
        qn *= q
        acc += dterm(qn * x) - dterm(qn / x)
    return TWO_PI_I ** 3 * acc


def wp_z(ctx: EllipticContext, z: complex) -> complex:
    """z-derivative of wp."""
    zr, _, _ = reduce_argument(ctx.tau, z)
    _check_pole(ctx.tau, zr, ctx.pole_guard)
    return _in_double_range(_wp_z_series, lambda ctx, zr: 0j, ctx, zr, -1)


def wp_zz(ctx: EllipticContext, z: complex) -> complex:
    """Second z-derivative, through the algebraic rewrite 6 wp^2 - g2/2."""
    w = wp(ctx, z)
    return 6.0 * w * w - ctx.g2 / 2.0


def _zeta_series(ctx: EllipticContext, zr: complex) -> complex:
    q, x = ctx.nome_q, _qz(zr)

    def s(t):
        return 1.0 / (1.0 - t) - 0.5

    acc = s(x)
    qn = 1.0 + 0.0j
    for _ in range(ctx.series_truncation):
        qn *= q
        acc += s(qn * x) - s(qn / x)
    return ctx.g1 * zr - TWO_PI_I * acc


def zeta(ctx: EllipticContext, z: complex) -> complex:
    """Weierstrass zeta function (quasi-periodic; reduction adds the
    quasi-periods m*g1 + k*eta_tau)."""
    zr, m, k = reduce_argument(ctx.tau, z)
    _check_pole(ctx.tau, zr, ctx.pole_guard)
    val = _in_double_range(_zeta_series,
                           lambda ctx, zr: ctx.g1 * zr - TWO_PI_I * 0.5,
                           ctx, zr, -1)
    return val + m * ctx.g1 + k * ctx.eta_tau


def sigma(ctx: EllipticContext, z: complex) -> complex:
    """Weierstrass sigma function.  On the origin-centered cell it is the
    product formula; elsewhere, with z = z_r + m + k*tau and w = m + k*tau,
    the quasi-periodicity
    sigma(z) = (-1)^(m+k+mk) exp(eta(w) (z_r + w/2)) sigma(z_r),
    eta(w) = m*g1 + k*eta_tau.  DomainError where a factor leaves the
    double range.
    """
    z = complex(z)
    zr, m, k = reduce_argument(ctx.tau, z)
    try:
        if m != 0 or k != 0:
            w = m + k * ctx.tau
            factor = cmath.exp((m * ctx.g1 + k * ctx.eta_tau) * (zr + w / 2))
            if factor == 0:
                raise DomainError(f"sigma({z}) leaves the double range")
            sign = -1.0 if (m + k + m * k) % 2 else 1.0
            return sign * factor * sigma(ctx, zr)
        q = ctx.nome_q
        x = _qz(z)
        half = cmath.exp(1j * math.pi * z)  # x ** (1/2) without branch trouble
        pref = cmath.exp(ctx.g1 * z * z / 2.0) * (half - 1.0 / half) / TWO_PI_I
        prod = 1.0 + 0.0j
        qn = 1.0 + 0.0j
        for _ in range(ctx.series_truncation):
            qn *= q
            prod *= (1.0 - qn * x) * (1.0 - qn / x) / (1.0 - qn) ** 2
        return pref * prod
    except (ZeroDivisionError, OverflowError):
        raise DomainError(f"sigma({z}) leaves the double range") from None


def tau_closed_forms(ctx: EllipticContext, z: complex, w: complex,
                     dz: complex, zt: complex
                     ) -> tuple[complex, complex, complex, complex]:
    """(d wp/d tau, d zeta/d tau, d log sigma/d tau, d^2 log sigma/d tau^2)
    at z, from w = wp(z), dz = wp_z(z) and zt = zeta(z).  The second
    derivative applies the scaled derivation to the first-derivative
    closed form."""
    g1, g2 = ctx.g1, ctx.g2
    wp_t = ((zt - z * g1) * dz + 2.0 * w * w - 2.0 * g1 * w
            - g2 / 3.0) / TWO_PI_I
    zeta_t = (g1 * z * w + g2 * z / 12.0 - g1 * zt - zt * w
              - dz / 2.0) / TWO_PI_I
    ls_t = (g1 + g2 * z * z / 24.0 - z * g1 * zt + zt * zt / 2.0
            - w / 2.0) / TWO_PI_I
    d_g1, d_g2, _ = g_derivations(ctx)
    zt_th = TWO_PI_I * zeta_t
    wp_th = TWO_PI_I * wp_t
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


def g_derivations(ctx: EllipticContext) -> tuple[complex, complex, complex]:
    """The closed quasi-modular system: 2 pi i (dg1, dg2, dg3)/dtau."""
    g1, g2, g3 = ctx.g1, ctx.g2, ctx.g3
    return (g2 / 12.0 - g1 * g1,
            6.0 * g3 - 4.0 * g1 * g2,
            g2 * g2 / 3.0 - 6.0 * g1 * g3)


def g_tau_derivatives(ctx: EllipticContext) -> tuple[complex, complex, complex]:
    """(dg1/dtau, dg2/dtau, dg3/dtau)."""
    return tuple(d / TWO_PI_I for d in g_derivations(ctx))


def g1_second_derivation(ctx: EllipticContext) -> complex:
    """(2 pi i)^2 d^2(g1)/dtau^2: the scaled derivation applied twice."""
    d_g1, d_g2, _ = g_derivations(ctx)
    return d_g2 / 12.0 - 2.0 * ctx.g1 * d_g1


def q_weight(ctx: EllipticContext, u: complex, v: complex,
             method: str = "zeta") -> complex:
    """Two-point weight q(u, v) = zeta(v-u) + zeta(u) - g1*v.

    method="rational" evaluates the equivalent rational-wp form
    (wp_u(u) + wp_v(v)) / (2 (wp(v) - wp(u))) + zeta(v) - g1*v instead;
    both must agree to tolerance wherever defined.
    """
    if method == "zeta":
        return zeta(ctx, v - u) + zeta(ctx, u) - ctx.g1 * v
    if method == "rational":
        wu, wv = wp(ctx, u), wp(ctx, v)
        den = wv - wu
        if abs(den) < 1e-8 * max(1.0, abs(wu), abs(wv)):
            raise CollisionError(f"wp collision at u={u}, v={v}")
        return (wp_z(ctx, u) + wp_z(ctx, v)) / (2.0 * den) + zeta(ctx, v) - ctx.g1 * v
    raise DomainError(f"unknown q_weight method {method!r}")


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
