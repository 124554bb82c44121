"""High-precision Weierstrass values for the lattice Z + Z*tau, computed
with mpmath theta functions and independent of the package under test.

tau is first moved to the fundamental domain by the modular group.  The
lattice changes only by a scale factor: Z + Z*tau = lam * (Z + Z*t) with t
in the fundamental domain, so every value follows from the homogeneity
laws (wp has weight 2, wp_z 3, zeta 1, sigma -1, g2 4, g3 6).  On t the
theta nome is at most exp(-pi*sqrt(3)/2), so the series are short at any
Im(tau), where the direct q-series would need thousands of terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

DPS = 60


@dataclass(frozen=True)
class Reference:
    """Values at one (tau, z), rounded to Python complex."""

    g1: complex
    g2: complex
    g3: complex
    wp: complex
    wp_z: complex
    zeta: complex
    sigma: complex


def _reduce(tau):
    """(lam, t) with Z + Z*tau = lam * (Z + Z*t), t in the fundamental
    domain."""
    lam, t = mp.mpc(1), mp.mpc(tau)
    for _ in range(200):
        t -= mp.nint(t.real)
        if abs(t) >= 1:
            return lam, t
        lam, t = lam * t, -1 / t
    raise ArithmeticError(f"modular reduction of {tau} did not terminate")


class _Lattice:
    """Theta-function formulas for the lattice Z + Z*t (periods 1, t).

    Arguments are first reduced to the origin-centred cell, and zeta and
    sigma then pick up their quasi-periods: outside the cell the theta
    series grow without bound.
    """

    def __init__(self, t):
        self.t = t
        self.q = mp.exp(1j * mp.pi * t)
        d1 = mp.jtheta(1, 0, self.q, 1)
        d3 = mp.jtheta(1, 0, self.q, 3)
        self.th1p0 = d1
        self.g1 = -(mp.pi ** 2 / 3) * d3 / d1  # quasi-period of zeta across 1
        z0 = mp.mpf("0.1") - t / 2
        self.eta_t = self._cell(z0 + t)[2] - self._cell(z0)[2]
        e1, e2, e3 = (self._cell(w)[0] for w in (mp.mpf(1) / 2, t / 2,
                                                   (1 + t) / 2))
        self.g2 = 2 * (e1 ** 2 + e2 ** 2 + e3 ** 2)
        self.g3 = 4 * e1 * e2 * e3

    def _cell(self, w):
        """(wp, wp_z, zeta, sigma) at w from theta_1 and its first three
        derivatives at pi*w.  The theta terms grow like exp(pi |Im w|) and
        cancel in the derivatives, so the working precision grows with
        |Im w| (t is tall when Im tau is small)."""
        extra = int(2 * mp.pi * abs(mp.im(w)) / mp.log(10)) + 10
        with mp.extradps(extra):
            th0, th1, th2, th3 = (mp.jtheta(1, mp.pi * w, self.q, k)
                                  for k in range(4))
            lg, r2 = th1 / th0, th2 / th0
            return (-self.g1 + mp.pi ** 2 * (lg * lg - r2),
                    mp.pi ** 3 * (3 * lg * r2 - 2 * lg ** 3 - th3 / th0),
                    self.g1 * w + mp.pi * lg,
                    mp.exp(self.g1 * w * w / 2) * th0
                    / (mp.pi * self.th1p0))

    def split(self, w):
        """(w0, m, k) with w = w0 + m + k*t and w0 in the origin cell."""
        k = int(mp.nint(w.imag / self.t.imag))
        w1 = w - k * self.t
        m = int(mp.nint(w1.real))
        return w1 - m, m, k

    def eta(self, m, k):
        """Quasi-period of zeta across the lattice vector m + k*t."""
        return m * self.g1 + k * self.eta_t

    def values(self, w):
        """(wp, wp_z, zeta, sigma) at any w."""
        w0, m, k = self.split(w)
        wp, wp_z, zeta, sigma = self._cell(w0)
        omega, eta = m + k * self.t, self.eta(m, k)
        # sigma(w0 + omega) = eps exp(eta (w0 + omega/2)) sigma(w0), with
        # eps = 1 when omega/2 is a period and -1 otherwise
        sign = 1 if m % 2 == 0 and k % 2 == 0 else -1
        return (wp, wp_z, zeta + eta,
                sign * mp.exp(eta * (w0 + omega / 2)) * sigma)


class Context:
    """Reference values for one tau; evaluate points with `at`."""

    def __init__(self, tau: complex, dps: int = DPS):
        self.dps = dps
        with mp.workdps(dps):
            self.lam, t = _reduce(mp.mpc(tau))
            self.lat = _Lattice(t)
            lam = self.lam
            # the period 1 of the original lattice is lam * (1/lam)
            _, m, k = self.lat.split(1 / lam)
            self.g1 = self.lat.eta(m, k) / lam
            self.g2 = self.lat.g2 / lam ** 4
            self.g3 = self.lat.g3 / lam ** 6

    def forms(self) -> tuple[complex, complex, complex]:
        return complex(self.g1), complex(self.g2), complex(self.g3)

    def at(self, z: complex) -> Reference:
        with mp.workdps(self.dps):
            lam = self.lam
            wp, wp_z, zeta, sigma = self.lat.values(mp.mpc(z) / lam)
            return Reference(
                g1=complex(self.g1), g2=complex(self.g2),
                g3=complex(self.g3), wp=complex(wp / lam ** 2),
                wp_z=complex(wp_z / lam ** 3), zeta=complex(zeta / lam),
                sigma=complex(sigma * lam))
