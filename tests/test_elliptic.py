"""Special-function layer: parity, periodicity, differential identities,
and independence cross-checks against slow lattice-sum oracles."""

import cmath
import math
import operator
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopbrackets import elliptic
from loopbrackets.errors import (CollisionError, ConvergenceError,
                                 DomainError, PoleError)

from conftest import random_cell_point

TAU = 0.21 + 1.3j


def taus():
    return st.builds(complex,
                     st.floats(-0.5, 0.5),
                     st.floats(0.8, 2.0))


def cell_points():
    # off-lattice, inside the origin-centered cell for Im tau >= 0.8
    return st.builds(complex,
                     st.floats(0.08, 0.42).flatmap(
                         lambda r: st.sampled_from([r, -r])),
                     st.floats(0.07, 0.3).flatmap(
                         lambda r: st.sampled_from([r, -r])))


class TestInvariants:
    def test_context_fields(self, ctx):
        assert ctx.tau == TAU
        assert abs(ctx.nome_q) < 1.0
        # Legendre-type relation between the two quasi-periods
        assert ctx.eta_tau == ctx.g1 * ctx.tau - elliptic.TWO_PI_I
        # one q-power row per series term, kept out of repr
        assert len(ctx.q_table) == ctx.series_truncation
        assert ctx.q_table[0][0] == ctx.nome_q
        assert "q_table" not in repr(ctx)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            elliptic.make_context(0.3 - 1.0j)
        with pytest.raises(DomainError):
            elliptic.make_context(0.5 + 0.0j)

    @pytest.mark.parametrize("tau", [complex("inf+1j"), complex("nan+1j"),
                                     complex(0, float("inf")),
                                     complex(1, float("nan")), 1e308 + 1j])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(DomainError, match="not finite"):
            elliptic.make_context(tau)

    @pytest.mark.parametrize("k", [6, 9, 12])
    def test_large_real_part_translated(self, k):
        """tau and tau - trunc(Re tau) have one nome and one lattice; the
        context holds the translated tau, and its values equal those
        computed there."""
        tau = complex(0.3 + 10 ** k, 0.9)
        near = complex(tau.real - math.trunc(tau.real), tau.imag)
        ctx, ref = elliptic.make_context(tau), elliptic.make_context(near)
        assert ctx.tau == near
        for got, want in ((ctx.g1, ref.g1), (ctx.g2, ref.g2),
                          (ctx.g3, ref.g3),
                          (elliptic.wp(ctx, 0.2 + 0.1j),
                           elliptic.wp(ref, 0.2 + 0.1j))):
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("tau", [0.3 + 0.9j, -0.7 + 0.9j, -0.0 + 1j,
                                     0.999 + 0.5j])
    def test_small_real_part_kept(self, tau):
        got = elliptic.make_context(tau).tau
        assert (got.real, got.imag) == (tau.real, tau.imag)
        assert math.copysign(1, got.real) == math.copysign(1, tau.real)

    @pytest.mark.parametrize("tau", [1e-17j, 1e-300j, 0.3 + 1e-18j])
    def test_nome_near_one_refused(self, tau):
        """At 1e-300j and 0.3+1e-18j |q| = exp(-2 pi Im tau) rounds to 1,
        where log |q| is 0; at 1e-17j it needs too many terms.  Each is a
        ConvergenceError."""
        with pytest.raises(ConvergenceError):
            elliptic.make_context(tau)

    def test_huge_im_tau_accepted(self):
        # 2 pi i tau overflows only in its real part: the nome is 0
        assert elliptic.make_context(1e308j).nome_q == 0

    @pytest.mark.parametrize("fn", ["wp", "wp_z", "wp_zz", "zeta", "sigma"])
    @pytest.mark.parametrize("z", [complex("inf"), complex("nan"),
                                   complex(0.3, float("inf"))])
    def test_non_finite_argument_rejected(self, ctx, fn, z):
        with pytest.raises(DomainError, match="not finite"):
            getattr(elliptic, fn)(ctx, z)

    def test_g2_g3_against_lattice_sums(self, ctx):
        g2o, g3o = elliptic.eisenstein_oracle(ctx.tau, radius=200)
        assert abs(ctx.g2 - g2o) < 2e-3 * max(1.0, abs(ctx.g2))
        assert abs(ctx.g3 - g3o) < 2e-3 * max(1.0, abs(ctx.g3))

    def test_documented_large_im_value(self):
        # q -> 0 limit: the weight-6 invariant approaches 280 zeta(6)
        # = 280 pi^6 / 945
        ctx = elliptic.make_context(1000j)
        lim = 280.0 * (math.pi ** 6) / 945.0
        assert abs(ctx.g3 - lim) < 1e-9
        assert abs(ctx.g3.real - 284.856057356) < 1e-6


class TestDifferentialIdentities:
    @settings(max_examples=25, deadline=None)
    @given(taus(), cell_points())
    def test_cubic(self, tau, z):
        ctx = elliptic.make_context(tau)
        p = elliptic.wp(ctx, z)
        dp = elliptic.wp_z(ctx, z)
        lhs = dp ** 2
        rhs = 4 * p ** 3 - ctx.g2 * p - ctx.g3
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs), abs(rhs))

    @settings(max_examples=25, deadline=None)
    @given(taus(), cell_points())
    def test_second_derivative(self, tau, z):
        # against a fourth-order central difference of wp_z, not the
        # rewrite wp_zz is formed by
        ctx = elliptic.make_context(tau)
        h = 1e-4
        fd = (8 * (elliptic.wp_z(ctx, z + h) - elliptic.wp_z(ctx, z - h))
              - (elliptic.wp_z(ctx, z + 2 * h)
                 - elliptic.wp_z(ctx, z - 2 * h))) / (12 * h)
        lhs = elliptic.wp_zz(ctx, z)
        assert abs(lhs - fd) < 1e-8 * max(1.0, abs(lhs))

    @settings(max_examples=15, deadline=None)
    @given(taus(), cell_points())
    def test_parity(self, tau, z):
        ctx = elliptic.make_context(tau)
        assert abs(elliptic.wp(ctx, z) - elliptic.wp(ctx, -z)) < 1e-9 * max(
            1.0, abs(elliptic.wp(ctx, z)))
        assert abs(elliptic.zeta(ctx, z) + elliptic.zeta(ctx, -z)) < 1e-9 * max(
            1.0, abs(elliptic.zeta(ctx, z)))
        assert abs(elliptic.sigma(ctx, z) + elliptic.sigma(ctx, -z)) < 1e-9 * max(
            1.0, abs(elliptic.sigma(ctx, z)))

    def test_zeta_derivative_is_minus_wp(self, ctx, rng):
        h = 4e-5
        for _ in range(5):
            z = random_cell_point(rng, ctx.tau)
            fd = (8 * (elliptic.zeta(ctx, z + h) - elliptic.zeta(ctx, z - h))
                  - (elliptic.zeta(ctx, z + 2 * h)
                     - elliptic.zeta(ctx, z - 2 * h))) / (12 * h)
            assert abs(fd + elliptic.wp(ctx, z)) < 1e-7 * max(
                1.0, abs(elliptic.wp(ctx, z)))

    def test_log_sigma_derivative_is_zeta(self, ctx, rng):
        h = 4e-5
        for _ in range(5):
            z = random_cell_point(rng, ctx.tau)
            fd = (np.log(elliptic.sigma(ctx, z + h))
                  - np.log(elliptic.sigma(ctx, z - h))) / (2 * h)
            assert abs(fd - elliptic.zeta(ctx, z)) < 1e-6 * max(
                1.0, abs(elliptic.zeta(ctx, z)))


class TestPeriodicity:
    def test_wp_periods(self, ctx, rng):
        for _ in range(4):
            z = random_cell_point(rng, ctx.tau)
            p = elliptic.wp(ctx, z)
            for om in (1.0, ctx.tau, 1.0 + ctx.tau):
                assert abs(elliptic.wp(ctx, z + om) - p) < 1e-8 * max(
                    1.0, abs(p))

    def test_zeta_quasi_periods(self, ctx, rng):
        for _ in range(4):
            z = random_cell_point(rng, ctx.tau)
            zt = elliptic.zeta(ctx, z)
            assert abs(elliptic.zeta(ctx, z + 1) - zt - ctx.g1) < 1e-8 * max(
                1.0, abs(zt))
            assert abs(elliptic.zeta(ctx, z + ctx.tau) - zt
                       - ctx.eta_tau) < 1e-8 * max(1.0, abs(zt))


class TestSigmaContinuation:
    @pytest.mark.parametrize("shift", [(1, 0), (0, 1), (-1, -1), (1, -1)])
    def test_shifted_point_against_oracle(self, ctx, shift):
        """sigma at z_r + m + k*tau by quasi-periodicity, against the
        lattice product (its truncation error at radius 200 is ~1e-5
        relative here)."""
        m, k = shift
        z = 0.3 + 0.2j + m + k * ctx.tau
        got = elliptic.sigma(ctx, z)
        want = elliptic.lattice_oracle(ctx.tau, z, radius=200).sigma
        assert abs(got - want) < 2e-5 * abs(want)

    def test_overflow_is_typed(self, ctx):
        with pytest.raises(DomainError):
            elliptic.sigma(ctx, 0.3 + 400 * ctx.tau)

    @pytest.mark.parametrize("z", [1e308 + 0.3j, -1e308 + 0.3j, 0.3 + 1e308j,
                                   1e307 + 0.3j])
    def test_huge_finite_argument_is_typed(self, z):
        """The quasi-periods m*g1 + k*eta_tau leave the double range: a
        DomainError, not a math domain error, an inf or a nan."""
        ctx = elliptic.make_context(1j)
        with pytest.raises(DomainError, match="double range"):
            elliptic.sigma(ctx, z)
        if z.real != 1e307:  # zeta(1e307 + 0.3j) is about 3.1e307
            with pytest.raises(DomainError, match="double range"):
                elliptic.zeta(ctx, z)

    def test_unreducible_argument_is_typed(self):
        """Im z / Im tau overflows: the reduction itself is refused."""
        ctx = elliptic.make_context(0.5j)
        for fn in (elliptic.wp, elliptic.zeta, elliptic.sigma):
            with pytest.raises(DomainError, match="too large to reduce"):
                fn(ctx, 0.3 + 1e308j)

    def test_large_argument_unchanged(self):
        """At 1e15 + 0.3j zeta is finite (m*g1 with m = 1e15) and sigma's
        factor overflows, as before."""
        ctx = elliptic.make_context(1j)
        z = 1e15 + 0.3j
        assert elliptic.zeta(ctx, z) == (elliptic.zeta(ctx, 0.3j)
                                         + 10 ** 15 * ctx.g1)
        with pytest.raises(DomainError, match="double range"):
            elliptic.sigma(ctx, z)


class TestPoleGuard:
    """Every lattice point but 0 is min(1/2, Im tau/2) or more from a
    reduced argument, so a point 1e-9 from any lattice point reduces to
    1e-9 from 0, the one point the guard checks."""

    @pytest.mark.parametrize("tau", [TAU, 0.4 + 0.002j])
    @pytest.mark.parametrize("fn", ["wp", "wp_z", "zeta"])
    @pytest.mark.parametrize("m, k", [(0, 0), (1, 0), (0, 1), (1, 1),
                                      (3, -2)])
    def test_lattice_points(self, tau, fn, m, k):
        ctx = elliptic.make_context(tau)
        with pytest.raises(PoleError, match="within 1e-06 of lattice "
                                            "point 0$"):
            getattr(elliptic, fn)(ctx, m + k * ctx.tau + 1e-9)


class TestDoubleRange:
    """exp(2 pi i z_r) outside the double range (|Im z_r| > ~113 needs
    Im tau > 226): the series collapses to its leading term."""

    TAU = 1000j

    def test_collapsed_values(self):
        ctx = elliptic.make_context(self.TAU)
        for im, sign in ((200.0, 1), (-200.0, -1), (499.0, 1)):
            z = 0.3 + 1j * im
            assert elliptic.wp(ctx, z) == pytest.approx(-math.pi ** 2 / 3)
            assert elliptic.wp_z(ctx, z) == 0
            assert elliptic.zeta(ctx, z) == pytest.approx(
                ctx.g1 * z - sign * math.pi * 1j)

    def test_finite_across_the_cell(self):
        ctx = elliptic.make_context(self.TAU)
        for im in np.linspace(-499.0, 499.0, 41):
            z = 0.3 + 1j * im
            for fn in (elliptic.wp, elliptic.wp_z, elliptic.zeta):
                assert np.isfinite(fn(ctx, z)), (fn.__name__, z)

    @pytest.mark.parametrize("im", [40.0, 60.0, 112.0])
    def test_parity_below_the_real_axis(self, im):
        """Im z_r < 0, where x = exp(2 pi i z_r) or its powers overflow:
        the parity image agrees with the series at -z_r."""
        ctx = elliptic.make_context(self.TAU)
        z = 0.3 - 1j * im
        assert elliptic.wp(ctx, z) == elliptic.wp(ctx, -z)
        assert elliptic.wp_z(ctx, z) == -elliptic.wp_z(ctx, -z)
        assert abs(elliptic.zeta(ctx, z) + elliptic.zeta(ctx, -z)) < 1e-12 * abs(
            elliptic.zeta(ctx, z))


class TestOracles:
    def test_lattice_oracle_agreement(self, ctx, rng):
        for _ in range(3):
            z = random_cell_point(rng, ctx.tau)
            o = elliptic.lattice_oracle(ctx.tau, z, radius=150)
            assert abs(elliptic.wp(ctx, z) - o.wp) < 2e-4
            assert abs(elliptic.zeta(ctx, z) - o.zeta) < 2e-4
            assert abs(elliptic.sigma(ctx, z) - o.sigma) < 2e-4

    def test_oracle_rejects_lattice_point(self, ctx):
        with pytest.raises(PoleError):
            elliptic.lattice_oracle(ctx.tau, 0.0, radius=20)
        with pytest.raises(DomainError):
            elliptic.lattice_oracle(ctx.tau, 0.3, radius=5)

    def test_sums_against_mpmath(self, ctx):
        """wp, zeta and the sigma log-sum at radius 30 against the same
        truncated sums at 40 digits: at a point of the cell, 1e-3 from the
        lattice point 1, and shifted by 1 + tau."""
        radius = 30
        zs = [0.3 + 0.2j, 1 + 1e-3 * np.exp(0.7j), 1.3 + 0.2j + ctx.tau]
        got = elliptic._oracle_sums(ctx.tau, zs, radius)
        want = _mp_lattice_sums(ctx.tau, zs, radius)
        for name, g, w in zip(("wp", "zeta", "log-sum"), got, want):
            for z, gz, wz in zip(zs, g, w):
                assert abs(gz - wz) <= 1e-15 * max(1.0, abs(wz)), (name, z)

    def test_sums_at_cutoff_boundaries(self, ctx):
        """Just inside and just outside |z| = 1 and |z| = 2, where the
        cutoff steps from 2 to 4 and from 4 to 8, against the truncated
        sums at 40 digits.  Just inside a step the far series run at
        |z/om| up to 1/2."""
        radius = 20
        zs = [s * np.exp(0.3j) for s in (1 - 2 ** -40, 1 + 2 ** -40,
                                         2 - 2 ** -39, 2 + 2 ** -39)]
        assert [elliptic._cutoff(z) for z in zs] == [2, 4, 4, 8]
        got = elliptic._oracle_sums(ctx.tau, zs, radius)
        want = _mp_lattice_sums(ctx.tau, zs, radius)
        for name, g, w in zip(("wp", "zeta", "log-sum"), got, want):
            for z, gz, wz in zip(zs, g, w):
                assert abs(gz - wz) <= 1e-15 * max(1.0, abs(wz)), (name, z)

    def test_batch_matches_single_points(self, ctx):
        zs = [0.3 + 0.2j, -0.17 + 0.4j, 1.3 + 0.2j + ctx.tau]
        batch = elliptic.lattice_oracle(ctx.tau, zs, radius=40)
        assert batch == [elliptic.lattice_oracle(ctx.tau, z, radius=40)
                         for z in zs]

    def test_batch_across_cutoffs(self, ctx):
        """A batch whose points have cutoffs 2 to 32, out of order and
        repeated, gives each point the bits of its own call."""
        zs = [5 + 3j, 0.3 + 0.2j, 1.5 + 0.3j, -12 + 1j, 0.3 - 0.2j,
              2.5 - 1j, 1.3 + 0.2j + ctx.tau, 5.2 + 2.9j]
        assert {elliptic._cutoff(z) for z in zs} == {2, 4, 8, 16, 32}
        batch = elliptic.lattice_oracle(ctx.tau, zs, radius=40)
        assert [repr(o) for o in batch] == [
            repr(elliptic.lattice_oracle(ctx.tau, z, radius=40)) for z in zs]

    def test_eisenstein_against_mpmath(self, ctx):
        """60 sum' om^-4 and 140 sum' om^-6 over the box at radius 30,
        against the same sums at 40 digits."""
        radius = 30
        got = elliptic.eisenstein_oracle(ctx.tau, radius=radius)
        with mpmath.workdps(40):
            t = mpmath.mpc(ctx.tau)
            s4 = s6 = mpmath.mpc(0)
            for a in range(-radius, radius + 1):
                for b in range(-radius, radius + 1):
                    if (a, b) != (0, 0):
                        r2 = 1 / (a + b * t) ** 2
                        s4 += r2 * r2
                        s6 += r2 * r2 * r2
            want = complex(60 * s4), complex(140 * s6)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-15 * abs(w)

    def test_shares_no_code_with_the_series(self, ctx, monkeypatch):
        """With every part of the series path made to raise, both oracles
        give the values they give alone."""
        zs = [0.3 + 0.2j, 1 + 1e-3j, 1.3 + 0.2j + ctx.tau]
        want = (elliptic.lattice_oracle(ctx.tau, zs, radius=20),
                elliptic.eisenstein_oracle(ctx.tau, radius=20))

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the series path")
        for name in ("make_context", "_modular_forms", "reduce_argument",
                     "_check_pole", "_qz", "_row_sums", "_rows", "_many",
                     "_wp_loop", "_wp_z_loop", "_zeta_loop", "_sigma_loop",
                     "_in_double_range", "wp", "wp_z", "zeta", "sigma"):
            monkeypatch.setattr(elliptic, name, refuse)
        assert (elliptic.lattice_oracle(ctx.tau, zs, radius=20),
                elliptic.eisenstein_oracle(ctx.tau, radius=20)) == want

    @pytest.mark.parametrize("pole", [0, 2, -3 + 5 * TAU, 40 * TAU])
    def test_pole_anywhere_in_batch(self, ctx, pole):
        for k in range(3):
            zs = [0.3 + 0.2j, -0.17 + 0.4j]
            zs.insert(k, pole + 1e-11)
            with pytest.raises(PoleError):
                elliptic.lattice_oracle(ctx.tau, zs, radius=40)

    def test_lattice_point_outside_the_box_is_summable(self, ctx):
        """Near z = 11 at radius 10 every summed point is nearer than the
        cutoff 32: the far set is empty, and the near set alone gives the
        truncated sums at 40 digits.  They are compared at 11 + 0.3i: on
        the real axis 1 - z/om is a negative real for om = 1..10, where
        the log-sum's imaginary part is fixed only modulo 2 pi."""
        o = elliptic.lattice_oracle(ctx.tau, 11 + 0.0j, radius=10)
        assert np.isfinite(o.wp) and np.isfinite(o.sigma)
        z = 11 + 0.3j
        om, _ = elliptic._half_lattice(ctx.tau, 10)
        assert np.abs(om).max() < elliptic._cutoff(z) == 32
        got = elliptic._oracle_sums(ctx.tau, [z], 10)
        want = _mp_lattice_sums(ctx.tau, [z], 10)
        for name, g, w in zip(("wp", "zeta", "log-sum"), got, want):
            assert abs(g[0] - w[0]) <= 1e-15 * max(1.0, abs(w[0])), name

    @pytest.mark.parametrize("radius", [9, 0, -5])
    def test_small_radius_rejected(self, ctx, radius):
        with pytest.raises(DomainError):
            elliptic.eisenstein_oracle(ctx.tau, radius=radius)
        with pytest.raises(DomainError):
            elliptic.lattice_oracle(ctx.tau, 0.3, radius=radius)

    @pytest.mark.parametrize("tau", [0.5, 0.3 - 1.0j, complex(0.2, math.nan)])
    def test_upper_half_plane_required(self, tau):
        with pytest.raises(DomainError):
            elliptic.eisenstein_oracle(tau, radius=20)
        with pytest.raises(DomainError):
            elliptic.lattice_oracle(tau, 0.3 + 0.2j, radius=20)

    @pytest.mark.parametrize("z", [complex("nan"), complex("inf"),
                                   complex(0.3, float("-inf"))])
    def test_non_finite_point_rejected(self, ctx, z):
        with pytest.raises(DomainError):
            elliptic.lattice_oracle(ctx.tau, [0.3 + 0.2j, z], radius=20)


def _mp_lattice_sums(tau, zs, radius, dps=40):
    """wp, zeta and sum' log(1 - z/om) + z/om + z^2/(2 om^2) over the
    nonzero om = a + b*tau, |a|, |b| <= radius, in mpmath at dps digits."""
    with mpmath.workdps(dps):
        t = mpmath.mpc(tau)
        inv = [1 / (a + b * t) for a in range(-radius, radius + 1)
               for b in range(-radius, radius + 1) if (a, b) != (0, 0)]
        out = [[], [], []]
        for z in map(mpmath.mpc, zs):
            wp_s, zeta_s, log_s = 1 / z ** 2, 1 / z, mpmath.mpc(0)
            for r in inv:
                d = 1 / (z - 1 / r)
                w = z * r
                wp_s += d * d - r * r
                zeta_s += d + r + w * r
                log_s += mpmath.log(1 - w) + w + w * w / 2
            for acc, v in zip(out, (wp_s, zeta_s, log_s)):
                acc.append(complex(v))
    return out


class TestTwoPointWeight:
    def test_methods_agree(self, ctx, rng):
        for _ in range(6):
            up = random_cell_point(rng, ctx.tau)
            vp = random_cell_point(rng, ctx.tau)
            try:
                a = elliptic.q_weight(ctx, up, vp, method="zeta")
                b = elliptic.q_weight(ctx, up, vp, method="rational")
            except (CollisionError, PoleError, DomainError):
                continue
            assert abs(a - b) < 1e-7 * max(1.0, abs(a))

    def test_unknown_method(self, ctx):
        with pytest.raises(DomainError):
            elliptic.q_weight(ctx, 0.2, 0.3, method="nope")


class TestModularDerivatives:
    def _fd(self, fn, tau, h=5e-5):
        return (8 * (fn(tau + h) - fn(tau - h))
                - (fn(tau + 2 * h) - fn(tau - 2 * h))) / (12 * h)

    def test_g_tau_derivatives(self, ctx):
        d1, d2, d3 = elliptic.g_tau_derivatives(ctx)
        for k, d in (("g1", d1), ("g2", d2), ("g3", d3)):
            fd = self._fd(lambda t, k=k: getattr(
                elliptic.make_context(t), k), ctx.tau)
            assert abs(d - fd) < 1e-7 * max(1.0, abs(d))

    def test_wp_and_zeta_tau(self, ctx, rng):
        z = random_cell_point(rng, ctx.tau)
        for fn, dfn in ((elliptic.wp, elliptic.wp_tau),
                        (elliptic.zeta, elliptic.zeta_tau)):
            fd = self._fd(lambda t: fn(elliptic.make_context(t), z), ctx.tau)
            d = dfn(ctx, z)
            assert abs(d - fd) < 1e-6 * max(1.0, abs(d))

    def test_log_sigma_tau(self, ctx, rng):
        z = random_cell_point(rng, ctx.tau)
        fd = self._fd(lambda t: np.log(
            elliptic.sigma(elliptic.make_context(t), z)), ctx.tau)
        d = elliptic.log_sigma_tau(ctx, z)
        assert abs(d - fd) < 1e-6 * max(1.0, abs(d))

    # box tau and benchmark ladder tau; down the ladder the forms lose
    # digits (the Eisenstein sums run in double precision), and the gaps
    # grow to 1.7e-6 at Im tau 0.02 against 1e-2 for a 1% fault
    _SECOND = pytest.mark.parametrize("tau", [
        0.21 + 1.3j, -0.42 + 0.83j, 0.6j, -0.13 + 0.12j, 0.5 + 0.02j])

    def _second_derivative_gaps(self, tau):
        """Relative gaps of d^2(log sigma)/dtau^2 at three cell points and
        of (2 pi i)^2 d^2(g1)/dtau^2 against fourth-order tau-differences
        of log_sigma_tau and of dg1/dtau."""
        ctx = elliptic.make_context(tau)
        gaps = []
        for a, b in ((0.13, 0.29), (-0.31, -0.44), (0.42, -0.17)):
            z = a + b * tau
            fd = self._fd(lambda t: elliptic.log_sigma_tau(
                elliptic.make_context(t), z), tau)
            d = elliptic.log_sigma_tau2(ctx, z)
            gaps.append(abs(d - fd) / max(1.0, abs(d)))
        fd = self._fd(lambda t: elliptic.g_tau_derivatives(
            elliptic.make_context(t))[0], tau) * elliptic.TWO_PI_I ** 2
        d = elliptic.g1_second_derivation(ctx)
        return gaps + [abs(d - fd) / max(1.0, abs(d))]

    @_SECOND
    def test_second_tau_derivatives(self, tau):
        assert max(self._second_derivative_gaps(tau)) < 1e-5

    @_SECOND
    @pytest.mark.parametrize("name", ["log_sigma_tau2", "g1_second_derivation"])
    def test_scaled_second_derivative_fails(self, tau, name, monkeypatch):
        orig = getattr(elliptic, name)
        monkeypatch.setattr(elliptic, name, lambda *a: 1.01 * orig(*a))
        gaps = self._second_derivative_gaps(tau)
        assert max(gaps[:3] if name == "log_sigma_tau2" else gaps[3:]) > 1e-3


def _hexes(v):
    return float.hex(v.real), float.hex(v.imag)


# parts whose bits the replay must keep: signed zeros, equal magnitudes,
# subnormal, tiny and huge values
_EDGE_PARTS = (0.0, -0.0, 1.0, -1.0, 0.75, -3.0, 5e-324, -1e-310, 1e-200,
               1e154, -1e300, 1.7e308)


def _operands(rng, count=3000):
    """Complex operands: the edge parts in every pairing, then random ones
    with exponents from 1e-300 to 1e300."""
    edge = [complex(a, b) for a in _EDGE_PARTS for b in _EDGE_PARTS]
    parts = (rng.standard_normal((count, 2))
             * 10.0 ** rng.integers(-300, 300, (count, 2)))
    return edge + [complex(a, b) for a, b in parts]


def _parts(values):
    c = np.array(values, dtype=complex)
    return c.real, c.imag


class TestArrayReplay:
    """The kernels' arithmetic is CPython's, bit for bit."""

    def test_product_and_quotient(self, rng):
        a = _operands(rng)
        b = a[::-1]
        a, b = a + a[:144], b + [complex(0.0, 0.0), complex(-0.0, 0.0)] * 72
        with np.errstate(all="ignore"):
            prod, quot = elliptic.cmul(_parts(a), _parts(b)), elliptic.cdiv(
                _parts(a), _parts(b))
        nan = complex("nan+nanj")
        for i, (x, y) in enumerate(zip(a, b)):
            try:
                want = x / y
            except ZeroDivisionError:
                want = nan
            assert _hexes(complex(prod[0][i], prod[1][i])) == _hexes(x * y)
            assert _hexes(complex(quot[0][i], quot[1][i])) == _hexes(want)

    @pytest.mark.parametrize("op", [
        lambda a: 1.0 - a, lambda a: 1.0 + a, lambda a: a - 0.5,
        lambda a: 1.0 / a, lambda a: a / 2.0, lambda a: elliptic.TWO_PI_I * a,
        lambda a: a ** 2, lambda a: a ** 3])
    def test_split_operators(self, op, rng):
        """_Split's operators on complex values give CPython's bits, NaN
        where CPython raises."""
        a = _operands(rng)
        with np.errstate(all="ignore"):
            got = op(elliptic._Split(*_parts(a))).values()
        for x, g in zip(a, got):
            try:
                want = op(x)
            except (ZeroDivisionError, OverflowError):
                want = complex("nan+nanj")
            assert _hexes(g) == _hexes(want)

    def test_exp(self, rng):
        a = [v for v in _operands(rng) if abs(v.imag) < 1e15]
        got = elliptic._Split(*_parts(a)).exp().values()
        for x, g in zip(a, got):
            want = cmath.exp(x) if x.real <= 700.0 else complex("nan+nanj")
            assert _hexes(g) == _hexes(want)

    @pytest.mark.parametrize("shape", [(1, 1417), (3, 9), (401, 9),
                                       (64, 242)])
    def test_accumulate_along_rows(self, shape, rng):
        """add and multiply accumulate along the rows of a 2-D array as a
        Python loop does, one element after another."""
        mod = np.exp(0.05 * rng.standard_normal(shape))
        arg = rng.uniform(-np.pi, np.pi, shape)
        acc = mod * np.exp(1j * arg)
        for ufunc, op in ((np.add, operator.add),
                          (np.multiply, operator.mul)):
            got = ufunc.accumulate(acc, axis=1)[:, -1].tolist()
            for row, g in zip(acc.tolist(), got):
                want = row[0]
                for t in row[1:]:
                    want = op(want, t)
                assert _hexes(g) == _hexes(want)


_MANY = pytest.mark.parametrize("name", ["wp", "wp_z", "zeta", "sigma"])


class TestArrayEntryPoints:
    """f_many(ctx, zs) is [f(ctx, z) for z in zs], raising what that loop
    raises first; the grid of tests/data is compared in test_golden."""

    @_MANY
    def test_long_batch(self, ctx, rng, name):
        zs = [random_cell_point(rng, ctx.tau) + rng.integers(-3, 4)
              + rng.integers(-3, 4) * ctx.tau for _ in range(200)]
        many = getattr(elliptic, f"{name}_many")(ctx, zs)
        assert [repr(v) for v in many] == [
            repr(getattr(elliptic, name)(ctx, z)) for z in zs]

    @pytest.mark.parametrize("name", ["wp", "wp_z", "zeta"])
    def test_pole_in_batch(self, ctx, rng, name):
        many = getattr(elliptic, f"{name}_many")
        zs = [random_cell_point(rng, ctx.tau) for _ in range(40)]
        with pytest.raises(PoleError):
            many(ctx, zs + [1.0 + ctx.tau] + zs + [complex("nan")])

    @_MANY
    def test_non_finite_in_batch(self, ctx, rng, name, monkeypatch):
        monkeypatch.setattr(elliptic, "ARRAY_CROSSOVER", 0)  # the kernels
        many = getattr(elliptic, f"{name}_many")
        zs = [random_cell_point(rng, ctx.tau) for _ in range(40)]
        with pytest.raises(DomainError):
            many(ctx, zs + [complex(0.1, float("inf")), 1.0 + ctx.tau])

    def test_sigma_zero_in_batch(self, ctx, rng, monkeypatch):
        monkeypatch.setattr(elliptic, "ARRAY_CROSSOVER", 0)  # the kernels
        zs = [random_cell_point(rng, ctx.tau) for _ in range(40)]
        zs += [0.0, 1.0 + ctx.tau]
        assert [repr(v) for v in elliptic.sigma_many(ctx, zs)] == [
            repr(elliptic.sigma(ctx, z)) for z in zs]


def test_no_sympy():
    """The rules are plain arithmetic: importing elliptic and evaluating
    every rule and closed form, in a fresh interpreter, imports no sympy
    module."""
    src = os.path.dirname(os.path.dirname(elliptic.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    code = (
        "import sys\n"
        "from loopbrackets import elliptic as e\n"
        "c, z = e.make_context(0.21 + 1.3j), 0.13 + 0.29j\n"
        "e.tau_closed_forms(c, z, e.wp(c, z), e.wp_z(c, z), e.zeta(c, z))\n"
        "e.leaf_derivations(z, e.wp(c, z), e.wp_z(c, z), e.zeta(c, z),\n"
        "                   c.g1, c.g2)\n"
        "e.g_tau_derivatives(c), e.g1_second_derivation(c), e.wp_zz(c, z)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'sympy'))\n")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=300, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
