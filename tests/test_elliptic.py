"""Special-function layer: parity, periodicity, differential identities,
and independence cross-checks against slow lattice-sum oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopbrackets import elliptic
from loopbrackets.errors import (CollisionError, DomainError, PoleError)

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
        ctx = elliptic.make_context(tau)
        p = elliptic.wp(ctx, z)
        lhs = elliptic.wp_zz(ctx, z)
        rhs = 6 * p ** 2 - ctx.g2 / 2
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs), abs(rhs))

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

    def test_batch_matches_single_points(self, ctx):
        zs = [0.3 + 0.2j, -0.17 + 0.4j, 1.3 + 0.2j + ctx.tau]
        batch = elliptic.lattice_oracle(ctx.tau, zs, radius=40)
        assert batch == [elliptic.lattice_oracle(ctx.tau, z, radius=40)
                         for z in zs]

    @pytest.mark.parametrize("pole", [0, 2, -3 + 5 * TAU, 40 * TAU])
    def test_pole_anywhere_in_batch(self, ctx, pole):
        for k in range(3):
            zs = [0.3 + 0.2j, -0.17 + 0.4j]
            zs.insert(k, pole + 1e-11)
            with pytest.raises(PoleError):
                elliptic.lattice_oracle(ctx.tau, zs, radius=40)

    def test_lattice_point_outside_the_box_is_summable(self, ctx):
        o = elliptic.lattice_oracle(ctx.tau, 11 + 0.0j, radius=10)
        assert np.isfinite(o.wp) and np.isfinite(o.sigma)

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
