"""Symbolic layer: jet bookkeeping, derivation rules (validated
numerically against the special-function layer), and the
render/parse round trip."""

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from loopbrackets import elliptic
from loopbrackets import symexpr as sx
from loopbrackets.errors import ClosureError, UnboundSymbolError

from conftest import random_cell_point


class TestJets:
    def test_names(self):
        assert sx.jet("z1").name == "z1"
        assert sx.jet("z1", 1).name == "z1_x"
        assert sx.jet("z1", 3).name == "z1_x3"

    def test_modular_jets_route_through_T(self):
        assert sx.jet(sx.MODULAR_FIELD, 1) == sx.T
        assert sx.jet(sx.MODULAR_FIELD, 2).name == "T_x"
        assert sx.jet(sx.MODULAR_FIELD, 3).name == "T_x2"

    def test_info_roundtrip(self):
        s = sx.jet("z4", 2)
        assert sx.jet_info(s, ("z4",)) == ("z4", 2)
        assert sx.jet_info(sp.Symbol("unrelated"), ("z4",)) is None

    def test_info_from_the_name(self):
        # the naming rule alone, with no record of earlier jet() calls
        fields = ("z1", "y7")
        for name, info in [("y7_x", ("y7", 1)), ("z1_x3", ("z1", 3)),
                           ("T", ("th", 1)), ("T_x2", ("th", 3)),
                           ("th", ("th", 0))]:
            assert sx.jet_info(sp.Symbol(name), fields) == info
            assert sx.jet(*info).name == name
        for name in ("z1_x1", "z1_x0", "th_x", "z9", "g2", "q_11_11"):
            assert sx.jet_info(sp.Symbol(name), fields) is None
        assert sx.jet_info(sp.Symbol("z9_x2")) == ("z9", 2)

    def test_negative_order(self):
        with pytest.raises(ValueError):
            sx.jet("z1", -1)


FIELDS = ("z1", "z2")


class TestTotalDerivative:
    def test_jet_prolongation(self):
        z = sx.jet("z1")
        assert (sx.total_x_derivative(z ** 2, ("z1",))
                == 2 * z * sx.jet("z1", 1))

    def test_leibniz(self):
        a, b = sx.jet("z1"), sx.jet("z2")
        lhs = sx.total_x_derivative(a * b, FIELDS)
        rhs = (sx.total_x_derivative(a, FIELDS) * b
               + a * sx.total_x_derivative(b, FIELDS))
        assert sp.expand(lhs - rhs) == 0

    def test_modular_chain(self):
        # x-derivatives of the quasi-modular leaves go through T
        assert sp.expand(sx.total_x_derivative(sx.g2, ())
                         - (6 * sx.g3 - 4 * sx.g1 * sx.g2) * sx.T) == 0

    def test_constants_drop(self):
        assert sx.total_x_derivative(sx.u, FIELDS) == 0
        assert sx.total_x_derivative(sx.v, FIELDS) == 0

    def test_unknown_leaf(self):
        with pytest.raises(ClosureError):
            sx.total_x_derivative(sp.Symbol("mystery"), FIELDS)
        # a jet of a field outside the given ones is a leaf like any other
        with pytest.raises(ClosureError):
            sx.total_x_derivative(sx.jet("z3", 1), FIELDS)

    def test_large_expression_matches_small_path(self):
        # large expanded sums and small products follow the chain rule
        # written out leaf by leaf
        z, zx = sx.jet("z1"), sx.jet("z1", 1)
        small = (z + sx.g2) ** 2
        big = sp.expand((z + zx + sx.g1 + sx.g2 + sx.g3) ** 5)
        direct = sum(big.diff(s) * r for s, r in
                     [(z, zx), (zx, sx.jet("z1", 2)),
                      (sx.g1, sx.T * sx.DTAU_RULES[sx.g1]),
                      (sx.g2, sx.T * sx.DTAU_RULES[sx.g2]),
                      (sx.g3, sx.T * sx.DTAU_RULES[sx.g3]),
                      (sx.T, sx.jet(sx.MODULAR_FIELD, 2))])
        assert sp.expand(sx.total_x_derivative(big, FIELDS) - direct) == 0
        assert sp.expand(sx.total_x_derivative(small, FIELDS)
                         - 2 * (z + sx.g2)
                         * (zx + (6 * sx.g3 - 4 * sx.g1 * sx.g2) * sx.T)) == 0


class TestTauDerivationNumerically:
    """DTAU_RULES claim closed forms for 2*pi*i d/dtau of every leaf;
    check them against finite differences of the numeric layer."""

    def _fd(self, fn, tau, h=5e-5):
        return (8 * (fn(tau + h) - fn(tau - h))
                - (fn(tau + 2 * h) - fn(tau - 2 * h))) / (12 * h)

    @pytest.mark.parametrize("leaf,numeric", [
        (sx.g1, lambda c, z: c.g1),
        (sx.g2, lambda c, z: c.g2),
        (sx.g3, lambda c, z: c.g3),
        (sx.wpu, lambda c, z: elliptic.wp(c, z)),
        (sx.zwu, lambda c, z: elliptic.zeta(c, z)),
        (sx.dwpu, lambda c, z: elliptic.wp_z(c, z)),
    ])
    def test_rule(self, ctx, rng, leaf, numeric):
        z = random_cell_point(rng, ctx.tau)
        vals = {
            sx.u: z, sx.wpu: elliptic.wp(ctx, z),
            sx.dwpu: elliptic.wp_z(ctx, z), sx.zwu: elliptic.zeta(ctx, z),
            sx.g1: ctx.g1, sx.g2: ctx.g2, sx.g3: ctx.g3,
        }
        rule = sx.DTAU_RULES[leaf]
        predicted = complex(sp.lambdify(tuple(vals), rule)(*vals.values()))
        fd = self._fd(lambda t: numeric(elliptic.make_context(t), z),
                      ctx.tau) * complex(elliptic.TWO_PI_I)
        assert abs(predicted - fd) < 1e-6 * max(1.0, abs(predicted))


class TestSpectralDerivative:
    def test_closed_rules(self):
        assert sx.d_dz_spectral(sx.wpu, "u") == sx.dwpu
        assert sp.expand(sx.d_dz_spectral(sx.dwpu, "u")
                         - (6 * sx.wpu ** 2 - sx.g2 / 2)) == 0
        assert sx.d_dz_spectral(sx.zwu, "u") == -sx.wpu
        assert sx.d_dz_spectral(sx.wpu, "v") == 0

    def test_unknown_variable(self):
        with pytest.raises(ClosureError):
            sx.d_dz_spectral(sx.wpu, "t")

    def test_dinv_rules_are_the_quotient_rule(self):
        # dinv = 1/(wpv - wpu): its rules follow from those of wpu and wpv
        inv = 1 / (sx.wpv - sx.wpu)
        pairs = [(sx.DTAU_RULES[sx.dinv], sx.d_dtau_scaled(inv))]
        pairs += [(sx._DU_RULES[var][sx.dinv], sx.d_dz_spectral(inv, var))
                  for var in ("u", "v")]
        for rule, want in pairs:
            assert sp.cancel(rule.subs(sx.dinv, inv) - want) == 0

    def test_numeric(self, ctx, rng):
        z = random_cell_point(rng, ctx.tau)
        h = 4e-5
        expr = sx.wpu ** 2 + sx.zwu
        d = sx.d_dz_spectral(expr, "u")

        def at(zz):
            return (elliptic.wp(ctx, zz) ** 2 + elliptic.zeta(ctx, zz))
        fd = (at(z + h) - at(z - h)) / (2 * h)
        val = complex(sp.lambdify(
            (sx.wpu, sx.dwpu, sx.zwu, sx.g2), d)(
            elliptic.wp(ctx, z), elliptic.wp_z(ctx, z),
            elliptic.zeta(ctx, z), ctx.g2))
        assert abs(fd - val) < 1e-5 * max(1.0, abs(val))


@st.composite
def alphabet_polys(draw):
    gens = [sx.jet("z1"), sx.jet("z1", 1), sx.jet("z2"), sx.g2, sx.wpu, sx.T]
    n_terms = draw(st.integers(1, 4))
    e = sp.Integer(0)
    for _ in range(n_terms):
        c = sp.Rational(draw(st.integers(-9, 9)), draw(st.integers(1, 7)))
        m = sp.Integer(1)
        for g in draw(st.lists(st.sampled_from(gens), max_size=3)):
            m *= g
        e += c * m
    return sp.expand(e)


class TestRenderParse:
    @settings(max_examples=40, deadline=None)
    @given(alphabet_polys())
    def test_roundtrip(self, e):
        assert sp.expand(sx.parse(sx.render(e)) - e) == 0

    def test_names_from_the_text(self):
        # names never made by jet(), and names sympy would otherwise read
        # as its constants E and S, come back as plain symbols
        E, S, y7x = sp.symbols("E S y7_x")
        assert sx.parse("E*y7_x + 2*S") == E * y7x + 2 * S

    def test_deterministic(self):
        e = sx.g2 * sx.jet("z1") + sx.jet("z2") * sx.T
        assert sx.render(e) == sx.render(sp.expand(e + 0))

    def test_ring_element_as_its_expr(self):
        R, a, b = sp.ring("a b", sp.QQ)
        p = (a + b) ** 2 / 3
        assert sx.render(p) == "a**2/3 + 2*a*b/3 + b**2/3"
        assert sx.render(p) == sx.render(p.as_expr())

    def test_field_element_expanded(self):
        # a non-constant denominator: the Expr of the field element is
        # one fraction, the rendered text its expansion
        F, a, b = sp.field("a b", sp.QQ)
        c = (a + 1) ** 2 / (2 * b)
        assert sx.render(c) == "a**2/(2*b) + a/b + 1/(2*b)"
        assert sx.render(c) == sx.render(c.as_expr())


class TestEvaluation:
    def test_unbound(self):
        with pytest.raises(UnboundSymbolError):
            sx.evaluate(sx.jet("z9"), {})

    def test_sample_jets_consistency(self, ctx):
        vals = sx.sample_jets(ctx, ("z1", "z2"), max_order=2, seed=3)
        # builtin leaves agree with the context
        assert abs(vals[sx.g2] - ctx.g2) == 0
        wu = elliptic.wp(ctx, vals[sx.u])
        assert abs(vals[sx.wpu] - wu) < 1e-12 * max(1.0, abs(wu))
        # cubic holds at the sampled spectral point
        r = sx.evaluate(sx.dwpu ** 2 - 4 * sx.wpu ** 3 + sx.g2 * sx.wpu
                        + sx.g3, vals)
        assert abs(r) < 1e-8

    def test_seed_determinism(self, ctx):
        a = sx.sample_jets(ctx, ("z1",), seed=7)
        b = sx.sample_jets(ctx, ("z1",), seed=7)
        assert a == b
