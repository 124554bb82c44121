"""Symbolic layer: jet bookkeeping, derivation rules (validated
numerically against the special-function layer), and the deterministic
printer."""

import numpy as np
import pytest
import sympy as sp

from loopbrackets import distcalc as dc
from loopbrackets import elliptic
from loopbrackets import models
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


class TestRenderParse:
    def test_deterministic(self):
        e = sx.g2 * sx.jet("z1") + sx.jet("z2") * sx.T
        assert sx.render(e) == sx.render(sp.expand(e + 0))

    def test_ring_element_as_its_expr(self):
        a, b = sp.symbols("a b")
        alg = dc._RingAlgebra([a, b], (), True, constants=(a, b))
        p = alg.conv((a + b) ** 2 / 3)
        assert sx.render(p) == "a**2/3 + 2*a*b/3 + b**2/3"
        assert sx.render(p) == sx.render(p.as_expr())
        assert sx.render(3 * p, 3) == sx.render(p)

    def test_g_basis_value(self):
        """An element prints its value in the g basis, not the h basis
        it computes in (g2 = 12 h2, g3 = 2 h3)."""
        alg = dc._RingAlgebra([sx.g1, sx.g2, sx.g3], (), True)
        p = alg.conv(sx.g2 / 3 + sx.g3 * sx.g1)
        assert dict(p) == dict(4 * alg.gen(sp.Symbol("h2"))
                               + 2 * alg.gen(sp.Symbol("h3")) * alg.gen(sx.g1))
        assert sx.render(p) == "g1*g3 + g2/3"
        assert sx.render(p, 6) == "g1*g3/6 + g2/18"

    def test_field_element_expanded(self):
        # a monomial denominator: the Expr of the element is one
        # fraction, the rendered text its expansion
        a, b = sp.symbols("a b")
        alg = dc._RingAlgebra([a, b], (), True, constants=(a, b))
        c = alg.conv((a + 1) ** 2 / (2 * b))
        assert c.den
        assert sx.render(c) == "a**2/(2*b) + a/b + 1/(2*b)"
        assert sx.render(c) == sx.render(c.as_expr())
        assert sx.render(c, 2) == "a**2/(4*b) + a/(2*b) + 1/(4*b)"


def random_polys(seed: int, count: int) -> list:
    """Seeded polynomials over QQ in an algebra whose generator order is
    not the name order (T before g1, z10 before z2, z0_x before z0), with
    coefficients +-1 among others, constant terms and zero, and g2, g3
    among the generators, which the algebra holds as h2 = g2/12 and
    h3 = g3/2."""
    rng = np.random.default_rng(seed)
    alg = dc._RingAlgebra(sp.symbols("z0_x z10 g3 z2 g1 T g2 z0"), None,
                          True)
    gens = [alg.gen(s) for s in alg.syms]
    out = [alg.zero, alg.one, -alg.one]
    for _ in range(count):
        p = alg.zero
        for _ in range(rng.integers(1, 6)):
            c = alg.const(sp.QQ(int(rng.choice([1, -1, 2, -3, 7])),
                                int(rng.choice([1, 1, 2, 3, 12]))))
            for i in rng.integers(0, len(gens), rng.integers(0, 5)):
                c = c * gens[i]
            p += c
        out.append(p)
    return out


def printed_entries(n: int) -> list:
    """Every P/Q entry of both derivation routes at n and every
    coefficient the document writer prints from them."""
    k = len(models.field_indices(n))
    zs0 = list(range(models._Z_AT, models._Z_AT + k))
    q_at = list(range(models._Z_AT, models._Z_AT + 2 * k)) + [models._T_AT]
    out = []
    for sc in (models.thm3_extract(n), models.appendix_table(n)):
        for table, at in ((sc.P_poly, zs0), (sc.Q_poly, q_at)):
            for p in table.values():
                out.append(p)
                out.extend(models._group_terms(p, at).values())
    return out


def misprinted(polys) -> list:
    """The polynomials whose direct rendering differs from sympy's
    lex-ordered printer on their Expr."""
    return [p for p in polys
            if sx.render(p) != sp.sstr(p.as_expr(), order="lex")]


class TestDirectPrinter:
    """render prints a polynomial from its terms, byte for byte as
    sympy's lex-ordered printer prints its Expr."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_table_entries(self, n):
        assert misprinted(printed_entries(n)) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_random_polynomials(self, seed):
        assert misprinted(random_polys(seed, 300)) == []

    def test_zero_and_signs(self):
        alg = dc._RingAlgebra(sp.symbols("x y"), (), True,
                              constants=sp.symbols("x y"))
        x, y = (alg.gen(s) for s in alg.syms)
        assert sx.render(alg.zero) == "0"
        assert sx.render(-x - 1) == "-x - 1"
        assert sx.render(-x * y / 3 + sp.QQ(5, 2)) == "-x*y/3 + 5/2"

    def test_ring_position_order_is_caught(self, monkeypatch):
        """Negative control: generators taken in ring position instead of
        by name misprint the random polynomials and the n=3 entries."""
        def by_position(names):
            return tuple(range(len(names))), names
        monkeypatch.setattr(sx, "_name_order", by_position)
        assert misprinted(random_polys(0, 50))
        assert misprinted(printed_entries(3))


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
