"""Delta-distribution calculus.

The canonicalization rewrites (orientation flips, factor transport,
delta-pair reduction) are validated against an independent oracle: every
delta is eliminated by its definitional pairing rule
int phi(b) delta^(k)(a-b) db = phi^(k)(a) against fixed polynomial test
functions, the fields are realized as explicit polynomials of x, and the
remaining expression is integrated over [0, 1].  Raw input and canonical
output must integrate to the same rational number."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from loopbrackets import distcalc as dc
from loopbrackets import models, verify
from loopbrackets import symexpr as sx
from loopbrackets.errors import (ClosureError, ExponentOverflowError,
                                 LoopBracketsError, StructureError,
                                 UnboundSymbolError, UnknownFieldError)

x, y, w = sp.symbols("x y w")
PT = {"x": x, "y": y, "w": w}

BASE = {
    "z1": sp.Rational(1, 3) * x ** 3 - 2 * x + 1,
    "z2": x ** 4 - sp.Rational(1, 2) * x ** 2 + 3 * x,
}

TESTFN = {
    "x": x ** 2 * (1 - x) ** 2,
    "y": (sp.Rational(1, 2) * x ** 3 - x).subs(x, y),
    "w": (x ** 2 + 2 * x).subs(x, w),
}

z1, z2 = sx.jet("z1"), sx.jet("z2")
z1x, z2x = sx.jet("z1", 1), sx.jet("z2", 1)


def realize(expr, pt):
    """Field jets as derivatives of the fixed polynomial realizations;
    `expr` is a sympy expression or an element of a table's algebra."""
    expr = expr.as_expr()
    subs = {}
    for s in expr.free_symbols:
        info = sx.jet_info(s, BASE)
        if info is None:
            raise AssertionError(f"unrealized leaf {s}")
        f, k = info
        subs[s] = sp.diff(BASE[f], x, k).subs(x, pt)
    return expr.subs(subs)


def pairing(raws, npts):
    """Independent value of a raw distribution against the test
    functions: definitional delta elimination, then integration."""
    total = sp.Integer(0)
    for r in raws:
        expr = sp.Integer(1)
        for p in list(PT)[:npts]:
            expr *= TESTFN[p]
        for p, c in r.factors:
            expr *= realize(c, PT[p])
        deltas = list(r.deltas)
        remaining = ["y", "w"] if npts == 3 else ["y"]
        while deltas:
            var = next(vv for vv in remaining
                       if sum(vv in d[:2] for d in deltas) == 1)
            remaining.remove(var)
            d = next(d for d in deltas if var in d[:2])
            a, b, k = d
            deltas.remove(d)
            other = PT[a] if b == var else PT[b]
            sign = 1 if b == var else (-1) ** k
            expr = sign * sp.diff(expr, PT[var], k).subs(PT[var], other)
        total += expr
    return sp.integrate(sp.expand(total), (x, 0, 1))


def g_value(table, t, scale=None):
    """The Expr of the term t of `table` (or of a bracket on it, at
    `scale`): its value in the g basis, divided by the scale."""
    scale = table.scale if scale is None else scale
    return t.value.as_expr() / scale


def dp_raws(dp, three=False):
    """Canonical DistPoly re-expressed as raw terms for the oracle."""
    out = []
    for t in dp.terms:
        if three:
            p, q = t.orders
            out.append(dc._RawTerm((("x", t.value.as_expr()),),
                                   (("x", "y", p), ("x", "w", q))))
        else:
            out.append(dc._RawTerm((("x", t.value.as_expr()),),
                                   (("x", "y", t.orders[0]),)))
    return out


def canonical(raw, frozen=False):
    """canonicalize in an algebra built for sympy-valued raw terms: their
    leaves, and their jets prolonged as far as the delta orders reach."""
    depth = max(sum(d[2] for d in t.deltas) for t in raw)
    seeds = [c for t in raw for _, c in t.factors]
    alg = dc._RingAlgebra(dc._ring_symbols(seeds, depth, BASE, frozen=frozen),
                          BASE, frozen)
    return dc.canonicalize([dc._RawTerm(tuple((p, alg.conv(c))
                                              for p, c in t.factors),
                                        t.deltas) for t in raw], alg)


class TestCanonicalizeAgainstPairing:
    def check(self, raw, npts):
        dp = canonical(raw)
        assert pairing(raw, npts) - pairing(dp_raws(dp, npts == 3), npts) == 0
        return dp

    def test_orientation_and_transport(self):
        self.check([dc._RawTerm((("y", z1 * z2x + z2 ** 2),),
                                (("y", "x", 3),))], 2)

    def test_three_point_chain(self):
        self.check([dc._RawTerm((("y", z1x), ("w", z2)),
                                (("y", "w", 2), ("w", "x", 1)))], 3)

    def test_three_point_shared_third(self):
        self.check([dc._RawTerm((("w", z1 * z2),),
                                (("x", "w", 1), ("y", "w", 2)))], 3)

    def test_three_point_pair_reduction(self):
        self.check([dc._RawTerm((("y", z2 ** 2),),
                                (("x", "y", 2), ("y", "w", 1)))], 3)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 2),
           st.sampled_from([z1, z2, z1 * z2, z2x, z1 ** 2]),
           st.sampled_from(["y", "w"]))
    def test_random_three_point(self, m, n, coeff, where):
        raw = [dc._RawTerm(((where, coeff),),
                           (("y", "x", m), ("y", "w", n)))]
        self.check(raw, 3)

    @staticmethod
    def expand_by_hand(raw, dx):
        """R1 and R2 applied by hand to single-factor two-point terms, with
        the factor's x-derivatives taken by `dx` on sympy expressions."""
        out = {}
        for t in raw:
            (p, c), = t.factors
            (a, b, m), = t.deltas
            c = c * (-1) ** m if (a, b) == ("y", "x") else c
            if p == "x":
                out[(m,)] = out.get((m,), 0) + c
                continue
            for j in range(m + 1):
                out[(m - j,)] = out.get((m - j,), 0) + sp.binomial(m, j) * c
                c = dx(c)
        return out

    def algebra_paths_agree(self, frozen, dx):
        # the ring canonicalization against the Expr derivative, with the
        # tau chain g1, g2 -> T in the transported factor
        k = sp.Rational(2, 3)
        raw = [dc._RawTerm((("y", z1 * z2x + k * sx.g2 * z2 ** 2
                                  + sx.g1 * z1),),
                           (("y", "x", 2),)),
               dc._RawTerm((("x", k * sx.g1 * z1x),),
                           (("x", "y", 1),))]
        got = canonical(raw, frozen=frozen)
        want = self.expand_by_hand(raw, dx)
        assert {t.orders for t in got.terms} == set(want)
        for t in got.terms:
            assert sp.expand(t.value.as_expr() - want[t.orders]) == 0
        return got

    def test_algebra_paths_agree(self):
        got = self.algebra_paths_agree(
            False, lambda e: sx.total_x_derivative(e, BASE))
        assert any(sx.T in t.value.as_expr().free_symbols for t in got.terms)

    def test_algebra_paths_agree_frozen(self):
        got = self.algebra_paths_agree(
            True, lambda e: sx.total_x_derivative(e, BASE).subs(sx.T, 0))
        assert all(sx.T not in t.value.as_expr().free_symbols for t in got.terms)

    def test_leaf_without_rewrite(self):
        # refused even where no derivative of the leaf is taken
        raw = [dc._RawTerm((("x", sp.Symbol("leaf_without_rule") * z1),),
                           (("x", "y", 1),))]
        with pytest.raises(ClosureError):
            canonical(raw)


@pytest.fixture(scope="module")
def table():
    return dc.build_table(("z1", "z2"), {
        ("z1", "z1"): [(2 * z1, 1), (z1x, 0)],
        ("z1", "z2"): [(z1 * z2, 1), (sp.Rational(1, 2) * z2x * z1, 0)],
        ("z2", "z2"): [(4 * z2, 1), (2 * z2x, 0)],
    })


class TestBracketTable:
    def test_antisymmetric_completion(self, table):
        for a in table.fields:
            for b in table.fields:
                assert dc.antisymmetry_defect(table, a, b).is_zero()

    @pytest.mark.parametrize("coeff", [sp.sqrt(2) * z1, sp.sin(z1),
                                       0.5 * z1, sp.I * z1])
    def test_coefficient_outside_qq(self, coeff):
        # only rational functions over QQ in the generators are coefficients
        with pytest.raises(ClosureError):
            dc.build_table(("z1",), {("z1", "z1"): [(coeff, 1)]})

    def test_unknown_field(self, table):
        with pytest.raises(UnknownFieldError):
            table.entry("z1", "z9")
        with pytest.raises(UnknownFieldError):
            dc.leibniz_bracket(table, "z9", z1)
        with pytest.raises(UnknownFieldError):
            dc.bracket_of_functions(table, sx.jet("z9"), z1)

    def test_order(self, table):
        assert table.order() == 1

    def test_transpose_involution(self, table):
        e = table.entry("z1", "z2")
        back = dc.transpose_entry(dc.transpose_entry(e, table.alg),
                                  table.alg)
        assert len(back) == len(e)
        for t in e:
            got = next(b.value.as_expr() for b in back if b.orders == t.orders)
            assert sp.expand(got - t.value.as_expr()) == 0


def fresh_interpreter(code: str) -> str:
    """Standard output of `code` run in a new Python process."""
    src = os.path.dirname(os.path.dirname(dc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestAlphabet:
    """A table reads its symbols from its own fields and x-constants, so
    a call gives one table whatever ran before it in the process."""

    Y7 = ("import sympy as sp\n"
          "from loopbrackets import distcalc as dc\n"
          "y7, y7x = sp.Symbol('y7'), sp.Symbol('y7_x')\n"
          "t = dc.build_table(('y7',), {('y7', 'y7'): [(y7 * y7x, 0)]})\n"
          "print(t.alg.syms, [(k, [(t.value.as_expr(), t.orders) for t in v])\n"
          "                   for k, v in t.entries.items()])\n")

    OTHER = ("from loopbrackets import symexpr as sx\n"
             "sx.jet('y7'); sx.jet('y7', 1); sx.jet('z3', 2)\n"
             "import loopbrackets.models\n")

    def test_same_table_whatever_ran_before(self):
        alone = fresh_interpreter(self.Y7)
        assert "[(('y7', 'y7'), [(y7*y7_x, (0,))])]" in alone
        assert fresh_interpreter(self.OTHER + self.Y7) == alone
        assert fresh_interpreter(self.Y7 + self.OTHER + self.Y7) == 2 * alone

    def test_constants_are_per_table(self):
        c = sp.Symbol("c_per_table")
        # c times the linear Poisson bracket is Poisson when c_x = 0
        tbl = dc.build_table(("z1",), {("z1", "z1"): [(2 * c * z1, 1),
                                                      (c * z1x, 0)]},
                             constants=(c,))
        assert tbl.alg.dx(tbl.alg.gen(c)) == 0
        assert dc.jacobi_defect(tbl, "z1", "z1", "z1").is_zero()
        with pytest.raises(ClosureError):
            dc.build_table(("z1",), {("z1", "z1"): [(c * z1, 1)]})

    def test_algebra_outside_its_alphabet(self):
        # built directly, as models does, not through _ring_symbols
        with pytest.raises(ClosureError, match="no derivative rewrite for "
                                               "leaf y"):
            dc._RingAlgebra([sp.Symbol("y")], (), False)


class TestLeibniz:
    def test_against_pairing(self, table):
        E = z1 ** 2 * z2x + z2 * z1x
        direct = []
        for fld, k, dE in dc._partials(table.alg, table.alg.conv(E),
                                       table.fields):
            for t in table.entry("z1", fld):
                direct.append(dc._RawTerm(
                    (("x", t.value.as_expr()), ("y", (-1) ** k * dE)),
                    (("x", "y", t.orders[0] + k),)))
        lb = dc.leibniz_bracket(table, "z1", E)
        assert pairing(direct, 2) - pairing(dp_raws(lb), 2) == 0

    def test_bracket_of_functions_extends_leibniz(self, table):
        E = z1 ** 2 * z2x + z2 * z1x
        lb = dc.leibniz_bracket(table, "z1", E)
        bf = dc.bracket_of_functions(table, z1, E)
        assert [t.orders for t in bf.terms] == [t.orders for t in lb.terms]
        for s, t in zip(bf.terms, lb.terms):
            assert sp.expand(s.value.as_expr() - t.value.as_expr()) == 0

    def test_constant_expression(self, table):
        assert dc.leibniz_bracket(table, "z1", 1).is_zero()
        assert dc.bracket_of_functions(table, 2, z1).is_zero()

    def test_memoized(self, table):
        E = z1 * z2
        a = dc.leibniz_bracket(table, "z1", E)
        b = dc.leibniz_bracket(table, "z1", E)
        assert a is b


def raw_bracket_of_functions(table, F, G, binom=math.comb):
    """Reference {F(x), G(y)}: for each pair of partials (f, k, dF) of F
    and (g, l, dG) of G and each term C delta^(m) of {f(x), g(y)}, the
    raw terms of dF(x) dG(y) d^k/dx^k d^l/dy^l [C(x) delta^(m)(x-y)],
    canonicalized together."""
    alg = table.alg
    pF = dc._partials(alg, dc._element(table, F), table.fields)
    pG = dc._partials(alg, dc._element(table, G), table.fields)
    raws = []
    for f, k, dF in pF:
        for g, l, dG in pG:
            if l % 2:
                dG = -dG
            for t in table.entry(f, g):
                m, c = t.orders[0], t.value
                for i in range(k + 1):
                    raws.append(dc._RawTerm(
                        (("x", dF * binom(k, i)), ("x", c), ("y", dG)),
                        (("x", "y", m + l + k - i),)))
                    if i < k:
                        c = alg.dx(c)
    return dc.DistPoly(dc.canonicalize(raws, alg=alg).terms, table.scale)


def seeded_functions(seed: int) -> tuple:
    """Two seeded differential expressions on prop2_table's fields: a few
    monomials in the jets of z1, z2 up to order 2, the modular field th
    and its jet T, and g2, each over a power of a field (0 included)."""
    rng = np.random.default_rng(seed)
    gens = [sx.jet(f, k) for f in ("z1", "z2") for k in range(3)]
    gens += [sx.jet(sx.MODULAR_FIELD), sx.T, sx.g2]

    def draw():
        e = sp.Integer(0)
        for _ in range(rng.integers(1, 4)):
            c = sp.Rational(int(rng.integers(-5, 6)) or 1,
                            int(rng.integers(1, 4)))
            for i in rng.integers(0, len(gens), rng.integers(1, 3)):
                c *= gens[i]
            e += c
        den = sx.jet(str(rng.choice(["z1", "z2"])))
        return e / den ** int(rng.integers(0, 2))
    return draw(), draw()


class TestBracketOfFunctions:
    """bracket_of_functions differentiates Leibniz brackets; the raw-term
    construction above is its reference."""

    @pytest.fixture(scope="class")
    def prop2(self):
        return models.prop2_table()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_raw_terms(self, prop2, seed):
        F, G = seeded_functions(seed)
        assert dc.bracket_of_functions(prop2, F, G) == \
            raw_bracket_of_functions(prop2, F, G)

    def test_cases_cover_higher_jets_fractions_and_th(self):
        cases = [seeded_functions(seed) for seed in range(8)]
        syms = set().union(*(sp.sympify(e).free_symbols for c in cases
                             for e in c))
        assert {sx.jet("z1", 2), sx.jet("z2", 2), sx.jet("th"), sx.T} <= syms
        assert any(sp.denom(F) != 1 for F, _ in cases)

    def test_dropped_binomial_detected(self, prop2):
        """Negative control: the reference without its binomial factor
        misses bracket_of_functions on some seeded case."""
        def one(k, i):
            return 1
        assert any(dc.bracket_of_functions(prop2, F, G)
                   != raw_bracket_of_functions(prop2, F, G, binom=one)
                   for F, G in map(seeded_functions, range(8)))


class TestJacobi:
    def test_defect_against_pairing(self, table):
        raws = []
        raws += dc._cyclic_term(table, "z1", ("z1", "z2"), ("x", "y", "w"))
        raws += dc._cyclic_term(table, "z1", ("z2", "z1"), ("y", "w", "x"))
        raws += dc._cyclic_term(table, "z2", ("z1", "z1"), ("w", "x", "y"))
        jd = dc.jacobi_defect(table, "z1", "z1", "z2")
        assert pairing(raws, 3) - pairing(dp_raws(jd, True), 3) == 0

    def test_known_poisson_bracket(self):
        # constant bracket {z1, z1} = delta', {z2, z2} = 2 delta'
        tbl = dc.build_table(("z1", "z2"), {
            ("z1", "z1"): [(sp.Integer(1), 1)],
            ("z1", "z2"): [],
            ("z2", "z2"): [(sp.Integer(2), 1)],
        })
        for tr in dc.jacobi_triples(tbl.fields):
            assert dc.jacobi_defect(tbl, *tr).is_zero()

    def test_linear_poisson_bracket(self):
        # Virasoro-type leading part {z,z} = 2 z delta' + z_x delta
        tbl = dc.build_table(("z1",), {
            ("z1", "z1"): [(2 * z1, 1), (z1x, 0)],
        })
        assert dc.jacobi_defect(tbl, "z1", "z1", "z1").is_zero()

    def test_negative_control(self):
        # flipping the delta coefficient must break Jacobi
        tbl = dc.build_table(("z1",), {
            ("z1", "z1"): [(2 * z1, 1), (-z1x, 0)],
        })
        assert not dc.jacobi_defect(tbl, "z1", "z1", "z1").is_zero()

    def test_triples_count(self, table):
        assert len(dc.jacobi_triples(table.fields)) == 4


def freeze(table):
    """The table in its own fields with the modular parameter held
    constant: the identity change of coordinates, frozen."""
    ident = {f: sx.jet(f) for f in table.fields}
    return dc.change_coordinates(table, ident, ident, frozen_modular=True)


class TestFrozenModular:
    def test_frozen_kills_modular_jets(self):
        tbl = freeze(dc.build_table(("z1",), {
            ("z1", "z1"): [(sx.g2 * z1, 1), (sx.g2 * z1x / 2, 0)],
        }))
        assert not tbl.alg.dx(tbl.alg.conv(sx.g2))
        dp = dc.leibniz_bracket(tbl, "z1", z1 ** 2)
        for t in dp.terms:
            for s in t.value.as_expr().free_symbols:
                info = sx.jet_info(s, tbl.fields)
                assert not (info and info[0] == sx.MODULAR_FIELD)

    def test_unfrozen_keeps_modular_jets(self):
        tbl = dc.build_table(("z1",), {
            ("z1", "z1"): [(sx.g2 * z1, 1), (sx.g2 * z1x / 2, 0)],
        })
        dp = dc.bracket_of_functions(tbl, z1x, z1)
        assert any(sx.T in t.value.as_expr().free_symbols for t in dp.terms)


class TestCoordinateChange:
    def test_scaling_covariance(self, table):
        # w1 = 2 z1 rescales the (w1, w1) entry by 4
        new = dc.change_coordinates(
            table, {"w1": 2 * z1, "w2": sx.jet("z2")},
            {"z1": sx.jet("w1") / 2, "z2": sx.jet("w2")})
        old = table.entry("z1", "z1")
        got = {t.orders: g_value(new, t) for t in new.entry("w1", "w1")}
        for t in old:
            expect = 4 * g_value(table, t).subs({z1: sx.jet("w1") / 2,
                                                 z1x: sx.jet("w1", 1) / 2})
            assert sp.expand(got[t.orders] - expect) == 0

    def test_elimination_failure_detected(self):
        # a coefficient that genuinely involves the eliminated field
        tbl = dc.build_table(("z1", "z2"), {
            ("z1", "z1"): [(z2, 1)],
            ("z1", "z2"): [],
            ("z2", "z2"): [],
        })
        with pytest.raises(StructureError, match="does not close"):
            dc.change_coordinates(tbl, {"w1": z1}, {"z1": sx.jet("w1")})


class TestNumericEvaluation:
    """Coefficients are evaluated from their ring elements, checked
    against substitution into their Exprs."""

    @staticmethod
    def samples(ctx, table, seeds=(1, 2)):
        return [sx.sample_jets(ctx, table.fields, max_order=table.order() + 4,
                               seed=s) for s in seeds]

    def check_against_expr(self, table, samples):
        checked = 0
        for tr in dc.jacobi_triples(table.fields):
            dp = dc.jacobi_defect(table, *tr)
            got = dc.evaluate_distpoly(dp, samples)
            assert got.shape == (len(dp.terms), len(samples))
            for t, row in zip(dp.terms, got):
                ref = g_value(table, t, dp.scale)
                for s, g in zip(samples, row):
                    want = sx.evaluate(ref, s)
                    assert abs(g - want) <= 1e-12 * max(1.0, abs(want))
                    checked += 1
        assert checked

    @staticmethod
    def elements(*syms):
        """The symbols as elements of an algebra built for them."""
        alg = dc._RingAlgebra(dc._ring_symbols(syms, 0, BASE, frozen=True),
                              BASE, frozen=True)
        return [alg.conv(s) for s in syms]

    def test_evaluate_distpoly(self, ctx):
        a, b, c = self.elements(z1, z1x, sx.g2)
        dp = dc.DistPoly(terms=(dc.DeltaTerm(a * c, (1,)),
                                dc.DeltaTerm(b, (0,))))
        vals = sx.sample_jets(ctx, ("z1",), seed=5)
        got = dc.evaluate_distpoly(dp, [vals])[:, 0]
        expect0 = vals[z1] * ctx.g2
        assert abs(got[0] - complex(expect0)) < 1e-12 * max(1.0, abs(expect0))
        assert abs(got[1] - complex(vals[z1x])) < 1e-12

    def test_polynomial_defects_match_expr(self, ctx):
        table = models.thm3_extract(2).to_bracket_table()
        bad = verify._flip_one_entry(table, "z0", "z2")
        self.check_against_expr(bad, self.samples(ctx, bad))

    def test_fraction_defects_match_expr(self, ctx):
        table = freeze(dc.build_table(("z1", "z2"), {
            ("z1", "z2"): [(z1 / z2 * sx.g2, 1), (z1x / z2, 0)]}))
        assert any(t.value.den for t in table.entry("z1", "z2"))
        self.check_against_expr(table, self.samples(ctx, table))

    def test_unbound_support_generator(self, ctx):
        a, b = self.elements(z1, z1x)
        dp = dc.DistPoly(terms=(dc.DeltaTerm(a * b, (0,)),))
        vals = sx.sample_jets(ctx, ("z1",), seed=5)
        del vals[z1x]
        with pytest.raises(UnboundSymbolError, match="z1_x"):
            dc.evaluate_distpoly(dp, [vals])

    def test_generators_outside_support_need_no_value(self):
        a, b, c = self.elements(z1, z1x, sx.g2)
        dp = dc.DistPoly(terms=(dc.DeltaTerm(3 * a ** 2 + c / 2, (0, 1)),
                                dc.DeltaTerm(a.ring.const(5), (1, 0))))
        samples = [{z1: 2j, sx.g2: 4.0}, {z1: 1, sx.g2: 0}]
        got = dc.evaluate_distpoly(dp, samples)
        assert got.tolist() == [[-10, 3], [5, 5]]


class TestTableAlgebra:
    """One coefficient algebra per table, the Leibniz memo keyed on row
    content, and coordinate changes as a ring homomorphism."""

    @pytest.fixture(scope="class")
    def n2(self):
        return models.thm3_extract(2)

    def test_one_construction_per_table(self, n2, ctx, monkeypatch):
        built = []
        orig = dc._RingAlgebra.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            orig(self, *args, **kwargs)
        monkeypatch.setattr(dc._RingAlgebra, "__init__", counted)
        table = n2.to_bracket_table()
        assert len(built) == 1
        jets = [sx.sample_jets(ctx, table.fields, max_order=table.order() + 4,
                               seed=s) for s in (1, 2)]
        verify._table_residuals(table, jets)
        verify._table_residuals(table, jets[:1])
        verify._table_residuals(verify._flip_one_entry(table, "z0", "z2"),
                                jets[:1])
        assert len(built) == 1

    def test_flip_misses_memo_only_on_flipped_entry(self, n2):
        # misses read the flipped row, or bracket with a flipped coefficient
        table = n2.to_bracket_table()
        triples = dc.jacobi_triples(table.fields)
        for tr in triples:
            dc.jacobi_defect(table, *tr)
        before = set(table.alg.memo)
        bad = verify._flip_one_entry(table, "z0", "z2")
        assert bad.alg is table.alg
        for tr in triples:
            dc.jacobi_defect(bad, *tr)
        missed = set(bad.alg.memo) - before
        flipped = {t.value for t in bad.entry("z0", "z2")}
        assert 0 < len(missed) < len(before)
        assert all(key[0] == "z0" or key[1] in flipped for key in missed)

    @staticmethod
    def reference_change(table, forward, inverse, frozen):
        """change_coordinates by Expr.subs of the prolonged inverse and
        cancel, coefficient by coefficient."""
        max_ord = table.order() + 4
        subs = {}
        for old, expr in inverse.items():
            cur = sp.sympify(expr)
            for k in range(max_ord + 1):
                subs[sx.jet(old, k)] = cur
                cur = sx.total_x_derivative(cur, forward)
        if frozen:
            subs.update({sx.jet(sx.MODULAR_FIELD, k): 0
                         for k in range(1, max_ord + 1)})
        out = {}
        for a in forward:
            for b in forward:
                dp = dc.bracket_of_functions(table, forward[a], forward[b])
                coeffs = {t.orders: sp.expand(sp.cancel(
                    g_value(table, t, dp.scale).subs(subs, simultaneous=True)))
                    for t in dp.terms}
                out[(a, b)] = {k: c for k, c in coeffs.items() if c != 0}
        return out

    @pytest.mark.parametrize("frozen", [True, False])
    def test_change_coordinates_matches_subs(self, frozen):
        table = models.prop2_table()
        forward = {"p1": z1 / z2, "w2": z2}
        inverse = {"z1": sx.jet("p1") * sx.jet("w2"), "z2": sx.jet("w2")}
        new = self.check_change(table, forward, inverse, frozen)
        assert frozen or any(sx.T in g_value(new, t).free_symbols
                             for terms in new.entries.values()
                             for t in terms)

    def test_change_coordinates_rational_inverse(self, table):
        # w1 = z1 z2: the new coefficients are rational in w2
        w1, w2 = sx.jet("w1"), sx.jet("w2")
        new = self.check_change(table, {"w1": z1 * z2, "w2": z2},
                                {"z1": w1 / w2, "z2": w2}, False)
        assert any(sp.denom(sp.together(g_value(new, t))) != 1
                   for terms in new.entries.values() for t in terms)

    def check_change(self, table, forward, inverse, frozen):
        new = dc.change_coordinates(table, forward, inverse,
                                    frozen_modular=frozen)
        want = self.reference_change(table, forward, inverse, frozen)
        assert set(new.entries) == set(want)
        for key, terms in new.entries.items():
            got = {t.orders: g_value(new, t) for t in terms}
            assert set(got) == set(want[key]), key
            for orders, c in got.items():
                assert sp.expand(c - want[key][orders]) == 0, (key, orders)
        return new


class TestIntegerAlgebra:
    """Table algebras compute over ZZ in the basis h2 = g2/12, h3 = g3/2,
    with entries stored at the table's scale; every value that leaves
    the algebra is mapped back exactly."""

    H2, H3 = sp.symbols("h2 h3")

    @pytest.fixture(scope="class")
    def n2(self):
        return models.thm3_extract(2)

    def test_rules_derived_from_dtau_rules(self, n2):
        alg = n2.to_bracket_table().alg
        got = {}
        for g, h, w in ((sx.g1, sx.g1, 1), (sx.g2, self.H2, 12),
                        (sx.g3, self.H3, 2)):
            got[h] = alg._dth[alg.index[h]]
            assert sp.expand(got[h].as_expr() - sx.DTAU_RULES[g] / w) == 0, h
        g1, h2, h3 = (alg.gen(s) for s in (sx.g1, self.H2, self.H3))
        assert got == {sx.g1: h2 - g1 ** 2, self.H2: h3 - 4 * g1 * h2,
                       self.H3: 24 * h2 ** 2 - 6 * g1 * h3}

    def test_template_rules_in_the_h_basis(self):
        """The thm3 template algebra computes in hdwpu = dwpu/2 and
        hdwpv = dwpv/2 as well: every image of its derivations, d/dth
        (DTAU_RULES) and d/du, d/dv (_DU_RULES), is the rule in the h
        basis over the generator's weight, with integer coefficients."""
        R = models._structconsts_algebra(2)
        alg = dc._RingAlgebra(models._SPECTRAL + R.gsyms, ("z0", "z2"),
                              frozen=False)
        HU, HV = sp.symbols("hdwpu hdwpv")
        weights = {sx.g2: (self.H2, 12), sx.g3: (self.H3, 2),
                   sx.dwpu: (HU, 2), sx.dwpv: (HV, 2)}
        assert {h for h, _ in weights.values()} <= set(alg.syms)
        assert not weights.keys() & set(alg.syms)
        for rules in (sx.DTAU_RULES, *sx._DU_RULES.values()):
            images = alg.derivation(rules)
            assert {alg.gsyms[i] for i in images} == set(rules)
            for i, image in images.items():
                g = alg.gsyms[i]
                want = rules[g] / weights.get(g, (g, 1))[1]
                assert sp.expand(image.as_expr() - want) == 0, g
                assert all(type(c) is int for c in image.values()), g

    @pytest.mark.parametrize("n, scale", [(2, 1), (3, 6), (4, 4)])
    def test_entries_map_back_exactly(self, n, scale):
        sc = models.thm3_extract(n)
        table = sc.to_bracket_table()
        assert table.scale == scale
        R = sc.P_poly[(0, 0)].ring
        for a in sc.indices:
            for b in sc.indices:
                got = {t.orders: R.conv(t.value) / table.scale
                       for t in table.entry(f"z{a}", f"z{b}")}
                assert got == {k: v for k, v in (((1,), sc.P_poly[(a, b)]),
                                                  ((0,), sc.Q_poly[(a, b)]))
                               if v}

    def test_lift_of_a_rational_polynomial(self):
        # 1/2 z1 z2 g2 + 1/3 g3 = 6 h2 z1 z2 + (2/3) h3: lifted with d = 3
        e = z1 * z2 * sx.g2 / 2 + sx.g3 / 3
        alg = dc._RingAlgebra(dc._ring_symbols([e], 0, BASE, frozen=True),
                              BASE, frozen=True)
        c, d = alg.lift(e)
        h2, h3 = alg.gen(self.H2), alg.gen(self.H3)
        assert d == 3 and c == 18 * h2 * alg.gen(z1) * alg.gen(z2) + 2 * h3
        assert sp.expand((c / d).as_expr() - e) == 0
        assert alg.conv(e) == c / 3

    def test_values_leave_in_the_g_basis(self):
        """as_expr, render and the messages that print a value read it in
        the g basis: g2 / 3 is stored as 4 h2 and leaves as g2/3."""
        z0 = sx.jet("z0")
        alg = dc._RingAlgebra(dc._ring_symbols([sx.g2 * z0], 0, ("z0",),
                                               frozen=True), ("z0",), True)
        third = alg.conv(sx.g2 / 3)
        assert dict(third) == dict(4 * alg.gen(self.H2))
        assert third.as_expr() == sx.g2 / 3
        assert sx.render(third) == "g2/3"
        with pytest.raises(ClosureError, match="g2 \\+ z0 is not a monomial"):
            alg.inverse(alg.conv(sx.g2 + z0))
        tbl = dc.build_table(("z1", "z2"), {("z1", "z1"): [(sx.g2 * z2, 1)],
                                            ("z1", "z2"): [],
                                            ("z2", "z2"): []})
        with pytest.raises(StructureError, match="close on the new fields: "
                                                 "g2\\*z2$"):
            dc.change_coordinates(tbl, {"w1": z1}, {"z1": sx.jet("w1")})

    def test_campaign_without_rational_arithmetic(self, n2, ctx, monkeypatch):
        """The n = 2 antisymmetry and Jacobi campaign and its flipped
        control, evaluation included, make no PythonMPQ sum or product."""
        from sympy.external.pythonmpq import PythonMPQ
        table = n2.to_bracket_table()
        jets = TestNumericEvaluation.samples(ctx, table)
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__mul__",
                     "__rmul__", "__truediv__"):
            orig = getattr(PythonMPQ, name)

            def counted(*args, _orig=orig, _name=name):
                calls.append(_name)
                return _orig(*args)
            monkeypatch.setattr(PythonMPQ, name, counted)
        residuals = verify._table_residuals(table, jets)
        bad = verify._flip_one_entry(table, "z0", "z2")
        flipped = verify._table_residuals(bad, jets[:1])
        assert calls == []
        assert max(residuals) == 0.0 and max(flipped) > 1e-3


class TestPackedAgainstSympy:
    """The packed element type against sympy's PolyRing and FracField, a
    reference that shares no code with it: seeded random elements of the
    n = 4 table algebra and of the algebra of the thm3 template (both
    over ZZ in the h basis), read out field by field from their packed
    monomials.  The reference x-derivative is the chain rule over the
    generators, with the tau rules taken from DTAU_RULES by
    substitution."""

    H = {sp.Symbol("h2"): (sx.g2, 12), sp.Symbol("h3"): (sx.g3, 2),
         sp.Symbol("hdwpu"): (sx.dwpu, 2), sp.Symbol("hdwpv"): (sx.dwpv, 2)}

    @pytest.fixture(scope="class", params=["table_n4", "template_n4"])
    def algebras(self, request):
        """(alg, its frozen twin, fields, reference ring, rules)."""
        if request.param == "table_n4":
            table = models.thm3_extract(4).to_bracket_table()
            alg, fields = table.alg, table.fields
        else:
            fields = ("z0", "z2", "z3", "z4")
            alg = dc._RingAlgebra(
                models._SPECTRAL + models._structconsts_algebra(4).gsyms,
                fields, frozen=False)
        frozen = dc._RingAlgebra(alg.gsyms, fields, frozen=True)
        R = sp.ring(alg.syms, sp.QQ)[0]
        subs = {g: w * h for h, (g, w) in self.H.items()}
        rules = {}
        for s in alg.syms:
            g, w = self.H.get(s, (s, 1))
            if g in sx.DTAU_RULES:
                rules[s] = R(sp.expand(sx.DTAU_RULES[g].subs(subs) / w))
        return alg, frozen, fields, R, rules

    @staticmethod
    def to_ref(p, R):
        """p read out of its packed monomials, generator 0 in the most
        significant byte, into R or its fraction field."""
        n = R.ngens

        def poly(terms):
            return R.from_dict({tuple(m.to_bytes(n, "big")): c
                                for m, c in terms})
        num = poly(p.items())
        return num if not p.den else (R.to_field()(num)
                                      / R.to_field()(poly([(p.den, 1)])))

    @staticmethod
    def pool(alg, fields, depth=1):
        """Generators whose first `depth` x-derivatives stay in the
        algebra; a tau leaf's pass through T."""
        out = []
        for s in alg.syms:
            info = sx.jet_info(s, fields) or (
                (sx.MODULAR_FIELD, 0) if s not in (sx.u, sx.v) else None)
            if info is None or sx.jet(info[0], info[1] + depth) in alg.index:
                out.append(s)
        return out

    def random_pair(self, alg, R, fields, rng, depth=1):
        """A random element of alg and the same element of R."""
        gens = self.pool(alg, fields, depth)
        p, r = alg.zero, R.zero
        for _ in range(int(rng.integers(1, 5))):
            c = int(rng.integers(-9, 10)) or 1
            tp, tr = alg.const(c), R(c)
            for _ in range(int(rng.integers(1, 4))):
                s = gens[int(rng.integers(len(gens)))]
                e = int(rng.integers(1, 3))
                tp, tr = tp * alg.gen(s) ** e, tr * R(s) ** e
            p, r = p + tp, r + tr
        assert self.to_ref(p, R) == r
        return p, r

    @staticmethod
    def ref_dx(r, R, fields, rules, frozen):
        out = R.zero
        for s, x in zip(R.symbols, R.gens):
            d = r.diff(x)
            info = sx.jet_info(s, fields)
            if not d or frozen and (info is None
                                    or info[0] == sx.MODULAR_FIELD):
                continue
            if info is not None:
                out += d * R(sx.jet(info[0], info[1] + 1))
            elif s in rules:
                out += d * rules[s] * R(sx.T)
        return out

    @pytest.mark.parametrize("seed", range(3))
    def test_ring_operations(self, algebras, seed):
        alg, _, fields, R, _ = algebras
        rng = np.random.default_rng(seed)
        (a, ra), (b, rb) = (self.random_pair(alg, R, fields, rng)
                            for _ in range(2))
        for got, want in ((a + b, ra + rb), (a - b, ra - rb),
                          (a * b, ra * rb), (-a, -ra), (a ** 3, ra ** 3),
                          (3 * a - b * 2, 3 * ra - 2 * rb), (a - a, R.zero)):
            assert self.to_ref(got, R) == want
        assert (a * b == b * a) and hash(a * b) == hash(b * a)

    @pytest.mark.parametrize("seed", range(3))
    def test_derivatives(self, algebras, seed):
        alg, frozen, fields, R, rules = algebras
        rng = np.random.default_rng(seed)
        a, ra = self.random_pair(alg, R, fields, rng)
        assert self.to_ref(alg.dx(a), R) == self.ref_dx(ra, R, fields, rules,
                                                        False)
        b, rb = self.random_pair(alg, R, fields, rng, depth=2)
        assert self.to_ref(alg.dx(alg.dx(b)), R) == self.ref_dx(
            self.ref_dx(rb, R, fields, rules, False), R, fields, rules,
            False)
        # a again, drawn in the frozen twin from the same seed
        fa, _ = self.random_pair(frozen, R, fields,
                                 np.random.default_rng(seed))
        assert self.to_ref(frozen.dx(fa), R) == self.ref_dx(
            ra, R, fields, rules, True)
        assert self.to_ref(alg.dth(a), R) == sum(
            (ra.diff(R(s)) * rule for s, rule in rules.items()), R.zero)
        assert alg.support(a) == {i for i, x in enumerate(R.gens)
                                  if ra.degree(x) > 0}
        for i in sorted(alg.support(a)):
            assert self.to_ref(alg.diff(a, i), R) == ra.diff(R.gens[i])

    @pytest.mark.parametrize("seed", range(3))
    def test_monomial_fractions(self, algebras, seed):
        alg, _, fields, R, rules = algebras
        rng = np.random.default_rng(seed)
        F = R.to_field()
        (a, ra), (b, rb) = (self.random_pair(alg, R, fields, rng)
                            for _ in range(2))
        gens = self.pool(alg, fields)
        s, t = (gens[int(i)] for i in rng.integers(len(gens), size=2))
        fa = a * alg.inverse(alg.gen(s) ** 2)
        fb = b * alg.inverse(alg.gen(s) * alg.gen(t))
        qa, qb = F(ra) / F(R(s)) ** 2, F(rb) / (F(R(s)) * F(R(t)))
        for got, want in ((fa, qa), (fa + fb, qa + qb), (fa - fb, qa - qb),
                          (fa * fb, qa * qb), (fa * alg.gen(s) ** 2, F(ra))):
            assert F(self.to_ref(got, R)) == want
        num, den = qa.numer, qa.denom
        dnum, dden = (self.ref_dx(q, R, fields, rules, False)
                      for q in (num, den))
        want = F(dnum * den - num * dden) / F(den ** 2)
        assert self.to_ref(alg.dx(fa), R) == want
        i = alg.index[s]
        assert self.to_ref(alg.diff(fa, i), R) == (
            F(num.diff(R.gens[i]) * den - num * den.diff(R.gens[i]))
            / F(den ** 2))
        assert alg.support(fa) == {j for j, x in enumerate(R.gens)
                                  if num.degree(x) > 0 or den.degree(x) > 0}

    @pytest.mark.parametrize("seed", range(3))
    def test_g_basis_round_trip(self, algebras, seed):
        alg, _, fields, R, _ = algebras
        rng = np.random.default_rng(seed)
        gsyms = [alg.gsyms[alg.index[s]] for s in self.pool(alg, fields)]
        e = sum(sp.Rational(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                * sp.Mul(*(gsyms[int(i)] for i in rng.integers(
                    len(gsyms), size=int(rng.integers(1, 4)))))
                for _ in range(4))
        c, d = alg.lift(e)
        assert sp.expand((c / d).as_expr() - e) == 0
        assert sp.expand(alg.conv(e).as_expr() - e) == 0
        # an element of an algebra in another generator order lifts the same
        other = dc._RingAlgebra(alg.gsyms[::-1], fields, frozen=True)
        assert alg.lift(other.conv(e)) == (c, d)
        frac = e / gsyms[0] ** 2 / gsyms[-1]
        c, d = alg.lift(frac)
        assert c.den and sp.cancel((c / d).as_expr() - frac) == 0
        assert alg.lift(other.conv(frac)) == (c, d)


class TestPackingEdges:
    """Typed errors at the edges of the packed representation."""

    @pytest.fixture(scope="class")
    def alg(self):
        return models.thm3_extract(2).to_bracket_table().alg

    def test_exponent_at_the_bound(self, alg):
        assert issubclass(ExponentOverflowError, LoopBracketsError)
        i = alg.index[sx.jet("z0")]
        x = alg.gen(sx.jet("z0"))
        top = x ** 255
        (m, c), = top.items()
        exps = m.to_bytes(len(alg.syms), "big")
        assert c == 1 and exps[i] == 255 and sum(exps) == 255
        assert (x ** 254 * x) == top and alg.support(top) == {i}
        assert sp.expand(top.as_expr() - sx.jet("z0") ** 255) == 0
        assert alg.diff(top, i) == 255 * x ** 254
        for over in (lambda: x ** 256, lambda: top * x,
                     lambda: x ** 128 * alg.gen(sx.jet("z2")) ** 128):
            with pytest.raises(ExponentOverflowError):
                over()
        with pytest.raises(ExponentOverflowError):
            alg.lift(sx.jet("z0") ** 256)

    def test_non_monomial_denominator(self, table):
        with pytest.raises(ClosureError, match="not a monomial"):
            table.alg.lift(z1 / (z1 + z2))
        with pytest.raises(ClosureError, match="not a monomial"):
            dc.build_table(("z1", "z2"), {("z1", "z2"): [(z1 / (z1 + z2), 1)]})
