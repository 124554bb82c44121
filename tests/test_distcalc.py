"""Delta-distribution calculus.

The canonicalization rewrites (orientation flips, factor transport,
delta-pair reduction) are validated against an independent oracle: every
delta is eliminated by its definitional pairing rule
int phi(b) delta^(k)(a-b) db = phi^(k)(a) against fixed polynomial test
functions, the fields are realized as explicit polynomials of x, and the
remaining expression is integrated over [0, 1].  Raw input and canonical
output must integrate to the same rational number."""

import os
import subprocess
import sys

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from loopbrackets import distcalc as dc
from loopbrackets import models, verify
from loopbrackets import symexpr as sx
from loopbrackets.errors import (ClosureError, StructureError,
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


class TestFrozenModular:
    def test_frozen_kills_modular_jets(self):
        tbl = dc.build_table(("z1",), {
            ("z1", "z1"): [(sx.g2 * z1, 1), (sx.g2 * z1x / 2, 0)],
        }, frozen_modular=True)
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
        got = dict((t.orders, t.value.as_expr()) for t in new.entry("w1", "w1"))
        for t in old:
            expect = 4 * t.value.as_expr().subs({z1: sx.jet("w1") / 2,
                                       z1x: sx.jet("w1", 1) / 2})
            assert sp.expand(got[t.orders] - expect) == 0

    def test_elimination_failure_detected(self):
        # a coefficient that genuinely involves the eliminated field
        tbl = dc.build_table(("z1", "z2"), {
            ("z1", "z1"): [(z2, 1)],
            ("z1", "z2"): [],
            ("z2", "z2"): [],
        })
        with pytest.raises(StructureError):
            dc.change_coordinates(
                tbl, {"w1": z1}, {"z1": sx.jet("w1")},
                eliminate=("z2",))


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
                for s, g in zip(samples, row):
                    want = sx.evaluate(t.value.as_expr(), s)
                    assert abs(g - want) <= 1e-12 * max(1.0, abs(want))
                    checked += 1
        assert checked

    def test_evaluate_distpoly(self, ctx):
        R, a, b, c = sp.ring([z1, z1x, sx.g2], sp.QQ)
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
        table = dc.build_table(("z1", "z2"), {
            ("z1", "z2"): [(z1 / z2 * sx.g2, 1), (z1x / z2, 0)]},
            frozen_modular=True)
        assert any(isinstance(t.value, dc.FracElement)
                   for t in table.entry("z1", "z2"))
        self.check_against_expr(table, self.samples(ctx, table))

    def test_unbound_support_generator(self, ctx):
        R, a, b = sp.ring([z1, z1x], sp.QQ)
        dp = dc.DistPoly(terms=(dc.DeltaTerm(a * b, (0,)),))
        vals = sx.sample_jets(ctx, ("z1",), seed=5)
        del vals[z1x]
        with pytest.raises(UnboundSymbolError, match="z1_x"):
            dc.evaluate_distpoly(dp, [vals])

    def test_generators_outside_support_need_no_value(self):
        R, a, b, c = sp.ring([z1, z1x, sx.g2], sp.QQ)
        dp = dc.DistPoly(terms=(dc.DeltaTerm(3 * a ** 2 + c / 2, (0, 1)),
                                dc.DeltaTerm(R(5), (1, 0))))
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
        for name in ("ring", "field"):
            orig = getattr(sp, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                built.append(_name)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(sp, name, counted)
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
                    t.value.as_expr().subs(subs, simultaneous=True))) for t in dp.terms}
                out[(a, b)] = {k: c for k, c in coeffs.items() if c != 0}
        return out

    @pytest.mark.parametrize("frozen", [True, False])
    def test_change_coordinates_matches_subs(self, frozen):
        table = models.prop2_table()
        forward = {"p1": z1 / z2, "w2": z2}
        inverse = {"z1": sx.jet("p1") * sx.jet("w2"), "z2": sx.jet("w2")}
        new = self.check_change(table, forward, inverse, frozen)
        assert frozen or any(sx.T in t.value.as_expr().free_symbols
                             for terms in new.entries.values()
                             for t in terms)

    def test_change_coordinates_rational_inverse(self, table):
        # w1 = z1 z2: the new coefficients are rational in w2
        w1, w2 = sx.jet("w1"), sx.jet("w2")
        new = self.check_change(table, {"w1": z1 * z2, "w2": z2},
                                {"z1": w1 / w2, "z2": w2}, False)
        assert any(sp.denom(sp.together(t.value.as_expr())) != 1
                   for terms in new.entries.values() for t in terms)

    def check_change(self, table, forward, inverse, frozen):
        new = dc.change_coordinates(table, forward, inverse,
                                    frozen_modular=frozen)
        want = self.reference_change(table, forward, inverse, frozen)
        assert set(new.entries) == set(want)
        for key, terms in new.entries.items():
            got = {t.orders: t.value.as_expr() for t in terms}
            assert set(got) == set(want[key]), key
            for orders, c in got.items():
                assert sp.expand(c - want[key][orders]) == 0, (key, orders)
        return new
