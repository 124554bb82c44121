"""Model layer: the two independent routes to the structure constants,
their JSON round trip, the projective descent, the generating-field
realization, the obstruction certificate, and the three-field warm-up."""

import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp
from sympy.printing.str import StrPrinter

from loopbrackets import cli
from loopbrackets import distcalc as dc
from loopbrackets import elliptic
from loopbrackets import models
from loopbrackets import symexpr as sx
from loopbrackets import verify
from loopbrackets.errors import (DivisibilityError, DomainError,
                                 ExponentOverflowError, ExtractionError,
                                 StructureError)
from loopbrackets.symexpr import jet


def template_algebra(n):
    """An algebra like the one thm3_extract builds its template in."""
    R = models._structconsts_algebra(n)
    fields = [models.field_name(a) for a in models.field_indices(n)]
    return dc._RingAlgebra(models._SPECTRAL + R.gsyms, fields, frozen=False)


def _mutated(sc):
    """sc with z0 z2 added to P(0, 0), in its algebra."""
    P = dict(sc.P_poly)
    P[(0, 0)] += P[(0, 0)].ring.conv(jet("z0") * jet("z2"))
    return models.StructConsts(n=sc.n, P=P, Q=sc.Q_poly,
                               generator=sc.generator)


class TestBasics:
    def test_field_indexing(self):
        assert models.field_indices(2) == [0, 2]
        assert models.field_indices(4) == [0, 2, 3, 4]
        assert models.field_name(0) == "z0"
        assert models.field_name(3) == "z3"

    def test_spectral_basis(self):
        alg = template_algebra(4)
        x = alg.gen
        assert models.spectral_basis(alg, 0, "u") == 1
        assert models.spectral_basis(alg, 2, "u") == x(sx.wpu)
        assert models.spectral_basis(alg, 3, "v") * 2 + alg.conv(sx.dwpv) == 0
        assert models.spectral_basis(alg, 4, "u") - x(sx.wpu) ** 2 == 0
        for a in (1, -2):
            with pytest.raises(DomainError):
                models.spectral_basis(alg, a, "u")

    def test_two_point_weight_symbolic(self, ctx, rng):
        q = models.q_weight_sym(template_algebra(2), "u", "v")
        vals = sx.sample_jets(ctx, (), seed=11)
        vals[sx.dinv] = 1 / (vals[sx.wpv] - vals[sx.wpu])
        got = dc.evaluate_distpoly(dc.DistPoly((dc.DeltaTerm(q, (0,)),)),
                                   [vals])[0, 0]
        want = elliptic.q_weight(ctx, vals[sx.u], vals[sx.v],
                                 method="rational")
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


class TestExtractionMatchesClosedForm:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_match(self, n):
        a = models.thm3_extract(n)
        b = models.appendix_table(n)
        assert models.match_structconsts(a, b) == []

    def test_mismatch_detected(self):
        a = models.thm3_extract(2)
        b = models.appendix_table(2)
        out = models.match_structconsts(a, _mutated(b))
        assert out and out[0].startswith("P(0, 0)")

    def test_bad_n(self):
        with pytest.raises(DomainError):
            models.thm3_extract(1)
        with pytest.raises(DomainError):
            models.appendix_table(1)


class TestNoExprViews:
    def test_p_q_views_unread(self, monkeypatch, capsys):
        """The CLI, the suites and the matcher read the ring entries;
        the P and Q views are left to the benchmark harness."""
        reads = []
        for name in ("P", "Q"):
            view = getattr(models.StructConsts, name).func

            def counted(sc, _view=view, _name=name):
                reads.append(_name)
                return _view(sc)
            monkeypatch.setattr(models.StructConsts, name, property(counted))
        for source in ("extract", "appendix"):
            assert cli.main(["table", "--n", "3", "--source", source]) == 0
        assert cli.main(["descend", "--n", "3", "--denominator", "z0"]) == 0
        assert not verify.run_poisson_suite(n=2, corrupt=True).passed
        verify.run_prop2_suite()
        b = models.appendix_table(2)
        assert models.match_structconsts(b, _mutated(b))
        assert reads == []


class TestDocumentRoundTrip:
    def test_schema_keys(self):
        doc = models.structconsts_to_document(models.appendix_table(2))
        assert set(doc) == {"n", "lambda", "fields", "P", "Q",
                            "coeff_ring", "generator"}
        assert doc["fields"][0] == "tau"
        assert doc["lambda"] == "1/n"

    def test_generators_differ_only_in_provenance(self):
        d1 = models.structconsts_to_document(models.thm3_extract(2))
        d2 = models.structconsts_to_document(models.appendix_table(2))
        d1.pop("generator"), d2.pop("generator")
        assert d1 == d2


class TestDerivationErrors:
    """Negative controls for the checks of both derivations: each input
    breaks exactly one of them."""

    @staticmethod
    def template(*syms):
        alg = template_algebra(2)
        return [alg.gen(s) for s in syms]

    def test_clearing_factor_does_not_divide(self):
        dinv, = self.template(sx.dinv)
        with pytest.raises(DivisibilityError):
            models._spectral_clear(dinv)

    def test_clearing_factor_cancels(self):
        dinv, wpu, wpv = self.template(sx.dinv, sx.wpu, sx.wpv)
        assert models._spectral_clear((wpv - wpu) * dinv * wpu) == (wpu, 1)

    @pytest.mark.parametrize("leaf", [sx.u, sx.zwu], ids=str)
    def test_spectral_leaf_survives(self, leaf):
        x, wpu = self.template(leaf, sx.wpu)
        with pytest.raises(ExtractionError, match=f"leaf {leaf} survives"):
            models._spectral_clear(x * wpu)

    @staticmethod
    def split(expr, n):
        return models._coeff_split(template_algebra(n).conv(expr), n,
                                   models._structconsts_algebra(n))

    def test_coeff_split_reads_pole_orders(self):
        got = self.split(sx.dwpu * sx.wpv * jet("z0") ** 2, 3)
        assert got[(3, 2)].as_expr() == -2 * jet("z0") ** 2
        assert sum(1 for p in got.values() if p) == 1

    def test_stray_pole_order_in_coeff_split(self):
        with pytest.raises(ExtractionError, match="pole orders"):
            self.split(sx.wpu ** 2 * jet("z0") ** 2, 2)

    def test_unreduced_odd_leaf(self):
        with pytest.raises(ExtractionError, match="odd-leaf"):
            self.split(sx.dwpu ** 2 * jet("z0") ** 2, 3)

    def test_stray_generator_in_entry(self):
        with pytest.raises(ExtractionError, match="u survives"):
            self.split(sx.u * jet("z0") ** 2, 2)

    def test_stray_pole_order_in_harvest(self):
        alg = dc._RingAlgebra([sx.u, sx.v, jet("z0")], ("z0",), True)
        u, v, z0 = (alg.gen(s) for s in alg.syms)
        R = models._structconsts_algebra(2)
        target = {(a, b): R.zero for a in (0, 2) for b in (0, 2)}
        models._harvest(target, (0, 0), u * z0 ** 2, 2, R)
        assert target[(2, 0)].as_expr() == jet("z0") ** 2
        with pytest.raises(ExtractionError, match="out of range"):
            models._harvest(target, (0, 0), u ** 2 * z0 ** 2, 2, R)

    @staticmethod
    def closed_form_algebra():
        """A packed algebra in u, v, Dinv = 1/(u - v) and T."""
        alg = dc._RingAlgebra([sx.u, sx.v, models._DINV, sx.T], (), False,
                              constants=(models._DINV,))
        return (alg, *(alg.gen(s) for s in alg.syms))

    def test_closed_form_divides_out_u_minus_v(self):
        """Poles of orders 1 and 2 in u - v and a pole-free term, divided
        out together."""
        alg, u, v, Dinv, T = self.closed_form_algebra()
        got = models._clear_pole(
            (u - v) ** 2 * T * Dinv ** 2 + (u ** 2 - v ** 2) * Dinv - 2 * T,
            alg.index[models._DINV], sx.u, v)
        assert got == u + v - T

    def test_closed_form_not_divisible(self):
        alg, u, v, Dinv, T = self.closed_form_algebra()
        with pytest.raises(DivisibilityError):
            models._clear_pole(u * Dinv, alg.index[models._DINV], sx.u, v)

    def test_divisibility_error_in_the_g_basis(self):
        """The clearing factor u - g2/3, stored as u - 4 h2, is printed in
        the g basis."""
        alg = dc._RingAlgebra([sx.u, sx.g1, sx.g2, sx.g3, models._DINV], (),
                              True, constants=(models._DINV,))
        third = alg.conv(sx.g2 / 3)
        with pytest.raises(DivisibilityError,
                           match=r"clearing factor \(-g2/3 \+ u\)\^1 "):
            models._clear_pole(alg.gen(models._DINV), alg.index[models._DINV],
                               sx.u, third)

    X, Y, DINV = sp.symbols("x y dinv")

    @classmethod
    def pole_case(cls, seed):
        """A random element p of a packed algebra in x, y and dinv = 1/D,
        D = x - y^2 + 1, of dinv-degree K whose value at dinv = 1/D is a
        polynomial: its dinv^K coefficient absorbs what the random lower
        ones leave over.  Returns p and K."""
        rng = np.random.default_rng(seed)
        syms = (cls.X, cls.Y, cls.DINV)
        alg = dc._RingAlgebra(syms, (), False, constants=syms)
        x, y, dinv = (alg.gen(s) for s in syms)
        D = x - y ** 2 + 1

        def poly():
            return sum((int(c) * x ** i * y ** j for (i, j), c in
                        np.ndenumerate(rng.integers(-4, 5, (3, 3)))),
                       alg.zero)

        K = int(rng.integers(0, 4))
        cs = [poly() for _ in range(K)]
        cs.append(poly() * D ** K - sum((c * D ** (K - k)
                                         for k, c in enumerate(cs)),
                                        alg.zero))
        return sum((c * dinv ** k for k, c in enumerate(cs)), alg.zero), K

    @classmethod
    def clear(cls, p):
        """_clear_pole of p at x = y^2 - 1."""
        alg = p.ring
        y = alg.gen(cls.Y)
        return models._clear_pole(p, alg.index[cls.DINV], cls.X, y ** 2 - 1)

    @staticmethod
    def field_value(p):
        """The packed element p in the fraction field Q(x, y), with dinv
        set to 1/D."""
        F, x, y = sp.field("x, y", sp.QQ)
        return sum((sp.QQ(num, den) * x ** i * y ** j * (x - y ** 2 + 1) ** -k
                    for (i, j, k), num, den in p.ring.g_terms(p)), F.zero)

    @pytest.mark.parametrize("seed", range(8))
    def test_clear_pole_matches_fraction_field(self, seed):
        """_clear_pole equals the independent fraction-field value with
        dinv set to 1/D, whatever the pole order."""
        p, K = self.pole_case(seed)
        q = self.clear(p)
        assert p.ring.index[self.DINV] not in p.ring.support(q)
        assert self.field_value(q) == self.field_value(p)

    @pytest.mark.parametrize("seed", range(4))
    def test_clear_pole_not_divisible(self, seed):
        """The same polynomials plus dinv^(K+1): the field value has a
        pole at D = 0, and _clear_pole refuses it."""
        p, K = self.pole_case(seed)
        bad = p + p.ring.gen(self.DINV) ** (K + 1)
        assert self.field_value(bad).denom != 1
        with pytest.raises(DivisibilityError):
            self.clear(bad)

    @pytest.mark.parametrize("seed", range(8))
    def test_clear_pole_flipped_divisor_detected(self, seed):
        """Negative control: clearing with the divisor -D, written as p at
        dinv -> -dinv cleared by D, either leaves a remainder or misses
        the fraction-field value at every pole order K >= 1 (and changes
        nothing at K = 0)."""
        p, K = self.pole_case(seed)
        alg = p.ring
        dinv = alg.gen(self.DINV)
        flipped = sum((c * (-dinv) ** k for (k,), c in alg.split(
            p, [alg.index[self.DINV]]).items()), alg.zero)
        try:
            fired = self.field_value(self.clear(flipped)) != \
                self.field_value(p)
        except DivisibilityError:
            fired = True
        assert fired == (K >= 1)

    @pytest.mark.parametrize("name, entry, message", [
        ("P", jet("z0") ** 3, "P[0,2] not homogeneous quadratic"),
        ("P", sx.T * jet("z0") ** 2, "P[0,2] contains jets or T"),
        ("Q", jet("z0") ** 2 * jet("z2", 1),
         "Q[0,2] has a monomial outside the z z' / T z z shape: "
         "(2, 0, 0, 1, 0)"),
        ("Q", sx.g1 * sx.T * jet("z2") * jet("z0", 1),
         "Q[0,2] has a monomial outside the z z' / T z z shape: "
         "(0, 1, 1, 0, 1)")], ids=["P-degree", "P-T", "Q-jet", "Q-T"])
    def test_homogeneity_messages(self, name, entry, message):
        """Each shape the structure constants must have, broken beside a
        valid term in the entry (0, 2) of an n = 2 table, is refused with
        its exponents in z0, z2, z0_x, z2_x, T."""
        R = models._structconsts_algebra(2)
        valid = {"P": jet("z0") * jet("z2"), "Q": jet("z0") * jet("z2", 1)}
        entries = {"P": {}, "Q": {}}
        entries[name][(0, 2)] = R.conv(valid[name] + entry)
        with pytest.raises(ExtractionError, match=f"^{re.escape(message)}$"):
            models._check_homogeneity(models.StructConsts(2, **entries))

    def test_constructor_takes_ring_elements_only(self):
        R, z0 = sp.ring([jet("z0")], sp.QQ)
        for e in (jet("z0") ** 2, z0 ** 2):
            with pytest.raises(TypeError, match="not a packed element"):
                models.StructConsts(n=2, P={(0, 0): e}, Q={})


class TestPackedSpectralClear:
    """_spectral_clear on packed template elements against the value in
    sympy's fraction field, with the odd-leaf reduction written out in
    the g-basis ring and dinv set to 1/(wpv - wpu)."""

    @staticmethod
    def g_ring(alg, p, scale=1):
        """The value p / scale in sympy's ring over the g basis."""
        G = sp.ring(alg.gsyms, sp.QQ)[0]
        return G.from_dict({tuple(m): sp.QQ(num, den)
                            for m, num, den in alg.g_terms(p, scale)})

    LEAVES = (sx.wpu, sx.wpv, sx.dwpu, sx.dwpv, sx.g1, sx.g2, sx.g3, sx.T,
              jet("z0"), jet("z2"), jet("z3", 1))

    @classmethod
    def case(cls, seed):
        """A random n=3 template element p of pole order K (1..3) in dinv
        whose value at dinv = 1/(wpv - wpu) is a polynomial: its dinv^K
        coefficient absorbs what the random lower ones leave over.
        Returns the algebra, p and K."""
        rng = np.random.default_rng(seed)
        alg = template_algebra(3)
        x = alg.conv
        D = x(sx.wpv) - x(sx.wpu)

        def poly():
            out = alg.zero
            for _ in range(6):
                m = alg.const(sp.QQ(int(rng.integers(-5, 6)),
                                    int(rng.integers(1, 4))))
                for i in rng.integers(0, len(cls.LEAVES), rng.integers(0, 4)):
                    m = m * x(cls.LEAVES[i])
                out = out + m
            return out

        K = int(rng.integers(1, 4))
        cs = [poly() for _ in range(K)]
        cs.append(poly() * D ** K - sum((c * D ** (K - k)
                                         for k, c in enumerate(cs)), alg.zero))
        return alg, sum((c * x(sx.dinv) ** k for k, c in enumerate(cs)),
                        alg.zero), K

    @staticmethod
    def reference(alg, p):
        """dwp^2 = 4 wp^3 - g2 wp - g3 in the g-basis ring by
        coefficients, then the value in the fraction field of that ring
        at dinv = 1/(wpv - wpu)."""
        q = TestPackedSpectralClear.g_ring(alg, p)
        G = q.ring
        F = G.to_field()
        y = dict(zip(G.symbols, G.gens))
        for w, dw in ((sx.wpu, sx.dwpu), (sx.wpv, sx.dwpv)):
            cubic = 4 * y[w] ** 3 - y[sx.g2] * y[w] - y[sx.g3]
            q = sum((q.coeff_wrt(y[dw], k) * y[dw] ** (k % 2)
                     * cubic ** (k // 2)
                     for k in range(max(q.degree(y[dw]), 0) + 1)), G.zero)
        D = F(y[sx.wpv] - y[sx.wpu])
        return sum((F(q.coeff_wrt(y[sx.dinv], k)) / D ** k
                    for k in range(max(q.degree(y[sx.dinv]), 0) + 1)),
                   F.zero)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sympy(self, seed):
        alg, p, K = self.case(seed)
        assert max(alg.split(p, [alg.index[sx.dinv]])) == (K,)
        out, scale = models._spectral_clear(p)
        assert out.deg >= alg._degree(out)
        q = self.g_ring(alg, out, scale)
        assert q.ring.to_field()(q) == self.reference(alg, p)
        assert alg.index[sx.dinv] not in alg.support(out)

    @pytest.mark.parametrize("seed", range(4))
    def test_not_divisible(self, seed):
        """The same elements plus dinv^(K+1): the field value has a pole
        at wpv = wpu, and _spectral_clear refuses them."""
        alg, p, K = self.case(seed)
        bad = p + alg.gen(sx.dinv) ** (K + 1)
        assert self.reference(alg, bad).denom != 1
        with pytest.raises(DivisibilityError):
            models._spectral_clear(bad)

    def test_degree_bound_overflows(self):
        """wpu^250 times (wpv - wpu)^6 passes the packing bound: the
        Horner step raises instead of carrying into a neighbouring
        exponent."""
        alg = template_algebra(2)
        x = alg.gen
        with pytest.raises(ExponentOverflowError):
            models._spectral_clear(x(sx.wpu) ** 250 + x(sx.dinv) ** 6)


class TestMatchStructconsts:
    def test_missing_and_extra_rows(self):
        """One P entry moved to a key outside the field set: each side's
        missing key is a mismatch, whichever table comes first."""
        sc = models.appendix_table(2)
        P = dict(sc.P_poly)
        P[(2, 3)] = P.pop((0, 2))
        back = models.StructConsts(n=2, P=P, Q=sc.Q_poly)
        assert models.match_structconsts(sc, back) == [
            "P(0, 2): missing from the second table",
            "P(2, 3): missing from the first table"]
        assert models.match_structconsts(back, sc) == [
            "P(0, 2): missing from the first table",
            "P(2, 3): missing from the second table"]


def test_documents_never_reach_the_sympy_printer(monkeypatch):
    """Documents print every coefficient and monomial from its terms."""
    def refuse(self, expr):
        raise AssertionError(f"sympy printer reached on {type(expr)}")
    monkeypatch.setattr(StrPrinter, "doprint", refuse)
    doc = models.structconsts_to_document(models.thm3_extract(3))
    assert doc["Q"][0]["terms"]


class TestDerivationRings:
    """Both derivations compute in sparse polynomial rings: no sympy
    cancel, no Poly built from an Expr, no x-, tau- or spectral
    derivative on an Expr, and a fixed number of ring constructions per
    route (documents and matching build none)."""

    DERIVATIONS = ("total_x_derivative", "d_dtau_scaled", "d_dz_spectral")

    @pytest.mark.parametrize("route, rings", [("thm3_extract", (0, 0)),
                                              ("appendix_table", (0, 0))])
    def test_calls(self, route, rings, monkeypatch):
        calls = []
        for mod, name in ([(sp, n) for n in ("ring", "field", "cancel")]
                          + [(sx, n) for n in self.DERIVATIONS]):
            orig = getattr(mod, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
        from_expr = sp.Poly._from_expr.__func__

        def poly_from_expr(cls, rep, opt):
            calls.append("Poly")
            return from_expr(cls, rep, opt)
        monkeypatch.setattr(sp.Poly, "_from_expr",
                            classmethod(poly_from_expr))
        sc = getattr(models, route)(3)
        models.structconsts_to_document(sc)
        models.match_structconsts(sc, sc)
        assert calls.count("cancel") == 0
        assert calls.count("Poly") == 0
        assert [calls.count(name) for name in self.DERIVATIONS] == [0, 0, 0]
        assert (calls.count("ring"), calls.count("field")) == rings


class TestIntegerTemplate:
    """The thm3 template computes over ZZ in the h basis, hdwp = dwp/2
    included: rational arithmetic runs only where the entries leave for
    the g-basis ring."""

    def test_rational_constructions_pinned(self, monkeypatch):
        """After a warm-up call, thm3_extract(6) makes 903 PythonMPQ
        constructions: 37,788 with the template kept over QQ in the g
        basis, 4,489 with the integral template still dividing its
        cleared elements by 1 and by 2^K, 3,063 with the delta step
        reading P back from the g-basis ring, 1,325 before Expr input
        was walked straight into packed elements."""
        from sympy.external.pythonmpq import PythonMPQ
        models.thm3_extract(6)
        new = PythonMPQ.__dict__["_new"].__func__
        calls = []

        def counted(cls, *args):
            calls.append(None)
            return new(cls, *args)
        monkeypatch.setattr(PythonMPQ, "_new", classmethod(counted))
        models.thm3_extract(6)
        assert 0 < len(calls) <= 903

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tau_chain_rule_on_u_leaves_detected(self, n, monkeypatch):
        """Negative control: the delta step's d/dth taken on the leaves at
        u instead of those at v makes the extraction raise or miss the
        closed forms."""
        monkeypatch.setattr(models, "_DTH_V", {
            s: sx.DTAU_RULES[s] for s in (sx.wpu, sx.dwpu)})
        try:
            fired = bool(models.match_structconsts(
                models.thm3_extract(n), models.appendix_table(n)))
        except (DivisibilityError, ExtractionError):
            fired = True
        assert fired

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_wrong_odd_leaf_rewrite_detected(self, n, monkeypatch):
        """Negative control: 2 hdwp^2 rewritten with the sign of g3 (so
        of h3) flipped makes the extraction raise or miss the closed
        forms."""
        wrong = {var: (w, h, rule.subs(sx.g3, -sx.g3))
                 for var, (w, h, rule) in models._WP.items()}
        monkeypatch.setattr(models, "_WP", wrong)
        try:
            fired = bool(models.match_structconsts(
                models.thm3_extract(n), models.appendix_table(n)))
        except (DivisibilityError, ExtractionError):
            fired = True
        assert fired


class TestBracketTables:
    def test_modular_row(self):
        tb = models.thm3_extract(2).to_bracket_table()
        for f in ("z0", "z2"):
            row = tb.entry("th", f)
            assert [(t.value.as_expr(), t.orders) for t in row] == [
                (jet(f), (1,)), (jet(f, 1), (0,))]
        assert tb.entry("th", "th") == ()

    def test_modular_centrality(self):
        tb = models.thm3_extract(2).to_bracket_table()
        dp = dc.bracket_of_functions(tb, jet("th"), jet("z0") / jet("z2"))
        assert dp.is_zero()

    def test_explicit_two_field_table_is_poisson(self):
        tb = models.prop2_table()
        for a in tb.fields:
            for b in tb.fields:
                assert dc.antisymmetry_defect(tb, a, b).is_zero()
        for tr in dc.jacobi_triples(tb.fields):
            assert dc.jacobi_defect(tb, *tr).is_zero()


def assert_frozen(table):
    """The table's modular parameter is a constant: every tau-dependent
    leaf of its algebra has zero x-derivative."""
    alg = table.alg
    leaves = [s for s in alg.gsyms if s in sx.DTAU_RULES]
    assert leaves and not any(alg.dx(alg.conv(s)) for s in leaves)


class TestAlgebraConstructions:
    """One coefficient algebra per table: a coordinate change builds only
    its new table's, which carries the substitution too."""

    @pytest.fixture
    def built(self, monkeypatch):
        out = []
        init = dc._RingAlgebra.__init__

        def counted(alg, *args, **kwargs):
            out.append(alg)
            init(alg, *args, **kwargs)
        monkeypatch.setattr(dc._RingAlgebra, "__init__", counted)
        return out

    @staticmethod
    def counts(built):
        """Algebras built by one descent of the n = 4 table and by the
        n = 4 Poisson suite."""
        table = models.thm3_extract(4).to_bracket_table()
        built.clear()
        models.lemma1_descend(table, "z0")
        descent = len(built)
        built.clear()
        assert verify.run_poisson_suite(n=4).passed
        return descent, len(built)

    def test_pinned(self, built):
        assert self.counts(built) == (1, 7)

    def test_copy_into_a_second_algebra_detected(self, built, monkeypatch):
        change = dc.change_coordinates

        def copied(*args, **kwargs):
            new = change(*args, **kwargs)
            alg = dc._RingAlgebra(new.alg.gsyms, None, True,
                                  new.alg.constants)
            entries = {key: tuple(dc.DeltaTerm(alg._new(
                dict(t.value), t.value.deg, t.value.den), t.orders)
                for t in terms) for key, terms in new.entries.items()}
            return dataclasses.replace(new, entries=entries, alg=alg)
        monkeypatch.setattr(dc, "change_coordinates", copied)
        assert self.counts(built) == (2, 9)


class TestDescent:
    def test_cubic_chart(self):
        red = models.lemma1_descend(models.prop2_table(), "z2")
        assert red.fields == ("p1",)
        assert_frozen(red)
        with pytest.raises(AssertionError):
            assert_frozen(models.prop2_table())
        p, px = jet("p1"), jet("p1", 1)
        G = -(4 * p ** 3 - sx.g2 * p - sx.g3) / 2
        got = {t.orders: t.value.as_expr() / red.scale
               for t in red.entry("p1", "p1")}
        assert sp.expand(got[(1,)] - G) == 0
        dcoeff = got[(0,)]
        assert sp.expand(dcoeff - sp.diff(G, p) / 2 * px) == 0

    def test_descended_table_is_poisson(self):
        red = models.lemma1_descend(models.prop2_table(), "z2")
        for tr in dc.jacobi_triples(red.fields):
            assert dc.jacobi_defect(red, *tr).is_zero()

    def test_extracted_descent_two_charts(self):
        tb = models.thm3_extract(3).to_bracket_table()
        for denom in ("z0", "z3"):
            red = models.lemma1_descend(tb, denom)
            assert_frozen(red)
            for tr in dc.jacobi_triples(red.fields):
                assert dc.jacobi_defect(red, *tr).is_zero()

    def test_unknown_denominator(self):
        with pytest.raises(Exception):
            models.lemma1_descend(models.prop2_table(), "z9")

    def test_modular_denominator_refused(self):
        with pytest.raises(StructureError, match="modular field th"):
            models.lemma1_descend(models.prop2_table(), "th")


class TestIdentification:
    def test_two_field_solution_family(self):
        sc = models.thm3_extract(2)
        sols = models.linear_identifications(sc, models.prop2_table())
        m11, m12, m21, m22 = sp.symbols("m11 m12 m21 m22")
        assert any(s.get(m12) == 0 and s.get(m21) == 0
                   and s.get(m22) == -m11 for s in sols)

    def test_flipped_target_has_no_identification(self):
        bad = verify._flip_one_entry(models.prop2_table(), "z1", "z2")
        assert models.linear_identifications(models.thm3_extract(2),
                                             bad) == []

    def test_only_for_two_fields(self):
        with pytest.raises(DomainError):
            models.linear_identifications(models.thm3_extract(3),
                                          models.prop2_table())


class TestGeneratingFieldRealization:
    def _realization(self, ctx, n, seed):
        rng = np.random.default_rng(seed)

        def rc(scale):
            return complex(rng.normal(scale=scale), rng.normal(scale=scale))
        t = [0.07 + 0.11j + rc(0.02) for _ in range(n - 1)]
        f = rc(1.0) + 2.0
        jets = {f"t{c+1}": rc(0.1) for c in range(n - 1)}
        jets["tau"] = rc(0.1)
        jets["f"] = rc(0.1)
        return models.thm2_realization(ctx, n, t, f, jets)

    @pytest.mark.parametrize("n", [2, 3])
    def test_bracket_identity(self, ctx, n):
        real = self._realization(ctx, n, seed=21)
        rng = np.random.default_rng(5)
        from conftest import random_cell_point
        up = random_cell_point(rng, ctx.tau)
        vp = random_cell_point(rng, ctx.tau)
        r = models.thm2_bracket_residual(ctx, n, real, up, vp)
        assert r < 1e-8

    def test_wrong_coupling_detected(self, ctx):
        real = self._realization(ctx, 2, seed=22)
        rng = np.random.default_rng(6)
        from conftest import random_cell_point
        up = random_cell_point(rng, ctx.tau)
        vp = random_cell_point(rng, ctx.tau)
        r = models.thm2_bracket_residual(ctx, 2, real, up, vp, lam=0.75)
        assert r > 1e-3

    def test_modular_row(self, ctx):
        real = self._realization(ctx, 2, seed=23)
        rng = np.random.default_rng(7)
        from conftest import random_cell_point
        up = random_cell_point(rng, ctx.tau)
        assert models.thm2_modular_row_residual(ctx, real, up) < 1e-8

    def test_one_sigma_per_argument(self, ctx, monkeypatch):
        """One bracket residual evaluates sigma once at each of the 2(n+1)
        arguments z + S, z - t_c, z of its two spectral points."""
        calls = []
        sigma = elliptic.sigma

        def counted(c, z):
            calls.append(z)
            return sigma(c, z)
        monkeypatch.setattr(elliptic, "sigma", counted)
        real = self._realization(ctx, 3, seed=21)
        models.thm2_bracket_residual(ctx, 3, real, 0.21 + 0.17j,
                                     -0.26 + 0.2j)
        assert len(calls) == len(set(calls)) == 2 * (3 + 1)

    def test_one_series_call_per_argument(self, ctx, monkeypatch):
        """One `at(z)` at n = 3 evaluates each of wp, wp_z, zeta and sigma
        once at each of its 4 distinct arguments z + S, z - t_1, z - t_2
        and z; the tau-derivatives come from those values."""
        calls = {name: [] for name in ("wp", "wp_z", "zeta", "sigma")}
        for name, log in calls.items():
            def counted(c, z, fn=getattr(elliptic, name), log=log):
                log.append(z)
                return fn(c, z)
            monkeypatch.setattr(elliptic, name, counted)
        real = self._realization(ctx, 3, seed=21)
        real.at(0.21 + 0.17j)
        for name, log in calls.items():
            assert len(log) == len(set(log)) == 4, name

    def test_series_calls_per_trial(self, ctx, monkeypatch):
        """One n = 3 Theorem 2 trial (bracket residual, modular row and the
        wrong-coupling control on one realization) evaluates `at` once per
        spectral point (32 series calls) and `pair` once per (up, vp): wp,
        wp_z and zeta at up - vp and zeta at vp - up.  That is 36 calls
        for 36 distinct function-argument pairs (102 when every residual
        called `at` afresh)."""
        calls = []
        for name in ("wp", "wp_z", "zeta", "sigma"):
            def counted(c, z, fn=getattr(elliptic, name), name=name):
                calls.append((name, z))
                return fn(c, z)
            monkeypatch.setattr(elliptic, name, counted)
        real = self._realization(ctx, 3, seed=21)
        up, vp = 0.21 + 0.17j, -0.26 + 0.2j
        models.thm2_bracket_residual(ctx, 3, real, up, vp)
        models.thm2_modular_row_residual(ctx, real, up)
        models.thm2_bracket_residual(ctx, 3, real, up, vp, lam=1 / 3 + 0.25)
        assert (len(calls), len(set(calls))) == (36, 36)

    def test_mismatched_arguments(self, ctx):
        """The residuals refuse a field count or a context other than the
        realization's own, instead of reading another table or mixing
        two lattices."""
        up, vp = 0.21 + 0.17j, -0.26 + 0.2j
        real = self._realization(ctx, 2, seed=21)
        for n in (3, 1):
            with pytest.raises(DomainError, match="built for n = 2"):
                models.thm2_bracket_residual(ctx, n, real, up, vp)
        real3 = self._realization(ctx, 3, seed=21)
        with pytest.raises(DomainError, match="built for n = 3"):
            models.thm2_bracket_residual(ctx, 2, real3, up, vp)
        other = elliptic.make_context(ctx.tau + 0.1)
        with pytest.raises(DomainError, match="another elliptic context"):
            models.thm2_bracket_residual(other, 2, real, up, vp)
        with pytest.raises(DomainError, match="another elliptic context"):
            models.thm2_modular_row_residual(other, real, up)


@pytest.fixture(scope="module")
def nogo_system():
    return models.prop1_system(2.0)


def _points(m, seed, count=3):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=m) + 1j * rng.normal(size=m)
            for _ in range(count)]


def _difference_error(f, jac, x, h=1e-6):
    """Largest deviation of jac(x) from central differences of f along the
    real coordinate directions, relative to max(1, |J|)."""
    J = jac(x)
    fd = np.empty_like(J)
    for k in range(len(x)):
        e = np.zeros(len(x))
        e[k] = h
        fd[:, k] = (f(x + e) - f(x - e)) / (2 * h)
    return np.max(np.abs(J - fd)) / max(1.0, np.max(np.abs(J)))


def _specialised_equations(point, s):
    """The unnormalised no-go equations with the unknowns set to `point`
    (exact rationals), derived on the table of those values by the Expr
    route: the antisymmetry relations, the matching of the descent
    through p = z1/z2 against G = p(p-1)(p-s) and G'/2 p', and the
    Jacobi coefficients at each monomial in the z jets."""
    qsym, rsym, unknowns = models._nogo_unknowns()
    val = dict(zip(unknowns, point))
    q = {k: val[v] for k, v in qsym.items()}
    r = {k: val[v] for k, v in rsym.items()}
    out = [q[(1, 2, c, d)] - q[(2, 1, c, d)] for c, d in ((1, 1), (1, 2),
                                                          (2, 2))]
    out += [r[(a, b, c, d)] + r[(b, a, c, d)] - 2 * q[(a, b, c, d)]
            for a, b in ((1, 1), (1, 2), (2, 2)) for c in (1, 2)
            for d in (1, 2)]
    table = models._nogo_tables(q, r)
    p, pp, zr = sp.symbols("p pp zr")
    G = p * (p - 1) * (p - s)
    dp = dc.bracket_of_functions(table, jet("z1") / jet("z2"),
                                 jet("z1") / jet("z2"))
    chart = {jet("z1"): p, jet("z1", 1): pp + p * zr, jet("z2"): 1,
             jet("z2", 1): zr}
    got = {t.orders: t.value.as_expr() / dp.scale for t in dp.terms}
    for order, target in (((1,), G), ((0,), sp.diff(G, p) * pp / 2)):
        diff = sp.expand(got[order].subs(chart) - target)
        out += sp.Poly(diff, p, pp, zr).coeffs()
    zjets = [jet(f, k) for k in range(4) for f in ("z1", "z2")]
    for tri in dc.jacobi_triples(table.fields):
        jd = dc.jacobi_defect(table, *tri)
        for term in jd.terms:
            out += sp.Poly(term.value.as_expr() / jd.scale,
                           *zjets).coeffs()
    return np.array([complex(v) for v in out])


class TestNoGoTensors:
    def test_residual_matches_equations(self, nogo_system):
        """The tensor form at a rational point, times each row's scale,
        against the equations derived exactly on the table of that point's
        values."""
        S = nogo_system
        rng = np.random.default_rng(3)
        point = [sp.Rational(int(a), int(b)) for a, b in
                 zip(rng.integers(-9, 10, 28), rng.integers(1, 6, 28))]
        want = _specialised_equations(point, 2)
        assert len(want) == len(S.c)
        got = S.residual_vector(np.array(point, dtype=float) + 0j) * S.scales
        assert np.max(np.abs(got - want)) < 1e-12 * max(
            1.0, np.max(np.abs(want)))

    def test_no_expr_round_trip(self, monkeypatch):
        """The system and the self-test are read from ring elements: no
        Poly built from an Expr, no DeltaTerm.coeff view."""
        calls = []
        from_expr = sp.Poly._from_expr.__func__

        def poly_from_expr(cls, rep, opt):
            calls.append("Poly")
            return from_expr(cls, rep, opt)
        monkeypatch.setattr(sp.Poly, "_from_expr",
                            classmethod(poly_from_expr))
        assert not hasattr(dc.DeltaTerm, "coeff")
        models.prop1_system(2.0)
        models.prop1_feasible_selftest(seed=0)
        assert calls == []

    def test_quadratic_part_is_sparse(self, nogo_system):
        rows, i, j, vals = nogo_system.quad
        assert len(rows) == len(i) == len(j) == len(vals) > 0
        assert np.all(i <= j) and np.all(vals != 0)
        assert len(vals) < 0.05 * len(nogo_system.c) * 28 ** 2

    def test_jacobian_matches_differences(self, nogo_system):
        S = nogo_system
        for x in _points(len(S.unknowns), seed=4):
            assert _difference_error(S.residual_vector, S.jacobian, x) < 1e-6

    def test_real_block_jacobian(self, nogo_system):
        resid, jac = models._real_split(nogo_system)
        rng = np.random.default_rng(5)
        for _ in range(3):
            xreal = rng.normal(size=2 * len(nogo_system.unknowns))
            assert _difference_error(resid, jac, xreal) < 1e-6

    def test_wrong_quadratic_entry_detected(self, nogo_system):
        """Negative control: a Jacobian built from one wrong B entry fails
        the difference check against the true residual."""
        rows, i, j, vals = nogo_system.quad
        bad_vals = vals.copy()
        bad_vals[len(vals) // 2] += 0.5
        bad = dataclasses.replace(nogo_system,
                                  quad=(rows, i, j, bad_vals))
        x = _points(len(nogo_system.unknowns), seed=6, count=1)[0]
        assert _difference_error(nogo_system.residual_vector, bad.jacobian,
                                 x) > 1e-3


def _fresh_python(code):
    """Run code in a fresh interpreter with the package on its path."""
    src = os.path.dirname(os.path.dirname(models.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=env)


class TestNoGoCertificate:
    @pytest.mark.parametrize("s", [float("nan"), float("inf"),
                                   complex(1, float("inf"))])
    def test_non_finite_s(self, s):
        with pytest.raises(DomainError, match="parameter s = .* not finite"):
            models.prop1_system(s)

    def test_infeasible(self, nogo_system):
        cert = models.prop1_certificate(nogo_system, restarts=12, seed=0)
        assert cert["min_residual"] > 1e-2
        assert cert["median_residual"] >= cert["min_residual"]
        assert len(cert["values"]) == len(cert["nfev"]) == 12
        assert min(cert["values"]) == cert["min_residual"]
        assert all(1 <= njev <= nfev <= 400
                   for nfev, njev in zip(cert["nfev"], cert["njev"]))

    def test_certificate_minimum(self, nogo_system):
        """The minimum that criterion 9's comment records."""
        cert = models.prop1_certificate(nogo_system, restarts=100, seed=0)
        assert round(cert["min_residual"], 6) == 0.308919

    def test_evaluation_budget(self, nogo_system, monkeypatch):
        """Every restart needs more than 10 residual evaluations (14 to 54
        at seed 0), so a budget of 10 stops each one at exactly 10."""
        monkeypatch.setattr(models, "_LM_MAX_NFEV", 10)
        cert = models.prop1_certificate(nogo_system, restarts=3, seed=0)
        assert cert["nfev"] == [10, 10, 10]

    def test_shifted_selftest_target_infeasible(self, monkeypatch):
        """Negative control for the self-test: one matching target moved
        by 1/16 leaves the linear system without a solution, and the
        solver stops at its least-squares minimum (1/768 at seed 0), not
        at 0."""
        build = models.prop1_system
        built = []

        def shifted(s, include_jacobi=True, matching_target=None):
            target = {order: dict(c) for order, c in matching_target.items()}
            target[(0,)][(0, 1, 0)] += 1 / 16
            built.append(build(s, include_jacobi, matching_target=target))
            return built[-1]
        monkeypatch.setattr(models, "prop1_system", shifted)
        out = models.prop1_feasible_selftest(seed=0)
        S, = built
        x = np.linalg.lstsq(S.A, -S.c, rcond=None)[0]
        floor = np.linalg.norm(S.c + S.A @ x) ** 2
        assert out["min_residual"] > 1e-3
        assert out["min_residual"] == pytest.approx(floor, rel=1e-9)

    def test_no_scipy(self):
        """The certificate's solver is numpy's: a no-go suite run in a
        fresh interpreter imports no scipy module."""
        code = ("import sys\n"
                "from loopbrackets import verify\n"
                "assert verify.run_nogo_suite(restarts=2).passed\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] == 'scipy'))\n")
        out = _fresh_python(code)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"

    def test_unknowns_declared_once(self):
        """Building the system changes nothing process-wide: its unknowns
        are x-constants of the no-go table only, so a table that uses
        q_11_11 without listing it is refused, and total_x_derivative has
        no rule for it, before and after the build.  Runs in a fresh
        interpreter, so no earlier test has built the system."""
        code = (
            "import sympy as sp\n"
            "from loopbrackets import distcalc as dc, models, symexpr as sx\n"
            "q, z1 = sp.Symbol('q_11_11'), sx.jet('z1')\n"
            "def outcome(call):\n"
            "    try:\n"
            "        return repr(call())\n"
            "    except Exception as e:\n"
            "        return type(e).__name__\n"
            "def probe():\n"
            "    print(outcome(lambda: dc.build_table(\n"
            "              ('z1',), {('z1', 'z1'): [(q * z1, 1)]}).fields),\n"
            "          outcome(lambda: sx.total_x_derivative(q, ('z1',))))\n"
            "probe()\n"
            "models.prop1_system(2.0)\n"
            "probe()\n")
        out = _fresh_python(code)
        assert out.returncode == 0, out.stderr
        before, after = out.stdout.splitlines()
        assert before == after == "ClosureError ClosureError"

    # the 14 seeds below 600 where MINPACK's lmder stalled on the
    # self-test's rank-deficient Jacobian
    @pytest.mark.parametrize("seed", [
        *range(12), 7919, 44, 118, 125, 165, 214, 345, 351, 424, 444, 458,
        487, 524, 555, 585])
    def test_feasible_selftest(self, seed):
        out = models.prop1_feasible_selftest(seed=seed)
        assert out["min_residual"] < 1e-10


class TestThreeFieldWarmup:
    def test_exact(self):
        out = models.cp2_check()
        assert out["descent_exact"] and out["jacobi_exact"]

    def test_other_invariants(self):
        out = models.cp2_check(g2val=sp.Rational(7, 3), g3val=-2)
        assert out["descent_exact"] and out["jacobi_exact"]

    def test_corrupted_casimir_detected(self):
        out = models.cp2_check(corrupt=True)
        assert not out["descent_exact"]

    def test_flipped_entry_breaks_jacobi(self, monkeypatch):
        """jacobi_exact reads the table's Jacobi defects: with the (z1, z2)
        entry of the gradient bracket negated, one is nonzero."""
        build = dc.build_table

        def flipped(fields, given, **kwargs):
            given = dict(given)
            given[("z1", "z2")] = [(-c, m) for c, m in given[("z1", "z2")]]
            return build(fields, given, **kwargs)
        monkeypatch.setattr(dc, "build_table", flipped)
        assert not models.cp2_check()["jacobi_exact"]

    def test_descends_through_lemma1(self, monkeypatch):
        def refused(table, denominator_field):
            raise RuntimeError("no descent")
        monkeypatch.setattr(models, "lemma1_descend", refused)
        with pytest.raises(RuntimeError, match="no descent"):
            models.cp2_check()
