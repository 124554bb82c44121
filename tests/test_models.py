"""Model layer: the two independent routes to the structure constants,
their JSON round trip, the projective descent, the generating-field
realization, the obstruction certificate, and the three-field warm-up."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp

from loopbrackets import cli
from loopbrackets import distcalc as dc
from loopbrackets import elliptic
from loopbrackets import models
from loopbrackets import symexpr as sx
from loopbrackets import verify
from loopbrackets.errors import (DivisibilityError, DomainError,
                                 ExtractionError)
from loopbrackets.symexpr import jet


def template_algebra(n):
    """An algebra like the one thm3_extract builds its template in."""
    R = models._structconsts_algebra(n).R
    fields = [models.field_name(a) for a in models.field_indices(n)]
    return dc._RingAlgebra(models._SPECTRAL + R.symbols, fields, frozen=False)


def _mutated(sc):
    """sc with z0 z2 added to P(0, 0), in the ring."""
    P = dict(sc.P_poly)
    P[(0, 0)] += P[(0, 0)].ring(jet("z0") * jet("z2"))
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
        assert models.spectral_basis(alg, 3, "v") + x(sx.dwpv) / 2 == 0
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
    def test_roundtrip(self):
        sc = models.thm3_extract(2)
        doc = models.structconsts_to_document(sc)
        back = models.structconsts_from_document(doc)
        assert models.match_structconsts(sc, back) == []

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

    def test_denominator_power_above_clearing_power(self):
        dinv, = self.template(sx.dinv)
        with pytest.raises(ExtractionError, match="clearing power"):
            models._spectral_clear(dinv ** 4, 3)

    def test_clearing_factor_does_not_divide(self):
        dinv, = self.template(sx.dinv)
        with pytest.raises(DivisibilityError):
            models._spectral_clear(dinv, 3)

    def test_clearing_factor_cancels(self):
        dinv, wpu, wpv = self.template(sx.dinv, sx.wpu, sx.wpv)
        assert models._spectral_clear((wpv - wpu) * dinv * wpu, 3) == wpu

    @pytest.mark.parametrize("leaf", [sx.u, sx.zwu], ids=str)
    def test_spectral_leaf_survives(self, leaf):
        x, wpu = self.template(leaf, sx.wpu)
        with pytest.raises(ExtractionError, match=f"leaf {leaf} survives"):
            models._spectral_clear(x * wpu, 3)

    @staticmethod
    def split(expr, n):
        R, *_ = sp.ring([sx.dwpu, sx.dwpv, sx.wpu, sx.wpv, sx.u, jet("z0")],
                        sp.QQ)
        return models._coeff_split(R.from_expr(expr), n,
                                   models._structconsts_algebra(n).R)

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
        _, u, v, z0 = sp.ring([sx.u, sx.v, jet("z0")], sp.QQ)
        R = models._structconsts_algebra(2).R
        target = {(a, b): R.zero for a in (0, 2) for b in (0, 2)}
        models._harvest(target, (0, 0), u * z0 ** 2, 2, R)
        assert target[(2, 0)].as_expr() == jet("z0") ** 2
        with pytest.raises(ExtractionError, match="out of range"):
            models._harvest(target, (0, 0), u ** 2 * z0 ** 2, 2, R)

    @staticmethod
    def closed_form_ring():
        return sp.ring([sx.u, sx.v, models._DINV, models._I, models._PI,
                        models._PI_INV, sx.T], sp.QQ)

    def test_closed_form_tau_prime_substitution(self):
        R, u, v, Dinv, i, pi, pinv, T = self.closed_form_ring()
        tp = 2 * pi * i * T
        got = models._finalize_closed_form(
            i * tp * pinv / 24 + (u ** 2 - v ** 2) * Dinv)
        assert got.as_expr() == -sx.T / 12 + sx.u + sx.v

    @pytest.mark.parametrize("survivor", ["i", "pi"])
    def test_pi_or_i_survive(self, survivor):
        R, u, v, Dinv, i, pi, pinv, T = self.closed_form_ring()
        term = {"i": i * T, "pi": pi * T}[survivor]
        with pytest.raises(ExtractionError, match="pi or i survive"):
            models._finalize_closed_form(term + u * v)

    def test_closed_form_not_divisible(self):
        R, u, v, Dinv, i, pi, pinv, T = self.closed_form_ring()
        with pytest.raises(DivisibilityError):
            models._finalize_closed_form(u * Dinv)

    def test_entry_outside_the_ring(self):
        doc = models.structconsts_to_document(models.appendix_table(2))
        doc["P"][0]["terms"][0]["coeff"] = "1/z0**3"
        with pytest.raises(ExtractionError, match="not a polynomial"):
            models.structconsts_from_document(doc)

    def test_constructor_takes_ring_elements_only(self):
        with pytest.raises(TypeError, match="not a ring element"):
            models.StructConsts(n=2, P={(0, 0): jet("z0") ** 2}, Q={})


class TestDerivationRings:
    """Both derivations compute in sparse polynomial rings: no sympy
    cancel, no Poly built from an Expr, no x-, tau- or spectral
    derivative on an Expr, and a fixed number of ring constructions per
    route (documents and matching build none)."""

    DERIVATIONS = ("total_x_derivative", "d_dtau_scaled", "d_dz_spectral")

    @pytest.mark.parametrize("route, rings", [("thm3_extract", (0, 2)),
                                              ("appendix_table", (1, 1))])
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


class TestDescent:
    def test_cubic_chart(self):
        red = models.lemma1_descend(models.prop2_table(), "z2")
        assert red.fields == ("p1",)
        assert red.frozen_modular
        p, px = jet("p1"), jet("p1", 1)
        G = -(4 * p ** 3 - sx.g2 * p - sx.g3) / 2
        assert sp.expand(red.entry("p1", "p1")[1].value.as_expr() - G) == 0 or \
            sp.expand(next(t.value.as_expr() for t in red.entry("p1", "p1")
                           if t.orders == (1,)) - G) == 0
        dcoeff = next(t.value.as_expr() for t in red.entry("p1", "p1")
                      if t.orders == (0,))
        assert sp.expand(dcoeff - sp.diff(G, p) / 2 * px) == 0

    def test_descended_table_is_poisson(self):
        red = models.lemma1_descend(models.prop2_table(), "z2")
        for tr in dc.jacobi_triples(red.fields):
            assert dc.jacobi_defect(red, *tr).is_zero()

    def test_extracted_descent_two_charts(self):
        tb = models.thm3_extract(3).to_bracket_table()
        for denom in ("z0", "z3"):
            red = models.lemma1_descend(tb, denom)
            assert red.frozen_modular
            for tr in dc.jacobi_triples(red.fields):
                assert dc.jacobi_defect(red, *tr).is_zero()

    def test_unknown_denominator(self):
        with pytest.raises(Exception):
            models.lemma1_descend(models.prop2_table(), "z9")


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
    got = {t.orders: t.value.as_expr() for t in dp.terms}
    for order, target in (((1,), G), ((0,), sp.diff(G, p) * pp / 2)):
        diff = sp.expand(got[order].subs(chart) - target)
        out += sp.Poly(diff, p, pp, zr).coeffs()
    zjets = [jet(f, k) for k in range(4) for f in ("z1", "z2")]
    for tri in dc.jacobi_triples(table.fields):
        for term in dc.jacobi_defect(table, *tri).terms:
            out += sp.Poly(term.value.as_expr(), *zjets).coeffs()
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


class TestNoGoCertificate:
    def test_infeasible(self, nogo_system):
        cert = models.prop1_certificate(nogo_system, restarts=12, seed=0)
        assert cert["min_residual"] > 1e-2
        assert cert["median_residual"] >= cert["min_residual"]
        assert len(cert["values"]) == 12
        assert min(cert["values"]) == cert["min_residual"]

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
        src = os.path.dirname(os.path.dirname(models.__file__))
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=300, env=env)
        assert out.returncode == 0, out.stderr
        before, after = out.stdout.splitlines()
        assert before == after == "ClosureError ClosureError"

    @pytest.mark.parametrize("seed", [*range(12), 7919])
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
