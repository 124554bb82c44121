"""Verification campaigns: every suite passes at default strictness, the
negative controls actually fire, and reports serialize deterministically."""

import dataclasses
import inspect
import json

import numpy as np
import pytest
import sympy as sp

from loopbrackets import distcalc as dc
from loopbrackets import elliptic
from loopbrackets import models
from loopbrackets import verify
from loopbrackets.symexpr import jet


class TestReportPlumbing:
    def test_residual_check(self):
        c = verify._residual_check("x", [1e-12, 3e-11], 1e-9)
        assert c.passed and c.max_residual == 3e-11
        c = verify._residual_check("x", [1e-2], 1e-9)
        assert not c.passed
        c = verify._residual_check("x", [1e-2], 1e-9,
                                   negative=True, floor=1e-3)
        assert c.passed and c.negative_control

    def test_zero_tolerance(self):
        # residuals that are all exactly zero pass even at tol = 0; any
        # nonzero residual fails there
        assert verify._residual_check("x", [0.0, 0.0], 0.0).passed
        assert not verify._residual_check("x", [0.0, 1e-300], 0.0).passed
        assert not verify._residual_check("x", [1e-9], 1e-9).passed

    @pytest.mark.parametrize("negative", [False, True])
    def test_nan_residual_fails(self, negative):
        # wherever it sits in the list, a NaN residual fails the check
        for residuals in ([0.0, float("nan")], [float("nan"), 0.0]):
            c = verify._residual_check("x", residuals, 1.0,
                                       negative=negative, floor=1e-3)
            assert not c.passed

    def test_report_json_shape(self):
        rep = verify.run_cp2_suite()
        doc = json.loads(rep.to_json())
        assert set(doc) == {"suite", "seed", "params", "passed", "checks"}
        assert all({"name", "passed"} <= set(c) for c in doc["checks"])

    def test_duration_excluded_by_default(self):
        rep = verify.run_cp2_suite()
        assert "duration_seconds" not in rep.to_dict()
        assert "duration_seconds" in rep.to_dict(include_duration=True)
        assert rep.duration_seconds > 0.0

    def test_timed_suites_keep_name_and_signature(self):
        # the benchmark's tracer wraps the suites by name
        suite = verify.run_poisson_suite
        assert suite.__name__ == "run_poisson_suite"
        assert list(inspect.signature(suite).parameters) == [
            "n", "seed", "jets", "tol", "corrupt"]

    @pytest.mark.parametrize("suite, key", [
        ("run_identity_suite", "trials"), ("run_oracle_suite", "points"),
        ("run_poisson_suite", "jets"), ("run_thm2_suite", "trials")])
    def test_zero_samples_rejected(self, suite, key, monkeypatch):
        """A suite asked for no samples refuses before any work instead
        of passing vacuously or sampling anyway."""
        def no_work(*args, **kwargs):
            raise AssertionError("the suite started work")
        monkeypatch.setattr(elliptic, "make_context", no_work)
        monkeypatch.setattr(verify.models, "thm3_extract", no_work)
        with pytest.raises(ValueError, match=f"{key} must be >= 1"):
            getattr(verify, suite)(**{key: 0})

    def test_byte_determinism(self):
        a = verify.run_identity_suite(seed=4, trials=10)
        b = verify.run_identity_suite(seed=4, trials=10)
        assert a.to_json() == b.to_json()


class TestTauSampling:
    def test_box(self, rng):
        for _ in range(50):
            t = verify.sample_tau(rng)
            assert abs(t.real) <= 0.5
            assert 0.8 <= t.imag <= 2.0


class TestIdentitySuite:
    def test_passes(self):
        rep = verify.run_identity_suite(seed=0, trials=30)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]

    def test_has_negative_control(self):
        rep = verify.run_identity_suite(seed=0, trials=10)
        assert any(c.negative_control for c in rep.checks)

    def test_control_fires_where_g2_vanishes(self):
        """Seed 316 puts the control's tau at 0.4965+0.8650i, next to
        exp(2 pi i / 3) mod 1, where |g2| = 2.85: a 1% error in g2 alone
        reads 4e-4 there, below the 1e-3 floor."""
        rep = verify.run_identity_suite(seed=316, trials=1200)
        control = next(c for c in rep.checks
                       if c.name == "control_wrong_invariant")
        assert abs(elliptic.make_context(
            verify.sample_tau(np.random.default_rng(316))).g2) < 3
        assert control.passed and control.max_residual > 1e-3

    def test_tight_tolerance_fails_honestly(self):
        rep = verify.run_identity_suite(seed=0, trials=10, tol=1e-300)
        assert not rep.passed

    def test_tau_step_contexts_built_once(self, monkeypatch):
        """The tau-differences read four shifted contexts per modular
        parameter, not four per difference."""
        calls = []
        make_context = elliptic.make_context

        def counted(tau, *args, **kwargs):
            calls.append(tau)
            return make_context(tau, *args, **kwargs)
        monkeypatch.setattr(elliptic, "make_context", counted)
        verify.run_identity_suite(seed=0, trials=30)
        assert len(calls) == len(set(calls)) <= 3 + 4 * 3


class TestOracleSuite:
    def test_passes(self):
        rep = verify.run_oracle_suite(seed=0, points=5)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]

    def test_one_lattice_per_oracle(self, monkeypatch):
        """The points and the control share one lattice-sum call, and
        the Eisenstein sums make the other."""
        calls = []
        for name in ("lattice_oracle", "eisenstein_oracle"):
            def counted(*args, fn=getattr(elliptic, name), **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            monkeypatch.setattr(elliptic, name, counted)
        rep = verify.run_oracle_suite(seed=0, points=5, radius=20)
        assert len(rep.checks) == 5
        assert len(calls) <= 2

    def test_one_far_moment_pass(self, monkeypatch):
        """The suite's 24 points and the control share one cutoff, so the
        lattice oracle forms its far moments once for all 25; the
        Eisenstein sums make the one other pass over the lattice."""
        passes = []
        moments = elliptic._moments

        def counted(inv, count):
            passes.append(count)
            return moments(inv, count)
        monkeypatch.setattr(elliptic, "_moments", counted)
        rep = verify.run_oracle_suite(seed=0, points=24)
        assert rep.passed
        assert passes == [elliptic.FAR_TERMS + 1, 3]


class TestPoissonSuite:
    def test_small_n_passes(self):
        rep = verify.run_poisson_suite(n=2, seed=0)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]
        names = {c.name for c in rep.checks}
        assert "extract_matches_closed_form" in names
        assert "antisymmetry_and_jacobi" in names
        assert "modular_centrality" in names
        assert "control_flipped_sign" in names

    def test_corrupted_table_detected(self):
        rep = verify.run_poisson_suite(n=2, seed=0, corrupt=True)
        assert not rep.passed

    def test_bad_n(self):
        from loopbrackets.errors import DomainError
        with pytest.raises(DomainError):
            verify.run_poisson_suite(n=9)


def failed(rep) -> set:
    """Names of the report's checks that did not pass."""
    return {c.name for c in rep.checks if not c.passed}


class TestInjectedFaults:
    """Each positive check fails, and reports instead of raising, when a
    fault it exists to catch is injected; no other check moves except
    those that read the faulty object too."""

    def test_broken_descent_fails_its_charts(self, monkeypatch):
        """One negated off-diagonal descended entry: both charts sample
        their own fields and fail with a nonzero residual."""
        descend = models.lemma1_descend

        def negated(table, denominator):
            red = descend(table, denominator)
            a, b = next(k for k, v in red.entries.items() if k[0] != k[1]
                        and v)
            return verify._flip_one_entry(red, a, b)
        monkeypatch.setattr(models, "lemma1_descend", negated)
        rep = verify.run_poisson_suite(n=3)
        assert failed(rep) == {"descended_chart_z0", "descended_chart_z3"}
        assert all(c.max_residual > 1e-3 for c in rep.checks
                   if c.name.startswith("descended_chart_"))

    def test_th_row_with_a_field_term(self, monkeypatch):
        """{th(x), z0(y)} gains z2 delta': th no longer commutes with the
        ratios, Jacobi breaks, and neither chart descends."""
        build = dc.build_table

        def shifted(fields, given, **kwargs):
            if ("th", "z0") in given:
                given = {**given, ("th", "z0"): [
                    (jet("z0") + jet("z2"), 1), (jet("z0", 1), 0)]}
            return build(fields, given, **kwargs)
        monkeypatch.setattr(dc, "build_table", shifted)
        rep = verify.run_poisson_suite(n=3)
        assert failed(rep) == {"modular_centrality", "antisymmetry_and_jacobi",
                               "descended_chart_z0", "descended_chart_z3"}
        assert all("not central" in c.detail for c in rep.checks
                   if c.name.startswith("descended_chart_"))

    @pytest.mark.parametrize("order, check", [
        ((1,), "descent_leading_coefficient"),
        ((0,), "descent_delta_coefficient")])
    def test_wrong_descended_entry(self, monkeypatch, order, check):
        """The descended (p1, p1) term of one delta order doubled."""
        descend = models.lemma1_descend

        def doubled(table, denominator):
            red = descend(table, denominator)
            entries = dict(red.entries)
            entries[("p1", "p1")] = tuple(
                dc.DeltaTerm(2 * t.value if t.orders == order else t.value,
                             t.orders) for t in entries[("p1", "p1")])
            return dataclasses.replace(red, entries=entries)
        monkeypatch.setattr(models, "lemma1_descend", doubled)
        assert failed(verify.run_prop2_suite()) == {check}

    def test_unreachable_identification_target(self, monkeypatch):
        """With {z2, z2} negated in the target, no invertible M maps the
        extracted table onto it."""
        identify = models.linear_identifications

        def flipped(sc, target):
            return identify(sc, verify._flip_one_entry(target, "z2", "z2"))
        monkeypatch.setattr(models, "linear_identifications", flipped)
        rep = verify.run_prop2_suite()
        assert failed(rep) == {"identification_with_extracted_table"}
        assert next(c.detail for c in rep.checks
                    if not c.passed) == "[]"


class TestRingEvaluation:
    def test_no_lambdify_or_coeff_view(self, monkeypatch):
        """Residuals are evaluated and prop2's descent and identification
        are decided on ring elements: no lambdify, no DeltaTerm.coeff
        view, and no sympy.together in the prop2 suite."""
        calls = []
        lambdify, together = sp.lambdify, sp.together

        def counted(*args, **kwargs):
            calls.append("lambdify")
            return lambdify(*args, **kwargs)
        monkeypatch.setattr(sp, "lambdify", counted)
        assert not hasattr(dc.DeltaTerm, "coeff")
        verify.run_poisson_suite(n=2)
        assert calls == []

        def counted_together(*args, **kwargs):
            calls.append("together")
            return together(*args, **kwargs)
        monkeypatch.setattr(sp, "together", counted_together)
        verify.run_prop2_suite()
        assert calls == []


class TestProp2Suite:
    def test_passes(self):
        rep = verify.run_prop2_suite(seed=0)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]

    def test_tolerance_reaches_the_residual_checks(self, monkeypatch):
        seen = {}
        check = verify._residual_check

        def spy(name, residuals, tol, **kwargs):
            seen[name] = tol
            return check(name, residuals, tol, **kwargs)
        monkeypatch.setattr(verify, "_residual_check", spy)
        verify.run_prop2_suite(seed=0, tol=0.25)
        assert seen == {"antisymmetry_and_jacobi": 0.25,
                        "control_flipped_sign": 0.25}


class TestThm2Suite:
    def test_passes(self):
        rep = verify.run_thm2_suite(n=2, trials=4, seed=0)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]

    @pytest.mark.parametrize("n,trials,seed", [(3, 10, 1), (2, 60, 1001)])
    def test_sigma_outside_the_cell(self, n, trials, seed):
        """Seeds whose sigma arguments leave the origin-centered cell."""
        rep = verify.run_thm2_suite(n=n, trials=trials, seed=seed)
        assert rep.passed, [c.to_dict() for c in rep.checks if not c.passed]

    def test_scaled_modular_row_detected(self, monkeypatch):
        """Mutation: the flat table's delta coefficient C0[tau][f] scaled
        by 1.01 fails the two checks that read it (residuals near 1.7e-3
        and 4.8e-5 at n = 3), with no exception; the control passes."""
        assert verify.run_thm2_suite(n=3, trials=10).passed
        flat = models.flat_table_coeffs

        def scaled(n, real):
            C1, C0 = flat(n, real)
            C0["tau"]["f"] *= 1.01
            return C1, C0

        monkeypatch.setattr(models, "flat_table_coeffs", scaled)
        rep = verify.run_thm2_suite(n=3, trials=10)
        failed = {c.name for c in rep.checks if not c.passed}
        assert failed == {"modular_row", "generating_field_bracket"}
        assert next(c for c in rep.checks
                    if c.name == "control_wrong_coupling").passed


class TestNoGoSuite:
    def test_passes_fast(self):
        rep = verify.run_nogo_suite(restarts=10, seed=0)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]
        infeasible = next(c for c in rep.checks
                          if c.name == "lifting_system_infeasible")
        assert infeasible.max_residual > 1e-3

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_needs_a_restart(self, restarts):
        """Without a restart there is no minimum to certify: the suite
        refuses instead of passing on an infinite one."""
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            verify.run_nogo_suite(restarts=restarts, seed=0)


class TestCp2Suite:
    def test_passes(self):
        rep = verify.run_cp2_suite()
        assert rep.passed
        assert all(c.exact for c in rep.checks if not c.negative_control)

    def test_other_invariants(self):
        rep = verify.run_cp2_suite(g2val=3, g3val=sp.Rational(-1, 4))
        assert rep.passed
