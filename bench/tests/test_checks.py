"""Negative controls for the benchmark's output checks: each check accepts
a correct output and rejects a deliberately perturbed one.

    python3 -m pytest -q bench/tests
"""

import collections
import copy
import dataclasses

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

import checks
import reference
import workloads
from loopbrackets import elliptic, models
from loopbrackets.errors import ConvergenceError, DomainError
from loopbrackets.symexpr import jet


@pytest.fixture(scope="module")
def n2():
    return models.thm3_extract(2), models.appendix_table(2)


# -- structure constants (poisson_n4 and tables) -----------------------------

def test_structconsts_accepts_extracted(n2):
    sc, _ = n2
    assert checks.structconsts_problems(sc.P, sc.Q) == []


def test_flipped_p_coefficient_rejected(n2):
    sc, _ = n2
    P = dict(sc.P)
    P[(0, 2)] = -P[(0, 2)]
    probs = checks.structconsts_problems(P, sc.Q)
    assert any("!= P" in p for p in probs)
    assert any("D_x" in p for p in probs)


def test_perturbed_q_rejected(n2):
    sc, _ = n2
    Q = dict(sc.Q)
    Q[(2, 2)] = Q[(2, 2)] + jet("z0") * jet("z2", 1)
    assert checks.structconsts_problems(sc.P, Q) == \
        ["Q(2, 2) + Q(2, 2) != D_x P(2, 2)"]


def test_inhomogeneous_p_rejected(n2):
    sc, _ = n2
    P = dict(sc.P)
    P[(0, 0)] = P[(0, 0)] + jet("z0") ** 3
    assert any("homogeneous" in p for p in
               checks.structconsts_problems(P, sc.Q))


def test_dx_uses_modular_rules():
    g1, g2, T = sp.symbols("g1 g2 T")
    e = g1 * jet("z0") * jet("z2", 1)
    want = (T * (g2 / 12 - g1 ** 2) * jet("z0") * jet("z2", 1)
            + g1 * jet("z0", 1) * jet("z2", 1) + g1 * jet("z0") * jet("z2", 2))
    assert sp.expand(checks.dx(e) - want) == 0


def test_documents_identical_apart_from_generator(n2):
    a, b = (models.structconsts_to_document(sc) for sc in n2)
    assert a["generator"] != b["generator"]
    text_a = checks.exported_text(a)
    assert checks.documents_problems(text_a, checks.exported_text(b)) == []
    b = copy.deepcopy(b)
    b["P"][0]["terms"][0]["coeff"] += "+1"
    assert checks.documents_problems(text_a, checks.exported_text(b)) != []


# -- poisson report ----------------------------------------------------------

def _poisson_report():
    return {"passed": True, "checks": [
        {"name": "extract_matches_closed_form", "passed": True,
         "exact": True},
        {"name": "antisymmetry_and_jacobi", "passed": True,
         "max_residual": 0.0},
        {"name": "modular_centrality", "passed": True, "exact": True},
        {"name": "descended_chart_z0", "passed": True, "max_residual": 0.0},
        {"name": "descended_chart_z4", "passed": True, "max_residual": 0.0},
        {"name": "control_flipped_sign", "passed": True,
         "max_residual": 2.7e5, "negative_control": True}]}


def _problems(rep):
    return [p for probs in checks.poisson_problems(rep).values()
            for p in probs]


def test_poisson_report_accepted():
    assert _problems(_poisson_report()) == []


@pytest.mark.parametrize("index,field,value", [
    (1, "max_residual", 1e-12),   # a Jacobi defect not exactly zero
    (4, "max_residual", 3e-15),   # a descended-chart defect not zero
    (5, "max_residual", 1e-4),    # flipped-sign control below its floor
    (2, "passed", False),         # a failed suite check
])
def test_poisson_report_perturbed_rejected(index, field, value):
    rep = _poisson_report()
    rep["checks"][index][field] = value
    assert _problems(rep) != []


def test_poisson_report_missing_chart_rejected():
    rep = _poisson_report()
    del rep["checks"][4]
    assert _problems(rep) != []


# -- nogo report -------------------------------------------------------------

def _nogo_report(cert=0.3089, selftest=8e-28):
    return {"passed": True, "checks": [
        {"name": "lifting_system_infeasible", "passed": True,
         "max_residual": cert},
        {"name": "control_feasible_selftest", "passed": True,
         "max_residual": selftest, "negative_control": True}]}


def _nogo_problems(rep):
    return [p for probs in checks.nogo_problems(rep).values() for p in probs]


def test_nogo_report_accepted():
    assert _nogo_problems(_nogo_report()) == []


def test_nogo_selftest_minimum_rejected():
    assert _nogo_problems(_nogo_report(selftest=1e-3)) != []


def test_nogo_certificate_minimum_rejected():
    assert _nogo_problems(_nogo_report(cert=0.01)) != []


# -- elliptic ----------------------------------------------------------------

def test_suite_with_failed_check_rejected():
    rep = {"passed": False, "checks": [{"name": "cubic", "passed": False}]}
    assert checks.suite_problems(rep) != []


@pytest.mark.parametrize("tau", [0.21 + 1.3j, -0.37 + 0.3j, 0.13 + 0.002j,
                                 0.5 + 0.0018j])
def test_reference_is_elliptic(tau):
    """The reference satisfies wp_z^2 = 4 wp^3 - g2 wp - g3 and zeta' = -wp
    at every ladder point; none of this uses the package."""
    ref = reference.Context(tau)
    lam, lat = ref.lam, ref.lat
    zs = [0.17 + 0.31 * tau, -0.163 + 0.033 * tau,
          *workloads._points(np.random.default_rng(1), tau, 4)]
    for z in zs:
        r = ref.at(z)
        assert abs(r.wp_z ** 2 - (4 * r.wp ** 3 - r.g2 * r.wp - r.g3)) < \
            1e-13 * max(1.0, abs(r.wp) ** 3)
        with mp.workdps(reference.DPS):
            w, h = mp.mpc(z) / lam, mp.mpf(10) ** -25
            dz = (lat.values(w + h)[2] - lat.values(w - h)[2]) / (2 * h)
            assert abs(dz + lat.values(w)[0]) < \
                mp.mpf(10) ** -30 * max(1, abs(dz))


def test_reference_quasi_periods():
    """Legendre's relation, and the values far outside the cell against
    the theta formulas evaluated there at 600 digits."""
    lat = reference.Context(0.5 + 0.0018j).lat
    with mp.workdps(reference.DPS):
        assert abs(lat.g1 * lat.t - lat.eta_t - 2j * mp.pi) < \
            mp.mpf(10) ** -50
        w = mp.mpc("0.31", "0.2") + 7 - 5 * lat.t
        far = lat.values(w)
    with mp.workdps(600):
        direct = lat._cell(mp.mpc(w))
    for a, b in zip(far, direct):
        assert abs(a - b) < mp.mpf(10) ** -40 * max(1, abs(b))


def test_reference_matches_package_in_box():
    tau, z = 0.21 + 1.3j, 0.17 + 0.1j
    ctx = elliptic.make_context(tau)
    r = reference.Context(tau).at(z)
    for name in ("wp", "wp_z", "zeta", "sigma"):
        got = getattr(elliptic, name)(ctx, z)
        assert checks.value_problem(name, got, getattr(r, name),
                                    ctx.tolerance) is None
    assert checks.value_problem("g3", ctx.g3 * (1 + 1e-8), r.g3,
                                ctx.tolerance) is not None


@pytest.mark.parametrize("seed", [0, 1001])
def test_thm2_sigma_arguments_inside_the_origin_cell(seed):
    """run_thm2_suite raises DomainError on seed 1001; the workload's own
    trials keep every sigma argument where reduce_argument shifts nothing."""
    for trial in workloads.elliptic_inputs(seed)["thm2"]:
        S = sum(trial["t"])
        for u in (trial["up"], trial["vp"]):
            for z in [u + S, u] + [u - ta for ta in trial["t"]]:
                assert elliptic.reduce_argument(trial["tau"], z)[1:] == (0, 0)


def _thm2_ops(inp, out):
    ops = workloads.elliptic_verdicts(dict(inp, sweep=[]),
                                      dict(out, suites=[], sweep=[]))
    return {op.name: op.failed for op in ops}


def test_thm2_trials_accepted_and_perturbed_rejected():
    inp = {"thm2": workloads.elliptic_inputs(3)["thm2"][::12]}
    out = {"thm2": [workloads.thm2_residuals(t) for t in inp["thm2"]]}
    assert not any(_thm2_ops(inp, out).values())
    for key, value in (("bracket", 1e-7), ("modular_row", 2e-8)):
        bad = copy.deepcopy(out)
        bad["thm2"][0][key] = value
        got = _thm2_ops(inp, bad)
        assert got["elliptic.thm2.n2.0"] and sum(got.values()) == 1
    # the wrong-coupling control no longer separates: every residual small
    bad = copy.deepcopy(out)
    for res in bad["thm2"]:
        res["control"] = 1e-4
    got = _thm2_ops(inp, bad)
    assert got["elliptic.thm2.n2.control"] and got["elliptic.thm2.n3.control"]


def _ladder(index, seed=0):
    """The sweep entry of one ladder tau (fixed, whatever the seed)."""
    inp = workloads.elliptic_inputs(seed)
    (entry,) = [e for e in inp["sweep"]
                if e["band"] == "ladder" and e["index"] == index]
    return entry


def _verdicts(entry, res):
    """{operation name: (failed, known fault)} for one sweep entry."""
    ops = workloads.elliptic_verdicts({"thm2": [], "sweep": [entry]},
                                      {"suites": [], "thm2": [],
                                       "sweep": [res]})
    return {op.name.split(".")[-1]: (op.failed, op.known_fault)
            for op in ops}


def _perturbed(res, j, fn, rel=1e-8):
    values = copy.copy(res["values"])
    values[j] = dict(values[j], **{fn: values[j][fn] * (1 + rel)})
    return dict(res, values=values)


def test_box_point_accepted_and_perturbed_rejected():
    tau = -0.3 + 1.6j
    entry = {"band": "box", "index": 0, "tau": tau,
             "zs": [0.2 - 0.3j, 0.1 + 0.4 * tau]}
    res = workloads.sweep_values(entry)
    assert _verdicts(entry, res) == {"forms": (False, ""), "z0": (False, ""),
                                     "z1": (False, "")}
    got = _verdicts(entry, _perturbed(res, 1, "wp_z"))
    assert got["z1"] == (True, "") and got["z0"] == (False, "")


def test_forms_loss_is_the_named_fault_only_on_its_ladder_tau():
    entry = _ladder(2)  # tau = -0.37 + 0.3i: g3 misses the tolerance
    res = workloads.sweep_values(entry)
    got = _verdicts(entry, res)
    assert got["forms"] == (True, "g2_g3_precision")
    assert all(got[f"z{j}"] == (False, "") for j in range(len(entry["zs"])))
    # the same values in the box are not the named fault
    assert _verdicts(dict(entry, band="box"), res)["forms"] == (True, "")
    # a g1 error joins the g3 loss: no longer only the named fault
    ctx = res["ctx"]
    bad = dict(res, ctx=dataclasses.replace(ctx, g1=ctx.g1 * (1 + 1e-8)))
    assert _verdicts(entry, bad)["forms"] == (True, "")


def test_point_error_at_a_forms_fault_tau_is_unexpected():
    """g3 fails at this tau, and wp off by 1e-8 at one point must still
    count as an unexpected failure."""
    entry = _ladder(2)
    res = workloads.sweep_values(entry)
    got = _verdicts(entry, _perturbed(res, 4, "wp"))
    assert got["forms"] == (True, "g2_g3_precision")
    assert got["z4"] == (True, "")


def test_sigma_fault_limited_to_its_points_and_functions():
    entry = _ladder(12)  # tau = -0.13 + 0.0014i
    res = workloads.sweep_values(entry)
    got = _verdicts(entry, res)
    listed = {j for (i, j) in workloads.SIGMA_WP_Z_FAULT if i == 12}
    for j in range(len(entry["zs"])):
        want = ((True, "sigma_wp_z_small_im_tau") if j in listed
                else (False, ""))
        assert got[f"z{j}"] == want
    j = min(listed)
    assert _verdicts(entry, _perturbed(res, j, "wp"))[f"z{j}"] == (True, "")
    k = min(set(range(len(entry["zs"]))) - listed)
    assert _verdicts(entry, _perturbed(res, k, "sigma"))[f"z{k}"] == \
        (True, "")


def test_refusal_is_the_named_fault_only_where_listed():
    entry = _ladder(13)
    res = workloads.sweep_values(entry)
    assert isinstance(res["error"], ConvergenceError)
    got = _verdicts(entry, res)
    assert set(got.values()) == {(True, "refused_small_im_tau")}
    assert len(got) == 1 + workloads.POINTS_PER_TAU
    assert set(_verdicts(dict(entry, band="box"), res).values()) == \
        {(True, "")}
    other = dict(res, error=DomainError("tolerance"))
    assert set(_verdicts(entry, other).values()) == {(True, "")}


def test_ladder_fails_exactly_the_listed_operations():
    """Every ladder operation, evaluated: the named faults fail exactly
    the operations they list, and nothing else fails."""
    inp = workloads.elliptic_inputs(seed=5)
    ladder = [e for e in inp["sweep"] if e["band"] == "ladder"]
    assert [e["tau"] for e in ladder] == list(workloads.LADDER)
    assert ladder == [e for e in workloads.elliptic_inputs(seed=6)["sweep"]
                      if e["band"] == "ladder"]
    ops = workloads.elliptic_verdicts(
        {"thm2": [], "sweep": ladder},
        {"suites": [], "thm2": [],
         "sweep": [workloads.sweep_values(e) for e in ladder]})
    failed = [op for op in ops if op.failed]
    assert all(op.known_fault for op in failed), \
        [op.name for op in failed if not op.known_fault]
    per_tau = 1 + workloads.POINTS_PER_TAU
    counts = collections.Counter(op.known_fault for op in failed)
    assert counts == {
        "g2_g3_precision": len(workloads.G2_G3_FAULT),
        "refused_small_im_tau": per_tau * len(workloads.REFUSED_FAULT),
        "sigma_wp_z_small_im_tau": len(workloads.SIGMA_WP_Z_FAULT)}
    refused = [t for i, t in enumerate(workloads.LADDER)
               if i in workloads.REFUSED_FAULT]
    assert max(t.imag for t in refused) < min(
        t.imag for i, t in enumerate(workloads.LADDER)
        if i not in workloads.REFUSED_FAULT)
