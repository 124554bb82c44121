"""Named, seeded verification campaigns with machine-readable reports.

Each suite bundles module-level checks into a :class:`SuiteReport`:
deterministic for a fixed (suite, seed, parameters) triple, with max and
median residuals recorded per check and at least one negative control
(a deliberately broken variant that must register as broken).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from . import distcalc as dc
from . import elliptic
from . import models
from . import symexpr as sx
from .errors import LoopBracketsError
from .symexpr import jet

TAU_BOX = {"re": 0.5, "im_lo": 0.8, "im_hi": 2.0}
# the field counts of the Poisson suite, which the scripts accept too
POISSON_NS = range(2, 7)


def sample_tau(rng) -> complex:
    """Modular parameter from the fixed box |Re tau| <= 1/2,
    0.8 <= Im tau <= 2.  The box is not the fundamental domain: its
    points with |tau| < 1 lie outside it."""
    return complex(rng.uniform(-TAU_BOX["re"], TAU_BOX["re"]),
                   rng.uniform(TAU_BOX["im_lo"], TAU_BOX["im_hi"]))


@dataclass
class CheckRecord:
    """One named check: residual statistics or an exactness flag, and
    whether the check met its contract.  Negative controls pass when the
    broken variant is detected (residual above its floor)."""

    name: str
    passed: bool
    max_residual: float | None = None
    median_residual: float | None = None
    exact: bool | None = None
    negative_control: bool = False
    detail: str = ""

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed)}
        if self.max_residual is not None:
            out["max_residual"] = float(self.max_residual)
        if self.median_residual is not None:
            out["median_residual"] = float(self.median_residual)
        if self.exact is not None:
            out["exact"] = bool(self.exact)
        if self.negative_control:
            out["negative_control"] = True
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class SuiteReport:
    """Outcome of one verification campaign."""

    suite: str
    seed: int
    params: dict
    checks: list[CheckRecord] = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_duration: bool = False) -> dict:
        # wall-clock excluded from the canonical payload so identical
        # (suite, seed, params) runs serialize byte-identically
        out = {
            "suite": self.suite,
            "seed": int(self.seed),
            "params": self.params,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
        if include_duration:
            out["duration_seconds"] = self.duration_seconds
        return out

    def to_json(self, include_duration: bool = False) -> str:
        return json_text(self.to_dict(include_duration=include_duration))


def json_text(doc) -> str:
    """doc as the text of every JSON artifact: indent 2, sorted keys."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _residual_check(name: str, residuals, tol: float,
                    negative: bool = False, floor: float = 0.0) -> CheckRecord:
    residuals = [float(r) for r in residuals]
    mx = float(np.max(residuals)) if residuals else 0.0  # NaN propagates
    med = statistics.median(residuals) if residuals else 0.0
    # residuals that are all exactly zero pass even at tol = 0
    passed = (mx > floor) if negative else (mx < tol or not any(residuals))
    return CheckRecord(name=name, passed=passed, max_residual=mx,
                       median_residual=med, negative_control=negative)


def _timed(suite):
    """The suite with its report's duration_seconds set to its wall time."""
    @functools.wraps(suite)
    def run(*args, **kwargs):
        t0 = time.perf_counter()
        rep = suite(*args, **kwargs)
        rep.duration_seconds = time.perf_counter() - t0
        return rep
    return run


# ---------------------------------------------------------------------------
# identity suite

_FD_H = 5e-5  # tau step of the modular-derivative differences
_FD_HZ = 1e-5  # z step of the spectral-derivative differences


def _fd(g, h: float) -> complex:
    """Fourth-order central difference from the samples g(k) at offsets
    k*h, k in {-2, -1, 1, 2}; independent of the closed forms under test."""
    return (8.0 * (g(1) - g(-1)) - (g(2) - g(-2))) / (12.0 * h)


def _split(values: list, n: int) -> list[list]:
    """values cut into consecutive runs of n."""
    return [values[i:i + n] for i in range(0, len(values), n)]


@_timed
def run_identity_suite(seed: int = 0, trials: int = 100,
                       tol: float = 1e-9) -> SuiteReport:
    """Special-function invariants over 3 random modular parameters, at
    trials // 3 + 1 random points each (3 * (trials // 3 + 1) in all: 33
    for trials = 30): the cubic, derivative, quasi-periodicity, addition,
    and modular-derivative identities.  The points of a parameter are
    drawn first, each function is evaluated at all of them in one call
    per context, and the residuals are formed as the points come."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    taus = [sample_tau(rng) for _ in range(3)]
    ctxs = [elliptic.make_context(t) for t in taus]

    res = {k: [] for k in
           ("cubic", "second_derivative", "zeta_derivative", "log_sigma",
            "quasi_period_1", "quasi_period_tau", "sigma_wp_relation",
            "addition", "q_weight_forms", "g_tau", "wp_tau", "zeta_tau",
            "log_sigma_tau")}
    offsets = (-2, -1, 1, 2)
    for ctx in ctxs:
        zs, b2s, bs = [], [], []
        for _ in range(trials // 3 + 1):
            zs.append(sx.spectral_point(rng, ctx.tau))
            b2s.append(0.45 * sx.spectral_point(rng, ctx.tau))
            bs.append(sx.spectral_point(rng, ctx.tau))
        n = len(zs)
        a2s = [0.45 * z for z in zs]
        # z + k*h for each offset k, offset by offset
        near = [z + k * _FD_HZ for k in offsets for z in zs]
        w, wa2, wb2, wb = _split(elliptic.wp_many(ctx, zs + a2s + b2s + bs), n)
        wz = elliptic.wp_z_many(ctx, zs)
        zt, *zeta_near, zeta_1, zeta_tau = _split(elliptic.zeta_many(
            ctx, zs + near + [z + 1 for z in zs]
            + [z + ctx.tau for z in zs]), n)
        *sigma_near, s_sum, s_diff, s_a2, s_b2 = _split(elliptic.sigma_many(
            ctx, near + [a + b for a, b in zip(a2s, b2s)]
            + [a - b for a, b in zip(a2s, b2s)] + a2s + b2s), n)
        # the addition theorem where wp(z) and wp(b) are well apart
        apart = [i for i in range(n)
                 if abs(w[i] - wb[i]) > 1e-3 * max(1.0, abs(w[i]), abs(wb[i]))]
        m = len(apart)
        zeta_zb, zeta_b, zeta_bz = _split(elliptic.zeta_many(
            ctx, [zs[i] + bs[i] for i in apart] + [bs[i] for i in apart]
            + [bs[i] - zs[i] for i in apart]), m) if m else ([], [], [])
        wzb = dict(zip(apart, elliptic.wp_z_many(ctx, [bs[i] for i in apart])))
        at_zb = dict(zip(apart, zip(zeta_zb, zeta_b, zeta_bz)))
        # the contexts at tau + k*h that every tau-difference reads
        step = {k: elliptic.make_context(ctx.tau + k * _FD_H) for k in offsets}
        stepped = {k: (elliptic.wp_many(step[k], zs),
                       elliptic.zeta_many(step[k], zs),
                       elliptic.sigma_many(step[k], zs)) for k in offsets}
        g_tau = elliptic.g_tau_derivatives(ctx)
        for i in range(n):
            scale = max(1.0, abs(w[i]) ** 3)
            res["cubic"].append(
                abs(wz[i] ** 2 - (4 * w[i] ** 3 - ctx.g2 * w[i] - ctx.g3))
                / scale)
            res["second_derivative"].append(
                abs(elliptic.wp_zz_rule(w[i], ctx.g2)
                    - (6 * w[i] ** 2 - ctx.g2 / 2)) / max(1.0, abs(w[i]) ** 2))
            near_i = dict(zip(offsets, (v[i] for v in zeta_near)))
            # zeta' = -wp via 4th-order finite differences in z
            fd = _fd(near_i.get, _FD_HZ)
            res["zeta_derivative"].append(abs(fd + w[i]) / max(1.0, abs(w[i])))
            # (log sigma)' = zeta
            near_i = dict(zip(offsets, (np.log(v[i]) for v in sigma_near)))
            fd = _fd(near_i.get, _FD_HZ)
            res["log_sigma"].append(abs(fd - zt[i]) / max(1.0, abs(zt[i])))
            # quasi-periods of zeta: +g1 across 1, +g1*tau - 2 pi i across tau
            res["quasi_period_1"].append(
                abs(zeta_1[i] - zt[i] - ctx.g1) / max(1.0, abs(zt[i])))
            res["quasi_period_tau"].append(
                abs(zeta_tau[i] - zt[i]
                    - (ctx.g1 * ctx.tau - elliptic.TWO_PI_I))
                / max(1.0, abs(zt[i])))
            # wp(a) - wp(b) = -sigma(a+b) sigma(a-b) / (sigma(a)^2 sigma(b)^2)
            lhs = wa2[i] - wb2[i]
            rhs = -(s_sum[i] * s_diff[i] / (s_a2[i] ** 2 * s_b2[i] ** 2))
            res["sigma_wp_relation"].append(abs(lhs - rhs) / max(1.0, abs(lhs)))
            # addition: zeta(a+b) - zeta(a) - zeta(b)
            #           = (wp_z(a) - wp_z(b)) / (2 (wp(a) - wp(b)))
            if i in at_zb:
                zab, zb, zba = at_zb[i]
                lhs = zab - zt[i] - zb
                rhs = (wz[i] - wzb[i]) / (2 * (w[i] - wb[i]))
                res["addition"].append(abs(lhs - rhs) / max(1.0, abs(rhs)))
                qa = elliptic.q_zeta_form(ctx.g1, bs[i], zba, zt[i])
                qb = elliptic.q_rational_form(ctx.g1, bs[i], w[i], wb[i],
                                              wz[i], wzb[i], zb)
                res["q_weight_forms"].append(
                    abs(qa - qb) / max(1.0, abs(qa)))
            # modular derivatives against finite differences in tau
            for g, d in zip(("g1", "g2", "g3"), g_tau):
                fd = _fd(lambda k: getattr(step[k], g), _FD_H)
                res["g_tau"].append(abs(fd - d) / max(1.0, abs(d)))
            wp_t, zeta_t, log_sigma_t, _ = elliptic.tau_closed_forms(
                ctx, zs[i], w[i], wz[i], zt[i])
            fd = _fd(lambda k: stepped[k][0][i], _FD_H)
            res["wp_tau"].append(abs(fd - wp_t) / max(1.0, abs(wp_t)))
            fd = _fd(lambda k: stepped[k][1][i], _FD_H)
            res["zeta_tau"].append(abs(fd - zeta_t) / max(1.0, abs(zeta_t)))
            fd = _fd(lambda k: np.log(stepped[k][2][i]), _FD_H)
            res["log_sigma_tau"].append(
                abs(fd - log_sigma_t) / max(1.0, abs(log_sigma_t)))

    checks = [_residual_check(k, v, tol) for k, v in res.items()]
    # negative control: the cubic with both invariants 1% off must blow
    # up; g2 and g3 never vanish together (the discriminant is nonzero),
    # while g2 alone vanishes at tau = exp(2 pi i / 3)
    ctx = ctxs[0]
    bad = []
    for _ in range(5):
        z = sx.spectral_point(rng, ctx.tau)
        w = elliptic.wp(ctx, z)
        bad.append(abs(elliptic.wp_z(ctx, z) ** 2
                       - (4 * w ** 3 - 1.01 * (ctx.g2 * w + ctx.g3)))
                   / max(1.0, abs(w) ** 3))
    checks.append(_residual_check("control_wrong_invariant", bad, tol,
                                  negative=True, floor=1e-3))
    return SuiteReport(suite="identities", seed=seed,
                       params={"trials": trials, "tol": tol}, checks=checks)


@_timed
def run_oracle_suite(seed: int = 0, points: int = 20, radius: int = 200,
                     tol: float = 1e-5) -> SuiteReport:
    """Series fast path against the brute-force truncated lattice sums."""
    if points < 1:
        raise ValueError("points must be >= 1")
    rng = np.random.default_rng(seed)
    tau = sample_tau(rng)
    ctx = elliptic.make_context(tau)
    zs = [sx.spectral_point(rng, tau) for _ in range(points)]
    # one lattice for the points and the control's shifted point
    *oracle, shifted = elliptic.lattice_oracle(tau, zs + [0.33 + 0.21j],
                                               radius=radius)
    rw = [abs(v - o.wp) for v, o in zip(elliptic.wp_many(ctx, zs), oracle)]
    rz = [abs(v - o.zeta)
          for v, o in zip(elliptic.zeta_many(ctx, zs), oracle)]
    rs = [abs(v - o.sigma)
          for v, o in zip(elliptic.sigma_many(ctx, zs), oracle)]
    g2o, g3o = elliptic.eisenstein_oracle(tau, radius=200)
    checks = [
        _residual_check("wp_vs_lattice", rw, tol),
        _residual_check("zeta_vs_lattice", rz, tol),
        _residual_check("sigma_vs_lattice", rs, tol),
        _residual_check("eisenstein_vs_lattice",
                        [abs(ctx.g2 - g2o), abs(ctx.g3 - g3o)], 1e-3),
        _residual_check("control_shifted_point",
                        [abs(elliptic.wp(ctx, 0.31 + 0.21j) - shifted.wp)],
                        tol, negative=True, floor=1e-3),
    ]
    return SuiteReport(suite="oracle", seed=seed,
                       params={"points": points, "radius": radius,
                               "tol": tol},
                       checks=checks)


# ---------------------------------------------------------------------------
# Poisson suite

def _sample_jets(rng, table: dc.BracketTable, contexts: int,
                 per_context: int) -> list[dict]:
    """Jet samples of the table's fields, `per_context` of them at each of
    `contexts` modular parameters drawn from rng."""
    out = []
    for _ in range(contexts):
        ctx = elliptic.make_context(sample_tau(rng))
        out += [sx.sample_jets(ctx, table.fields, max_order=table.order() + 4,
                               seed=int(rng.integers(1 << 31)))
                for _ in range(per_context)]
    return out


def _table_residuals(table: dc.BracketTable, jets_list) -> list[float]:
    """Max |coefficient| of every antisymmetry and Jacobi defect over the
    sampled jets.  Symbolically zero defects contribute exact zeros."""
    out = []
    defects = []
    for a in table.fields:
        for b in table.fields:
            defects.append(dc.antisymmetry_defect(table, a, b))
    for tr in dc.jacobi_triples(table.fields):
        defects.append(dc.jacobi_defect(table, *tr))
    for d in defects:
        if d.is_zero():
            out.append(0.0)
            continue
        vals = np.abs(dc.evaluate_distpoly(d, jets_list))
        out.extend(np.max(vals, axis=0).tolist())
    return out


def _flip_one_entry(table: dc.BracketTable, a: str, b: str) -> dc.BracketTable:
    """The table with entry (a, b) negated; it shares the table's algebra,
    so Leibniz brackets on the other rows come from the memo."""
    entries = dict(table.entries)
    entries[(a, b)] = tuple(dc.DeltaTerm(-t.value, t.orders)
                            for t in entries[(a, b)])
    return dataclasses.replace(table, entries=entries)


@_timed
def run_poisson_suite(n: int = 2, seed: int = 0, jets: int = 20,
                      tol: float = 1e-8, corrupt: bool = False) -> SuiteReport:
    """Extraction, closed-form match, antisymmetry, Jacobi, descent and
    chart-independence checks for one field count n."""
    if n not in POISSON_NS:
        raise models.DomainError(f"n = {n} outside the supported range "
                                 f"{POISSON_NS[0]}..{POISSON_NS[-1]}")
    if jets < 1:
        raise ValueError("jets must be >= 1")
    rng = np.random.default_rng(seed)
    checks = []

    sc = models.thm3_extract(n)
    sc2 = models.appendix_table(n)
    mismatches = models.match_structconsts(sc, sc2)
    checks.append(CheckRecord(name="extract_matches_closed_form",
                              passed=not mismatches, exact=not mismatches,
                              detail="; ".join(map(str, mismatches[:3]))))
    if corrupt:
        P = dict(sc.P_poly)
        P[(0, 0)] += P[(0, 0)].ring.conv(jet(models.field_name(n)) ** 2)
        sc = models.StructConsts(n=sc.n, P=P, Q=sc.Q_poly,
                                 generator=sc.generator)
    table = sc.to_bracket_table()

    jets_list = _sample_jets(rng, table, 3, max(1, jets // 3))
    checks.append(_residual_check("antisymmetry_and_jacobi",
                                  _table_residuals(table, jets_list), tol))

    # centrality of the modular field against the spectral-basis ratios
    central = []
    za = [f for f in table.fields if f != sx.MODULAR_FIELD]
    for f in za[1:]:
        dp = dc.bracket_of_functions(table, jet(sx.MODULAR_FIELD),
                                     jet(f) / jet(za[0]))
        central.append(dp.is_zero())
    checks.append(CheckRecord(name="modular_centrality",
                              passed=all(central), exact=all(central)))

    # descent: Jacobi must survive in two different affine charts, at jets
    # of their own fields from a child generator each (so that the draws
    # of the control below do not move)
    for k, denom in enumerate((za[0], za[-1])):
        try:
            red = models.lemma1_descend(table, denom)
        except LoopBracketsError as e:
            checks.append(CheckRecord(name=f"descended_chart_{denom}",
                                      passed=False, detail=str(e)[:200]))
            continue
        sub = _sample_jets(np.random.default_rng([seed, k]), red, 1, 4)
        checks.append(_residual_check(f"descended_chart_{denom}",
                                      _table_residuals(red, sub), tol))

    # negative control: one flipped sign must break Jacobi
    bad = _flip_one_entry(table, za[0], za[-1])
    checks.append(_residual_check(
        "control_flipped_sign", _table_residuals(bad, jets_list[:2]),
        tol, negative=True, floor=1e-3))

    return SuiteReport(suite="poisson", seed=seed,
                       params={"n": n, "jets": jets, "tol": tol,
                               "corrupt": corrupt},
                       checks=checks)


@_timed
def run_prop2_suite(seed: int = 0, tol: float = 1e-9) -> SuiteReport:
    """The explicit two-field table: Poisson property, descent onto the
    affine line with the expected quartic-free cubic leading coefficient,
    and identification with the n = 2 extracted table."""
    rng = np.random.default_rng(seed)
    table = models.prop2_table()
    jets_list = _sample_jets(rng, table, 6, 1)
    checks = [_residual_check("antisymmetry_and_jacobi",
                              _table_residuals(table, jets_list), tol)]

    red = models.lemma1_descend(table, "z2")
    alg, p, L = red.alg, jet("p1"), red.scale
    G = alg.conv(-sp.Rational(1, 2) * (4 * p ** 3 - sx.g2 * p - sx.g3))
    c = {t.orders: t.value for t in red.entry("p1", "p1")}
    ok1 = c.get((1,)) == L * G
    ok0 = 2 * c.get((0,), alg.zero) == (
        L * alg.diff(G, alg.index[p]) * alg.gen(jet("p1", 1)))
    checks.append(CheckRecord(name="descent_leading_coefficient",
                              passed=ok1, exact=ok1))
    checks.append(CheckRecord(name="descent_delta_coefficient",
                              passed=ok0, exact=ok0))

    sols = models.linear_identifications(models.thm3_extract(2), table)
    checks.append(CheckRecord(
        name="identification_with_extracted_table", passed=bool(sols),
        exact=bool(sols), detail=str(sols)))

    bad = _flip_one_entry(table, "z1", "z2")
    checks.append(_residual_check(
        "control_flipped_sign", _table_residuals(bad, jets_list[:2]),
        tol, negative=True, floor=1e-3))
    return SuiteReport(suite="prop2", seed=seed, params={"tol": tol},
                       checks=checks)


@_timed
def run_thm2_suite(n: int = 2, trials: int = 10, seed: int = 0,
                   tol: float = 1e-8) -> SuiteReport:
    """Sigma-function realization of the generating-field bracket with
    lambda = 1/n over the flat-coordinate table."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    res, rows, bad = [], [], []

    def rc(scale):
        return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))

    for _ in range(trials):
        ctx = elliptic.make_context(sample_tau(rng))
        t = [rc(0.12) for _ in range(n - 1)]
        f = rc(1.0) + 2.0
        jets = {f"t{c + 1}": rc(0.3) for c in range(n - 1)}
        jets["tau"] = rc(0.3)
        jets["f"] = rc(0.3)
        real = models.thm2_realization(ctx, n, t, f, jets)
        up = complex(rng.uniform(0.15, 0.35), rng.uniform(0.1, 0.3))
        vp = complex(rng.uniform(-0.35, -0.15), rng.uniform(0.1, 0.3))
        res.append(models.thm2_bracket_residual(ctx, n, real, up, vp))
        rows.append(models.thm2_modular_row_residual(ctx, real, up))
        # negative control: wrong coupling constant
        bad.append(models.thm2_bracket_residual(ctx, n, real, up, vp,
                                                lam=1.0 / n + 0.25))
    checks = [
        _residual_check("generating_field_bracket", res, tol),
        _residual_check("modular_row", rows, tol),
        _residual_check("control_wrong_coupling", bad, tol,
                        negative=True, floor=1e-3),
    ]
    return SuiteReport(suite="thm2", seed=seed,
                       params={"n": n, "trials": trials, "tol": tol},
                       checks=checks)


@_timed
def run_nogo_suite(s: complex = 2.0, restarts: int = 100,
                   seed: int = 0, threshold: float = 1e-3) -> SuiteReport:
    """Infeasibility certificate for the constant-coefficient homogeneous
    lift on two fields, plus the feasible self-test of the optimizer."""
    sysm = models.prop1_system(s)
    cert = models.prop1_certificate(sysm, restarts=restarts, seed=seed)
    selftest = models.prop1_feasible_selftest(seed=seed)
    checks = [
        CheckRecord(name="lifting_system_infeasible",
                    passed=cert["min_residual"] > threshold,
                    max_residual=cert["min_residual"],
                    median_residual=cert["median_residual"],
                    detail=f"restarts={restarts}"),
        CheckRecord(name="control_feasible_selftest",
                    passed=selftest["min_residual"] < 1e-10,
                    max_residual=selftest["min_residual"],
                    median_residual=selftest["median_residual"],
                    negative_control=True,
                    detail="optimizer reaches feasible points when they exist"),
    ]
    return SuiteReport(suite="nogo", seed=seed,
                       params={"s": str(s), "restarts": restarts,
                               "threshold": threshold},
                       checks=checks)


@_timed
def run_cp2_suite(g2val=1, g3val=sp.Rational(1, 2)) -> SuiteReport:
    """Exact descent of the three-field quadratic bracket to the
    projective-plane bracket, plus its exact Jacobi check."""
    res = models.cp2_check(g2val, g3val)
    bad = models.cp2_check(g2val, g3val, corrupt=True)
    checks = [
        CheckRecord(name="descent_exact", passed=res["descent_exact"],
                    exact=res["descent_exact"]),
        CheckRecord(name="jacobi_exact", passed=res["jacobi_exact"],
                    exact=res["jacobi_exact"]),
        CheckRecord(name="control_corrupted_casimir",
                    passed=not (bad["descent_exact"] and bad["jacobi_exact"]),
                    exact=False, negative_control=True),
    ]
    return SuiteReport(suite="cp2", seed=0,
                       params={"g2": str(g2val), "g3": str(g3val)},
                       checks=checks)
