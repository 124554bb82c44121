"""End-to-end acceptance gate.

Nine criteria, each with its stated tolerance and wall-clock budget:

 1. special-function identity suite     < 1e-9,  100 pts x 3 tau, < 10 s
 2. series path vs lattice oracle       < 1e-5,  20 pts, radius 200, < 60 s
 3. exact cross-derivation              exact, n = 2..6, < 5 min total
 4. antisymmetry + Jacobi residuals     < 1e-8, controls > 1e-3, < 5 min
 5. explicit two-field table + descent   Poisson, cubic coefficient, < 1e-9
 6. generating-field realization        < 1e-8, 10 samples, n = 2 and 3
 7. modular-field centrality            exactly zero, n = 2..6
 8. three-field warm-up                 exact descent + exact Jacobi
 9. obstruction certificate             min residual above the calibrated
                                        threshold (0.05; observed 0.308919),
                                        self-test < 1e-10, < 2 min
"""

import time

import numpy as np
import pytest
import sympy as sp

from loopbrackets import distcalc as dc
from loopbrackets import elliptic
from loopbrackets import models
from loopbrackets import symexpr as sx
from loopbrackets import verify
from loopbrackets.symexpr import jet

SEED = 0

# calibrated from the restart statistics of criterion 9: over 100 seeded
# restarts (seed 0) the smallest squared residual is 0.308919, far above
# both this threshold and the 1e-3 floor
NOGO_THRESHOLD = 0.05


@pytest.fixture(scope="module")
def derivations():
    """Both derivation routes for every n, with the build time recorded."""
    t0 = time.time()
    out = {n: (models.thm3_extract(n), models.appendix_table(n))
           for n in range(2, 7)}
    return out, time.time() - t0


@pytest.fixture(scope="module")
def tables(derivations):
    pairs, _ = derivations
    return {n: pairs[n][0].to_bracket_table() for n in pairs}


def test_criterion_1_identity_suite():
    t0 = time.time()
    rep = verify.run_identity_suite(seed=SEED, trials=100, tol=1e-9)
    elapsed = time.time() - t0
    assert rep.passed, [c.to_dict() for c in rep.checks if not c.passed]
    assert elapsed < 10.0


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    rep = verify.run_oracle_suite(seed=SEED, points=20, radius=200, tol=1e-5)
    elapsed = time.time() - t0
    assert rep.passed, [c.to_dict() for c in rep.checks if not c.passed]
    assert elapsed < 60.0


def test_criterion_3_exact_cross_derivation(derivations):
    pairs, build_time = derivations
    t0 = time.time()
    for n, (a, b) in pairs.items():
        assert models.match_structconsts(a, b) == [], f"n={n}"
    assert build_time + (time.time() - t0) < 300.0


def test_criterion_4_poisson_property(tables):
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    for n, table in tables.items():
        jets_list = []
        for _ in range(3):
            ctx = elliptic.make_context(verify.sample_tau(rng))
            for _ in range(20):
                jets_list.append(sx.sample_jets(
                    ctx, table.fields, max_order=table.order() + 4,
                    seed=int(rng.integers(1 << 31))))
        res = verify._table_residuals(table, jets_list)
        assert max(res) < 1e-8, f"n={n}: max residual {max(res)}"

        za = [f for f in table.fields if f != sx.MODULAR_FIELD]
        bad = verify._flip_one_entry(table, za[0], za[-1])
        bad_res = verify._table_residuals(bad, jets_list[:3])
        assert max(bad_res) > 1e-3, f"n={n}: control not detected"
    assert time.time() - t0 < 300.0


def test_criterion_5_explicit_two_field_table():
    rep = verify.run_prop2_suite(seed=SEED, tol=1e-9)
    assert rep.passed, [c.to_dict() for c in rep.checks if not c.passed]
    # the descended delta'-coefficient is exactly the expected cubic
    red = models.lemma1_descend(models.prop2_table(), "z2")
    p = jet("p1")
    G = -(4 * p ** 3 - sx.g2 * p - sx.g3) / 2
    lead = next(t.value.as_expr() / red.scale
                for t in red.entry("p1", "p1") if t.orders == (1,))
    assert sp.expand(lead - G) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_6_generating_field_realization(n):
    rep = verify.run_thm2_suite(n=n, trials=10, seed=SEED, tol=1e-8)
    assert rep.passed, [c.to_dict() for c in rep.checks if not c.passed]


def test_criterion_7_modular_centrality(tables):
    for n, table in tables.items():
        za = [f for f in table.fields if f != sx.MODULAR_FIELD]
        for f in za[1:]:
            dp = dc.bracket_of_functions(table, jet(sx.MODULAR_FIELD),
                                         jet(f) / jet(za[0]))
            assert dp.is_zero(), f"n={n}, field {f}"


def test_criterion_8_three_field_warmup():
    rep = verify.run_cp2_suite()
    assert rep.passed, [c.to_dict() for c in rep.checks if not c.passed]
    exact = [c for c in rep.checks if not c.negative_control]
    assert exact and all(c.exact for c in exact)


def test_criterion_9_obstruction_certificate():
    t0 = time.time()
    sys_ = models.prop1_system(2.0)
    cert = models.prop1_certificate(sys_, restarts=100, seed=SEED)
    assert cert["min_residual"] > NOGO_THRESHOLD
    assert cert["min_residual"] > 1e-3
    selftest = models.prop1_feasible_selftest(seed=SEED)
    assert selftest["min_residual"] < 1e-10
    assert time.time() - t0 < 120.0
