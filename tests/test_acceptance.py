"""Acceptance suite: one test per primary criterion, one pass line each.

Every criterion is checked at its stated tolerance and wall-clock budget.
Shared map constructions are built once per module and reused so the
mass-conservation criterion can audit the whole sweep.
"""

import math
import time

import numpy as np
import pytest

from brenier_bounds import (INF, PotentialSpec, Scenario,
                            finite_global_sharp_bound, finite_growth_constants,
                            bound_from_terms, global_bound,
                            growth_data, limit_sweep_D, limit_sweep_caffarelli,
                            lipschitz_empirical, local_bound,
                            mglob_uniformity_check,
                            quantile_map_1d, radial_map, run_scenario,
                            second_variation_check, slope_fit)

QUAD = PotentialSpec.quadratic(1.0, 1)
QUAD_QUARTER = PotentialSpec.quadratic(0.25, 1)

# dominance margins may sit a hair below zero from float noise at exactly
# sharp scenarios; this is the library-wide rounding guard
MARGIN_GUARD = -1e-9


def _announce(num, label):
    print(f"\n[acceptance] criterion {num} ({label}): PASS")


@pytest.fixture(scope="module")
def sweep_maps():
    """Every map the acceptance sweep constructs, for the residual audit."""
    return {}


@pytest.fixture(scope="module")
def identity_reports(sweep_maps):
    t0 = time.perf_counter()
    reports = []
    for dv in (1.0, 2.0, 10.0):
        d = float(dv)
        m = radial_map(QUAD, QUAD, d, d, 1)
        sweep_maps[f"identity_d{dv:g}"] = m
        for R in (1.0, 10.0):
            emp = lipschitz_empirical(m, R)
            reports.append({
                "d": dv, "R": R, "m": m, "empirical": emp,
                "global": global_bound(QUAD, QUAD, 1, d, d).bound,
                "local": local_bound(QUAD, QUAD, 1, d, d, R).bound,
                "sharp": finite_global_sharp_bound(QUAD, QUAD, 1, dv, dv).bound,
            })
    return {"reports": reports, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def caffarelli_map(sweep_maps):
    m = radial_map(QUAD, QUAD_QUARTER, INF, INF, 1)
    sweep_maps["caffarelli"] = m
    return m


def test_criterion_01_identity_dominance(identity_reports):
    for rep in identity_reports["reports"]:
        assert rep["empirical"].value == pytest.approx(1.0, abs=1e-8), rep
        for key in ("global", "local", "sharp"):
            assert rep[key] >= 1.0, (key, rep)
    assert identity_reports["elapsed"] < 5.0
    _announce(1, "identity dominance")


def test_criterion_02_caffarelli_sharpness(caffarelli_map):
    emp = lipschitz_empirical(caffarelli_map, math.inf)
    assert emp.value == pytest.approx(2.0, abs=1e-7)
    rep = local_bound(QUAD, QUAD_QUARTER, 1, INF, INF, math.inf)
    assert rep.regime == "caffarelli"
    assert rep.bound == 2.0  # sqrt(C_V2 / c_W2), exact in floats
    margin = rep.bound - emp.value
    assert MARGIN_GUARD <= margin <= 1e-6
    _announce(2, "Caffarelli sharpness")


def test_criterion_03_counterexample_exponent(sweep_maps):
    t0 = time.perf_counter()
    grid = np.logspace(1.2, 4.2, 300)
    for dv, want in ((2.0, 3.0), (3.0, 5.0)):
        m = radial_map(QUAD, QUAD, float(dv), 1.0, 1, grid)
        sweep_maps[f"counterexample_d{dv:g}"] = m
        slope, r2 = slope_fit(m, 1e2, 1e4)
        assert slope == pytest.approx(want, abs=0.05)
        assert r2 > 0.999
        big = lipschitz_empirical(m, 1e3).value
        small = lipschitz_empirical(m, 10 ** 1.5).value
        assert big / small >= 50.0
    assert time.perf_counter() - t0 < 10.0
    _announce(3, "counterexample exponent, no global Lipschitz bound")


def test_criterion_04_uniform_m_chain():
    t0 = time.perf_counter()
    rep = mglob_uniformity_check([1, 2, 3], range(1, 51), range(1, 51))
    assert rep.all_pass
    assert rep.max_one_plus_m <= 1e6
    assert rep.e2_product == pytest.approx(923632.0, abs=1.0)
    assert rep.e2_product < 924000.0
    assert rep.tau_endpoint_value == pytest.approx(math.log(15625.0), abs=1e-9)
    for row in rep.rows:
        assert row["pass"], row
    assert time.perf_counter() - t0 < 20.0
    _announce(4, "uniform-M proof chain on the full grid")


ORACLE_CASES = [
    ("cauchy_identity", QUAD, QUAD, "1", "1"),
    ("gaussian_scaling", QUAD, QUAD_QUARTER, "inf", "inf"),
    ("heavier_to_lighter", QUAD, PotentialSpec.quadratic(0.5, 1), "2", "4"),
    ("same_parameter", PotentialSpec.quadratic(2.0, 1), QUAD, "3", "3"),
    ("toward_log_concave", QUAD, QUAD, "1", "inf"),
]


def test_criterion_05_oracle_equivalence(sweep_maps):
    t0 = time.perf_counter()
    grid = np.logspace(math.log10(0.01), math.log10(20.0), 200)
    for name, V, W, dd, DD in ORACLE_CASES:
        d, D = float(dd), float(DD)
        a = radial_map(V, W, d, D, 1, grid)
        b = quantile_map_1d(V, W, d, D, grid)
        sweep_maps[f"oracle_{name}"] = a
        sweep_maps[f"oracle_{name}_quantile"] = b
        assert np.max(np.abs(a.t / b.t - 1.0)) <= 1e-7, name
    assert time.perf_counter() - t0 < 10.0
    _announce(5, "tail-table map equals the quantile oracle")


def test_criterion_06_mass_conservation(identity_reports, caffarelli_map,
                                         sweep_maps):
    assert len(sweep_maps) >= 10  # the shared sweep really was exercised
    for name, m in sweep_maps.items():
        assert float(np.max(np.abs(m.residuals))) <= 1e-7, name
    _announce(6, "mass conservation across the sweep")


def test_criterion_07_limit_regimes():
    t0 = time.perf_counter()
    drep = limit_sweep_D(QUAD, QUAD, 1, 1.0, 1.0, [2, 10, 100, 1000])
    assert drep.passed, drep.reason
    assert all(row["xi"] == 0.0 for row in drep.rows)
    assert abs(drep.rows[-1]["lambda"] - 1.0) <= 0.05
    assert abs(drep.rows[-1]["bound"] - drep.endpoint_bound) \
        <= 0.05 * drep.endpoint_bound

    V = PotentialSpec.quadratic(0.5, 1)
    crep = limit_sweep_caffarelli(V, V, 1, [10, 100, 1e4, 1e6], [1.0, 3.0, 10.0])
    assert crep.passed, crep.reason
    assert crep.final_gap < 0.01
    assert time.perf_counter() - t0 < 30.0
    _announce(7, "limit regimes converge (D sweep and Caffarelli sweep)")


def test_criterion_08_bound_relation_sanity():
    glob = global_bound(QUAD, QUAD, 1, 1.0, 1.0).bound
    for n in (1, 2, 3):
        U = PotentialSpec.quadratic(1.0, n)
        g = global_bound(U, U, n, float(n), float(n))
        for d in range(n, 51):
            for D in range(d, 51):
                sharp = finite_global_sharp_bound(U, U, n, float(d), float(D))
                assert math.isfinite(sharp.bound), (n, d, D)
                assert sharp.bound <= g.bound, (n, d, D)
    rng = np.random.default_rng(20260826)
    a = rng.uniform(0.0, 1e6, 1000)
    b1 = rng.uniform(0.0, 1e6, 1000)
    b2 = b1 + rng.uniform(1e-9, 1e6, 1000)
    for ai, lo, hi in zip(a, b1, b2):
        assert bound_from_terms(ai, float(hi)) >= bound_from_terms(ai, float(lo))
    assert glob == pytest.approx(11401.4169, rel=1e-5)
    _announce(8, "sharp bound below global bound; B-monotonicity")


def test_criterion_09_second_variation_slack(identity_reports, caffarelli_map):
    for dv in (1.0, 2.0, 10.0):
        d = float(dv)
        m = [r["m"] for r in identity_reports["reports"] if r["d"] == dv][0]
        for R in (1.0, 10.0, math.inf):
            rep = second_variation_check(m, QUAD, QUAD, d, d, R)
            assert rep.min_slack >= -1e-6, (dv, R, rep.min_slack)
            assert {e.epsilon for e in rep.entries} == {0.1, 0.5, 0.9}
    rep = second_variation_check(caffarelli_map, QUAD, QUAD_QUARTER,
                                 INF, INF, math.inf)
    assert rep.entries[0].inequality == "endpoint"
    assert rep.min_slack >= -1e-6
    _announce(9, "maximum-principle inequalities hold at the maximizer")


def test_criterion_10_regression_freeze():
    # independent oracles: plain arithmetic and closed forms, no library calls
    frozen_global = math.sqrt(33e6) + math.sqrt(32e6)     # = 11401.41689...
    got = global_bound(QUAD, QUAD, 1, 1.0, 1.0).bound
    assert got == pytest.approx(frozen_global, rel=1e-5)

    # K = 3 * (5/4 * 100 / 3)^(1/(2-1)) = 125; M = (d/D) K^2 = 15625
    k, m = finite_growth_constants(QUAD, QUAD, 1, 1, 1)
    assert k == pytest.approx(125.0, rel=1e-5)
    assert m == pytest.approx(15625.0, rel=1e-5)

    # Cauchy target: tail mass 1 - (2/pi) arctan(r); inverting at
    # m = 6/(101 pi) and tripling gives the frozen radius ~ 101.0
    m_frak = 6.0 / (101.0 * math.pi)
    frozen_fathi = 3.0 * math.tan(math.pi / 2.0 * (1.0 - m_frak))
    gd = growth_data(QUAD, QUAD, 1.0, 1.0, 1.0, 1)
    assert gd.m_frak == pytest.approx(m_frak, rel=1e-5)
    assert gd.fathi_radius == pytest.approx(frozen_fathi, rel=1e-5)
    assert gd.fathi_radius == pytest.approx(101.0, abs=0.1)
    _announce(10, "frozen derived constants match their oracles")
