import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import brenier_bounds.constants as constants_mod
import brenier_bounds.verify as verify_mod
from brenier_bounds import (PotentialSpec, Scenario, bound_from_terms,
                            gamma, lipschitz_empirical, limit_sweep_D,
                            limit_sweep_caffarelli, radial_map, run_scenario,
                            second_variation_check)


def quad(a, n=1):
    return PotentialSpec.quadratic(a, n)


def scenario(name="s", V=None, W=None, n=1, d=2.0, D=2.0, R=math.inf, **kw):
    V = V or quad(1.0)
    W = W or quad(1.0)
    return Scenario(name=name, V=V, W=W, n=n, d=d, D=D, R=R, **kw)


@pytest.fixture
def ball_scans(monkeypatch):
    """Counter of structural-constant scans by (id(potential), p, ball radius)."""
    scans = Counter()
    real = constants_mod._sups

    def counting(U, q, grid):
        scans[id(U), q, float(grid[-1])] += 1
        return real(U, q, grid)
    monkeypatch.setattr(constants_mod, "_sups", counting)
    return scans


@st.composite
def quadratic_scenarios(draw):
    """Quadratic V and W, n in {1, 2, 3}, d in [n, 40] or inf, D in {d, d + k, inf}, finite R."""
    n = draw(st.sampled_from([1, 2, 3]))
    aV, aW = draw(st.floats(0.2, 4.0)), draw(st.floats(0.2, 4.0))
    d = math.inf if draw(st.integers(0, 3)) == 0 else draw(st.floats(float(n), 40.0))
    D = draw(st.sampled_from([d, d + draw(st.floats(0.5, 40.0)), math.inf]))
    R = draw(st.floats(0.5, 20.0))
    return scenario(V=quad(aV, n), W=quad(aW, n), n=n, d=d, D=D, R=R)


class TestBoundFloats:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(quadratic_scenarios())
    def test_every_applicable_bound_is_a_finite_float(self, s):
        for label, compute in verify_mod.applicable_bounds(s).items():
            rep = compute()
            for x in (rep.B, rep.bound):
                assert isinstance(x, float) and math.isfinite(x) and x >= 0.0, (label, rep)
            assert rep.bound == bound_from_terms(rep.A, rep.B), (label, rep)
        if math.isfinite(s.d):
            assert gamma(s.d, s.d) == math.inf

    def test_finite_parameter_bound_needs_both_parameters_finite(self):
        labels = lambda **kw: set(verify_mod.applicable_bounds(scenario(R=3.0, **kw)))  # noqa: E731
        assert labels(d=3.0, D=4.0) == {"global", "local", "finite_global_sharp"}
        assert labels(d=3.0, D=math.inf) == {"global", "local"}
        # an inverted order d = inf > D: not offered, though every bound would raise
        assert labels(d=math.inf, D=4.0) == {"global", "local"}


class TestRunScenario:
    def test_identity_passes_with_all_bounds(self):
        rep = run_scenario(scenario(R=10.0,
                                    expected={"lipschitz": {"value": 1.0, "tol": 1e-8}}))
        assert rep.passed and rep.reason == "ok"
        assert set(rep.margins) == {"global", "local", "finite_global_sharp"}
        assert all(m >= 0.0 for m in rep.margins.values())
        assert rep.residual_max < 1e-7

    def test_expected_value_mismatch_fails(self):
        rep = run_scenario(scenario(expected={"lipschitz": {"value": 3.0, "tol": 1e-3}}))
        assert not rep.passed
        assert "Lipschitz" in rep.reason

    def test_inverted_order_keeps_the_map_but_drops_bounds(self):
        rep = run_scenario(scenario(
            d=3.0, D=1.0, grid_min=10 ** 1.5, grid_max=10 ** 4.2, grid_points=300,
            expected={"slope": {"value": 5.0, "tol": 0.05, "window": (1e2, 1e4)}}))
        assert rep.passed
        assert "bounds" in rep.inapplicable
        assert not rep.bounds and not rep.margins
        assert rep.slope["slope"] == pytest.approx(5.0, abs=0.05)

    def test_slope_off_its_expected_value_fails(self):
        rep = run_scenario(scenario(
            d=3.0, D=1.0, grid_min=10 ** 1.5, grid_max=10 ** 4.2, grid_points=300,
            expected={"slope": {"value": 3.0, "window": (1e2, 1e4)}}))
        assert not rep.passed
        assert rep.reason == f"slope {rep.slope['slope']:g} not within 0.05 of 3"

    def test_slope_window_with_too_few_grid_points_fails(self):
        rep = run_scenario(scenario(
            d=3.0, D=1.0, grid_min=10 ** 1.5, grid_max=10 ** 4.2, grid_points=300,
            expected={"slope": {"value": 5.0, "window": (1e2, 1.05e2)}}))
        assert not rep.passed and rep.slope is None
        assert rep.reason == "component errors: ['slope']"
        assert rep.errors["slope"].startswith("EmptyWindow: need >= 20 grid points")

    def test_expected_regime_missing_fails(self):
        rep = run_scenario(scenario(R=10.0, expected={
            "bound": {"regime": "caffarelli", "value": 1.0, "tol": 1.0}}))
        assert not rep.passed
        assert rep.reason == "expected a bound in regime 'caffarelli'"

    def test_bound_off_its_expected_value_fails(self):
        rep = run_scenario(scenario(R=10.0, expected={
            "bound": {"regime": "local", "value": 1.0, "tol": 0.5}}))
        got = [b.bound for b in rep.bounds if b.regime == "local"][0]
        assert not rep.passed and got > 1.5
        assert rep.reason == f"bound {got!r} not within 0.5 of 1.0"

    def test_negative_control_dishonest_constant_fails_dominance(self):
        # declaring a Hessian lower bound far above the truth shrinks the
        # Caffarelli bound below the measured Lipschitz constant
        W = PotentialSpec(1, quad(0.25).profile, hess_upper=0.5, hess_lower=50.0)
        rep = run_scenario(scenario(W=W, d="inf", D="inf"))
        assert not rep.passed
        assert "dominance" in rep.reason

    def test_sharp_gaussian_scaling_in_two_dimensions_passes(self):
        # the Caffarelli bound equals the map's Lipschitz constant here, so
        # the map must be accurate to well below the 1e-9 dominance guard;
        # t' deep in the tail is conditioned at ~2 t^2 eps, hence 1e-11
        rep = run_scenario(scenario(V=quad(1.0, 2), W=quad(0.49, 2), n=2,
                                    d="inf", D="inf"))
        assert rep.passed, rep.reason
        assert abs(rep.margins["caffarelli"]) < 1e-11

    def test_each_global_scan_runs_once_per_potential(self, ball_scans):
        # the R = inf constants scan the ball of radius max(1, sqrt(p)) once
        scans = ball_scans
        V = PotentialSpec.one_dim(lambda x: x ** 2, lambda x: 2.0 * x, 2.0, 2.0)
        W = PotentialSpec.one_dim(lambda x: x ** 2, lambda x: 2.0 * x, 2.0, 2.0)
        rep = run_scenario(scenario(V=V, W=W, R=5.0))
        assert rep.passed, rep.reason
        assert scans[id(V), 2.0, math.sqrt(2.0)] == 1
        assert set(scans.values()) == {1}

    def test_failed_global_scan_runs_once_per_potential(self, ball_scans):
        # a tabulated V that declares no Hessian lower bound has void R = inf
        # constants, before any scan, in every bound that needs them, and
        # each finite ball is scanned once
        scans = ball_scans
        r = np.arange(0.0, 20.125, 0.25)
        V = PotentialSpec.tabulated(r, r ** 2, hess_upper=2.0)
        rep = run_scenario(scenario(V=V, R=5.0))
        assert scans[id(V), 2.0, math.sqrt(2.0)] == 0
        assert set(scans.values()) == {1}  # the finite balls, once each
        assert set(rep.errors) == {"global", "local", "finite_global_sharp"}
        assert all(msg == "VoidBound: global structural constants need far-field "
                          "Hessian bounds 0 < lower <= upper < inf, got (lower, "
                          "upper) = (None, 2.0)"
                   for msg in rep.errors.values())

    @pytest.mark.parametrize("n,d,D,R", [(1, 2, 2, 5), (3, 6, 6, 5), (1, 2, "inf", 5),
                                         (3, "inf", "inf", 5), (1, 3, 4, 3), (3, 4, "inf", 2)])
    def test_tabulated_quadratic_verifies_as_the_quadratic(self, n, d, D, R):
        # r^2 at 201 nodes on [0, 20], declared [2, 2]: every bound and the
        # empirical Lipschitz constant are those of |x|^2
        r = np.linspace(0.0, 20.0, 201)
        V = PotentialSpec.tabulated(r, r ** 2, dimension=n, hess_upper=2.0, hess_lower=2.0)
        got = run_scenario(scenario(V=V, W=V, n=n, d=d, D=D, R=R))
        want = run_scenario(scenario(V=quad(1.0, n), W=quad(1.0, n), n=n, d=d, D=D, R=R))
        assert got.passed and want.passed, got.reason
        assert not got.errors
        assert [b.regime for b in got.bounds] == [b.regime for b in want.bounds]
        for b, w in zip(got.bounds, want.bounds):
            assert b.bound == pytest.approx(w.bound, rel=1e-10), b.regime
        assert got.empirical.value == pytest.approx(want.empirical.value, rel=1e-12)

    @pytest.mark.parametrize("r0", [0.5, 2.0])
    def test_a_table_from_above_the_origin_verifies_as_the_quadratic(self, r0):
        # r^2 at 200 nodes from r0 > 0, declared [2, 2] at n = 3: below r0 the
        # profile is the even quadratic through r0's value and slope, so U'/r
        # is 2 at the origin too (a slope extrapolated to r = 0 was -2.3e-15
        # or 2.0e-13 there, which made U'/r unbounded)
        r = np.linspace(r0, 20.0, 200)
        V = PotentialSpec.tabulated(r, r ** 2, dimension=3, hess_upper=2.0, hess_lower=2.0)
        assert V.profile.tangential_range() == pytest.approx((2.0, 2.0), rel=1e-10)
        got = run_scenario(scenario(V=V, W=V, n=3, d=6, D=6, R=5))
        want = run_scenario(scenario(V=quad(1.0, 3), W=quad(1.0, 3), n=3, d=6, D=6, R=5))
        assert got.passed and want.passed, got.reason
        assert not got.errors
        assert [b.regime for b in got.bounds] == [b.regime for b in want.bounds]
        for b, w in zip(got.bounds, want.bounds):
            assert b.bound == pytest.approx(w.bound, rel=1e-10), b.regime

    @pytest.mark.parametrize("R", [0.0, -1.0, math.nan, -math.inf])
    def test_scenario_rejects_a_radius_that_is_not_positive(self, R):
        with pytest.raises(ValueError, match=r"^scenario.R: expected a positive number, got "):
            scenario(R=R)
        assert scenario(R=math.inf).R == math.inf

    @pytest.mark.parametrize("grid,match", [
        ({"grid_min": 0.0}, r"^solver.grid_min: expected a positive finite number, got 0.0$"),
        ({"grid_min": -1}, r"^solver.grid_min: expected a positive finite number, got -1.0$"),
        ({"grid_max": math.inf}, r"^solver.grid_max: expected a positive finite number, got inf$"),
        ({"grid_max": math.nan}, r"^solver.grid_max: expected a positive finite number, got nan$"),
        ({"grid_min": 100.0, "grid_max": 1.0},
         r"^solver: the map grid's lower end 100 is not below its upper end 1$"),
        ({"grid_points": 9}, r"^solver.grid_points: a map needs at least 10 points, got 9$")])
    def test_scenario_rejects_a_map_grid_it_cannot_build(self, grid, match):
        # before any computation: a grid_min of 0 once ended in a math domain
        # error, grid_max = inf in a NaN grid
        with pytest.raises(ValueError, match=match):
            scenario(**grid)
        # grid_max is widened to R, so this lower end lies below the upper one
        assert scenario(grid_min=100.0, grid_max=1.0, R=200.0).grid()[0] == 100.0

    def test_map_range_reports_the_truncated_grid(self):
        rep = run_scenario(scenario(W=quad(0.25), d="inf", D="inf"))
        r = rep.map_range
        assert r["requested_max"] == pytest.approx(50.0)
        assert r["requested_points"] == 400
        assert r["points"] == 374
        assert r["effective_max"] == pytest.approx(24.7, abs=0.05)
        assert rep.to_dict()["map_range"] == r

    def test_map_range_reports_where_the_map_starts(self):
        # at n = 100 the source head mass underflows near the origin, so the
        # map starts past the grid's lower end
        rep = run_scenario(scenario(V=quad(1.0, 100), W=quad(0.5, 100), n=100,
                                    d="inf", D="inf", R=5.0))
        r = rep.map_range
        assert r["requested_min"] == 0.001
        assert r["effective_min"] == pytest.approx(0.0070459, rel=1e-5)
        assert (r["points"], r["requested_points"]) == (308, 401)
        assert r["effective_max"] == pytest.approx(28.29, abs=0.005)

    def test_report_serialization_schema(self):
        rep = run_scenario(scenario(R=1.0))
        doc = rep.to_dict()
        assert {"scenario", "bounds", "empirical", "margins", "slacks",
                "pass", "reason"} <= set(doc)
        assert isinstance(doc["bounds"], list) and doc["bounds"]


class TestWindowEdges:
    def test_second_variation_is_checked_at_the_lipschitz_argmax(self):
        # a flat identity map, where the eigenvalue's maximizer is decided by rounding
        a = 0.9690231147834004
        s = scenario(V=quad(a, 3), W=quad(a, 3), n=3, d=6.0, D=6.0, R=5.0)
        m = radial_map(s.V, s.W, s.d, s.D, s.n, s.grid())
        sv = second_variation_check(m, s.V, s.W, s.d, s.D, 5.0)
        est = lipschitz_empirical(m, 5.0)
        assert (sv.maximizer_r, sv.eigenvalue, sv.component) == \
            (est.argmax_r, est.value, est.component)
        assert sv.maximizer_t == m.t[m.r_grid == est.argmax_r][0]

    @pytest.mark.parametrize("d,R", [(2.0, 10.0), (2.0, 200.0), ("inf", math.inf)])
    def test_grid_holds_the_window_edges_as_nodes(self, d, R):
        s = scenario(d=d, D=d, R=R)
        grid = s.grid()
        assert s.window() in grid and s.proxy_radius() in grid
        assert np.all(np.diff(grid) > 0)

    def test_counterexample_sup_reaches_the_proxy_edge(self):
        s = scenario(d=3.0, D=1.0, grid_points=300, grid_min=10 ** 1.5, grid_max=10 ** 4.2)
        rep = run_scenario(s)
        assert rep.empirical.argmax_r == s.proxy_radius()


class TestLimitSweeps:
    def test_target_parameter_sweep_converges_to_endpoint(self):
        rep = limit_sweep_D(quad(1.0), quad(1.0), 1, 1.0, 1.0, [2, 10, 100, 1000])
        assert rep.passed, rep.reason
        assert all(row["xi"] == 0.0 for row in rep.rows)
        lambdas = [row["lambda"] for row in rep.rows]
        assert all(b <= a for a, b in zip(lambdas, lambdas[1:]))
        assert abs(rep.rows[-1]["bound"] - rep.endpoint_bound) <= 0.05 * rep.endpoint_bound

    def test_caffarelli_sweep_reaches_the_sharp_ratio(self):
        V = quad(0.5)
        rep = limit_sweep_caffarelli(V, V, 1, [10, 100, 1e4, 1e6], [1.0, 3.0, 10.0])
        assert rep.passed, rep.reason
        assert rep.sharp_value == 1.0
        assert rep.final_gap < 0.01
        assert rep.wrong_order_rows  # the reversed order is tabulated, not asserted

    def test_caffarelli_sweep_evaluates_each_endpoint_bound_once(self, monkeypatch):
        calls = []
        real = verify_mod.local_bound

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(verify_mod, "local_bound", counting)
        d_list, R_list = [10, 100, 1e4], [1.0, 3.0]
        rep = limit_sweep_caffarelli(quad(0.5), quad(0.5), 1, d_list, R_list)
        assert len(calls) == len(d_list) * len(R_list)
        by_key = {(r["R"], r["d"]): r for r in rep.rows}
        assert [by_key[r["R"], r["d"]]["bound"] for r in rep.wrong_order_rows] == \
            [r["bound"] for r in rep.wrong_order_rows]
