import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc

from brenier_bounds import (DivergentIntegral, DomainError, EmptyWindow, INF,
                            InvalidOrder, PotentialSpec, RadialMap, default_grid,
                            lipschitz_empirical, quantile_map_1d, radial_map,
                            second_variation_check, slope_fit)
from brenier_bounds.potentials import Quadratic
from brenier_bounds.transport import _Line, tail_table


def quad(a, n=1):
    return PotentialSpec.quadratic(a, n)


class TestTailTable:
    def test_cauchy_closed_form_and_deep_inversion(self, quad1):
        t = tail_table(quad1, 1.0, 1)
        assert t.total == pytest.approx(math.pi / 2, rel=1e-10)
        for r in (1.0, 1e4, 1e7):
            assert t.tail(r) == pytest.approx(math.pi / 2 - math.atan(r), rel=1e-8)
        for target in (1e-9, 1e-15, 1e-19):
            assert t.invert(target)[0] == pytest.approx(1.0 / math.tan(target), rel=1e-8)

    def test_gaussian_closed_form(self, quad1):
        t = tail_table(quad1, INF, 1)
        assert t.total == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-10)
        assert t.tail(1.5) == pytest.approx(
            math.sqrt(math.pi) / 2 * math.erfc(1.5), rel=1e-9)

    def test_invert_at_full_mass_returns_origin(self, quad1):
        t = tail_table(quad1, INF, 1)
        assert t.invert(t.total) == (0.0, t.total)


class TestRadialMap:
    def test_identity(self, quad1):
        m = radial_map(quad1, quad1, 2.0, 2.0, 1)
        assert np.max(np.abs(m.t / m.r_grid - 1.0)) < 1e-10
        assert np.max(np.abs(m.residuals)) < 1e-10

    def test_identity_keeps_full_precision_at_the_origin(self):
        # n = 3: the head side keeps the digits that 1 - tail loses
        V, W = quad(1.0, 3), quad(1.0, 3)
        p = 6.0
        m = radial_map(V, W, p, p, 3)
        assert len(m.r_grid) == 400
        assert np.max(np.abs(m.t / m.r_grid - 1.0)) < 1e-13
        assert np.max(np.abs(m.t_prime - 1.0)) < 1e-13

    def test_gaussian_scaling_is_linear(self, quad1, quad_quarter):
        m = radial_map(quad1, quad_quarter, INF, INF, 1)
        assert np.max(np.abs(m.t / (2.0 * m.r_grid) - 1.0)) < 1e-10
        assert np.max(np.abs(m.t_prime - 2.0)) < 1e-10

    def test_monotonicity_is_validated(self):
        r = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            RadialMap(r, np.array([1.0, 0.5, 2.0]), np.ones(3), 1, np.zeros(3))
        with pytest.raises(ValueError):
            RadialMap(r, r.copy(), np.array([1.0, -1.0, 1.0]), 1, np.zeros(3))

    def test_default_grid_spans_the_documented_window(self):
        g = default_grid(4.0, points=100)
        assert g[0] == pytest.approx(1e-3 * 2.0)
        assert g[-1] == pytest.approx(50.0 * 2.0)
        assert len(g) == 100


class TestRadialMapRadiusCap:
    """d = 3 > D = 1 at n = 1: t grows like r^5, so the map reaches the target
    table's radius cap 1e30 long before the source tail underflows."""

    def test_stops_below_the_cap(self, quad1):
        r = np.logspace(1.5, 7.0, 300)
        m = radial_map(quad1, quad1, 3.0, 1.0, 1, r)
        assert len(m.r_grid) == 255 and np.array_equal(m.r_grid, r[:255])
        assert 1e29 < m.t[-1] < 1e30
        # source tail fraction I_x(5/2, 1/2) at x = 3/(3 + r^2) (Student t, five
        # degrees of freedom); the Cauchy target's is 1 - (2/pi) atan(t)
        t = 1.0 / np.tan(0.5 * math.pi * betainc(2.5, 0.5, 3.0 / (3.0 + m.r_grid ** 2)))
        assert np.max(np.abs(m.t / t - 1.0)) < 1e-13
        assert np.max(np.abs(m.residuals)) < 1e-20

    def test_too_few_points_below_the_cap(self, quad1):
        r = np.logspace(6.1, 9.0, 300)
        with pytest.raises(DivergentIntegral, match="radius cap 1e[+]30"):
            radial_map(quad1, quad1, 3.0, 1.0, 1, r)


class TestRadialMapHighDimension:
    """|x|^2 -> |x|^2 / 2 at d = D is t = sqrt(2) r. From n = 100 the head
    fractions at the default grid's low end underflow: the map starts at the
    first one above the floor 1e-280, as it stops at the last such tail."""

    @pytest.mark.parametrize("n,p,tol", [(100, INF, 1.1e-15), (200, 200.0, 4.1e-14),
                                         (200, 600.0, 2.5e-13), (200, INF, 1.8e-15),
                                         (300, INF, 1.1e-15)])
    def test_head_fractions_at_the_floor_are_cut(self, n, p, tol):
        m = radial_map(quad(1.0, n), quad(0.5, n), p, p, n)
        assert m.r_grid[0] > default_grid(p)[0] and m.r_grid.size >= 10
        np.testing.assert_allclose(m.t, math.sqrt(2.0) * m.r_grid, rtol=tol, atol=0)

    @pytest.mark.parametrize("p", [10.0, 30.0, INF])
    def test_no_point_is_cut_at_low_dimension(self, p):
        m = radial_map(quad(1.0, 10), quad(0.5, 10), p, p, 10)
        assert m.r_grid[0] == default_grid(p)[0]

    @pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                       reason="ROADMAP item 13: the radial weight overflows exp at n = 300, "
                              "finite p, and at n = 1000 (no log-peak shift yet)")
    @pytest.mark.parametrize("n,p", [(300, 300.0), (300, 900.0), (1000, 1000.0),
                                     (1000, 3000.0), (1000, INF)])
    def test_higher_dimensions_wait_for_the_log_peak_shift(self, n, p):
        radial_map(quad(1.0, n), quad(0.5, n), p, p, n)


class TestSharpGaussianMaps:
    """Gaussian pairs of the sharp Caffarelli ops: t = sqrt(aV/aW) r, t' = sqrt(aV/aW)."""

    @pytest.mark.parametrize("aV,aW,n", [(1.0, 0.49, 2), (1.02, 0.26, 1), (0.97, 0.24, 1)])
    def test_linear_to_rounding(self, aV, aW, n):
        m = radial_map(quad(aV, n), quad(aW, n), INF, INF, n)
        near = m.r_grid <= 25.0
        slope = math.sqrt(aV / aW)
        assert m.r_grid[near][-1] > 24.0
        np.testing.assert_allclose(m.t[near], slope * m.r_grid[near], rtol=1.1e-15, atol=0)
        np.testing.assert_allclose(m.t_prime[near], slope, rtol=5e-13, atol=0)


class TestQuantileOracle:
    def test_matches_radial_map_on_even_potentials(self, quad1):
        x = np.logspace(math.log10(0.01), math.log10(20.0), 60)
        for d, D in [(1.0, 1.0), (INF, INF), (2.0, 4.0)]:
            a = radial_map(quad1, quad(0.5), d, D, 1, x)
            b = quantile_map_1d(quad1, quad(0.5), d, D, x)
            assert np.max(np.abs(a.t / b.t - 1.0)) < 1e-7

    def test_shifted_potential_translates(self):
        V = PotentialSpec.one_dim(lambda x: (x - 1.0) ** 2,
                                  lambda x: 2.0 * (x - 1.0),
                                  hess_upper=2.0, hess_lower=2.0)
        W = quad(1.0)
        x = np.linspace(-3.0, 5.0, 41)
        m = quantile_map_1d(V, W, 1.0, 1.0, x)
        assert np.max(np.abs(m.t - (x - 1.0))) < 1e-8
        assert np.max(np.abs(m.t_prime - 1.0)) < 1e-8


def shifted_quad(a, s):
    return PotentialSpec.one_dim(lambda x: a * (x - s) ** 2, lambda x: 2.0 * a * (x - s),
                                 hess_upper=2.0 * a, hess_lower=2.0 * a)


class TestQuantileOracleClosedForms:
    """quantile_map_1d against exact maps on the benchmark's grid."""

    GRID = np.logspace(math.log10(0.01), math.log10(20.0), 200)

    @pytest.mark.parametrize("name,V,W,d,D,want", [
        ("cauchy_identity", quad(1.3), quad(1.3), 1.0, 1.0,
         lambda x: x),
        ("gaussian_scaling", quad(1.0), quad(0.3), INF, INF,
         lambda x: math.sqrt(1.0 / 0.3) * x),
        ("shifted_gaussian", quad(1.0), shifted_quad(0.3, 0.5), INF, INF,
         lambda x: math.sqrt(1.0 / 0.3) * x + 0.5),
    ])
    def test_exact_to_twelve_digits(self, name, V, W, d, D, want):
        m = quantile_map_1d(V, W, d, D, self.GRID)
        assert np.max(np.abs(m.t / want(self.GRID) - 1.0)) <= 1e-12, name
        assert np.max(np.abs(m.residuals)) <= 1e-13, name

    def test_never_builds_a_tail_table(self):
        V, W = quad(1.0), shifted_quad(0.5, 0.5)
        quantile_map_1d(V, W, 2.0, 4.0, self.GRID[::10])
        assert V._memo == {} and W._memo == {}

    def test_density_below_minus_p_raises(self):
        # U = x^2 - 2 reaches -2 <= -p at p = 1 near the origin
        V = PotentialSpec.one_dim(lambda x: x * x - 2.0, lambda x: 2.0 * x)
        with pytest.raises(DomainError, match="t > -p"):
            quantile_map_1d(V, quad(1.0), 1.0, 1.0,
                            self.GRID[::10])

    def test_tabulated_profile_matches_radial_map(self):
        # PCHIP is only C^1 at its nodes: without splitting there QUADPACK
        # warns of roundoff and the maps part by 6.7e-8
        r = 0.25 * np.arange(81)
        V = PotentialSpec.tabulated(r, r * r)
        d, D = 3.0, 5.0
        x = self.GRID[::4]
        a = radial_map(V, quad(0.5), d, D, 1, x)
        b = quantile_map_1d(V, quad(0.5), d, D, x)
        assert np.max(np.abs(a.t / b.t - 1.0)) <= 1e-10

    @pytest.mark.parametrize("d,D", [(3.0, 5.0), (2.0, 2.0)])
    def test_tabulated_profile_matches_radial_map_closely(self, d, D):
        # the table's panels end at the profile's nodes too, so both maps
        # integrate only smooth pieces: they agree to the oracle's accuracy
        r = 0.25 * np.arange(81)
        V = PotentialSpec.tabulated(r, r * r)
        x = self.GRID[::4]
        a = radial_map(V, quad(0.5), float(d), float(D), 1, x)
        b = quantile_map_1d(V, quad(0.5), float(d), float(D), x)
        assert np.max(np.abs(a.t / b.t - 1.0)) <= 1e-12


    def test_density_is_evaluated_in_few_array_calls(self, monkeypatch):
        # every mass and every root on the grid is batched: the potentials
        # are evaluated in a few dozen array calls, where a loop over the
        # 200 grid points would make at least 200
        calls, real = [], Quadratic.value

        def counting(self, r):
            calls.append(np.size(r))
            return real(self, r)

        monkeypatch.setattr(Quadratic, "value", counting)
        quantile_map_1d(PotentialSpec.quadratic(1.0, 1), PotentialSpec.quadratic(0.3, 1),
                        INF, INF, self.GRID)
        assert len(calls) <= 100


class TestQuantileOracleBothTails:
    """Signed grids: below the source median the oracle balances lower tails."""

    HALF = np.logspace(-3.0, 1.0, 120)
    GRID = np.concatenate((-HALF[::-1], HALF))

    @pytest.mark.parametrize("V,W,want", [
        (quad(1.8), quad(3.1), lambda x: math.sqrt(1.8 / 3.1) * x),
        (quad(1.0), shifted_quad(0.25, 0.5), lambda x: 2.0 * x + 0.5),
        # narrow target peaks far from the origin, where no piece of a mass
        # may step over them
        (quad(1.98), shifted_quad(3.37, -34.2), lambda x: math.sqrt(1.98 / 3.37) * x - 34.2),
        (quad(1.0), shifted_quad(3.6, -25.5), lambda x: math.sqrt(1.0 / 3.6) * x - 25.5),
    ])
    def test_gaussian_closed_forms(self, V, W, want):
        m = quantile_map_1d(V, W, INF, INF, self.GRID)
        assert len(m.t) == len(self.GRID)
        w = want(self.GRID)
        assert np.all(np.abs(m.t - w) <= 1e-12 * np.maximum(1.0, np.abs(w)))

    def test_odd_symmetry_toward_polynomial_tails(self):
        m = quantile_map_1d(quad(0.69), quad(0.96), INF, 4.0, self.GRID)
        assert len(m.t) == len(self.GRID)
        assert np.max(np.abs(m.t + m.t[::-1])) <= 1e-13

    def test_grid_through_the_median(self):
        # x = 0 balances a tail of exactly 1/2: its root sits on a bracket end
        x = np.linspace(-50.0, 50.0, 201)
        m = quantile_map_1d(quad(1.0), quad(1.0), 1.0, INF, x)
        assert abs(m.t[100]) <= 1e-15
        assert np.max(np.abs(m.t + m.t[::-1])) <= 1e-13


class TestQuantileOracleFarPeaks:
    """A non-radial line breaks at its mode, however far out its peak lies."""

    def test_total_of_a_narrow_far_peak(self):
        assert _Line(shifted_quad(3.37, -34.2), INF).total == pytest.approx(
            math.sqrt(math.pi / 3.37), rel=1e-13)

    # width 0.002, far narrower than the mode probe's spacing of 5.8 there:
    # the probe zooms in until the argmax's neighbours lie within the peak.
    # x near -98.67 carries ulp(98.67) = 1.4e-14 of rounding, 6e-12 of the
    # peak's width: totals at nearby shifts spread by +-1.7e-12, so a mass
    # is held to 1e-12 here, not 1e-13
    NARROW = (9.07e4, -98.67)

    def test_total_of_a_peak_between_probe_points(self):
        a, s = self.NARROW
        assert _Line(shifted_quad(a, s), INF).total == pytest.approx(
            math.sqrt(math.pi / a), rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_finite_p_total_of_a_peak_between_probe_points(self, p):
        # the integral of (1 + a x^2 / p)^-p is sqrt(p / a) B(1/2, p - 1/2)
        a, s = self.NARROW
        beta = math.gamma(0.5) * math.gamma(p - 0.5) / math.gamma(p)
        assert _Line(shifted_quad(a, s), p).total == pytest.approx(
            math.sqrt(p / a) * beta, rel=1e-12)

    def test_map_onto_a_peak_between_probe_points(self):
        a, s = self.NARROW
        x = np.linspace(-3.0, 3.0, 25)
        m = quantile_map_1d(quad(1.0), shifted_quad(a, s), INF, INF, x)
        want = x / math.sqrt(a) + s
        assert len(m.t) == len(x)
        assert np.all(np.abs(m.t - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("p", [INF, 3.0])
    def test_wide_peak_keeps_the_probe(self, p):
        # neighbours within the peak: the breaks are the origin, the probe's
        # argmax and its two neighbours, as without the zoom
        line = _Line(shifted_quad(0.25, 0.5), p)
        assert line.breaks.size == 4 and line.mode in line.breaks
        assert np.all(np.diff(line.breaks[1:]) < 0.1)


class TestQuantileOracleHeavyTails:
    """p = 1 (Cauchy) lines whose masses start far out: half-lines from 1e6,
    and roots near 1e14."""

    def test_cauchy_scaling(self):
        x = np.logspace(-2.0, 6.0, 200)
        m = quantile_map_1d(quad(1.0), quad(2.0), 1.0, 1.0, x)
        assert len(m.t) == len(x)
        assert np.max(np.abs(m.t / (x / math.sqrt(2.0)) - 1.0)) <= 1e-12

    def test_student_to_cauchy(self):
        x = np.logspace(-2.0, 3.0, 200)
        m = quantile_map_1d(quad(1.0), quad(1.0), 3.0, 1.0, x)
        assert len(m.t) == len(x)
        # the closed form of TestRadialMapRadiusCap; below x = 1 its head
        # form keeps the digits, 1 - I_z(5/2, 1/2) = I_(1-z)(1/2, 5/2)
        t = np.where(x < 1.0, np.tan(0.5 * math.pi * betainc(0.5, 2.5, x ** 2 / (3.0 + x ** 2))),
                     1.0 / np.tan(0.5 * math.pi * betainc(2.5, 0.5, 3.0 / (3.0 + x ** 2))))
        assert np.max(np.abs(m.t / t - 1.0)) <= 1e-12


class TestQuantileOracleFarRoots:
    """Roots far from the origin: the first bracket is wide and its midpoint
    sits where the target density underflows."""

    @pytest.mark.parametrize("x", [
        TestQuantileOracleClosedForms.GRID, TestQuantileOracleClosedForms.GRID[:1]])
    @pytest.mark.parametrize("s", [30.0, -30.0])
    def test_shifted_target(self, x, s):
        m = quantile_map_1d(quad(1.0), shifted_quad(0.25, s), INF, INF, x)
        want = 2.0 * x + s
        assert len(m.t) == len(x)
        assert np.all(np.abs(m.t - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("x", [np.linspace(15.0, 20.0, 40), np.array([15.0]),
                                   np.linspace(-20.0, -15.0, 40)])
    def test_grid_starting_in_the_tail(self, x):
        m = quantile_map_1d(quad(1.0), quad(0.25), INF, INF, x)
        assert len(m.t) == len(x)
        assert np.max(np.abs(m.t / (2.0 * x) - 1.0)) <= 1e-12


class TestQuantileOracleTailFloor:
    """Past a tail fraction of 1e-280 the grid stops, as radial_map's does."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_kept_points_are_exact(self, sign):
        r = np.logspace(-2.0, math.log10(30.0), 50)
        x = np.sort(sign * r)
        V, W = quad(1.0), quad(0.25)
        m = quantile_map_1d(V, W, INF, INF, x)
        kept = len(radial_map(V, W, INF, INF, 1, r).t)
        assert 10 <= len(m.t) == kept < len(x)
        assert np.array_equal(m.r_grid, x[:kept] if sign > 0 else x[-kept:])
        assert np.max(np.abs(m.t / (2.0 * m.r_grid) - 1.0)) <= 1e-12
        assert np.max(np.abs(m.t_prime - 2.0)) <= 1e-10

    def test_too_few_points_left(self):
        with pytest.raises(DivergentIntegral):
            quantile_map_1d(quad(1.0), quad(0.25), INF, INF, np.linspace(20.0, 30.0, 12))
        with pytest.raises(ValueError, match="non-empty"):
            quantile_map_1d(quad(1.0), quad(0.25), INF, INF, np.array([]))


class TestLipschitz:
    def test_window_restriction(self, quad1):
        g = np.logspace(1.5, 4.2, 200)
        m = radial_map(quad1, quad1, 3.0, 1.0, 1, g)
        small = lipschitz_empirical(m, 10 ** 1.5)
        large = lipschitz_empirical(m, 1e3)
        assert large.value / small.value >= 50.0
        assert large.argmax_r <= 1e3

    def test_empty_window(self, quad1):
        m = radial_map(quad1, quad1, 1.0, 1.0, 1)
        with pytest.raises(EmptyWindow):
            lipschitz_empirical(m, m.r_grid[0] / 2.0)

    def test_tangential_component_in_higher_dimension(self):
        V = quad(1.0, 2)
        g = np.logspace(1.5, 4.2, 200)
        m = radial_map(V, V, 4.0, 2.0, 2, g)
        est = lipschitz_empirical(m, math.inf)
        assert est.value > 1.0
        assert est.component in ("radial", "tangential")


class TestMapOrder:
    def test_weight_without_finite_mass_is_refused_up_front(self):
        # before any table is built: d = 1 < n = 2 used to search out to 1e10
        V = quad(1.0, 2)
        with pytest.raises(InvalidOrder, match=r"^requires n <= d, got n=2, d=1\.0$"):
            radial_map(V, V, 1.0, INF, 2)
        with pytest.raises(InvalidOrder, match=r"^requires n <= D, got n=2, D=1\.0$"):
            radial_map(V, V, 3.0, 1.0, 2)
        assert not V._memo


class TestSlopes:
    @pytest.mark.parametrize("n,d,D,want", [(1, 2, 1, 3.0), (1, 3, 1, 5.0),
                                            (2, 4, 2, 3.0)])
    def test_counterexample_exponents(self, n, d, D, want):
        V = quad(1.0, n)
        g = np.logspace(1.5, 4.2, 300)
        m = radial_map(V, V, float(d), float(D), n, g)
        slope, r2 = slope_fit(m, 1e2, 1e4)
        assert slope == pytest.approx(want, abs=0.05)
        assert r2 > 0.999

    def test_scale_invariance_in_t(self, quad1):
        m = radial_map(quad1, quad1, 1.0, 1.0, 1)
        scaled = RadialMap(m.r_grid, 7.0 * m.t, 7.0 * m.t_prime, 1, m.residuals)
        s1, _ = slope_fit(m, 0.01, 10.0)
        s2, _ = slope_fit(scaled, 0.01, 10.0)
        assert s2 == pytest.approx(s1, abs=1e-12)

    def test_needs_enough_points(self, quad1):
        m = radial_map(quad1, quad1, 1.0, 1.0, 1)
        with pytest.raises(EmptyWindow):
            slope_fit(m, 49.0, 50.0)


class TestSecondVariation:
    def test_identity_has_positive_slack(self, quad1):
        d = 1.0
        m = radial_map(quad1, quad1, d, d, 1)
        rep = second_variation_check(m, quad1, quad1, d, d, math.inf)
        assert rep.min_slack > 0.0
        assert {e.epsilon for e in rep.entries} == {0.1, 0.5, 0.9}

    def test_caffarelli_endpoint_is_tight(self, quad1, quad_quarter):
        m = radial_map(quad1, quad_quarter, INF, INF, 1)
        rep = second_variation_check(m, quad1, quad_quarter, INF, INF, math.inf)
        assert len(rep.entries) == 1
        assert rep.entries[0].inequality == "endpoint"
        assert abs(rep.min_slack) < 1e-6  # equality case of the sharp constant
        # d = inf: V/d counts as 0, so the left side is W'' lam^2 = (2 / 4) lam^2
        assert rep.entries[0].lhs == pytest.approx(0.5 * rep.eigenvalue ** 2, rel=1e-14)

    def test_poly_to_log_concave_endpoint(self, quad1):
        d = 2.0
        m = radial_map(quad1, quad1, d, INF, 1)
        rep = second_variation_check(m, quad1, quad1, d, INF, 10.0)
        assert rep.min_slack >= -1e-6

    @pytest.mark.parametrize("d", [3.0, INF])
    def test_rejects_d_above_D(self, quad1, d):
        # checked as the bounds check it, not left to the slack formulas
        m = radial_map(quad1, quad1, 1.0, 1.0, 1)
        with pytest.raises(InvalidOrder, match=r"^requires d <= D, got d=(3\.0|inf), D=2\.0$"):
            second_variation_check(m, quad1, quad1, d, 2.0, 10.0)
