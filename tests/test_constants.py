import math

import numpy as np
import pytest

from brenier_bounds import (ConventionUndefined, ExtParam, INF, PotentialSpec,
                            aggregates, structural)


def quad(a, n=1):
    return PotentialSpec.quadratic(a, n)


class TestQuadraticClosedForms:
    @pytest.mark.parametrize("a", [0.25, 1.0, 2.0, 7.0])
    @pytest.mark.parametrize("p", [1.0, 4.0, 100.0])
    def test_global_values(self, a, p):
        s = structural(quad(a), ExtParam.finite(p), math.inf)
        assert s.c0 == pytest.approx(min(1.0, a), rel=1e-9)
        assert s.C0 == pytest.approx(max(1.0, a), rel=1e-9)
        assert s.C1 == pytest.approx(4.0 * a * a, rel=1e-9)

    @pytest.mark.parametrize("a,p,R", [(2.0, 4.0, 3.0), (0.5, 1.0, 10.0)])
    def test_ball_restricted_gradient_constant(self, a, p, R):
        s = structural(quad(a), ExtParam.finite(p), R)
        want = (2.0 * a * R / (math.sqrt(p) + R)) ** 2
        assert s.C1 == pytest.approx(want, rel=1e-6)

    def test_scan_agrees_with_closed_form(self):
        a, p = 3.0, 2.0
        closed = structural(quad(a), ExtParam.finite(p), math.inf)
        U = PotentialSpec.one_dim(lambda x: a * x ** 2, lambda x: 2.0 * a * x)
        scanned = structural(U, ExtParam.finite(p), math.inf)
        assert scanned.c0 == pytest.approx(closed.c0, rel=1e-6)
        assert scanned.C0 == pytest.approx(closed.C0, rel=1e-6)
        assert scanned.C1 == pytest.approx(closed.C1, rel=1e-6)

    def test_tabulated_profile_agrees_with_quadratic(self):
        r = np.linspace(0.0, 40.0, 4000)
        U = PotentialSpec.tabulated(r, 2.0 * r ** 2, du=4.0 * r, dimension=1,
                                    hess_upper=4.0, hess_lower=4.0)
        s = structural(U, ExtParam.finite(4), 3.0)
        want = structural(quad(2.0), ExtParam.finite(4), 3.0)
        assert s.c0 == pytest.approx(want.c0, rel=1e-5)
        assert s.C0 == pytest.approx(want.C0, rel=1e-5)
        assert s.C1 == pytest.approx(want.C1, rel=1e-5)


def shifted_quadratic_extremes(a, s, q, R):
    """Exact (inf up, sup up, sup grad2) over [-R, R] for U = a (x - s)^2.

    up = (q + a (x - s)^2) / (q + x^2) has its critical points at the roots
    of a s x^2 + (a q - a s^2 - q) x - a q s; its limit a at infinity lies
    strictly between them, so at R = inf both extremes are attained.
    grad2 = (2a |x - s| / (sqrt(q) + |x|))^2 is monotone on each side of 0,
    so its sup over a ball is at 0 or +-R; at R = inf it is at 0 only when
    |s| > sqrt(q) (otherwise it is the unattained limit 4a^2).
    """
    A, B, C = a * s, a * q - a * s * s - q, -a * q * s
    r1 = (-B - math.copysign(math.sqrt(B * B - 4.0 * A * C), B)) / (2.0 * A)
    ends = [x for x in (-R, R) if math.isfinite(R)]
    ups = [(q + a * (x - s) ** 2) / (q + x * x)
           for x in [r1, C / (A * r1)] + ends if abs(x) <= R]
    g2 = max((2.0 * a * abs(x - s) / (math.sqrt(q) + abs(x))) ** 2 for x in [0.0] + ends)
    return min(ups), max(ups), g2


class TestExactScans:
    @pytest.mark.parametrize("a,s,q,R", [
        (1.0, 0.5, 2.0, 0.3), (1.0, 0.5, 2.0, 3.0), (1.0, 0.5, 2.0, 40.0),
        (2.0, 3.0, 4.0, 1.0), (2.0, 3.0, 4.0, 10.0), (2.0, 3.0, 4.0, math.inf),
        (0.5, -2.5, 1.0, 2.0), (0.5, -2.5, 1.0, math.inf),
        (3.0, 1.5, 1.0, 0.8), (3.0, 1.5, 1.0, math.inf),
        (0.25, 4.0, 9.0, math.inf)])
    def test_shifted_quadratic_closed_form_extremes(self, a, s, q, R):
        U = PotentialSpec.one_dim(lambda x: a * (x - s) ** 2, lambda x: 2.0 * a * (x - s))
        got = structural(U, ExtParam.finite(q), R)
        inf_up, sup_up, sup_g2 = shifted_quadratic_extremes(a, s, q, R)
        assert got.c0 == pytest.approx(inf_up, rel=1e-12)
        assert got.C0 == pytest.approx(sup_up, rel=1e-12)
        assert got.C1 == pytest.approx(sup_g2, rel=1e-12)


class TestScanCost:
    def test_window_scan_evaluates_u_a_few_times_per_doubling(self):
        calls = []

        def f(x):
            calls.append(np.asarray(x))
            return 1.5 * x ** 2
        U = PotentialSpec.one_dim(f, lambda x: 3.0 * x)
        q = 2.0
        s = structural(U, ExtParam.finite(q), math.inf)
        assert s.C0 == pytest.approx(1.5, rel=1e-12)
        assert s.C1 == pytest.approx(9.0, rel=1e-6)
        # windows: the ball of radius max(1, sqrt(q)), then one per doubling
        reach = max(float(np.max(np.abs(x))) for x in calls)
        windows = 1 + round(math.log2(reach / max(1.0, math.sqrt(q))))
        assert windows > 20
        assert min(x.size for x in calls) > 1
        assert len(calls) <= 6 * windows


class TestEndpointConventions:
    def test_log_concave_on_a_ball_collapses_to_units(self):
        s = structural(quad(5.0), INF, 7.0)
        assert (s.c0, s.C0, s.C1) == (1.0, 1.0, 0.0)

    def test_log_concave_global_is_undefined(self):
        with pytest.raises(ConventionUndefined):
            structural(quad(1.0), INF, math.inf)


class TestMonotonicity:
    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_in_radius(self, a):
        U = quad(a)
        p = ExtParam.finite(2)
        radii = [0.5, 1.0, 2.0, 4.0, 8.0]
        out = [structural(U, p, R) for R in radii]
        for s1, s2 in zip(out, out[1:]):
            assert s2.c0 <= s1.c0 + 1e-12
            assert s2.C0 >= s1.C0 - 1e-12
            assert s2.C1 >= s1.C1 - 1e-12

    @pytest.mark.parametrize("a", [0.5, 3.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_deviation_from_one_shrinks_in_p(self, a, n):
        U = quad(a, n)
        xs = np.linspace(0.0, 15.0, 200)
        for p1, p2 in [(n, 2 * n), (2 * n, 10 * n)]:
            r1 = (p1 + a * xs ** 2) / (p1 + xs ** 2)
            r2 = (p2 + a * xs ** 2) / (p2 + xs ** 2)
            assert np.all(np.abs(r2 - 1.0) <= np.abs(r1 - 1.0) + 1e-12)
        s1 = structural(U, ExtParam.finite(n), math.inf)
        s2 = structural(U, ExtParam.finite(10 * n), math.inf)
        assert s2.C0 <= max(1.0, s1.C0) + 1e-9
        assert s2.c0 >= min(1.0, s1.c0) - 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_gradient_constant_nonincreasing_in_p(self, n):
        U = quad(2.0, n)
        vals = [structural(U, ExtParam.finite(p), 5.0).C1
                for p in (n, 2 * n, 10 * n)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestAggregates:
    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    def test_quadratic_aggregates(self, a):
        g = aggregates(quad(a), 1)
        assert g.qU == pytest.approx(max(1.0, a) / min(1.0, a), rel=1e-9)
        assert g.cU == pytest.approx(min(1.0, a), rel=1e-9)
        assert g.CU == pytest.approx(max(1.0, a), rel=1e-9)
        assert g.LU == pytest.approx(4.0 * a * a, rel=1e-9)

    def test_invariants_of_the_bundle(self):
        g = aggregates(quad(3.0), 2)
        assert g.qU >= 1.0 and g.cU <= 1.0 <= g.CU and g.LU >= 0.0
