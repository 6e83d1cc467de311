import math

import numpy as np
import pytest

import brenier_bounds.constants as constants_mod
from brenier_bounds import (ConventionUndefined, DomainError, INF,
                            NoConvergence, PotentialSpec, aggregates, structural)


def quad(a, n=1):
    return PotentialSpec.quadratic(a, n)


class TestQuadraticClosedForms:
    @pytest.mark.parametrize("a", [0.25, 1.0, 2.0, 7.0])
    @pytest.mark.parametrize("p", [1.0, 4.0, 100.0])
    def test_global_values(self, a, p):
        s = structural(quad(a), float(p), math.inf)
        assert s.c0 == pytest.approx(min(1.0, a), rel=1e-9)
        assert s.C0 == pytest.approx(max(1.0, a), rel=1e-9)
        assert s.C1 == pytest.approx(4.0 * a * a, rel=1e-9)

    @pytest.mark.parametrize("a,p,R", [(2.0, 4.0, 3.0), (0.5, 1.0, 10.0)])
    def test_ball_restricted_gradient_constant(self, a, p, R):
        s = structural(quad(a), float(p), R)
        want = (2.0 * a * R / (math.sqrt(p) + R)) ** 2
        assert s.C1 == pytest.approx(want, rel=1e-6)

    def test_scan_agrees_with_closed_form(self):
        a, p = 3.0, 2.0
        closed = structural(quad(a), float(p), math.inf)
        U = PotentialSpec.one_dim(lambda x: a * x ** 2, lambda x: 2.0 * a * x)
        scanned = structural(U, float(p), math.inf)
        assert scanned.c0 == pytest.approx(closed.c0, rel=1e-6)
        assert scanned.C0 == pytest.approx(closed.C0, rel=1e-6)
        assert scanned.C1 == pytest.approx(closed.C1, rel=1e-6)

    def test_tabulated_profile_agrees_with_quadratic(self):
        r = np.linspace(0.0, 40.0, 4000)
        U = PotentialSpec.tabulated(r, 2.0 * r ** 2, du=4.0 * r, dimension=1,
                                    hess_upper=4.0, hess_lower=4.0)
        s = structural(U, 4.0, 3.0)
        want = structural(quad(2.0), 4.0, 3.0)
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
        got = structural(U, float(q), R)
        inf_up, sup_up, sup_g2 = shifted_quadratic_extremes(a, s, q, R)
        assert got.c0 == pytest.approx(inf_up, rel=1e-12)
        assert got.C0 == pytest.approx(sup_up, rel=1e-12)
        assert got.C1 == pytest.approx(sup_g2, rel=1e-12)


def sequential_window(U, q):
    """(c0, C0, C1) at R = inf from the expanding window scanned one doubling at
    a time, with one U call per annulus and per zoom round: the reference for
    the block scan of ``structural``. Raises NoConvergence as it does."""
    c = constants_mod

    def zoom(f, grid, i, y):
        rows = np.arange(len(i))
        X, x = np.broadcast_to(grid, (len(i), grid.size)), grid[i]
        for _ in range(c._ZOOM_ROUNDS):
            lo = X[rows, np.maximum(i - 1, 0)]
            hi = X[rows, np.minimum(i + 1, X.shape[1] - 1)]
            X = lo[:, None] + (hi - lo)[:, None] * c._ZOOM_STEPS
            X[:, -1] = hi
            Y = f(X)
            i = Y.argmax(axis=-1)
            top = Y[rows, i]
            x = np.where(top > y, X[rows, i], x)
            y = np.maximum(top, y)
            if (x == grid[-1]).all():
                break
        return y

    def scan(r, best=-np.inf):
        vals = c._objectives(U, q, r)
        i = np.argmax(vals, axis=1)
        top = vals[np.arange(3), i]
        rows = np.flatnonzero(top >= best)
        if rows.size:
            def f(X):
                return c._objectives(U, q, X.ravel()).reshape(3, *X.shape)[rows, np.arange(rows.size)]
            top[rows] = zoom(f, r, i[rows], top[rows])
        return np.maximum(best, top)

    base = max(1.0, math.sqrt(q))
    prev = scan(c._scan_grid(q, base))
    stable = 0
    for k in range(1, c._MAX_DOUBLINGS):
        cur = scan(base * 2.0 ** k * c._ANNULUS, prev)
        rel = np.abs(cur - prev) / np.maximum(np.abs(cur), 1e-300)
        stable = stable + 1 if float(np.max(rel)) < c._WINDOW_REL_TOL else 0
        if stable >= 3:
            sup_up, sup_dn, sup_g2 = cur.tolist()
            return 1.0 / sup_dn, sup_up, sup_g2
        prev = cur
    raise NoConvergence(
        "expanding-window supremum did not stabilize; a global structural "
        "constant is infinite")


def one_dim_shifted(a, s):
    return PotentialSpec.one_dim(lambda x: a * (x - s) ** 2, lambda x: 2.0 * a * (x - s))


def window_potentials():
    r = np.linspace(0.0, 20.0, 81)
    pots = {f"{a}(x-{s})^2": one_dim_shifted(a, s)
            for a in (0.3, 1.0, 1.05, 3.37) for s in (0.0, 0.5, -2.0, 12.0)}
    pots.update({
        "x^2+sin3x": PotentialSpec.one_dim(lambda x: x ** 2 + np.sin(3.0 * x),
                                          lambda x: 2.0 * x + 3.0 * np.cos(3.0 * x)),
        "x^4+x^2": PotentialSpec.one_dim(lambda x: x ** 4 + x ** 2,
                                        lambda x: 4.0 * x ** 3 + 2.0 * x),
        "|x|": PotentialSpec.one_dim(np.abs, np.sign),
        "tabulated |x|^2": PotentialSpec.tabulated(r, r ** 2, du=2.0 * r),
    })
    return pots


def window_cases():
    """(q, U) pairs for the window checks, with ids "q-name"."""
    cases = [pytest.param(q, U, id=f"{q}-{name}")
             for q in (1, 2, 3, 6, 30) for name, U in window_potentials().items()]
    # an annulus peaking in its last grid cell: the block zooms the next
    # annulus, where the one-doubling-at-a-time scan does not
    return cases + [pytest.param(q, one_dim_shifted(a, s), id=f"{q}-{a}(x-{s})^2")
                    for a, s, q in ((2.9, 0.5, 2), (0.9, -2.0, 2), (0.31, 3.0, 1))]


def window_constants(U, q):
    s = structural(U, float(q), math.inf)
    return s.c0, s.C0, s.C1


def outcome(fn):
    try:
        return tuple(fn())
    except Exception as exc:
        return type(exc), str(exc)


class TestBlockWindowScan:
    @pytest.mark.parametrize("q,U", window_cases())
    def test_bit_identical_to_the_sequential_scan(self, q, U):
        # within 1e-15 relative of the one-doubling-at-a-time scan, far inside
        # the error its stop rule (1e-8 relative over three doublings) leaves;
        # an exception is the same class with the same text
        got = outcome(lambda: window_constants(U, float(q)))
        want = outcome(lambda: sequential_window(U, float(q)))
        if isinstance(want[0], type):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def counted(f, fprime):
    """A 1D spec whose U calls are recorded, and the list they go to."""
    calls = []

    def value(x):
        calls.append(np.asarray(x))
        return f(x)
    return PotentialSpec.one_dim(value, fprime), calls


def sequential_reach(f, fprime, q):
    """The largest |x| the sequential window scan evaluates U at."""
    U, calls = counted(f, fprime)
    sequential_window(U, q)
    return max(float(np.max(np.abs(x))) for x in calls)


class TestScanCost:
    def test_block_scan_makes_a_few_u_calls_per_window(self):
        U, calls = counted(lambda x: 1.5 * x ** 2, lambda x: 3.0 * x)
        want = sequential_window(U, 2.0)
        calls.clear()
        assert window_constants(U, 2.0) == want
        assert len(calls) <= 12

    def test_window_scan_evaluates_u_a_few_times_per_doubling(self):
        calls = []

        def f(x):
            calls.append(np.asarray(x))
            return 1.5 * x ** 2
        U = PotentialSpec.one_dim(f, lambda x: 3.0 * x)
        q = 2.0
        s = structural(U, float(q), math.inf)
        assert s.C0 == pytest.approx(1.5, rel=1e-12)
        assert s.C1 == pytest.approx(9.0, rel=1e-6)
        # windows: the ball of radius max(1, sqrt(q)), then one per doubling
        reach = max(float(np.max(np.abs(x))) for x in calls)
        windows = 1 + round(math.log2(reach / max(1.0, math.sqrt(q))))
        assert windows > 20
        assert min(x.size for x in calls) > 1
        assert len(calls) <= 6 * windows


class TestWindowDomain:
    """The window evaluates U on every annulus of each block of doublings it
    starts, past the doubling where its sups settle: a violation, failure or
    overflow there surfaces, and nothing beyond the block is evaluated."""
    q = 2.0

    @staticmethod
    def quadratic(x):
        return 1.5 * x ** 2

    @staticmethod
    def slope(x):
        return 3.0 * x

    def reach(self):
        """The window's reach: the end of its first block, where its sups settle."""
        return max(1.0, math.sqrt(self.q)) * 2.0 ** constants_mod._BLOCK

    def past_the_stop(self):
        """A radius inside the block, past the sequential scan's reach."""
        stop = sequential_reach(self.quadratic, self.slope, self.q)
        assert stop < self.reach()
        return math.sqrt(stop * self.reach())

    def want(self):
        U = PotentialSpec.one_dim(self.quadratic, self.slope)
        return sequential_window(U, self.q)

    def window(self, f):
        return window_constants(PotentialSpec.one_dim(f, self.slope), self.q)

    def test_violation_beyond_the_reach_does_not_raise(self):
        U, calls = counted(self.quadratic, self.slope)
        window_constants(U, self.q)
        assert max(float(np.max(np.abs(x))) for x in calls) == self.reach()
        far = self.reach()
        got = self.window(lambda x: np.where(np.abs(x) > far, -10.0, self.quadratic(x)))
        assert got == self.want()

    def test_overflow_beyond_the_reach_does_not_raise(self):
        # RuntimeWarning is an error in this suite
        far = self.reach()
        got = self.window(lambda x: self.quadratic(x)
                          + np.square(np.where(np.abs(x) > far, 1e200, 0.0)))
        assert got == self.want()

    def test_failure_beyond_the_reach_does_not_raise(self):
        far = self.reach()

        def f(x):
            if np.max(np.abs(x)) > far:
                raise ValueError("evaluated past the window's reach")
            return self.quadratic(x)
        assert self.window(f) == self.want()

    def test_violation_inside_the_reach_raises_the_scan_error(self):
        near = self.past_the_stop()
        with pytest.raises(DomainError,
                           match=r"^potential violates U > -p on the scan grid \(p=2.0\)$"):
            self.window(lambda x: np.where(np.abs(x) > near, -10.0, self.quadratic(x)))

    def test_failure_inside_the_reach_raises(self):
        near = self.past_the_stop()

        def f(x):
            if np.max(np.abs(x)) > near:
                raise ValueError("evaluated past the stop")
            return self.quadratic(x)
        with pytest.raises(ValueError, match="evaluated past the stop"):
            self.window(f)

    def test_overflow_inside_the_reach_warns_as_the_scan_does(self):
        near = self.past_the_stop()
        f = lambda x: self.quadratic(x) + np.square(np.where(np.abs(x) > near, 1e200, 0.0))
        with pytest.warns(RuntimeWarning, match="overflow encountered in square"):
            got = self.window(f)
        assert got == self.want()


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
        p = 2.0
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
        s1 = structural(U, float(n), math.inf)
        s2 = structural(U, float(10 * n), math.inf)
        assert s2.C0 <= max(1.0, s1.C0) + 1e-9
        assert s2.c0 >= min(1.0, s1.c0) - 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_gradient_constant_nonincreasing_in_p(self, n):
        U = quad(2.0, n)
        vals = [structural(U, float(p), 5.0).C1
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
