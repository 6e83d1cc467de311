import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import brenier_bounds.constants as constants_mod
from brenier_bounds import (ConventionUndefined, DomainError, INF, PotentialSpec, VoidBound,
                            aggregates, structural)
from brenier_bounds.potentials import Quadratic


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
        g = 2.0 * a * R / (math.sqrt(p) + R)
        assert s.C1 == g * g

    @pytest.mark.parametrize("R", [1e200, math.inf])
    def test_ball_too_wide_for_r_squared_is_the_global_value(self, R):
        # R^2 overflows: p is lost to rounding and the constants are the global ones
        s = structural(quad(2.0), 3.0, R)
        assert (s.c0, s.C0, s.C1) == (1.0, 2.0, 16.0)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(a=st.one_of(st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-9]),
                       st.floats(-3.0, 3.0).map(lambda t: 10.0 ** t)),
           q=st.floats(0.0, 6.0).map(lambda t: 10.0 ** t),
           R=st.sampled_from([0.0] + [10.0 ** k for k in range(-9, 7)]),
           n=st.sampled_from([1, 2, 3]))
    def test_ball_closed_form_matches_the_scan(self, a, q, R, n):
        # the scan of the same potential given as a 1D lambda a x^2
        U = PotentialSpec.one_dim(lambda x: a * x ** 2, lambda x: 2.0 * a * x)
        scanned, closed = structural(U, q, R), structural(quad(a, n), q, R)
        for want, got in zip((scanned.c0, scanned.C0, scanned.C1),
                             (closed.c0, closed.C0, closed.C1)):
            assert abs(got - want) <= 4.0 * math.ulp(max(abs(got), abs(want)))

    def test_ball_closed_form_never_evaluates_u(self, monkeypatch):
        calls = []

        def record(name):
            orig = getattr(Quadratic, name)

            def wrapped(self, r):
                calls.append(name)
                return orig(self, r)
            monkeypatch.setattr(Quadratic, name, wrapped)
        record("value")
        record("deriv")
        for n in (1, 3):
            U = quad(1.7, n)
            for p in (float(n), 2.5, 1e4):
                for R in (0.0, 1e-7, 0.3, 4.0, 1e5):
                    structural(U, p, R)
        assert calls == []
        U.profile.value(1.0)
        U.profile.deriv(1.0)
        assert calls == ["value", "deriv"]  # the recorder does record

    def test_scan_agrees_with_closed_form(self):
        a, p = 3.0, 2.0
        closed = structural(quad(a), float(p), math.inf)
        U = PotentialSpec.one_dim(lambda x: a * x ** 2, lambda x: 2.0 * a * x, 2.0 * a, 2.0 * a)
        scanned = structural(U, float(p), math.inf)
        assert scanned.c0 == pytest.approx(closed.c0, rel=1e-12)
        assert scanned.C0 == pytest.approx(closed.C0, rel=1e-12)
        assert scanned.C1 == pytest.approx(closed.C1, rel=1e-12)

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
    of a s x^2 + (a q - a s^2 - q) x - a q s (x = 0 alone at s = 0, where
    up is monotone in x^2 and its sup or inf is the unattained limit a); for
    s != 0 the limit a lies strictly between them.
    grad2 = (2a |x - s| / (sqrt(q) + |x|))^2 is monotone on each side of 0,
    so its sup over a ball is at 0 or +-R; at R = inf it is at 0 only when
    |s| > sqrt(q) (otherwise it is the unattained limit 4a^2).
    """
    A, B, C = a * s, a * q - a * s * s - q, -a * q * s
    if s:
        r1 = (-B - math.copysign(math.sqrt(B * B - 4.0 * A * C), B)) / (2.0 * A)
    ends = [x for x in (-R, R) if math.isfinite(R)]
    ups = [(q + a * (x - s) ** 2) / (q + x * x)
           for x in ([r1, C / (A * r1)] if s else [0.0]) + ends if abs(x) <= R]
    ups += [] if math.isfinite(R) else [a]
    g2 = max((2.0 * a * abs(x - s) / (math.sqrt(q) + abs(x))) ** 2 for x in [0.0] + ends)
    return min(ups), max(ups), g2 if math.isfinite(R) else max(g2, 4.0 * a * a)


def one_dim_shifted(a, s):
    """a (x - s)^2 as a general 1D potential, with its exact Hessian bounds 2a."""
    return PotentialSpec.one_dim(lambda x: a * (x - s) ** 2, lambda x: 2.0 * a * (x - s),
                                 2.0 * a, 2.0 * a)


def assert_shifted_quadratic_constants(got, a, s, q, R):
    """C1 within 4 ulp, C0 within 1e-14 and c0 within 5e-12 relative of the closed forms."""
    inf_up, sup_up, sup_g2 = shifted_quadratic_extremes(a, s, q, R)
    assert abs(got.C1 - sup_g2) <= 4.0 * math.ulp(sup_g2)
    assert got.C0 == pytest.approx(sup_up, rel=1e-14, abs=0.0)
    assert got.c0 == pytest.approx(inf_up, rel=5e-12, abs=0.0)


class TestExactScans:
    @pytest.mark.parametrize("a,s,q,R", [
        (1.0, 0.5, 2.0, 0.3), (1.0, 0.5, 2.0, 3.0), (1.0, 0.5, 2.0, 40.0),
        (2.0, 3.0, 4.0, 1.0), (2.0, 3.0, 4.0, 10.0), (2.0, 3.0, 4.0, math.inf),
        (0.5, -2.5, 1.0, 2.0), (0.5, -2.5, 1.0, math.inf),
        (3.0, 1.5, 1.0, 0.8), (3.0, 1.5, 1.0, math.inf),
        (0.25, 4.0, 9.0, math.inf)])
    def test_shifted_quadratic_closed_form_extremes(self, a, s, q, R):
        got = structural(one_dim_shifted(a, s), float(q), R)
        inf_up, sup_up, sup_g2 = shifted_quadratic_extremes(a, s, q, R)
        assert got.c0 == pytest.approx(inf_up, rel=1e-12)
        assert got.C0 == pytest.approx(sup_up, rel=1e-12)
        assert got.C1 == pytest.approx(sup_g2, rel=1e-12)


def global_potentials():
    """name: (potential, (a, s) for a shifted quadratic, None for one without
    far-field Hessian bounds 0 < lower <= upper < inf)."""
    r = np.linspace(0.0, 20.0, 81)
    pots = {f"{a}(x-{s})^2": (one_dim_shifted(a, s), (a, s))
            for a in (0.3, 1.0, 1.05, 3.37) for s in (0.0, 0.5, -2.0, 12.0)}
    pots.update({
        # U'' = 2 - 9 sin 3x: declared exactly, but its lower bound is not positive
        "x^2+sin3x": (PotentialSpec.one_dim(lambda x: x ** 2 + np.sin(3.0 * x),
                                           lambda x: 2.0 * x + 3.0 * np.cos(3.0 * x),
                                           11.0, -7.0), None),
        "x^4+x^2": (PotentialSpec.one_dim(lambda x: x ** 4 + x ** 2,
                                         lambda x: 4.0 * x ** 3 + 2.0 * x), None),
        "|x|": (PotentialSpec.one_dim(np.abs, np.sign), None),
        "tabulated |x|^2": (PotentialSpec.tabulated(r, r ** 2, du=2.0 * r), None),
    })
    return pots


def global_cases():
    """(q, U, (a, s) or None) triples for the R = inf checks, with ids "q-name"."""
    cases = [pytest.param(q, U, shift, id=f"{q}-{name}")
             for q in (1, 2, 3, 6, 30) for name, (U, shift) in global_potentials().items()]
    return cases + [pytest.param(q, one_dim_shifted(a, s), (a, s), id=f"{q}-{a}(x-{s})^2")
                    for a, s, q in ((2.9, 0.5, 2), (0.9, -2.0, 2), (0.31, 3.0, 1))]


def no_scan(monkeypatch):
    def fail(*args):
        raise AssertionError("scanned")
    monkeypatch.setattr(constants_mod, "_sups", fail)
    monkeypatch.setattr(constants_mod, "_scan_grid", fail)


_VOID = r"^global structural constants need far-field Hessian bounds 0 < lower <= upper < inf, "


class TestFarFieldEnvelope:
    @pytest.mark.parametrize("q,U,shift", global_cases())
    def test_global_constants(self, q, U, shift, monkeypatch):
        # exact for a quadratic far field; void, before any scan, without
        # far-field Hessian bounds
        if shift is not None:
            assert_shifted_quadratic_constants(structural(U, float(q), math.inf),
                                               *shift, float(q), math.inf)
            return
        no_scan(monkeypatch)
        with pytest.raises(VoidBound, match=_VOID):
            structural(U, float(q), math.inf)

    def test_drawn_shifted_quadratics_are_exact(self):
        rng = np.random.default_rng(2026)
        for _ in range(200):
            a, q = 10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(0.0, 3.0)
            s = rng.uniform(-20.0, 20.0)
            assert_shifted_quadratic_constants(structural(one_dim_shifted(a, s), q, math.inf),
                                               a, s, q, math.inf)

    @pytest.mark.parametrize("q", [1.0, 2.0, 30.0])
    def test_never_low_where_the_far_curvature_varies(self, q):
        # U'' = 2 + 9 sech^2 3x spans [2, 11]: the envelope's limit is the
        # global upper bound 11/2, far above the true sup of up
        U = PotentialSpec.one_dim(
            lambda x: x ** 2 + np.logaddexp(3.0 * x, -3.0 * x) - math.log(2.0),
            lambda x: 2.0 * x + 3.0 * np.tanh(3.0 * x), 11.0, 2.0)
        got = structural(U, q, math.inf)
        r = np.geomspace(1e-6, 1e6, 500_000)
        x = np.concatenate((-r, [0.0], r))
        up = (q + U.value(x)) / (q + x * x)
        g2 = np.square(U.deriv(x) / (math.sqrt(q) + np.abs(x)))
        assert got.c0 <= up.min() and got.C0 >= up.max() and got.C1 >= g2.max()
        assert (got.C0, got.C1) == (5.5, 121.0)

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 6.0, 30.0])
    def test_a_tabulated_quadratic_takes_the_quadratic_constants(self, q):
        # r^2 continues as r^2 past its last node, so the envelope of its
        # declared [2, 2] gives the closed-form constants of |x|^2
        r = np.linspace(0.0, 20.0, 81)
        U = PotentialSpec.tabulated(r, r ** 2, hess_upper=2.0, hess_lower=2.0)
        got, want = structural(U, q, math.inf), structural(quad(1.0), q, math.inf)
        assert got.c0 == pytest.approx(want.c0, rel=1e-12)
        assert got.C0 == pytest.approx(want.C0, rel=1e-12)
        assert got.C1 == pytest.approx(want.C1, rel=1e-12)

    def test_void_names_a_missing_declaration(self, monkeypatch):
        U = PotentialSpec.one_dim(lambda x: x ** 2, lambda x: 2.0 * x, hess_upper=2.0)
        no_scan(monkeypatch)
        with pytest.raises(VoidBound, match=_VOID + r"got \(lower, upper\) = \(None, 2.0\)$"):
            structural(U, 2.0, math.inf)

    def test_void_where_the_lower_envelope_reaches_minus_p(self):
        # (x - 10)^2 has U'' = 2 >= 0.01, but P_0.01 from U(0) = 100, U'(0) = -20
        # dips far below -p
        U = PotentialSpec.one_dim(lambda x: (x - 10.0) ** 2, lambda x: 2.0 * (x - 10.0),
                                  2.0, 0.01)
        with pytest.raises(VoidBound, match=r"far-field envelope of the potential reaches U = -p"):
            structural(U, 1.0, math.inf)

    def test_negative_or_nan_radius_is_rejected(self):
        for R in (-1.0, math.nan):
            with pytest.raises(ValueError, match="R must be nonnegative"):
                structural(quad(1.0), 2.0, R)


def log_cosh(s=0.0, c=1.0, k=3.0, u0=0.0):
    """(x - s)^2 + c log cosh kx + u0, with its exact Hessian bounds [2, 2 + c k^2]."""
    return PotentialSpec.one_dim(
        lambda x: (x - s) ** 2 + c * (np.logaddexp(k * x, -k * x) - math.log(2.0)) + u0,
        lambda x: 2.0 * (x - s) + c * k * np.tanh(k * x), 2.0 + c * k * k, 2.0)


def origin_cases():
    """A radial, an even and a shifted potential without closed forms."""
    r = np.linspace(0.0, 20.0, 81)
    return [pytest.param(PotentialSpec.tabulated(r, r ** 2 + 0.5, hess_upper=2.0, hess_lower=2.0),
                         id="radial"),
            pytest.param(log_cosh(), id="even"),
            pytest.param(one_dim_shifted(1.5, -2.0), id="shifted")]


class TestOriginEnvelope:
    """The R = inf constants from U(0), U'(0) and the declared [lam, Lam]."""

    @pytest.mark.parametrize("U", origin_cases())
    def test_one_call_of_u_and_of_its_slope_at_the_origin(self, U, monkeypatch):
        no_scan(monkeypatch)
        calls = []
        for name in ("value", "deriv"):
            def record(self, x, name=name, orig=getattr(PotentialSpec, name)):
                calls.append((name, float(x)))
                return orig(self, x)
            monkeypatch.setattr(PotentialSpec, name, record)
        for q in (1.0, 2.0, 30.0):
            calls.clear()
            structural(U, q, math.inf)
            assert sorted(calls) == [("deriv", 0.0), ("value", 0.0)]

    @pytest.mark.parametrize("s", [-5.0, 0.5])
    @pytest.mark.parametrize("q", [1.0, 2.0, 30.0])
    def test_never_low_off_even_where_the_curvature_varies(self, s, q):
        # neither even nor of constant curvature: the loosest class, still valid
        U = log_cosh(s)
        got = structural(U, q, math.inf)
        r = np.geomspace(1e-6, 1e6, 400_000)
        x = np.concatenate((-r, [0.0], r))
        up = (q + U.value(x)) / (q + x * x)
        g2 = np.square(U.deriv(x) / (math.sqrt(q) + np.abs(x)))
        assert got.c0 <= up.min() and got.C0 >= up.max() and got.C1 >= g2.max()

    @pytest.mark.parametrize("c,k,u0", [(1.0, 3.0, 0.0), (0.2, 0.5, 0.7), (2.5, 1.3, -0.4)])
    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 30.0])
    def test_even_potentials_take_the_value_at_the_origin_and_the_bounds(self, c, k, u0, q):
        U = log_cosh(0.0, c, k, u0)
        lam, Lam, up0 = U.hess_lower, U.hess_upper, (q + float(U.value(0.0))) / q
        got = structural(U, q, math.inf)
        assert (got.c0, got.C0, got.C1) == (min(up0, lam / 2.0), max(up0, Lam / 2.0), Lam * Lam)


def window_radius(q):
    """rho = max(1, sqrt(q)): the radius of a ball B_rho to scan."""
    return max(1.0, math.sqrt(q))


def sequential_scan(U, q, R):
    """(c0, C0, C1) on the ball B_R scanned one objective at a time, with one
    U call per objective and per zoom round: the reference for the block scan
    of ``structural``, which evaluates the three objectives together."""
    c = constants_mod
    grid = c._scan_grid(q, R)

    def objective(k, X):
        return c._objectives(U, q, X)[k]

    vals = [objective(k, grid) for k in range(3)]
    i = [int(np.argmax(v)) for v in vals]
    y = [float(v[j]) for v, j in zip(vals, i)]
    X, x = [grid] * 3, [grid[j] for j in i]
    for _ in range(c._ZOOM_ROUNDS):
        for k in range(3):
            lo, hi = X[k][max(i[k] - 1, 0)], X[k][min(i[k] + 1, X[k].size - 1)]
            X[k] = lo + (hi - lo) * c._ZOOM_STEPS
            X[k][-1] = hi
            Y = objective(k, X[k])
            i[k] = int(np.argmax(Y))
            if Y[i[k]] > y[k]:
                x[k] = X[k][i[k]]
            y[k] = max(float(Y[i[k]]), y[k])
        if all(xk == grid[-1] for xk in x):
            break
    sup_up, sup_dn, sup_g2 = y
    return 1.0 / sup_dn, sup_up, sup_g2


def window_constants(U, q):
    s = structural(U, float(q), math.inf)
    return s.c0, s.C0, s.C1


class TestBlockWindowScan:
    @pytest.mark.parametrize("q,U,shift", global_cases())
    def test_bit_identical_to_the_sequential_scan(self, q, U, shift):
        # the ball B_rho, scanned as a block, is within 1e-15 relative of the
        # one-objective-at-a-time scan (the R = inf constants, which scan
        # nothing, are checked against closed forms in TestFarFieldEnvelope)
        q = float(q)
        ball = structural(U, q, window_radius(q))
        got = ball.c0, ball.C0, ball.C1
        assert got == pytest.approx(sequential_scan(U, q, window_radius(q)), rel=1e-15, abs=0.0)


def counted(f, fprime, *hess):
    """A 1D spec whose U calls are recorded, and the list they go to."""
    calls = []

    def value(x):
        calls.append(np.asarray(x))
        return f(x)
    return PotentialSpec.one_dim(value, fprime, *hess), calls


class TestScanCost:
    def test_block_scan_makes_a_few_u_calls_per_window(self):
        # one U call, at the origin, for the R = inf constants; one on the
        # grid of a ball and one per zoom round for its scan
        U, calls = counted(lambda x: 1.5 * x ** 2, lambda x: 3.0 * x, 3.0, 3.0)
        assert_shifted_quadratic_constants(structural(U, 2.0, math.inf), 1.5, 0.0, 2.0, math.inf)
        assert len(calls) == 1
        calls.clear()
        ball = structural(U, 2.0, window_radius(2.0))
        assert len(calls) <= constants_mod._ZOOM_ROUNDS + 1
        assert (ball.c0, ball.C0, ball.C1) == pytest.approx(
            sequential_scan(U, 2.0, window_radius(2.0)), rel=1e-15, abs=0.0)


class TestWindowDomain:
    """At R = inf U is evaluated at the origin only, so the reach of its
    evaluations is 0, and the declared Hessian bounds stand for it
    everywhere else: a violation, failure or overflow at the origin
    surfaces, and one anywhere past it is never evaluated."""
    q = 2.0

    @staticmethod
    def quadratic(x):
        return 1.5 * x ** 2

    @staticmethod
    def slope(x):
        return 3.0 * x

    def reach(self):
        return 0.0

    def want(self):
        U = PotentialSpec.one_dim(self.quadratic, self.slope, 3.0, 3.0)
        return window_constants(U, self.q)

    def window(self, f):
        return window_constants(PotentialSpec.one_dim(f, self.slope, 3.0, 3.0), self.q)

    def test_violation_beyond_the_reach_does_not_raise(self):
        U, calls = counted(self.quadratic, self.slope, 3.0, 3.0)
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
        near = self.reach()
        with pytest.raises(DomainError,
                           match=r"^potential violates U > -p at the origin \(p=2.0\)$"):
            self.window(lambda x: np.where(np.abs(x) <= near, -10.0, self.quadratic(x)))

    def test_failure_inside_the_reach_raises(self):
        near = self.reach()

        def f(x):
            if np.min(np.abs(x)) <= near:
                raise ValueError("evaluated inside the window")
            return self.quadratic(x)
        with pytest.raises(ValueError, match="evaluated inside the window"):
            self.window(f)

    def test_overflow_inside_the_reach_warns_as_the_scan_does(self):
        # an overflowing U is infinite there, and so is the sup of up
        near = self.reach()
        f = lambda x: self.quadratic(x) + np.square(np.where(np.abs(x) <= near, 1e200, 0.0))
        with pytest.warns(RuntimeWarning, match="overflow encountered in square"):
            got = self.window(f)
        assert got[1] == math.inf


class TestEndpointConventions:
    def test_log_concave_on_a_ball_collapses_to_units(self):
        s = structural(quad(5.0), INF, 7.0)
        assert (s.c0, s.C0, s.C1) == (1.0, 1.0, 0.0)

    def test_log_concave_global_is_undefined(self):
        with pytest.raises(ConventionUndefined):
            structural(quad(1.0), INF, math.inf)


class TestStructuralOrder:
    """structural's steps, in order: the R check, the p = inf conventions, the
    profile's own closed forms, the R = inf envelope, the ball scan."""

    @pytest.mark.parametrize("p", [2.0, INF])
    def test_the_radius_is_checked_first(self, p):
        with pytest.raises(ValueError, match="R must be nonnegative"):
            structural(PotentialSpec(2, Quadratic(3.0)), p, -1.0)

    def test_closed_forms_need_no_declared_hessian_bounds(self):
        s = structural(PotentialSpec(2, Quadratic(3.0)), 2.0, math.inf)
        assert (s.c0, s.C0, s.C1) == (1.0, 3.0, 36.0)

    def test_the_conventions_come_before_the_closed_forms(self):
        U = PotentialSpec(2, Quadratic(3.0))
        with pytest.raises(ConventionUndefined):
            structural(U, INF, math.inf)
        s = structural(U, INF, 4.0)
        assert (s.c0, s.C0, s.C1) == (1.0, 1.0, 0.0)

    def test_without_closed_forms_the_envelope_needs_declared_bounds(self):
        r = np.linspace(0.0, 20.0, 201)
        with pytest.raises(VoidBound):
            structural(PotentialSpec.tabulated(r, r * r), 2.0, math.inf)


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
