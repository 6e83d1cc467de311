import decimal
import functools
import gc
import math
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc, betaincc, betaln, erf, erfc, gammainc, gammaincc

from brenier_bounds import (DivergentIntegral, DomainError, INF,
                            PotentialSpec, default_grid, growth_data, normalization,
                            radial_map, unit_ball_volume)
from brenier_bounds.potentials import (RadialTabulated, TailTable, _radial_weight,
                                       log_reference_integral, mass_table, tail_quadrature,
                                       tail_table)


class TestProfiles:
    def test_quadratic_evaluation(self):
        U = PotentialSpec.quadratic(2.0, 1)
        r = np.array([0.0, 1.0, 3.0])
        assert np.allclose(U.value(r), [0.0, 2.0, 18.0])
        assert np.allclose(U.deriv(r), [0.0, 4.0, 12.0])
        assert U.hess_upper == 4.0 and U.hess_lower == 4.0

    def test_one_dim_profile(self):
        U = PotentialSpec.one_dim(lambda x: (x - 1.0) ** 2,
                                  lambda x: 2.0 * (x - 1.0),
                                  hess_upper=2.0, hess_lower=2.0)
        assert float(U.value(3.0)) == 4.0
        assert float(U.deriv(0.0)) == -2.0
        assert not U.is_radial

    def test_tabulated_matches_quadratic(self):
        # r^2 at 201 nodes, with and without slopes: value, slope and U'' at
        # the nodes, between them, and on the continuation past the last node
        r = np.linspace(0.0, 20.0, 201)
        x = np.concatenate((r, [0.33, 1.7, 12.43, 40.0, 1e3]))
        for du in (None, 2.0 * r):
            prof = PotentialSpec.tabulated(r, r ** 2, du=du, hess_upper=2.0,
                                           hess_lower=2.0).profile
            np.testing.assert_allclose(prof.value(x), x ** 2, rtol=1e-10, atol=1e-14)
            np.testing.assert_allclose(prof.deriv(x), 2.0 * x, rtol=1e-10, atol=1e-13)
            np.testing.assert_allclose(prof.second(x), 2.0, rtol=1e-10)
            assert prof.second_range() == pytest.approx((2.0, 2.0), rel=1e-10)

    @pytest.mark.parametrize("with_du", [False, True])
    def test_tabulated_end_constants_match_the_interpolants(self, with_du):
        # past the last node the profile is the quadratic with that node's
        # value, slope and the one-sided U'' of the cubic piece next to it;
        # below a first node r0 > 0 it is the even quadratic with r0's value
        # u and slope s, u + s (x^2 - r0^2) / (2 r0), whose U'' is s / r0
        r = np.linspace(0.5, 5.0, 19)
        prof = PotentialSpec.tabulated(r, r ** 3, du=3.0 * r ** 2 if with_du else None).profile
        for node, inward in ((r[0], math.inf), (r[-1], -math.inf)):
            u, s = prof.value(node), prof.deriv(node)
            assert u == node ** 3 and type(u) is float
            assert prof.value(np.nextafter(node, inward)) == pytest.approx(u, rel=1e-14)
            assert prof.deriv(np.nextafter(node, inward)) == pytest.approx(s, rel=1e-14)
        u, s, k = prof.value(r[-1]), prof.deriv(r[-1]), prof.second(np.nextafter(r[-1], 0.0))
        assert prof.second(r[-1]) == pytest.approx(k, rel=1e-14)
        h = np.array([6.0, 40.0]) - r[-1]
        np.testing.assert_allclose(prof.value(h + r[-1]), u + s * h + 0.5 * k * h * h,
                                   rtol=1e-14)
        np.testing.assert_allclose(prof.deriv(h + r[-1]), s + k * h, rtol=1e-14)
        np.testing.assert_array_equal(prof.second(h + r[-1]), prof.second(r[-1]))
        r0, x = r[0], np.array([0.0, 0.2, np.nextafter(r[0], 0.0)])
        u, s = prof.value(r0), prof.deriv(r0)
        np.testing.assert_allclose(prof.value(x), u + s * (x * x - r0 * r0) / (2.0 * r0),
                                   rtol=1e-14)
        np.testing.assert_allclose(prof.deriv(x), s * x / r0, rtol=1e-14, atol=1e-300)
        np.testing.assert_array_equal(prof.second(x), s / r0)
        assert prof.deriv(0.0) == 0.0
        # U'' is 6r >= 3 on the pieces but s / r0 = 1.5 below r0: the range reads it
        assert prof.second_range()[0] == s / r0

    @pytest.mark.parametrize("with_du", [False, True])
    def test_tabulated_second_range_is_the_dense_extremes(self, with_du):
        # U'' = 2 + 9 sech^2 3x; the tabulated U'' is linear on each piece,
        # so the one-sided node values are its extremes on the half-line
        r = np.linspace(0.0, 8.0, 161)
        u = r ** 2 + np.logaddexp(3.0 * r, -3.0 * r) - math.log(2.0)
        du = 2.0 * r + 3.0 * np.tanh(3.0 * r) if with_du else None
        prof = PotentialSpec.tabulated(r, u, du=du).profile
        lo, hi = prof.second_range()
        # each piece sampled up to the last float below its right end, and past the ends
        t = np.linspace(0.0, 1.0, 257)
        x = r[:-1, None] + (r[1:] - r[:-1])[:, None] * t
        x[:, -1] = np.nextafter(r[1:], -math.inf)
        dense = prof.second(np.concatenate((x.ravel(), [8.0, 1e3])))
        assert (lo, hi) == pytest.approx((dense.min(), dense.max()), rel=1e-12)
        assert lo == pytest.approx(2.0, rel=0.05) and hi == pytest.approx(11.0, rel=0.05)

    def test_tabulated_slope_at_the_origin_is_zero(self):
        # without slopes, a first node r = 0 takes slope 0, so U(|x|) has no
        # kink at the origin (the one-sided parabola's slope was 0.0049 here)
        r = np.linspace(0.0, 8.0, 161)
        u = r ** 2 + np.logaddexp(3.0 * r, -3.0 * r) - math.log(2.0)
        assert PotentialSpec.tabulated(r, u).profile.deriv(0.0) == 0.0
        # a given slope is kept as given
        du = 2.0 * r + 3.0 * np.tanh(3.0 * r) + 0.25
        assert PotentialSpec.tabulated(r, u, du).profile.deriv(0.0) == 0.25

    def test_tabulated_r2_pieces_are_unchanged_by_the_origin_slope(self):
        # r^2 at 201 nodes: the one-sided parabola's slope at r = 0 was
        # 1.4e-17; with slope 0 there every other coefficient, and so every
        # Hermite piece's U'' and end quadratic, is unchanged bit for bit
        r = np.linspace(0.0, 20.0, 201)
        u = r * r
        h = np.diff(r)
        delta = np.diff(u) / h
        bend = np.diff(delta) / (h[:-1] + h[1:])
        one_sided = np.concatenate(([delta[0] - h[0] * bend[0]], delta[:-1] + h[:-1] * bend,
                                    [delta[-1] + h[-1] * bend[-1]]))
        assert one_sided[0] != 0.0
        before = RadialTabulated.from_samples(r, u, one_sided).coef
        after = RadialTabulated.from_samples(r, u).coef
        assert after[1, 0] == after[1, 1] == 0.0  # the slope at r = 0, in both pieces at it
        assert np.argwhere(before != after).tolist() == [[1, 0], [1, 1]]

    def test_tabulated_from_the_origin_keeps_its_lower_quadratic(self):
        # a table from r = 0 keeps the quadratic with the first cubic's
        # value, slope and one-sided U'' below its first node
        r = np.linspace(0.0, 8.0, 161)
        coef = RadialTabulated.from_samples(r, np.cosh(r) + r * r).coef
        np.testing.assert_array_equal(coef[:3, 0], coef[:3, 1])
        assert coef[3, 0] == 0.0

    @pytest.mark.parametrize("r0", [0.5, 0.75, 2.0])
    def test_tabulated_from_above_the_origin_holds_a_declaration_at_n_3(self, r0):
        # r^2 at 200 nodes from r0: the slope the quadratic below r0 used to
        # extrapolate to r = 0 was -2.3e-15 (r0 = 0.5) or 2.0e-13 (r0 = 2),
        # so U'/r was unbounded at the origin and [2, 2] was rejected. The
        # even quadratic's U'(0) still rounds at r0 = 0.75, to 2.2e-16, so
        # the limit of U'/r at 0 is read off its coefficient instead
        r = np.linspace(r0, 20.0, 200)
        prof = PotentialSpec.tabulated(r, r * r, dimension=3, hess_upper=2.0,
                                       hess_lower=2.0).profile
        assert abs(prof.deriv(0.0)) <= 1e-15
        assert prof.second(0.0) == prof.deriv(r0) / r0
        assert prof.tangential_range() == pytest.approx((2.0, 2.0), rel=1e-10)
        assert prof.second_range() == pytest.approx((2.0, 2.0), rel=1e-10)

    def test_tabulated_tangential_range_is_the_dense_extremes(self):
        # U' = r sin r + 2r, so U'/r = sin r + 2 has its extremes between the
        # nodes; past the last node it tends to that node's one-sided U''
        r = np.linspace(0.0, 20.0, 161)
        u = np.sin(r) - r * np.cos(r) + r * r
        prof = PotentialSpec.tabulated(r, u, du=r * np.sin(r) + 2.0 * r).profile
        lo, hi = prof.tangential_range()
        t = np.linspace(0.0, 1.0, 4097)[1:]
        x = np.concatenate(((r[:-1, None] + np.diff(r)[:, None] * t).ravel(),
                            np.geomspace(1e-9, 0.1, 200), np.geomspace(20.0, 1e15, 200)))
        dense = prof.deriv(x) / x
        assert lo == pytest.approx(dense.min(), rel=1e-9) and lo <= dense.min()
        assert hi == pytest.approx(dense.max(), rel=1e-12) and hi >= dense.max()
        assert lo == pytest.approx(1.0, rel=1e-3) and hi == pytest.approx(prof.second(30.0))

    def test_tabulated_tangential_eigenvalue_is_checked_for_n_at_least_2(self):
        # r^2 + 5r with its exact slopes: U'' = 2, but for n >= 2 the Hessian of
        # U(|x|) also has the eigenvalue U'(r)/r = 2 + 5/r, unbounded at 0
        r = np.linspace(0.0, 20.0, 201)
        u, du = r * r + 5.0 * r, 2.0 * r + 5.0
        prof = PotentialSpec.tabulated(r, u, du, dimension=1,
                                       hess_upper=2.0, hess_lower=2.0).profile
        x = np.array([0.1, 1e-3])
        np.testing.assert_allclose(prof.deriv(x) / x, [52.0, 5002.0], rtol=1e-12)
        assert prof.tangential_range() == (pytest.approx(2.0, rel=1e-10), math.inf)
        for n in (2, 3):
            with pytest.raises(ValueError, match=r"^declared Hessian bounds \[2.0, 2.0\] do not "
                               r"hold for the tabulated U'\(r\)/r range \[[\d.e-]+, inf\]$"):
                PotentialSpec.tabulated(r, u, du, dimension=n, hess_upper=2.0, hess_lower=2.0)
        # undeclared, or declared on one side only, nothing bounds it from above
        PotentialSpec.tabulated(r, u, du, dimension=3)
        PotentialSpec.tabulated(r, u, du, dimension=3, hess_lower=2.0)
        # r^2: U'/r is 2
        for n in (1, 3):
            prof = PotentialSpec.tabulated(r, r * r, dimension=n,
                                           hess_upper=2.0, hess_lower=2.0).profile
            assert prof.tangential_range() == pytest.approx((2.0, 2.0), rel=1e-10)

    def test_tabulated_deriv_is_the_derivative_of_value(self):
        # a du column that is not u's derivative still gives U' = dU/dr: on
        # each piece U' is quadratic, so 2-point Gauss-Legendre integrates it
        # exactly to the increment of U
        r = np.linspace(0.5, 5.0, 19)
        prof = PotentialSpec.tabulated(r, r ** 3, du=3.0 * r ** 2 + 0.3 * np.cos(5.0 * r)).profile
        edges = np.concatenate(([0.0], r, [9.0]))
        a, b = edges[:-1], edges[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = half[:, None] * np.array([-1.0, 1.0]) / math.sqrt(3.0) + mid[:, None]
        integral = half * prof.deriv(nodes).sum(axis=1)
        np.testing.assert_allclose(integral, prof.value(b) - prof.value(a),
                                   rtol=1e-13, atol=1e-13)

    def test_from_csv_roundtrip(self, tmp_path):
        r = np.linspace(0.0, 10.0, 500)
        path = tmp_path / "pot.csv"
        with open(path, "w") as fh:
            fh.write("r,u,du\n")
            for ri in r:
                fh.write(f"{float(ri)!r},{float(ri * ri)!r},{float(2.0 * ri)!r}\n")
        U = PotentialSpec.from_csv(path, dimension=1, hess_upper=2.0, hess_lower=2.0)
        assert float(U.value(2.0)) == pytest.approx(4.0, rel=1e-6)

    def test_from_csv_rejects_non_increasing_radii(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("r,u\n0.0,0.0\n1.0,1.0\n1.0,2.0\n")
        with pytest.raises(ValueError):
            PotentialSpec.from_csv(path, dimension=1)

    def test_tabulated_rejects_non_finite_or_missing_samples(self):
        # one NaN value would make every U'' range check pass and U NaN nearby
        r = np.linspace(0.0, 5.0, 20)
        for u, du in ((np.where(r == r[5], np.nan, r * r), None),
                      (r * r, np.where(r == r[5], np.inf, 2.0 * r))):
            with pytest.raises(ValueError, match="must be finite"):
                PotentialSpec.tabulated(r, u, du, hess_upper=2.0, hess_lower=2.0)
        with pytest.raises(ValueError, match="one value"):
            PotentialSpec.tabulated(r, r[:-1] ** 2)

    def test_tabulated_hessian_check_raises(self):
        r = np.linspace(0.0, 5.0, 200)
        with pytest.raises(ValueError, match=r"^declared Hessian bounds \[0.1, 0.5\] do not "
                           r"hold for the tabulated U'' range \[(1.9|2.0)\d*, (1.9|2.0)\d*\]$"):
            PotentialSpec.tabulated(r, r ** 2, du=2.0 * r, dimension=1,
                                    hess_upper=0.5, hess_lower=0.1)
        for lower, upper in ((2.5, 3.0), (2.5, None), (None, 1.9)):
            with pytest.raises(ValueError,
                               match=rf"^declared Hessian bounds \[{lower}, {upper}\]"):
                PotentialSpec.tabulated(r, r ** 2, hess_upper=upper, hess_lower=lower)
        # rounding alone moves U'' of r^2 at 2,000 nodes by ~3e-9: within tolerance
        r = np.linspace(0.0, 20.0, 2000)
        PotentialSpec.tabulated(r, r ** 2, hess_upper=2.0, hess_lower=2.0)


class TestNormalization:
    def test_cauchy_gaussian_and_2d_anchors(self, quad1):
        assert normalization(quad1, 1.0).z == pytest.approx(math.pi, rel=1e-10)
        assert normalization(quad1, INF).z == pytest.approx(math.sqrt(math.pi), rel=1e-10)
        U2 = PotentialSpec.quadratic(1.0, 2)
        assert normalization(U2, 2.0).z == pytest.approx(2.0 * math.pi, rel=1e-10)

    def test_divergent_mass_is_an_error(self):
        # (1 + r^2)^(-1) against r^2 dr in three dimensions has no mass
        U3 = PotentialSpec.quadratic(1.0, 3)
        with pytest.raises(DivergentIntegral):
            normalization(U3, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_reference_integral_for_unit_quadratic(self, n):
        U = PotentialSpec.quadratic(1.0, n)
        for p in (n, n + 1, 2 * n, 10 * n):
            z = normalization(U, float(p)).z
            i_p = math.exp(log_reference_integral(n, float(p)))
            assert z == pytest.approx(i_p, rel=1e-8)

    def test_one_dim_uses_both_half_lines(self):
        U = PotentialSpec.one_dim(lambda x: (x - 1.0) ** 2,
                                  lambda x: 2.0 * (x - 1.0))
        # shift invariance: same mass as the centered Gaussian
        assert normalization(U, INF).z == pytest.approx(math.sqrt(math.pi), rel=1e-9)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0, 30.0, math.inf])
    @pytest.mark.parametrize("a", [0.3, 1.0, 3.37, 10.0])
    def test_shifted_quadratic_matches_closed_form(self, a, p):
        """a (x + s)^2 for s = 0..40: sqrt(p/a) B(1/2, p - 1/2), sqrt(pi/a) at p = inf.

        At finite p the peak far out is about as narrow as the layout probe's
        spacing (p = 3, a = 10, s = 36 was off by 1.3e-3); at p = inf and
        a = 10 the weight underflows on the whole first truncation probe
        from s = 19 on.
        """
        if math.isinf(p):
            param, want = INF, math.sqrt(math.pi / a)
        else:
            param = float(p)
            want = math.sqrt(p / a) * math.gamma(0.5) * math.gamma(p - 0.5) / math.gamma(p)
        errors = {}
        for s in range(41):
            U = PotentialSpec.one_dim(lambda x, s=s: a * (x + s) ** 2,
                                      lambda x, s=s: 2.0 * a * (x + s))
            errors[s] = abs(normalization(U, param).z / want - 1.0)
        assert {s: e for s, e in errors.items() if not e <= 1e-13} == {}


def test_narrow_far_peaks_stay_within_todays_errors():
    """A ratchet on the normalizations of a narrow peak far out, which the
    probe's placement catches or not: a (x + s)^2 for a in {100, 1000},
    p in {1.5, 3, 30} and s = 0, 4, ..., 40, against sqrt(p/a) B(1/2, p - 1/2).

    31 of the 66 are off by more than 1e-12, the worst by 3.4e-3 (9.2e-3
    with the doubling search's table ends). Tables laid out by Kronrod
    error control (ROADMAP item 21) would mend them; until then, no more
    cases and no worse a worst case than at the doubling search.
    """
    errors = []
    for a in (100.0, 1000.0):
        for p in (1.5, 3.0, 30.0):
            want = math.sqrt(p / a) * math.exp(betaln(0.5, p - 0.5))
            for s in range(0, 41, 4):
                U = PotentialSpec.one_dim(lambda x, s=s, a=a: a * (x + s) ** 2,
                                          lambda x, s=s, a=a: 2.0 * a * (x + s))
                errors.append(abs(normalization(U, p).z / want - 1.0))
    assert len(errors) == 66
    assert sum(not e <= 1e-12 for e in errors) <= 31
    assert max(errors) <= 9.3e-3


class TestTailTables:
    def test_one_table_per_potential_parameter_and_dimension(self):
        U = PotentialSpec.quadratic(1.0, 2)
        p = 3.0
        assert mass_table(U, p) is tail_table(U, p, 2)
        assert tail_table(U, p, 2) is not tail_table(U, p, 1)
        assert mass_table(U, p) is not mass_table(U, INF)

    def test_dropped_potentials_are_collected(self):
        V, W = PotentialSpec.quadratic(1.0, 1), PotentialSpec.quadratic(0.5, 1)
        radial_map(V, W, 2.0, 3.0, 1)
        growth_data(V, W, 2.0, 3.0, 1.0, 1)
        refs = [weakref.ref(V), weakref.ref(W)]
        del V, W
        gc.collect()
        assert [r() for r in refs] == [None, None]


EPS = np.finfo(float).eps

# (n, p) cases of the engine tests and a radius deep in each one's tail:
# below 1e-170 of the mass for p = 50 and p = inf, 1e-20 for p = n
ENGINE_CASES = [(n, p) for n in (1, 2, 3) for p in (float(n), 50.0, math.inf)]


def _deep_radius(n, p):
    return 20.0 if math.isinf(p) else (1e3 if p == 50.0 else 1e20)


@functools.lru_cache(maxsize=None)
def _unit_table(n, p):
    """The radial table of |x|^2 at (n, p), shared across examples."""
    U = PotentialSpec.quadratic(1.0, n)
    return tail_table(U, p, n)


class TestTruncation:
    """Where a table's first probe ends it, and when that probe finds no end."""

    def test_table_reaches_past_a_peak_beyond_the_first_radius(self):
        # r^39 exp(-r^2) rises up to sqrt(19.5) ~ 4.42
        t = tail_table(PotentialSpec.quadratic(1.0, 40), INF, 40)
        assert t.r_max > math.sqrt(19.5)
        assert t.total == pytest.approx(math.gamma(20) / 2, rel=1e-13)

    def test_a_far_peak_is_reached(self):
        # a bump at r = 1e6, fifteen decades past where the probe starts
        table = TailTable(lambda r: np.exp(-0.5 * ((np.asarray(r) - 1e6) / 5e4) ** 2), INF)
        assert table.r_max > 1e6
        assert table.total == pytest.approx(5e4 * math.sqrt(2.0 * math.pi), rel=1e-13)

    @pytest.mark.parametrize("n,p", [(1, 1.0), (1, 2.0), (3, 6.0), (1, math.inf),
                                      (1, 4000.0)])
    def test_the_table_ends_at_the_first_decayed_probe_point(self, n, p):
        # the first probe point past the probe's peak where the weight is at
        # most 1e-16 of that peak
        calls = []
        f = _radial_weight(PotentialSpec.quadratic(1.0, n), p, n)
        table = TailTable(recording(f, calls), p)
        probe = calls[0]
        assert probe[0] == table.r_lo and probe[-1] == 1e10
        values = f(probe)
        top = int(np.argmax(values))
        past = np.flatnonzero(values[top:] <= 1e-16 * values[top])
        assert table.r_max == probe[top + past[0]]

    @pytest.mark.parametrize("p", [1.0, 2.0, 6.0, 4000.0, math.inf])
    def test_the_end_is_within_a_probe_step_of_the_decay_radius(self, p):
        # (1 + r^2/p)^(-p) peaks at r = 0 and is 1e-16 of that peak at r_star
        # (up to rounding: for p = 1 it is the probe point 1e8); a Gaussian
        # ends at 6.13, where the doubling search stopped at 8
        r_star = (math.sqrt(16.0 * math.log(10.0)) if math.isinf(p)
                  else math.sqrt(p * math.expm1(16.0 * math.log(10.0) / p)))
        r_max = tail_table(PotentialSpec.quadratic(1.0, 1), p, 1).r_max
        assert r_star * (1.0 - 1e-14) <= r_max < r_star * 10.0 ** (1.0 / 160.0)

    def test_no_decay_by_the_radius_cap_is_divergence(self):
        with pytest.raises(DivergentIntegral,
                           match=r"^no decay below 1e-16 x peak by radius 1e\+10$"):
            TailTable(lambda r: np.ones(np.size(r)), 3.0)

    def test_a_zero_weight_is_divergence(self):
        with pytest.raises(DivergentIntegral, match=r"^integrand peak is zero or non-finite$"):
            TailTable(lambda r: np.zeros(np.size(r)), 3.0)


class TestTailEngine:
    @pytest.mark.parametrize("n,p", ENGINE_CASES)
    def test_arrays_match_scalar_calls(self, n, p):
        t = _unit_table(n, p)
        r = np.logspace(-6, math.log10(_deep_radius(n, p)), 40)
        tail, head = t.tail(r), t.head(r)
        np.testing.assert_allclose(tail, [t.tail(x) for x in r], rtol=4 * EPS, atol=0)
        np.testing.assert_allclose(head, [t.head(x) for x in r], rtol=4 * EPS, atol=0)
        assert isinstance(t.tail(1.0), float) and isinstance(t.head(1.0), float)
        np.testing.assert_allclose(t.invert(tail)[0], [t.invert(x)[0] for x in tail],
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(t.invert(head, head=True)[0],
                                   [t.invert(x, head=True)[0] for x in head],
                                   rtol=1e-14, atol=0)
        assert np.max(np.abs(head + tail - t.total)) <= 4 * EPS * t.total

    def test_cauchy_closed_forms(self):
        t = _unit_table(1, 1.0)
        r = np.logspace(-6, 15, 200)
        np.testing.assert_allclose(t.head(r), np.arctan(r), rtol=1e-14, atol=0)
        np.testing.assert_allclose(t.tail(r), np.arctan(1.0 / r), rtol=1e-14, atol=0)

    def test_gaussian_closed_forms(self):
        # at radius r the weight itself is only known to ~2 r^2 eps
        t = _unit_table(1, math.inf)
        r = np.logspace(-6, math.log10(6.0), 200)
        half = math.sqrt(math.pi) / 2
        np.testing.assert_allclose(t.head(r), half * erf(r), rtol=1e-14, atol=0)
        np.testing.assert_allclose(t.tail(r), half * erfc(r), rtol=1e-13, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(ENGINE_CASES), u=st.floats(0.0, 1.0))
    def test_round_trip(self, case, u):
        n, p = case
        t = _unit_table(n, p)
        r = 1e-6 * (_deep_radius(n, p) / 1e-6) ** u
        # each side is inverted where its mass is the smaller one: there the
        # radius is well conditioned in it
        tail, head = t.tail(r), t.head(r)
        if tail <= head:
            assert t.invert(tail)[0] == pytest.approx(r, rel=1e-13)
        else:
            assert t.invert(head, head=True)[0] == pytest.approx(r, rel=1e-13)

    def test_radii_past_the_table_extend_it(self):
        t = tail_table(PotentialSpec.quadratic(1.0, 1), 1.0, 1)
        end = t.nodes[-1]
        assert t.tail(1e3 * end) == pytest.approx(math.atan(1e-3 / end), rel=1e-14)
        assert t.nodes[-1] > 1e3 * end


_PI_60 = "3.14159265358979323846264338327950288419716939937510582097494459"


class TestReferenceIntegral:
    def test_closed_form_anchors(self):
        i_p = lambda n, p: math.exp(log_reference_integral(n, float(p)))  # noqa: E731
        assert i_p(1, 1) == pytest.approx(math.pi, rel=1e-12)
        assert i_p(2, 2) == pytest.approx(2 * math.pi, rel=1e-12)
        assert i_p(1, 1e6) == pytest.approx(
            math.sqrt(math.pi), rel=1e-5)
        for n in (1, 2, 3, 100):  # I_inf = integral of exp(-|z|^2) = pi^(n/2)
            assert log_reference_integral(n, INF) == 0.5 * n * math.log(math.pi)

    def test_domain_error_below_n(self):
        with pytest.raises(DomainError):
            log_reference_integral(3, 2.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100])
    def test_log_form_against_mpmath(self, n):
        # no two large log-gammas cancel, below p = 171 or above it: the error
        # is a few ulps of the larger of n/2 log(pi p) and the result
        mp = pytest.importorskip("mpmath")
        for p in np.geomspace(n, 1e6, 40).tolist() + [171.5, 334.5, 1e5]:
            got = log_reference_integral(n, p)
            with mp.workdps(50):
                want = (mp.mpf(n) / 2 * (mp.log(p) + mp.log(mp.pi))
                        + mp.loggamma(mp.mpf(p) - mp.mpf(n) / 2) - mp.loggamma(p))
                err = abs(float(got - want))
            assert err <= 4 * math.ulp(max(abs(n / 2 * math.log(math.pi * p)), abs(got))), p

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_at_half_integers(self, n):
        # Gamma at an integer or half-integer is a rational, times sqrt(pi)
        # for a half-integer, so log I_p has a 50-digit reference in the
        # standard library; up to p = 170 no two large log-gammas cancel
        def gamma_half(k):  # Gamma(k/2) as (rational, power of sqrt(pi))
            if k % 2 == 0:
                return Fraction(math.factorial(k // 2 - 1)), 0
            m = k // 2
            return Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m)), 1

        with decimal.localcontext() as ctx:
            ctx.prec = 50
            log_pi = decimal.Decimal(_PI_60).ln()
            for k in range(2 * n, 341):
                (a, ea), (b, eb) = gamma_half(k - n), gamma_half(k)
                ratio = decimal.Decimal((a / b).numerator) / (a / b).denominator
                p = decimal.Decimal(k) / 2
                want = (n * (p.ln() + log_pi) + (ea - eb) * log_pi) / 2 + ratio.ln()
                got = log_reference_integral(n, k / 2)
                assert abs(decimal.Decimal(got) - want) <= decimal.Decimal("3e-15"), k / 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_strictly_decreasing_in_p(self, n):
        ps = sorted({n, n + 1, 2 * n, 10 * n, 100 * n})
        vals = [math.exp(log_reference_integral(n, float(p))) for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_two_sided_envelope(self, n):
        w = unit_ball_volume(n)
        i_n = math.exp(log_reference_integral(n, float(n)))
        assert i_n <= 2.0 * w * n ** (n / 2.0)
        floor = math.exp(-n) * w * n ** (n / 2.0)
        for p in np.linspace(n, 200, 40):
            assert math.exp(log_reference_integral(n, float(p))) >= floor


class TestGeometry:
    def test_unit_ball_volumes(self):
        assert unit_ball_volume(1) == 2.0
        assert unit_ball_volume(2) == math.pi
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_unit_ball_volumes_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for n in range(1, 201):
            with mp.workdps(40):
                half = mp.mpf(n) / 2
                want = mp.pi ** half / mp.gamma(half + 1)
                rel = abs(float((unit_ball_volume(n) - want) / want))
            assert rel <= 20 * np.finfo(float).eps, n

    def test_tail_quadrature_handles_slow_and_fast_decay(self):
        val = tail_quadrature(lambda s: 1.0 / (1.0 + s * s), 1e6)
        assert val == pytest.approx(math.pi / 2 - math.atan(1e6), rel=1e-10)
        val = tail_quadrature(lambda s: np.exp(-s * s), 2.0)
        assert val == pytest.approx(math.sqrt(math.pi) / 2 * math.erfc(2.0), rel=1e-9)


def quadratic_tail(n, a, p, r):
    """integral_r^inf s^(n-1) (1 + a s^2/p)^(-p) ds in closed form (p = inf: e^(-a s^2))."""
    if math.isinf(p):
        return 0.5 * a ** (-0.5 * n) * math.gamma(0.5 * n) * gammaincc(0.5 * n, a * r * r)
    t = a * r * r / p
    return (0.5 * (p / a) ** (0.5 * n) * math.exp(betaln(0.5 * n, p - 0.5 * n))
            * betainc(p - 0.5 * n, 0.5 * n, 1.0 / (1.0 + t)))


class TestFarTail:
    @pytest.mark.parametrize("a", [0.25, 1.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p_token", ["n", "1.5n", "10", "400", "inf"])
    def test_quadratic_family_closed_form(self, n, a, p_token):
        # near-Gaussian weights (p = 400, inf) drop by many decades across
        # the first ratio-2 panel past r_max: an ungraded ladder misses them
        p = {"n": n, "1.5n": 1.5 * n}.get(p_token) or float(p_token)
        table = tail_table(PotentialSpec.quadratic(a, n), float(p), n)
        exact = quadratic_tail(n, a, p, table.r_max)
        assert table.tail_inf == pytest.approx(exact, rel=1e-12)
        for r in table.r_max * np.array([1.5, 4.0, 100.0]):
            assert tail_quadrature(table.f, r) == pytest.approx(
                quadratic_tail(n, a, p, r), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("n,a,r", [(2, 3.0, 14.607), (3, 1.0, 25.975)])
    def test_deep_in_a_gaussian_tail(self, n, a, r):
        # tails of 1.7e-279 and 1.2e-292, four times the table's end: a
        # weight that falls by hundreds of decades over the rule's first
        # factor of 2 (ratio-2^(1/16) panels there missed by 1.1e-12 and 3.8e-12)
        f = tail_table(PotentialSpec.quadratic(a, n), math.inf, n).f
        assert tail_quadrature(f, r) == pytest.approx(quadratic_tail(n, a, math.inf, r),
                                                      rel=1e-13, abs=0.0)

    def test_stops_before_a_high_dimensional_weight_overflows(self):
        # r^(n-1) overflows far past r_max, where the weight has long vanished
        n = 20
        table = tail_table(PotentialSpec.quadratic(1.0, n), float(n), n)
        assert table.tail_inf == pytest.approx(quadratic_tail(n, 1.0, n, table.r_max), rel=1e-12)


def mass_fractions(n, a, p, r):
    """(head, tail): the shares of integral_0^inf s^(n-1) (1 + a s^2/p)^(-p) ds
    (p = inf: e^(-a s^2)) below and above r. The smaller share comes from the
    incomplete function that keeps it to full relative precision, however
    small it is, and the larger is one minus it."""
    x = a * np.square(np.asarray(r, dtype=float))
    if math.isinf(p):
        # Q(s + 1, x) = Q(s, x) + x^s e^-x / Gamma(s + 1) from Q(1/2) = erfc or
        # Q(1) = e^-x: gammaincc is off by up to ~4e-14 here
        s, tail = (0.5, erfc(np.sqrt(x))) if n % 2 else (0.0, np.zeros_like(x))
        while s < 0.5 * n:
            tail = tail + np.exp(s * np.log(x) - x - math.lgamma(s + 1.0))
            s += 1.0
        head = gammainc(0.5 * n, x)
    else:
        u, v = x / (p + x), p / (p + x)
        lo, hi = 0.5 * n, p - 0.5 * n
        head = np.where(u < 0.5, betainc(lo, hi, u), betaincc(hi, lo, v))
        tail = np.where(u < 0.5, betaincc(lo, hi, u), betainc(hi, lo, v))
    return np.where(head <= tail, head, 1.0 - tail), np.where(tail <= head, tail, 1.0 - head)


class TestTableAccuracy:
    """Table masses and radii against the quadratic family's closed forms."""

    RADII = np.logspace(-6, 25, 125)

    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("n,p", [(n, p) for n in (1, 2, 3)
                                     for p in (1.0, 2.0, 3.0, 6.0, 4000.0, math.inf) if p >= n])
    def test_tail_head_and_inverses(self, n, p, a):
        table = tail_table(PotentialSpec.quadratic(a, n), float(p), n)
        r = self.RADII
        head, tail = mass_fractions(n, a, p, r)
        # tail fractions down to 1e-270: Gaussian fractions of 1e-257 and
        # power tails out to r = 1e25, past several extensions
        seen = tail >= 1e-270
        np.testing.assert_allclose(table.tail(r[seen]) / table.total, tail[seen],
                                   rtol=3e-13, atol=0)
        np.testing.assert_allclose(table.head(r) / table.total, head, rtol=2e-14, atol=0)
        # each side is inverted where its mass is the smaller one
        side = seen & (tail <= head)
        np.testing.assert_allclose(table.invert(tail[side] * table.total)[0], r[side],
                                   rtol=1e-14, atol=0)
        side = head <= tail
        np.testing.assert_allclose(table.invert(head[side] * table.total, head=True)[0], r[side],
                                   rtol=1e-14, atol=0)

    def test_a_tail_below_the_normal_range_keeps_its_digits(self):
        # e^(-theta) alone is denormal at r = 1e27 (n = 3, p = 6): the weight
        # keeps its digits there only when r^2 e^(-theta) is formed in log space
        table = tail_table(PotentialSpec.quadratic(1.0, 3), 6.0, 3)
        _, tail = mass_fractions(3, 1.0, 6.0, 1e27)
        assert table.tail(1e27) / table.total == pytest.approx(float(tail), rel=3e-13)
        assert table.invert(float(tail) * table.total)[0] == pytest.approx(1e27, rel=1e-14)

    @pytest.mark.parametrize("n,p", [(30, 30.0), (34, 51.0), (40, 40.0), (40, math.inf)])
    def test_high_dimensional_weights_do_not_overflow(self, n, p):
        # r^(n-1) overflows at r = 1e6 for n >= 30, where the weight is far
        # below the normal range or zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = tail_table(PotentialSpec.quadratic(1.0, n), float(p), n)
            r = np.array([2.0, 5.0, 10.0, 1e3, 1e6])
            got = table.tail(r) / table.total
        _, want = mass_fractions(n, 1.0, p, r)
        np.testing.assert_allclose(got, want, rtol=3e-13, atol=1e-300)


def recording(f, calls):
    """f, appending every array it is evaluated at to ``calls``."""
    def wrapped(r):
        calls.append(np.atleast_1d(np.asarray(r, dtype=float)).copy())
        return f(r)
    return wrapped


class TestTableWork:
    """The node rule and append-only extension, by what they evaluate."""

    def test_extension_evaluates_only_past_the_old_end(self):
        table = tail_table(PotentialSpec.quadratic(1.0, 1), 1.0, 1)
        nodes, panels = table.nodes.copy(), table._panels.copy()
        calls = []
        table.f = recording(table.f, calls)
        table.tail(1e20)
        assert table.nodes[-1] > 1e20 and calls
        assert min(float(c.min()) for c in calls) >= nodes[-1]
        # the old panels are kept as they were, the new ones appended
        np.testing.assert_array_equal(table.nodes[:nodes.size], nodes)
        np.testing.assert_array_equal(table._panels[:panels.size], panels)

    def test_a_cold_build_probes_once_then_integrates_once(self):
        # one call on the probe out to the radius cap, one on the panels'
        # Gauss-Legendre nodes, then the far-tail rule's, past the table's end
        calls = []
        f = _radial_weight(PotentialSpec.quadratic(1.0, 2), 3.0, 2)
        table = TailTable(recording(f, calls), 3.0)
        probe, panels, *far = calls
        assert probe[0] == table.r_lo and probe[-1] == 1e10 and np.all(np.diff(probe) > 0)
        assert panels.size == 21 * (table.nodes.size - 1)
        assert 1 <= len(far) <= 3 and all(float(c.min()) > table.r_max for c in far)

    def test_a_power_law_needs_few_panels(self):
        cauchy = tail_table(PotentialSpec.quadratic(1.0, 1), 1.0, 1)
        cauchy.invert(1e-27)  # extends to r_max ~ 1e27 (1e8, 1e12, 1e18, 1e27)
        assert cauchy.r_max > 1e27
        assert cauchy.nodes.size <= 1000
        table = tail_table(PotentialSpec.quadratic(1.0, 1), 2.0, 1)
        assert table.nodes.size <= 400

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_a_map_solve_is_three_rounds_for_both_sides(self, p):
        # |x|^2 -> |x|^2 / 4 at d = D = p on the 400-point default grid:
        # head targets where the source tail fraction exceeds 1/2, tail
        # targets elsewhere, solved in one call, one weight call a round
        tv = tail_table(PotentialSpec.quadratic(1.0, 1), p, 1)
        tw = tail_table(PotentialSpec.quadratic(0.25, 1), p, 1)
        r = default_grid(p)
        tail = tv.tail(r) / tv.total
        r, tail = r[tail > 1e-280], tail[tail > 1e-280]
        head = tail > 0.5
        targets = np.where(head, tv.head(r) / tv.total, tail) * tw.total
        tw.tail(2.0 * r[-1])  # extends the table past every root first
        calls = []
        tw.f = recording(tw.f, calls)
        roots, masses = tw.invert(targets, head)
        assert 1 <= len(calls) <= 3
        # the roots of the two one-sided solves; their masses to the rounding
        # of the panel sums, which depends on how many rows a call has
        for side in (head, ~head):
            one_side, mass = tw.invert(targets[side], head=side[0])
            np.testing.assert_array_equal(one_side, roots[side])
            np.testing.assert_array_max_ulp(mass, masses[side], maxulp=2)
        # the masses are the table's at the returned roots
        np.testing.assert_array_max_ulp(masses[head], tw.head(roots[head]), maxulp=2)
        np.testing.assert_array_max_ulp(masses[~head], tw.tail(roots[~head]), maxulp=2)

    def test_a_growth_radius_is_three_rounds(self):
        V, W = PotentialSpec.quadratic(1.0, 1), PotentialSpec.quadratic(0.25, 1)
        table = mass_table(W, 4.0)
        calls = []
        table.f = recording(table.f, calls)
        g = growth_data(V, W, 4.0, 4.0, 1.0, 1)
        assert 1 <= len(calls) <= 3
        radius, mass = table.invert(g.m_frak * table.total)
        assert 3.0 * radius == g.fathi_radius
        np.testing.assert_array_max_ulp(mass, table.tail(radius), maxulp=2)

    def test_panels_end_at_the_nodes_of_a_tabulated_profile(self):
        r = 0.25 * np.arange(81)
        table = tail_table(PotentialSpec.tabulated(r, r * r), 3.0, 1)
        assert np.all(np.isin(r[1:], table.nodes))


class TestInversionStart:
    """Targets where the Hermite start from the panel ends falls back, or that
    sit on the table's edges, against the closed forms."""

    def test_a_head_target_in_the_first_panel(self):
        # the head sum is 0 at the origin: log 0 has no Hermite start
        table = tail_table(PotentialSpec.quadratic(1.0, 1), math.inf, 1)
        r = np.array([1e-12, 1e-10, 5e-10, 9e-10])
        assert np.all(r < table.nodes[1])
        roots, _ = table.invert(0.5 * math.sqrt(math.pi) * erf(r), head=True)
        np.testing.assert_allclose(roots, r, rtol=1e-14, atol=0)

    def test_a_weight_that_vanishes_at_the_origin(self):
        # n = 2: f(0) = 0 and the head sum is 0 at the origin, so the first
        # panel has neither a Hermite slope nor a log there
        table = tail_table(PotentialSpec.quadratic(1.0, 2), math.inf, 2)
        r = np.array([1e-12, 1e-10, 5e-10, 1e-6, 1e-3])
        roots, _ = table.invert(-0.5 * np.expm1(-r * r), head=True)
        np.testing.assert_allclose(roots, r, rtol=1e-14, atol=0)

    def test_a_panel_end_whose_weight_underflows(self):
        # deep in a Gaussian tail (fractions 1e-296 to 1e-306), where a
        # panel's outer end has a subnormal weight
        table = tail_table(PotentialSpec.quadratic(3.0, 1), math.inf, 1)
        r = np.linspace(15.0, 15.3, 13)
        _, tail = mass_fractions(1, 3.0, math.inf, r)
        roots, _ = table.invert(tail * table.total)
        assert np.any(table._f_nodes[np.searchsorted(table.nodes, r)] < np.finfo(float).tiny)
        np.testing.assert_allclose(roots, r, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n,p", [(1, 3.0), (2, math.inf), (3, 6.0)])
    def test_targets_equal_to_panel_end_sums(self, n, p):
        # each side where its mass is the smaller one
        table = tail_table(PotentialSpec.quadratic(1.0, n), p, n)
        k = np.arange(1, table.nodes.size - 1)
        tail = k[table.cum[k] <= 0.5 * table.total]
        head = k[table.head_cum[k] <= 0.5 * table.total]
        roots, masses = table.invert(table.cum[tail])
        np.testing.assert_allclose(roots, table.nodes[tail], rtol=1e-14, atol=0)
        np.testing.assert_array_max_ulp(masses, table.tail(roots), maxulp=2)
        roots, masses = table.invert(table.head_cum[head], head=True)
        np.testing.assert_allclose(roots, table.nodes[head], rtol=1e-14, atol=0)
        np.testing.assert_array_max_ulp(masses, table.head(roots), maxulp=2)
        _, want = mass_fractions(n, 1.0, p, table.nodes[tail])
        np.testing.assert_allclose(table.cum[tail] / table.total, want, rtol=3e-13, atol=0)

    def test_the_ends_of_the_mass_range(self):
        # head target 0 and tail target total are the origin, with no solve
        table = tail_table(PotentialSpec.quadratic(1.0, 2), 3.0, 2)
        roots, masses = table.invert(np.array([0.0, table.total]), np.array([True, False]))
        assert roots.tolist() == [0.0, 0.0] and masses.tolist() == [0.0, table.total]

    def test_a_cauchy_target_that_extends_the_table(self):
        table = tail_table(PotentialSpec.quadratic(1.0, 1), 1.0, 1)
        end = table.r_max
        root, mass = table.invert(1e-27)
        assert table.r_max > 1e27 > end
        # tail(r) = atan(1/r)
        assert root == pytest.approx(1.0 / math.tan(1e-27), rel=1e-14)
        np.testing.assert_array_max_ulp(mass, table.tail(root), maxulp=2)

    def test_the_breaks_of_a_tabulated_profile(self):
        # the nodes of r^2 tabulated at r = 0.25 k are panel ends that the
        # layout probe misses: their weights come from the panel call
        r = 0.25 * np.arange(1, 81)
        table = tail_table(PotentialSpec.tabulated(np.append(0.0, r), np.append(0.0, r * r)),
                           3.0, 1)
        ends = np.isin(table.nodes, r)
        np.testing.assert_array_equal(table._f_nodes[ends], table.f(table.nodes[ends]))
        head, tail = mass_fractions(1, 1.0, 3.0, r)
        side = tail <= head
        roots, _ = table.invert(np.where(side, tail, head) * table.total, ~side)
        np.testing.assert_allclose(roots, r, rtol=1e-14, atol=0)
