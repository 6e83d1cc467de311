import functools
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc, betaln, erf, erfc, gammaincc

from brenier_bounds import (DivergentIntegral, DomainError, ExtParam, INF,
                            PotentialSpec, growth_data, normalization,
                            radial_map, reference_integral, unit_ball_volume)
from brenier_bounds.potentials import (log_reference_integral, mass_table,
                                       tail_quadrature, tail_table)


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
        r = np.linspace(0.0, 20.0, 2000)
        U = PotentialSpec.tabulated(r, r ** 2, du=2.0 * r, dimension=1,
                                    hess_upper=2.0, hess_lower=2.0)
        x = np.array([0.3, 1.7, 12.4])
        assert np.allclose(U.value(x), x ** 2, rtol=1e-6, atol=1e-6)
        assert np.allclose(U.deriv(x), 2.0 * x, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("with_du", [False, True])
    def test_tabulated_end_constants_match_the_interpolants(self, with_du):
        # value and deriv take u and u' at the end nodes from constants set
        # at construction: they must equal evaluating the interpolants there
        r = np.linspace(0.5, 5.0, 19)
        prof = PotentialSpec.tabulated(r, r ** 3, du=3.0 * r ** 2 if with_du else None).profile
        lo, hi = r[0], r[-1]

        def value(x):
            x = np.asarray(x, dtype=float)
            out = np.asarray(prof.u_interp(np.clip(x, lo, hi)), dtype=float)
            out = np.where(x > hi, prof.u_interp(hi) + float(prof.du_interp(hi)) * (x - hi), out)
            return np.where(x < lo, prof.u_interp(lo) + float(prof.du_interp(lo)) * (x - lo), out)

        def deriv(x):
            x = np.asarray(x, dtype=float)
            out = np.asarray(prof.du_interp(np.clip(x, lo, hi)), dtype=float)
            out = np.where(x > hi, prof.du_interp(hi), out)
            return np.where(x < lo, prof.du_interp(lo), out)

        x = np.array([0.0, 0.2, lo, 1.3, 2.75, hi, 6.0, 40.0])
        assert np.array_equal(prof.value(x), value(x))
        assert np.array_equal(prof.deriv(x), deriv(x))
        for v in x.tolist():
            assert prof.value(v) == float(value(v)) and type(prof.value(v)) is float
            assert prof.deriv(v) == float(deriv(v)) and type(prof.deriv(v)) is float

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

    def test_tabulated_hessian_spot_check_warns(self):
        r = np.linspace(0.0, 5.0, 200)
        with pytest.warns(UserWarning):
            PotentialSpec.tabulated(r, r ** 2, du=2.0 * r, dimension=1,
                                    hess_upper=0.5, hess_lower=0.1)


class TestNormalization:
    def test_cauchy_gaussian_and_2d_anchors(self, quad1):
        assert normalization(quad1, ExtParam.finite(1)).z == pytest.approx(math.pi, rel=1e-10)
        assert normalization(quad1, INF).z == pytest.approx(math.sqrt(math.pi), rel=1e-10)
        U2 = PotentialSpec.quadratic(1.0, 2)
        assert normalization(U2, ExtParam.finite(2)).z == pytest.approx(2.0 * math.pi, rel=1e-10)

    def test_divergent_mass_is_an_error(self):
        # (1 + r^2)^(-1) against r^2 dr in three dimensions has no mass
        U3 = PotentialSpec.quadratic(1.0, 3)
        with pytest.raises(DivergentIntegral):
            normalization(U3, ExtParam.finite(1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_reference_integral_for_unit_quadratic(self, n):
        U = PotentialSpec.quadratic(1.0, n)
        for p in (n, n + 1, 2 * n, 10 * n):
            z = normalization(U, ExtParam.finite(p)).z
            assert z == pytest.approx(reference_integral(n, ExtParam.finite(p)), rel=1e-8)

    def test_one_dim_uses_both_half_lines(self):
        U = PotentialSpec.one_dim(lambda x: (x - 1.0) ** 2,
                                  lambda x: 2.0 * (x - 1.0))
        # shift invariance: same mass as the centered Gaussian
        assert normalization(U, INF).z == pytest.approx(math.sqrt(math.pi), rel=1e-9)


class TestTailTables:
    def test_one_table_per_potential_parameter_and_dimension(self):
        U = PotentialSpec.quadratic(1.0, 2)
        p = ExtParam.finite(3)
        assert mass_table(U, p) is tail_table(U, p, 2)
        assert tail_table(U, p, 2) is not tail_table(U, p, 1)
        assert mass_table(U, p) is not mass_table(U, INF)

    def test_dropped_potentials_are_collected(self):
        V, W = PotentialSpec.quadratic(1.0, 1), PotentialSpec.quadratic(0.5, 1)
        radial_map(V, W, ExtParam.finite(2), ExtParam.finite(3), 1)
        growth_data(V, W, 2.0, ExtParam.finite(3), 1.0, 1)
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
    return tail_table(U, INF if math.isinf(p) else ExtParam.finite(p), n)


class TestTruncation:
    def test_table_reaches_past_a_peak_beyond_the_first_radius(self):
        # r^39 exp(-r^2) rises up to sqrt(19.5) ~ 4.42
        t = tail_table(PotentialSpec.quadratic(1.0, 40), INF, 40)
        assert t.r_max > math.sqrt(19.5)
        assert t.total == pytest.approx(math.gamma(20) / 2, rel=1e-13)


class TestTailEngine:
    @pytest.mark.parametrize("n,p", ENGINE_CASES)
    def test_arrays_match_scalar_calls(self, n, p):
        t = _unit_table(n, p)
        r = np.logspace(-6, math.log10(_deep_radius(n, p)), 40)
        tail, head = t.tail(r), t.head(r)
        np.testing.assert_allclose(tail, [t.tail(x) for x in r], rtol=4 * EPS, atol=0)
        np.testing.assert_allclose(head, [t.head(x) for x in r], rtol=4 * EPS, atol=0)
        assert isinstance(t.tail(1.0), float) and isinstance(t.head(1.0), float)
        np.testing.assert_allclose(t.invert(tail), [t.invert(x) for x in tail],
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(t.invert(head, head=True),
                                   [t.invert(x, head=True) for x in head],
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
            assert t.invert(tail) == pytest.approx(r, rel=1e-13)
        else:
            assert t.invert(head, head=True) == pytest.approx(r, rel=1e-13)

    def test_radii_past_the_table_extend_it(self):
        t = tail_table(PotentialSpec.quadratic(1.0, 1), ExtParam.finite(1), 1)
        end = t.nodes[-1]
        assert t.tail(1e3 * end) == pytest.approx(math.atan(1e-3 / end), rel=1e-14)
        assert t.nodes[-1] > 1e3 * end


class TestReferenceIntegral:
    def test_closed_form_anchors(self):
        assert reference_integral(1, ExtParam.finite(1)) == pytest.approx(math.pi, rel=1e-12)
        assert reference_integral(2, ExtParam.finite(2)) == pytest.approx(2 * math.pi, rel=1e-12)
        assert reference_integral(1, ExtParam.finite(1e6)) == pytest.approx(
            math.sqrt(math.pi), rel=1e-5)

    def test_domain_error_below_n(self):
        with pytest.raises(DomainError):
            reference_integral(3, ExtParam.finite(2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_log_form_against_mpmath(self, n):
        # the sum of logs and log-gammas cancels: the error is a few ulps of
        # its largest term
        mp = pytest.importorskip("mpmath")
        for p in np.geomspace(n, 1e6, 40).tolist():
            with mp.workdps(40):
                want = (mp.mpf(n) / 2 * (mp.log(p) + mp.log(mp.pi))
                        + mp.loggamma(mp.mpf(p) - mp.mpf(n) / 2) - mp.loggamma(p))
                err = abs(float(log_reference_integral(n, p) - want))
            terms = (1.0, math.lgamma(p), math.lgamma(p - n / 2), n / 2 * math.log(math.pi * p))
            assert err <= 8 * math.ulp(max(map(abs, terms))), p

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_strictly_decreasing_in_p(self, n):
        ps = sorted({n, n + 1, 2 * n, 10 * n, 100 * n})
        vals = [reference_integral(n, ExtParam.finite(p)) for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_two_sided_envelope(self, n):
        w = unit_ball_volume(n)
        assert reference_integral(n, ExtParam.finite(n)) <= 2.0 * w * n ** (n / 2.0)
        floor = math.exp(-n) * w * n ** (n / 2.0)
        for p in np.linspace(n, 200, 40):
            assert reference_integral(n, ExtParam.finite(float(p))) >= floor


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
        param = INF if math.isinf(p) else ExtParam.finite(p)
        table = tail_table(PotentialSpec.quadratic(a, n), param, n)
        exact = quadratic_tail(n, a, p, table.r_max)
        assert table.tail_inf == pytest.approx(exact, rel=1e-12)
        for r in table.r_max * np.array([1.5, 4.0, 100.0]):
            assert tail_quadrature(table.f, r) == pytest.approx(
                quadratic_tail(n, a, p, r), rel=1e-12, abs=1e-300)

    def test_stops_before_a_high_dimensional_weight_overflows(self):
        # r^(n-1) overflows far past r_max, where the weight has long vanished
        n = 20
        table = tail_table(PotentialSpec.quadratic(1.0, n), ExtParam.finite(n), n)
        assert table.tail_inf == pytest.approx(quadratic_tail(n, 1.0, n, table.r_max), rel=1e-12)
