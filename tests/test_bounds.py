import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import brenier_bounds.bounds as bounds_mod
from brenier_bounds import (DomainError, INF, InvalidOrder,
                            PotentialSpec, VoidBound, bound_from_terms,
                            finite_global_sharp_bound,
                            finite_growth_constants, gamma, global_bound,
                            growth_data, local_bound, local_factors,
                            mglob_uniformity_check, tail_mass)
from brenier_bounds.constants import structural
from brenier_bounds.potentials import log_reference_integral


def quad(a, n=1):
    return PotentialSpec.quadratic(a, n)


def shifted(s, a=1.0):
    """U(x) = a (x - s)^2 as a general (non-even) 1D potential."""
    return PotentialSpec.one_dim(lambda x: a * (x - s) ** 2,
                                 lambda x: 2.0 * a * (x - s),
                                 hess_upper=2.0 * a, hess_lower=2.0 * a)


def shifted_gaussian_tail(r, s):
    """Mass of e^(-(x - s)^2) / sqrt(pi) outside [-r, r]."""
    return 0.5 * (math.erfc(r - s) + math.erfc(r + s))


class TestGamma:
    def test_cases(self):
        assert gamma(1, 2) == 0.0          # 2d - D = 0
        assert gamma(2, 3) == 1.0          # (4-3)/(3-2)
        assert gamma(3, 4) == 2.0
        assert gamma(1, 3) == 0.0          # negative part clipped
        assert gamma(2, 2) == math.inf     # equal finite parameters
        assert gamma(1, INF) == 0.0
        assert gamma(INF, INF) == 0.0       # both endpoints: 0, not the d = D value

    def test_rejects_inverted_order(self):
        with pytest.raises(InvalidOrder):
            gamma(3, 2)

    def test_nonincreasing_in_D(self):
        d = 3.0
        vals = [gamma(d, D) for D in (3.0, 4.0, 5.0, 10.0)]
        assert vals[0] == math.inf
        vals = vals[1:] + [gamma(d, INF)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestBoundFromTerms:
    def test_bound_assembly(self):
        assert bound_from_terms(3.0, 1.0) == pytest.approx(3.0)  # sqrt(4) + sqrt(1)
        with pytest.raises(ValueError):
            bound_from_terms(-1.0, 1.0)

    @given(st.floats(0.0, 1e8), st.floats(0.0, 1e8), st.floats(1e-12, 1e8))
    def test_increasing_in_b(self, a, b, delta):
        assert bound_from_terms(a, b + delta) >= bound_from_terms(a, b)


class TestTailMass:
    def test_zero_radius_is_exactly_one(self, quad1):
        assert tail_mass(quad1, 1.0, 0.0) == 1.0

    def test_gaussian_and_cauchy_closed_forms(self, quad1):
        assert tail_mass(quad1, INF, 1.0) == pytest.approx(math.erfc(1.0), rel=1e-9)
        assert tail_mass(quad1, 1.0, 2.0) == pytest.approx(
            1.0 - 2.0 / math.pi * math.atan(2.0), rel=1e-9)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_shifted_one_dim_closed_form(self, s):
        W = shifted(s)
        for r in (0.1, 0.5, 1.0, 2.0, 4.0, 6.0):
            assert tail_mass(W, INF, r) == pytest.approx(
                shifted_gaussian_tail(r, s), rel=1e-9)

    @pytest.mark.parametrize("r", [-1.0, math.nan])
    def test_rejects_a_negative_or_nan_radius(self, quad1, r):
        with pytest.raises(ValueError, match="r must be nonnegative"):
            tail_mass(quad1, 2.0, r)

    def test_decreasing_in_radius(self, quad1):
        D = 2.0
        vals = [tail_mass(quad1, D, r) for r in (0.0, 0.5, 1.0, 5.0, 50.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestGrowthData:
    def test_cauchy_anchor_values(self, quad1):
        gd = growth_data(quad1, quad1, 1.0, 1.0, 1.0, 1)
        m_want = 6.0 / (101.0 * math.pi)
        assert gd.s == 1.0
        assert gd.m_frak == pytest.approx(m_want, rel=1e-9)
        fathi_want = 3.0 * math.tan(math.pi / 2.0 * (1.0 - m_want))
        assert gd.fathi_radius == pytest.approx(fathi_want, rel=1e-7)
        assert gd.growth_factor == pytest.approx(1.0 + gd.fathi_radius ** 2, rel=1e-12)

    def test_shifted_one_dim_target_inverts_its_tail_mass(self, quad1):
        W = shifted(0.5)
        gd = growth_data(quad1, W, 2.0, INF, 1.0, 1)
        assert gd.growth_factor == 1.0  # D = inf
        r = gd.fathi_radius / 3.0
        assert r > 0.0
        assert tail_mass(W, INF, r) == pytest.approx(gd.m_frak, rel=1e-9)
        assert shifted_gaussian_tail(r, 0.5) == pytest.approx(gd.m_frak, rel=1e-9)

    def test_rejects_infinite_source_parameter_and_radius(self, quad1):
        with pytest.raises(DomainError):
            growth_data(quad1, quad1, math.inf, 2.0, 1.0, 1)
        with pytest.raises(ValueError):
            growth_data(quad1, quad1, 1.0, 2.0, math.inf, 1)

    def test_fathi_radius_nondecreasing_in_R(self, quad1):
        D = 2.0
        vals = [growth_data(quad1, quad1, 1.0, D, R, 1).fathi_radius
                for R in (1.0, 2.0, 4.0, 8.0)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


_MIXED = r"^potentials must have dimension n=3, got V of dimension 1 and W of dimension 3$"


class TestDimensions:
    """V, W and n must agree: the ball terms read n, the normalizations and
    tail tables each potential's own dimension."""

    def test_growth_data_refuses_mixed_dimensions(self):
        with pytest.raises(ValueError, match=_MIXED):
            growth_data(quad(1.0, 1), quad(1.0, 3), 3.0, 3.0, 1.0, 3)

    @pytest.mark.parametrize("call", [
        lambda V, W: local_bound(V, W, 3, 3.0, 3.0, 1.0),
        lambda V, W: local_factors(V, W, 3.0, 3.0, 1.0, 3),
        lambda V, W: global_bound(V, W, 3, 3.0, 3.0),
        lambda V, W: finite_global_sharp_bound(V, W, 3, 3.0, 3.0),
        lambda V, W: finite_growth_constants(V, W, 3, 3.0, 3.0)])
    def test_bounds_refuse_mixed_dimensions(self, call):
        V, W = quad(1.0, 1), quad(1.0, 3)
        with pytest.raises(ValueError, match=_MIXED):
            call(V, W)
        assert not V._memo and not W._memo
        call(quad(1.0, 3), W)  # the same call in one dimension goes through


class TestLocalBound:
    def test_caffarelli_regime_is_the_sharp_ratio(self, quad1, quad_quarter):
        rep = local_bound(quad1, quad_quarter, 1, INF, INF, 1.0)
        assert rep.regime == "caffarelli"
        assert rep.bound == math.sqrt(2.0 / 0.5) == 2.0
        assert rep.B == 0.0

    def test_endpoint_regime_formula(self, quad1):
        # D = inf: sqrt(aV / (aW c0)) with c0 = min{1, (d + aV R^2)/(d + R^2)},
        # lambda = 1 and xi = 0
        rep = local_bound(quad(0.5), quad1, 1, 2.0, INF, 3.0)
        assert rep.regime == "endpoint_poly_log"
        c0 = min(1.0, (2.0 + 0.5 * 9.0) / (2.0 + 9.0))
        assert rep.bound == pytest.approx(math.sqrt(0.5 / c0), rel=1e-12)
        assert local_factors(quad(0.5), quad1, 2.0, INF, 3.0, 1) == (1.0, 0.0)

    def test_local_regime_uses_growth_factors(self, quad1):
        rep = local_bound(quad1, quad1, 1, 1.0, 1.0, 1.0)
        assert rep.regime == "local"
        assert rep.constants["xi"] > 0.0  # gamma = +inf picks the first branch
        assert rep.bound > 1.0

    def test_void_without_declared_hessian_bounds(self, quad1):
        r = np.linspace(0.0, 30.0, 3000)
        W = PotentialSpec.tabulated(r, r ** 2, du=2.0 * r, dimension=1)
        with pytest.raises(VoidBound):
            local_bound(quad1, W, 1, INF, INF, 1.0)

    def test_xi_zero_once_target_parameter_doubles_source(self, quad1):
        lam, xi = local_factors(quad1, quad1, 1.0, 2.0, 1.0, 1)
        assert xi == 0.0 and lam >= 1.0


class TestGlobalBounds:
    def test_global_bound_frozen_value(self, quad1):
        rep = global_bound(quad1, quad1, 1, 1.0, 1.0)
        # sqrt(1e6 * 2 / 2 * ... ) = sqrt(33e6) + sqrt(32e6) with unit aggregates
        assert rep.A == pytest.approx(1e6, rel=1e-12)
        assert rep.B == pytest.approx(3.2e7, rel=1e-12)
        assert rep.bound == pytest.approx(11401.416896030409, rel=1e-12)

    def test_independent_of_the_tail_parameters(self, quad1):
        b1 = global_bound(quad1, quad1, 1, 1.0, 1.0)
        b2 = global_bound(quad1, quad1, 1, 7.0, INF)
        assert b1.bound == b2.bound

    def test_growth_constants_unit_case(self, quad1):
        k, m = finite_growth_constants(quad1, quad1, 1, 1, 1)
        assert k == pytest.approx(125.0, rel=1e-12)
        assert m == pytest.approx(15625.0, rel=1e-12)

    def test_sharp_bound_unit_case(self, quad1):
        rep = finite_global_sharp_bound(quad1, quad1, 1, 1, 1)
        assert rep.A == pytest.approx(15626.0, rel=1e-12)
        assert rep.B == pytest.approx(16.0 * 15626.0, rel=1e-12)
        assert rep.bound == pytest.approx(
            math.sqrt(15626.0 + 250016.0) + math.sqrt(250016.0), rel=1e-12)

    def test_growth_constants_no_overflow_at_large_d(self, quad1):
        k, m = finite_growth_constants(quad1, quad1, 1, 300, 300)
        assert math.isfinite(k) and math.isfinite(m)

    def test_sharp_bound_scans_each_potential_once(self, monkeypatch):
        calls = []
        real = bounds_mod.structural

        def counting(U, p, R, **kw):
            calls.append((U, p, R))
            return real(U, p, R, **kw)
        monkeypatch.setattr(bounds_mod, "structural", counting)
        V, W = shifted(0.0), shifted(0.0, a=0.5)
        finite_global_sharp_bound(V, W, 1, 2.0, 3.0)
        assert calls == [(V, 2.0, math.inf), (W, 3.0, math.inf)]

    def test_order_violations(self, quad1):
        with pytest.raises(InvalidOrder):
            finite_growth_constants(quad1, quad1, 1, 3, 2)
        with pytest.raises(InvalidOrder):
            global_bound(quad1, quad1, 1, 3.0, 2.0)
        # d < n: the same class and text from every entry point
        V = quad(1.0, 2)
        for call in (lambda: finite_global_sharp_bound(V, V, 2, 1.0, 3.0),
                     lambda: global_bound(V, V, 2, 1.0, 3.0),
                     lambda: growth_data(V, V, 1.0, 3.0, 1.0, 2),
                     lambda: local_factors(V, V, 1.0, 3.0, 1.0, 2),
                     lambda: local_factors(V, V, 1.0, INF, 1.0, 2)):
            with pytest.raises(InvalidOrder, match=r"^requires n <= d, got n=2, d=1\.0$"):
                call()
        with pytest.raises(DomainError, match="D < inf"):
            finite_growth_constants(quad1, quad1, 1, 3, math.inf)


def scalar_uniformity_rows(n_range, d_range, D_range, qV=1.0, qW=1.0):
    """The uniformity rows triple by triple in scalar math: the reference
    for the array chain of ``mglob_uniformity_check``."""
    rows = []
    tol = 1e-9
    for n in n_range:
        U = PotentialSpec.quadratic(1.0, n)
        for d in d_range:
            if d < n:
                continue
            sv = structural(U, float(d), math.inf)
            for D in D_range:
                if D < d:
                    continue
                sw = structural(U, float(D), math.inf)
                expo = 2.0 / (2.0 * D - n)
                s1 = ((sv.C0 / sv.c0) ** (d * expo) <= qV * qV + tol
                      and (sw.C0 / sw.c0) ** (D * expo) <= qW * qW + tol)
                s2 = (d / D) * (D / d) ** (D * expo) <= 2.0 + tol
                mid = 9.0 * math.exp(expo * (d * math.log(1.25) + 2.0 * d * math.log(10.0)
                                             - n * math.log(3.0)))
                upper = 9.0 * math.exp(expo * (D * math.log(125.0) - n * math.log(3.0)))
                s3 = mid <= upper * (1.0 + tol) and upper <= 15625.0 * (1.0 + tol)
                log_i_d = log_reference_integral(n, float(d))
                log_i_D = log_reference_integral(n, float(D))
                s4 = math.exp(expo * (log_i_d - log_i_D)) <= 4.0 * math.exp(2.0) + tol
                log_bracket = (d * (math.log(sv.C0) - math.log(sv.c0))
                               + D * (math.log(sw.C0) - math.log(sw.c0))
                               + d * math.log(1.25) + 2.0 * d * math.log(10.0)
                               - n * math.log(3.0) + D * (math.log(D) - math.log(d))
                               + log_i_d - log_i_D)
                log_k = math.log(3.0) + log_bracket / (2.0 * D - n)
                m = math.exp(math.log(d / D) + 2.0 * log_k)
                s5 = 1.0 + m <= 1e6 * qV * qV * qW * qW + tol
                rows.append({"n": n, "d": d, "D": D, "one_plus_M": 1.0 + m,
                             "ratio_exponent": s1, "dD_factor": s2,
                             "polynomial_factor": s3, "reference_ratio": s4,
                             "uniform_bound": s5,
                             "pass": s1 and s2 and s3 and s4 and s5})
    return rows


class TestUniformity:
    @pytest.mark.parametrize("qV,qW", [(1.0, 1.0), (0.999, 1.0)])
    def test_array_chain_matches_the_scalar_chain(self, qV, qW):
        grid = ([1, 2, 3], range(1, 21), range(1, 21))
        columns = mglob_uniformity_check(*grid, qV=qV, qW=qW).columns
        ref = scalar_uniformity_rows(*grid, qV=qV, qW=qW)
        assert list(columns) == list(ref[0])
        assert all(col.shape == (len(ref),) for col in columns.values())
        for key, col in columns.items():
            want = [row[key] for row in ref]
            if key == "one_plus_M":
                assert col.tolist() == pytest.approx(want, rel=1e-14)
            else:
                assert col.tolist() == want
        assert any(not ok for ok in columns["ratio_exponent"].tolist()) == (qV < 1.0)

    def test_empty_grid_does_not_pass(self):
        rep = mglob_uniformity_check([3], range(1, 3), range(1, 3))
        assert len(rep.columns) == 10 and not rep.all_pass
        assert all(col.size == 0 for col in rep.columns.values())

    def test_small_grid_every_step(self):
        rep = mglob_uniformity_check([1, 2], range(1, 11), range(1, 11))
        assert rep.all_pass
        assert rep.e2_product == pytest.approx(125000.0 * math.e ** 2)
        assert rep.e2_product < 924000.0
        assert rep.tau_endpoint_value == pytest.approx(math.log(15625.0), abs=1e-9)
        assert rep.max_one_plus_m <= 1e6
        assert all(rep.columns["pass"].tolist())
