import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from brenier_bounds import DomainError, ExtParam, INF, theta, unnormalized_density
from brenier_bounds.extparam import theta_value, theta_value_array


class TestExtParam:
    def test_parse_accepts_inf_case_insensitive(self):
        for token in ("inf", "INF", " Inf "):
            assert ExtParam.parse(token) == INF

    def test_parse_numbers_and_passthrough(self):
        assert ExtParam.parse(3) == ExtParam.finite(3.0)
        assert ExtParam.parse("2.5") == ExtParam.finite(2.5)
        assert ExtParam.parse(INF) is INF

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_finite_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(ValueError):
            ExtParam.finite(bad)

    def test_ordering_is_total_with_infinite_on_top(self):
        assert ExtParam.finite(1) < ExtParam.finite(2) < INF
        assert not (INF < INF)
        assert INF <= INF
        assert ExtParam.finite(5) >= 5.0

    def test_labels(self):
        assert INF.label() == "inf"
        assert ExtParam.finite(2.0).label() == "2.0"


class TestTheta:
    def test_zero_maps_to_zero(self):
        for p in (ExtParam.finite(1), ExtParam.finite(7.5), INF):
            assert theta(p, 0.0).value == 0.0

    def test_finite_value_and_derivatives(self):
        ev = theta(ExtParam.finite(2), 2.0)
        assert ev.value == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
        assert ev.first == pytest.approx(0.5)
        assert ev.second == pytest.approx(-2.0 / 16.0)

    def test_infinite_variant_is_identity(self):
        ev = theta(INF, 3.7)
        assert (ev.value, ev.first, ev.second) == (3.7, 1.0, 0.0)

    @given(st.floats(0.5, 1e6), st.floats(-0.4, 1e6))
    def test_first_derivative_identity(self, p, t):
        ev = theta(ExtParam.finite(p), t)
        assert ev.first * (p + t) == pytest.approx(p, rel=1e-12)

    @given(st.floats(0.01, 1e3))
    def test_monotone_in_p_and_approaches_identity(self, t):
        ps = [1.0, 2.0, 10.0, 1e3, 1e6]
        vals = [theta(ExtParam.finite(p), t).value for p in ps]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12
        assert all(v <= t + 1e-12 for v in vals)
        for p, v in zip(ps, vals):
            assert abs(v - t) <= t * t / (2.0 * p) + 1e-12

    def test_domain_guard_below_minus_p(self):
        with pytest.raises(DomainError):
            theta(ExtParam.finite(2), -2.0)
        with pytest.raises(DomainError):
            theta(ExtParam.finite(2), -2.5)
        # the scalar and array paths share the guard and the message
        p = ExtParam.finite(2)
        for call in (lambda: theta_value(p, -2.0),
                     lambda: theta_value_array(p, np.array([1.0, -2.0]))):
            with pytest.raises(DomainError, match=r"t > -p: t=-2\.0, p=2\.0"):
                call()

    def test_vectorized_values_match_scalar(self):
        p = ExtParam.finite(3)
        t = np.array([0.0, 1.0, 10.0])
        got = theta_value_array(p, t)
        want = [theta(p, x).value for x in t]
        assert np.allclose(got, want, rtol=1e-15)
        assert [theta_value(p, float(x)) for x in t] == want
        assert theta_value(INF, 7.5) == 7.5


def test_unnormalized_density_interpolates_families():
    # finite p: (1 + r^2/p)^(-p); infinite: exp(-r^2)
    from brenier_bounds import PotentialSpec
    U = PotentialSpec.quadratic(1.0, 1)
    assert unnormalized_density(U, ExtParam.finite(1), 2.0) == pytest.approx(1.0 / 5.0)
    assert unnormalized_density(U, INF, 2.0) == pytest.approx(math.exp(-4.0))
