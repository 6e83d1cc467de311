import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from brenier_bounds import (DomainError, ExtParam, INF, InvalidOrder, PotentialSpec,
                            Scenario, default_grid, gamma, global_bound, local_bound,
                            normalization, quantile_map_1d, radial_map, run_scenario,
                            second_variation_check, structural, tail_mass)
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
            assert theta_value(p, 0.0) == 0.0

    def test_finite_value(self):
        assert theta_value(ExtParam.finite(2), 2.0) == pytest.approx(2.0 * math.log(2.0),
                                                                      rel=1e-15)

    def test_infinite_variant_is_identity(self):
        assert theta_value(INF, 3.7) == 3.7

    @given(st.floats(0.01, 1e3))
    def test_monotone_in_p_and_approaches_identity(self, t):
        ps = [1.0, 2.0, 10.0, 1e3, 1e6]
        vals = [theta_value(ExtParam.finite(p), t) for p in ps]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12
        assert all(v <= t + 1e-12 for v in vals)
        for p, v in zip(ps, vals):
            assert abs(v - t) <= t * t / (2.0 * p) + 1e-12

    def test_domain_guard_below_minus_p(self):
        with pytest.raises(DomainError):
            theta_value(ExtParam.finite(2), -2.0)
        with pytest.raises(DomainError):
            theta_value(ExtParam.finite(2), -2.5)
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
        want = [theta_value(p, float(x)) for x in t]
        assert np.allclose(got, want, rtol=1e-15)
        assert theta_value(INF, 7.5) == 7.5


def test_unnormalized_density_interpolates_families():
    # exp(-theta_p(U)) at finite p: (1 + r^2/p)^(-p); infinite: exp(-r^2)
    U = PotentialSpec.quadratic(1.0, 1)
    density = lambda p: math.exp(-theta_value(p, float(U.value(2.0))))  # noqa: E731
    assert density(ExtParam.finite(1)) == pytest.approx(1.0 / 5.0)
    assert density(INF) == pytest.approx(math.exp(-4.0))


def _bits(x):
    """x with each float as its hex and each array as its bytes, for a bitwise
    comparison; a report's wall time is left out."""
    if dataclasses.is_dataclass(x):
        return _bits(dataclasses.asdict(x))
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items() if k != "wall_time_s"}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    return x.hex() if isinstance(x, float) else x


def _pair(n=2):
    """A fresh (V, W) pair: no table or constant is shared between two calls."""
    return PotentialSpec.quadratic(1.0, n), PotentialSpec.quadratic(0.5, n)


def _ext(p):
    """p as an ExtParam: math.inf is the endpoint."""
    if isinstance(p, ExtParam):
        return p
    return INF if math.isinf(p) else ExtParam.finite(p)


def _second_variation(d, D):
    V, W = _pair()
    m = radial_map(V, W, _ext(d), _ext(D), 2)
    return second_variation_check(m, V, W, d, D, 5.0)


# each public entry point that takes a tail parameter, called with (d, D)
_ENTRY_POINTS = {
    "global_bound": lambda d, D: global_bound(*_pair(), 2, d, D),
    "local_bound": lambda d, D: local_bound(*_pair(), 2, d, D, 2.0),
    "radial_map": lambda d, D: radial_map(*_pair(), d, D, 2),
    "quantile_map_1d": lambda d, D: quantile_map_1d(*_pair(1), d, D, np.linspace(-3, 3, 21)),
    "second_variation_check": _second_variation,
    "structural": lambda d, D: structural(_pair()[0], d, 3.0),
    "normalization": lambda d, D: normalization(_pair()[1], D),
    "tail_mass": lambda d, D: tail_mass(_pair()[1], D, 1.5),
    "default_grid": lambda d, D: default_grid(d),
    "run_scenario": lambda d, D: run_scenario(Scenario("s", *_pair(), 2, d, D, R=2.0)),
}


class TestPlainNumbers:
    """Tail parameters may be plain numbers (math.inf for the endpoint) at every
    public entry point, with results bit for bit those of the ExtParam call."""

    @pytest.mark.parametrize("d,D", [(3, 5), (3, math.inf), (math.inf, math.inf)])
    @pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
    def test_number_equals_extparam(self, name, d, D):
        call = _ENTRY_POINTS[name]
        assert _bits(call(d, D)) == _bits(call(_ext(d), _ext(D)))

    def test_gamma_order_message_shows_the_values(self):
        with pytest.raises(InvalidOrder, match=r"^requires d <= D, got d=4\.0, D=2\.0$"):
            gamma(4, 2)
