import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from brenier_bounds import (INF, BoundReport, DomainError, InvalidOrder, PotentialSpec,
                            Scenario, default_grid, gamma, global_bound, local_bound,
                            normalization, quantile_map_1d, radial_map, run_scenario,
                            second_variation_check, structural, tail_mass)
from brenier_bounds.bounds import _scenario_stub
from brenier_bounds.extparam import ExtParam, finite_param, param, theta_value_array


class TestExtParam:
    def test_parse_accepts_inf_case_insensitive(self):
        for token in ("inf", "INF", " Inf "):
            assert param(token) == INF == math.inf
            assert ExtParam.parse(token) == INF  # the one name kept of the old class

    def test_parse_numbers_and_passthrough(self):
        assert param(3) == 3.0 and type(param(3)) is float
        assert type(param(np.float64(3.0))) is float
        assert param("2.5") == 2.5
        assert param(INF) == INF

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_finite_rejects_nonpositive_and_nonfinite(self, bad):
        # the reader of limit-sweep entries, which must be finite
        with pytest.raises(ValueError, match="^finite parameter must be a positive real"):
            finite_param(bad)

    def test_ordering_is_total_with_infinite_on_top(self):
        assert param(1) < param(2) < INF
        assert not (INF < INF)
        assert INF <= INF
        assert param(5) >= 5.0

    def test_labels(self):
        # repr is the serialization token of a report's scenario stub
        assert _scenario_stub(2, INF, INF) == {"n": 2, "d": "inf", "D": "inf"}
        assert _scenario_stub(2, 2.0, 3.0, 1.5) == {"n": 2, "d": "2.0", "D": "3.0", "R": 1.5}


class TestTheta:
    def test_zero_maps_to_zero(self):
        for p in (1.0, 7.5, INF):
            assert theta_value_array(p, 0.0) == 0.0

    def test_finite_value(self):
        assert theta_value_array(2.0, 2.0) == pytest.approx(
            2.0 * math.log(2.0), rel=1e-15)

    def test_infinite_variant_is_identity(self):
        assert theta_value_array(INF, 3.7) == 3.7

    @given(st.floats(0.01, 1e3))
    def test_monotone_in_p_and_approaches_identity(self, t):
        ps = [1.0, 2.0, 10.0, 1e3, 1e6]
        vals = [float(theta_value_array(p, t)) for p in ps]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12
        assert all(v <= t + 1e-12 for v in vals)
        for p, v in zip(ps, vals):
            assert abs(v - t) <= t * t / (2.0 * p) + 1e-12

    def test_domain_guard_below_minus_p(self):
        with pytest.raises(DomainError):
            theta_value_array(2.0, -2.5)
        # the first offending entry is named
        with pytest.raises(DomainError, match=r"t > -p: t=-2\.0, p=2\.0"):
            theta_value_array(2.0, np.array([1.0, -2.0]))

    def test_vectorized_values_match_scalar(self):
        p = 3.0
        t = np.array([0.0, 1.0, 10.0])
        got = theta_value_array(p, t)
        want = [3.0 * math.log1p(float(x) / 3.0) for x in t]
        assert np.allclose(got, want, rtol=1e-15)
        assert theta_value_array(INF, 7.5) == 7.5


def test_unnormalized_density_interpolates_families():
    # exp(-theta_p(U)) at finite p: (1 + r^2/p)^(-p); infinite: exp(-r^2)
    U = PotentialSpec.quadratic(1.0, 1)
    density = lambda p: math.exp(-theta_value_array(p, U.value(2.0)))  # noqa: E731
    assert density(1.0) == pytest.approx(1.0 / 5.0)
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


def _second_variation(d, D):
    V, W = _pair()
    m = radial_map(V, W, d, D, 2)
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


def _spellings(p):
    """p as an int (when finite), a NumPy scalar and a string."""
    return ("inf", np.float64(p)) if math.isinf(p) else (int(p), np.float64(p), str(p))


class TestPlainNumbers:
    """Tail parameters are floats, math.inf for the endpoint; every public
    entry point converts what it is given with extparam.param, so each
    spelling of a value gives results bit for bit those of the float."""

    @pytest.mark.parametrize("d,D", [(3, 5), (3, math.inf), (math.inf, math.inf)])
    @pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
    def test_number_equals_extparam(self, name, d, D):
        call = _ENTRY_POINTS[name]
        want = call(float(d), float(D))
        for ds, Ds in zip(_spellings(d), _spellings(D)):
            got = call(ds, Ds)
            assert _bits(got) == _bits(want), (ds, Ds)
            if isinstance(got, BoundReport):  # the stub reads "3.0", never "3"
                assert (got.scenario["d"], got.scenario["D"]) == (repr(float(d)), repr(float(D)))

    @pytest.mark.parametrize("bad", [0, -1, math.nan, -math.inf])
    @pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
    def test_rejects_nonpositive_nan_and_minus_inf(self, name, bad):
        with pytest.raises(ValueError, match="^finite parameter must be a positive real"):
            _ENTRY_POINTS[name](bad, bad)

    def test_gamma_order_message_shows_the_values(self):
        with pytest.raises(InvalidOrder, match=r"^requires d <= D, got d=4\.0, D=2\.0$"):
            gamma(4, 2)
