"""Tests of the benchmark's exact reference (run: python -m pytest bench/test_exact.py).

The reference is checked against elementary closed forms and against
mpmath at 80 digits; it never calls brenier_bounds.
"""

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

sys.path.insert(0, str(Path(__file__).resolve().parent))
import exact  # noqa: E402

INF = math.inf
CASES = [(1, 1.0, 1.0), (1, 0.25, 4.0), (3, 0.5, 6.0), (2, 1.0, 50.0),
         (2, 0.9, 4000.0), (1, 1.0, INF), (2, 0.5, INF), (3, 0.5, INF)]


def test_self_check():
    assert exact.self_check() <= 1e-14


def test_cauchy_tail_is_arctan():
    r = np.logspace(-6, 6, 241)
    want = np.where(r > 1.0, (2.0 / math.pi) * np.arctan(1.0 / r),
                    1.0 - (2.0 / math.pi) * np.arctan(r))
    assert exact.rel_err(exact.radial_tail(1, 1.0, 1.0, r), want) <= 1e-14


@pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
def test_gaussian_tail_is_erfc(a):
    r = np.arange(1, 2049) / 128.0   # dyadic: a r^2 and sqrt(a) r are exact
    r = r[a * r * r <= 700.0]
    assert exact.rel_err(exact.radial_tail(1, a, INF, r), sp.erfc(math.sqrt(a) * r)) <= 1e-14


def _mp_masses(n, a, p, r):
    mp.mp.dps = 80   # mpmath's betainc loses ~40 digits at p = 4000
    r = mp.mpf(float(r))
    x = a * r * r
    if math.isinf(p):
        return (mp.gammainc(mp.mpf(n) / 2, 0, x, regularized=True),
                mp.gammainc(mp.mpf(n) / 2, x, mp.inf, regularized=True))
    u = x / (p + x)
    return (mp.betainc(mp.mpf(n) / 2, p - mp.mpf(n) / 2, 0, u, regularized=True),
            mp.betainc(mp.mpf(n) / 2, p - mp.mpf(n) / 2, u, 1, regularized=True))


@pytest.mark.parametrize("n,a,p", CASES)
def test_masses_match_mpmath(n, a, p):
    radii = [1e-6, 1e-3, 0.1, 1.0, 3.0, 10.0, 30.0, 300.0]
    head, tail = exact._masses(n, a, p, np.array(radii))
    for r, h, t in zip(radii, head, tail):
        want_h, want_t = _mp_masses(n, a, p, r)
        # conditioning: a r^2 carries one rounding, amplified by ~a r^2 in a Gaussian tail
        tol = 1e-14 * max(1.0, a * r * r)
        for got, want in ((h, want_h), (t, want_t)):
            if want > 1e-300:
                assert abs(float(got / want) - 1.0) <= tol, (n, a, p, r)


@pytest.mark.parametrize("n,a,p", CASES)
def test_inverses_round_trip(n, a, p):
    r = np.logspace(-3, 1.5, 181)
    head, tail = exact._masses(n, a, p, r)
    far = (tail < 0.5) & (tail > 1e-300)
    near = head < 0.5
    assert exact.rel_err(exact.radial_tail_inv(n, a, p, tail[far]), r[far]) <= 1e-12
    assert exact.rel_err(exact.radial_head_inv(n, a, p, head[near]), r[near]) <= 1e-12


@pytest.mark.parametrize("n,a,p", [(1, 1.0, 1.0), (1, 0.5, 3.0), (2, 0.7, 4.0), (1, 2.0, INF)])
def test_normalization_matches_quadrature(n, a, p):
    mp.mp.dps = 30
    if math.isinf(p):
        dens = lambda s: s ** (n - 1) * mp.exp(-a * s * s)
    else:
        dens = lambda s: s ** (n - 1) * (1 + a * s * s / p) ** (-p)
    area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
    want = area * mp.quad(dens, [0, 1, 10, mp.inf])
    assert exact.normalization(n, a, p) == pytest.approx(float(want), rel=1e-13)


def test_radial_map_balances_masses_and_identity_is_exact():
    r = np.logspace(-3, 2, 201)
    t, tp = exact.radial_map(2, 1.0, 3.0, 0.5, INF, r)
    hv, tv = exact._masses(2, 1.0, 3.0, r)
    hw, tw = exact._masses(2, 0.5, INF, t)
    assert exact.rel_err(np.minimum(hw, tw), np.minimum(hv, tv)) <= 1e-13
    assert np.all(tp > 0.0) and np.all(np.diff(t) > 0.0)
    same, same_p = exact.radial_map(3, 0.7, 6.0, 0.7, 6.0, r)
    assert exact.rel_err(same, r) <= 1e-13
    assert exact.rel_err(same_p, np.ones_like(r)) <= 1e-12


def test_gaussian_maps_are_linear():
    x = np.logspace(-2, math.log10(20.0), 200)
    t, tp = exact.radial_map(1, 1.0, INF, 0.25, INF, x)
    assert exact.rel_err(t, 2.0 * x) <= 1e-13
    assert exact.rel_err(tp, np.full_like(x, 2.0)) <= 1e-12
    shifted = exact.line_map(1.0, INF, 0.0, 0.25, INF, 0.5, x)
    assert exact.rel_err(shifted, 2.0 * x + 0.5) <= 1e-13
    same = exact.line_map(1.0, 3.0, 0.0, 1.0, 3.0, 0.5, x)
    assert exact.rel_err(same, x + 0.5) <= 1e-13


def test_line_map_balances_upper_tails():
    x = np.linspace(-5.0, 20.0, 251)
    y = exact.line_map(1.0, 2.0, 0.3, 0.5, 4.0, -0.5, x)
    assert exact.rel_err(exact.line_upper_tail(0.5, 4.0, -0.5, y),
                         exact.line_upper_tail(1.0, 2.0, 0.3, x)) <= 1e-12


def test_growth_radius_matches_the_frozen_cauchy_value():
    # m = 6 / (101 pi) for V = W = |x|^2, n = d = D = R = 1; the Cauchy tail
    # 1 - (2/pi) arctan r inverts in closed form
    m = 6.0 / (101.0 * math.pi)
    want = 3.0 * math.tan(math.pi / 2.0 * (1.0 - m))
    assert exact.growth_radius(1, 1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(want, rel=1e-13)


def test_endpoint_bound_closed_form():
    assert exact.endpoint_bound(1.0, 1.0, 10.0, 5.0) == 1.0
    # aV < 1: c0 is attained at the edge of the ball
    c0 = (4.0 + 0.5 * 9.0) / (4.0 + 9.0)
    assert exact.endpoint_bound(0.5, 0.25, 4.0, 3.0) == pytest.approx(math.sqrt(2.0 / c0),
                                                                      rel=1e-15)
