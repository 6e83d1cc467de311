"""Assembly of every theorem-level constant and the four bound regimes.

Every constant is a plain float: B and the bound sqrt(A + B) + sqrt(B) are
always finite (a void bound raises :class:`VoidBound`), and the only
infinite value is gamma(d, D) = math.inf at d = D < inf, where the min in
xi takes its other, finite branch.

All products of many large/small factors (the K/M growth chains, the
ball-mass lower bound) are computed in log space and exponentiated once:
(5/4)^d * 10^(2d) alone overflows 64-bit floats near d ~ 150.

The tail parameters d and D are floats in (0, inf], math.inf for the
endpoint; the public functions check them with :func:`~.extparam.param`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

import numpy as np

from .constants import StructuralConstants, aggregates, structural
from .errors import (DomainError, InvalidOrder, MFrakOverflow, NoConvergence,
                     VoidBound)
from .extparam import finite_param, param
from .potentials import (PotentialSpec, log_reference_integral, mass_table,
                         normalization, unit_ball_volume)


def gamma(d, D) -> float:
    """Tail-interaction exponent: math.inf at D = d finite, ((2d-D)/(D-d))_+ for d < D finite, 0 at D = inf."""
    d, D = _check_order(0, d, D)  # n = 0: the order d <= D alone
    if math.isinf(D):
        return 0.0
    if d == D:
        return math.inf
    return max(0.0, (2.0 * d - D) / (D - d))


def _as_dict(x):
    """The JSON form of a report: its dataclasses as dicts of their fields in
    order (``passed`` as "pass"), lists and dicts copied. dataclasses.asdict
    also deep-copies each float, which takes 4x as long on a verify report."""
    if isinstance(x, (float, int, str)) or x is None:  # most values: test them first
        return x
    if isinstance(x, (list, tuple)):
        return [_as_dict(v) for v in x]
    if isinstance(x, dict):
        return {k: _as_dict(v) for k, v in x.items()}
    return {"pass" if f.name == "passed" else f.name: _as_dict(getattr(x, f.name))
            for f in fields(x)}


def bound_from_terms(a: float, b: float) -> float:
    """The optimized maximum-principle bound sqrt(A + B) + sqrt(B)."""
    if a < 0.0:
        raise ValueError("A-term must be nonnegative")
    return math.sqrt(a + b) + math.sqrt(b)


def tail_mass(W: PotentialSpec, D: float, r: float) -> float:
    """Mass of the target density outside the ball of radius r."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    table = mass_table(W, param(D))
    return table.tail(r) / table.total


@dataclass(frozen=True)
class GrowthData:
    """Local growth data: scale, ball-mass bound, inverted tail radius, growth factor."""

    s: float              # max{R, sqrt(d)}
    m_frak: float         # source-side ball-mass lower bound, in (0, 1]
    fathi_radius: float   # 3 * inf{r : tail_mass <= m_frak}
    growth_factor: float  # 1 + fathi_radius^2 / D  (1 at D = inf)

    def __post_init__(self):
        if self.growth_factor < 1.0 - 1e-12:
            raise ValueError("growth factor below 1")


def growth_data(V: PotentialSpec, W: PotentialSpec, d: float, D: float,
                R: float, n: int) -> GrowthData:
    """Growth data for the localized estimate (finite source parameter only)."""
    d, D = param(d), param(D)
    if math.isinf(d):
        raise DomainError("growth data is defined for finite source parameter d only")
    if not (0.0 < R < math.inf):
        raise ValueError("R must be finite and positive")
    _check_order(n, d, D)
    s = max(R, math.sqrt(d))
    c0_big = structural(V, d, 10.0 * s).C0
    z = normalization(V, d).z
    log_m = (math.log(unit_ball_volume(n)) + n * math.log(3.0 * s)
             - math.log(z) - d * math.log(c0_big)
             - d * math.log1p(100.0 * s * s / d))
    m_frak = math.exp(log_m)
    if m_frak > 1.0:
        warnings.warn(
            f"ball-mass lower bound exceeds 1 ({m_frak:.3g}); inputs are "
            "inconsistent with a probability density, radius set to 0",
            MFrakOverflow)
        fathi = 0.0
    else:
        table = mass_table(W, D)
        fathi = 3.0 * table.invert(m_frak * table.total)
    g = 1.0 if math.isinf(D) else 1.0 + fathi * fathi / D
    return GrowthData(s=s, m_frak=m_frak, fathi_radius=fathi, growth_factor=g)


@dataclass(frozen=True)
class _LocalFactors:
    lam: float
    xi: float
    growth: Optional[GrowthData]
    C0_W: float
    C1_W: float
    gamma_dD: float


def _local_factors(V: PotentialSpec, W: PotentialSpec, d: float, D: float,
                   R: float, n: int, c_W2: float) -> _LocalFactors:
    if math.isinf(D):
        return _LocalFactors(1.0, 0.0, None, 1.0, 0.0, 0.0)
    gd = growth_data(V, W, d, D, R, n)
    sw = structural(W, D, gd.fathi_radius)
    lam = sw.C0 * gd.growth_factor
    g = gamma(d, D)
    xi = min((D / d) * sw.C1 / sw.C0, g * c_W2)
    return _LocalFactors(lam, xi, gd, sw.C0, sw.C1, g)


def local_factors(V: PotentialSpec, W: PotentialSpec, d: float, D: float,
                  R: float, n: int) -> Tuple[float, float]:
    """(lambda, xi) of the localized estimate; requires the target's declared c(2) > 0."""
    d, D = _check_order(n, d, D)
    c_W2 = _require_hess_lower(W)
    lf = _local_factors(V, W, d, D, R, n, c_W2)
    return lf.lam, lf.xi


@dataclass(frozen=True)
class BoundReport:
    """One assembled bound: regime, A/B terms, sqrt(A+B)+sqrt(B), full provenance.

    A, B and the bound are finite floats; ``constants["gamma"]`` may be math.inf.
    """

    regime: str
    A: float
    B: float
    bound: float
    constants: Dict[str, float] = field(default_factory=dict)
    scenario: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _as_dict(self)


def _require_hess_upper(V: PotentialSpec) -> float:
    if V.hess_upper is None or not math.isfinite(V.hess_upper):
        raise VoidBound("source potential has no finite declared Hessian upper bound")
    return float(V.hess_upper)


def _require_hess_lower(W: PotentialSpec) -> float:
    if W.hess_lower is None or W.hess_lower <= 0.0:
        raise VoidBound("target potential has no positive declared Hessian lower bound")
    return float(W.hess_lower)


def _check_order(n: int, d, D) -> Tuple[float, float]:
    """(d, D) as floats (see :func:`~.extparam.param`); raises
    :class:`InvalidOrder` unless n <= d <= D."""
    d, D = param(d), param(D)
    if d > D:
        raise InvalidOrder(f"requires d <= D, got d={d!r}, D={D!r}")
    return _check_map_order(n, d, D)


def _check_map_order(n: int, d, D) -> Tuple[float, float]:
    """(d, D) as floats; raises :class:`InvalidOrder` unless n <= d and
    n <= D, the order every weight (1 + U/p)^(-p) on R^n is taken in; a
    quadratic U has no finite mass at p <= n/2, so no map. d > D (the
    counterexample) passes."""
    d, D = param(d), param(D)
    for name, p in (("d", d), ("D", D)):
        if p < n:
            raise InvalidOrder(f"requires n <= {name}, got n={n}, {name}={p}")
    return d, D


def _scenario_stub(n, d, D, R=None) -> dict:
    out = {"n": n, "d": repr(d), "D": repr(D)}
    if R is not None:
        out["R"] = R
    return out


def local_bound(V: PotentialSpec, W: PotentialSpec, n: int,
                d: float, D: float, R: float) -> BoundReport:
    """Localized Hessian bound on the ball B_R (endpoint/Caffarelli branches included)."""
    d, D = _check_order(n, d, D)
    if not R > 0.0:
        raise ValueError("local bound needs positive R")
    if not math.isinf(D) and not math.isfinite(R):
        raise ValueError("finite target parameter needs a finite ball radius R")
    C_V2 = _require_hess_upper(V)
    c_W2 = _require_hess_lower(W)
    scen = _scenario_stub(n, d, D, R)
    try:
        if math.isinf(d):
            # both parameters infinite: the endpoint conventions collapse the bound
            a = C_V2 / c_W2
            return BoundReport("caffarelli", a, 0.0, bound_from_terms(a, 0.0),
                               {"C_V2": C_V2, "c_W2": c_W2}, scen)
        c0 = structural(V, d, R).c0
        if math.isinf(D):
            a = C_V2 / (c_W2 * c0)
            return BoundReport("endpoint_poly_log", a, 0.0, bound_from_terms(a, 0.0),
                               {"C_V2": C_V2, "c_W2": c_W2, "c0_V": c0,
                                "lambda": 1.0, "xi": 0.0}, scen)
        lf = _local_factors(V, W, d, D, R, n, c_W2)
        C1_V = structural(V, d, math.inf).C1
        a = C_V2 * lf.lam / (c_W2 * c0)
        b = 4.0 * C1_V * lf.lam * lf.xi / (c_W2 * c_W2 * c0 * c0)
        consts = {
            "C_V2": C_V2, "c_W2": c_W2, "c0_V": c0, "C1_V_global": C1_V,
            "lambda": lf.lam, "xi": lf.xi, "gamma": lf.gamma_dD,
            "C0_W_at_fathi_radius": lf.C0_W, "C1_W_at_fathi_radius": lf.C1_W,
            **_as_dict(lf.growth),
        }
        return BoundReport("local", a, b, bound_from_terms(a, b), consts, scen)
    except NoConvergence as exc:
        raise VoidBound(f"local bound void: {exc}") from exc


def global_bound(V: PotentialSpec, W: PotentialSpec, n: int,
                 d: float, D: float) -> BoundReport:
    """Parameter-uniform global Hessian bound (independent of d, D; only n enters)."""
    d, D = _check_order(n, d, D)
    C_V2 = _require_hess_upper(V)
    c_W2 = _require_hess_lower(W)
    try:
        av = aggregates(V, n)
        aw = aggregates(W, n)
    except NoConvergence as exc:
        raise VoidBound(f"global bound void: {exc}") from exc
    m_glob = 1e6 * av.qU ** 2 * aw.qU ** 2
    a = C_V2 * aw.CU * m_glob / (c_W2 * av.cU)
    b = 8.0 * av.LU * aw.LU * m_glob / (c_W2 * c_W2 * av.cU * av.cU)
    consts = {"C_V2": C_V2, "c_W2": c_W2, "q_V": av.qU, "q_W": aw.qU,
              "c_frak_V": av.cU, "C_frak_W": aw.CU, "L_V": av.LU, "L_W": aw.LU,
              "M_glob": m_glob}
    return BoundReport("global", a, b, bound_from_terms(a, b), consts,
                       _scenario_stub(n, d, D))


def _global_constants(V: PotentialSpec, W: PotentialSpec, n: int, d: float, D: float
                      ) -> Tuple[StructuralConstants, StructuralConstants, float, float]:
    """Global structural constants of V at d and of W at D, for n <= d <= D < inf,
    and the growth constants (K, M) they give."""
    d, D = _check_order(n, d, D)
    if math.isinf(D):
        raise DomainError(f"requires n <= d <= D < inf, got n={n}, d={d!r}, D=inf")
    try:
        sv, sw = structural(V, d, math.inf), structural(W, D, math.inf)
    except NoConvergence as exc:
        raise VoidBound(f"growth constants void: {exc}") from exc
    k, m = _growth_chain(n, d, D, _chain_terms(sv, n, d), _chain_terms(sw, n, D))
    return sv, sw, float(k), float(m)


def _chain_terms(sc: StructuralConstants, n: int, p) -> Tuple[float, float]:
    """(log(C0/c0), log I_p): what the growth chain reads of one potential's
    global constants at parameter p."""
    return math.log(sc.C0) - math.log(sc.c0), log_reference_integral(n, p)


def _growth_chain(n: int, d, D, v, w):
    """(K, M) in log space, from the ``_chain_terms`` v of V at d and w of W at D.

    d, D and the terms are scalars or equal-shape arrays.
    """
    (log_ratio_v, log_i_v), (log_ratio_w, log_i_w) = v, w
    log_bracket = (d * log_ratio_v + D * log_ratio_w
                   + d * math.log(1.25) + 2.0 * d * math.log(10.0)
                   - n * math.log(3.0)
                   + D * (np.log(D) - np.log(d))
                   + log_i_v - log_i_w)
    log_k = math.log(3.0) + log_bracket / (2.0 * D - n)
    return np.exp(log_k), np.exp(np.log(d / D) + 2.0 * log_k)


def finite_growth_constants(V: PotentialSpec, W: PotentialSpec, n: int,
                            d: float, D: float) -> Tuple[float, float]:
    """The linear-growth constants (K, M) of the finite-parameter growth estimate."""
    return _global_constants(V, W, n, d, D)[2:]


def finite_global_sharp_bound(V: PotentialSpec, W: PotentialSpec, n: int,
                              d: float, D: float) -> BoundReport:
    """Sharper finite-parameter global bound built on the (K, M) growth chain."""
    d, D = param(d), param(D)
    C_V2 = _require_hess_upper(V)
    c_W2 = _require_hess_lower(W)
    sv, sw, k, m = _global_constants(V, W, n, d, D)
    g = gamma(d, D)
    one_m = 1.0 + m
    a = C_V2 * sw.C0 * one_m / (c_W2 * sv.c0)
    pref = 4.0 * sv.C1 / (c_W2 * c_W2 * sv.c0 * sv.c0)
    b = pref * min(sw.C1 * (D / d) * one_m, g * (c_W2 * sw.C0 * one_m))
    consts = {"C_V2": C_V2, "c_W2": c_W2, "K": k, "M": m,
              "c0_V": sv.c0, "C0_V": sv.C0, "C1_V": sv.C1,
              "c0_W": sw.c0, "C0_W": sw.C0, "C1_W": sw.C1,
              "gamma": g}
    return BoundReport("finite_global_sharp", a, b, bound_from_terms(a, b), consts,
                       _scenario_stub(n, d, D))


@dataclass(frozen=True)
class UniformityReport:
    """Per-triple proof-chain verification of the uniform 1 + M <= M_glob bound."""

    rows: list
    e2_product: float          # 125000 * e^2, must be < 924000
    tau_endpoint_value: float  # max over tau of the bracket logarithm
    tau_endpoint_target: float  # log 15625
    max_one_plus_m: float
    all_pass: bool


def mglob_uniformity_check(n_range, d_range, D_range, qV: float = 1.0,
                           qW: float = 1.0) -> UniformityReport:
    """Verify every step of the chain 1 + M <= 10^6 qV^2 qW^2 on a parameter grid.

    For each n the chain is evaluated as arrays over the pairs n <= d <= D,
    from the structural constants and reference integral of each distinct
    parameter, each computed once. Rows run over d, then D, as given; a
    grid without such a pair does not pass.
    """
    e2 = 125000.0 * math.exp(2.0)
    taus = np.linspace(1e-6, 1.0, 2001)
    tau_vals = math.log(9.0) + (2.0 * math.log(125.0) - 2.0 * taus * math.log(3.0)) / (2.0 - taus)
    tau_max = float(np.max(tau_vals))
    tau_target = math.log(15625.0)

    rows = []
    max_one_m = 0.0
    tol = 1e-9
    grid_d, grid_D = np.meshgrid(list(d_range), list(D_range), indexing="ij")
    for n in n_range:
        keep = (grid_d >= n) & (grid_D >= grid_d)
        d, D = grid_d[keep], grid_D[keep]
        if not d.size:
            continue
        U = PotentialSpec.quadratic(1.0, n)  # both potentials
        ps, at = np.unique(np.concatenate((d, D)), return_inverse=True)
        iv, iw = at[:d.size], at[d.size:]
        log_ratio, log_i = np.array([
            _chain_terms(structural(U, finite_param(p), math.inf), n, float(p))
            for p in ps]).T
        expo = 2.0 / (2.0 * D - n)
        s1 = ((np.exp(d * expo * log_ratio[iv]) <= qV * qV + tol)
              & (np.exp(D * expo * log_ratio[iw]) <= qW * qW + tol))
        s2 = (d / D) * (D / d) ** (D * expo) <= 2.0 + tol
        mid = 9.0 * np.exp(expo * (d * math.log(1.25) + 2.0 * d * math.log(10.0)
                                   - n * math.log(3.0)))
        upper = 9.0 * np.exp(expo * (D * math.log(125.0) - n * math.log(3.0)))
        s3 = (mid <= upper * (1.0 + tol)) & (upper <= 15625.0 * (1.0 + tol))
        s4 = np.exp(expo * (log_i[iv] - log_i[iw])) <= 4.0 * math.exp(2.0) + tol
        _, m = _growth_chain(n, d, D, (log_ratio[iv], log_i[iv]), (log_ratio[iw], log_i[iw]))
        one_m = 1.0 + m
        s5 = one_m <= 1e6 * qV * qV * qW * qW + tol
        max_one_m = max(max_one_m, float(np.max(one_m)))
        rows += [{"n": n, "d": dv, "D": Dv, "one_plus_M": om,
                  "ratio_exponent": a, "dD_factor": b, "polynomial_factor": c,
                  "reference_ratio": e, "uniform_bound": f, "pass": ok}
                 for dv, Dv, om, a, b, c, e, f, ok in zip(
                     d.tolist(), D.tolist(), one_m.tolist(), s1.tolist(), s2.tolist(),
                     s3.tolist(), s4.tolist(), s5.tolist(), (s1 & s2 & s3 & s4 & s5).tolist())]
    all_pass = (e2 < 924000.0
                and abs(tau_max - tau_target) < 1e-6
                and bool(rows) and all(r["pass"] for r in rows))
    return UniformityReport(rows, e2, tau_max, tau_target, max_one_m, all_pass)
