"""Explicit Lipschitz/Hessian bounds for monotone transport between densities
interpolating polynomial and log-concave tails, with numerical map
construction and empirical verification."""

from .errors import (BracketFailure, BrenierBoundsError, ConventionUndefined,
                     DivergentIntegral, DomainError, EmptyWindow, InvalidOrder,
                     MFrakOverflow, NoConvergence, VoidBound)
from .extparam import INF, ExtParam  # noqa: F401  (ExtParam.parse only, not in __all__)
from .potentials import (NormConstant, PotentialSpec, log_reference_integral,
                         normalization, unit_ball_volume)
from .constants import (GlobalAggregates, StructuralConstants, aggregates,
                        structural)
from .bounds import (BoundReport, GrowthData, UniformityReport,
                     bound_from_terms, finite_global_sharp_bound,
                     finite_growth_constants, gamma, global_bound, growth_data,
                     local_bound, local_factors, mglob_uniformity_check,
                     tail_mass)
from .transport import (LipschitzEstimate, RadialMap, SecondVariationReport,
                        default_grid, lipschitz_empirical, quantile_map_1d,
                        radial_map, second_variation_check)
from .verify import (CaffarelliSweepReport, DSweepReport, Scenario,
                     VerifyReport, limit_sweep_caffarelli, limit_sweep_D,
                     run_scenario, slope_fit)

__version__ = "0.1.0"

__all__ = [
    "BracketFailure", "BrenierBoundsError", "ConventionUndefined",
    "DivergentIntegral", "DomainError", "EmptyWindow", "InvalidOrder",
    "MFrakOverflow", "NoConvergence", "VoidBound",
    "INF",
    "NormConstant", "PotentialSpec", "log_reference_integral", "normalization",
    "unit_ball_volume",
    "GlobalAggregates", "StructuralConstants", "aggregates", "structural",
    "BoundReport", "GrowthData", "UniformityReport", "bound_from_terms",
    "finite_global_sharp_bound", "finite_growth_constants", "gamma",
    "global_bound", "growth_data", "local_bound", "local_factors",
    "mglob_uniformity_check", "tail_mass",
    "LipschitzEstimate", "RadialMap", "SecondVariationReport", "default_grid",
    "lipschitz_empirical", "quantile_map_1d", "radial_map",
    "second_variation_check",
    "CaffarelliSweepReport", "DSweepReport", "Scenario", "VerifyReport",
    "limit_sweep_caffarelli", "limit_sweep_D", "run_scenario", "slope_fit",
]
