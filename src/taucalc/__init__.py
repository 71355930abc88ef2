"""Orbit-difference calculus and factorization chains for functional eigenproblems."""

from .calculus import (shift, solve_linear_first_order, tau_antiderivative,
                       tau_derivative, tau_exponential, tau_integral)
from .chain import (ChainLevel, CoefficientTriple, EigenPair, PostulateGaps,
                    apply_A, apply_Astar, build_chain, chain_eigenvalues,
                    eigen_residual, factorization_residual,
                    from_coefficients, lift, make_level, particular_gauge_xi,
                    solve_step_constant, to_coefficients)
from .covariance import (VariableChange, affine_change,
                         equivalence_obstruction, ln_change, powerlaw_change,
                         transport_function, transport_grid, transport_level,
                         transport_weight)
from .errors import CalculusError, ConfigError
from .expressions import parse_expression
from .grid import GROUP, INTERVAL, SEMIGROUP, OrbitBranch, OrbitGrid, build_grid
from .gridfn import GridFunction
from .hilbert import (WeightedGrid, inner_product, norm, pearson_residual,
                      weight_from_pearson, weighted_grid)
from .maps import TauMap, fractional_map, linear_map, power_map
from .riccati import (ResolventResult, TwoByTwoSystem, cross_ratio, darboux,
                      darboux_solution, general_solution, resolvent,
                      singular_darboux, solve_system, system_from_second_order,
                      triangular_resolvent)
from .scenarios import (constant_gauge_chain, fractional_chain,
                        gauge_riccati_system, qhahn_chain)
from .validation import format_report, run_criteria

__all__ = [
    "CalculusError", "ConfigError", "OrbitBranch", "OrbitGrid", "build_grid",
    "GridFunction", "TauMap", "linear_map", "fractional_map", "power_map",
    "SEMIGROUP", "INTERVAL", "GROUP",
    "shift", "tau_derivative", "tau_integral", "tau_antiderivative",
    "tau_exponential", "solve_linear_first_order",
    "WeightedGrid", "weighted_grid", "weight_from_pearson",
    "pearson_residual", "inner_product", "norm",
    "ChainLevel", "EigenPair", "CoefficientTriple", "make_level",
    "build_chain", "apply_A", "apply_Astar", "lift",
    "eigen_residual", "factorization_residual", "PostulateGaps",
    "from_coefficients", "to_coefficients", "solve_step_constant",
    "chain_eigenvalues", "particular_gauge_xi",
    "TwoByTwoSystem", "ResolventResult", "system_from_second_order",
    "resolvent", "triangular_resolvent", "solve_system", "darboux",
    "darboux_solution", "singular_darboux", "general_solution", "cross_ratio",
    "VariableChange", "ln_change", "affine_change",
    "powerlaw_change", "transport_grid", "transport_function",
    "transport_weight", "transport_level", "equivalence_obstruction",
    "qhahn_chain", "constant_gauge_chain", "fractional_chain",
    "gauge_riccati_system",
    "parse_expression", "run_criteria", "format_report",
]

__version__ = "0.1.0"
