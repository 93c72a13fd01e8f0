"""Numerical laboratory for closed-loop capacity-investment duopolies.

Two firms irreversibly add capacity while demand is shifted by a geometric
Brownian shock.  The package evaluates the closed-form candidate value
functions of the constant-price and capital-dependent trigger equilibria,
builds the corresponding capital-path outcomes, verifies the equilibrium
conditions numerically on state grids, and cross-checks everything against
Monte Carlo payoff estimates.
"""

from .boundaries import (
    Boundary,
    ConstantPriceBoundary,
    DynamicBoundary,
    InfiniteBoundary,
    boundary_from_json,
)
from .mc import (
    DeviationResult,
    PayoffEstimate,
    deviation_experiment,
    estimate_payoff,
    npv_at_boundary,
)
from .model import ModelParams, derive_params, params_from_json, solve_beta
from .outcomes import (
    Outcome,
    build_abstain_outcome,
    build_aggregate_split,
    build_joint_outcome,
    build_symmetric_outcome,
    catch_up_report,
    check_consistency,
    discount_identity_defect,
    payoff,
)
from .paths import ShockPath, generate_path, running_sup
from .values import AbstainValue, DynamicValue, PerturbedValue, SoleInvestorValue
from .verify import GridSpec, VerificationReport, run_verification

__all__ = [
    "AbstainValue", "Boundary", "ConstantPriceBoundary", "DeviationResult",
    "DynamicBoundary", "DynamicValue", "GridSpec", "InfiniteBoundary",
    "ModelParams", "Outcome", "PayoffEstimate", "PerturbedValue", "ShockPath",
    "SoleInvestorValue", "VerificationReport", "boundary_from_json",
    "build_abstain_outcome", "build_aggregate_split", "build_joint_outcome",
    "build_symmetric_outcome",
    "catch_up_report", "check_consistency", "derive_params",
    "deviation_experiment", "discount_identity_defect", "estimate_payoff",
    "generate_path", "npv_at_boundary", "params_from_json", "payoff",
    "running_sup", "run_verification", "solve_beta",
]
