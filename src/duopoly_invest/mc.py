"""Monte Carlo payoff estimation and equilibrium deviation experiments.

Per-path payoffs are independent across paths, so the sample mean carries a
standard error from the i.i.d. payoffs; the horizon-truncation bias is
reported separately as a closed-form tail bound (never folded into the SE).
All comparisons run under common random numbers: the same (seed, path_index)
pair reproduces the same shock path in every arm of an experiment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .boundaries import Boundary
from .model import ModelParams
from .outcomes import Outcome, build_joint_outcome, payoff
from .paths import generate_path


@dataclass(frozen=True)
class PayoffEstimate:
    mean: float
    se: float
    n: int
    dt: float
    horizon: float
    tail_bound: float

    def to_json(self) -> dict:
        return {"mean": self.mean, "se": self.se, "n": self.n,
                "dt": self.dt, "T": self.horizon, "tail_bound": self.tail_bound}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def value_linear_bound_coeff(params: ModelParams, boundary: Boundary) -> float:
    """Coefficient a with |V| <= a * (1 + q_i + q_mi) on the containment
    region of the strategy family with the boundary's (p, c); used for
    horizon-tail bounds.  A premium c > 0 takes the capital-dependent
    coefficient, c = 0 the constant-price one at p."""
    pr = params
    if boundary.c > 0.0:
        lever = 2.0 * pr.gamma / (2.0 * pr.gamma - 1.0)
        return (pr.p_star / (pr.r - pr.mu) * lever
                + pr.beta / (pr.beta - 1.0) * lever ** pr.beta
                * pr.gamma / (pr.beta - pr.gamma))
    # A never-invest boundary (p = inf) has no price of its own; it takes the
    # constant-price coefficient at the competitive threshold p_star.
    p = boundary.p if boundary.p < math.inf else pr.p_star
    rm = pr.r - pr.mu
    k_own = abs(p * (pr.gamma - 1.0) / (rm * pr.gamma) - 1.0)
    k_opp = abs(p * (pr.beta - 1.0) / (rm * pr.beta) - 1.0)
    return p / rm * (1.0 + 1.0 / pr.beta) + pr.gamma / (pr.beta - pr.gamma) * (k_own + k_opp)


def _se(vals: np.ndarray) -> float:
    """Standard error of the mean of i.i.d. samples; inf for one sample."""
    n = len(vals)
    return float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else np.inf


def estimate_payoff(params: ModelParams, builder, firm: int, x0: float,
                    n_paths: int, dt: float, horizon: float, seed: int,
                    tail_boundary: Boundary) -> PayoffEstimate:
    """Mean and standard error of the discounted payoff of `firm` under the
    outcome construction `builder` (a callable mapping a shock path to an
    Outcome), and the horizon tail bound from the linear value bound of
    `tail_boundary`'s strategy family."""
    vals = np.empty(n_paths)
    q_ends = np.empty(n_paths)
    for j in range(n_paths):
        out: Outcome = builder(generate_path(params, x0, dt, horizon, seed, j))
        vals[j] = payoff(params, out, firm)
        q_ends[j] = out.K1[-1] + out.K2[-1]
    mean = float(np.mean(vals))
    se = _se(vals)
    coeff = value_linear_bound_coeff(params, tail_boundary)
    tail = float(np.exp(-params.r * horizon) * coeff * (1.0 + np.mean(q_ends)))
    return PayoffEstimate(mean=mean, se=se, n=n_paths, dt=dt,
                          horizon=horizon, tail_bound=tail)


@dataclass(frozen=True)
class DeviationResult:
    """Payoff comparison for firm 1 deviating from an equilibrium boundary:
    each arm's mean payoff and standard error, and the mean and standard
    error of the per-path difference, which common random numbers make
    smaller than either arm's."""

    payoff_deviant: float
    payoff_equilibrium: float
    diff_mean: float
    diff_se: float
    n: int
    se_deviant: float
    se_equilibrium: float

    @property
    def significant_loss(self) -> bool:
        """Deviation loses beyond three pooled standard errors."""
        return self.diff_mean < -3.0 * self.diff_se

    def to_json(self) -> dict:
        return {"payoff_deviant": self.payoff_deviant,
                "payoff_equilibrium": self.payoff_equilibrium,
                "diff_mean": self.diff_mean, "diff_se": self.diff_se, "n": self.n,
                "se_deviant": self.se_deviant, "se_equilibrium": self.se_equilibrium}


def deviation_experiment(params: ModelParams, equilibrium_boundary: Boundary,
                         deviant_boundary: Boundary, x0: float, q1_0: float,
                         q2_0: float, n_paths: int, dt: float, horizon: float,
                         seed: int) -> DeviationResult:
    """Compare firm 1's payoff when it switches to `deviant_boundary` while
    firm 2 keeps the equilibrium strategy, against the same construction with
    firm 1 also on the equilibrium boundary.

    Both arms build the joint outcome by sequential per-step reflection
    (deviant first) on the same shock path, so with the deviant equal to the
    equilibrium boundary the difference is identically zero.
    """
    devs = np.empty(n_paths)
    eqs = np.empty(n_paths)
    for j in range(n_paths):
        path = generate_path(params, x0, dt, horizon, seed, j)
        out_dev = build_joint_outcome(deviant_boundary, equilibrium_boundary,
                                      path, q1_0, q2_0)
        out_eq = build_joint_outcome(equilibrium_boundary, equilibrium_boundary,
                                     path, q1_0, q2_0)
        devs[j] = payoff(params, out_dev, 1)
        eqs[j] = payoff(params, out_eq, 1)
    diffs = devs - eqs
    diff_mean = float(np.mean(diffs))
    pi_dev = float(np.mean(devs))
    return DeviationResult(payoff_deviant=pi_dev,
                           payoff_equilibrium=pi_dev - diff_mean,
                           diff_mean=diff_mean, diff_se=_se(diffs), n=n_paths,
                           se_deviant=_se(devs), se_equilibrium=_se(eqs))


def npv_at_boundary(params: ModelParams, p: float) -> float:
    """Net present value per marginal unit invested at the price threshold p:
    (p / p_star) - 1; zero exactly at the competitive threshold."""
    return p / params.p_star - 1.0
