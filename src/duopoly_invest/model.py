"""Model primitives: parameters, constant-elasticity demand, and profit flow.

Two firms sell at the market-clearing price ``x * P(q_total)`` where
``P(q) = q**(-1/gamma)`` and ``x`` follows a geometric Brownian motion with
drift ``mu`` and volatility ``sigma``.  Firm ``i`` earns the flow
``x * P(q_i + q_mi) * q_i``.  All derived constants are fixed at
construction time so that downstream code never re-solves anything.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import IntegrabilityError, ParamDomainError, ZeroCapacityError


def solve_beta(r: float, mu: float, sigma: float) -> float:
    """Positive root of (sigma^2/2)*b^2 + (mu - sigma^2/2)*b - r = 0.

    Closed form, arranged so that no catastrophic cancellation occurs: when
    the linear coefficient is positive the conjugate expression 2r/(b+disc)
    is used instead of (-b+disc)/(2a).
    """
    if r <= 0.0:
        raise ParamDomainError(f"discount rate must be positive, got r={r}")
    if sigma == 0.0:
        raise ParamDomainError("sigma must be nonzero")
    a = 0.5 * sigma * sigma
    b = mu - a
    disc = math.sqrt(b * b + 4.0 * a * r)
    if b <= 0.0:
        return (disc - b) / (2.0 * a)
    return 2.0 * r / (disc + b)


@dataclass(frozen=True)
class ModelParams:
    """Primitives (r, mu, sigma, gamma) plus derived constants.

    Derived fields:
      beta      positive root of the discount quadratic; exponent of the
                option-value term x**beta
      p_star    zero-NPV price threshold (r - mu) * beta / (beta - 1)
      mu_gamma  growth rate of X**gamma: gamma*mu + gamma*(gamma-1)*sigma^2/2

    Instances are immutable and safe to share across workers.
    """

    r: float
    mu: float
    sigma: float
    gamma: float
    beta: float
    p_star: float
    mu_gamma: float

    def inverse_demand(self, q_total):
        """Market price per unit of shock: P(q_total) = q_total**(-1/gamma),
        elementwise over arrays."""
        if np.any(q_total <= 0.0):
            raise ZeroCapacityError("inverse demand needs positive aggregate capacity")
        return q_total ** (-1.0 / self.gamma)

    def profit_flow(self, x, q_i, q_mi):
        """Operating profit rate x * P(q_i + q_mi) * q_i, elementwise over
        arrays; zero where own capital is zero and x * P is finite."""
        return x * self.inverse_demand(q_i + q_mi) * q_i

    def marginal_revenue(self, q_i: float, q_mi: float) -> float:
        """P(q) + q_i * P'(q) at q = q_i + q_mi; marginal profit per unit of x.

        Equals (q_i + q_mi)**(-1/gamma - 1) * ((gamma-1)/gamma * q_i + q_mi),
        strictly positive for gamma > 1; elementwise over arrays.
        """
        q = q_i + q_mi
        if np.any(q <= 0.0):
            raise ZeroCapacityError("marginal revenue needs positive capacity")
        return q ** (-1.0 / self.gamma - 1.0) * ((self.gamma - 1.0) / self.gamma * q_i + q_mi)

    def to_json(self) -> dict:
        return asdict(self)


def derive_params(r: float, mu: float, sigma: float, gamma: float) -> ModelParams:
    """Validate primitives and fill in beta, p_star and mu_gamma.

    Raises ParamDomainError for r<=0, gamma<=1 or sigma=0, and
    IntegrabilityError when r <= gamma*mu + gamma*(gamma-1)*sigma^2/2, in
    which case expected discounted investment (and hence every equilibrium
    value) is infinite.
    """
    if gamma <= 1.0:
        raise ParamDomainError(f"demand elasticity parameter must exceed 1, got gamma={gamma}")
    beta = solve_beta(r, mu, sigma)  # validates r and sigma
    mu_gamma = gamma * mu + gamma * (gamma - 1.0) * 0.5 * sigma * sigma
    if r <= mu_gamma:
        raise IntegrabilityError(
            "integrability requires r > gamma*mu + gamma*(gamma-1)*sigma^2/2; "
            f"got r={r} <= {mu_gamma}"
        )
    # r > mu_gamma with gamma > 1 forces beta > gamma > 1, hence r > mu.
    p_star = (r - mu) * beta / (beta - 1.0)
    return ModelParams(r=r, mu=mu, sigma=sigma, gamma=gamma, beta=beta,
                       p_star=p_star, mu_gamma=mu_gamma)


def params_from_json(block: dict) -> ModelParams:
    """Build ModelParams from {"r":..,"mu":..,"sigma":..,"gamma":..}.

    Derived fields are output-only; any present in the block are ignored.
    """
    from .errors import UsageError

    missing = [k for k in ("r", "mu", "sigma", "gamma") if k not in block]
    if missing:
        raise UsageError(f"parameter block missing fields: {missing}")
    return derive_params(float(block["r"]), float(block["mu"]),
                         float(block["sigma"]), float(block["gamma"]))
