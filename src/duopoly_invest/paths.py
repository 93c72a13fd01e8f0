"""Discretized geometric Brownian shock paths and running-supremum helpers.

Sampling uses the exact log-normal transition, so the grid values have the
same distribution as the continuous process at the grid times; the only
discretization effect downstream is that suprema are taken over the grid.
Randomness comes from the counter-based Philox generator keyed by
(seed, path_index), which makes every path a pure function of those two
numbers regardless of how work is scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamDomainError
from .model import ModelParams


@dataclass(frozen=True)
class ShockPath:
    """One simulated trajectory on the uniform grid t_k = k * dt."""

    x0: float
    dt: float
    horizon: float
    values: np.ndarray
    seed: int
    path_index: int

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.values))


def generate_path(params: ModelParams, x0: float, dt: float, horizon: float,
                  seed: int, path_index: int = 0) -> ShockPath:
    """Sample one GBM path with exact log-normal increments.

    values[k] = x0 * exp(sum of k i.i.d. Normal((mu - sigma^2/2) dt, sigma^2 dt))
    """
    if x0 <= 0.0:
        raise ParamDomainError(f"initial shock must be positive, got {x0}")
    if not (math.isfinite(dt) and math.isfinite(horizon)) or dt <= 0.0 or horizon < dt:
        raise ParamDomainError(f"need finite dt > 0 and horizon >= dt, got dt={dt}, "
                               f"horizon={horizon}")
    n = int(round(horizon / dt))
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(path_index,)))
    )
    z = rng.standard_normal(n)
    drift = (params.mu - 0.5 * params.sigma ** 2) * dt
    vol = params.sigma * np.sqrt(dt)
    log_x = np.empty(n + 1)
    log_x[0] = 0.0
    np.cumsum(drift + vol * z, out=log_x[1:])
    values = x0 * np.exp(log_x)
    values.setflags(write=False)
    return ShockPath(x0=x0, dt=dt, horizon=n * dt, values=values,
                     seed=seed, path_index=path_index)


def running_sup(values) -> np.ndarray:
    """Running supremum of a functional's values along the grid."""
    return np.maximum.accumulate(np.asarray(values, dtype=float))

