"""Discretized geometric Brownian shock paths and running-supremum helpers.

Sampling uses the exact log-normal transition, so the grid values have the
same distribution as the continuous process at the grid times; the only
discretization effect downstream is that suprema are taken over the grid.
Randomness comes from the counter-based Philox generator keyed by
(seed, path_index), which makes every path a pure function of those two
numbers regardless of how work is scheduled across workers, or of whether it
is sampled alone (generate_path) or as a row of a block (generate_paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParamDomainError
from .model import ModelParams


@dataclass(frozen=True)
class ShockPath:
    """Simulated trajectories on the uniform grid t_k = k * dt.

    values has one path's n_steps + 1 grid values, or, for a block of
    paths, one row per path, shape (n_paths, n_steps + 1).  Row r is the
    path of index path_index + r, the same bytes that generate_path gives
    for that index.
    """

    x0: float
    dt: float
    horizon: float
    values: np.ndarray
    seed: int
    path_index: int

    @property
    def n_steps(self) -> int:
        return self.values.shape[-1] - 1

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.shape[-1])


def _grid_steps(dt: float, horizon: float) -> int:
    """Steps of length dt to the horizon, round(horizon / dt), for finite
    dt > 0 and horizon >= dt; anything else is a ParamDomainError."""
    if not (math.isfinite(dt) and math.isfinite(horizon)) or dt <= 0.0 or horizon < dt:
        raise ParamDomainError(f"need finite dt > 0 and horizon >= dt, got dt={dt}, "
                               f"horizon={horizon}")
    return int(round(horizon / dt))


def generate_path(params: ModelParams, x0: float, dt: float, horizon: float,
                  seed: int, path_index: int = 0) -> ShockPath:
    """Sample one GBM path with exact log-normal increments.

    values[k] = x0 * exp(sum of k i.i.d. Normal((mu - sigma^2/2) dt, sigma^2 dt))
    """
    if x0 <= 0.0:
        raise ParamDomainError(f"initial shock must be positive, got {x0}")
    n = _grid_steps(dt, horizon)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(path_index,)))
    )
    drift = (params.mu - 0.5 * params.sigma ** 2) * dt
    vol = params.sigma * np.sqrt(dt)
    # One buffer goes from normals to log increments, log X and X in place.
    values = np.empty(n + 1)
    values[0] = 0.0
    steps = values[1:]
    rng.standard_normal(out=steps)
    steps *= vol
    steps += drift
    np.cumsum(steps, out=steps)
    np.exp(values, out=values)
    values *= x0
    values.setflags(write=False)
    return ShockPath(x0=x0, dt=dt, horizon=n * dt, values=values,
                     seed=seed, path_index=path_index)


def generate_paths(params: ModelParams, x0: float, dt: float, horizon: float,
                   seed: int, n_paths: int, path_index: int = 0) -> ShockPath:
    """A block of n_paths >= 1 paths: row r is generate_path's path of
    index path_index + r, stacked into one (n_paths, n_steps + 1) array.
    Every row is sampled by generate_path, so a path has one sampler and
    the same bytes alone or in a block."""
    first = generate_path(params, x0, dt, horizon, seed, path_index)
    values = np.empty((n_paths, len(first.values)))
    values[0] = first.values
    for r in range(1, n_paths):
        values[r] = generate_path(params, x0, dt, horizon, seed, path_index + r).values
    values.setflags(write=False)
    return replace(first, values=values)


def running_sup(values) -> np.ndarray:
    """Running supremum of a functional's values along the grid."""
    return np.maximum.accumulate(np.asarray(values, dtype=float))

