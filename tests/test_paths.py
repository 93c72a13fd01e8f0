import math

import numpy as np
import pytest

from duopoly_invest.errors import ParamDomainError
from duopoly_invest.model import ModelParams, derive_params
from duopoly_invest.paths import generate_path, running_sup


@pytest.fixture(scope="module")
def golden():
    return derive_params(1.0, 0.0, math.sqrt(2.0), 1.5)


def test_deterministic_limit_small_sigma():
    pp = derive_params(1.0, 0.05, 1e-8, 1.5)
    path = generate_path(pp, 2.0, 0.01, 1.0, seed=0)
    expected = 2.0 * np.exp(pp.mu * path.times)
    assert np.max(np.abs(path.values - expected) / expected) < 1e-5


def test_terminal_mean_matches_gbm():
    pp = derive_params(1.0, 0.1, 0.4, 1.5)
    n, T, dt = 100_000, 1.0, 0.05
    ends = np.empty(n)
    for j in range(n):
        ends[j] = generate_path(pp, 1.0, dt, T, seed=77, path_index=j).values[-1]
    target = math.exp(pp.mu * T)
    se = ends.std(ddof=1) / math.sqrt(n)
    assert abs(ends.mean() - target) < 3.0 * se


def test_reproducible_and_distinct(golden):
    a = generate_path(golden, 1.0, 0.01, 1.0, seed=5, path_index=3)
    b = generate_path(golden, 1.0, 0.01, 1.0, seed=5, path_index=3)
    c = generate_path(golden, 1.0, 0.01, 1.0, seed=5, path_index=4)
    d = generate_path(golden, 1.0, 0.01, 1.0, seed=6, path_index=3)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert not np.array_equal(a.values, d.values)


def test_positive_and_anchored(golden):
    path = generate_path(golden, 0.5, 0.001, 2.0, seed=1)
    assert path.values[0] == 0.5
    assert np.all(path.values > 0.0)
    assert len(path.values) == 2001


def test_domain_errors(golden):
    with pytest.raises(ParamDomainError):
        generate_path(golden, -1.0, 0.01, 1.0, seed=0)
    with pytest.raises(ParamDomainError):
        generate_path(golden, 1.0, 0.0, 1.0, seed=0)
    with pytest.raises(ParamDomainError):
        generate_path(golden, 1.0, 0.5, 0.1, seed=0)
    for dt, horizon in ((math.nan, 1.0), (0.01, math.nan), (0.01, math.inf)):
        with pytest.raises(ParamDomainError, match="finite"):
            generate_path(golden, 1.0, dt, horizon, seed=0)


def test_running_sup_fold():
    assert np.array_equal(running_sup([1.0, 4.0, 2.0, 8.0]), [1.0, 4.0, 4.0, 8.0])


def _discounted_sup_gamma(params, T, dt, n_paths, seed):
    """MC estimate of the discounted running supremum of X**gamma."""
    total = 0.0
    for j in range(n_paths):
        path = generate_path(params, 1.0, dt, T, seed, j)
        sup_g = running_sup(path.values ** params.gamma)
        disc = np.exp(-params.r * (path.times[:-1] + 0.5 * dt))
        total += float(np.sum(disc * 0.5 * (sup_g[:-1] + sup_g[1:]) * dt))
    return total / n_paths


def test_integrability_probe():
    """The discounted supremum functional stabilizes under the growth
    condition and visibly diverges without it; sanity probe, not a proof."""
    ok = derive_params(1.0, 0.0, math.sqrt(2.0), 1.5)   # r - mu_gamma = 0.25
    z1 = _discounted_sup_gamma(ok, 30.0, 0.01, 10_000, seed=21)
    z2 = _discounted_sup_gamma(ok, 60.0, 0.01, 10_000, seed=21)
    assert abs(z2 - z1) / z2 < 0.01

    # r < mu_gamma: drift-dominated divergence so the sample mean sees it at
    # moderate N; derive_params would reject this bundle, so build it directly.
    bad = ModelParams(r=0.4, mu=0.3, sigma=0.1, gamma=1.5,
                      beta=float("nan"), p_star=float("nan"), mu_gamma=0.4575)
    w1 = _discounted_sup_gamma(bad, 30.0, 0.02, 2_000, seed=22)
    w2 = _discounted_sup_gamma(bad, 60.0, 0.02, 2_000, seed=22)
    assert w2 > 2.0 * w1
