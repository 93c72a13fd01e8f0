import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duopoly_invest.errors import (
    IntegrabilityError,
    ParamDomainError,
    UsageError,
    ZeroCapacityError,
)
from duopoly_invest.model import (
    derive_params,
    params_from_json,
    solve_beta,
)

GOLDEN = dict(r=1.0, mu=0.0, sigma=math.sqrt(2.0), gamma=1.5)


@pytest.fixture(scope="module")
def golden():
    return derive_params(**GOLDEN)


def test_golden_ratio_beta(golden):
    # r=1, mu=0, sigma^2=2 turns the quadratic into b^2 - b - 1 = 0.
    assert golden.beta == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-13)
    # beta/(beta-1) = beta for this root, so p* = beta^2 = beta + 1.
    assert golden.p_star == pytest.approx(golden.beta ** 2, abs=1e-12)
    assert golden.p_star == pytest.approx(2.6180340, abs=1e-7)
    assert golden.mu_gamma == pytest.approx(0.75, abs=1e-12)


def test_quadratic_residual(golden):
    b = golden.beta
    res = 0.5 * golden.sigma ** 2 * b ** 2 + (golden.mu - 0.5 * golden.sigma ** 2) * b - golden.r
    assert abs(res) < 1e-12 * golden.r


def test_integrability_rejected():
    # gamma*(gamma-1)*sigma^2/2 = 1.19 > r = 1 for gamma=1.7, sigma^2=2
    with pytest.raises(IntegrabilityError):
        derive_params(1.0, 0.0, math.sqrt(2.0), 1.7)


@pytest.mark.parametrize("kwargs", [
    dict(r=1.0, mu=0.0, sigma=math.sqrt(2.0), gamma=1.0),
    dict(r=1.0, mu=0.0, sigma=math.sqrt(2.0), gamma=0.5),
    dict(r=0.0, mu=0.0, sigma=1.0, gamma=1.5),
    dict(r=-1.0, mu=0.0, sigma=1.0, gamma=1.5),
    dict(r=1.0, mu=0.0, sigma=0.0, gamma=1.5),
])
def test_param_domain_rejected(kwargs):
    with pytest.raises(ParamDomainError):
        derive_params(**kwargs)


def test_inverse_demand_examples(golden):
    p2 = derive_params(1.5, 0.0, 1.0, 2.0)
    assert p2.inverse_demand(4.0) == pytest.approx(0.5, abs=1e-15)
    assert golden.inverse_demand(1.0) == pytest.approx(1.0, abs=1e-15)
    assert golden.inverse_demand(8.0) == pytest.approx(0.25, abs=1e-14)
    with pytest.raises(ZeroCapacityError):
        golden.inverse_demand(0.0)
    with pytest.raises(ZeroCapacityError):
        golden.inverse_demand(-1.0)


def test_profit_flow_examples(golden):
    p2 = derive_params(1.5, 0.0, 1.0, 2.0)
    assert p2.profit_flow(2.0, 2.0, 2.0) == pytest.approx(2.0, abs=1e-14)
    # linear in x
    assert golden.profit_flow(1e-12, 1.0, 1.0) == pytest.approx(0.0, abs=1e-11)
    assert golden.profit_flow(1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_profit_flow_elementwise(golden):
    """Array calls equal scalar calls element by element, up to numpy's
    vectorized power, which may differ from the scalar one in the last bit;
    zero own capital gives exactly zero, and a zero aggregate anywhere is
    refused."""
    ulps = 4 * np.finfo(float).eps
    x = np.array([0.3, 1.0, 2.5, 7.0])
    q_i = np.array([0.0, 0.4, 1.0, 3.0])
    q_mi = np.array([1.0, 0.0, 2.0, 0.5])
    flows = golden.profit_flow(x, q_i, q_mi)
    prices = golden.inverse_demand(q_i + q_mi)
    for k in range(len(x)):
        one = golden.profit_flow(float(x[k]), float(q_i[k]), float(q_mi[k]))
        assert abs(flows[k] - one) <= ulps * abs(one)
        price = golden.inverse_demand(float(q_i[k] + q_mi[k]))
        assert abs(prices[k] - price) <= ulps * price
    assert flows[0] == 0.0
    with pytest.raises(ZeroCapacityError):
        golden.profit_flow(x, q_i, np.array([1.0, 0.0, 2.0, -3.0]))
    with pytest.raises(ZeroCapacityError):
        golden.profit_flow(1.0, 0.0, 0.0)


def test_beta_monotone_in_sigma_and_mu():
    r = 1.3
    for mu in (-0.5, 0.0, 0.2):
        betas = [solve_beta(r, mu, s) for s in (0.3, 0.6, 1.0, 1.6)]
        assert all(a > b for a, b in zip(betas, betas[1:]))
    for sigma in (0.4, 1.0):
        betas = [solve_beta(r, mu, sigma) for mu in (-0.5, -0.1, 0.0, 0.3)]
        assert all(a > b for a, b in zip(betas, betas[1:]))


def test_p_star_exceeds_r_minus_mu(golden):
    assert golden.p_star > golden.r - golden.mu


@settings(max_examples=100, deadline=None)
@given(r=st.floats(0.05, 3.0), mu=st.floats(-1.0, 1.0),
       sigma=st.floats(0.05, 2.0), gamma=st.floats(1.01, 3.0))
def test_beta_gamma_equivalence(r, mu, sigma, gamma):
    """beta > gamma holds if and only if r > mu_gamma, as exact predicates."""
    beta = solve_beta(r, mu, sigma)
    mu_gamma = gamma * mu + gamma * (gamma - 1.0) * 0.5 * sigma ** 2
    assert (beta > gamma) == (r > mu_gamma)


def test_marginal_profit_positive(golden):
    rng = np.random.default_rng(3)
    for _ in range(200):
        q_i = rng.uniform(0.0, 5.0)
        q_mi = rng.uniform(0.01, 5.0)
        assert golden.marginal_revenue(q_i, q_mi) > 0.0


def test_json_round_trip(golden):
    block = {"r": 1.0, "mu": 0.0, "sigma": math.sqrt(2.0), "gamma": 1.5}
    pp = params_from_json(block)
    assert pp == golden
    out = pp.to_json()
    assert set(out) == {"r", "mu", "sigma", "gamma", "beta", "p_star", "mu_gamma"}
    # derived fields in the input are ignored, not trusted
    assert params_from_json({**block, "beta": 99.0}).beta == golden.beta
    with pytest.raises(UsageError):
        params_from_json({"r": 1.0, "mu": 0.0})
