import math

import pytest

from duopoly_invest.boundaries import (
    ConstantPriceBoundary,
    DynamicBoundary,
    InfiniteBoundary,
)
from duopoly_invest.mc import (
    deviation_experiment,
    estimate_payoff,
    npv_at_boundary,
    value_linear_bound_coeff,
)
from duopoly_invest.model import derive_params
from duopoly_invest.outcomes import (
    build_abstain_outcome,
    build_aggregate_split,
    build_joint_outcome,
    build_symmetric_outcome,
)
from duopoly_invest.values import AbstainValue


@pytest.fixture(scope="module")
def golden():
    return derive_params(1.0, 0.0, math.sqrt(2.0), 1.5)


@pytest.fixture(scope="module")
def cp(golden):
    return ConstantPriceBoundary(golden, golden.p_star)


@pytest.mark.slow
def test_frozen_perpetuity(golden):
    """Nobody invests: the payoff is the Gordon-style annuity x P q / (r - mu)."""
    inf = InfiniteBoundary(golden)
    builder = lambda path: build_joint_outcome(inf, inf, path, 1.0, 1.0)
    x0 = 2.0 ** (1.0 / golden.gamma)  # makes x P q_i = 1 at (1, 1)
    est = estimate_payoff(golden, builder, firm=1, x0=x0, n_paths=20_000,
                          dt=1e-3, horizon=20.0, seed=11, tail_boundary=inf)
    assert abs(est.mean - 1.0) < 3.0 * est.se + 0.002


@pytest.mark.slow
def test_abstain_payoff_matches_analytic(golden, cp):
    fn = AbstainValue(golden, golden.p_star)
    x0 = golden.p_star * 2.0 ** (1 / golden.gamma) / 2.0
    target = fn.value(x0, 1.0, 1.0)
    builder = lambda path: build_abstain_outcome((cp, cp), path, 1.0, 1.0, 1)
    est = estimate_payoff(golden, builder, firm=1, x0=x0, n_paths=20_000,
                          dt=1e-3, horizon=20.0, seed=13, tail_boundary=cp)
    assert abs(est.mean - target) < 3.0 * est.se + 0.01 * abs(target)
    assert est.tail_bound < 1e-4
    assert est.n == 20_000


@pytest.mark.slow
def test_symmetric_c0_matches_abstain_value(golden):
    d0 = DynamicBoundary(golden, 0.0)
    fn = AbstainValue(golden, golden.p_star)
    x0 = golden.p_star * 2.0 ** (1 / golden.gamma) / 2.0
    target = fn.value(x0, 1.0, 1.0)
    builder = lambda path: build_symmetric_outcome((d0, d0), path, 1.0, 1.0)
    est = estimate_payoff(golden, builder, firm=1, x0=x0, n_paths=20_000,
                          dt=1e-3, horizon=20.0, seed=13, tail_boundary=d0)
    assert abs(est.mean - target) < 3.0 * est.se + 0.01 * abs(target)


def test_deviation_zero_for_equal_boundary(golden, cp):
    res = deviation_experiment(golden, cp, ConstantPriceBoundary(golden, golden.p_star),
                               x0=2.0, q1_0=1.0, q2_0=1.0, n_paths=300,
                               dt=1e-2, horizon=5.0, seed=17)
    assert res.diff_mean == 0.0
    assert res.diff_se == 0.0


def test_deviation_reports_each_arm_se(golden, cp):
    """With the deviant equal to the equilibrium boundary the two arms are
    the same payoffs: equal arm standard errors, a zero SE of the
    difference, and both in the JSON."""
    res = deviation_experiment(golden, cp, ConstantPriceBoundary(golden, golden.p_star),
                               x0=2.0, q1_0=1.0, q2_0=1.0, n_paths=300,
                               dt=1e-2, horizon=5.0, seed=17)
    assert res.se_deviant == res.se_equilibrium > 0.0
    assert res.diff_se == 0.0
    blob = res.to_json()
    assert blob["se_deviant"] == blob["se_equilibrium"] == res.se_deviant


def test_deviation_below_p_star_loses(golden, cp):
    res = deviation_experiment(golden, cp, ConstantPriceBoundary(golden, 0.9 * golden.p_star),
                               x0=2.0, q1_0=1.0, q2_0=1.0, n_paths=4000,
                               dt=1e-3, horizon=10.0, seed=19)
    assert res.significant_loss
    assert res.diff_mean < 0.0


def test_preemption_against_reactive_opponent(golden, cp):
    """Investing down to the competitive threshold against a reactive
    opponent does not pay: the deviant forgoes the sustained premium."""
    dyn = DynamicBoundary(golden, 1.0)
    qf = dyn.q_floor
    res = deviation_experiment(golden, dyn, ConstantPriceBoundary(golden, golden.p_star),
                               x0=3.0, q1_0=1.1 * qf, q2_0=1.1 * qf, n_paths=2000,
                               dt=2e-3, horizon=10.0, seed=23)
    assert res.diff_mean <= 3.0 * res.diff_se


def test_indifference_across_same_aggregate_outcomes(golden, cp):
    """All constant-price outcomes with the same aggregate yield the same
    payoffs within noise (checked with common random numbers)."""
    x0, n, dt, T = 2.2, 3000, 2e-3, 10.0
    arms = {
        "abstain1": lambda path: build_abstain_outcome((cp, cp), path, 1.0, 1.0, 1),
        "abstain2": lambda path: build_abstain_outcome((cp, cp), path, 1.0, 1.0, 2),
        "even": lambda path: build_aggregate_split((cp, cp), path, 1.0, 1.0, (0.5, 0.5)),
    }
    results = {}
    for name, builder in arms.items():
        for firm in (1, 2):
            results[(name, firm)] = estimate_payoff(
                golden, builder, firm, x0, n, dt, T, seed=29, tail_boundary=cp)
    for firm in (1, 2):
        vals = [results[(name, firm)].mean for name in arms]
        ses = [results[(name, firm)].se for name in arms]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                pooled = math.hypot(ses[i], ses[j])
                assert abs(vals[i] - vals[j]) < 3.0 * pooled


def test_pareto_ranking_mc_corroboration(golden):
    """Monte Carlo payoffs corroborate the value-function ranking in c."""
    x0 = 2.0
    payoffs = {}
    for c in (0.0, 1.0):
        dyn = DynamicBoundary(golden, c)
        q0 = max(dyn.q_floor, 1.0)
        builder = lambda path, b=dyn, q=q0: build_symmetric_outcome((b, b), path, q, q)
        payoffs[c] = estimate_payoff(golden, builder, 1, x0, 4000, 2e-3, 12.0,
                                     seed=31, tail_boundary=dyn)
    # same initial capitals for both arms, so the estimates are comparable
    pooled = math.hypot(payoffs[0.0].se, payoffs[1.0].se)
    assert payoffs[1.0].mean > payoffs[0.0].mean - 3.0 * pooled


def test_npv_at_boundary(golden):
    assert npv_at_boundary(golden, golden.p_star) == 0.0
    assert npv_at_boundary(golden, 1.2 * golden.p_star) == pytest.approx(0.2, abs=1e-12)
    assert npv_at_boundary(golden, 0.8 * golden.p_star) == pytest.approx(-0.2, abs=1e-12)


def test_tail_bound_coefficient(golden, cp):
    assert value_linear_bound_coeff(golden, cp) > 0.0
    dyn = DynamicBoundary(golden, 1.0)
    assert value_linear_bound_coeff(golden, dyn) > 0.0


def test_tail_bound_coefficient_reads_p_and_c(golden, cp):
    """The coefficient depends on the trigger's (p, c), not on its class:
    (p*, 0) as a dynamic boundary with c = 0 and as the constant price p*
    give one coefficient, every c > 0 the capital-dependent one, and the
    never-invest boundary the constant-price one at p*."""
    at_p_star = value_linear_bound_coeff(golden, cp)
    assert value_linear_bound_coeff(golden, DynamicBoundary(golden, 0.0)) == at_p_star
    assert value_linear_bound_coeff(golden, InfiniteBoundary(golden)) == at_p_star
    assert at_p_star == pytest.approx(5.85, abs=0.01)
    dynamic = [value_linear_bound_coeff(golden, DynamicBoundary(golden, c)) for c in (0.5, 1.0)]
    assert dynamic[0] == dynamic[1] == pytest.approx(68.05, abs=0.01)
    higher = ConstantPriceBoundary(golden, 1.2 * golden.p_star)
    assert value_linear_bound_coeff(golden, higher) != at_p_star


def test_dt_refinement_stability(golden, cp):
    """Halving dt moves the estimate by less than the noise + 1% band."""
    fn = AbstainValue(golden, golden.p_star)
    x0 = golden.p_star * 2.0 ** (1 / golden.gamma) / 2.0
    builder = lambda path: build_abstain_outcome((cp, cp), path, 1.0, 1.0, 1)
    coarse = estimate_payoff(golden, builder, 1, x0, 4000, 2e-3, 10.0, seed=37,
                             tail_boundary=cp)
    fine = estimate_payoff(golden, builder, 1, x0, 4000, 1e-3, 10.0, seed=37,
                           tail_boundary=cp)
    band = max(3.0 * math.hypot(coarse.se, fine.se),
               0.01 * abs(fn.value(x0, 1.0, 1.0)))
    assert abs(coarse.mean - fine.mean) < band
