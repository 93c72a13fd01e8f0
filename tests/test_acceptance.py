"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo runs are
shared across criteria 5, 6 and 10 (same paths, same seed), so the whole
module stays within its runtime budgets on a desk machine.  Every test here
is marked `slow`, so `pytest -m "not slow"` leaves the module out.
"""

import math
import time

import numpy as np
import pytest

from duopoly_invest.boundaries import ConstantPriceBoundary, DynamicBoundary
from duopoly_invest.mc import deviation_experiment, estimate_payoff, npv_at_boundary
from duopoly_invest.model import derive_params, solve_beta
from duopoly_invest.outcomes import (
    build_abstain_outcome,
    build_symmetric_outcome,
    catch_up_report,
    check_consistency,
    discount_identity_defect,
)
from duopoly_invest.paths import running_sup
from duopoly_invest.values import AbstainValue, DynamicValue, PerturbedValue, SoleInvestorValue
from duopoly_invest.verify import GridSpec, check_pde, check_smooth_fit, run_verification

pytestmark = pytest.mark.slow

GOLDEN = dict(r=1.0, mu=0.0, sigma=math.sqrt(2.0), gamma=1.5)


def _report(num: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def golden():
    return derive_params(**GOLDEN)


@pytest.fixture(scope="module")
def state_grid(golden):
    """40 x 20 x 20 grid: capitals linear on [0, 5], shock log-spaced over
    [0.05, 1] times the competitive trigger of each capital pair."""
    qs = np.linspace(0.0, 5.0, 20)
    pairs = [(a, b) for a in qs for b in qs if a + b > 0.0]
    fracs = np.exp(np.linspace(np.log(0.05), 0.0, 40))
    return qs, pairs, fracs


def test_criterion_01_parameter_derivation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_resid = 0.0
    for _ in range(100):
        r = rng.uniform(0.05, 3.0)
        mu = rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.05, 2.0)
        gamma = rng.uniform(1.01, 3.0)
        beta = solve_beta(r, mu, sigma)
        resid = abs(0.5 * sigma ** 2 * beta ** 2 + (mu - 0.5 * sigma ** 2) * beta - r)
        worst_resid = max(worst_resid, resid / r)
        mu_gamma = gamma * mu + gamma * (gamma - 1.0) * 0.5 * sigma ** 2
        if (beta > gamma) != (r > mu_gamma):
            _report(1, False, f"equivalence broken at r={r}, mu={mu}, "
                              f"sigma={sigma}, gamma={gamma}")
    elapsed = time.perf_counter() - t0
    _report(1, worst_resid < 1e-12 and elapsed < 1.0,
            f"worst residual {worst_resid:.2e} (tol 1e-12*r), {elapsed:.2f}s < 1s")


def test_criterion_02_investor_equals_abstain_at_p_star(golden, state_grid):
    t0 = time.perf_counter()
    _, pairs, fracs = state_grid
    va = AbstainValue(golden, golden.p_star)
    vi = SoleInvestorValue(golden, golden.p_star)
    worst = 0.0
    for q_i, q_mi in pairs:
        cap = golden.p_star * (q_i + q_mi) ** (1.0 / golden.gamma)
        # machine-noise absolute allowance: states with q_i = 0 have true
        # value zero on both sides, evaluated through non-identical algebra
        floor = 2e-14 * (1.0 + q_i + q_mi)
        for x in cap * fracs:
            a = va.value(float(x), q_i, q_mi)
            b = vi.value(float(x), q_i, q_mi)
            excess = max(0.0, abs(a - b) - floor)
            worst = max(worst, excess / max(abs(a), abs(b), floor))
    elapsed = time.perf_counter() - t0
    _report(2, worst < 1e-10 and elapsed < 10.0,
            f"max relative gap {worst:.2e} on 40x20x20 grid "
            f"(tol 1e-10), {elapsed:.1f}s < 10s")


def test_criterion_03_c0_reduction(golden, state_grid):
    t0 = time.perf_counter()
    _, pairs, fracs = state_grid
    va = AbstainValue(golden, golden.p_star)
    vc = DynamicValue(golden, 0.0)
    worst = 0.0
    for q_i, q_mi in pairs:
        cap = vc.boundary.trigger(q_i, q_mi)
        xs = cap * fracs
        a = va.below_branch_arrays(xs, q_i, q_mi)[0]
        b = vc.below_branch_arrays(xs, q_i, q_mi)[0]
        worst = max(worst, float(np.max(np.abs(a - b) / (1.0 + np.abs(a)))))
    elapsed = time.perf_counter() - t0
    _report(3, worst < 1e-8 and elapsed < 60.0,
            f"max gap {worst:.2e} on 40x20x20 grid (tol 1e-8), {elapsed:.1f}s < 60s")


def test_criterion_04_verification_reports(golden):
    t0 = time.perf_counter()
    spec = GridSpec()  # 40 x 20 x 20 default
    cp = ConstantPriceBoundary(golden, golden.p_star)
    failures = []

    abs_fn = AbstainValue(golden, golden.p_star)
    abs_sim = dict(
        builder=lambda path: build_abstain_outcome((cp, cp), path, 1.0, 1.0, 1),
        x0=2.0, horizon=8.0, n_paths=120, dt=0.01, seed=97)
    rep = run_verification(abs_fn, spec=spec, simulation=abs_sim)
    if not rep.all_pass:
        failures.append(("abstain@p*", [k for k, v in rep.conditions.items()
                                        if not v.passed]))

    for c in (0.0, 0.5, 1.0):
        fn = DynamicValue(golden, c)
        dyn = fn.boundary
        q1 = dyn.q_floor + 0.2 if c > 0 else 1.0
        q2 = q1 + 0.2
        sim = dict(
            builder=lambda path, b=dyn, a=q1, bb=q2: build_symmetric_outcome(
                (b, b), path, a, bb),
            x0=0.9 * dyn.trigger(q2, q2), horizon=6.0, n_paths=80, dt=0.01, seed=53)
        repc = run_verification(fn, spec=spec, simulation=sim)
        if not repc.all_pass:
            failures.append((f"dynamic c={c}", [k for k, v in repc.conditions.items()
                                                if not v.passed]))

    # negative controls must fail their targeted conditions
    bad5 = check_smooth_fit(AbstainValue(golden, 1.1 * golden.p_star),
                            AbstainValue(golden, 1.1 * golden.p_star).strategy_pair(),
                            spec)
    cond5 = {r.name: r for r in bad5}["own_derivative_below_trigger"]
    if cond5.passed:
        failures.append(("negative control p=1.1p*", ["condition 5 not flagged"]))
    perturbed = PerturbedValue(DynamicValue(golden, 0.5), 1.01)
    bad1 = check_pde(perturbed, perturbed.strategy_pair(), spec)
    if bad1.passed:
        failures.append(("negative control B*1.01", ["condition 1 not flagged"]))

    elapsed = time.perf_counter() - t0
    _report(4, not failures and elapsed < 300.0,
            f"reports abstain@p* and dynamic c in {{0, 0.5, 1}} all pass, "
            f"controls fail as required; {elapsed:.0f}s < 300s"
            + (f"; failures: {failures}" if failures else ""))


@pytest.fixture(scope="module")
def big_mc_run(golden):
    """Shared N=1e5 abstain run at the golden state: payoff estimates at dt
    and dt/2 plus per-path defect accumulators for criteria 6 and 10."""
    cp = ConstantPriceBoundary(golden, golden.p_star)
    x0 = golden.p_star * 2.0 ** (1.0 / golden.gamma) / 2.0  # price p*/2 at (1,1)
    stats = {"agg_defect": 0.0, "agg_scale": 1.0,
             "b1_violations": 0, "b1_worst_margin": -np.inf}

    def checked_builder(path):
        out = build_abstain_outcome((cp, cp), path, 1.0, 1.0, 1)
        sup_x = running_sup(path.values)
        agg = np.maximum(2.0, (sup_x / cp.p) ** golden.gamma)
        defect = float(np.max(np.abs(out.Q1 + out.Q2 - agg)))
        if defect > stats["agg_defect"]:
            stats["agg_defect"] = defect
            stats["agg_scale"] = float(np.max(agg))
        d = discount_identity_defect(golden, out, 2)
        tol = 5.0 * path.dt * golden.r * float(np.max(out.Q2))
        if d >= tol:
            stats["b1_violations"] += 1
        stats["b1_worst_margin"] = max(stats["b1_worst_margin"], d - tol)
        return out

    plain_builder = lambda path: build_abstain_outcome((cp, cp), path, 1.0, 1.0, 1)

    t0 = time.perf_counter()
    est = estimate_payoff(golden, checked_builder, firm=1, x0=x0, n_paths=100_000,
                          dt=1e-3, horizon=20.0, seed=1905, tail_boundary=cp)
    est_half = estimate_payoff(golden, plain_builder, firm=1, x0=x0, n_paths=100_000,
                               dt=5e-4, horizon=20.0, seed=1905, tail_boundary=cp)
    elapsed = time.perf_counter() - t0
    return {"est": est, "est_half": est_half, "stats": stats,
            "elapsed": elapsed, "x0": x0}


def test_criterion_05_mc_agrees_with_analytic(golden, big_mc_run):
    est, est_half = big_mc_run["est"], big_mc_run["est_half"]
    target = AbstainValue(golden, golden.p_star).value(big_mc_run["x0"], 1.0, 1.0)
    gap = abs(est.mean - target)
    band = 3.0 * est.se + 0.01 * abs(target)
    move = abs(est_half.mean - est.mean)
    move_band = max(3.0 * math.hypot(est.se, est_half.se), 0.01 * abs(target))
    ok = gap < band and move < move_band and big_mc_run["elapsed"] < 600.0
    _report(5, ok,
            f"MC {est.mean:.5f}+-{est.se:.5f} vs analytic {target:.5f} "
            f"(gap {gap:.5f} < {band:.5f}); dt-halving move {move:.5f} < "
            f"{move_band:.5f}; {big_mc_run['elapsed']:.0f}s < 600s")


def test_criterion_06_aggregate_capital_law(big_mc_run):
    stats = big_mc_run["stats"]
    tol = 1e-13 * (1.0 + stats["agg_scale"])  # float-rounding allowance only
    _report(6, stats["agg_defect"] <= tol,
            f"worst aggregate-law defect {stats['agg_defect']:.2e} over "
            f"100000 paths (float tolerance {tol:.2e})")


def test_criterion_07_zero_npv_and_deviation(golden):
    t0 = time.perf_counter()
    npv = npv_at_boundary(golden, golden.p_star)
    cp = ConstantPriceBoundary(golden, golden.p_star)
    dev = ConstantPriceBoundary(golden, 0.9 * golden.p_star)
    x0 = golden.p_star * 2.0 ** (1.0 / golden.gamma) / 2.0
    res = deviation_experiment(golden, cp, dev, x0, 1.0, 1.0, n_paths=100_000,
                               dt=2e-3, horizon=12.0, seed=711)
    ok = npv == 0.0 and res.diff_mean < -3.0 * res.diff_se
    elapsed = time.perf_counter() - t0
    _report(7, ok,
            f"npv(p*)={npv}; deviant 0.9p* gap {res.diff_mean:.5f} "
            f"(+-{res.diff_se:.5f}, {res.diff_mean / res.diff_se:.0f} SE), "
            f"{elapsed:.0f}s")


def test_criterion_08_catch_up_structure(golden):
    t0 = time.perf_counter()
    dyn = DynamicBoundary(golden, 1.0)
    qf = dyn.q_floor
    q1, q2 = qf, 1.3 * qf
    n_paths = 10_000
    structure_ok = 0
    worst_dev = 0.0
    interior_tau = 0
    from duopoly_invest.paths import generate_path

    for j in range(n_paths):
        path = generate_path(golden, 5.0, 1e-3, 3.0, seed=808, path_index=j)
        out = build_symmetric_outcome((dyn, dyn), path, q1, q2)
        rep = catch_up_report(dyn, out)
        good = rep["larger_constant_before"] and rep["max_gap_after"] == 0.0
        for firm in (1, 2):
            c = check_consistency(out, dyn, firm)
            worst_dev = max(worst_dev, c.max_deviation)
            good = good and c.support_violations == 0
        structure_ok += good
        interior_tau += rep["tau_index"] < len(path.values)
    elapsed = time.perf_counter() - t0
    ok = structure_ok == n_paths and worst_dev < 1e-9
    _report(8, ok,
            f"catch-up structure on {structure_ok}/{n_paths} paths "
            f"(catch-up time interior on {interior_tau}); consistency max "
            f"deviation {worst_dev:.2e} < 1e-9; {elapsed:.0f}s")


def test_criterion_09_pareto_ranking(golden):
    t0 = time.perf_counter()
    x, q_i, q_mi = 2.0, 1.0, 1.0
    values = [DynamicValue(golden, c).value(x, q_i, q_mi)
              for c in (0.0, 0.25, 0.5, 1.0)]
    monotone = all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    elapsed = time.perf_counter() - t0
    _report(9, monotone,
            "value at (2,1,1) over c in {0,0.25,0.5,1}: "
            + ", ".join(f"{v:.6f}" for v in values) + f"; {elapsed:.1f}s")


def test_criterion_10_pathwise_discount_identity(big_mc_run):
    stats = big_mc_run["stats"]
    _report(10, stats["b1_violations"] == 0,
            f"discount identity defect within 5*dt*r*maxQ on all 100000 "
            f"paths (worst margin {stats['b1_worst_margin']:.2e})")
