import math

import numpy as np
import pytest

from duopoly_invest.boundaries import ConstantPriceBoundary, DynamicBoundary
from duopoly_invest.model import derive_params
from duopoly_invest.outcomes import build_abstain_outcome, build_symmetric_outcome
from duopoly_invest.paths import generate_path
from duopoly_invest.values import (
    AbstainValue,
    DynamicValue,
    PerturbedValue,
    SoleInvestorValue,
)
from duopoly_invest.verify import (
    GridSpec,
    _Worst,
    check_derivative_propagation,
    check_opponent_increment_derivative,
    check_pde,
    check_smooth_fit,
    check_transversality,
    run_verification,
)

SPEC = GridSpec(nx=12, nq=7)


@pytest.fixture(scope="module")
def golden():
    return derive_params(1.0, 0.0, math.sqrt(2.0), 1.5)


def _smooth_results(value_fn, spec=SPEC):
    return {r.name: r for r in check_smooth_fit(value_fn, value_fn.strategy_pair(), spec)}


def test_pde_analytic_zero(golden):
    fn = AbstainValue(golden, golden.p_star)
    res = check_pde(fn, fn.strategy_pair(), SPEC)
    assert res.passed and res.worst < 1e-12


def test_pde_dynamic(golden):
    fn = DynamicValue(golden, 0.5)
    res = check_pde(fn, fn.strategy_pair(), SPEC)
    assert res.passed and res.worst < 1e-7


def test_pde_negative_control(golden):
    bad = PerturbedValue(DynamicValue(golden, 0.5), 1.01)
    res = check_pde(bad, bad.strategy_pair(), SPEC)
    assert not res.passed
    assert res.worst > 1e-4


def test_smooth_fit_dynamic(golden):
    results = _smooth_results(DynamicValue(golden, 1.0))
    assert results["own_derivative_on_trigger"].passed
    assert results["own_derivative_below_trigger"].passed
    assert results["opp_derivative_on_trigger"].passed
    assert results["opp_derivative_above_trigger"].note.startswith("void")


def test_smooth_fit_abstain_p_star(golden):
    results = _smooth_results(AbstainValue(golden, golden.p_star))
    assert all(r.passed for r in results.values())


def test_condition5_negative_control(golden):
    """Above the competitive threshold the own-derivative exceeds one."""
    results = _smooth_results(AbstainValue(golden, 1.1 * golden.p_star))
    cond5 = results["own_derivative_below_trigger"]
    assert not cond5.passed
    assert cond5.worst == pytest.approx(0.1, abs=1e-9)
    # at or below p* it holds
    ok = _smooth_results(AbstainValue(golden, 0.95 * golden.p_star))
    assert ok["own_derivative_below_trigger"].passed


def test_condition5_edge_margin(golden):
    """At the capital floor the own-derivative inequality binds with margin
    near zero: the trigger touches the interior maximizer of the derivative."""
    fn = DynamicValue(golden, 1.0)
    qf = fn.q_floor
    xb = fn.boundary.trigger(qf, qf)
    d_at = fn.partials(xb, qf, qf, ("qi",))["qi"]
    assert d_at == pytest.approx(1.0, abs=1e-14)
    d_in = fn.partials(0.995 * xb, qf, qf, ("qi",))["qi"]
    assert d_in <= 1.0 + 1e-9
    assert d_in > 1.0 - 5e-4


def test_propagation_identity(golden):
    for fn in (SoleInvestorValue(golden, 1.2 * golden.p_star),
               DynamicValue(golden, 0.5),
               AbstainValue(golden, golden.p_star)):
        res = check_derivative_propagation(fn, fn.strategy_pair(), SPEC)
        assert res.passed, (fn.kind, res.worst)


def test_transversality_decay(golden):
    cp = ConstantPriceBoundary(golden, golden.p_star)
    fn = AbstainValue(golden, golden.p_star)
    builder = lambda path: build_abstain_outcome((cp, cp), path, 1.0, 1.0, 1)
    res = check_transversality(fn, golden, builder, x0=2.0, horizon=8.0,
                               n_paths=100, dt=0.01, seed=3)
    assert res.passed
    est_T, est_2T = res.at
    assert est_2T < est_T


def test_transversality_single_build_matches_two_builds(golden):
    """Reading the T estimate off the 2T outcome gives the estimates of
    separate T and 2T builds, on the criterion-4 configuration."""
    for c in (0.5, 1.0):
        fn = DynamicValue(golden, c)
        dyn = fn.boundary
        q1 = dyn.q_floor + 0.2
        q2 = q1 + 0.2
        builder = lambda path: build_symmetric_outcome((dyn, dyn), path, q1, q2)
        x0, horizon, n_paths, dt, seed = 0.9 * dyn.trigger(q2, q2), 6.0, 80, 0.01, 53
        res = check_transversality(fn, golden, builder, x0=x0, horizon=horizon,
                                   n_paths=n_paths, dt=dt, seed=seed)
        for mult, est in zip((1, 2), res.at):
            total = 0.0
            for j in range(n_paths):
                path = generate_path(golden, x0, dt, mult * horizon, seed, j)
                out = builder(path)
                total += abs(fn.value(float(path.values[-1]), float(out.Q1[-1]),
                                      float(out.Q2[-1])))
            ref = math.exp(-golden.r * mult * horizon) * total / n_paths
            assert abs(est - ref) <= 1e-12 * abs(ref), (c, mult, est, ref)


def test_report_builds_each_path_once(golden, monkeypatch):
    """A report simulates and builds each side-condition path once: on the
    criterion-4 configuration the increment check, reading the first 20
    outcomes of the 2T transversality paths up to T, gives the `worst` and
    `at` of separate builds to T, and the transversality result equals
    check_transversality's."""
    import duopoly_invest.verify as verify

    for c in (0.5, 1.0):
        fn = DynamicValue(golden, c)
        dyn = fn.boundary
        q1 = dyn.q_floor + 0.2
        q2 = q1 + 0.2
        builder = lambda path: build_symmetric_outcome((dyn, dyn), path, q1, q2)
        sim = dict(builder=builder, x0=0.9 * dyn.trigger(q2, q2), horizon=6.0,
                   n_paths=80, dt=0.01, seed=53)
        calls = []
        counted = lambda *args: calls.append(args) or generate_path(*args)
        monkeypatch.setattr(verify, "generate_path", counted)
        rep = run_verification(fn, spec=GridSpec(nx=3, nq=2), simulation=sim)
        monkeypatch.undo()
        assert len(calls) == 80
        inc = rep.conditions["opponent_increment_derivative"]
        sep = check_opponent_increment_derivative(fn, golden, **{**sim, "n_paths": 20})
        assert (inc.worst, inc.at) == (sep.worst, sep.at), c
        assert inc.at  # some increments were checked
        tv = check_transversality(fn, golden, **sim)
        assert rep.conditions["transversality"].to_json() == tv.to_json()


def test_opponent_increment_derivative(golden):
    dyn = DynamicBoundary(golden, 1.0)
    fn = DynamicValue(golden, 1.0)
    qf = dyn.q_floor
    builder = lambda path: build_symmetric_outcome((dyn, dyn), path, qf, 1.2 * qf)
    res = check_opponent_increment_derivative(fn, golden, builder, x0=5.2,
                                              horizon=2.0, n_paths=10, dt=0.005,
                                              seed=5)
    assert res.passed
    assert res.worst < 1e-6


def test_full_report_json_shape(golden):
    fn = AbstainValue(golden, golden.p_star)
    rep = run_verification(fn, spec=SPEC)
    blob = rep.to_json()
    assert blob["all_pass"]
    for entry in blob["conditions"].values():
        assert set(entry) >= {"worst", "at", "pass"}
    # deterministic serialization
    assert rep.dumps() == rep.dumps()


def test_report_covers_all_conditions(golden):
    rep = run_verification(DynamicValue(golden, 0.5), spec=SPEC)
    assert {"pde_equality", "pde_inequality", "own_derivative_on_trigger",
            "opp_derivative_above_trigger", "own_derivative_below_trigger",
            "opp_derivative_on_trigger",
            "derivative_propagation"} <= set(rep.conditions)
    assert rep.all_pass


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_worst_refuses_non_finite_metric(bad):
    """A NaN compares False with every bound and an inf is no measurement:
    _Worst raises OverflowError for either, alone or inside an array."""
    for metric, x in ((bad, 1.0), (np.array([0.5, bad, 2.0]), np.array([1.0, 2.0, 3.0]))):
        worst = _Worst()
        with pytest.raises(OverflowError, match="non-finite"):
            worst.add(metric, x, 1.0, 2.0)
        assert worst.value == -math.inf
