import json
import math

import numpy as np
import pytest

from duopoly_invest.boundaries import ConstantPriceBoundary, DynamicBoundary
from duopoly_invest.errors import UsageError
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
    _discounted_max_moment,
    _Worst,
    check_pde,
    run_verification,
)

SPEC = GridSpec(nx=12, nq=7)


@pytest.fixture(scope="module")
def golden():
    return derive_params(1.0, 0.0, math.sqrt(2.0), 1.5)


def _smooth_results(value_fn, spec=SPEC):
    """Conditions 2, 3, 5 and 6 of the report."""
    names = ("own_derivative_on_trigger", "opp_derivative_above_trigger",
             "own_derivative_below_trigger", "opp_derivative_on_trigger")
    conditions = run_verification(value_fn, spec=spec).conditions
    return {name: conditions[name] for name in names}


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
    d_at = fn.evaluate(xb, qf, qf)["qi"]
    assert d_at == pytest.approx(1.0, abs=1e-14)
    d_in = fn.evaluate(0.995 * xb, qf, qf)["qi"]
    assert d_in <= 1.0 + 1e-9
    assert d_in > 1.0 - 5e-4


def test_propagation_identity(golden):
    for fn in (SoleInvestorValue(golden, 1.2 * golden.p_star),
               DynamicValue(golden, 0.5),
               AbstainValue(golden, golden.p_star)):
        res = run_verification(fn, spec=SPEC).conditions["derivative_propagation"]
        assert res.passed, (fn.kind, res.worst)


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_propagation_solves_phi_once_per_point(golden, monkeypatch, c):
    """Each propagation point solves for the paste point once, inside V_qmi
    above the trigger, which hands it back for the branch's side.  The
    branch's side is evaluated at or below its own trigger, so rounding
    never pastes it again, and no other condition of the report solves phi
    on a symmetric pair.  A call solves every point of its array of shock
    levels, so the points are counted, not the calls."""
    fn = DynamicValue(golden, c)
    solve, calls = DynamicBoundary.base_capacity, []
    monkeypatch.setattr(DynamicBoundary, "base_capacity",
                        lambda self, x, q_mi: calls.append(x) or solve(self, x, q_mi))
    res = run_verification(fn, spec=SPEC).conditions["derivative_propagation"]
    assert res.passed, res.worst
    assert sum(np.size(x) for x in calls) == 3 * len(SPEC.capital_pairs(fn.strategy_pair()))


def _criterion4_sim(params, c, seed=53, n_paths=80):
    """DynamicValue(c) and the criterion-4 simulation setup of its report."""
    fn = DynamicValue(params, c)
    dyn = fn.boundary
    q1 = dyn.q_floor + 0.2 if c > 0 else 1.0
    q2 = q1 + 0.2
    builder = lambda path: build_symmetric_outcome((dyn, dyn), path, q1, q2)
    return fn, dict(builder=builder, x0=0.9 * dyn.trigger(q2, q2), horizon=6.0,
                    n_paths=n_paths, dt=0.01, seed=seed)


def _abstain_sim(params):
    """AbstainValue at p_star and the criterion-4 simulation setup of its report."""
    cp = ConstantPriceBoundary(params, params.p_star)
    builder = lambda path: build_abstain_outcome((cp, cp), path, 1.0, 1.0, 1)
    return AbstainValue(params, params.p_star), dict(builder=builder, x0=2.0, horizon=8.0,
                                                     n_paths=120, dt=0.01, seed=97)


@pytest.mark.parametrize("mu, sigma", [(0.0, math.sqrt(2.0)),   # nu < 0
                                       (0.3, 0.5),               # nu > 0
                                       (-0.5, math.sqrt(2.0))])  # gamma + 2 nu/sigma^2 = 0
@pytest.mark.parametrize("t", [0.5, 6.0, 12.0])
def test_discounted_max_moment_matches_quadrature(mu, sigma, t):
    """e^{-rt} E[e^{gamma m_t}] against quadrature of the survival function
    of the running maximum: E[e^{gamma m}] = 1 + gamma int e^{gamma y} P(m > y) dy."""
    from scipy import integrate
    from scipy.stats import norm

    pr = derive_params(1.0, mu, sigma, 1.5)
    nu, s = mu - 0.5 * sigma ** 2, sigma * math.sqrt(t)

    def integrand(y):
        surv = norm.sf((y - nu * t) / s) + math.exp(2 * nu * y / sigma ** 2) * norm.sf((y + nu * t) / s)
        return math.exp(pr.gamma * y - pr.r * t) * surv

    top = max(nu * t, 0.0) + 40.0 * s
    tail, _ = integrate.quad(integrand, 0.0, top, points=[top - 39.0 * s],
                             epsabs=0.0, epsrel=1e-13, limit=400)
    ref = math.exp(-pr.r * t) + pr.gamma * tail
    assert _discounted_max_moment(pr, t) == pytest.approx(ref, rel=1e-10)


def test_transversality_decay(golden, monkeypatch):
    """The bound decays from T to 2T, and the abstain report builds only its
    first path: the increment check is void, and the bound needs only the
    initial capitals."""
    import duopoly_invest.verify as verify

    fn, sim = _abstain_sim(golden)
    calls = []
    counted = lambda *args: calls.append(args) or generate_path(*args)
    monkeypatch.setattr(verify, "generate_path", counted)
    res = run_verification(fn, spec=SPEC, simulation=sim).conditions["transversality"]
    assert res.passed and res.tol == 1.0 and 0.0 < res.worst <= 1.0
    bound_T, bound_2T = res.at
    assert math.isfinite(bound_T) and 0.0 < bound_2T < bound_T
    assert [args[3] for args in calls] == [8.0]


def test_transversality_bound_exceeds_monte_carlo(golden):
    """On every criterion-4 configuration the bound at T lies above a
    2,000-path Monte Carlo mean of e^{-rT} |V(X_T, Q_T)| plus three standard
    errors."""
    configs = [_abstain_sim(golden)] + [_criterion4_sim(golden, c) for c in (0.0, 0.5, 1.0)]
    for fn, sim in configs:
        bound_T = run_verification(fn, spec=GridSpec(nx=3, nq=2),
                                   simulation=sim).conditions["transversality"].at[0]
        vals = np.empty(2000)
        for j in range(len(vals)):
            out = sim["builder"](generate_path(golden, sim["x0"], sim["dt"], sim["horizon"], 11, j))
            vals[j] = abs(fn.value(float(out.path.values[-1]), float(out.Q1[-1]),
                                   float(out.Q2[-1])))
        vals *= math.exp(-golden.r * sim["horizon"])
        mc = vals.mean() + 3.0 * vals.std(ddof=1) / math.sqrt(len(vals))
        assert bound_T >= mc, (fn.kind, bound_T, mc)


def test_transversality_is_seed_independent(golden):
    spec = GridSpec(nx=3, nq=2)
    for c in (0.0, 0.5, 1.0):
        blobs = {json.dumps(run_verification(fn, spec=spec, simulation=sim)
                            .conditions["transversality"].to_json())
                 for fn, sim in (_criterion4_sim(golden, c, seed=seed, n_paths=2)
                                 for seed in (53, 7, 11))}
        assert len(blobs) == 1, c


def test_transversality_negative_control(golden):
    """Scaling the option term by 100 breaks the bound's hypothesis
    |V| <= a (1 + q_i + q_mi)."""
    fn, sim = _criterion4_sim(golden, 0.5, n_paths=1)
    bad = PerturbedValue(fn, 100.0)
    res = run_verification(bad, spec=SPEC, simulation=sim).conditions["transversality"]
    assert not res.passed and res.worst > 1.0


def test_side_conditions_need_a_path(golden):
    fn, sim = _abstain_sim(golden)
    with pytest.raises(UsageError, match="n_paths >= 1"):
        run_verification(fn, spec=SPEC, simulation={**sim, "n_paths": 0})


def test_report_builds_each_path_once(golden, monkeypatch):
    """A report simulates and builds each of its n_paths side-condition
    paths once, to T, and reads increments on them all."""
    import duopoly_invest.verify as verify

    for c in (0.5, 1.0):
        fn, sim = _criterion4_sim(golden, c)
        calls = []
        counted = lambda *args: calls.append(args) or generate_path(*args)
        monkeypatch.setattr(verify, "generate_path", counted)
        rep = run_verification(fn, spec=GridSpec(nx=3, nq=2), simulation=sim)
        monkeypatch.undo()
        assert [(args[3], args[5]) for args in calls] == [(6.0, j) for j in range(80)]
        assert rep.conditions["opponent_increment_derivative"].at  # increments were checked


def test_opponent_increment_derivative(golden):
    dyn = DynamicBoundary(golden, 1.0)
    fn = DynamicValue(golden, 1.0)
    qf = dyn.q_floor
    builder = lambda path: build_symmetric_outcome((dyn, dyn), path, qf, 1.2 * qf)
    rep = run_verification(fn, spec=GridSpec(nx=3, nq=2),
                           simulation=dict(builder=builder, x0=5.2, horizon=2.0,
                                           n_paths=10, dt=0.005, seed=5))
    res = rep.conditions["opponent_increment_derivative"]
    assert res.passed
    assert res.worst < 1e-6


def _checked_increments(fn, outcomes, monkeypatch):
    """The states (x, q_1, q_2) at which the increment check evaluates V_qmi,
    and its verdict."""
    import duopoly_invest.verify as verify

    states, real = [], type(fn).evaluate

    def captured(self, x, q_i, q_mi):
        states.append(np.stack(np.broadcast_arrays(x, q_i, q_mi), axis=-1))
        return real(self, x, q_i, q_mi)

    monkeypatch.setattr(type(fn), "evaluate", captured)
    res = verify._increment_derivative(fn, outcomes)
    monkeypatch.undo()
    return np.concatenate(states), res


def _increment_indices(out):
    """Grid-knot indices of the opponent's increments after t = 0."""
    k2 = out.K2
    return np.nonzero(np.diff(k2) > 1e-12 * (1.0 + k2[1:]))[0] + 1


def test_increment_check_reads_the_opening_jump(golden, monkeypatch):
    """Started above the symmetric trigger, the opponent jumps at t = 0, and
    the check evaluates V_qmi at the state after that jump."""
    fn = DynamicValue(golden, 1.0)
    dyn = fn.boundary
    q1 = dyn.q_floor + 0.2
    q2 = q1 + 0.2
    x0 = 1.5 * dyn.trigger(q2, q2)
    out = build_symmetric_outcome((dyn, dyn), generate_path(golden, x0, 0.01, 1.0, 7), q1, q2)
    assert out.K2[0] > q2
    states, res = _checked_increments(fn, [out], monkeypatch)
    jump = [x0, out.K1[0], out.K2[0]]
    assert any(np.array_equal(state, jump) for state in states)
    assert len(states) == len(_increment_indices(out)) + 1 and res.passed


def test_increment_check_subsamples_long_paths(golden, monkeypatch):
    """A path with more increments than _MAX_INCREMENTS is checked at exactly
    that many of them, its first and last increments among them."""
    import duopoly_invest.verify as verify

    fn = DynamicValue(golden, 1.0)
    dyn = fn.boundary
    q1 = dyn.q_floor + 0.2
    q2 = q1 + 0.2
    path = generate_path(golden, 0.9 * dyn.trigger(q2, q2), 1e-4, 20.0, 7, 1)
    out = build_symmetric_outcome((dyn, dyn), path, q1, q2)
    idx = _increment_indices(out)
    assert len(idx) > verify._MAX_INCREMENTS and out.K2[0] == q2
    states, res = _checked_increments(fn, [out], monkeypatch)
    assert len(states) == verify._MAX_INCREMENTS and res.passed
    for k in (idx[0], idx[-1]):
        state = [path.values[out.knots[k]], out.K1[k], out.K2[k]]
        assert any(np.array_equal(row, state) for row in states)


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


def test_pde_inequality_checks_the_strip_between_the_triggers(golden):
    """Against a 2 p* constant-price opponent the c = 0.5 trigger is the
    lower one, and the strip between the triggers holds the pasted
    continuation.  The check's residual there matches one built from
    central differences of the value (x V_x and x**2 V_xx).  The value is
    the symmetric pair's, not one for this pair, and the check fails."""
    fn = DynamicValue(golden, 0.5)
    pair = (fn.boundary, ConstantPriceBoundary(golden, 2.0 * golden.p_star))
    res = run_verification(fn, pair, SPEC).conditions["pde_inequality"]
    assert res.note == "" and not res.passed
    x, q_i, q_mi = res.at
    assert fn.boundary.trigger(q_i, q_mi) < x <= pair[1].trigger(q_mi, q_i)

    def value(level):
        return fn.value(level, q_i, q_mi)

    h = 1e-3 * x
    v = value(x)
    x_vx = x * (value(x + h) - value(x - h)) / (2.0 * h)
    x2_vxx = x * x * (value(x + h) - 2.0 * v + value(x - h)) / h ** 2
    profit = golden.profit_flow(x, q_i, q_mi)
    resid = (-golden.r * v + profit + golden.mu * x_vx
             + 0.5 * golden.sigma ** 2 * x2_vxx) / (golden.r * abs(v) + 1.0)
    assert res.worst == pytest.approx(resid, rel=1e-5)


def _default_kinds(golden):
    return [DynamicValue(golden, c) for c in (0.0, 0.5, 1.0)] + [
        AbstainValue(golden, golden.p_star), SoleInvestorValue(golden, 1.2 * golden.p_star),
        PerturbedValue(DynamicValue(golden, 0.5), 1.01)]


def test_pde_inequality_void_on_the_default_reports(golden):
    """The six default reports have no state between the triggers: their
    pairs are symmetric, or the own trigger is infinite."""
    for fn in _default_kinds(golden):
        res = run_verification(fn, spec=SPEC).conditions["pde_inequality"]
        assert res.passed and res.note == "void: no state between the triggers", fn.kind


def test_report_evaluates_the_below_grid_once(golden, monkeypatch):
    """pde_equality, own_derivative_below_trigger and the transversality
    hypothesis read one evaluation of the grid below both triggers: one
    evaluate call of nx levels per capital pair per block of _CHECK_PAIRS
    capital pairs."""
    import duopoly_invest.verify as verify

    for fn, sim in (_criterion4_sim(golden, 0.5, n_paths=2), _abstain_sim(golden)):
        calls, real = [], type(fn).evaluate

        def counted(self, x, q_i, q_mi):
            if np.ndim(x) == 2 and np.shape(x)[1] == SPEC.nx:
                calls.append(np.shape(x))
            return real(self, x, q_i, q_mi)

        monkeypatch.setattr(type(fn), "evaluate", counted)
        run_verification(fn, spec=SPEC, simulation=sim)
        monkeypatch.undo()
        blocks = list(SPEC.pair_blocks(fn.strategy_pair()))
        assert len(calls) == len(blocks) == -(-len(SPEC.capital_pairs(fn.strategy_pair()))
                                               // verify._CHECK_PAIRS)


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_report_reads_conditions_2_and_6_from_one_call(golden, monkeypatch, c):
    """A default-grid report makes four evaluate calls per block of
    _CHECK_PAIRS capital pairs: the grid below both triggers, the own
    trigger (conditions 2 and 6 together), and the propagation identity's
    two sides, whose first also gives condition 2 above the trigger.  The
    400 pairs are four blocks."""
    import duopoly_invest.verify as verify

    fn, spec = DynamicValue(golden, c), GridSpec()
    calls, real = [], DynamicValue.evaluate
    monkeypatch.setattr(DynamicValue, "evaluate",
                        lambda self, x, q_i, q_mi: calls.append(np.shape(x))
                        or real(self, x, q_i, q_mi))
    rep = run_verification(fn, spec=spec)
    assert rep.all_pass
    pairs = len(spec.capital_pairs(fn.strategy_pair()))
    blocks = -(-pairs // verify._CHECK_PAIRS)
    assert (pairs, blocks) == (400, 4)
    assert len(calls) == 4 * blocks == 16
    assert calls.count((verify._CHECK_PAIRS, 1)) == blocks - 1


def test_report_walks_the_pair_blocks_once(golden, monkeypatch):
    """One report walks the capital pair blocks once: every grid condition,
    the propagation identity and the transversality hypothesis read the
    same walk."""
    walks, real = [], GridSpec.pair_blocks
    monkeypatch.setattr(GridSpec, "pair_blocks",
                        lambda self, pair: walks.append(pair) or real(self, pair))
    for fn, sim in (_criterion4_sim(golden, 0.5, n_paths=2), _abstain_sim(golden)):
        walks.clear()
        rep = run_verification(fn, spec=SPEC, simulation=sim)
        assert len(walks) == 1 and "transversality" in rep.conditions, fn.kind
