import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duopoly_invest import boundaries
from duopoly_invest.boundaries import (
    ConstantPriceBoundary,
    DynamicBoundary,
    InfiniteBoundary,
    _reference_base_capacity,
)
from duopoly_invest.errors import (
    BelowFloorError,
    InvalidSplitError,
    KindMismatchError,
)
from duopoly_invest.model import derive_params
from duopoly_invest.outcomes import (
    build_abstain_outcome,
    build_aggregate_split,
    build_joint_outcome,
    build_symmetric_outcome,
    catch_up_report,
    check_consistency,
    discount_identity_defect,
    discounted_cost,
    payoff,
)
from duopoly_invest.paths import ShockPath, generate_path, running_sup


@pytest.fixture(scope="module")
def golden():
    return derive_params(1.0, 0.0, math.sqrt(2.0), 1.5)


@pytest.fixture(scope="module")
def cp(golden):
    return ConstantPriceBoundary(golden, golden.p_star)


def _path(params, x0=2.0, dt=1e-3, T=4.0, seed=100, j=0):
    return generate_path(params, x0, dt, T, seed, j)


def _flat_path(params, x0, dt=0.01, T=2.0):
    """Deterministic constant path for edge cases."""
    n = int(round(T / dt))
    values = np.full(n + 1, x0)
    return ShockPath(x0=x0, dt=dt, horizon=T, values=values, seed=0, path_index=0)


# ---------------------------------------------------------------------------
# abstain construction
# ---------------------------------------------------------------------------

def test_abstain_no_crossing_is_constant(golden, cp):
    path = _flat_path(golden, x0=0.5 * cp.trigger(1.0, 1.0))
    out = build_abstain_outcome((cp, cp), path, 1.0, 1.0, abstaining_firm=1)
    assert np.all(out.Q1 == 1.0)
    assert np.all(out.Q2 == 1.0)


def test_abstain_closed_form(golden, cp):
    path = _path(golden, x0=3.0, seed=7)
    out = build_abstain_outcome((cp, cp), path, 0.7, 0.5, abstaining_firm=1)
    sup_x = running_sup(path.values)
    expected = np.maximum(0.5, (sup_x / cp.p) ** golden.gamma - 0.7)
    assert np.array_equal(out.Q2, expected)
    assert np.all(out.Q1 == 0.7)
    assert np.all(np.diff(out.Q2) >= 0.0)


def test_abstain_aggregate_law(golden, cp):
    """Q1 + Q2 = (q1+q2) v sup (X/p)**gamma, up to float rounding."""
    for seed in range(5):
        path = _path(golden, x0=2.5, seed=40 + seed, T=2.0)
        out = build_abstain_outcome((cp, cp), path, 1.0, 1.0, abstaining_firm=2)
        sup_x = running_sup(path.values)
        agg = np.maximum(2.0, (sup_x / cp.p) ** golden.gamma)
        assert np.max(np.abs(out.Q1 + out.Q2 - agg)) <= 1e-13 * np.max(1.0 + agg)


def test_abstain_consistency_both_firms(golden, cp):
    path = _path(golden, x0=3.0, seed=3)
    out = build_abstain_outcome((cp, cp), path, 1.0, 0.8, abstaining_firm=1)
    rep_inv = check_consistency(out, cp, firm=2)
    assert rep_inv.max_deviation < 1e-12
    assert rep_inv.support_violations == 0
    assert rep_inv.containment_excess <= 1e-9
    rep_abs = check_consistency(out, InfiniteBoundary(golden), firm=1)
    assert rep_abs.max_deviation == 0.0


def test_abstain_consistent_with_higher_own_trigger(golden, cp):
    """The abstainer's path is consistent with any own boundary that sits
    at or above the opponent's."""
    path = _path(golden, x0=3.0, seed=13)
    out = build_abstain_outcome((cp, cp), path, 1.0, 1.0, abstaining_firm=1)
    for own in (ConstantPriceBoundary(golden, 1.5 * golden.p_star),
                InfiniteBoundary(golden)):
        rep = check_consistency(out, own, firm=1)
        assert rep.max_deviation == 0.0
        assert rep.support_violations == 0


def test_abstain_kind_mismatch(golden, cp):
    dyn = DynamicBoundary(golden, 1.0)
    path = _path(golden, T=0.1)
    with pytest.raises(KindMismatchError):
        build_abstain_outcome((cp, dyn), path, 1.0, 1.0, 1)


def test_corrupted_outcome_flagged(golden, cp):
    path = _path(golden, x0=3.0, seed=3)
    out = build_abstain_outcome((cp, cp), path, 1.0, 0.8, abstaining_firm=1)
    q2 = out.Q2.copy()
    k = len(q2) // 2
    q2[k] += 0.1
    bad = type(out)(out.path, out.Q1, q2, out.q1_0, out.q2_0, out.construction)
    rep = check_consistency(bad, cp, firm=2)
    assert rep.max_deviation > 1e-3
    assert rep.worst_index == k


# ---------------------------------------------------------------------------
# symmetric catch-up construction
# ---------------------------------------------------------------------------

def test_symmetric_constant_when_below(golden):
    dyn = DynamicBoundary(golden, 1.0)
    qf = dyn.q_floor
    path = _flat_path(golden, x0=0.9 * dyn.trigger(qf, 1.2 * qf))
    out = build_symmetric_outcome((dyn, dyn), path, qf, 1.2 * qf)
    assert np.all(out.Q1 == qf)
    assert np.all(out.Q2 == 1.2 * qf)


def test_symmetric_catch_up_structure(golden):
    dyn = DynamicBoundary(golden, 1.0)
    qf = dyn.q_floor
    q1, q2 = qf, 1.3 * qf
    hits = 0
    for seed in range(12):
        path = _path(golden, x0=5.0, dt=1e-3, T=3.0, seed=900 + seed)
        out = build_symmetric_outcome((dyn, dyn), path, q1, q2)
        rep = catch_up_report(dyn, out)
        assert rep["larger_constant_before"]
        assert rep["max_gap_after"] == 0.0
        if rep["tau_index"] < len(path.values):
            hits += 1
        for firm, b in ((1, dyn), (2, dyn)):
            c = check_consistency(out, b, firm)
            assert c.max_deviation < 1e-9
            assert c.support_violations == 0
    assert hits >= 6  # the catch-up time is interior on most of these paths


def _symmetric_cases(params, dyn, n_paths):
    """Random paths and initial stocks, with equal stocks, a stock at the
    floor and a path whose maximum is at t = 0 among them."""
    rng = np.random.default_rng(29)
    qf = dyn.q_floor
    cases = []
    for j in range(n_paths):
        path = generate_path(params, rng.uniform(0.5, 8.0), 0.01, 2.0, 31, j)
        q1, q2 = qf + rng.uniform(0.0, 1.0, 2)
        cases.append((path, q1, q2))
    cases[0] = (cases[0][0], cases[0][1], cases[0][1])
    cases[1] = (cases[1][0], qf, cases[1][2])
    x0 = 1.5 * dyn.trigger(1.3 * qf, 1.3 * qf)
    falling = ShockPath(x0=x0, dt=0.01, horizon=1.0,
                        values=x0 * np.exp(-np.linspace(0.0, 1.0, 101)), seed=0, path_index=0)
    cases[2] = (falling, qf, 1.3 * qf)
    return cases


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_symmetric_records_match_full_path(golden, c):
    """Roots solved at the running-max records give the full-path running
    supremum of min(phi, psi), and the catch-up structure holds exactly."""
    dyn = DynamicBoundary(golden, c)
    for path, q1, q2 in _symmetric_cases(golden, dyn, 200):
        out = build_symmetric_outcome((dyn, dyn), path, q1, q2)
        psi = dyn.symmetric_base_capacity(path.values)
        for q, q_own, q_opp in ((out.Q1, q1, q2), (out.Q2, q2, q1)):
            ref = np.maximum(q_own, running_sup(np.minimum(
                dyn.base_capacity(path.values, q_opp), psi)))
            assert np.all(np.abs(q - ref) <= 1e-12 * (1.0 + ref))
        rep = catch_up_report(dyn, out)
        reached = np.nonzero(psi >= max(q1, q2))[0]
        assert rep["tau_index"] == (reached[0] if len(reached) else len(psi))
        assert rep["larger_constant_before"]
        assert rep["max_gap_after"] == 0.0


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_record_builders_match_reference_bisection(golden, c):
    """The Newton roots at the running-max records stay within
    1e-12 * (1 + Q) of the full-path construction by the reference
    bisection, for the symmetric and the one-mover joint outcomes, and
    check_consistency, which re-derives capital by bisection, sees a
    deviation below 1e-9."""
    dyn = DynamicBoundary(golden, c)
    inf = InfiniteBoundary(golden)
    for path, q1, q2 in _symmetric_cases(golden, dyn, 60):
        x = path.values
        psi = _reference_base_capacity(dyn, x)
        out = build_symmetric_outcome((dyn, dyn), path, q1, q2)
        for q, q_own, q_opp in ((out.Q1, q1, q2), (out.Q2, q2, q1)):
            ref = np.maximum(q_own, running_sup(np.minimum(
                _reference_base_capacity(dyn, x, q_opp), psi)))
            assert np.all(np.abs(q - ref) <= 1e-12 * (1.0 + ref))
        for firm in (1, 2):
            assert check_consistency(out, dyn, firm).max_deviation < 1e-9
        for b1, firm, q_mover, q_frozen in ((dyn, 1, q1, q2), (inf, 2, q2, q1)):
            out = build_joint_outcome(b1, dyn, path, q1, q2)
            ref = np.maximum(q_mover, running_sup(_reference_base_capacity(dyn, x, q_frozen)))
            q = out.capital(firm)
            assert np.all(np.abs(q - ref) <= 1e-12 * (1.0 + ref))
            assert check_consistency(out, dyn, firm).max_deviation < 1e-9


def test_catch_up_roots_take_at_most_12_newton_sweeps(golden, monkeypatch):
    """Cost guard: on catch-up paths (c = 1, x0 = 5, q = (q_floor,
    1.3 q_floor), dt = 1e-3, T = 3) no root needs more than 12 Newton
    sweeps; with the iteration cap at 12 a slower root would raise."""
    monkeypatch.setattr(boundaries, "_NEWTON_MAX_ITER", 12)
    dyn = DynamicBoundary(golden, 1.0)
    qf = dyn.q_floor
    for j in range(40):
        path = generate_path(golden, 5.0, 1e-3, 3.0, 4242, j)
        out = build_symmetric_outcome((dyn, dyn), path, qf, 1.3 * qf)
        catch_up_report(dyn, out)


def test_symmetric_c0_aggregate_matches_abstain(golden, cp):
    d0 = DynamicBoundary(golden, 0.0)
    path = _path(golden, x0=3.0, seed=71, T=2.0)
    sym = build_symmetric_outcome((d0, d0), path, 1.0, 1.0)
    ab = build_abstain_outcome((cp, cp), path, 1.0, 1.0, abstaining_firm=1)
    assert np.max(np.abs((sym.Q1 + sym.Q2) - (ab.Q1 + ab.Q2))) < 1e-10


def test_symmetric_floor_enforced(golden):
    dyn = DynamicBoundary(golden, 1.0)
    path = _path(golden, T=0.1)
    with pytest.raises(BelowFloorError):
        build_symmetric_outcome((dyn, dyn), path, 0.1, 1.0)


# ---------------------------------------------------------------------------
# aggregate splits
# ---------------------------------------------------------------------------

def test_split_reproduces_abstain(golden, cp):
    path = _path(golden, x0=3.0, seed=5, T=2.0)
    ab = build_abstain_outcome((cp, cp), path, 1.0, 1.0, abstaining_firm=2)
    sp = build_aggregate_split((cp, cp), path, 1.0, 1.0, weights=(1.0, 0.0))
    assert np.allclose(sp.Q1, ab.Q1, atol=1e-13)
    assert np.allclose(sp.Q2, ab.Q2, atol=1e-13)
    mirror = build_aggregate_split((cp, cp), path, 1.0, 1.0, weights=(0.0, 1.0))
    ab1 = build_abstain_outcome((cp, cp), path, 1.0, 1.0, abstaining_firm=1)
    assert np.allclose(mirror.Q2, ab1.Q2, atol=1e-13)


def test_even_split_consistent(golden, cp):
    path = _path(golden, x0=3.0, seed=6, T=2.0)
    sp = build_aggregate_split((cp, cp), path, 1.0, 1.0, weights=(0.5, 0.5))
    for firm in (1, 2):
        rep = check_consistency(sp, cp, firm)
        assert rep.max_deviation < 1e-12
        assert rep.support_violations == 0
        assert np.all(np.diff(sp.capital(firm)) >= 0.0)


def test_invalid_split_rejected(golden, cp):
    path = _path(golden, T=0.1)
    for weights in ((-0.1, 1.1), (0.7, 0.7), (1.0,)):
        with pytest.raises(InvalidSplitError):
            build_aggregate_split((cp, cp), path, 1.0, 1.0, weights)


@settings(max_examples=30, deadline=None)
@given(w=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_split_preserves_aggregate(w, seed):
    golden = derive_params(1.0, 0.0, math.sqrt(2.0), 1.5)
    cp = ConstantPriceBoundary(golden, golden.p_star)
    path = generate_path(golden, 3.0, 0.01, 1.0, seed)
    sp = build_aggregate_split((cp, cp), path, 1.0, 1.0, weights=(w, 1.0 - w))
    sup_x = running_sup(path.values)
    agg = np.maximum(2.0, (sup_x / cp.p) ** golden.gamma)
    assert np.max(np.abs(sp.Q1 + sp.Q2 - agg)) <= 1e-12 * np.max(1.0 + agg)
    assert np.all(np.diff(sp.Q1) >= 0.0)
    assert np.all(np.diff(sp.Q2) >= 0.0)


# ---------------------------------------------------------------------------
# joint sequential construction
# ---------------------------------------------------------------------------

def test_joint_equal_boundaries_firm1_invests(golden, cp):
    path = _path(golden, x0=3.0, seed=8, T=2.0)
    out = build_joint_outcome(cp, cp, path, 1.0, 1.0)
    assert np.all(out.Q2 == 1.0)
    sup_x = running_sup(path.values)
    assert np.allclose(out.Q1, np.maximum(1.0, (sup_x / cp.p) ** golden.gamma - 1.0))


def test_joint_closed_form_matches_loop(golden):
    """Every fast path agrees with the per-step loop."""
    from duopoly_invest.outcomes import _joint_closed_form

    dyn = DynamicBoundary(golden, 1.0)
    cases = [
        (ConstantPriceBoundary(golden, 0.9 * golden.p_star),
         ConstantPriceBoundary(golden, golden.p_star), 1.0, 1.0),
        (ConstantPriceBoundary(golden, 0.9 * golden.p_star), dyn, 1.0, 1.0),
        (InfiniteBoundary(golden),
         ConstantPriceBoundary(golden, golden.p_star), 1.0, 1.0),
        (dyn, DynamicBoundary(golden, 1.0), dyn.q_floor, 1.2 * dyn.q_floor),
    ]
    for b1, b2, q1_0, q2_0 in cases:
        path = _path(golden, x0=3.0, seed=9, dt=0.01, T=1.5)
        fast = _joint_closed_form(b1, b2, path, q1_0, q2_0)
        assert fast is not None
        n = len(path.values)
        Q1 = np.empty(n)
        Q2 = np.empty(n)
        q1, q2 = q1_0, q2_0
        for k, x in enumerate(path.values):
            q1 = max(q1, b1.base_capacity(float(x), q2))
            q2 = max(q2, b2.base_capacity(float(x), q1))
            Q1[k], Q2[k] = q1, q2
        assert np.max(np.abs(fast.Q1 - Q1)) < 1e-10
        assert np.max(np.abs(fast.Q2 - Q2)) < 1e-10


def test_joint_loop_general_pair(golden):
    """Deviant with a higher threshold: the loop path runs and both firms
    stay inside their regions."""
    b1 = ConstantPriceBoundary(golden, 1.2 * golden.p_star)
    b2 = ConstantPriceBoundary(golden, golden.p_star)
    path = _path(golden, x0=3.0, seed=10, dt=0.01, T=1.5)
    out = build_joint_outcome(b1, b2, path, 1.0, 1.0)
    assert np.all(np.diff(out.Q1) >= 0.0)
    assert np.all(np.diff(out.Q2) >= 0.0)
    trig2 = b2.trigger(out.Q2, out.Q1)
    assert np.max(path.values - trig2) <= 1e-9


# ---------------------------------------------------------------------------
# discounted accumulators
# ---------------------------------------------------------------------------

def test_initial_jump_full_weight(golden, cp):
    x0 = 2.0 * cp.trigger(1.0, 1.0)
    path = _flat_path(golden, x0=x0)
    out = build_abstain_outcome((cp, cp), path, 1.0, 1.0, abstaining_firm=1)
    jump = (x0 / cp.p) ** golden.gamma - 1.0 - 1.0
    assert out.Q2[0] == pytest.approx(1.0 + jump, rel=1e-12)
    assert discounted_cost(golden, out, 2) == pytest.approx(jump, rel=1e-12)


def test_discount_identity(golden, cp):
    for seed in range(4):
        path = _path(golden, x0=3.0, seed=60 + seed, T=3.0)
        out = build_abstain_outcome((cp, cp), path, 1.0, 1.0, abstaining_firm=1)
        defect = discount_identity_defect(golden, out, 2)
        assert defect < 5.0 * path.dt * golden.r * np.max(out.Q2)


def test_frozen_firm_payoff_is_perpetuity(golden):
    """With nobody investing, the payoff is the discounted profit annuity."""
    inf = InfiniteBoundary(golden)
    x0 = 1.0
    path = _flat_path(golden, x0=x0, dt=1e-4, T=30.0)
    out = build_joint_outcome(inf, inf, path, 1.0, 1.0)
    got = payoff(golden, out, 1)
    flow = golden.profit_flow(x0, 1.0, 1.0)
    expected = flow / golden.r * (1.0 - math.exp(-golden.r * 30.0))
    assert got == pytest.approx(expected, rel=1e-6)
