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
)
from duopoly_invest.errors import (
    BelowFloorError,
    InvalidSplitError,
    KindMismatchError,
)
from duopoly_invest.model import derive_params
from duopoly_invest.outcomes import (
    _records,
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
from duopoly_invest.paths import ShockPath, generate_path, generate_paths, running_sup


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


def test_infinite_boundary_flags_its_firms_investment(golden, cp):
    """Under an infinite trigger any increment of the firm's capital lies
    off its trigger: the investor of an abstain outcome checked against the
    never-invest boundary shows one support violation per increment."""
    path = _path(golden, x0=3.0, seed=3)
    out = build_abstain_outcome((cp, cp), path, 1.0, 0.8, abstaining_firm=1)
    increments = int(np.count_nonzero(np.diff(out.Q2) > 1e-12 * (1.0 + out.Q2[1:])))
    assert increments > 0
    rep = check_consistency(out, InfiniteBoundary(golden), firm=2)
    assert rep.containment_excess == -math.inf
    assert rep.support_violations == increments
    assert not rep.consistent


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
def test_record_builders_match_brentq_reference(golden, brentq_inverse, c):
    """The Newton roots at the running-max records stay within
    1e-12 * max(1, Q) of the full-path construction by brentq's inverse,
    for the symmetric and the one-mover joint outcomes, and
    check_consistency, which re-derives capital by its own bisection, sees
    a deviation below 1e-9.  The inverses rise in x, so at every grid point
    they are taken at the running maximum M of the shock, where brentq
    solves one root per distinct level."""
    dyn = DynamicBoundary(golden, c)
    inf = InfiniteBoundary(golden)
    for path, q1, q2 in _symmetric_cases(golden, dyn, 60):
        m = running_sup(path.values)
        psi = brentq_inverse(dyn, m)
        out = build_symmetric_outcome((dyn, dyn), path, q1, q2)
        for q, q_own, q_opp in ((out.Q1, q1, q2), (out.Q2, q2, q1)):
            ref = np.maximum(q_own, running_sup(np.minimum(brentq_inverse(dyn, m, q_opp), psi)))
            assert np.all(np.abs(q - ref) <= 1e-12 * np.maximum(1.0, ref))
        for firm in (1, 2):
            assert check_consistency(out, dyn, firm).max_deviation < 1e-9
        for b1, firm, q_mover, q_frozen in ((dyn, 1, q1, q2), (inf, 2, q2, q1)):
            out = build_joint_outcome(b1, dyn, path, q1, q2)
            ref = np.maximum(q_mover, running_sup(brentq_inverse(dyn, m, q_frozen)))
            q = out.capital(firm)
            assert np.all(np.abs(q - ref) <= 1e-12 * np.maximum(1.0, ref))
            assert check_consistency(out, dyn, firm).max_deviation < 1e-9


def test_consistency_flags_a_small_capital_change_after_catch_up(golden):
    """On a c = 1 catch-up outcome, check_consistency re-derives capital by
    its bisection against the opponent's growing capital: it reads below
    1e-11 as built, and above criterion 8's 1e-9 bound once one firm's
    capital is scaled by 1 +- 1e-8 from tau on."""
    dyn = DynamicBoundary(golden, 1.0)
    qf = dyn.q_floor
    path = _path(golden, x0=5.0, dt=1e-3, T=3.0, seed=900)
    out = build_symmetric_outcome((dyn, dyn), path, qf, 1.3 * qf)
    tau = catch_up_report(dyn, out)["tau_index"]
    after = out.knots >= tau
    assert 0 < tau < len(path.values) and out.K1[-1] > out.K1[after][0]
    for firm in (1, 2):
        assert check_consistency(out, dyn, firm).max_deviation < 1e-11
    for sign in (1.0, -1.0):
        k1 = np.where(after, out.K1 * (1.0 + sign * 1e-8), out.K1)
        bad = type(out)(path, k1, out.K2, out.q1_0, out.q2_0, out.construction, out.knots)
        assert check_consistency(bad, dyn, firm=1).max_deviation > 1e-9, sign


def _firm_cases(params, dyn, n_paths, seed):
    """Random paths with initial capitals q1 < q2, q1 = q2 and q1 > q2."""
    rng = np.random.default_rng(seed)
    qf = dyn.q_floor
    cases = []
    for j in range(n_paths):
        path = generate_path(params, rng.uniform(0.5, 8.0), 0.01, 2.0, seed, j)
        lo, hi = np.sort(qf + rng.uniform(0.0, 1.0, 2))
        cases += [(path, lo, hi), (path, lo, lo), (path, hi, lo)]
    return cases


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_symmetric_builder_equals_full_roots_at_the_knots(golden, c):
    """The builder solves phi only where it can move a capital, yet its
    knot capitals equal max(q_0, running_sup(min(phi, psi))) from both
    roots at every knot, bit for bit, except at the knot where psi first
    reaches the opponent's initial stock; there phi and psi agree to their
    root tolerance and either may be the minimum."""
    dyn = DynamicBoundary(golden, c)
    crossings = 0
    for path, q1, q2 in _firm_cases(golden, dyn, 40, 61):
        out = build_symmetric_outcome((dyn, dyn), path, q1, q2)
        x = path.values[out.knots]
        psi = dyn.symmetric_base_capacity(x)
        for k, q_own, q_opp in ((out.K1, q1, q2), (out.K2, q2, q1)):
            ref = np.maximum(q_own, running_sup(np.minimum(dyn.base_capacity(x, q_opp), psi)))
            differ = np.flatnonzero(k != ref)
            crossing = np.flatnonzero(psi >= q_opp)[:1]
            crossings += len(crossing)
            assert set(differ) <= set(crossing), (q_own, q_opp, differ, crossing)
            assert np.all(np.abs(k - ref) <= 1e-12 * (1.0 + ref))
    assert crossings > 100   # most paths cross, so the exception is exercised


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_symmetric_builder_solves_phi_only_where_it_can_move_a_capital(
        golden, monkeypatch, c):
    """phi_i is solved only at records where q_i < psi < q_mi: where
    psi >= q_mi the minimum is psi, and where psi <= q_i it cannot lift
    q_i.  So it is solved at records where psi < q_mi only, never for a
    firm whose stock is at least the opponent's, and a call solves every
    point of its array, so the points are counted, not the calls."""
    dyn = DynamicBoundary(golden, c)
    solve, calls = boundaries.Boundary.base_capacity, []
    monkeypatch.setattr(boundaries.Boundary, "base_capacity",
                        lambda self, x, q_mi: calls.append((x, q_mi)) or solve(self, x, q_mi))
    solved = 0
    for path, q1, q2 in _firm_cases(golden, dyn, 20, 62):
        calls.clear()
        out = build_symmetric_outcome((dyn, dyn), path, q1, q2)
        x = path.values[out.knots]
        psi = dyn.symmetric_base_capacity(x)
        want = {q_opp: x[(psi > q_own) & (psi < q_opp)]
                for q_own, q_opp in ((q1, q2), (q2, q1)) if q_own < q_opp}
        got = {q_mi: got_x for got_x, q_mi in calls}
        assert len(got) == len(calls)
        assert got.keys() == {q for q, v in want.items() if v.size}
        for q_mi, got_x in got.items():
            assert np.array_equal(got_x, want[q_mi])
            assert np.all(dyn.symmetric_base_capacity(got_x) < q_mi)
        solved += sum(np.size(v) for v, _ in calls)
    assert solved > 0


def test_catch_up_report_solves_no_root(golden, monkeypatch):
    """catch_up_report reads tau from the trigger on the diagonal, with no
    root solve, and on 200 criterion-8 paths gets the tau of psi: the first
    knot with psi(X) >= the larger initial stock."""
    dyn = DynamicBoundary(golden, 1.0)
    qf = dyn.q_floor
    q1, q2 = qf, 1.3 * qf
    outcomes = [build_symmetric_outcome((dyn, dyn), generate_path(golden, 5.0, 1e-3, 3.0, 808, j),
                                        q1, q2) for j in range(200)]

    def refused(*args):
        raise AssertionError("catch_up_report solved a root")

    interior = 0
    for out in outcomes:
        psi = dyn.symmetric_base_capacity(out.path.values[out.knots])
        reached = np.flatnonzero(psi >= q2)
        want = int(out.knots[reached[0]]) if len(reached) else len(out.path.values)
        with monkeypatch.context() as m:
            for name in ("_inverse", "base_capacity", "symmetric_base_capacity"):
                m.setattr(boundaries.Boundary, name, refused)
            rep = catch_up_report(dyn, out)
        assert rep["tau_index"] == want
        interior += want < len(out.path.values)
    assert interior > 100


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


def test_symmetric_floor_rule_is_the_boundarys(golden):
    """The builder admits the initial capitals that the trigger and the
    value functions admit, down to q_floor - 1e-9 * max(1, q_floor), and
    refuses those below."""
    dyn = DynamicBoundary(golden, 1.0)
    qf = dyn.q_floor
    path = _path(golden, T=0.1)
    out = build_symmetric_outcome((dyn, dyn), path, qf * (1.0 - 1e-10), qf)
    assert out.K1[0] >= qf * (1.0 - 1e-10)
    with pytest.raises(BelowFloorError):
        build_symmetric_outcome((dyn, dyn), path, qf * (1.0 - 1e-8), qf)


def test_symmetric_kind_mismatch(golden):
    """The builder reads the pair's (p, c): unequal premia, a price other
    than p_star and the never-invest trigger are refused."""
    path = _path(golden, T=0.1)
    d05, d1 = DynamicBoundary(golden, 0.5), DynamicBoundary(golden, 1.0)
    cp2 = ConstantPriceBoundary(golden, 2.0 * golden.p_star)
    inf = InfiniteBoundary(golden)
    for pair in ((d05, d1), (d1, d05), (cp2, cp2), (inf, inf), (d1, inf)):
        with pytest.raises(KindMismatchError):
            build_symmetric_outcome(pair, path, 2.0, 2.0)


def test_symmetric_constant_price_at_p_star_builds_as_c0(golden, cp):
    """A constant price p_star is the pair (p_star, 0): its knot capitals
    are those of DynamicBoundary(0), bit for bit."""
    d0 = DynamicBoundary(golden, 0.0)
    path = _path(golden, x0=3.0, seed=71, T=2.0)
    got = build_symmetric_outcome((cp, cp), path, 1.0, 1.3)
    want = build_symmetric_outcome((d0, d0), path, 1.0, 1.3)
    assert np.array_equal(got.knots, want.knots)
    assert np.array_equal(got.K1, want.K1) and np.array_equal(got.K2, want.K2)
    assert got.K1[-1] > 1.3


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


def test_even_split_averages_investor_and_abstainer(golden):
    """With equal initial capitals, firm 1's payoff under the even split of
    a constant-price pair is, path by path, the mean of its payoff as the
    sole investor and as the abstainer: at a fixed aggregate, profit and
    cost are linear in the own share.  The x0 = 5 paths jump at t = 0."""
    worst = 0.0
    for scale in (0.9, 1.0, 1.2):
        cp = ConstantPriceBoundary(golden, scale * golden.p_star)
        for x0 in (0.3, 1.5, 5.0):
            for j in range(40):
                path = generate_path(golden, x0, 2e-3, 4.0, 17, j)
                split = payoff(golden, build_aggregate_split((cp, cp), path, 1.0, 1.0,
                                                             (0.5, 0.5)), 1)
                sole = payoff(golden, build_joint_outcome(cp, cp, path, 1.0, 1.0), 1)
                abstain = payoff(golden, build_abstain_outcome((cp, cp), path, 1.0, 1.0, 1), 1)
                gap = abs(split - 0.5 * (sole + abstain)) / (1.0 + abs(split))
                worst = max(worst, gap)
    assert worst <= 1e-13


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


def _per_step_joint(b1, b2, path, q1_0, q2_0):
    """The joint construction by its definition: firm 1, then firm 2,
    reflects at every grid point."""
    n = len(path.values)
    Q1 = np.empty(n)
    Q2 = np.empty(n)
    q1, q2 = q1_0, q2_0
    for k, x in enumerate(path.values):
        q1 = max(q1, b1.base_capacity(x, q2))
        q2 = max(q2, b2.base_capacity(x, q1))
        Q1[k], Q2[k] = q1, q2
    return Q1, Q2


def test_joint_closed_form_matches_loop(golden):
    """Every fast path, p2 = inf, p1 = inf or (p2 >= p1 and c2 >= c1),
    agrees with the per-step loop within 1e-12 * (1 + Q)."""
    from duopoly_invest.outcomes import _joint_closed_form

    dyn = DynamicBoundary(golden, 1.0)
    half = DynamicBoundary(golden, 0.5)
    d0 = DynamicBoundary(golden, 0.0)
    inf = InfiniteBoundary(golden)
    cp = lambda f: ConstantPriceBoundary(golden, f * golden.p_star)
    short = [_path(golden, x0=3.0, seed=9, dt=0.01, T=1.5)]
    long = [_path(golden, x0=3.0, seed=99, dt=2e-3, T=4.0, j=j) for j in range(6)]
    q1, q2 = 1.1 * dyn.q_floor, 1.3 * dyn.q_floor
    cases = [
        (cp(0.9), cp(1.0), short, 1.0, 1.0),
        (cp(0.9), dyn, short, 1.0, 1.0),
        (inf, cp(1.0), short, 1.0, 1.0),
        (dyn, DynamicBoundary(golden, 1.0), short, dyn.q_floor, 1.2 * dyn.q_floor),
        (half, dyn, long, q1, q2),
        (d0, dyn, long, q1, q2),
        (cp(0.9), half, long, q1, q2),
        (half, inf, long, q1, q2),
        (dyn, inf, long, q1, q2),
        (d0, cp(1.3), long, q1, q2),
    ]
    for b1, b2, paths, q1_0, q2_0 in cases:
        for path in paths:
            fast = _joint_closed_form(b1, b2, path, q1_0, q2_0)
            assert fast is not None, (b1, b2)
            for got, want in zip((fast.Q1, fast.Q2), _per_step_joint(b1, b2, path, q1_0, q2_0)):
                assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + want)), (b1, b2)


def test_joint_record_loop_equals_per_step_loop(golden, monkeypatch):
    """Pairs without a closed form run the sequential updates at the
    running-max records only; the capitals equal the per-step loop's bit for
    bit, and each record costs at most two base-capacity solves."""
    from duopoly_invest.outcomes import _joint_closed_form

    dyn = DynamicBoundary(golden, 1.0)
    half = DynamicBoundary(golden, 0.5)
    cp = lambda f: ConstantPriceBoundary(golden, f * golden.p_star)
    q1, q2 = 1.1 * dyn.q_floor, 1.3 * dyn.q_floor
    pairs = [(cp(1.2), cp(1.0)), (dyn, half), (dyn, cp(1.3)), (cp(1.3), dyn)]
    paths = [_path(golden, x0=3.0, seed=99, dt=2e-3, T=4.0, j=j) for j in range(6)]
    calls = [0]
    solve = boundaries.Boundary.base_capacity

    def counted(self, x, q_mi):
        calls[0] += 1
        return solve(self, x, q_mi)

    for b1, b2 in pairs:
        for path in paths:
            assert _joint_closed_form(b1, b2, path, q1, q2) is None
            want = _per_step_joint(b1, b2, path, q1, q2)
            with monkeypatch.context() as m:
                m.setattr(boundaries.Boundary, "base_capacity", counted)
                calls[0] = 0
                out = build_joint_outcome(b1, b2, path, q1, q2)
            n_records = 1 + int(np.count_nonzero(np.diff(running_sup(path.values)) > 0.0))
            assert calls[0] <= 2 * n_records
            assert np.array_equal(out.Q1, want[0]) and np.array_equal(out.Q2, want[1])
            assert out.construction == "joint"


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


# ---------------------------------------------------------------------------
# knots: records, lazy full-grid capitals, segment accumulators
# ---------------------------------------------------------------------------

def _plain_records(values):
    """Running-max records by their definition: index 0 and every k with
    sup[k] > sup[k-1]."""
    sup = running_sup(values)
    return np.flatnonzero(np.concatenate(([True], sup[1:] > sup[:-1])))


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 601, 3001, 20001]),
       shape=st.sampled_from(["walk", "constant", "descending", "ascending", "plateau"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_records_equal_plain_running_max_records(n, shape, seed):
    """Block-maximum records equal the plain running-max records bit for
    bit; the values are small integers, so ties and plateaus are common."""
    rng = np.random.default_rng(seed)
    if shape == "walk":
        v = np.cumsum(rng.integers(-2, 3, n))
    elif shape == "constant":
        v = np.full(n, rng.integers(-5, 5))
    elif shape == "descending":
        v = np.sort(rng.integers(0, 20, n))[::-1]
    elif shape == "ascending":
        v = np.sort(rng.integers(0, 20, n))
    else:
        v = np.repeat(rng.integers(0, 6, n), rng.integers(1, 100, n))[:n]
    v = v.astype(float)
    assert np.array_equal(_records(v), _plain_records(v))


@pytest.mark.parametrize("x0, dt, T", [(1.3, 1e-3, 20.0),   # mc_abstain
                                       (5.0, 1e-3, 3.0),    # catch_up
                                       (1.5, 0.01, 6.0)])   # verify_dynamic
def test_records_on_benchmark_grids(golden, x0, dt, T):
    for j in range(20):
        values = generate_path(golden, x0, dt, T, 21, j).values
        assert np.array_equal(_records(values), _plain_records(values))


@pytest.mark.parametrize("n", [1, 64, 65, 601])
def test_block_records_equal_row_records(n):
    """On a block, _records gives every row's records in row order, each
    row's from index 0, equal to the row's own records: among the rows a
    falling one, whose only record is index 0, and one whose last record
    lies in the ragged last 64-value block."""
    rng = np.random.default_rng(n)
    rows = [np.cumsum(rng.integers(-2, 3, n)), np.full(n, 3), np.arange(n)[::-1],
            np.arange(n), np.repeat(rng.integers(0, 6, n), rng.integers(1, 100, n))[:n]]
    ragged = np.zeros(n)
    ragged[-1 - (n - 1) % 64 // 2] = 1.0
    rows.append(ragged)
    block = np.array(rows, dtype=float)
    got = _records(block)
    assert np.array_equal(got, np.concatenate([_plain_records(row) for row in block]))
    assert np.array_equal(got, np.concatenate([_records(row) for row in block]))
    assert np.array_equal(_records(block[2]), [0])
    if n > 64:
        assert _records(ragged)[-1] >= n // 64 * 64


def _row_builds(build, params, x0, n_paths, *args):
    """The block outcome of n_paths 600-step paths and the outcomes of its
    rows built one by one."""
    block = generate_paths(params, x0, 0.01, 6.0, 5, n_paths)
    rows = [build(*args[:1], generate_path(params, x0, 0.01, 6.0, 5, j), *args[1:])
            for j in range(n_paths)]
    return build(*args[:1], block, *args[1:]), rows


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_block_symmetric_outcome_equals_row_builds(golden, brentq_inverse, c):
    """A block of 80 side-condition paths builds as its rows do: the same
    knots, row offsets and shock at the knots, and capitals within 2e-15
    relative (the block solves its roots in one vectorized pass, a row in
    a loop of the scalar solver), each within 1e-12 * max(1, Q) of brentq's
    min(phi, psi) at the running maximum.  Q1 and Q2 are the rows' full-grid
    capitals, row by row."""
    dyn = DynamicBoundary(golden, c)
    q1 = dyn.q_floor + 0.2
    q2 = q1 + 0.2
    out, rows = _row_builds(build_symmetric_outcome, golden, 0.9 * dyn.trigger(q2, q2), 80,
                            (dyn, dyn), q1, q2)
    assert np.array_equal(out.knots, np.concatenate([r.knots for r in rows]))
    assert np.array_equal(out.offsets, np.cumsum([0] + [len(r.knots) for r in rows]))
    assert np.array_equal(out.knot_shock,
                          np.concatenate([r.path.values[r.knots] for r in rows]))
    x = out.knot_shock
    psi = brentq_inverse(dyn, x)
    for k, q_own, q_opp, firm in ((out.K1, q1, q2, 1), (out.K2, q2, q1, 2)):
        want = np.concatenate([r.knot_capital(firm) for r in rows])
        assert np.all(np.abs(k - want) <= 2e-15 * want)
        low = np.minimum(brentq_inverse(dyn, x, q_opp), psi)
        ref = np.concatenate([np.maximum(q_own, running_sup(low[a:b]))
                              for a, b in zip(out.offsets[:-1], out.offsets[1:])])
        assert np.all(np.abs(k - ref) <= 1e-12 * np.maximum(1.0, ref))
        full = np.array([r.capital(firm) for r in rows])
        assert out.capital(firm).shape == full.shape
        assert np.all(np.abs(out.capital(firm) - full) <= 2e-15 * full)


@pytest.mark.parametrize("build, last", [(build_abstain_outcome, 1),
                                         (build_abstain_outcome, 2),
                                         (build_aggregate_split, (0.3, 0.7))])
def test_block_abstain_outcome_equals_row_builds(golden, cp, build, last):
    """Without a root solve, a block abstain outcome, for either abstaining
    firm, and a block aggregate split are their rows' outcomes
    concatenated, byte for byte."""
    out, rows = _row_builds(build, golden, 2.0, 40, (cp, cp), 0.8, 1.2, last)
    for got, part in ((out.knots, "knots"), (out.K1, "K1"), (out.K2, "K2")):
        want = np.concatenate([getattr(r, part) for r in rows])
        assert got.tobytes() == want.tobytes(), part
    for firm in (1, 2):
        assert out.capital(firm).tobytes() == np.array([r.capital(firm) for r in rows]).tobytes()


def _full_grid_payoff(params, out, firm):
    """payoff and discount_identity_defect by their per-step formulas over
    every grid point."""
    x, q, dt = out.path.values, out.capital(firm), out.path.dt
    r = params.r
    d = np.exp(-r * (dt * np.arange(len(x) - 1) + 0.5 * dt))
    flow = x * (out.Q1 + out.Q2) ** (-1.0 / params.gamma) * q
    profit = np.sum(d * (flow[:-1] + flow[1:])) * 0.5 * dt
    cost = q[0] - out.initial(firm) + np.sum(d * np.diff(q))
    lhs = q[0] + np.sum(d * np.diff(q))
    quad = np.sum(d * 0.5 * (q[:-1] + q[1:])) * dt
    defect = abs(lhs - (r * quad + np.exp(-r * dt * (len(q) - 1)) * q[-1]))
    return float(profit - cost), float(defect)


def _every_builder(params, path):
    cp = ConstantPriceBoundary(params, params.p_star)
    cp_hi = ConstantPriceBoundary(params, 1.2 * params.p_star)
    dyn, half = DynamicBoundary(params, 1.0), DynamicBoundary(params, 0.5)
    qf = dyn.q_floor
    return [build_abstain_outcome((cp, cp), path, 1.0, 0.8, abstaining_firm=1),
            build_abstain_outcome((cp, cp), path, 0.5, 1.0, abstaining_firm=2),
            build_symmetric_outcome((dyn, dyn), path, qf, 1.3 * qf),
            build_aggregate_split((cp, cp), path, 1.0, 0.5, weights=(0.3, 0.7)),
            build_joint_outcome(ConstantPriceBoundary(params, 0.9 * params.p_star), cp,
                                path, 1.0, 1.0),
            build_joint_outcome(cp_hi, cp, path, 1.0, 1.0),
            build_joint_outcome(dyn, half, path, 1.1 * qf, 1.3 * qf)]


def test_knot_outcomes_expand_to_the_record_gathers(golden):
    """Every builder's knots are the running-max records, and Q1, Q2 are the
    knot capitals gathered at each grid index's latest record, as float64
    and byte for byte."""
    for j, x0 in enumerate((0.5, 3.0, 6.0)):
        path = generate_path(golden, x0, 2e-3, 3.0, 61, j)
        rec = _plain_records(path.values)
        latest = np.cumsum(np.isin(np.arange(len(path.values)), rec)) - 1
        for out in _every_builder(golden, path):
            assert np.array_equal(out.knots, rec), out.construction
            for full, knot in ((out.Q1, out.K1), (out.Q2, out.K2)):
                assert full.dtype == np.float64 and len(full) == len(path.values)
                assert full.tobytes() == knot[latest].tobytes(), out.construction


def test_knot_accumulators_match_full_grid_formulas(golden, cp):
    """payoff and discount_identity_defect read the knots and agree with the
    per-step formulas within 1e-14 * (1 + |v|), for every builder, with and
    without a t = 0 jump, and for a hand-made full-grid outcome."""
    outcomes = []
    for j, x0 in enumerate((0.5, 3.0, 6.0)):
        outcomes += _every_builder(golden, generate_path(golden, x0, 2e-3, 3.0, 62, j))
    base = build_abstain_outcome((cp, cp), _path(golden, x0=3.0, seed=3), 1.0, 0.8, 1)
    q2 = base.Q2.copy()
    q2[len(q2) // 2] += 0.1
    outcomes.append(type(base)(base.path, base.Q1, q2, base.q1_0, base.q2_0, "perturbed"))
    for out in outcomes:
        for firm in (1, 2):
            want_payoff, want_defect = _full_grid_payoff(golden, out, firm)
            got_payoff = payoff(golden, out, firm)
            got_defect = discount_identity_defect(golden, out, firm)
            assert abs(got_payoff - want_payoff) <= 1e-14 * (1.0 + abs(want_payoff)), \
                (out.construction, firm)
            assert abs(got_defect - want_defect) <= 1e-14 * (1.0 + abs(want_defect)), \
                (out.construction, firm)
