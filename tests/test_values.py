import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from duopoly_invest.errors import QuadratureNotConvergedError, ZeroCapacityError
from duopoly_invest.model import derive_params
from duopoly_invest.values import (
    AbstainValue,
    DynamicValue,
    PerturbedValue,
    SoleInvestorValue,
    ValueFunction,
)

GOLDEN_STATE_VALUE = 0.7818953180863912  # p*/(r-mu) * (1/2 - (1/2)**beta / beta)


@pytest.fixture(scope="module")
def golden():
    return derive_params(1.0, 0.0, math.sqrt(2.0), 1.5)


@pytest.fixture(scope="module")
def state_grid(golden):
    rng = np.random.default_rng(17)
    states = []
    for _ in range(120):
        q_i = rng.uniform(0.02, 4.0)
        q_mi = rng.uniform(0.02, 4.0)
        x = rng.uniform(0.05, 1.6) * golden.p_star * (q_i + q_mi) ** (1 / golden.gamma)
        states.append((x, q_i, q_mi))
    return states


# ---------------------------------------------------------------------------
# abstain value
# ---------------------------------------------------------------------------

def test_abstain_boundary_value(golden):
    # at the trigger the value is p (beta-1) q_i / ((r-mu) beta); q_i at p = p*
    for p in (0.7 * golden.p_star, golden.p_star, 1.3 * golden.p_star):
        fn = AbstainValue(golden, p)
        q_i, q_mi = 1.7, 0.4
        xb = p * (q_i + q_mi) ** (1 / golden.gamma)
        expected = p / (golden.r - golden.mu) * (golden.beta - 1) / golden.beta * q_i
        assert fn.value(xb, q_i, q_mi) == pytest.approx(expected, rel=1e-12)
    fn = AbstainValue(golden, golden.p_star)
    xb = golden.p_star * 2.0 ** (1 / golden.gamma)
    assert fn.value(xb, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_abstain_golden_state(golden):
    fn = AbstainValue(golden, golden.p_star)
    x = golden.p_star * 2.0 ** (1 / golden.gamma) / 2.0  # price p*/2 at (1, 1)
    assert fn.value(x, 1.0, 1.0) == pytest.approx(GOLDEN_STATE_VALUE, rel=1e-12)


def test_abstain_vanishes_linearly(golden):
    fn = AbstainValue(golden, golden.p_star)
    small = fn.value(1e-9, 1.0, 1.0)
    v_x = fn.evaluate(1e-12, 1.0, 1.0)["x"] / 1e-12
    assert small == pytest.approx(1e-9 * v_x, rel=1e-3)
    assert fn.value(1e-12, 1.0, 1.0) < 1e-11


def test_abstain_own_derivative_above_boundary(golden):
    fn = AbstainValue(golden, 1.2 * golden.p_star)
    q_i, q_mi = 0.8, 1.1
    xb = fn.opponent_boundary.trigger(q_i, q_mi)
    for x in (xb, 1.5 * xb, 4 * xb):
        assert fn.evaluate(x, q_i, q_mi)["qi"] == pytest.approx(1.2, rel=1e-12)


def test_abstain_own_derivative_increasing_in_x(golden):
    fn = AbstainValue(golden, golden.p_star)
    q_i, q_mi = 1.3, 0.7
    xb = fn.opponent_boundary.trigger(q_i, q_mi)
    xs = np.linspace(0.05, 1.0, 40) * xb
    d = [fn.evaluate(float(x), q_i, q_mi)["qi"] for x in xs]
    assert all(a < b for a, b in zip(d, d[1:]))


# ---------------------------------------------------------------------------
# sole-investor value
# ---------------------------------------------------------------------------

def test_investor_opponent_coefficient_zero_at_p_star(golden):
    fn = SoleInvestorValue(golden, golden.p_star)
    assert fn.k_opp == pytest.approx(0.0, abs=1e-14)


def test_investor_equals_abstain_at_p_star(golden, state_grid):
    va = AbstainValue(golden, golden.p_star)
    vi = SoleInvestorValue(golden, golden.p_star)
    for x, q_i, q_mi in state_grid:
        a, b = va.value(x, q_i, q_mi), vi.value(x, q_i, q_mi)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-12)


def test_investor_exceeds_abstain_above_p_star(golden):
    p = 1.1 * golden.p_star
    va, vi = AbstainValue(golden, p), SoleInvestorValue(golden, p)
    rng = np.random.default_rng(23)
    for _ in range(50):
        q_i, q_mi = rng.uniform(0.05, 3.0, size=2)
        x = rng.uniform(0.1, 1.0) * p * (q_i + q_mi) ** (1 / golden.gamma)
        assert vi.value(x, q_i, q_mi) > va.value(x, q_i, q_mi)


def test_value_gap_sign_tracks_threshold(golden):
    """sign(investor - abstain) = sign(p - p*) off the boundary."""
    rng = np.random.default_rng(29)
    for fac in (0.8, 0.9, 1.1, 1.2):
        p = fac * golden.p_star
        va, vi = AbstainValue(golden, p), SoleInvestorValue(golden, p)
        for _ in range(25):
            q_i, q_mi = rng.uniform(0.05, 3.0, size=2)
            x = rng.uniform(0.1, 2.0) * p * (q_i + q_mi) ** (1 / golden.gamma)
            gap = vi.value(x, q_i, q_mi) - va.value(x, q_i, q_mi)
            assert math.copysign(1.0, gap) == math.copysign(1.0, fac - 1.0)


def test_investor_smooth_fit(golden):
    fn = SoleInvestorValue(golden, 1.15 * golden.p_star)
    q_i, q_mi = 0.9, 1.4
    xb = fn.own_boundary.trigger(q_i, q_mi)
    assert fn.evaluate(xb, q_i, q_mi)["qi"] == pytest.approx(1.0, abs=1e-12)
    assert fn.evaluate(1.7 * xb, q_i, q_mi)["qi"] == 1.0


def test_above_trigger_partials_solve_phi_once(golden, monkeypatch):
    """Above the own trigger one evaluate call solves for the paste point
    once and returns every entry from it: V_qi is one and "phi" is the
    solved paste point.  A second call repeats every entry bit for bit."""
    for fn in (SoleInvestorValue(golden, 1.1 * golden.p_star), DynamicValue(golden, 0.5)):
        own = fn.strategy_pair()[0]
        solve, calls = type(own).base_capacity, []
        monkeypatch.setattr(type(own), "base_capacity",
                            lambda self, x, q_mi: calls.append(x) or solve(self, x, q_mi))
        q_i, q_mi = own.q_floor + 0.7, own.q_floor + 0.4
        x = 1.5 * own.trigger(q_i, q_mi)
        d = fn.evaluate(x, q_i, q_mi)
        assert len(calls) == 1, fn.kind
        assert d["qi"] == 1.0 and d["phi"] == solve(own, x, q_mi), fn.kind
        assert fn.evaluate(x, q_i, q_mi) == d and len(calls) == 2, fn.kind


def _central_difference(f, q):
    """Central difference of f at q, with one Richardson level, 2 D(h/2) -
    D(h), which also cancels the O(h) term of a curvature kink at q."""
    h = 1e-4 * q

    def d(step):
        return (f(q + step) - f(q - step)) / (2.0 * step)

    return 2.0 * d(h / 2.0) - d(h)


def test_fd_matches_analytic_partials(golden):
    """The analytic q-partials against central differences of the value:
    below, at and above the own trigger, where the dynamic kind pastes."""
    rng = np.random.default_rng(31)
    for fn in (SoleInvestorValue(golden, 1.1 * golden.p_star),
               *(DynamicValue(golden, c) for c in (0.0, 0.5, 1.0))):
        own = fn.strategy_pair()[0]
        for _ in range(10):
            q_i, q_mi = own.q_floor + rng.uniform(0.3, 3.0, size=2)
            for frac in (rng.uniform(0.1, 0.9), 1.0, rng.uniform(1.1, 2.0)):
                x = frac * own.trigger(q_i, q_mi)
                d = fn.evaluate(x, q_i, q_mi)
                fd_own = _central_difference(lambda q: fn.value(x, q, q_mi), q_i)
                fd_opp = _central_difference(lambda q: fn.value(x, q_i, q), q_mi)
                assert fd_own == pytest.approx(d["qi"], abs=5e-9), (fn.kind, frac)
                assert fd_opp == pytest.approx(d["qmi"], abs=5e-9), (fn.kind, frac)


def test_power_rule_second_derivative(golden):
    fn = SoleInvestorValue(golden, golden.p_star)
    q_i, q_mi = 1.2, 0.8
    x = 0.5 * fn.own_boundary.trigger(q_i, q_mi)
    P = (q_i + q_mi) ** (-1 / golden.gamma)
    btil = fn._btil(q_i, q_mi)
    expected = btil * golden.beta * (golden.beta - 1) \
        * (x * P / fn.p) ** (golden.beta - 2) * (P / fn.p) ** 2
    assert fn.evaluate(x, q_i, q_mi)["xx"] / x ** 2 == pytest.approx(expected, rel=1e-12)


def test_pde_identity_analytic_kinds(golden, state_grid):
    for fn in (AbstainValue(golden, golden.p_star),
               SoleInvestorValue(golden, 1.2 * golden.p_star)):
        for x, q_i, q_mi in state_grid:
            xb = fn.opponent_boundary.trigger(q_i, q_mi) if fn.kind == "abstain" \
                else fn.own_boundary.trigger(q_i, q_mi)
            if x > xb:
                continue
            v = fn.value(x, q_i, q_mi)
            d = fn.evaluate(x, q_i, q_mi)
            pi = golden.profit_flow(x, q_i, q_mi)
            resid = -golden.r * v + pi + golden.mu * d["x"] + 0.5 * golden.sigma ** 2 * d["xx"]
            assert abs(resid) / (golden.r * abs(v) + 1.0) < 1e-9


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
def test_closed_form_values_homogeneous_of_degree_one(golden, scale):
    """V(x s**(1/gamma), s q_i, s q_mi) = s V(x, q_i, q_mi), on the trigger
    too, at capitals where x**beta would overflow or underflow: the branch
    is written in the normalised price y, which the scaling leaves alone.
    V_qi and V_qmi are homogeneous of degree zero.  At (1, 1e308, 0) the
    option coefficient must not overflow before y**beta cancels it, and at
    (2 * 1e308**(2/3), 1e308, 0) the sole investor's profit stream must not
    overflow before the option term cancels it."""
    for fn in (AbstainValue(golden, golden.p_star),
               SoleInvestorValue(golden, 1.2 * golden.p_star)):
        v = fn.value(1.0, 1e308, 0.0)
        want = 1e308 * fn.value(1e308 ** (-1.0 / golden.gamma), 1.0, 0.0)
        assert abs(v - want) <= 1e-14 * abs(want), fn.kind
        for q_i, q_mi in ((1.0, 1.0), (0.3, 2.2), (1.7, 0.4)):
            xb = fn._own_trigger(q_i, q_mi)
            for frac in (0.05, 0.5, 1.0, 1.5, 3.0):
                x, x_scaled = frac * xb, frac * xb * scale ** (1.0 / golden.gamma)
                v = fn.value(x, q_i, q_mi)
                scaled = fn.value(x_scaled, scale * q_i, scale * q_mi)
                assert abs(scaled - scale * v) <= 1e-14 * abs(scale * v), \
                    (fn.kind, q_i, q_mi, frac)
                d = fn.evaluate(x, q_i, q_mi)
                d_scaled = fn.evaluate(x_scaled, scale * q_i, scale * q_mi)
                for key in ("qi", "qmi"):
                    assert abs(d_scaled[key] - d[key]) <= 1e-14 * (1.0 + abs(d[key])), \
                        (fn.kind, key, q_i, q_mi, frac)
    sole = SoleInvestorValue(golden, 2.6)
    v = sole.value(2.0 * 1e308 ** (1.0 / golden.gamma), 1e308, 0.0)
    want = 1e308 * sole.value(2.0, 1.0, 0.0)
    assert abs(v - want) <= 1e-14 * abs(want), v


def test_c_grad_matches_central_difference(golden):
    """The analytic gradient of the option coefficient C, which _coef gives
    with C and the closed-form q-partials use, against a central difference
    of C."""
    h = 1e-4
    for fn in (AbstainValue(golden, 1.1 * golden.p_star),
               SoleInvestorValue(golden, 1.2 * golden.p_star)):
        c = lambda q_i, q_mi: fn._coef(q_i, q_mi)[0]
        for q_i, q_mi in ((1.0, 1.0), (0.3, 2.2), (1.7, 0.4)):
            fd = ((c(q_i + h, q_mi) - c(q_i - h, q_mi)) / (2.0 * h),
                  (c(q_i, q_mi + h) - c(q_i, q_mi - h)) / (2.0 * h))
            for got, want in zip(fn._coef(q_i, q_mi)[1:], fd):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-10), fn.kind


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_below_evaluate_looks_b_up_once(golden, monkeypatch, c):
    """One evaluate of a block of states below the trigger asks B_block
    once, for C and its gradient together, whether or not the block's B
    values are cached."""
    fn = DynamicValue(golden, c)
    q = np.linspace(fn.q_floor, fn.q_floor + 3.0, 7)
    q_i, q_mi = (v.ravel()[:, None] for v in np.meshgrid(q, q))
    x = fn.boundary.trigger(q_i, q_mi) * np.array([0.1, 0.5, 1.0])
    real, calls = DynamicValue.B_block, []
    monkeypatch.setattr(DynamicValue, "B_block",
                        lambda self, a, b: calls.append(np.size(a)) or real(self, a, b))
    for cached in (False, True):
        calls.clear()
        fn.evaluate(x, q_i, q_mi)
        assert calls == [len(q_i)], cached


# ---------------------------------------------------------------------------
# dynamic (capital-dependent) value
# ---------------------------------------------------------------------------

def test_dynamic_c0_reduces_to_abstain(golden):
    fn = DynamicValue(golden, 0.0)
    va = AbstainValue(golden, golden.p_star)
    rng = np.random.default_rng(37)
    for _ in range(60):
        q_i, q_mi = rng.uniform(0.05, 4.0, size=2)
        x = rng.uniform(0.05, 1.0) * fn.boundary.trigger(q_i, q_mi)
        assert fn.value(x, q_i, q_mi) == pytest.approx(
            va.value(x, q_i, q_mi), abs=1e-8, rel=1e-8)


def test_dynamic_b_against_scipy_oracle(golden):
    """Independent quadrature route: scipy QUADPACK on the original variable,
    split at the kink q = q_mi, with the infinite-range rule beyond it.  B's
    q_mi-derivative, integrated alongside B, against a central difference of
    the oracle."""
    import duopoly_invest.values as values

    pr = golden
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=500)
    far = values._FAR_ABOVE
    for c in (0.0, 0.5, 1.0, 2.0):
        fn = DynamicValue(golden, c)

        def integrand(q, q_mi):
            s = q + q_mi
            prem = c / max(q, q_mi) if c > 0.0 else 0.0
            xbar = (pr.p_star + prem) * s ** (1 / pr.gamma)
            mr = s ** (-1 / pr.gamma - 1) * ((pr.gamma - 1) / pr.gamma * q + q_mi)
            return (1 - xbar * mr / (pr.r - pr.mu)) * xbar ** (-pr.beta)

        def oracle(q_i, q_mi):
            ref, lo = 0.0, q_i
            if q_i < q_mi:
                ref += quad(integrand, q_i, q_mi, args=(q_mi,), **opts)[0]
                lo = q_mi
            # The slowly decaying tail makes QUADPACK report roundoff even
            # where it converges; the comparisons below are the check.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                ref += quad(integrand, lo, math.inf, args=(q_mi,), **opts)[0]
            return -ref

        # q_i below, at and above the kink q = q_mi, up to far above it:
        # next to the kink on both sides, and on both sides of the pairs
        # integrated whole (q_i > _FAR_ABOVE * q_mi).
        for (q_i, q_mi) in [(1.0, 1.0), (0.8, 1.5), (2.5, 0.9), (1.2, 1.2),
                            (1.3 * 2.0 ** -8, 1.3), (1.3 * 8.0, 1.3), (1.3 * 1.37, 1.3),
                            (0.9 * 2.0 ** 14, 0.9), (1.3 * 2.0 ** -20, 1.3),
                            (1.3 * (1.0 - 1e-12), 1.3), (1.3 * (1.0 + 1e-12), 1.3),
                            (1.3 * (1.0 - 1e-3), 1.3), (1.3 * (1.0 + 1e-3), 1.3),
                            (1.3 * far * (1.0 - 1e-6), 1.3), (1.3 * far * (1.0 + 1e-6), 1.3)]:
            ref = oracle(q_i, q_mi)
            b = fn.B(q_i, q_mi)
            assert abs(b - ref) <= 1e-10 * (1.0 + abs(ref)), (c, q_i, q_mi, b, ref)
            ref_qmi = _central_difference(lambda q: oracle(q_i, q), q_mi)
            b_qmi = fn._b_cache[q_i, q_mi][1]
            # The difference divides the oracle's rounding by its step.
            assert abs(b_qmi - ref_qmi) <= 5e-9 * (1.0 + abs(ref_qmi)), \
                (c, q_i, q_mi, b_qmi, ref_qmi)


def test_dynamic_b_linear_bound(golden):
    for c in (0.0, 0.5, 1.0):
        fn = DynamicValue(golden, c)
        floor = fn.q_floor
        rng = np.random.default_rng(41)
        for _ in range(40):
            q_i = rng.uniform(max(floor, 0.05), 5.0)
            q_mi = rng.uniform(max(floor, 0.05), 5.0)
            assert abs(fn.B(q_i, q_mi)) <= fn.b_linear_bound(q_i, q_mi) * (1 + 1e-9)


def test_dynamic_smooth_fit_own(golden):
    fn = DynamicValue(golden, 1.0)
    for (q_i, q_mi) in [(1.0, 0.9), (0.9, 1.3), (fn.q_floor, fn.q_floor), (2.2, 2.2)]:
        xb = fn.boundary.trigger(q_i, q_mi)
        d = fn.evaluate(xb, q_i, q_mi)["qi"]
        assert d == pytest.approx(1.0, abs=1e-14)


def test_dynamic_opponent_derivative_zero_when_bigger(golden):
    fn = DynamicValue(golden, 1.0)
    for (q_i, q_mi) in [(1.0, 0.9), (2.0, 1.0), (1.5, 1.5)]:
        xb = fn.boundary.trigger(q_i, q_mi)
        d = fn.evaluate(xb, q_i, q_mi)["qmi"]
        assert d == pytest.approx(0.0, abs=1e-13)


def test_branch_continuity_all_kinds(golden):
    """Value and x-derivative paste continuously across the trigger."""
    fns = [AbstainValue(golden, golden.p_star),
           SoleInvestorValue(golden, 1.1 * golden.p_star),
           DynamicValue(golden, 0.5)]
    for fn in fns:
        if fn.kind == "abstain":
            trig = fn.opponent_boundary.trigger
        elif fn.kind == "sole_investor":
            trig = fn.own_boundary.trigger
        else:
            trig = fn.boundary.trigger
        q_i = max(1.1, getattr(fn, "q_floor", 0.0) + 0.3)
        q_mi = q_i + 0.2
        xb = trig(q_i, q_mi)
        slope = abs(fn.evaluate(0.999 * xb, q_i, q_mi)["x"] / (0.999 * xb)) * xb
        for eps in (1e-7, 1e-9):
            below = fn.value(xb * (1 - eps), q_i, q_mi)
            above = fn.value(xb * (1 + eps), q_i, q_mi)
            assert abs(above - below) <= 1e-9 * (1 + abs(below)) + 3 * eps * slope
            dbelow = fn.evaluate(xb * (1 - eps), q_i, q_mi)["x"] / (xb * (1 - eps))
            dabove = fn.evaluate(xb * (1 + eps), q_i, q_mi)["x"] / (xb * (1 + eps))
            assert abs(dabove - dbelow) <= 1e-6 * (1 + abs(dbelow))


def test_dynamic_quadrature_rejects_near_critical():
    """Close to the integrability edge the certified truncation point
    overflows and the quadrature refuses rather than silently truncating."""
    pp = derive_params(1.0, 0.16, math.sqrt(2.0), 1.5)  # beta/gamma ~ 1.003
    fn = DynamicValue(pp, 0.5)
    with pytest.raises(QuadratureNotConvergedError):
        fn.B(1.0, 1.0)


def test_dynamic_zero_capacity(golden):
    fn = DynamicValue(golden, 0.0)
    with pytest.raises(ZeroCapacityError):
        fn.B(0.0, 0.0)
    with pytest.raises(ZeroCapacityError):
        fn.value(1.0, 0.0, 0.0)


# numpy's vectorized power may differ from the scalar one in the last bit.
_ULPS = 4 * np.finfo(float).eps


def _array_cases(golden):
    kinds = [DynamicValue(golden, c) for c in (0.0, 0.5, 1.0)] + [
        AbstainValue(golden, golden.p_star), SoleInvestorValue(golden, golden.p_star),
        PerturbedValue(DynamicValue(golden, 0.5), 1.01)]
    for fn in kinds:
        own, opp = fn.strategy_pair()
        floor = max(b.q_floor for b in (own, opp))
        # The first pair sits on the floor.
        for q_i, q_mi in ((floor, floor + 0.4), (floor + 0.7, floor + 0.2)):
            cap = min(own.trigger(q_i, q_mi), opp.trigger(q_mi, q_i))
            yield fn, q_i, q_mi, cap * np.exp(np.linspace(np.log(0.05), 0.0, 12))


def test_array_partials_match_scalar(golden):
    """Values and partials over an array of shock levels equal the scalar
    ones level by level: below the trigger, at the top grid level, on the
    trigger, and above the trigger."""
    for fn, q_i, q_mi, xs in _array_cases(golden):
        levels = np.append(xs, 1.6 * xs[-1])
        vals = fn.value(levels, q_i, q_mi)
        arr = fn.evaluate(levels, q_i, q_mi)
        arr["x"], arr["xx"] = arr["x"] / levels, arr["xx"] / levels ** 2
        for k, x in enumerate(levels):
            x = float(x)
            v = fn.value(x, q_i, q_mi)
            assert abs(vals[k] - v) <= _ULPS * (1.0 + abs(v)), (fn.kind, k)
            one = fn.evaluate(x, q_i, q_mi)
            one["x"], one["xx"] = one["x"] / x, one["xx"] / x ** 2
            for key, d in one.items():
                assert abs(arr[key][k] - d) <= _ULPS * (1.0 + abs(d)), (fn.kind, key, k)


def test_perturbed_below_branch_matches_loop(golden):
    """The negative control's evaluate adds 0.01 times the option term to
    the value entry of every kind, as the per-level loop does: on the
    branch below the trigger, and on the continuation above it, where the
    option term is held at its value on the trigger.  Every other entry is
    the base's."""
    for fn, q_i, q_mi, xs in _array_cases(golden):
        base = fn.base if isinstance(fn, PerturbedValue) else fn
        bad = PerturbedValue(base, 1.01)
        levels = np.append(xs, 1.6 * xs[-1])
        got, want = bad.evaluate(levels, q_i, q_mi), base.evaluate(levels, q_i, q_mi)
        loop = want["v"] + 0.01 * np.array([base.option_term(x, q_i, q_mi) for x in levels])
        assert np.all(np.abs(got["v"] - loop) <= _ULPS * np.abs(loop)), base.kind
        assert got.keys() == want.keys()
        for key in ("x", "xx", "qi", "qmi", "phi"):
            assert np.array_equal(got[key], want[key]), (base.kind, key)


def test_perturbed_value_channel_only(golden):
    base = DynamicValue(golden, 0.5)
    bad = PerturbedValue(base, 1.01)
    q_i, q_mi = 1.0, 1.2
    x = 0.6 * base.boundary.trigger(q_i, q_mi)
    assert bad.value(x, q_i, q_mi) != base.value(x, q_i, q_mi)
    got, want = bad.evaluate(x, q_i, q_mi), base.evaluate(x, q_i, q_mi)
    del got["v"], want["v"]
    assert got == want


def test_perturbed_dynamic_option_term_held_above_trigger(golden):
    """Above the trigger the option term keeps its value on the trigger,
    B * Xbar**beta, as for the closed-form kinds, so the negative control
    shifts the value there by a constant."""
    base = DynamicValue(golden, 0.5)
    bad = PerturbedValue(base, 1.01)
    q_i, q_mi = base.q_floor + 0.7, base.q_floor + 0.2
    xb = base.boundary.trigger(q_i, q_mi)
    on = base.option_term(xb, q_i, q_mi)
    assert on == pytest.approx(base.B(q_i, q_mi) * xb ** golden.beta, rel=1e-13)
    levels = np.array([1.01, 1.6, 4.0]) * xb
    assert np.allclose(base.option_term(levels, q_i, q_mi), on, rtol=_ULPS, atol=0.0)
    for x in levels:
        shift = bad.value(float(x), q_i, q_mi) - base.value(float(x), q_i, q_mi)
        assert shift == pytest.approx(0.01 * on, abs=1e-13)


def _count_panels(monkeypatch, rows=None):
    """Record the number of panels per row of every _gk15_panels call, and
    in `rows` the number of rows (capital pairs) of each call."""
    import duopoly_invest.values as values

    panels = []
    real = values._gk15_panels

    def counting(f, edges):
        panels.append(edges.shape[-1] - 1)
        if rows is not None:
            rows.append(edges.shape[0])
        return real(f, edges)

    monkeypatch.setattr(values, "_gk15_panels", counting)
    return panels


def test_b_miss_integrates_one_call_of_a_few_panels(golden, monkeypatch):
    """A default B miss integrates one vectorized call over the fixed layout
    of six panels: its anchor (q_mi, q_mi), or the pair itself when it lies
    above _FAR_ABOVE * q_mi.  Below the kink that is all, the rest being a
    closed form; above it, up to _FAR_ABOVE * q_mi, one more call integrates
    a segment of two panels.  With the anchor cached, a miss below the kink
    integrates nothing and one above it only its segment."""
    import duopoly_invest.values as values

    panels = _count_panels(monkeypatch)
    for c in (0.0, 0.5, 1.0, 2.0):
        q_mi = DynamicValue(golden, c).q_floor + 1.3
        far = q_mi * values._FAR_ABOVE
        cases = ((q_mi - 1.25, [6]), (q_mi, [6]), (q_mi * 3.0, [6, 2]), (far, [6, 2]),
                 (far * (1.0 + 1e-9), [6]), (q_mi * 2.0 ** 16, [6]))
        for q_i, want in cases:
            panels.clear()
            DynamicValue(golden, c).B(q_i, q_mi)
            assert panels == want, (c, q_i, panels)
        fn = DynamicValue(golden, c)
        fn.B(q_mi, q_mi)
        for q_i, want in ((q_mi - 1.25, []), (q_mi * 3.0, [2])):
            panels.clear()
            fn.B(q_i, q_mi)
            assert panels == want, (c, q_i, panels)


def test_b_strict_tolerance_splits_panels(golden, monkeypatch):
    """A tolerance the fixed layout misses goes through split refinement and
    agrees with the default B."""
    import duopoly_invest.values as values

    defaults = {q: DynamicValue(golden, 1.0).B(*q) for q in ((1.0, 1.0), (0.8, 1.5))}
    panels = _count_panels(monkeypatch)
    monkeypatch.setattr(values, "_REL_TOL", 1e-13)
    for (q_i, q_mi), default in defaults.items():
        panels.clear()
        strict = DynamicValue(golden, 1.0).B(q_i, q_mi)
        assert len(panels) > 1 and panels[-1] > panels[0], (q_i, q_mi, panels)
        assert abs(strict - default) <= 1e-10 * (1.0 + abs(default))


def test_b_cache_is_bounded(golden, monkeypatch):
    """The B cache evicts its oldest entries at the cap, counting the
    anchors (q_mi, q_mi) it integrates for pairs below the kink, each
    cached before its pair, and keeps B a pure function of its
    arguments."""
    import duopoly_invest.values as values

    monkeypatch.setattr(values, "_B_CACHE_SIZE", 5)
    fn, fresh = DynamicValue(golden, 0.5), DynamicValue(golden, 0.5)
    args = [(fn.q_floor + 0.1 * k, 1.0 + 0.05 * k) for k in range(12)]
    for rounds in range(2):
        for a in args:
            assert fn.B(*a) == fresh.B(*a)
            assert len(fn._b_cache) <= 5
    assert all(q_i < q_mi for q_i, q_mi in args)
    inserted = [key for q_i, q_mi in args for key in ((q_mi, q_mi), (q_i, q_mi))]
    assert list(fn._b_cache) == inserted[-5:]


def test_dynamic_c0_matches_abstain_at_huge_capital(golden):
    """B stays accurate while the map's nodes stay in the floating-point
    range, and refuses once they leave it, without a numpy warning first."""
    fn = DynamicValue(golden, 0.0)
    va = AbstainValue(golden, golden.p_star)
    for q in (1e100, 1e200, 1e250, 1e270):
        x = 0.5 * fn.boundary.trigger(q, q)
        assert fn.value(x, q, q) / q == pytest.approx(va.value(x, q, q) / q, abs=3e-14), q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureNotConvergedError, match="floating-point range"):
            fn.B(1e290, 1e290)


def test_b_tail_outside_envelope_raises(golden):
    """The tail envelope is a hard check: a tail beyond it is an error."""
    fn = DynamicValue(golden, 1.0)
    fn._tail_envelope = lambda s: 1e-30
    with pytest.raises(QuadratureNotConvergedError, match="envelope"):
        fn.B(1.0, 1.0)


# ---------------------------------------------------------------------------
# B over blocks of capital pairs, and values at arrays of states
# ---------------------------------------------------------------------------

def _b_pairs(fn, rng, n):
    """Capital pairs below, at and past the kink q_i = q_mi."""
    pairs = []
    for k in range(n):
        q_mi = fn.q_floor + rng.uniform(0.05, 6.0)
        q_i = (fn.q_floor + rng.uniform(0.0, 1.0) * (q_mi - fn.q_floor), q_mi,
               q_mi * rng.uniform(1.0, 1e4))[k % 3]
        pairs.append((q_i, q_mi))
    return pairs


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
def test_b_block_bits_do_not_depend_on_the_block(golden, c):
    """A pair's B and B_qmi are bit-identical integrated alone and at any
    position of random blocks, of one quadrature pass or several, at and
    around the pass size."""
    import duopoly_invest.values as values

    rng = np.random.default_rng(43)
    n = values._BLOCK_PAIRS
    pairs = _b_pairs(DynamicValue(golden, c), rng, 2 * n + 2)
    alone = []
    for q in pairs:
        fn = DynamicValue(golden, c)
        alone.append((fn.B(*q), fn._b_cache[q][1]))
    for size in (1, 2, 7, 33, 75, n - 1, n, n + 1, 2 * n + 1):
        for _ in range(3):
            pick = rng.choice(len(pairs), size=size, replace=False)
            q_i, q_mi = np.array([pairs[k] for k in pick]).T
            b, b_qmi = DynamicValue(golden, c).B_block(q_i, q_mi)
            for j, k in enumerate(pick):
                assert (b[j], b_qmi[j]) == alone[k], (c, size, pairs[k])


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
def test_b_bits_do_not_depend_on_the_anchor(golden, monkeypatch, c):
    """A pair's B and B_qmi are bit-identical whether its anchor (q_mi, q_mi)
    is integrated in the same call, found in the cache, or evicted from a
    cache of one entry and integrated again, below and above the kink."""
    import duopoly_invest.values as values

    q_mi = DynamicValue(golden, c).q_floor + 1.3
    pairs = [(q_mi - 1.2, q_mi), (q_mi * (1.0 - 1e-12), q_mi), (q_mi * 3.0, q_mi),
             (q_mi * (1.0 + 1e-12), q_mi), (q_mi * 12.0, q_mi)]

    def entry(fn, q):
        return tuple(float(v) for v in fn.B_block(*q))

    same_call = [entry(DynamicValue(golden, c), q) for q in pairs]
    cached = DynamicValue(golden, c)
    cached.B(q_mi, q_mi)
    assert [entry(cached, q) for q in pairs] == same_call
    monkeypatch.setattr(values, "_B_CACHE_SIZE", 1)
    evicted = DynamicValue(golden, c)
    assert [entry(evicted, q) for q in pairs] == same_call
    assert list(evicted._b_cache) == [pairs[-1]]


def test_gk15_fused_sums_match_separate_sums(golden):
    """_gk15_panels forms the Kronrod integrals and error gauges from one
    matrix product; they match the node sets weighted and summed on their
    own, (vals * w).sum(-1), within 4 ulps of the sums of the absolute
    terms (the integrands change sign inside node sets, so the sums
    themselves can cancel)."""
    import duopoly_invest.values as values

    rng = np.random.default_rng(71)
    for c in (0.0, 0.5, 1.0, 2.0):
        fn = DynamicValue(golden, c)
        q_i, q_mi = fn.q_floor + rng.uniform(0.05, 6.0, (2, 64))
        q_i[::3] = q_mi[::3] * rng.uniform(1.0, 1e4, len(q_i[::3]))
        f = fn._integrand(q_i, q_mi)
        edges = np.broadcast_to(values._B_LAYOUT, (64, 7)).copy()
        k15, gauge = values._gk15_panels(f, edges)
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        vals = f((edges[:, :-1] + half)[..., None] + half[..., None] * values._GK_NODES)
        k_sep, g_sep, k_abs, g_abs = ((v * w).sum(axis=-1) * half for v, w in (
            (vals, values._GK_WEIGHTS), (vals, values._G7_WEIGHTS),
            (np.abs(vals), values._GK_WEIGHTS), (np.abs(vals), values._G7_WEIGHTS)))
        assert np.all(np.abs(k15 - k_sep) <= 4 * np.spacing(k_abs)), c
        assert np.all(np.abs(gauge - np.abs(k_sep - g_sep)) <= 4 * np.spacing(k_abs + g_abs)), c


def test_b_block_integrates_each_distinct_pair_once(golden, monkeypatch):
    """Duplicates in a block, and pairs already cached, are not integrated
    again: each distinct anchor (q_mi, q_mi), and each pair above
    _FAR_ABOVE * q_mi, is integrated whole once, each pair between the two
    integrates one segment, and a pair below the kink none.  Every entry is
    the pair's B, in the shape of the arguments."""
    import duopoly_invest.values as values

    whole, segments = [], []
    real = values.DynamicValue._integral

    def counting(self, q_i, q_mi, edges, base):
        whole_layout = edges.shape[1] == len(values._B_LAYOUT)
        (whole if whole_layout else segments).extend(zip(q_i.tolist(), q_mi.tolist()))
        return real(self, q_i, q_mi, edges, base)

    monkeypatch.setattr(values.DynamicValue, "_integral", counting)
    fn = DynamicValue(golden, 0.5)
    pairs = _b_pairs(fn, np.random.default_rng(47), 40)
    # Pairs above the kink that share their anchors with pairs below it.
    pairs += [(3.0 * q_mi, q_mi) for _, q_mi in pairs[:4]]
    fn.B(*pairs[0])
    rows = [pairs[k % 44] for k in range(132)]
    q_i, q_mi = np.array(rows).reshape(11, 12, 2).transpose(2, 0, 1)
    b, b_qmi = fn.B_block(q_i, q_mi)
    near = [q for q in pairs if q[0] <= values._FAR_ABOVE * q[1]]
    assert sorted(whole) == sorted({(q_mi, q_mi) for _, q_mi in near}
                                   | {q for q in pairs if q not in near})
    assert sorted(segments) == sorted(q for q in near if q[0] > q[1])
    assert len(segments) >= 4
    assert b.shape == b_qmi.shape == (11, 12)
    fresh = DynamicValue(golden, 0.5)
    for (q, got) in zip(rows, b.ravel()):
        assert got == fresh.B(*q)


def test_b_strict_tolerance_splits_only_the_rows_that_miss_it(golden, monkeypatch):
    """With a tolerance the fixed layout misses for some pairs, exactly the
    pairs that split alone go through split refinement, each on its own,
    and every pair keeps its bits."""
    import duopoly_invest.values as values

    monkeypatch.setattr(values, "_REL_TOL", 1e-13)
    split_rows = []
    real = values.DynamicValue._split_until
    monkeypatch.setattr(values.DynamicValue, "_split_until",
                        lambda self, f, edges, base: split_rows.append(edges)
                        or real(self, f, edges, base))
    qf = DynamicValue(golden, 1.0).q_floor
    pairs = [(1.0, 1.0), (2.5, 0.9), (0.8, 1.5), (5.0, 5.0), (qf, qf), (20.0, 1.0), (qf, 4.0)]
    alone, splits = [], []
    for q in pairs:
        split_rows.clear()
        alone.append(DynamicValue(golden, 1.0).B(*q))
        splits.append(len(split_rows))
    assert 0 < sum(splits) < len(pairs), splits
    split_rows.clear()
    q_i, q_mi = np.array(pairs).T
    b, _ = DynamicValue(golden, 1.0).B_block(q_i, q_mi)
    assert len(split_rows) == sum(splits)
    assert all(edges.ndim == 1 for edges in split_rows)   # one row at a time
    assert b.tolist() == alone


def test_b_block_errors_match_the_pair_alone(golden):
    """An envelope failure and a floating-point-range failure inside a
    block raise the error of the failing pair alone.  A pair whose anchor
    (q_mi, q_mi) fails raises the anchor's error."""
    good = [(1.0, 1.2), (2.0, 0.7), (0.9, 2.0)]

    def error(fn, pairs):
        with pytest.raises(QuadratureNotConvergedError) as info:
            fn.B_block(*np.array(pairs).T)
        return str(info.value)

    far = DynamicValue(golden, 0.0)
    assert error(far, good + [(1e290, 1e290)] + good) == error(DynamicValue(golden, 0.0),
                                                               [(1e290, 1e290)])
    assert "floating-point range" in error(far, [(1e290, 1e290)])

    def tight(fn):
        real = fn._tail_envelope
        fn._tail_envelope = lambda s: np.where(s > 5.0, 1e-30, real(s))
        return fn

    in_block = error(tight(DynamicValue(golden, 1.0)), good + [(4.0, 2.5)] + good)
    assert in_block == error(tight(DynamicValue(golden, 1.0)), [(4.0, 2.5)])
    assert "envelope" in in_block
    # (0.9, 3.1) has s0 = 4, but its anchor's integral starts at s = 6.2.
    assert error(tight(DynamicValue(golden, 1.0)), [(0.9, 3.1)]) == error(
        tight(DynamicValue(golden, 1.0)), [(3.1, 3.1)])


def test_b_block_through_a_small_cache(golden, monkeypatch):
    """A 12-pair block through a cache of 5 returns every pair's B and
    B_qmi and leaves the last 5 pairs it integrated."""
    import duopoly_invest.values as values

    monkeypatch.setattr(values, "_B_CACHE_SIZE", 5)
    fn = DynamicValue(golden, 0.5)
    pairs = _b_pairs(fn, np.random.default_rng(53), 12)
    b, b_qmi = fn.B_block(*np.array(pairs).T)
    assert list(fn._b_cache) == pairs[-5:]
    for k, q in enumerate(pairs):
        fresh = DynamicValue(golden, 0.5)
        assert (b[k], b_qmi[k]) == (fresh.B(*q), fresh._b_cache[q][1])


def test_b_block_memory_is_bounded(golden, monkeypatch):
    """10,000 distinct pairs go through B_block in bounded memory: cache
    lookups a chunk at a time and quadrature a block of _BLOCK_PAIRS at a
    time.  The cache is capped at one block, so that its entries do not
    count."""
    import tracemalloc

    import duopoly_invest.values as values

    monkeypatch.setattr(values, "_B_CACHE_SIZE", values._BLOCK_PAIRS)
    fn = DynamicValue(golden, 0.5)
    rng = np.random.default_rng(59)
    q_i, q_mi = fn.q_floor + rng.uniform(0.0, 6.0, (2, 10_000))
    tracemalloc.start()
    try:
        b, _ = fn.B_block(q_i, q_mi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak
    assert np.all(np.isfinite(b))


def _state_arrays(fn, rng):
    """States below, on and above the own trigger at random capital pairs,
    as an (n, 5) array of shock levels against (n, 1) capitals."""
    own, opp = fn.strategy_pair()
    floor = max(b.q_floor for b in (own, opp))
    q_i, q_mi = floor + rng.uniform(0.05, 3.0, (2, 8, 1))
    q_i[0] = q_mi[0]   # one pair on the kink
    cap = fn._own_trigger(q_i, q_mi) if isinstance(fn, ValueFunction) \
        else fn.base._own_trigger(q_i, q_mi)
    return cap * np.array([0.05, 0.6, 1.0, 1.3, 2.5]), q_i, q_mi


def test_array_states_match_scalar_calls(golden):
    """value and partials at broadcastable arrays of states equal the
    per-state scalar calls within 1e-15 relative, for every kind, below, on
    and above the trigger; x**2 V_xx above the trigger included."""
    rng = np.random.default_rng(61)
    kinds = [DynamicValue(golden, c) for c in (0.0, 0.5, 1.0)] + [
        AbstainValue(golden, golden.p_star), SoleInvestorValue(golden, 1.2 * golden.p_star),
        PerturbedValue(DynamicValue(golden, 0.5), 1.01)]
    for fn in kinds:
        xs, q_i, q_mi = _state_arrays(fn, rng)
        vals = fn.value(xs, q_i, q_mi)
        arr = fn.evaluate(xs, q_i, q_mi)
        arr["x"], arr["xx"] = arr["x"] / xs, arr["xx"] / xs ** 2
        assert vals.shape == xs.shape and all(v.shape == xs.shape for v in arr.values())
        for (r, k), x in np.ndenumerate(xs):
            state = (float(x), float(q_i[r, 0]), float(q_mi[r, 0]))
            v = fn.value(*state)
            assert abs(vals[r, k] - v) <= 1e-15 * (1.0 + abs(v)), (fn.kind, state)
            one = fn.evaluate(*state)
            one["x"], one["xx"] = one["x"] / state[0], one["xx"] / state[0] ** 2
            for key, d in one.items():
                assert isinstance(d, float)
                assert abs(arr[key][r, k] - d) <= 1e-15 * (1.0 + abs(d)), (fn.kind, key, state)


def test_evaluate_returns_every_entry(golden):
    """evaluate takes states only and returns the six entries on every
    call: floats for float states, and arrays of the broadcast shape for
    array states below, at and above the own trigger, each element equal
    bit for bit to the entry of the one-state call."""
    keys = {"v", "x", "xx", "qi", "qmi", "phi"}
    for fn in (AbstainValue(golden, golden.p_star), SoleInvestorValue(golden, 1.2 * golden.p_star),
               DynamicValue(golden, 0.5), PerturbedValue(DynamicValue(golden, 0.5), 1.01)):
        q_i, q_mi = 0.3 + np.array([[0.9], [1.4]]), 0.3 + np.array([[1.2], [0.5]])
        xs = getattr(fn, "base", fn)._own_trigger(q_i, q_mi) * np.array([0.5, 1.0, 1.7])
        arr = fn.evaluate(xs, q_i, q_mi)
        assert set(arr) == keys, fn.kind
        for key, got in arr.items():
            assert isinstance(got, np.ndarray) and got.shape == xs.shape, (fn.kind, key)
        for (r, k), x in np.ndenumerate(xs):
            one = fn.evaluate(float(x), float(q_i[r, 0]), float(q_mi[r, 0]))
            assert set(one) == keys, fn.kind
            for key, d in one.items():
                assert isinstance(d, float), (fn.kind, key)
                assert arr[key][r, k] == d, (fn.kind, key, r, k)


def test_second_derivative_above_trigger_matches_differences(golden):
    """Above the own trigger x**2 V_xx comes from the chain rule through
    phi_x = 1/T_qi; it matches a central second difference of the value."""
    for fn in (SoleInvestorValue(golden, 1.1 * golden.p_star), DynamicValue(golden, 0.5),
               DynamicValue(golden, 1.0)):
        own = fn.strategy_pair()[0]
        for q_i, q_mi in ((own.q_floor + 0.3, own.q_floor + 1.1), (own.q_floor + 1.4, own.q_floor + 0.2)):
            for frac in (1.2, 2.0):
                x = frac * own.trigger(q_i, q_mi)
                h = 1e-3 * x
                fd = (fn.value(x + h, q_i, q_mi) - 2.0 * fn.value(x, q_i, q_mi)
                      + fn.value(x - h, q_i, q_mi)) / h ** 2
                got = fn.evaluate(x, q_i, q_mi)["xx"] / x ** 2
                assert got == pytest.approx(fd, rel=1e-5, abs=1e-9), (fn.kind, q_i, q_mi, frac)
