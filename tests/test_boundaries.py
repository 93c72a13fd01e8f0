import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duopoly_invest import boundaries
from duopoly_invest.boundaries import (
    _ARRAY_ROOTS,
    Boundary,
    ConstantPriceBoundary,
    DynamicBoundary,
    InfiniteBoundary,
    boundary_from_json,
)
from duopoly_invest.errors import (
    BelowFloorError,
    KindMismatchError,
    UsageError,
    ZeroCapacityError,
)
from duopoly_invest.model import derive_params


@pytest.fixture(scope="module")
def golden():
    return derive_params(1.0, 0.0, math.sqrt(2.0), 1.5)


def test_constant_trigger(golden):
    """Without a premium the trigger is p * (q_i + q_mi)**(1/gamma) bit for
    bit, at one pair and over arrays; it checks the floor 0."""
    p2 = derive_params(1.5, 0.0, 1.0, 2.0)
    b = ConstantPriceBoundary(p2, 2.0)
    assert b.trigger(2.0, 2.0) == pytest.approx(4.0, abs=1e-14)
    with pytest.raises(ZeroCapacityError):
        b.trigger(0.0, 0.0)
    b = ConstantPriceBoundary(golden, 1.3)
    q_i, q_mi = np.array([0.2, 1.0, 7.5]), np.array([1.1, 0.0, 3.0])
    assert np.array_equal(b.trigger(q_i, q_mi), 1.3 * (q_i + q_mi) ** (1.0 / golden.gamma))
    assert b.trigger(0.2, 1.1) == 1.3 * (0.2 + 1.1) ** (1.0 / golden.gamma)
    with pytest.raises(BelowFloorError):
        b.trigger(-1.0, 2.0)


def test_dynamic_c0_trigger_is_p_star(golden):
    b = DynamicBoundary(golden, 0.0)
    assert b.trigger(0.5, 0.5) == pytest.approx(golden.p_star, rel=1e-13)


def test_dynamic_c1_floor_and_trigger(golden):
    b = DynamicBoundary(golden, 1.0)
    q_floor = 1.0 * (2 * golden.gamma - 1) / golden.p_star
    assert b.q_floor == pytest.approx(q_floor, rel=1e-14)
    expected = (golden.p_star + 1.0 / q_floor) * (2 * q_floor) ** (1 / golden.gamma)
    assert b.trigger(q_floor, q_floor) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(BelowFloorError):
        b.trigger(0.5 * q_floor, q_floor)


def test_check_floor_scalars_and_arrays(golden):
    b = DynamicBoundary(golden, 1.0)
    below = 0.9 * b.q_floor
    for q in (below, np.float64(below), np.array([b.q_floor, below])):
        with pytest.raises(BelowFloorError):
            b._check_floor(b.q_floor, q)
    b._check_floor(b.q_floor, np.float64(b.q_floor), np.full(3, b.q_floor))


def _levels(b, q_mi):
    """Shock levels below and at the floor trigger, just above it, around
    the kink q = q_mi (1e-15 and 1e-9 relative), across the Newton range and
    at 1e3 times the floor and kink triggers."""
    t_floor, t_kink = b.trigger(b.q_floor, q_mi), b.trigger(q_mi, q_mi)
    return np.concatenate((
        [0.5 * t_floor, t_floor, t_floor * (1.0 + 1e-9), t_floor * (1.0 + 1e-6)],
        t_kink * (1.0 + np.array([-1e-9, -1e-15, 0.0, 1e-15, 1e-9])),
        t_floor * np.exp(np.linspace(0.01, 4.0, 25)),
        [1e3 * t_floor, 1e3 * t_kink]))


def test_newton_base_capacity_matches_brentq(golden, brentq_inverse):
    """base_capacity over an array of levels, which loops the scalar
    inverse, and at each level alone agree with brentq's inverse, and
    with each other, within 1e-12 * max(1, q): at the floor, just above the
    floor trigger, across the kink q = q_mi and far above the trigger.  At
    q_mi = q_floor the kink is the floor, where the trigger's slope in q
    vanishes, so a rounding of x moves the root by about
    1e-16 / sqrt(x / trigger - 1) relative: there both must reproduce x
    instead."""
    for c in (0.5, 1.0, 2.0):
        b = DynamicBoundary(golden, c)
        qf = b.q_floor
        for q_mi in (qf, qf + 0.3, qf + 1.0, 3.0):
            xs = _levels(b, q_mi)
            got = b.base_capacity(xs, q_mi)
            one = np.array([b.base_capacity(float(x), q_mi) for x in xs])
            assert got[0] == got[1] == one[0] == one[1] == qf
            if q_mi == qf:
                for q in (got, one):
                    up = xs > b.trigger(qf, q_mi)
                    assert np.all(np.abs(b.trigger(q[up], q_mi) / xs[up] - 1.0) <= 1e-15)
                continue
            ref = brentq_inverse(b, xs, q_mi)
            for q in (got, one):
                assert np.all(np.abs(q - ref) <= 1e-12 * np.maximum(1.0, ref)), (c, q_mi)
            assert np.all(np.abs(got - one) <= 1e-12 * np.maximum(1.0, one)), (c, q_mi)
            assert got[4] < q_mi < got[8]


def _loop(b, xs, q_mi, k):
    """The scalar solver at each point, the reference for the vectorized pass."""
    q_mis = np.broadcast_to(q_mi, np.shape(xs))
    return np.array([b._inverse(x, w, k) for x, w in zip(xs.tolist(), q_mis.tolist())])


def test_vectorized_roots_match_scalar_loop_and_brentq(golden, brentq_inverse):
    """An array of at least _ARRAY_ROOTS levels goes through the vectorized
    Newton pass, which agrees with the scalar solver within 2e-15 relative
    and with brentq's inverse within 1e-12 * max(1, q): at the floor,
    just above the floor trigger, on both sides of the kink q = q_mi, far
    above the trigger, and for psi (k = 2).  At q_mi = q_floor the root is
    ill-conditioned (see test_newton_base_capacity_matches_brentq), so
    there it must reproduce x instead."""
    for c in (0.5, 1.0, 2.0):
        b = DynamicBoundary(golden, c)
        qf = b.q_floor
        for q_mi in (qf, qf + 0.3, qf + 1.0, 3.0):
            t_floor = b.trigger(qf, q_mi)
            xs = np.concatenate((_levels(b, q_mi),
                                 t_floor * np.exp(np.linspace(0.02, 6.0, _ARRAY_ROOTS))))
            got = b.base_capacity(xs, q_mi)
            assert got[0] == got[1] == qf
            if q_mi == qf:
                up = xs > t_floor
                assert np.all(np.abs(b.trigger(got[up], q_mi) / xs[up] - 1.0) <= 1e-15)
                continue
            one, ref = _loop(b, xs, q_mi, 1), brentq_inverse(b, xs, q_mi)
            assert np.all(np.abs(got - one) <= 2e-15 * one), (c, q_mi)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, ref)), (c, q_mi)
            assert got[4] < q_mi < got[8]
        t_floor = b.trigger(qf, qf)
        xs = t_floor * np.concatenate((
            [0.5, 1.0, 1.0 + 1e-15, 1.0 + 1e-9, 1e3],
            np.exp(np.linspace(0.01, 5.0, _ARRAY_ROOTS))))
        got = b.symmetric_base_capacity(xs)
        one, ref = _loop(b, xs, 0.0, 2), brentq_inverse(b, xs)
        assert got[0] == got[1] == qf
        assert np.all(np.abs(got - one) <= 2e-15 * one), c
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, ref)), c


def test_small_arrays_loop_the_scalar_solver(golden, monkeypatch):
    """Below _ARRAY_ROOTS points an array is a loop of the scalar solver,
    bit for bit, and never reaches the vectorized pass."""
    def refused(*args):
        raise AssertionError("the vectorized pass ran below _ARRAY_ROOTS points")

    monkeypatch.setattr(Boundary, "_inverse_array", refused)
    b = DynamicBoundary(golden, 1.0)
    q_mi = b.q_floor + 0.7
    xs = b.trigger(b.q_floor, q_mi) * np.exp(np.linspace(0.0, 4.0, _ARRAY_ROOTS - 1))
    for n in (1, 7, _ARRAY_ROOTS - 1):
        assert np.array_equal(b.base_capacity(xs[:n], q_mi), _loop(b, xs[:n], q_mi, 1))
        assert np.array_equal(b.symmetric_base_capacity(xs[:n]), _loop(b, xs[:n], 0.0, 2))


def test_vectorized_roots_raise_past_the_iteration_cap(golden, monkeypatch):
    """Like the scalar solver, the vectorized pass refuses a root that is
    not converged within _NEWTON_MAX_ITER sweeps."""
    from duopoly_invest.errors import RootBracketError

    monkeypatch.setattr(boundaries, "_NEWTON_MAX_ITER", 1)
    b = DynamicBoundary(golden, 1.0)
    xs = b.trigger(b.q_floor, b.q_floor) * np.exp(np.linspace(0.5, 4.0, _ARRAY_ROOTS))
    with pytest.raises(RootBracketError):
        b.symmetric_base_capacity(xs)
    with pytest.raises(RootBracketError):
        b._inverse(float(xs[-1]), 0.0, 2)


def test_evaluate_solves_many_paste_points_in_one_pass(golden, monkeypatch):
    """One evaluate of at least _ARRAY_ROOTS states above the own trigger
    solves every paste point in one base_capacity call, with no scalar
    solve."""
    from duopoly_invest.values import DynamicValue

    fn = DynamicValue(golden, 0.5)
    rng = np.random.default_rng(67)
    q_i, q_mi = fn.q_floor + rng.uniform(0.05, 4.0, (2, _ARRAY_ROOTS))
    xs = fn.boundary.trigger(q_i, q_mi) * rng.uniform(1.05, 3.0, _ARRAY_ROOTS)
    calls = {"base_capacity": 0, "_inverse": 0}
    for name in calls:
        real = getattr(Boundary, name)
        monkeypatch.setattr(Boundary, name, lambda self, *a, real=real, name=name: (
            calls.__setitem__(name, calls[name] + 1) or real(self, *a)))
    phi = fn.evaluate(xs, q_i, q_mi)["phi"]
    assert calls == {"base_capacity": 1, "_inverse": 0}
    assert np.all(np.abs(fn.boundary.trigger(phi, q_mi) / xs - 1.0) <= 1e-15)


_KINDS = {
    "constant_price": lambda pr: ConstantPriceBoundary(pr, pr.p_star),
    "infinite": InfiniteBoundary,
    "dynamic-c0": lambda pr: DynamicBoundary(pr, 0.0),
    "dynamic-c1": lambda pr: DynamicBoundary(pr, 1.0),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_base_capacity_shapes(golden, kind):
    """One shock level and one opponent capital give a float; arrays of x
    and q_mi broadcast, and each entry equals the call at its own point."""
    b = _KINDS[kind](golden)
    x = 2.0 * golden.p_star * 4.0 ** (1.0 / golden.gamma)
    q_mis = [b.q_floor, 1.0, 2.0]
    assert isinstance(b.base_capacity(x, 1.0), float)
    grid = b.base_capacity(np.array([[x], [2.0 * x]]), np.array(q_mis))
    assert grid.shape == (2, 3)
    for (i, j), q in np.ndenumerate(grid):
        assert q == pytest.approx(b.base_capacity((1 + i) * x, q_mis[j]), rel=1e-15, abs=0.0)
    if kind != "infinite":
        assert np.all(grid > 0.0)


def test_symmetric_newton_matches_brentq(golden, brentq_inverse):
    """psi against brentq's inverse within 1e-12 * max(1, q), and
    against its closed form at c = 0."""
    for c in (0.5, 1.0, 2.0):
        b = DynamicBoundary(golden, c)
        t_floor = b.trigger(b.q_floor, b.q_floor)
        xs = t_floor * np.concatenate((
            [0.5, 1.0, 1.0 + 1e-15, 1.0 + 1e-9, 1e3],
            np.exp(np.linspace(0.01, 5.0, 60))))
        ref = brentq_inverse(b, xs)
        got = b.symmetric_base_capacity(xs)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, ref)), c
        assert got[0] == got[1] == b.q_floor
    b0 = DynamicBoundary(golden, 0.0)
    xs = golden.p_star * np.exp(np.linspace(-3.0, 5.0, 40))
    assert np.array_equal(b0.symmetric_base_capacity(xs),
                          0.5 * (xs / golden.p_star) ** golden.gamma)


def test_base_capacity_at_tiny_premium(golden):
    """At a premium near 1e-303 the floor and the roots are near 1e-303
    too: the Newton step's premium term must not underflow, and the solver
    stops on a relative step, so each root reproduces its shock level to
    1e-11 relative (phi at one level and over an array, and psi)."""
    b = DynamicBoundary(golden, 1.6138520769888095e-303)
    qf = b.q_floor
    for frac in (1.05, 1.3, 2.0):
        for q_mi in (qf, 2.0 * qf, 1.0):
            x = frac * b.trigger(qf, q_mi)
            for q in (b.base_capacity(x, q_mi), b.base_capacity(np.array([x]), q_mi)[0],
                      *b.base_capacity(np.full(_ARRAY_ROOTS, x), q_mi)):
                assert qf <= q
                assert abs(b._raw_trigger(q, q_mi) / x - 1.0) <= 1e-11, (frac, q_mi)
        x = frac * b.trigger(qf, qf)
        for q in (b.symmetric_base_capacity(x),
                  *b.symmetric_base_capacity(np.full(_ARRAY_ROOTS, x))):
            assert abs(b._raw_trigger(q, q) / x - 1.0) <= 1e-11, frac


def test_trigger_grad_matches_central_difference(golden):
    """The trigger gradient on both sides of the kink q_i = q_mi, and for the
    constant-price trigger, against central differences."""
    h = 1e-6
    for b in (ConstantPriceBoundary(golden, 1.2 * golden.p_star),
              DynamicBoundary(golden, 0.0), DynamicBoundary(golden, 1.0)):
        for q_i, q_mi in ((1.0, 1.5), (1.5, 1.0), (2.2, 0.9), (0.9, 2.2)):
            fd = ((b.trigger(q_i + h, q_mi) - b.trigger(q_i - h, q_mi)) / (2.0 * h),
                  (b.trigger(q_i, q_mi + h) - b.trigger(q_i, q_mi - h)) / (2.0 * h))
            for got, want in zip(b.trigger_grad(q_i, q_mi), fd):
                assert got == pytest.approx(want, rel=1e-8), (b.kind, q_i, q_mi)


def test_trigger_diverges_with_capital(golden):
    for b in (ConstantPriceBoundary(golden, 1.0), DynamicBoundary(golden, 1.0)):
        assert b.trigger(1e9, 1.0) > 1e5


def test_base_capacity_constant_price(golden):
    p2 = derive_params(1.5, 0.0, 1.0, 2.0)
    b = ConstantPriceBoundary(p2, 2.0)
    assert b.base_capacity(2.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    # below the trigger at existing capacity: no investment needed
    assert b.base_capacity(0.5, 3.0) == 0.0


def test_base_capacity_c0_reduction(golden):
    b = DynamicBoundary(golden, 0.0)
    x = golden.p_star * 2.0 ** (1 / golden.gamma)
    assert b.base_capacity(x, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_infinite_boundary(golden):
    """p = inf: an infinite trigger, elementwise over arrays, with the same
    floor and zero-capacity checks as any trigger."""
    b = InfiniteBoundary(golden)
    assert b.trigger(1.0, 1.0) == math.inf
    assert b.base_capacity(100.0, 1.0) == 0.0
    got = b.trigger(np.array([0.2, 1.0, 7.5]), np.array([1.1, 0.0, 3.0]))
    assert got.shape == (3,) and np.all(got == math.inf)
    with pytest.raises(BelowFloorError):
        b.trigger(-1.0, 2.0)
    with pytest.raises(ZeroCapacityError):
        b.trigger(0.0, 0.0)


def test_symmetric_base_capacity_c0(golden):
    b = DynamicBoundary(golden, 0.0)
    x = golden.p_star * 2.0 ** (1 / golden.gamma)
    assert b.symmetric_base_capacity(x) == pytest.approx(1.0, rel=1e-13)
    assert b.symmetric_base_capacity(0.5 * x) == pytest.approx(
        0.5 * (0.5 * x / golden.p_star) ** golden.gamma, rel=1e-13)


def test_symmetric_base_capacity_clamped_at_floor(golden):
    b = DynamicBoundary(golden, 1.0)
    low_x = 0.5 * b.trigger(b.q_floor, b.q_floor)
    assert b.symmetric_base_capacity(low_x) == b.q_floor


def test_symmetric_round_trip_c1(golden):
    """trigger(psi(x), psi(x)) = x whenever psi is off the floor."""
    b = DynamicBoundary(golden, 1.0)
    x_free = b.trigger(b.q_floor, b.q_floor)
    rng = np.random.default_rng(11)
    xs = x_free * rng.uniform(1.01, 8.0, size=50)
    psi = np.asarray(b.symmetric_base_capacity(xs))
    back = np.array([b.trigger(q, q) for q in psi])
    assert np.max(np.abs(back - xs) / xs) < 1e-10


def test_phi_round_trip_dynamic(golden):
    b = DynamicBoundary(golden, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        q_mi = rng.uniform(b.q_floor, 5.0)
        x = rng.uniform(1.0, 3.0) * b.trigger(b.q_floor, q_mi)
        phi = b.base_capacity(x, q_mi)
        if phi > b.q_floor:
            assert b.trigger(phi, q_mi) == pytest.approx(x, rel=1e-10)


def test_phi_trigger_equivalence(golden):
    """q_i < phi(x, q_mi) iff x > trigger(q_i, q_mi), away from ties."""
    b = DynamicBoundary(golden, 0.5)
    rng = np.random.default_rng(9)
    for _ in range(200):
        q_i = rng.uniform(b.q_floor, 4.0)
        q_mi = rng.uniform(b.q_floor, 4.0)
        x = rng.uniform(0.3, 3.0) * b.trigger(q_i, q_mi)
        if abs(x - b.trigger(q_i, q_mi)) < 1e-9 * x:
            continue
        assert (q_i < b.base_capacity(x, q_mi) - 1e-11) == (x > b.trigger(q_i, q_mi))


def test_trigger_monotone_lemma(golden):
    """Strictly increasing in both capitals on the admissible domain."""
    for c in (0.0, 0.5, 1.0):
        b = DynamicBoundary(golden, c)
        qs = np.linspace(max(b.q_floor, 0.05), 6.0, 12)
        h = 1e-6
        for q_i in qs:
            for q_mi in qs:
                up_i = b.trigger(q_i + h, q_mi) - b.trigger(q_i, q_mi)
                up_mi = b.trigger(q_i, q_mi + h) - b.trigger(q_i, q_mi)
                assert up_i > 0.0
                assert up_mi > 0.0


def test_dynamic_dominates_p_star(golden):
    b = DynamicBoundary(golden, 0.7)
    rng = np.random.default_rng(2)
    for _ in range(100):
        q_i = rng.uniform(b.q_floor, 6.0)
        q_mi = rng.uniform(b.q_floor, 6.0)
        floor_trig = golden.p_star * (q_i + q_mi) ** (1 / golden.gamma)
        assert b.trigger(q_i, q_mi) >= floor_trig


@settings(max_examples=80, deadline=None)
@given(p=st.floats(0.1, 10.0), x=st.floats(0.01, 50.0), q_mi=st.floats(0.0, 10.0))
def test_constant_price_round_trip(p, x, q_mi):
    golden = derive_params(1.0, 0.0, math.sqrt(2.0), 1.5)
    b = ConstantPriceBoundary(golden, p)
    phi = b.base_capacity(x, q_mi)
    if phi > 0.0:
        assert b.trigger(phi, q_mi) == pytest.approx(x, rel=1e-10)
    else:
        assert x <= b.trigger(1e-300 + 1e-12, q_mi) or (x / p) ** golden.gamma <= q_mi + 1e-9


def test_boundary_json(golden):
    assert boundary_from_json({"kind": "constant_price", "p": 2.0}, golden).p == 2.0
    assert boundary_from_json({"kind": "dynamic_c", "c": 0.5}, golden).c == 0.5
    assert boundary_from_json({"kind": "infinite"}, golden).kind == "infinite"
    with pytest.raises(UsageError):
        boundary_from_json({"kind": "constant_price"}, golden)
    with pytest.raises(UsageError):
        boundary_from_json({"kind": "nope"}, golden)
    with pytest.raises(UsageError):
        ConstantPriceBoundary(golden, -1.0)


def test_kinds_are_parameter_choices_of_one_surface(golden):
    """Each kind is a Boundary with its (p, c) and round-trips through its
    JSON block."""
    for b, p, c in ((ConstantPriceBoundary(golden, 2.0), 2.0, 0.0),
                    (DynamicBoundary(golden, 0.5), golden.p_star, 0.5),
                    (InfiniteBoundary(golden), math.inf, 0.0)):
        assert isinstance(b, Boundary)
        assert (b.p, b.c) == (p, c)
        back = boundary_from_json(b.to_json(), golden)
        assert type(back) is type(b) and back == b


def test_kind_mismatch(golden):
    from duopoly_invest.boundaries import require_same_constant_price

    cp = ConstantPriceBoundary(golden, 2.0)
    dyn = DynamicBoundary(golden, 1.0)
    assert require_same_constant_price(cp, cp) == 2.0
    # c = 0 degenerates to the competitive constant threshold
    d0 = DynamicBoundary(golden, 0.0)
    assert require_same_constant_price(d0, d0) == golden.p_star
    with pytest.raises(KindMismatchError):
        require_same_constant_price(cp, dyn)
    with pytest.raises(KindMismatchError):
        require_same_constant_price(cp, ConstantPriceBoundary(golden, 3.0))
    with pytest.raises(KindMismatchError):
        require_same_constant_price(InfiniteBoundary(golden), InfiniteBoundary(golden))
