"""Capital-path pairs consistent with reflection strategies.

Every construction works on one discretized shock path and returns a pair of
nondecreasing capital paths on the path's time grid.  Investment is a
singular control: capital moves only where the running maximum of the shock
sets a record, so an Outcome stores both capitals at knots, the grid indices
at which they may change, and holds each until the next knot.  Discrete-time
semantics: at each grid point the running-supremum update uses the opponent
capital carried over from the previous grid point (for the built-in
symmetric constructions this matters only at O(dt)).  A discrete jump at
t = 0 is allowed; later increments come from running suprema of continuous
functionals and are O(sigma * sqrt(dt)) per step.

Discounted Stieltjes integrals discount each increment over (t_{k-1}, t_k]
at the interval midpoint, which halves the O(dt) bias of cost accounting;
the t = 0 jump carries full weight.  The accumulators read the knots: the
profit flow's capital factor is constant between knots, and increments sit
at knots.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .boundaries import (
    Boundary,
    DynamicBoundary,
    _reference_base_capacity,
    require_same_constant_price,
)
from .errors import BelowFloorError, InvalidSplitError, KindMismatchError
from .model import ModelParams
from .paths import ShockPath, running_sup

# Half-width of check_consistency's support band, in shock standard
# deviations per step.
_BAND_SIGMAS = 3.0
# Block length of _records' block maxima.
_RECORD_BLOCK = 64


@dataclass(frozen=True)
class Outcome:
    """Both firms' capital paths on one shock path, stored at knots.

    knots are the grid indices at which a capital may change, knots[0] == 0,
    and they include every running-max record of the path; K1 and K2 are the
    capitals at the knots, each held until the next knot.  Without knots, K1
    and K2 are full-grid arrays and every grid index is a knot.  Q1 and Q2
    are the full-grid arrays, built on first use.
    """

    path: ShockPath
    K1: np.ndarray
    K2: np.ndarray
    q1_0: float
    q2_0: float
    construction: str
    knots: np.ndarray | None = None

    def __post_init__(self):
        if self.knots is None:
            object.__setattr__(self, "knots", np.arange(len(self.K1)))

    def _expand(self, k: np.ndarray) -> np.ndarray:
        return np.repeat(k, np.diff(self.knots, append=len(self.path.values)))

    @cached_property
    def Q1(self) -> np.ndarray:
        return self._expand(self.K1)

    @cached_property
    def Q2(self) -> np.ndarray:
        return self._expand(self.K2)

    def capital(self, firm: int) -> np.ndarray:
        return self.Q1 if firm == 1 else self.Q2

    def knot_capital(self, firm: int) -> np.ndarray:
        return self.K1 if firm == 1 else self.K2

    def initial(self, firm: int) -> float:
        return self.q1_0 if firm == 1 else self.q2_0


def build_abstain_outcome(boundary_pair, path: ShockPath, q1_0: float, q2_0: float,
                          abstaining_firm: int) -> Outcome:
    """Unique outcome in which one firm never invests.

    Requires a constant-price pair (a dynamic boundary with c = 0 counts).
    The investing firm tracks the running supremum of its base capacity
    against the abstainer's frozen capital, so

        Q_inv(t) = q_inv v sup_{s<=t} ((X_s / p)**gamma - q_abs).
    """
    require_same_constant_price(*boundary_pair)
    if abstaining_firm not in (1, 2):
        raise KindMismatchError(f"abstaining_firm must be 1 or 2, got {abstaining_firm}")
    q_abs = q1_0 if abstaining_firm == 1 else q2_0
    q_inv = q2_0 if abstaining_firm == 1 else q1_0
    knots, investor = _one_mover(path, boundary_pair[2 - abstaining_firm], q_inv, q_abs)
    abstainer = np.full_like(investor, q_abs)
    K1, K2 = (abstainer, investor) if abstaining_firm == 1 else (investor, abstainer)
    return Outcome(path, K1, K2, q1_0, q2_0, construction=f"abstain({abstaining_firm})",
                   knots=knots)


def _records(values):
    """Indices at which the running maximum of values sets a new record,
    index 0 included: the k with running_sup(values)[k] >
    running_sup(values)[k-1].  Every builder's knots are these indices, so
    the knots include every running-max record.

    A block of _RECORD_BLOCK values holds a record only if its maximum beats
    every earlier block's, so only those blocks get a running maximum, seeded
    with the maximum before them.  The ragged last block reads its final
    value again to fill its row, which an equal value never makes a record.
    """
    n = len(values)
    starts = np.arange(0, n, _RECORD_BLOCK)
    block_max = np.maximum.reduceat(values, starts)
    before = np.maximum.accumulate(np.concatenate(([values[0]], block_max[:-1])))
    live = np.flatnonzero(block_max > before)
    rows = np.empty((len(live), _RECORD_BLOCK + 1))
    rows[:, 0] = before[live]
    rows[:, 1:] = values[np.minimum(starts[live, None] + np.arange(_RECORD_BLOCK), n - 1)]
    np.maximum.accumulate(rows, axis=1, out=rows)
    row, col = np.nonzero(rows[:, 1:] > rows[:, :-1])
    return np.concatenate(([0], starts[live[row]] + col))


def _one_mover(path: ShockPath, mover: Boundary, q_mover: float, q_frozen: float):
    """Knots and knot capitals of the only firm that invests, against an
    opponent frozen at q_frozen: the running supremum of its base capacity,
    which by monotonicity in x is q_mover v phi(M_t, q_frozen) at the running
    maximum M of X.  The knots are the running-max records, where phi is
    evaluated."""
    rec = _records(path.values)
    return rec, np.maximum(q_mover, mover.base_capacity(path.values[rec], q_frozen))


def build_symmetric_outcome(boundary_pair, path: ShockPath, q1_0: float,
                            q2_0: float) -> Outcome:
    """Catch-up outcome for a symmetric capital-dependent trigger pair.

    Per firm, capital is the running supremum of the pointwise minimum of
    the base capacity against the opponent's *initial* stock and the
    symmetric base capacity:

        Q_i(t) = q_i v sup_{s<=t} min(phi_i(X_s, q_mi), psi(X_s)).

    Until psi(X) first reaches the larger initial stock only the smaller
    firm invests; afterwards both capitals equal the running supremum of
    psi(X).  phi and psi increase in x, so the supremum is attained where
    the running maximum M of X sets a record: the records are the knots, and
    the roots are solved there only, Q_i(t) = q_i v min(phi_i(M_t, q_mi),
    psi(M_t)).

    The trigger rises in both capitals, so the minimum is phi_i where
    psi <= q_mi and psi elsewhere, and it is at most psi.  psi is solved at
    every record; phi_i only at the records where q_i < psi < q_mi, the
    only ones at which the minimum can move firm i's capital.
    """
    b1, b2 = boundary_pair
    if not (isinstance(b1, DynamicBoundary) and isinstance(b2, DynamicBoundary)
            and b1.c == b2.c):
        raise KindMismatchError("symmetric outcome needs a matched dynamic_c pair")
    floor = b1.q_floor
    if min(q1_0, q2_0) < floor - 1e-12 * max(1.0, floor):
        raise BelowFloorError(f"initial capitals must be at least {floor}")
    rec = _records(path.values)
    x = path.values[rec]
    psi = np.asarray(b1.symmetric_base_capacity(x))
    caps = []
    for b, q_own, q_opp in ((b1, q1_0, q2_0), (b2, q2_0, q1_0)):
        cap = psi.copy()
        solve = (psi > q_own) & (psi < q_opp)
        if solve.any():
            cap[solve] = np.minimum(b.base_capacity(x[solve], q_opp), psi[solve])
        caps.append(np.maximum(q_own, running_sup(cap)))
    return Outcome(path, *caps, q1_0, q2_0, construction="symmetric", knots=rec)


def build_aggregate_split(boundary_pair, path: ShockPath, q1_0: float, q2_0: float,
                          weights) -> Outcome:
    """Split the constant-price aggregate investment between the firms.

    Aggregate capital is pinned by the reflection of the price at p:
    S_t = (q1+q2) v sup (X_s/p)**gamma, the base capacity against no
    opponent capital, and firm i receives the fixed share weights[i] of
    every increment.  Any nonnegative pair summing to one keeps both paths
    nondecreasing; anything else is an InvalidSplitError.
    """
    require_same_constant_price(*boundary_pair)
    w = tuple(float(v) for v in weights)
    if len(w) != 2 or min(w) < 0.0 or abs(w[0] + w[1] - 1.0) > 1e-12:
        raise InvalidSplitError(f"weights must be nonnegative and sum to 1, got {w}")
    s0 = q1_0 + q2_0
    knots, aggregate = _one_mover(path, boundary_pair[0], s0, 0.0)
    K1 = q1_0 + w[0] * (aggregate - s0)
    K2 = q2_0 + w[1] * (aggregate - s0)
    return Outcome(path, K1, K2, q1_0, q2_0, construction=f"split{w}", knots=knots)


def build_joint_outcome(b1: Boundary, b2: Boundary, path: ShockPath,
                        q1_0: float, q2_0: float) -> Outcome:
    """Mutually consistent outcome by sequential per-step updates.

    At every grid point firm 1 reflects first (against firm 2's carried-over
    capital), then firm 2 reflects against firm 1's updated capital.  This
    approximates continuous-time mutual consistency to O(dt) without a
    fixed-point solve per step.  Used by deviation experiments with firm 1
    as the deviant.

    Base capacities rise in x and fall in the opponent's capital, so neither
    firm moves at a grid point below the running maximum of X: the updates
    run at the running-max records only, which are the knots, and give the
    per-step loop's capitals.
    """
    fast = _joint_closed_form(b1, b2, path, q1_0, q2_0)
    if fast is not None:
        return fast
    rec = _records(path.values)
    K1 = np.empty(len(rec))
    K2 = np.empty(len(rec))
    q1, q2 = q1_0, q2_0
    for k, x in enumerate(path.values[rec]):
        q1 = max(q1, b1.base_capacity(x, q2))
        q2 = max(q2, b2.base_capacity(x, q1))
        K1[k] = q1
        K2[k] = q2
    return Outcome(path, K1, K2, q1_0, q2_0, construction="joint", knots=rec)


def _joint_closed_form(b1, b2, path, q1_0, q2_0):
    """Closed form for pairs in which only one firm can ever invest.

    Firm 1 reflecting first keeps its own trigger at or above X.  Firm 2's
    trigger is at or above firm 1's at every capital pair when p2 = inf or
    when p2 >= p1 and c2 >= c1, which freezes firm 2; p1 = inf freezes firm
    1 and firm 2 reflects alone.  In either case the survivor's capital is
    the running supremum of its base capacity against a constant opponent,
    which by monotonicity in x is the base capacity at the running supremum
    of X.
    """
    if b2.p == math.inf or (b2.p >= b1.p and b2.c >= b1.c):
        knots, K1 = _one_mover(path, b1, q1_0, q2_0)
        return Outcome(path, K1, np.full_like(K1, q2_0), q1_0, q2_0, construction="joint",
                       knots=knots)
    if b1.p == math.inf:
        knots, K2 = _one_mover(path, b2, q2_0, q1_0)
        return Outcome(path, np.full_like(K2, q1_0), K2, q1_0, q2_0, construction="joint",
                       knots=knots)
    return None


@dataclass(frozen=True)
class ConsistencyReport:
    """Deviation of a stored outcome from its defining reflection equation."""

    max_deviation: float          # max |rhs - Q| / (1 + Q) over the grid
    worst_index: int
    containment_excess: float     # max (X - trigger(Q_i, Q_mi)), <= 0 up to root tol
    support_violations: int       # increments farther than `band` from the trigger
    band: float

    @property
    def consistent(self) -> bool:
        return self.max_deviation < 1e-8 and self.support_violations == 0


def check_consistency(outcome: Outcome, boundary: Boundary, firm: int) -> ConsistencyReport:
    """Re-derive firm's capital from the stored opponent path and compare.

    Capital is re-derived at every grid point by the reference bisection,
    not by the Newton solver that the builders use, so that an error of
    theirs shows as a deviation.  Also checks the support condition:
    whenever the stored capital increases by more than a jump tolerance, the
    shock must sit within band = _BAND_SIGMAS * sigma * X * sqrt(dt) of the
    firm's trigger.
    """
    params = boundary.params
    q = outcome.capital(firm)
    q_opp = outcome.capital(3 - firm)
    x = outcome.path.values
    phi = _reference_base_capacity(boundary, x, q_opp)
    rhs = np.maximum(outcome.initial(firm), running_sup(phi))
    dev = np.abs(rhs - q) / (1.0 + q)
    worst = int(np.argmax(dev))

    # An infinite trigger gives containment -inf, and any increment of its
    # firm's capital lies off it.
    triggers = boundary.trigger(q, q_opp)
    containment = float(np.max(x - triggers))

    dq = np.diff(q)
    jump_tol = 1e-12 * (1.0 + q[1:])
    band = _BAND_SIGMAS * params.sigma * np.sqrt(outcome.path.dt)
    idx = np.nonzero(dq > jump_tol)[0] + 1
    off_boundary = np.abs(x[idx] - triggers[idx]) > band * x[idx]
    violations = int(np.count_nonzero(off_boundary))
    return ConsistencyReport(max_deviation=float(dev[worst]), worst_index=worst,
                             containment_excess=containment,
                             support_violations=violations, band=band)


def catch_up_report(boundary: DynamicBoundary, outcome: Outcome) -> dict:
    """Structural diagnostics of the symmetric outcome on one path.

    tau is the first grid index at which the symmetric base capacity reaches
    the larger initial stock.  Before tau the larger firm must not invest;
    from tau on both capitals must coincide.  psi(x) >= q_hi exactly when
    x >= trigger(q_hi, q_hi), or everywhere when q_hi is at the floor, so
    tau needs no root solve.  Both read the knots: the shock first reaches
    that level at a running-max record, which is a knot, and capitals
    change only at knots.
    """
    q_hi = max(outcome.q1_0, outcome.q2_0)
    larger = 1 if outcome.q1_0 >= outcome.q2_0 else 2
    n = len(outcome.path.values)
    knots = outcome.knots
    if q_hi <= boundary.q_floor:
        tau = int(knots[0])
    else:
        reached = np.nonzero(outcome.path.values[knots] >= boundary.trigger(q_hi, q_hi))[0]
        tau = int(knots[reached[0]]) if len(reached) else n
    k_big = outcome.knot_capital(larger)
    after = knots >= tau
    before_ok = bool(np.all(k_big[~after] == k_big[0]))
    gap_after = float(np.max(np.abs(outcome.K1[after] - outcome.K2[after]))) \
        if tau < n else 0.0
    return {"tau_index": tau, "larger_firm": larger,
            "larger_constant_before": before_ok,
            "max_gap_after": gap_after}


# ---------------------------------------------------------------------------
# Discounted-payoff accumulators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _midpoint_discounts(r: float, dt: float, n: int) -> np.ndarray:
    """e^{-r (t_k + dt/2)} for k = 0..n-1; shared across paths of one run."""
    d = np.exp(-r * (dt * np.arange(n) + 0.5 * dt))
    d.setflags(write=False)
    return d


@lru_cache(maxsize=64)
def _trapezoid_weights(r: float, dt: float, n: int) -> np.ndarray:
    """w_k = d_{k-1} + d_k for k = 0..n (d_{-1} = d_n = 0), d the midpoint
    discounts of n steps: sum_k d_k (f_k + f_{k+1}) = sum_k w_k f_k."""
    d = _midpoint_discounts(r, dt, n)
    w = np.zeros(n + 1)
    w[:-1] += d
    w[1:] += d
    w.setflags(write=False)
    return w


def _increment_discounts(params: ModelParams, outcome: Outcome) -> np.ndarray:
    """Midpoint discount of each knot's increment after the first: the
    increment at grid index k >= 1 is discounted over (t_{k-1}, t_k]."""
    d = _midpoint_discounts(params.r, outcome.path.dt, outcome.path.n_steps)
    return d[outcome.knots[1:] - 1]


def discounted_profit(params: ModelParams, outcome: Outcome, firm: int) -> float:
    """Integral of e^{-rt} * profit flow, trapezoid in the flow and midpoint
    discounting per step.  The flow is x times the capital factor
    (Q1 + Q2)**(-1/gamma) * Q, which is constant between knots, so the
    weighted shock is summed per knot segment and the factor is taken at the
    knots only."""
    x = outcome.path.values
    w = _trapezoid_weights(params.r, outcome.path.dt, outcome.path.n_steps)
    q = outcome.knot_capital(firm)
    factor = (outcome.K1 + outcome.K2) ** (-1.0 / params.gamma) * q
    return float(np.dot(np.add.reduceat(w * x, outcome.knots), factor) * 0.5 * outcome.path.dt)


def discounted_cost(params: ModelParams, outcome: Outcome, firm: int) -> float:
    """Discounted investment cost: full-weight t=0 jump plus midpoint-discounted
    increments, which sit at the knots."""
    q = outcome.knot_capital(firm)
    initial_jump = q[0] - outcome.initial(firm)
    return float(initial_jump + np.dot(_increment_discounts(params, outcome), np.diff(q)))


def payoff(params: ModelParams, outcome: Outcome, firm: int) -> float:
    return discounted_profit(params, outcome, firm) - discounted_cost(params, outcome, firm)


def discount_identity_defect(params: ModelParams, outcome: Outcome, firm: int) -> float:
    """Defect of Q_0 + int e^{-rt} dQ = r int e^{-rt} Q dt + e^{-rT} Q_T
    under the accumulator's discretization; O(dt) by construction.  Q is
    constant between knots, so the trapezoid of e^{-rt} Q sums the weights
    per knot segment."""
    q = outcome.knot_capital(firm)
    r, dt, n = params.r, outcome.path.dt, outcome.path.n_steps
    lhs = q[0] + np.dot(_increment_discounts(params, outcome), np.diff(q))
    w = _trapezoid_weights(r, dt, n)
    quad = np.dot(np.add.reduceat(w, outcome.knots), q) * 0.5 * dt
    rhs = r * quad + np.exp(-r * dt * n) * q[-1]
    return float(abs(lhs - rhs))


def dump_outcome_csv(outcome: Outcome, fileobj) -> None:
    """Write t,x,q1,q2 rows; 17 significant digits."""
    writer = csv.writer(fileobj)
    writer.writerow(["t", "x", "q1", "q2"])
    for t, x, a, b in zip(outcome.path.times, outcome.path.values,
                          outcome.Q1, outcome.Q2):
        writer.writerow([format(v, ".17g") for v in (t, x, a, b)])
