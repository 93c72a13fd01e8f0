"""Capital-path pairs consistent with reflection strategies.

Every construction works on one discretized shock path and returns a pair of
nondecreasing capital arrays aligned to the path's time grid.  Discrete-time
semantics: at each grid point the running-supremum update uses the opponent
capital carried over from the previous grid point (for the built-in
symmetric constructions this matters only at O(dt)).  A discrete jump at
t = 0 is allowed; later increments come from running suprema of continuous
functionals and are O(sigma * sqrt(dt)) per step.

Discounted Stieltjes integrals discount each increment over (t_{k-1}, t_k]
at the interval midpoint, which halves the O(dt) bias of cost accounting;
the t = 0 jump carries full weight.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boundaries import (
    Boundary,
    ConstantPriceBoundary,
    DynamicBoundary,
    InfiniteBoundary,
    _reference_base_capacity,
    require_same_constant_price,
)
from .errors import BelowFloorError, InvalidSplitError, KindMismatchError
from .model import ModelParams
from .paths import ShockPath, running_sup

# Half-width of check_consistency's support band, in shock standard
# deviations per step.
_BAND_SIGMAS = 3.0

@dataclass(frozen=True)
class Outcome:
    path: ShockPath
    Q1: np.ndarray
    Q2: np.ndarray
    q1_0: float
    q2_0: float
    construction: str

    def capital(self, firm: int) -> np.ndarray:
        return self.Q1 if firm == 1 else self.Q2

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
    investor = _one_mover(path, boundary_pair[2 - abstaining_firm], q_inv, q_abs)
    abstainer = np.full_like(investor, q_abs)
    Q1, Q2 = (abstainer, investor) if abstaining_firm == 1 else (investor, abstainer)
    return Outcome(path, Q1, Q2, q1_0, q2_0, construction=f"abstain({abstaining_firm})")


def _records(values):
    """Grid indices at which the running maximum of values sets a new record,
    and for every grid index the position of the latest record among them."""
    sup = running_sup(values)
    new = np.empty(len(sup), dtype=bool)
    new[0] = True
    np.greater(sup[1:], sup[:-1], out=new[1:])
    return np.flatnonzero(new), np.cumsum(new) - 1


def _one_mover(path: ShockPath, mover: Boundary, q_mover: float, q_frozen: float):
    """Capital of the only firm that invests, against an opponent frozen at
    q_frozen: the running supremum of its base capacity, which by
    monotonicity in x is q_mover v phi(M_t, q_frozen) at the running maximum
    M of X.  phi is evaluated at the running-max records only, and each grid
    index takes the value of its latest record."""
    rec, latest = _records(path.values)
    return np.maximum(q_mover, mover.base_capacity(path.values[rec], q_frozen))[latest]


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
    the running maximum M of X sets a record: the roots are solved there
    only, and each grid index takes the value of its latest record,
    Q_i(t) = q_i v min(phi_i(M_t, q_mi), psi(M_t)).
    """
    b1, b2 = boundary_pair
    if not (isinstance(b1, DynamicBoundary) and isinstance(b2, DynamicBoundary)
            and b1.c == b2.c):
        raise KindMismatchError("symmetric outcome needs a matched dynamic_c pair")
    floor = b1.q_floor
    if min(q1_0, q2_0) < floor - 1e-12 * max(1.0, floor):
        raise BelowFloorError(f"initial capitals must be at least {floor}")
    rec, latest = _records(path.values)
    x = path.values[rec]
    psi = np.asarray(b1.symmetric_base_capacity(x))
    phi1 = b1.base_capacity(x, q2_0)
    phi2 = b2.base_capacity(x, q1_0)
    Q1 = np.maximum(q1_0, running_sup(np.minimum(phi1, psi)))[latest]
    Q2 = np.maximum(q2_0, running_sup(np.minimum(phi2, psi)))[latest]
    return Outcome(path, Q1, Q2, q1_0, q2_0, construction="symmetric")


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
    aggregate = _one_mover(path, boundary_pair[0], s0, 0.0)
    Q1 = q1_0 + w[0] * (aggregate - s0)
    Q2 = q2_0 + w[1] * (aggregate - s0)
    return Outcome(path, Q1, Q2, q1_0, q2_0, construction=f"split{w}")


def build_joint_outcome(b1: Boundary, b2: Boundary, path: ShockPath,
                        q1_0: float, q2_0: float) -> Outcome:
    """Mutually consistent outcome by sequential per-step updates.

    At every grid point firm 1 reflects first (against firm 2's carried-over
    capital), then firm 2 reflects against firm 1's updated capital.  This
    approximates continuous-time mutual consistency to O(dt) without a
    fixed-point solve per step.  Used by deviation experiments with firm 1
    as the deviant.
    """
    fast = _joint_closed_form(b1, b2, path, q1_0, q2_0)
    if fast is not None:
        return fast
    n = len(path.values)
    Q1 = np.empty(n)
    Q2 = np.empty(n)
    q1, q2 = q1_0, q2_0
    for k, x in enumerate(path.values):
        q1 = max(q1, b1.base_capacity(x, q2))
        q2 = max(q2, b2.base_capacity(x, q1))
        Q1[k] = q1
        Q2[k] = q2
    return Outcome(path, Q1, Q2, q1_0, q2_0, construction="joint")


def _joint_closed_form(b1, b2, path, q1_0, q2_0):
    """Closed form for pairs in which only one firm can ever invest.

    Firm 1 reflecting first keeps its own trigger at or above X, which
    freezes firm 2 whenever firm 2's trigger surface dominates firm 1's at
    equal aggregates: equal constant prices, a higher constant price, any
    with-premium dynamic boundary against a price at most p_star, or an
    identical dynamic boundary.  Conversely an infinite b1 freezes firm 1 and
    firm 2 reflects alone.  In either case the survivor's capital is the
    running supremum of its base capacity against a constant opponent, which
    by monotonicity in x is the base capacity at the running supremum of X.
    """
    if isinstance(b1, InfiniteBoundary):
        Q2 = _one_mover(path, b2, q2_0, q1_0)
        return Outcome(path, np.full_like(Q2, q1_0), Q2, q1_0, q2_0, construction="joint")
    same_dynamic = (isinstance(b1, DynamicBoundary) and isinstance(b2, DynamicBoundary)
                    and b1.c == b2.c)
    dominated = isinstance(b1, ConstantPriceBoundary) and (
        (isinstance(b2, ConstantPriceBoundary) and b2.p >= b1.p)
        or (isinstance(b2, DynamicBoundary) and b1.p <= b1.params.p_star)
        or isinstance(b2, InfiniteBoundary)
    )
    if not (same_dynamic or dominated):
        return None
    Q1 = _one_mover(path, b1, q1_0, q2_0)
    return Outcome(path, Q1, np.full_like(Q1, q2_0), q1_0, q2_0, construction="joint")


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

    if isinstance(boundary, InfiniteBoundary):
        containment = -np.inf
        triggers = None
    else:
        triggers = boundary.trigger(q, q_opp)
        containment = float(np.max(x - triggers))

    dq = np.diff(q)
    jump_tol = 1e-12 * (1.0 + q[1:])
    band = _BAND_SIGMAS * params.sigma * np.sqrt(outcome.path.dt)
    violations = 0
    if triggers is not None:
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
    from tau on both capitals must coincide.
    """
    q_hi = max(outcome.q1_0, outcome.q2_0)
    larger = 1 if outcome.q1_0 >= outcome.q2_0 else 2
    n = len(outcome.path.values)
    # psi increases in x, so it first reaches q_hi at a running-max record.
    rec, _ = _records(outcome.path.values)
    psi = np.asarray(boundary.symmetric_base_capacity(outcome.path.values[rec]))
    reached = np.nonzero(psi >= q_hi)[0]
    tau = int(rec[reached[0]]) if len(reached) else n
    q_big = outcome.capital(larger)
    before_ok = bool(np.all(q_big[:tau] == q_big[0])) if tau > 0 else True
    gap_after = float(np.max(np.abs(outcome.Q1[tau:] - outcome.Q2[tau:]))) \
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


def discounted_profit(params: ModelParams, outcome: Outcome, firm: int) -> float:
    """Integral of e^{-rt} * profit flow, trapezoid in the flow and midpoint
    discounting per step."""
    x = outcome.path.values
    q = outcome.capital(firm)
    q_tot = outcome.Q1 + outcome.Q2
    flow = x * q_tot ** (-1.0 / params.gamma) * q
    dt = outcome.path.dt
    disc = _midpoint_discounts(params.r, dt, len(x) - 1)
    return float(np.sum(disc * (flow[:-1] + flow[1:])) * 0.5 * dt)


def discounted_cost(params: ModelParams, outcome: Outcome, firm: int) -> float:
    """Discounted investment cost: full-weight t=0 jump plus midpoint-discounted
    increments."""
    q = outcome.capital(firm)
    dq = np.diff(q)
    disc = _midpoint_discounts(params.r, outcome.path.dt, len(dq))
    initial_jump = q[0] - outcome.initial(firm)
    return float(initial_jump + np.sum(disc * dq))


def payoff(params: ModelParams, outcome: Outcome, firm: int) -> float:
    return discounted_profit(params, outcome, firm) - discounted_cost(params, outcome, firm)


def discount_identity_defect(params: ModelParams, outcome: Outcome, firm: int) -> float:
    """Defect of Q_0 + int e^{-rt} dQ = r int e^{-rt} Q dt + e^{-rT} Q_T
    under the accumulator's discretization; O(dt) by construction."""
    q = outcome.capital(firm)
    r = params.r
    dt = outcome.path.dt
    dq = np.diff(q)
    disc = _midpoint_discounts(r, dt, len(dq))
    lhs = q[0] + np.sum(disc * dq)
    quad = np.sum(disc * 0.5 * (q[:-1] + q[1:])) * dt
    rhs = r * quad + np.exp(-r * dt * (len(q) - 1)) * q[-1]
    return float(abs(lhs - rhs))


def dump_outcome_csv(outcome: Outcome, fileobj) -> None:
    """Write t,x,q1,q2 rows; 17 significant digits."""
    writer = csv.writer(fileobj)
    writer.writerow(["t", "x", "q1", "q2"])
    for t, x, a, b in zip(outcome.path.times, outcome.path.values,
                          outcome.Q1, outcome.Q2):
        writer.writerow([format(v, ".17g") for v in (t, x, a, b)])
