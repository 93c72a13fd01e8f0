"""Pointwise checks of the equilibrium verification conditions on state grids.

For a candidate value function V and a strategy pair with triggers
(own, opp), the checks cover, region by region:

  1. pricing equation  -r V + profit + mu x V_x + sigma^2 x^2 V_xx / 2 = 0
     on {x <= min(triggers)}                                  (pde_equality)
  2. V_qi = 1 on {x >= own trigger}                 (own_derivative_on_trigger)
  3. V_qmi = 0 between the triggers where own > opp (opp_derivative_above_trigger)
  4. pricing equation <= 0 on {x <= opp trigger}              (pde_inequality)
  5. V_qi <= 1 on {x <= min(triggers)}            (own_derivative_below_trigger)
  6. V_qmi <= 0 on {x = own trigger <= opp}         (opp_derivative_on_trigger)

plus the propagation identity V_qmi(x, q_i, q_mi) = V_qmi(x, phi(x, q_mi), q_mi)
above the own trigger, a closed-form bound for transversality,
e^{-rT} E|V(X_T, Q_T)| -> 0, and V_qmi = 0 at simulated opponent increments.

Tolerances follow the numerical source: 1e-9 for the closed-form kinds and
1e-7 for DynamicValue, whose values and q-partials are quadrature-backed.
A metric that is not finite raises OverflowError instead of entering a
verdict.
Grids are log-spaced in the shock over [x_lo_frac, 1] * trigger and linear
in capitals over [q_floor, 10 * q_floor + q_span].
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .boundaries import ConstantPriceBoundary, InfiniteBoundary
from .errors import UsageError
from .mc import value_linear_bound_coeff
from .model import ModelParams
from .paths import generate_path

TOL_ANALYTIC = 1e-9
TOL_QUAD = 1e-7
# Opponent increments checked per simulated path, evenly subsampled.
_MAX_INCREMENTS = 60
# Default simulation seed of the opponent-increment check.
SEED = 7


@dataclass(frozen=True)
class GridSpec:
    nx: int = 40
    nq: int = 20
    x_lo_frac: float = 0.05
    q_span: float = 5.0

    def capital_pairs(self, pair):
        floor = max(b.q_floor for b in pair)
        qs = np.linspace(floor, 10.0 * floor + self.q_span, self.nq).tolist()
        return [(a, b) for a in qs for b in qs if a + b > 0.0]

    def x_levels(self, cap: float) -> np.ndarray:
        return cap * np.exp(np.linspace(np.log(self.x_lo_frac), 0.0, self.nx))


@dataclass
class ConditionResult:
    name: str
    worst: float
    at: tuple
    tol: float
    passed: bool
    note: str = ""

    def to_json(self) -> dict:
        return {"worst": self.worst, "at": list(self.at), "pass": self.passed,
                "tol": self.tol, "note": self.note}


@dataclass
class VerificationReport:
    kind: str
    conditions: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    def add(self, result: ConditionResult):
        self.conditions[result.name] = result

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def to_json(self) -> dict:
        return {"kind": self.kind, "grid": self.grid, "all_pass": self.all_pass,
                "conditions": {k: v.to_json() for k, v in self.conditions.items()}}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


class _Worst:
    """Running maximum of a condition's metric and the state where it occurs.

    A non-finite metric raises OverflowError: NaN compares False with every
    bound, so a condition that kept it would pass on a failed evaluation.
    """

    def __init__(self, start: float = -math.inf):
        self.value, self.at = start, ()

    def add(self, metric, x, q_i, q_mi):
        """Fold in the metric at one shock level x, or at each of an array."""
        if isinstance(metric, np.ndarray):
            finite = np.isfinite(metric)
            k = int(np.argmax(metric) if finite.all() else np.argmin(finite))
            metric, x = metric[k], x[k]
        metric = float(metric)
        if not math.isfinite(metric):
            raise OverflowError(f"non-finite verification metric {metric} "
                                f"at x={float(x):.6g}, q=({q_i:.6g}, {q_mi:.6g})")
        if metric > self.value:
            self.value, self.at = metric, (float(x), q_i, q_mi)

    def result(self, name: str, tol: float, note: str = "") -> ConditionResult:
        return ConditionResult(name, self.value, self.at, tol, self.value <= tol, note)


def _tolerance(value_fn) -> float:
    return TOL_QUAD if "dynamic" in getattr(value_fn, "kind", "") else TOL_ANALYTIC


def _void(name: str, note: str) -> ConditionResult:
    return ConditionResult(name, worst=0.0, at=(), tol=0.0, passed=True, note=note)


def check_pde(value_fn, pair, spec: GridSpec = GridSpec(),
              mode: str = "equality") -> ConditionResult:
    """Residual of the pricing equation on its region, from V, x V_x and
    x**2 V_xx of the below-trigger branch, which stay finite at any level
    where V does.

    equality: max |residual| / (r |V| + 1) on {x <= min(triggers)}
    inequality: max positive part, same normalization, on {x <= opp trigger}
    """
    params = value_fn.params
    own, opp = pair
    tol = _tolerance(value_fn)
    worst = _Worst()
    for q_i, q_mi in spec.capital_pairs(pair):
        if mode == "equality":
            cap = min(own.trigger(q_i, q_mi), opp.trigger(q_mi, q_i))
        else:
            cap = opp.trigger(q_mi, q_i)
        xs = spec.x_levels(cap)
        # A value out of range shows as a non-finite metric, which _Worst
        # refuses with an OverflowError.
        with np.errstate(over="ignore", invalid="ignore"):
            v, x_vx, x2_vxx = value_fn.below_branch_arrays(xs, q_i, q_mi)
            profit = xs * (q_i + q_mi) ** (-1.0 / params.gamma) * q_i
            resid = (-params.r * v + profit + params.mu * x_vx
                     + 0.5 * params.sigma ** 2 * x2_vxx)
            metric = resid / (params.r * np.abs(v) + 1.0)
        worst.add(np.abs(metric) if mode == "equality" else metric, xs, q_i, q_mi)
    return worst.result("pde_equality" if mode == "equality" else "pde_inequality", tol)


def check_smooth_fit(value_fn, pair, spec: GridSpec = GridSpec()) -> list:
    """Conditions 2, 3, 5 and 6 on and around the triggers."""
    own, opp = pair
    tol = _tolerance(value_fn)
    results = []
    pairs = spec.capital_pairs(pair)

    # Condition 2: V_qi = 1 at and above the own trigger.
    if isinstance(own, InfiniteBoundary):
        results.append(_void("own_derivative_on_trigger", "void: own trigger infinite"))
    else:
        worst = _Worst()
        for q_i, q_mi in pairs:
            xb = own.trigger(q_i, q_mi)
            for frac in (1.0, 1.25, 2.0):
                d = value_fn.partials(frac * xb, q_i, q_mi, ("qi",))["qi"]
                worst.add(abs(d - 1.0), frac * xb, q_i, q_mi)
        results.append(worst.result("own_derivative_on_trigger", tol))

    # Condition 3: V_qmi = 0 where own trigger strictly dominates, between them.
    strict_pairs = [(a, b) for a, b in pairs
                    if own.trigger(a, b) > opp.trigger(b, a)]
    if not strict_pairs:
        results.append(_void("opp_derivative_above_trigger",
                             "void: own trigger never exceeds opponent's"))
    else:
        worst = _Worst()
        for q_i, q_mi in strict_pairs:
            xb = opp.trigger(q_mi, q_i)
            hi = own.trigger(q_i, q_mi)
            for frac in (1.0, 1.3, 2.0, 4.0):
                x = min(frac * xb, hi) if np.isfinite(hi) else frac * xb
                d = value_fn.partials(x, q_i, q_mi, ("qmi",))["qmi"]
                worst.add(abs(d), x, q_i, q_mi)
        results.append(worst.result("opp_derivative_above_trigger", tol))

    # Condition 5: V_qi <= 1 below both triggers (boundary included).
    worst = _Worst()
    for q_i, q_mi in pairs:
        xs = spec.x_levels(min(own.trigger(q_i, q_mi), opp.trigger(q_mi, q_i)))
        excess = value_fn.partials(xs, q_i, q_mi, ("qi",))["qi"] - 1.0
        worst.add(excess, xs, q_i, q_mi)
    results.append(worst.result("own_derivative_below_trigger", tol))

    # Condition 6: V_qmi <= 0 on {x = own trigger <= opp trigger}.
    eligible = [(a, b) for a, b in pairs
                if np.isfinite(own.trigger(a, b))
                and own.trigger(a, b) <= opp.trigger(b, a) * (1.0 + 1e-12)]
    if not eligible:
        results.append(_void("opp_derivative_on_trigger", "void: no boundary states"))
    else:
        worst = _Worst()
        for q_i, q_mi in eligible:
            xb = own.trigger(q_i, q_mi)
            worst.add(value_fn.partials(xb, q_i, q_mi, ("qmi",))["qmi"],
                      xb, q_i, q_mi)
        results.append(worst.result("opp_derivative_on_trigger", tol))
    return results


def check_derivative_propagation(value_fn, pair, spec: GridSpec = GridSpec()) -> ConditionResult:
    """Above the own trigger the opponent-derivative must propagate down to
    the paste point: V_qmi(x, q_i, q_mi) = V_qmi(x, phi(x, q_mi), q_mi).

    With an infinite own trigger the region is empty and the check falls back
    to condition 3's content (V_qmi = 0 above the opponent trigger).
    """
    own, opp = pair
    tol = _tolerance(value_fn)
    pairs = spec.capital_pairs(pair)
    worst = _Worst()
    if isinstance(own, InfiniteBoundary):
        for q_i, q_mi in pairs:
            xb = opp.trigger(q_mi, q_i)
            for frac in (1.0, 1.5, 3.0):
                d = value_fn.partials(frac * xb, q_i, q_mi, ("qmi",))["qmi"]
                worst.add(abs(d), frac * xb, q_i, q_mi)
        return worst.result("derivative_propagation", tol,
                            note="own trigger infinite: checked V_qmi = 0 above opponent")
    for q_i, q_mi in pairs:
        xb = own.trigger(q_i, q_mi)
        for frac in (1.05, 1.3, 2.0):
            x = frac * xb
            lhs = value_fn.partials(x, q_i, q_mi, ("qmi",))["qmi"]
            phi = own.base_capacity(x, q_mi)
            rhs = value_fn.partials(x, phi, q_mi, ("qmi",))["qmi"]
            worst.add(abs(lhs - rhs), x, q_i, q_mi)
    return worst.result("derivative_propagation", tol)


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _discounted_max_moment(params: ModelParams, t: float) -> float:
    """e^{-rt} E[e^{gamma m_t}] for m_t the running maximum of nu t + sigma W_t,
    nu = mu - sigma^2/2 (Shreve 2004, Stochastic Calculus for Finance II,
    sec. 7.2).  Both terms carry e^{(mu_gamma - r) t}; the second divides by
    k = gamma + 2 nu/sigma^2 and is expanded to first order near k = 0."""
    pr = params
    nu = pr.mu - 0.5 * pr.sigma ** 2
    s, k = pr.sigma * math.sqrt(t), pr.gamma + 2.0 * nu / pr.sigma ** 2
    u = -nu * t / s
    grown, disc = math.exp((pr.mu_gamma - pr.r) * t), math.exp(-pr.r * t)
    i = (grown * _norm_cdf(pr.gamma * s - u) - disc * _norm_cdf(-u)) / pr.gamma
    if abs(k * s) < 1e-5:
        cdf, pdf = _norm_cdf(u), math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        j = disc * s * (pdf + u * cdf + 0.5 * k * s * ((1.0 + u * u) * cdf + u * pdf))
    else:
        j = (grown * _norm_cdf(u + k * s) - disc * _norm_cdf(u)) / k
    return disc + pr.gamma * (i + j)


def _increment_derivative(value_fn, outcomes) -> ConditionResult:
    """The opponent-increment verdict: |V_qmi| at the opponent's increments
    along each outcome, where they lie on firm 1's trigger."""
    own = value_fn.strategy_pair()[0]
    if isinstance(own, InfiniteBoundary):
        return _void("opponent_increment_derivative",
                     "void: own trigger infinite, opponent increments unrestricted")
    worst = _Worst(0.0)
    for out in outcomes:
        idx = np.nonzero(np.diff(out.Q2) > 1e-12 * (1.0 + out.Q2[1:]))[0] + 1
        if out.Q2[0] > out.initial(2) + 1e-12:
            idx = np.concatenate(([0], idx))
        if len(idx) > _MAX_INCREMENTS:
            idx = idx[np.linspace(0, len(idx) - 1, _MAX_INCREMENTS).astype(int)]
        for k in idx:
            x, q1, q2 = float(out.path.values[k]), float(out.Q1[k]), float(out.Q2[k])
            if x < own.trigger(q1, q2) * (1.0 - 1e-9):
                continue  # opponent invests strictly inside firm 1's region
            worst.add(abs(value_fn.partials(x, q1, q2, ("qmi",))["qmi"]), x, q1, q2)
    return worst.result("opponent_increment_derivative", _tolerance(value_fn))


def _side_conditions(value_fn, pair, spec: GridSpec, builder, x0: float, horizon: float,
                     n_paths: int = 20, dt: float = 0.01, seed: int = SEED) -> tuple:
    """Transversality, and the increment check on n_paths outcomes built to T.

    Q1 + Q2 <= s0 + (M_t/p_lo)**gamma (M_t: running max of the shock, p_lo:
    lowest zero-premium price of the finite triggers), so where
    |V| <= a (1 + q_i + q_mi), e^{-rt} E|V| is at most the `at` values
    U(t) = e^{-rt} a (1 + s0 + (x0/p_lo)**gamma E[e^{gamma m_t}]) at T, 2T.
    Passes iff that hypothesis holds on the grid below both triggers."""
    if n_paths < 1:
        raise UsageError(f"the side conditions need n_paths >= 1, got {n_paths}")
    params, (own, opp) = value_fn.params, pair
    outcomes = (builder(generate_path(params, x0, dt, horizon, seed, j))
                for j in range(n_paths))
    first = next(outcomes)
    finite = [b for b in pair if not isinstance(b, InfiniteBoundary)]
    a = value_linear_bound_coeff(params, finite[0])
    p_lo = min(b.p if isinstance(b, ConstantPriceBoundary) else params.p_star
               for b in finite)
    worst = _Worst()
    for q_i, q_mi in spec.capital_pairs(pair):
        xs = spec.x_levels(min(own.trigger(q_i, q_mi), opp.trigger(q_mi, q_i)))
        with np.errstate(over="ignore", invalid="ignore"):
            v = value_fn.below_branch_arrays(xs, q_i, q_mi)[0]
            worst.add(np.abs(v) / (a * (1.0 + q_i + q_mi)), xs, q_i, q_mi)
    u = [a * (math.exp(-params.r * t) * (1.0 + first.initial(1) + first.initial(2))
              + (x0 / p_lo) ** params.gamma * _discounted_max_moment(params, t))
         for t in (horizon, 2.0 * horizon)]
    tv = ConditionResult("transversality", worst.value, tuple(u), 1.0, worst.value <= 1.0,
                         note=f"e^-rT E|V| <= {u[0]:.3e} at T, {u[1]:.3e} at 2T")
    return tv, _increment_derivative(value_fn, itertools.chain([first], outcomes))


def run_verification(value_fn, pair=None, spec: GridSpec = GridSpec(),
                     simulation: dict | None = None) -> VerificationReport:
    """Full report: conditions 1-6, the propagation identity, and, when a
    simulation configuration is supplied, transversality and the
    opponent-increment derivative.

    simulation keys: builder, x0, horizon, plus optional n_paths (default
    20), dt and seed of the opponent-increment check.  Transversality is a
    closed-form bound that reads only x0 and the first outcome's capitals.
    """
    if pair is None:
        pair = value_fn.strategy_pair()
    report = VerificationReport(kind=getattr(value_fn, "kind", "?"),
                                grid={"nx": spec.nx, "nq": spec.nq,
                                      "x_lo_frac": spec.x_lo_frac,
                                      "q_span": spec.q_span})
    report.add(check_pde(value_fn, pair, spec, mode="equality"))
    report.add(check_pde(value_fn, pair, spec, mode="inequality"))
    for res in check_smooth_fit(value_fn, pair, spec):
        report.add(res)
    report.add(check_derivative_propagation(value_fn, pair, spec))
    if simulation is not None:
        for res in _side_conditions(value_fn, pair, spec, **simulation):
            report.add(res)
    return report
