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
above the own trigger and a Monte Carlo transversality probe of
e^{-rT} E|V(X_T, Q_T)| -> 0.

Tolerances follow the numerical source: 1e-9 for the closed-form kinds and
1e-7 for DynamicValue, whose values and q-partials are quadrature-backed.
A metric that is not finite raises OverflowError instead of entering a
verdict.
Grids are log-spaced in the shock over [x_lo_frac, 1] * trigger and linear
in capitals over [q_floor, 10 * q_floor + q_span].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .boundaries import InfiniteBoundary
from .model import ModelParams
from .outcomes import Outcome
from .paths import generate_path

TOL_ANALYTIC = 1e-9
TOL_QUAD = 1e-7
# Opponent increments checked per simulated path, evenly subsampled.
_MAX_INCREMENTS = 60


@dataclass(frozen=True)
class GridSpec:
    nx: int = 40
    nq: int = 20
    x_lo_frac: float = 0.05
    q_span: float = 5.0

    def capital_pairs(self, pair):
        floor = max(b.q_floor for b in pair)
        qs = np.linspace(floor, 10.0 * floor + self.q_span, self.nq)
        return [(float(a), float(b)) for a in qs for b in qs if a + b > 0.0]

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
    """Residual of the pricing equation on its region.

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
        v, vx, vxx = value_fn.below_branch_arrays(xs, q_i, q_mi)
        profit = xs * (q_i + q_mi) ** (-1.0 / params.gamma) * q_i
        resid = (-params.r * v + profit + params.mu * xs * vx
                 + 0.5 * params.sigma ** 2 * xs ** 2 * vxx)
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


def check_transversality(value_fn, params: ModelParams, builder, x0: float,
                         horizon: float, n_paths: int = 400, dt: float = 0.01,
                         seed: int = 7, abs_cap: float = 1e-3) -> ConditionResult:
    """Estimate e^{-rT} E|V| at T and 2T along simulated outcomes.

    Passes when the 2T estimate is below half the T estimate (or both are
    already under the absolute cap) and below the cap itself.

    Each path is simulated and built once, to 2T, and the T estimate reads
    the same outcome at grid index round(T/dt).  A path of horizon T is a
    bit-identical prefix of the 2T path of the same (seed, path_index), so
    this equals building both horizons only if the builder is
    non-anticipating: its outcome up to t depends only on the path up to t,
    as for every builder in `outcomes`.

    The estimate is heavy tailed, dominated by single extreme paths, so its
    verdict depends on the seed: with the criterion-4 settings (80 paths,
    T = 6, dt = 0.01) it fails on about 2.5% of seeds for the exact
    DynamicValue of c = 0.5 and c = 1.
    """
    k_mid = int(round(horizon / dt))
    totals = [0.0, 0.0]   # sums of |V| at T and at 2T
    for j in range(n_paths):
        path = generate_path(params, x0, dt, 2 * horizon, seed, j)
        out: Outcome = builder(path)
        for m, k in enumerate((k_mid, -1)):
            totals[m] += abs(value_fn.value(float(path.values[k]),
                                            float(out.Q1[k]), float(out.Q2[k])))
    ests = {mult: np.exp(-params.r * mult * horizon) * totals[mult - 1] / n_paths
            for mult in (1, 2)}
    halved = ests[2] <= 0.5 * ests[1] or ests[1] <= abs_cap
    passed = bool(halved and ests[2] <= abs_cap)
    return ConditionResult("transversality", worst=float(ests[2]),
                           at=(float(ests[1]), float(ests[2])), tol=abs_cap,
                           passed=passed,
                           note=f"e^-rT E|V|: T={ests[1]:.3e}, 2T={ests[2]:.3e}")


def check_opponent_increment_derivative(value_fn, params: ModelParams, builder,
                                        x0: float, horizon: float,
                                        n_paths: int = 20, dt: float = 0.01,
                                        seed: int = 11) -> ConditionResult:
    """Along simulated outcomes, V_qmi must vanish wherever the opponent
    actually invests on the joint boundary (initial jump included).

    Checked on the built outcomes only, not over all conceivable outcomes;
    increment indices are subsampled per path to bound the cost.
    """
    own, opp = value_fn.strategy_pair()
    if isinstance(own, InfiniteBoundary):
        return _void("opponent_increment_derivative",
                     "void: own trigger infinite, opponent increments unrestricted")
    tol = _tolerance(value_fn)
    worst = _Worst(0.0)
    for j in range(n_paths):
        path = generate_path(params, x0, dt, horizon, seed, j)
        out: Outcome = builder(path)
        dq2 = np.diff(out.Q2)
        idx = np.nonzero(dq2 > 1e-12 * (1.0 + out.Q2[1:]))[0] + 1
        if out.Q2[0] > out.initial(2) + 1e-12:
            idx = np.concatenate(([0], idx))
        if len(idx) > _MAX_INCREMENTS:
            idx = idx[np.linspace(0, len(idx) - 1, _MAX_INCREMENTS).astype(int)]
        for k in idx:
            x, q1, q2 = float(path.values[k]), float(out.Q1[k]), float(out.Q2[k])
            own_trig = own.trigger(q1, q2)
            if x < own_trig * (1.0 - 1e-9):
                continue  # opponent invests strictly inside firm 1's region
            d = value_fn.partials(x, q1, q2, ("qmi",))["qmi"]
            worst.add(abs(d), x, q1, q2)
    return worst.result("opponent_increment_derivative", tol)


def run_verification(value_fn, pair=None, spec: GridSpec = GridSpec(),
                     simulation: dict | None = None) -> VerificationReport:
    """Full report: conditions 1-6, the propagation identity, and, when a
    simulation configuration is supplied, the outcome-based side conditions
    (transversality and the opponent-increment derivative).

    simulation keys: builder, x0, horizon, plus optional n_paths, dt, seed,
    abs_cap (passed to the transversality probe).
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
        sim = dict(simulation)
        cap = sim.pop("abs_cap", 1e-3)
        inc = {k: sim[k] for k in ("builder", "x0", "horizon") if k in sim}
        inc.update({k: sim[k] for k in ("dt", "seed") if k in sim})
        report.add(check_transversality(value_fn, value_fn.params, abs_cap=cap, **sim))
        report.add(check_opponent_increment_derivative(value_fn, value_fn.params, **inc))
    return report
