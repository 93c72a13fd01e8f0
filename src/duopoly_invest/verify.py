"""Pointwise checks of the equilibrium verification conditions on state grids.

For a candidate value function V and a strategy pair with triggers
(own, opp), the checks cover, region by region:

  1. pricing equation  -r V + profit + mu x V_x + sigma^2 x^2 V_xx / 2 = 0
     on {x <= min(triggers)}                                  (pde_equality)
  2. V_qi = 1 on {x >= own trigger}                 (own_derivative_on_trigger)
  3. V_qmi = 0 between the triggers where own > opp (opp_derivative_above_trigger)
  4. pricing equation <= 0 on {min(triggers) < x <= opp trigger}
                                                              (pde_inequality)
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
in capitals over [q_floor, 10 * q_floor + q_span].  One walk per report
goes over the blocks of _CHECK_PAIRS capital pairs (GridSpec.pair_blocks)
and computes the triggers once per block; each set of states in a block
takes one value call, which returns every entry, so conditions that share
states share the call (see _grid_conditions).  A call's missing B values
take two 64-pair passes of B's quadrature (values._BLOCK_PAIRS), and its
paste points above the own trigger one vectorized root pass.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import UsageError
from .mc import value_linear_bound_coeff
from .model import ModelParams
from .paths import generate_path
from .values import _BLOCK_PAIRS

TOL_ANALYTIC = 1e-9
TOL_QUAD = 1e-7
# Capital pairs per value call of a check: two of B's quadrature passes.
# Each call pays a fixed cost (triggers, the split at the own trigger, the
# cache lookup), which larger blocks spread thinner.  Past 128 pairs a
# report gains a few percent at most, while the block's temporaries add
# about 0.5 MiB of peak memory per doubling.
_CHECK_PAIRS = 2 * _BLOCK_PAIRS
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

    def pair_blocks(self, pair):
        """The capital pairs in blocks of at most _CHECK_PAIRS, as (q_i, q_mi)
        column arrays: one value call per condition and block, whose missing
        B values take two passes of B's quadrature.  The blocks keep the
        pairs' order, so a check's first worst state is the one a
        pair-by-pair loop would find."""
        q_i, q_mi = np.array(self.capital_pairs(pair)).reshape(-1, 2).T.copy()
        for start in range(0, len(q_i), _CHECK_PAIRS):
            block = slice(start, start + _CHECK_PAIRS)
            yield q_i[block, None], q_mi[block, None]

    def x_levels(self, cap):
        """nx levels log-spaced over [x_lo_frac, 1] * cap; a column of caps
        gives one row of levels per cap."""
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
        """Fold in the metric at one state (x, q_i, q_mi), or at each of
        broadcastable arrays of states; ties keep the first state in C order."""
        if isinstance(metric, np.ndarray):
            metric, x, q_i, q_mi = (v.ravel() for v in np.broadcast_arrays(metric, x, q_i, q_mi))
            finite = np.isfinite(metric)
            k = int(np.argmax(metric) if finite.all() else np.argmin(finite))
            metric, x, q_i, q_mi = metric[k], x[k], q_i[k], q_mi[k]
        metric = float(metric)
        if not math.isfinite(metric):
            raise OverflowError(f"non-finite verification metric {metric} "
                                f"at x={float(x):.6g}, q=({float(q_i):.6g}, {float(q_mi):.6g})")
        if metric > self.value:
            self.value, self.at = metric, (float(x), float(q_i), float(q_mi))

    def result(self, name: str, tol: float, void: str | None = None) -> ConditionResult:
        """The verdict; with `void`, a void one of that note when no state
        was folded in."""
        if void is not None and not self.at:
            return _void(name, void)
        return ConditionResult(name, self.value, self.at, tol, self.value <= tol)


def _tolerance(value_fn) -> float:
    return TOL_QUAD if "dynamic" in getattr(value_fn, "kind", "") else TOL_ANALYTIC


def _void(name: str, note: str) -> ConditionResult:
    return ConditionResult(name, worst=0.0, at=(), tol=0.0, passed=True, note=note)


def _pricing_residual(params: ModelParams, x, q_i, q_mi, v, x_vx, x2_vxx):
    """-r V + profit + mu x V_x + sigma^2 x^2 V_xx / 2, normalised by
    r |V| + 1."""
    resid = (-params.r * v + params.profit_flow(x, q_i, q_mi) + params.mu * x_vx
             + 0.5 * params.sigma ** 2 * x2_vxx)
    return resid / (params.r * np.abs(v) + 1.0)


def _grid_conditions(value_fn, pair, spec: GridSpec) -> tuple:
    """Conditions 1-6 and the propagation identity, as ConditionResults by
    name, and the largest |V| / (1 + q_i + q_mi) below both triggers, the
    hypothesis of the transversality bound, from one walk over the capital
    pair blocks that computes both triggers once per block.  Each condition
    evaluates its own states in a block:

    - below both triggers, {x <= min(triggers)}, one evaluate call gives V,
      x V_x, x**2 V_xx and V_qi for conditions 1 and 5 and the hypothesis;
      V, x V_x and x**2 V_xx stay finite at any level where V does;
    - condition 4 takes nx levels per capital pair log-spaced over the strip
      {min(triggers) < x <= opp trigger}, where the own firm invests and the
      value is the continuation, capped at 1/x_lo_frac times the own
      trigger; void when no capital pair has a strip;
    - condition 3 takes 1, 1.3, 2 and 4 times the opponent trigger, capped
      at the own trigger, where the own trigger is the larger;
    - one evaluate call at the own trigger gives V_qi for condition 2 and
      V_qmi for condition 6, which keeps the pairs whose own trigger is at
      most the opponent's;
    - the propagation identity: above the own trigger, at 1.05, 1.3 and 2
      times it, V_qmi(x, q_i, q_mi) equals the branch's V_qmi(x, phi(x,
      q_mi), q_mi).  The continuation hands back the paste point it solved,
      so each point solves phi once.  The same call gives condition 2's
      V_qi at those levels, so condition 2 reads 1, 1.05, 1.3 and 2 times
      the own trigger.  With an infinite own trigger the region is empty,
      condition 2 is void and the check falls back to condition 3's content
      (V_qmi = 0 above the opponent trigger).
    """
    params, (own, opp) = value_fn.params, pair
    infinite = own.p == math.inf
    names = ("pde_equality", "pde_inequality", "own_derivative_on_trigger",
             "opp_derivative_above_trigger", "own_derivative_below_trigger",
             "opp_derivative_on_trigger", "derivative_propagation")
    worst = {name: _Worst() for name in names}
    linear = _Worst()
    steps = np.arange(1, spec.nx + 1) / spec.nx
    for q_i, q_mi in spec.pair_blocks(pair):
        t_own, t_opp = own.trigger(q_i, q_mi), opp.trigger(q_mi, q_i)
        # A value out of range shows as a non-finite metric, which _Worst
        # refuses with an OverflowError.
        with np.errstate(over="ignore", invalid="ignore"):
            # Conditions 1 and 5 and the hypothesis, below both triggers.
            # `low` lives until the next block.  Freed earlier, its arrays
            # let glibc's malloc trim the heap, which the paste points' B
            # passes then fault back in: 4,000-4,900 more page faults and
            # about 5% more time per verify_dynamic round.
            xs = spec.x_levels(np.minimum(t_own, t_opp))
            low = value_fn.evaluate(xs, q_i, q_mi)
            resid = _pricing_residual(params, xs, q_i, q_mi, low["v"], low["x"], low["xx"])
            worst["pde_equality"].add(np.abs(resid), xs, q_i, q_mi)
            worst["own_derivative_below_trigger"].add(low["qi"] - 1.0, xs, q_i, q_mi)
            linear.add(np.abs(low["v"]) / (1.0 + q_i + q_mi), xs, q_i, q_mi)

            # Condition 4: pricing equation <= 0 on the strip between them.
            strip = (t_own < t_opp).ravel()
            if strip.any():
                qs_i, qs_mi, lo = q_i[strip], q_mi[strip], t_own[strip]
                hi = np.minimum(t_opp[strip], lo / spec.x_lo_frac)
                xs = np.minimum(lo * (hi / lo) ** steps, hi)
                at = value_fn.evaluate(xs, qs_i, qs_mi)
                worst["pde_inequality"].add(
                    _pricing_residual(params, xs, qs_i, qs_mi, at["v"], at["x"], at["xx"]),
                    xs, qs_i, qs_mi)

        # Conditions 2 and 6 at the own trigger, from one call.
        if not infinite:
            at = value_fn.evaluate(t_own, q_i, q_mi)
            worst["own_derivative_on_trigger"].add(np.abs(at["qi"] - 1.0), t_own, q_i, q_mi)
            on = (t_own <= t_opp * (1.0 + 1e-12)).ravel()
            if on.any():
                worst["opp_derivative_on_trigger"].add(
                    at["qmi"][on], t_own[on], q_i[on], q_mi[on])

        # Condition 3: V_qmi = 0 where own trigger strictly dominates, between them.
        strict = (t_own > t_opp).ravel()
        if strict.any():
            qs_i, qs_mi, hi, xb = q_i[strict], q_mi[strict], t_own[strict], t_opp[strict]
            x = np.array([1.0, 1.3, 2.0, 4.0]) * xb
            x = np.where(np.isfinite(hi), np.minimum(x, hi), x)
            worst["opp_derivative_above_trigger"].add(
                np.abs(value_fn.evaluate(x, qs_i, qs_mi)["qmi"]), x, qs_i, qs_mi)

        # The propagation identity above the own trigger, whose call also
        # gives condition 2 there.
        if infinite:
            x = np.array([1.0, 1.5, 3.0]) * t_opp
            diff = value_fn.evaluate(x, q_i, q_mi)["qmi"]
        else:
            x = np.array([1.05, 1.3, 2.0]) * t_own
            at = value_fn.evaluate(x, q_i, q_mi)
            worst["own_derivative_on_trigger"].add(np.abs(at["qi"] - 1.0), x, q_i, q_mi)
            phi = at["phi"]
            # Rounding can put x above the trigger at phi, where evaluate
            # would paste again and compare the chain rule with itself.
            diff = at["qmi"] - value_fn.evaluate(np.minimum(x, own.trigger(phi, q_mi)), phi,
                                                 q_mi)["qmi"]
        worst["derivative_propagation"].add(np.abs(diff), x, q_i, q_mi)

    tol = _tolerance(value_fn)
    voids = {"pde_inequality": "void: no state between the triggers",
             "opp_derivative_above_trigger": "void: own trigger never exceeds opponent's",
             "opp_derivative_on_trigger": "void: no boundary states"}
    results = {name: w.result(name, tol, void=voids.get(name)) for name, w in worst.items()}
    if infinite:
        results["own_derivative_on_trigger"] = _void("own_derivative_on_trigger",
                                                     "void: own trigger infinite")
        results["derivative_propagation"].note = \
            "own trigger infinite: checked V_qmi = 0 above opponent"
    return results, linear.value


def check_pde(value_fn, pair, spec: GridSpec = GridSpec()) -> ConditionResult:
    """Condition 1, the pricing equation -r V + profit + mu x V_x +
    sigma^2 x^2 V_xx / 2 = 0 below both triggers: the max |residual|,
    normalised by r |V| + 1, as the report's pde_equality."""
    return _grid_conditions(value_fn, pair, spec)[0]["pde_equality"]


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
    along the outcomes, where they lie on firm 1's trigger, gathered over
    every outcome in one pass and evaluated in one call.  Capitals change
    only at an outcome's knots, so the increments are read there: at a
    path's first knot against the opponent's initial stock, at every other
    against the knot before."""
    own = value_fn.strategy_pair()[0]
    if own.p == math.inf:
        return _void("opponent_increment_derivative",
                     "void: own trigger infinite, opponent increments unrestricted")
    # Each outcome is dropped once read: only its knots' states are kept.
    xs, q1s, q2s, q2_0 = zip(*((out.path.values[out.knots], out.K1, out.K2, out.initial(2))
                               for out in outcomes))
    x, q1, q2 = (np.concatenate(parts) for parts in (xs, q1s, q2s))
    sizes = np.array([len(k) for k in q2s])
    starts = np.cumsum(sizes) - sizes
    jump = np.empty(len(q2), dtype=bool)
    jump[1:] = np.diff(q2) > 1e-12 * (1.0 + q2[1:])
    jump[starts] = q2[starts] > np.array(q2_0) + 1e-12
    idx = np.flatnonzero(jump)
    # Paths with more than _MAX_INCREMENTS increments keep that many, evenly
    # spaced over the path's own list.
    owner = np.repeat(np.arange(len(sizes)), sizes)
    counts = np.bincount(owner[idx], minlength=len(sizes))
    long = np.flatnonzero(counts > _MAX_INCREMENTS)
    if long.size:
        first = np.cumsum(counts) - counts
        keep = np.repeat(counts <= _MAX_INCREMENTS, counts)
        picks = np.linspace(0, counts[long] - 1, _MAX_INCREMENTS).astype(int)
        keep[(first[long] + picks).ravel()] = True
        idx = idx[keep]
    x, q1, q2 = x[idx], q1[idx], q2[idx]
    # An opponent increment strictly inside firm 1's region is unrestricted.
    on = ~(x < own.trigger(q1, q2) * (1.0 - 1e-9))
    worst = _Worst(0.0)
    if on.any():
        x, q1, q2 = x[on], q1[on], q2[on]
        worst.add(np.abs(value_fn.evaluate(x, q1, q2)["qmi"]), x, q1, q2)
    return worst.result("opponent_increment_derivative", _tolerance(value_fn))


def _side_conditions(value_fn, pair, linear: float, builder, x0: float, horizon: float,
                     n_paths: int = 20, dt: float = 0.01, seed: int = SEED) -> tuple:
    """Transversality, and the increment check on n_paths outcomes built to T.

    Q1 + Q2 <= s0 + (M_t/p_lo)**gamma (M_t: running max of the shock, p_lo:
    the lower price p of the pair's triggers), so where
    |V| <= a (1 + q_i + q_mi), e^{-rt} E|V| is at most the `at` values
    U(t) = e^{-rt} a (1 + s0 + (x0/p_lo)**gamma E[e^{gamma m_t}]) at T, 2T.
    Passes iff that hypothesis holds on the grid below both triggers:
    `linear` is the largest |V| / (1 + q_i + q_mi) there (see
    _grid_conditions)."""
    if n_paths < 1:
        raise UsageError(f"the side conditions need n_paths >= 1, got {n_paths}")
    params = value_fn.params
    outcomes = (builder(generate_path(params, x0, dt, horizon, seed, j))
                for j in range(n_paths))
    first = next(outcomes)
    a = value_linear_bound_coeff(params, [b for b in pair if b.p < math.inf][0])
    p_lo = min(b.p for b in pair)
    worst = linear / a
    u = [a * (math.exp(-params.r * t) * (1.0 + first.initial(1) + first.initial(2))
              + (x0 / p_lo) ** params.gamma * _discounted_max_moment(params, t))
         for t in (horizon, 2.0 * horizon)]
    tv = ConditionResult("transversality", worst, tuple(u), 1.0, worst <= 1.0,
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
    conditions, linear = _grid_conditions(value_fn, pair, spec)
    report = VerificationReport(getattr(value_fn, "kind", "?"), conditions, asdict(spec))
    if simulation is not None:
        for res in _side_conditions(value_fn, pair, linear, **simulation):
            report.add(res)
    return report
