"""The benchmark's workloads: set-up, one round of program calls, checks.

A round is a fixed set of operations (simulated paths or verification
reports); a run repeats rounds, so every run attempts whole rounds.  Round k
of a run with seed s draws its inputs from the seed `round_seed(s, k)`, which
makes every round a pure function of (s, k).  Only the program's calls are
timed; the checks that sampled paths feed run outside the timed region, and
the checks that need scipy run in `finish`, after the program's memory peak
has been read.

All workloads use the golden parameters r=1, mu=0, sigma=sqrt(2), gamma=1.5.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import reference as ref
from duopoly_invest.boundaries import ConstantPriceBoundary, DynamicBoundary
from duopoly_invest.mc import estimate_payoff
from duopoly_invest.model import derive_params
from duopoly_invest.outcomes import (
    build_abstain_outcome,
    build_symmetric_outcome,
    catch_up_report,
    check_consistency,
    payoff,
)
from duopoly_invest.paths import generate_path
from duopoly_invest.values import DynamicValue, PerturbedValue
from duopoly_invest.verify import GridSpec, check_pde, run_verification

GOLDEN = ref.GOLDEN
PRIMS = (GOLDEN["r"], GOLDEN["mu"], GOLDEN["sigma"], GOLDEN["gamma"])
SEED_STRIDE = 10_000


def round_seed(seed: int, k: int) -> int:
    return seed * SEED_STRIDE + k


# A Brownian bridge over one step of length dt exceeds the larger end of the
# step, in log X, by d with probability exp(-2 d^2 / (sigma^2 dt)) at most;
# at d = 6 sigma sqrt(dt) that is exp(-72).
BRIDGE_EXCESS_SDS = 6.0


def aggregate_law_defect(values, total, q_sum0, p, gamma, sigma, dt) -> float:
    """Defect of the law Q1+Q2 = max(q_sum0, (M/p)^gamma) on one path, where
    M is the running maximum of the shock as the program monitors it.

    M may be the maximum on the grid or a finer one, such as the exact
    continuous maximum of a Brownian-bridge interpolation, so the law is
    checked as an envelope: M lies between the grid maximum and the grid
    maximum times exp(6 sigma sqrt(dt)), and Q1+Q2 never decreases.  Returns
    the largest excess, relative to 1 + max(Q1+Q2); 0 when the law holds.
    """
    sup_x = np.maximum.accumulate(values)
    lo = np.maximum(q_sum0, (sup_x / p) ** gamma)
    hi = np.maximum(q_sum0, (sup_x * math.exp(BRIDGE_EXCESS_SDS * sigma * math.sqrt(dt))
                             / p) ** gamma)
    excess = max(float(np.max(lo - total)), float(np.max(total - hi)),
                 float(np.max(total[:-1] - total[1:])), 0.0)
    return excess / (1.0 + float(np.max(total)))


@dataclass
class Round:
    wall: float          # seconds spent in the program's calls
    attempted: int
    failed: int
    digest: str          # sha256 of the program's outputs


@dataclass
class Checks:
    """Failed checks of a run, as messages."""

    problems: list = field(default_factory=list)

    def expect(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)


def _failure(what: str):
    traceback.print_exc()
    return f"{what} raised"


class McAbstain:
    """Payoff of the abstaining firm under the constant price p*.

    Criterion-5 set-up: x0 = p* 2^(1/gamma) / 2 (price p*/2 at q = (1, 1)),
    dt = 1e-3, T = 20.  One operation is one simulated path.
    """

    name = "mc_abstain"

    def __init__(self, seed: int, n_paths: int = 1000, dt: float = 1e-3,
                 horizon: float = 20.0, sample_every: int = 10):
        self.seed = seed
        self.params = derive_params(**GOLDEN)
        self.cp = ConstantPriceBoundary(self.params, self.params.p_star)
        self.pair = (self.cp, self.cp)
        self.p_ref = ref.p_star(*PRIMS[:3])
        self.x0 = self.p_ref * 2.0 ** (1.0 / GOLDEN["gamma"]) / 2.0
        self.n_paths, self.dt, self.horizon = n_paths, dt, horizon
        self.sample_every = sample_every
        self.ops_per_round = n_paths
        self.estimates = []
        self.gaps = []            # program payoff - continuous-monitoring payoff
        self.checks = Checks()
        self.worst_agg = 0.0

    def _check_path(self, path, out, seed):
        """Aggregate law and the coupled gap to a continuous-monitoring
        payoff on one sampled path."""
        self.worst_agg = max(self.worst_agg, aggregate_law_defect(
            path.values, out.Q1 + out.Q2, 2.0, self.cp.p, GOLDEN["gamma"],
            GOLDEN["sigma"], self.dt))
        uniforms = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            entropy=seed, spawn_key=(path.path_index, 1)))).random(path.n_steps)
        cont = ref.continuous_abstainer_payoff(path.values, uniforms, self.cp.p, 1.0, 1.0,
                                               self.dt, GOLDEN["r"], GOLDEN["sigma"],
                                               GOLDEN["gamma"])
        self.gaps.append(payoff(self.params, out, 1) - cont)

    def run_round(self, k: int, check: bool) -> Round:
        seed = round_seed(self.seed, k)
        check_s = 0.0

        def builder(path):
            nonlocal check_s
            out = build_abstain_outcome(self.pair, path, 1.0, 1.0, 1)
            if check and path.path_index % self.sample_every == 0:
                t = perf_counter()
                self._check_path(path, out, seed)
                check_s += perf_counter() - t
            return out

        t0 = perf_counter()
        try:
            est = estimate_payoff(self.params, builder, firm=1, x0=self.x0,
                                  n_paths=self.n_paths, dt=self.dt, horizon=self.horizon,
                                  seed=seed, tail_boundary=self.cp)
        except Exception:
            self.checks.problems.append(_failure(f"estimate_payoff round {k}"))
            return Round(perf_counter() - t0 - check_s, self.n_paths, self.n_paths, "")
        wall = perf_counter() - t0 - check_s
        if check:
            self.estimates.append(est)
        return Round(wall, self.n_paths, 0, hashlib.sha256(est.dumps().encode()).hexdigest())

    def finish(self) -> Checks:
        """The rounds' estimates pooled (equal path counts) must lie between
        the continuous closed form and its grid-monitoring correction, each
        widened by 3 SE and the horizon tail bound."""
        c = self.checks
        if not self.estimates:
            c.problems.append("no round produced an estimate")
            return c
        mean = float(np.mean([e.mean for e in self.estimates]))
        se = math.sqrt(sum(e.se ** 2 for e in self.estimates)) / len(self.estimates)
        tail = max(e.tail_bound for e in self.estimates)
        cont = ref.abstain_value(self.x0, 1.0, 1.0, self.p_ref, *PRIMS)
        shifted = ref.grid_monitored_price(self.p_ref, GOLDEN["sigma"], self.dt)
        corrected = ref.abstain_value(self.x0, 1.0, 1.0, shifted, *PRIMS)
        lo, hi = cont - 3.0 * se - tail, corrected + 3.0 * se + tail
        self.summary = {"mean": mean, "se": se, "tail_bound": tail, "continuous": cont,
                        "corrected": corrected, "gap_se": (mean - cont) / se,
                        "corrected_gap_se": (mean - corrected) / se,
                        "paths": sum(e.n for e in self.estimates)}
        c.expect(lo <= mean <= hi,
                 f"mean {mean:.6f} outside [{lo:.6f}, {hi:.6f}] (continuous {cont:.6f}, "
                 f"grid-corrected {corrected:.6f}, se {se:.2e})")
        c.expect(self.worst_agg <= 1e-13, f"aggregate law defect {self.worst_agg:.2e}")
        return c

    def mse_time(self, wall: float) -> float:
        """(bias^2 + SE^2) x wall of one round's estimate.

        The bias is the mean gap between the program's payoff and the
        continuous-monitoring payoff on the same sampled paths; that coupling
        removes the sampling noise a direct mean-minus-closed-form carries,
        whose square would vary across seeds by as much as its median.
        """
        bias = float(np.mean(self.gaps))
        var = float(np.mean([e.se ** 2 for e in self.estimates]))
        return (bias * bias + var) * wall


class CatchUp:
    """Symmetric c=1 catch-up outcomes, criterion-8 set-up.

    x0 = 5, q = (q_floor, 1.3 q_floor), dt = 1e-3, T = 3.  Per path:
    generate_path, build_symmetric_outcome, catch_up_report and
    check_consistency for both firms.  One operation is one path.
    """

    name = "catch_up"
    c = 1.0
    dt = 1e-3
    points_per_path = 2        # capitals checked against brentq per path

    def __init__(self, seed: int, n_paths: int = 100, horizon: float = 3.0):
        self.seed = seed
        self.params = derive_params(**GOLDEN)
        self.dyn = DynamicBoundary(self.params, self.c)
        self.q1 = ref.q_floor(self.c, *PRIMS)
        self.q2 = 1.3 * self.q1
        self.x0 = 5.0
        self.n_paths, self.horizon = n_paths, horizon
        self.ops_per_round = n_paths
        self.checks = Checks()
        self.points = []          # (running max of X, Q1, Q2) at sampled indices
        self.worst_dev = 0.0
        self.interior_tau = 0
        self.paths_checked = 0

    def _check_path(self, rng, path, out, rep, cons):
        c = self.checks
        j = path.path_index
        c.expect(rep["larger_constant_before"] and rep["max_gap_after"] == 0.0,
                 f"catch-up structure broken on path {j}: {rep}")
        for r in cons:
            self.worst_dev = max(self.worst_dev, r.max_deviation)
            c.expect(r.support_violations == 0,
                     f"{r.support_violations} support violations on path {j}")
        self.interior_tau += rep["tau_index"] < len(path.values)
        self.paths_checked += 1
        n = path.n_steps
        sup_x = np.maximum.accumulate(path.values)
        for i in [*rng.integers(0, n + 1, self.points_per_path - 1), n]:
            self.points.append((float(sup_x[i]), float(out.Q1[i]), float(out.Q2[i])))

    def run_round(self, k: int, check: bool) -> Round:
        seed = round_seed(self.seed, k)
        rng = np.random.default_rng([self.seed, k])
        pair = (self.dyn, self.dyn)
        digest = hashlib.sha256()
        wall, failed = 0.0, 0
        for j in range(self.n_paths):
            t0 = perf_counter()
            try:
                path = generate_path(self.params, self.x0, self.dt, self.horizon, seed, j)
                out = build_symmetric_outcome(pair, path, self.q1, self.q2)
                rep = catch_up_report(self.dyn, out)
                cons = [check_consistency(out, self.dyn, f) for f in (1, 2)]
            except Exception:
                wall += perf_counter() - t0
                failed += 1
                self.checks.problems.append(_failure(f"path {j} of round {k}"))
                continue
            wall += perf_counter() - t0
            digest.update(out.Q1.tobytes())
            digest.update(out.Q2.tobytes())
            digest.update(repr((sorted(rep.items()), cons)).encode())
            if check:
                self._check_path(rng, path, out, rep, cons)
        return Round(wall, self.n_paths, failed, digest.hexdigest())

    def finish(self) -> Checks:
        c = self.checks
        c.expect(self.worst_dev < 1e-9, f"consistency deviation {self.worst_dev:.2e} >= 1e-9")
        worst = 0.0
        for sup_x, q1, q2 in self.points:
            r1, r2 = ref.catch_up_capitals(sup_x, self.q1, self.q2, self.c, *PRIMS)
            worst = max(worst, abs(q1 - r1) / (1.0 + r1), abs(q2 - r2) / (1.0 + r2))
        c.expect(worst <= 1e-10, f"capital differs from the brentq reference by {worst:.2e}")
        self.summary = {"paths": self.paths_checked, "interior_tau": self.interior_tau,
                        "worst_consistency": self.worst_dev,
                        "points": len(self.points), "worst_capital_vs_brentq": worst}
        return c


class VerifyDynamic:
    """Verification reports of DynamicValue for c in {0.5, 1}.

    Default 40x20x20 grid and the criterion-4 simulation side conditions
    (q1 = q_floor + 0.2, q2 = q1 + 0.2, x0 = 0.9 trigger(q2, q2), horizon 6,
    80 transversality paths, dt = 0.01).  Every round builds fresh value
    objects, as a command-line `verify` starts with an empty B cache.  One
    operation is one report.
    """

    name = "verify_dynamic"
    cs = (0.5, 1.0)
    horizon = 6.0

    def __init__(self, seed: int, spec: GridSpec | None = None, n_paths: int = 80,
                 dt: float = 0.01, samples: int = 6):
        self.seed = seed
        self.params = derive_params(**GOLDEN)
        self.spec = spec or GridSpec()
        self.n_paths, self.dt = n_paths, dt
        self.samples = samples
        self.ops_per_round = len(self.cs)
        # Built here so that set-up covers them; the B check in finish uses
        # them, so no round's B cache outlives its round.
        self.values = {c: DynamicValue(self.params, c) for c in self.cs}
        self.checks = Checks()
        self.transversality_fails = 0

    def run_round(self, k: int, check: bool) -> Round:
        seed = round_seed(self.seed, k)
        digest = hashlib.sha256()
        wall, failed = 0.0, 0
        for c in self.cs:
            t0 = perf_counter()
            try:
                fn = DynamicValue(self.params, c)
                dyn = fn.boundary
                q1 = dyn.q_floor + 0.2
                q2 = q1 + 0.2
                sim = dict(builder=lambda path, b=dyn, a=q1, bb=q2:
                           build_symmetric_outcome((b, b), path, a, bb),
                           x0=0.9 * dyn.trigger(q2, q2), horizon=self.horizon,
                           n_paths=self.n_paths, dt=self.dt, seed=seed)
                rep = run_verification(fn, spec=self.spec, simulation=sim)
            except Exception:
                wall += perf_counter() - t0
                failed += 1
                self.checks.problems.append(_failure(f"report c={c} of round {k}"))
                continue
            wall += perf_counter() - t0
            digest.update(rep.dumps().encode())
            if check:
                self._check_report(rep, c, k)
        return Round(wall, len(self.cs), failed, digest.hexdigest())

    def _check_report(self, rep, c, k):
        """Every condition passes, except that the transversality verdict is
        only counted: with 80 paths its estimate of e^{-rT} E|V| is heavy
        tailed and fails on about 2.5% of seeds for the exact DynamicValue.
        Its two estimates must still be finite and non-negative."""
        failing = [n for n, v in rep.conditions.items()
                   if not v.passed and n != "transversality"]
        self.checks.expect(not failing, f"c={c} round {k} fails {failing}")
        tv = rep.conditions["transversality"]
        self.checks.expect(all(math.isfinite(e) and e >= 0.0 for e in tv.at),
                           f"c={c} round {k} transversality estimates {tv.at}")
        self.transversality_fails += not tv.passed

    def finish(self) -> Checks:
        c = self.checks
        rng = np.random.default_rng([self.seed, 1])
        control = PerturbedValue(DynamicValue(self.params, 0.5), 1.01)
        c.expect(not check_pde(control, control.strategy_pair(), self.spec).passed,
                 "negative control PerturbedValue(DynamicValue(0.5), 1.01) passes pde_equality")
        worst_b = 0.0
        for cval, fn in self.values.items():
            pairs = self.spec.capital_pairs(fn.strategy_pair())
            for i in rng.choice(len(pairs), size=min(self.samples, len(pairs)), replace=False):
                q_i, q_mi = pairs[i]
                b_ref = ref.dynamic_B(q_i, q_mi, cval, *PRIMS)
                worst_b = max(worst_b, abs(fn.B(q_i, q_mi) - b_ref) / (1.0 + abs(b_ref)))
        c.expect(worst_b <= 1e-10, f"B differs from quad by {worst_b:.2e} (relative to 1+|B|)")
        zero = DynamicValue(self.params, 0.0)
        p = ref.p_star(*PRIMS[:3])
        worst_v = 0.0
        for _ in range(self.samples):
            q_i, q_mi = rng.uniform(0.1, 5.0, 2)
            for frac in (0.05, 0.5, 0.999, 1.5, 3.0):
                x = frac * p * (q_i + q_mi) ** (1.0 / GOLDEN["gamma"])
                v_ref = ref.abstain_value(x, q_i, q_mi, p, *PRIMS)
                worst_v = max(worst_v, abs(zero.value(x, q_i, q_mi) - v_ref) / (1.0 + abs(v_ref)))
        c.expect(worst_v <= 1e-8, f"c=0 value differs from the abstain closed form by {worst_v:.2e}")
        self.summary = {"worst_B_vs_quad": worst_b, "worst_c0_vs_abstain": worst_v,
                        "transversality_fails": self.transversality_fails}
        return c


WORKLOADS = {w.name: w for w in (McAbstain, CatchUp, VerifyDynamic)}
