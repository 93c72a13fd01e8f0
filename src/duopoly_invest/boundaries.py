"""Investment-trigger surfaces and their base-capacity inverses.

A boundary maps capital stocks (q_i, q_mi) to the shock level at which the
owning firm starts investing.  The base capacity phi(x, q_mi) inverts the
trigger in its first argument: the smallest own capital at which the shock x
no longer triggers investment.  Three families are supported:

  ConstantPriceBoundary(p)   invest when the price x*P rises above p
  DynamicBoundary(c)         invest when x*P rises above p_star + c/(q_i v q_mi)
  InfiniteBoundary           never invest (phi identically zero)

The dynamic family is defined (and strictly increasing in both capitals)
only for q_i, q_mi >= q_floor = c*(2*gamma-1)/p_star.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BelowFloorError,
    KindMismatchError,
    RootBracketError,
    UsageError,
    ZeroCapacityError,
)
from .model import ModelParams

# Absolute root tolerance: 1e-12 * max(1, q).
_ROOT_TOL = 1e-12
# Safeguarded Newton falls back to bisection, so this cap is never reached
# on a valid bracket.
_NEWTON_MAX_ITER = 200
# Geometric expansions of a bisection bracket before giving up.
_MAX_EXPAND = 400
# Relative slack when validating the capital floor, so that capital grids
# built from floating-point arithmetic at exactly q_floor stay admissible.
_FLOOR_SLACK = 1e-9


def _bisect_increasing(g, target, lo, hi):
    """Vectorized bisection for g(q) = target with g strictly increasing.

    lo/hi/target are broadcastable arrays; hi is expanded geometrically while
    g(hi) < target (the guard against a bad initial bracket).  Returns the
    root to absolute tolerance _ROOT_TOL * max(1, root).
    """
    target = np.asarray(target, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), target.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), target.shape).copy()
    for _ in range(_MAX_EXPAND):
        bad = g(hi) < target
        if not bad.any():
            break
        hi = np.where(bad, np.maximum(hi * 2.0, 1.0), hi)
    else:
        raise RootBracketError("could not bracket trigger inverse after expansion")
    # Enough bisection steps to push the bracket below tolerance everywhere.
    width = float(np.max(hi - lo))
    scale = float(np.max(np.maximum(1.0, hi)))
    n_iter = max(1, int(math.ceil(math.log2(max(width / (_ROOT_TOL * scale), 2.0)))) + 2)
    for _ in range(min(n_iter, 120)):
        mid = 0.5 * (lo + hi)
        high = g(mid) >= target
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return 0.5 * (lo + hi)


def _total_capacity(q_i, q_mi):
    """q_i + q_mi for floats or arrays; ZeroCapacityError where it is not positive."""
    q = q_i + q_mi
    if q <= 0.0 if isinstance(q, float) else np.any(q <= 0.0):
        raise ZeroCapacityError("trigger needs positive aggregate capacity")
    return q


@dataclass(frozen=True)
class ConstantPriceBoundary:
    """Trigger p * (q_i + q_mi)**(1/gamma): invest when the price exceeds p."""

    params: ModelParams
    p: float
    kind: str = field(default="constant_price", init=False)

    def __post_init__(self):
        if self.p <= 0.0:
            raise UsageError(f"price threshold must be positive, got {self.p}")

    @property
    def q_floor(self) -> float:
        return 0.0

    def trigger(self, q_i, q_mi):
        """Trigger at one capital pair, or elementwise over arrays."""
        return self.p * _total_capacity(q_i, q_mi) ** (1.0 / self.params.gamma)

    def trigger_grad(self, q_i: float, q_mi: float) -> tuple:
        """(dT/dq_i, dT/dq_mi) at one capital pair: both capitals enter
        through q_i + q_mi only."""
        d = self.trigger(q_i, q_mi) / (self.params.gamma * (q_i + q_mi))
        return d, d

    def base_capacity(self, x: float, q_mi: float) -> float:
        """Closed form: max(0, (x/p)**gamma - q_mi)."""
        return max(0.0, (x / self.p) ** self.params.gamma - q_mi)

    def base_capacity_array(self, x, q_mi):
        x = np.asarray(x, dtype=float)
        return np.maximum(0.0, (x / self.p) ** self.params.gamma - q_mi)

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p}


@dataclass(frozen=True)
class InfiniteBoundary:
    """Never-invest sentinel: trigger +inf, base capacity identically zero."""

    params: ModelParams
    kind: str = field(default="infinite", init=False)

    @property
    def q_floor(self) -> float:
        return 0.0

    def trigger(self, q_i, q_mi):
        shape = np.broadcast(q_i, q_mi).shape
        return np.full(shape, np.inf) if shape else math.inf

    def base_capacity(self, x: float, q_mi: float) -> float:
        return 0.0

    def base_capacity_array(self, x, q_mi):
        return np.zeros_like(np.asarray(x, dtype=float))

    def to_json(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class DynamicBoundary:
    """Trigger (p_star + c/max(q_i, q_mi)) * (q_i + q_mi)**(1/gamma).

    The premium c/max(q_i, q_mi) over the zero-NPV price shrinks as the
    bigger firm grows, so extra investment by either firm lowers the price at
    which future investment happens.  Strict monotonicity in both capitals
    holds on q_i, q_mi >= q_floor = c*(2*gamma-1)/p_star, and evaluation
    below the floor is a domain error rather than an extrapolation.
    """

    params: ModelParams
    c: float
    kind: str = field(default="dynamic_c", init=False)

    def __post_init__(self):
        if self.c < 0.0:
            raise UsageError(f"premium coefficient must be nonnegative, got {self.c}")

    @cached_property
    def q_floor(self) -> float:
        return self.c * (2.0 * self.params.gamma - 1.0) / self.params.p_star

    @cached_property
    def _floor_limit(self) -> float:
        return self.q_floor - _FLOOR_SLACK * max(1.0, self.q_floor)

    def _check_floor(self, *qs):
        # Scalars (numpy scalars are floats too) are compared as plain floats;
        # only arrays go through numpy.
        limit = self._floor_limit
        for q in qs:
            if isinstance(q, (float, int)):
                below = float(q) < limit
            else:
                below = np.any(np.asarray(q) < limit)
            if below:
                raise BelowFloorError(
                    f"capital below admissible floor {self.q_floor} for c={self.c}"
                )

    def _raw_trigger(self, q_i, q_mi):
        # Formula without the floor check; used by quadrature and root finding
        # where intermediate abscissae are guaranteed admissible by the caller.
        q = q_i + q_mi
        prem = 0.0
        if self.c > 0.0:
            if isinstance(q_i, float) and isinstance(q_mi, float):
                prem = self.c / (q_i if q_i > q_mi else q_mi)
            else:
                prem = self.c / np.maximum(q_i, q_mi)
        return (self.params.p_star + prem) * q ** (1.0 / self.params.gamma)

    def trigger(self, q_i, q_mi):
        """Trigger at one capital pair, or elementwise over arrays."""
        _total_capacity(q_i, q_mi)
        self._check_floor(q_i, q_mi)
        trig = self._raw_trigger(q_i, q_mi)
        return trig if isinstance(trig, np.ndarray) else float(trig)

    def trigger_grad(self, q_i: float, q_mi: float) -> tuple:
        """(dT/dq_i, dT/dq_mi) of the raw trigger at one capital pair.  The
        premium c/max(q_i, q_mi) moves with the bigger capital, q_i on the
        kink q_i = q_mi, where its one-sided derivative is the one for
        growing q_i."""
        a = 1.0 / self.params.gamma
        s = q_i + q_mi
        s_a = s ** a
        big = q_i if q_i >= q_mi else q_mi
        via_s = a * (self.params.p_star + self.c / big) * s_a / s
        via_prem = self.c / big * s_a / big
        return (via_s - via_prem, via_s) if q_i >= q_mi else (via_s, via_s - via_prem)

    def base_capacity(self, x: float, q_mi: float) -> float:
        """Smallest own capital (>= q_floor) keeping the trigger at or above
        one shock level x; the scalar counterpart of base_capacity_array.

        Closed form for c = 0.  Otherwise the trigger has a kink at q = q_mi:
        below it the premium is frozen at c/q_mi and the trigger inverts in
        closed form; above it a safeguarded Newton iteration on
        (p_star + c/q)(q + q_mi)**(1/gamma), with its analytic derivative,
        stays inside [max(q_floor, q_mi), max(q_floor, (x/p_star)**gamma -
        q_mi) + 1], bisects whenever a step would leave that bracket, and
        stops once a step is below 1e-12 * max(1, q).
        """
        x, q_mi = float(x), float(q_mi)
        p_star, gamma, c = self.params.p_star, self.params.gamma, self.c
        if c == 0.0:
            return max(0.0, (x / p_star) ** gamma - q_mi)
        self._check_floor(q_mi)
        floor = self.q_floor
        a = 1.0 / gamma
        if x <= (p_star + c / (floor if floor > q_mi else q_mi)) * (floor + q_mi) ** a:
            return floor
        if floor < q_mi and x <= (p_star + c / q_mi) * (2.0 * q_mi) ** a:
            return max(floor, (x / (p_star + c / q_mi)) ** gamma - q_mi)
        lo = floor if floor > q_mi else q_mi
        hi = max(floor, (x / p_star) ** gamma - q_mi) + 1.0
        # The premium frozen at its value at lo overstates the trigger, so
        # this start lies in [lo, root].
        q = max(lo, (x / (p_star + c / lo)) ** gamma - q_mi)
        for _ in range(_NEWTON_MAX_ITER):
            s_a = (q + q_mi) ** a
            price = p_star + c / q
            f = price * s_a - x
            if f < 0.0:
                lo = q
            else:
                hi = q
            step = f / (a * price * s_a / (q + q_mi) - c / q * s_a / q)
            if abs(step) <= _ROOT_TOL * max(1.0, q):
                return min(max(q - step, lo), hi)
            q -= step
            if not lo < q < hi:
                q = 0.5 * (lo + hi)
        raise RootBracketError("Newton iteration for the trigger inverse did not converge")

    def base_capacity_array(self, x, q_mi):
        """Smallest own capital (>= q_floor) keeping the trigger at or above x.

        Closed form for c = 0; otherwise bisection on the strictly increasing
        trigger.  (p_star + c/q)(q + q_mi)^(1/gamma) >= x holds at
        q = max(q_floor, (x/p_star)**gamma - q_mi), which brackets the root.
        """
        p_star = self.params.p_star
        x = np.asarray(x, dtype=float)
        if self.c == 0.0:
            return np.maximum(0.0, (x / p_star) ** self.params.gamma - q_mi)
        self._check_floor(q_mi)
        q_mi = np.asarray(q_mi, dtype=float)
        floor = self.q_floor
        at_floor = x <= self._raw_trigger(floor, q_mi)
        hi = np.maximum(floor, (x / p_star) ** self.params.gamma - q_mi) + 1.0
        root = _bisect_increasing(lambda q: self._raw_trigger(q, q_mi), x,
                                  np.full_like(x, floor), hi)
        out = np.where(at_floor, floor, np.maximum(root, floor))
        return out if out.shape else float(out)

    def symmetric_base_capacity(self, x) -> float | np.ndarray:
        """Smallest symmetric capital q (>= q_floor) with trigger(q, q) >= x."""
        p_star = self.params.p_star
        x = np.asarray(x, dtype=float)
        if self.c == 0.0:
            out = 0.5 * (x / p_star) ** self.params.gamma
            return out if out.shape else float(out)
        floor = self.q_floor
        at_floor = x <= self._raw_trigger(floor, floor)
        hi = np.maximum(floor, 0.5 * (x / p_star) ** self.params.gamma) + 1.0
        root = _bisect_increasing(lambda q: self._raw_trigger(q, q), x,
                                  np.full_like(x, floor), hi)
        out = np.where(at_floor, floor, np.maximum(root, floor))
        return out if out.shape else float(out)

    def to_json(self) -> dict:
        return {"kind": self.kind, "c": self.c}


Boundary = ConstantPriceBoundary | DynamicBoundary | InfiniteBoundary


def boundary_from_json(block: dict, params: ModelParams) -> Boundary:
    """Build a boundary from its JSON strategy block."""
    kind = block.get("kind")
    if kind == "constant_price":
        if "p" not in block:
            raise UsageError('constant_price block needs field "p"')
        return ConstantPriceBoundary(params, float(block["p"]))
    if kind == "dynamic_c":
        if "c" not in block:
            raise UsageError('dynamic_c block needs field "c"')
        return DynamicBoundary(params, float(block["c"]))
    if kind == "infinite":
        return InfiniteBoundary(params)
    raise UsageError(f"unknown boundary kind: {kind!r}")


def require_same_constant_price(b1: Boundary, b2: Boundary) -> float:
    """Shared price threshold of a constant-price pair, or KindMismatchError.

    A dynamic boundary with c = 0 degenerates to constant price p_star and is
    accepted as such.
    """
    ps = []
    for b in (b1, b2):
        if isinstance(b, ConstantPriceBoundary):
            ps.append(b.p)
        elif isinstance(b, DynamicBoundary) and b.c == 0.0:
            ps.append(b.params.p_star)
        else:
            raise KindMismatchError(f"expected constant-price boundaries, got {b.kind}")
    if ps[0] != ps[1]:
        raise KindMismatchError(f"price thresholds differ: {ps[0]} vs {ps[1]}")
    return ps[0]
