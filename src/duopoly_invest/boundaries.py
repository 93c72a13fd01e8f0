"""Investment-trigger surfaces and their base-capacity inverses.

A boundary maps capital stocks (q_i, q_mi) to the shock level at which the
owning firm starts investing.  Every boundary is one trigger surface

    T(q_i, q_mi) = (p + c/max(q_i, q_mi)) * (q_i + q_mi)**(1/gamma),

invest when the price x*P rises above p + c/max(q_i, q_mi).  The base
capacity phi(x, q_mi) inverts the trigger in its first argument: the
smallest own capital at which the shock x no longer triggers investment.
The strategy families are parameter choices of (p, c):

  ConstantPriceBoundary(p)   (p, 0): invest when the price rises above p
  DynamicBoundary(c)         (p_star, c): the premium c/max(q_i, q_mi)
  InfiniteBoundary           (inf, 0): never invest (phi identically zero)

The trigger is defined (and strictly increasing in both capitals) only for
q_i, q_mi >= q_floor = c*(2*gamma-1)/p, which is zero without a premium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

# Root tolerance: relative, 1e-12 * q, for the Newton solver; absolute,
# 1e-12 * max(1, q), for the reference bisection.
_ROOT_TOL = 1e-12
# Safeguarded Newton falls back to bisection, so this cap is never reached
# on a valid bracket.
_NEWTON_MAX_ITER = 200
# Points from which base_capacity and symmetric_base_capacity solve an
# array in one vectorized Newton pass instead of a loop of the scalar
# solver.  On a 2-core machine (Python 3.11, numpy 2.4), medians of 151
# alternated timings: a pass costs 330-380 us from 24 to 64 points, nearly
# all of it numpy's per-call overhead on small arrays, and the loop about
# 8 us per point, so they cross at 35-41 points for paste points (phi) and
# for running-max records (psi); from 48 points the pass is faster on both.
_ARRAY_ROOTS = 48
# Geometric expansions of the reference bisection's bracket before giving up.
_MAX_EXPAND = 400
# Relative slack when validating the capital floor, so that capital grids
# built from floating-point arithmetic at exactly q_floor stay admissible.
_FLOOR_SLACK = 1e-9


def _total_capacity(q_i, q_mi):
    """q_i + q_mi for floats or arrays; ZeroCapacityError where it is not
    positive, OverflowError where it overflows."""
    with np.errstate(over="ignore"):   # an overflow is refused below
        q = q_i + q_mi
    scalar = isinstance(q, float)
    if q <= 0.0 if scalar else np.any(q <= 0.0):
        raise ZeroCapacityError("trigger needs positive aggregate capacity")
    if q == math.inf if scalar else np.any(q == math.inf):
        raise OverflowError("aggregate capacity q_i + q_mi overflows")
    return q


@dataclass(frozen=True)
class Boundary:
    """Trigger (p + c/max(q_i, q_mi)) * (q_i + q_mi)**(1/gamma).

    The premium c/max(q_i, q_mi) over the price p shrinks as the bigger firm
    grows, so extra investment by either firm lowers the price at which
    future investment happens.  Strict monotonicity in both capitals holds
    on q_i, q_mi >= q_floor = c*(2*gamma-1)/p, and evaluation below the
    floor is a domain error rather than an extrapolation.  p = inf is the
    never-invest trigger.
    """

    params: ModelParams
    p: float
    c: float

    @cached_property
    def q_floor(self) -> float:
        return self.c * (2.0 * self.params.gamma - 1.0) / self.p

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
        return (self.p + prem) * q ** (1.0 / self.params.gamma)

    def trigger(self, q_i, q_mi):
        """Trigger at one capital pair, or elementwise over arrays."""
        _total_capacity(q_i, q_mi)
        self._check_floor(q_i, q_mi)
        trig = self._raw_trigger(q_i, q_mi)
        return trig if isinstance(trig, np.ndarray) else float(trig)

    def _terms(self, big, s):
        """The trigger (p + c/big) * s**(1/gamma) and the two terms of its
        derivative, through s and through the premium c/big; shared by
        trigger_grad and the Newton solver.  The premium term is
        c/big * s_a/big, not c*s_a/big**2, so that it does not underflow for
        a premium near 1e-303."""
        s_a = s ** (1.0 / self.params.gamma)
        prem = self.c / big
        trig = (self.p + prem) * s_a
        return trig, trig / (self.params.gamma * s), prem * s_a / big

    def trigger_grad(self, q_i, q_mi) -> tuple:
        """(dT/dq_i, dT/dq_mi) of the raw trigger, elementwise over capital
        pairs.  The premium c/max(q_i, q_mi) moves with the bigger capital,
        q_i on the kink q_i = q_mi, where its one-sided derivative is the one
        for growing q_i; without a premium both capitals enter through
        q_i + q_mi only."""
        own_big = np.greater_equal(q_i, q_mi)
        _, via_s, via_prem = self._terms(np.where(own_big, q_i, q_mi), q_i + q_mi)
        return (np.where(own_big, via_s - via_prem, via_s),
                np.where(own_big, via_s, via_s - via_prem))

    def base_capacity(self, x, q_mi):
        """Smallest own capital (>= q_floor) keeping the trigger at or above
        x, a float at one point or elementwise over arrays: the closed form
        max(0, (x/p)**gamma - q_mi) for c = 0, otherwise the Newton inverse
        at each point (_roots).  A loop of the scalar solver is faster below
        _ARRAY_ROOTS = 48 points, where one vectorized pass costs more in
        numpy calls than the loop in arithmetic; they cross at 35-41 points.
        The builders pass the running-max records of a path, at most a few
        dozen points and mostly fewer than ten, which stay on the loop; a
        verification block passes its paste points, 384 of them, which take
        one vectorized pass."""
        if self.c == 0.0:
            phi = (x / self.p) ** self.params.gamma - q_mi
            return np.maximum(0.0, phi) if isinstance(phi, np.ndarray) else max(0.0, float(phi))
        self._check_floor(q_mi)
        if not (isinstance(x, np.ndarray) or isinstance(q_mi, np.ndarray)):
            return self._inverse(float(x), float(q_mi), 1)
        x, q_mi = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(q_mi, dtype=float))
        return self._roots(x.ravel(), q_mi.ravel(), 1).reshape(x.shape)

    def _roots(self, x, q_mi, k):
        """_inverse at each point of the 1-D arrays x, q_mi: a loop of the
        scalar solver below _ARRAY_ROOTS points, where it is faster, and
        _inverse_array from there on."""
        if x.size < _ARRAY_ROOTS:
            return np.array([self._inverse(v, w, k) for v, w in zip(x.tolist(), q_mi.tolist())])
        return self._inverse_array(x, q_mi, k)

    def _inverse(self, x: float, q_mi: float, k: int) -> float:
        """Smallest q >= q_floor with (p + c/max(q, q_mi)) *
        (k*q + q_mi)**(1/gamma) >= x, for c > 0: k = 1 inverts the trigger
        in own capital, k = 2 with q_mi = 0 on the diagonal q_i = q_mi.

        The trigger has a kink at q = q_mi: below it the premium is frozen at
        c/q_mi and the trigger inverts in closed form; above it a safeguarded
        Newton iteration, with the analytic derivative, stays inside
        [max(q_floor, q_mi), max(q_floor, ((x/p)**gamma - q_mi)/k) + 1],
        bisects whenever a step would leave that bracket, and stops once a
        step or the bracket is below 1e-12 * q.
        """
        p, gamma, c = self.p, self.params.gamma, self.c
        floor = self.q_floor
        a = 1.0 / gamma
        lo = floor if floor > q_mi else q_mi
        price_lo = p + c / lo
        if x <= price_lo * (k * floor + q_mi) ** a:
            return floor
        # The premium frozen at its value at lo is exact below the kink and
        # overstates the trigger above it, so there q lies in [lo, root].
        q = ((x / price_lo) ** gamma - q_mi) / k
        if x <= price_lo * (k * lo + q_mi) ** a:
            return max(floor, q)
        hi = max(floor, ((x / p) ** gamma - q_mi) / k) + 1.0
        for _ in range(_NEWTON_MAX_ITER):
            trig, via_s, via_prem = self._terms(q, k * q + q_mi)
            f = trig - x
            if f < 0.0:
                lo = q
            else:
                hi = q
            step = f / (k * via_s - via_prem)
            if min(abs(step), hi - lo) <= _ROOT_TOL * q:
                return min(max(q - step, lo), hi)
            q -= step
            if not lo < q < hi:
                q = 0.5 * (lo + hi)
        raise RootBracketError("Newton iteration for the trigger inverse did not converge")

    def _inverse_array(self, x, q_mi, k):
        """_inverse at every point of the 1-D arrays x and q_mi in one
        vectorized pass: the same closed forms at the floor and below the
        kink, and the same safeguarded Newton iteration, bracket, midpoint
        fallback and stopping rule, each point stopping at the sweep where
        it alone would.  The points still iterating shrink as they stop."""
        p, gamma, c = self.p, self.params.gamma, self.c
        floor = self.q_floor
        a = 1.0 / gamma
        lo = np.maximum(floor, q_mi)
        price_lo = p + c / lo
        out = np.full(x.shape, floor)
        live = np.flatnonzero(~(x <= price_lo * (k * floor + q_mi) ** a))
        x, q_mi, lo, price_lo = x[live], q_mi[live], lo[live], price_lo[live]
        q = ((x / price_lo) ** gamma - q_mi) / k
        kink = x <= price_lo * (k * lo + q_mi) ** a
        out[live[kink]] = np.maximum(floor, q[kink])
        newton = ~kink
        live, x, q_mi, lo, q = (v[newton] for v in (live, x, q_mi, lo, q))
        hi = np.maximum(floor, ((x / p) ** gamma - q_mi) / k) + 1.0
        for _ in range(_NEWTON_MAX_ITER):
            if not live.size:
                return out
            trig, via_s, via_prem = self._terms(q, k * q + q_mi)
            f = trig - x
            below = f < 0.0
            lo = np.where(below, q, lo)
            hi = np.where(below, hi, q)
            step = f / (k * via_s - via_prem)
            done = np.minimum(np.abs(step), hi - lo) <= _ROOT_TOL * q
            if done.any():
                out[live[done]] = np.minimum(np.maximum(q[done] - step[done], lo[done]), hi[done])
                going = ~done
                live, x, q_mi, lo, hi, q, step = (
                    v[going] for v in (live, x, q_mi, lo, hi, q, step))
            q = q - step
            q = np.where((lo < q) & (q < hi), q, 0.5 * (lo + hi))
        if live.size:
            raise RootBracketError("Newton iteration for the trigger inverse did not converge")
        return out

    def symmetric_base_capacity(self, x) -> float | np.ndarray:
        """Smallest symmetric capital q (>= q_floor) with trigger(q, q) >= x,
        elementwise: the closed form for c = 0, otherwise the Newton inverse
        at each point with k = 2 (_roots)."""
        x = np.asarray(x, dtype=float)
        if self.c == 0.0:
            out = 0.5 * (x / self.p) ** self.params.gamma
        else:
            out = self._roots(x.ravel(), np.zeros(x.size), 2).reshape(x.shape)
        return out if out.shape else float(out)


class ConstantPriceBoundary(Boundary):
    """Trigger p * (q_i + q_mi)**(1/gamma): invest when the price exceeds p."""

    kind = "constant_price"

    def __init__(self, params: ModelParams, p: float):
        if p <= 0.0:
            raise UsageError(f"price threshold must be positive, got {p}")
        super().__init__(params, p, 0.0)

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p}


class DynamicBoundary(Boundary):
    """Trigger (p_star + c/max(q_i, q_mi)) * (q_i + q_mi)**(1/gamma): the
    capital-dependent premium over the zero-NPV price."""

    kind = "dynamic_c"

    def __init__(self, params: ModelParams, c: float):
        if c < 0.0:
            raise UsageError(f"premium coefficient must be nonnegative, got {c}")
        super().__init__(params, params.p_star, c)

    def to_json(self) -> dict:
        return {"kind": self.kind, "c": self.c}


class InfiniteBoundary(Boundary):
    """Never-invest sentinel: trigger +inf, base capacity identically zero."""

    kind = "infinite"

    def __init__(self, params: ModelParams):
        super().__init__(params, math.inf, 0.0)

    def to_json(self) -> dict:
        return {"kind": self.kind}


def _reference_base_capacity(boundary: Boundary, x, q_mi):
    """Bisection re-derivation of boundary.base_capacity(x, q_mi) at every
    point of the arrays x and q_mi, the own-capital inverse that
    check_consistency compares each stored capital with; without a premium
    it goes to the closed form.

    It shares no code with the Newton solver, so check_consistency can catch
    the builders' errors.  The bracket [q_floor, max(q_floor, (x/p)**gamma -
    q_mi) + 1] doubles its top where the trigger there is still below x, at
    most _MAX_EXPAND times, and then halves at its midpoints until it is
    narrower than the absolute tolerance 1e-12 * max(1, q).  That moves
    |rhs - Q| / (1 + Q) by at most 1e-12, far inside check_consistency's
    1e-8 bound.
    """
    if boundary.c == 0.0:
        return boundary.base_capacity(x, q_mi)
    boundary._check_floor(q_mi)
    floor = boundary.q_floor
    lo = np.full_like(x, floor)
    hi = np.maximum(floor, (x / boundary.p) ** boundary.params.gamma - q_mi) + 1.0
    for _ in range(_MAX_EXPAND):
        bad = boundary._raw_trigger(hi, q_mi) < x
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
        high = boundary._raw_trigger(mid, q_mi) >= x
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    at_floor = x <= boundary._raw_trigger(floor, q_mi)
    return np.where(at_floor, floor, np.maximum(0.5 * (lo + hi), floor))


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

    Any boundary without a premium and with a finite p counts, so a dynamic
    boundary with c = 0 is the constant price p_star.
    """
    for b in (b1, b2):
        if b.c != 0.0 or b.p == math.inf:
            raise KindMismatchError(
                f"expected constant-price boundaries, got p={b.p}, c={b.c}")
    if b1.p != b2.p:
        raise KindMismatchError(f"price thresholds differ: {b1.p} vs {b2.p}")
    return b1.p
