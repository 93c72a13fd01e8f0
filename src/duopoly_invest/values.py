"""Candidate value functions and their partial derivatives.

Below its own trigger every value function solves the same linear pricing
equation.  ValueFunction writes that branch once, as the profit stream
without further investment plus an option term in the normalised price
y = x * P(q_i + q_mi) / p_ref:

    V = p_ref/(r-mu) * q_i * y + C(q_i, q_mi) * y**beta

The strategy family enters only through C.  Each kind supplies p_ref and C,
and the closed-form kinds also C's gradient for analytic q-partials:

  AbstainValue(p)        never investing while the opponent reflects the
                         price at the constant threshold p; p_ref = p,
                         C = -p q_i / ((r-mu) beta)
  SoleInvestorValue(p)   doing all the investment alone at the constant
                         threshold p; p_ref = p, C = Btil, linear in q
  DynamicValue(c)        the symmetric capital-dependent trigger with
                         premium coefficient c; p_ref = p_star,
                         C = B(q_i, q_mi) * (p_star * q**(1/gamma))**beta

The branch is written in y, not as A*x + B*x**beta: y stays O(1) below the
trigger, while x**beta overflows once x passes 1e308**(1/beta), about
1e190 at the golden parameters.

Above the trigger the first two have explicit continuations; all three use
the smooth-pasting recursion

    V(x, q_i, q_mi) = V(x, phi(x, q_mi), q_mi) - phi(x, q_mi) + q_i

which is evaluated directly against the below-trigger branch (never by
re-dispatching, so floating-point ties at the trigger cannot recurse).

DynamicValue's B is an improper integral over [q_i, inf).  It is evaluated as
one integral over t in (0, 1], where s = q + q_mi = (q_i + q_mi) * t**(-1/d),
d = beta/gamma - 1: a fixed layout of six Gauss-Kronrod 15 panels, finer
toward t = 1, plus one more from the image of the integrand's kink q = q_mi
when q_i < q_mi, split only where their error gauges miss the tolerance (see
DynamicValue._integral).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .boundaries import (
    ConstantPriceBoundary,
    DynamicBoundary,
    InfiniteBoundary,
)
from .errors import (
    QuadratureNotConvergedError,
    TooCloseToBoundaryError,
    ZeroCapacityError,
)
from .model import ModelParams

# 15-point Kronrod nodes on [-1, 1] with Kronrod weights and the embedded
# 7-point Gauss weights (zero at Kronrod-only nodes); standard constants.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])

_GK_STACK = np.stack((_GK_WEIGHTS, _G7_WEIGHTS), axis=1)

_FD_STEP = 1e-5

# B's panel edges in its mapped variable t (see DynamicValue._integral),
# scaled onto [0, t_k] when the kink t_k lies inside (0, 1).
_B_LAYOUT = np.array([0.0, 0.5, 0.75, 0.875, 0.9375, 0.96875, 1.0])
# The integral beyond s = _S_MAX, which the map's nodes may not pass, must
# stay below _TAIL_REL_TOL.
_S_MAX = 1e300
_TAIL_REL_TOL = 1e-12
# B values kept per DynamicValue: about four default verification reports.
_B_CACHE_SIZE = 40_000


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-10       # target |error| <= rel_tol * (1 + |B|)
    max_splits: int = 8          # refinement rounds before giving up


def _gk15_panels(f, edges):
    """Integrate f over consecutive [edges[j], edges[j+1]] panels.

    One vectorized call evaluates f at all 15-point node sets; returns the
    per-panel Kronrod integrals and |K15 - G7| error gauges.
    """
    a = edges[:-1]
    half = 0.5 * (edges[1:] - a)
    center = a + half
    nodes = center[:, None] + half[:, None] * _GK_NODES[None, :]
    k15, g7 = (f(nodes.reshape(-1)).reshape(nodes.shape) @ _GK_STACK).T * half
    return k15, np.abs(k15 - g7)


class ValueFunction:
    """Shared evaluation plumbing and the below-trigger branch of every kind
    (see the module docstring).  A kind supplies p_ref, its own trigger, the
    option coefficient _c and, for analytic q-partials, its gradient
    _c_grad = (dC/dq_i, dC/dq_mi).

    Every evaluation takes one capital pair and a shock level x that is a
    float or a numpy array of levels.  The below-trigger formulas take a
    whole array of levels at once; only levels above the own trigger, which
    paste to phi(x, q_mi), are evaluated one by one.
    """

    params: ModelParams
    p_ref: float

    # -- branch anatomy supplied by subclasses --------------------------------

    def _own_trigger(self, q_i, q_mi):
        raise NotImplementedError

    def _c(self, q_i, q_mi):
        raise NotImplementedError

    # -- the below-trigger branch ---------------------------------------------

    def _y(self, x, q_i, q_mi):
        """Normalised price y and its x-derivative P(q)/p_ref."""
        q = q_i + q_mi
        if q <= 0.0:
            raise ZeroCapacityError("value needs positive aggregate capacity")
        dy = q ** (-1.0 / self.params.gamma) / self.p_ref
        return x * dy, dy

    def _below(self, x, q_i, q_mi):
        pr = self.params
        y, _ = self._y(x, q_i, q_mi)
        return self.p_ref / (pr.r - pr.mu) * q_i * y + self._c(q_i, q_mi) * y ** pr.beta

    def _below_x(self, x, q_i, q_mi):
        pr = self.params
        y, dy = self._y(x, q_i, q_mi)
        return (self.p_ref / (pr.r - pr.mu) * q_i
                + pr.beta * self._c(q_i, q_mi) * y ** (pr.beta - 1.0)) * dy

    def _below_xx(self, x, q_i, q_mi):
        pr = self.params
        y, dy = self._y(x, q_i, q_mi)
        return pr.beta * (pr.beta - 1.0) * self._c(q_i, q_mi) * y ** (pr.beta - 2.0) * dy * dy

    def option_term(self, x, q_i, q_mi):
        """C * y**beta of the below-trigger branch; above the own trigger it
        keeps its value on the trigger."""
        y, _ = self._y(np.minimum(x, self._own_trigger(q_i, q_mi)), q_i, q_mi)
        return self._c(q_i, q_mi) * y ** self.params.beta

    def _q_below(self, x, q_i, q_mi, own: bool):
        """V_qi (own) or V_qmi of the below-trigger branch from _c_grad.

        Both capitals lower the price P(q), which moves y by
        dy/dq = -y/(gamma q); own capital also scales the profit stream.
        """
        pr = self.params
        y, _ = self._y(x, q_i, q_mi)
        stream = self.p_ref / (pr.r - pr.mu)
        c = self._c(q_i, q_mi)
        dc = self._c_grad(q_i, q_mi)[0 if own else 1]
        via_price = (stream * q_i + pr.beta * c * y ** (pr.beta - 1.0)) \
            * (-y / (pr.gamma * (q_i + q_mi)))
        return (stream * y if own else 0.0) + dc * y ** pr.beta + via_price

    # Continuation at one shock level above the own trigger: the branch at
    # the paste point phi(x, q_mi), which pasting kinds supply as _phi.
    # Kinds with an explicit continuation override these.

    def _above(self, x, q_i, q_mi):
        phi = self._phi(x, q_mi)
        return self._below(x, phi, q_mi) - phi + q_i

    def _above_x(self, x, q_i, q_mi):
        return self._below_x(x, self._phi(x, q_mi), q_mi)

    def _above_xx(self, x, q_i, q_mi):
        raise TooCloseToBoundaryError("second x-derivative is only provided below the trigger")

    def _piecewise(self, below, above, x, q_i, q_mi):
        """below(x, q_i, q_mi) at levels up to the own trigger, in one call
        for an array; above(x_k, q_i, q_mi) at each level over it."""
        trig = self._own_trigger(q_i, q_mi)
        if not isinstance(x, np.ndarray):
            return below(x, q_i, q_mi) if x <= trig else above(x, q_i, q_mi)
        out = np.empty(x.shape)
        under = x <= trig
        if under.any():
            out[under] = below(x[under], q_i, q_mi)
        for k in np.flatnonzero(~under):
            out.flat[k] = above(float(x.flat[k]), q_i, q_mi)
        return out

    # -- generic surface ------------------------------------------------------

    def value(self, x, q_i, q_mi):
        if q_i + q_mi <= 0.0:
            raise ZeroCapacityError("value needs positive aggregate capacity")
        return self._piecewise(self._below, self._above, x, q_i, q_mi)

    def value_x(self, x, q_i, q_mi):
        return self._piecewise(self._below_x, self._above_x, x, q_i, q_mi)

    def value_xx(self, x, q_i, q_mi):
        return self._piecewise(self._below_xx, self._above_xx, x, q_i, q_mi)

    def below_branch_arrays(self, x, q_i, q_mi):
        """(value, V_x, V_xx) of the below-trigger branch, vectorized over x."""
        x = np.asarray(x, dtype=float)
        return (self._below(x, q_i, q_mi), self._below_x(x, q_i, q_mi),
                self._below_xx(x, q_i, q_mi))

    def partials(self, x, q_i, q_mi, which=("x", "xx", "qi", "qmi"),
                 boundary_mode: str = "error") -> dict:
        """Requested partial derivatives at one capital pair.

        x is one shock level or a numpy array of them; each entry of the
        result has the shape of x.  Analytic where the kind has closed forms;
        finite differences with one Richardson level otherwise, one value
        call per stencil point for all levels.  With boundary_mode="error" a
        stencil that would straddle the trigger at any level raises
        TooCloseToBoundaryError; "allow" trusts the built-in value-matching
        across the trigger (the function is C1 there by construction) and
        differentiates through it.
        """
        if isinstance(which, str):
            which = (which,)
        out = {}
        for key in which:
            if key == "x":
                out[key] = self.value_x(x, q_i, q_mi)
            elif key == "xx":
                out[key] = self.value_xx(x, q_i, q_mi)
            elif key in ("qi", "qmi"):
                out[key] = self._d_q(x, q_i, q_mi, key == "qi", boundary_mode)
            else:
                raise ValueError(f"unknown partial {key!r}")
        return out

    def _d_q(self, x, q_i, q_mi, own: bool, boundary_mode: str):
        """V_qi (own) or V_qmi; finite differences unless the kind overrides."""
        return self._fd(x, q_i, q_mi, own, boundary_mode)

    def _fd_floor(self) -> float:
        return 0.0

    def _fd(self, x, q_i, q_mi, own: bool, boundary_mode: str):
        coord = q_i if own else q_mi
        h = _FD_STEP * max(1.0, abs(coord))

        def v(q):
            return self.value(x, q, q_mi) if own else self.value(x, q_i, q)

        floor = self._fd_floor()
        if coord - h < floor:
            # One-sided second-order stencil stays inside the domain.
            def fwd(step):
                return (-3.0 * v(coord) + 4.0 * v(coord + step) - v(coord + 2.0 * step)) \
                    / (2.0 * step)
            return (4.0 * fwd(h / 2.0) - fwd(h)) / 3.0

        if boundary_mode == "error":
            probes = (coord - h, coord + h)
            trig = [self._own_trigger(q, q_mi) if own else self._own_trigger(q_i, q)
                    for q in probes]
            if np.any((x > min(trig)) != (x > max(trig))):
                raise TooCloseToBoundaryError(
                    "finite-difference stencil straddles the trigger; "
                    "pass boundary_mode='allow' to differentiate through it"
                )

        def central(step):
            return (v(coord + step) - v(coord - step)) / (2.0 * step)

        # 2*D(h/2) - D(h) cancels the leading error term of either parity:
        # the O(h) term from a curvature kink at the trigger, and (partially)
        # the O(h^2) term at interior states, where central() is already well
        # inside tolerance.
        return 2.0 * central(h / 2.0) - central(h)


# ---------------------------------------------------------------------------
# Constant-threshold kinds: fully closed form
# ---------------------------------------------------------------------------


class AbstainValue(ValueFunction):
    """Value of never investing while the opponent holds the price at p.

    Below the opponent trigger (price y = x*P/p <= 1), p_ref = p and
    C = -p*q_i/((r-mu)*beta):
        V = p/(r-mu) * (y - y**beta / beta) * q_i
    above it the opponent reflects the price at p immediately, so the value
    is the constant annuity p/(r-mu) * (beta-1)/beta * q_i.
    """

    def __init__(self, params: ModelParams, p: float):
        self.params = params
        self.p = self.p_ref = p
        self.own_boundary = InfiniteBoundary(params)
        self.opponent_boundary = ConstantPriceBoundary(params, p)

    kind = "abstain"

    def strategy_pair(self):
        return self.own_boundary, self.opponent_boundary

    # The "own" trigger of the piecewise formula is the opponent's: the
    # abstainer itself never invests.
    def _own_trigger(self, q_i, q_mi):
        return self.opponent_boundary.trigger(q_i, q_mi)

    def _c(self, q_i, q_mi):
        pr = self.params
        return -self.p * q_i / ((pr.r - pr.mu) * pr.beta)

    def _c_grad(self, q_i, q_mi):
        pr = self.params
        return -self.p / ((pr.r - pr.mu) * pr.beta), 0.0

    def _above(self, x, q_i, q_mi):
        pr = self.params
        return self.p / (pr.r - pr.mu) * (pr.beta - 1.0) / pr.beta * q_i

    def _above_x(self, x, q_i, q_mi):
        return 0.0

    _above_xx = _above_x   # the annuity does not depend on x

    def _d_q(self, x, q_i, q_mi, own, boundary_mode):
        above = self.p / self.params.p_star if own else 0.0   # of the annuity
        return self._piecewise(partial(self._q_below, own=own), lambda *_: above,
                               x, q_i, q_mi)


class SoleInvestorValue(ValueFunction):
    """Value of doing all investment alone at the constant threshold p.

    Below the trigger p_ref = p and C = Btil(q_i, q_mi), linear in the
    capitals and chosen so that the own-capital derivative is one on the
    trigger.
    """

    def __init__(self, params: ModelParams, p: float):
        self.params = params
        self.p = self.p_ref = p
        self.own_boundary = ConstantPriceBoundary(params, p)
        self.opponent_boundary = ConstantPriceBoundary(params, p)
        rm = params.r - params.mu
        self.k_own = p * (params.gamma - 1.0) / (rm * params.gamma) - 1.0
        self.k_opp = p * (params.beta - 1.0) / (rm * params.beta) - 1.0
        self.coef = params.gamma / (params.beta - params.gamma)

    kind = "sole_investor"

    def strategy_pair(self):
        return self.own_boundary, self.opponent_boundary

    def _btil(self, q_i, q_mi):
        return self.coef * (self.k_own * q_i + self.k_opp * q_mi)

    _c = _btil

    def _c_grad(self, q_i, q_mi):
        return self.coef * self.k_own, self.coef * self.k_opp

    def _own_trigger(self, q_i, q_mi):
        return self.own_boundary.trigger(q_i, q_mi)

    def _phi(self, x, q_mi):
        return self.own_boundary.base_capacity(x, q_mi)

    def _d_q(self, x, q_i, q_mi, own, boundary_mode):
        # Differentiating the continuation branch: V_qi = 1, and in V_qmi the
        # phi terms cancel because V_qi is one at the paste point.
        def above(v, q_i, q_mi):
            return 1.0 if own else self._q_below(v, self._phi(v, q_mi), q_mi, own=False)

        return self._piecewise(partial(self._q_below, own=own), above, x, q_i, q_mi)


# ---------------------------------------------------------------------------
# Capital-dependent trigger kind: B by certified quadrature
# ---------------------------------------------------------------------------


class DynamicValue(ValueFunction):
    """Value under the symmetric capital-dependent trigger with premium c.

    Below the trigger p_ref = p_star and C = B(q_i, q_mi) * (p_star * q**(1/gamma))**beta,
    so that the option term is B * x**beta, with

    B(q_i, q_mi) = -int_{q_i}^inf (1 - Xbar(q) * MR(q)/(r-mu)) * Xbar(q)**-beta dq

    where Xbar is the trigger at (q, q_mi) and MR the marginal revenue.  The
    integrand is B's own q_i-derivative, so the construction pins the
    own-capital derivative to one on the trigger.  q-derivatives of the value
    are finite differences (the x-partials stay analytic given B).
    """

    def __init__(self, params: ModelParams, c: float,
                 quadrature: QuadratureSettings = QuadratureSettings()):
        self.params = params
        self.p_ref = params.p_star
        self.c = c
        self.quadrature = quadrature
        self.boundary = DynamicBoundary(params, c)
        # (q_i, q_mi) -> B.  An OrderedDict drops its oldest entry in O(1);
        # a dict's first key is found past every deleted one.
        self._b_cache: OrderedDict = OrderedDict()

    kind = "dynamic_c"

    def strategy_pair(self):
        return self.boundary, self.boundary

    @property
    def q_floor(self) -> float:
        return self.boundary.q_floor

    def _fd_floor(self) -> float:
        return self.q_floor

    def _own_trigger(self, q_i, q_mi):
        # Raw formula: finite-difference stencils sit within one step of the
        # floor and must not trip the public domain check.
        return float(self.boundary._raw_trigger(q_i, q_mi))

    def _phi(self, x, q_mi):
        return self.boundary.base_capacity(x, q_mi)

    def value(self, x, q_i, q_mi):
        self.boundary._check_floor(q_i, q_mi)
        return super().value(x, q_i, q_mi)

    # -- the B integral -------------------------------------------------------

    def _tail_envelope(self, s):
        """Certified bound on |integral from s-qmi to inf|; decreasing in s."""
        pr = self.params
        decay = pr.beta / pr.gamma - 1.0
        k_env = (1.0 + pr.beta / (pr.beta - 1.0) * 2.0 * pr.gamma / (2.0 * pr.gamma - 1.0)) \
            * pr.p_star ** (-pr.beta)
        return k_env * s ** (-decay) / decay

    @cached_property
    def _decay(self) -> float:
        """Exponent d = beta/gamma - 1 of the tail, whose integrand decays
        like s**-(1 + d).  Refuses when the envelope beyond _S_MAX exceeds
        _TAIL_REL_TOL: the map's nodes would then have to reach past the
        floating-point range."""
        pr = self.params
        if self._tail_envelope(_S_MAX) > _TAIL_REL_TOL:
            raise QuadratureNotConvergedError(
                "the tail beyond the floating-point range exceeds its budget; "
                "parameters are too close to the integrability limit "
                f"(beta/gamma = {pr.beta / pr.gamma:.6g})"
            )
        return pr.beta / pr.gamma - 1.0

    def _split_until(self, f, edges):
        """Integral of f over the panels between edges, splitting panels
        until the error gauge sum is within rel_tol * (1 + |integral|)."""
        for _ in range(self.quadrature.max_splits + 1):
            vals, errs = _gk15_panels(f, edges)
            total, err = float(vals.sum()), float(errs.sum())
            limit = self.quadrature.rel_tol * (1.0 + abs(total))
            if err <= limit:
                return total
            split = errs > limit / (2.0 * len(errs))
            if not split.any():
                split = errs == errs.max()
            mids = 0.5 * (edges[:-1] + edges[1:])
            edges = np.sort(np.concatenate((edges, mids[split])))
        raise QuadratureNotConvergedError(
            f"panel error {err:.3g} above tolerance after refinement")

    def _integral(self, q_i, q_mi):
        """Integral of B's integrand over [q_i, inf), in one variable t.

        With s = q + q_mi the map s = s0 * t**(-1/d), s0 = q_i + q_mi, takes
        the range onto (0, 1], as QUADPACK's QAGI does for infinite ranges but
        with the power matched to the decay.  dq = -s/(d t) dt, and the
        integrand falls like s**(-beta/gamma), so the mapped integrand is
        margin * price**-beta * s**(-d) / (d t), where s**(-d) / t is the
        constant s0**(-d): nothing in it underflows before the Jacobian
        applies.  It varies through t**(1/d), flat near t = 0 and steep near
        1, so the panels get finer toward t = 1; the kink q = q_mi, at
        t_k = (s0 / (2 q_mi))**d, is a panel edge.  An integral outside the
        envelope is an error, not a result.
        """
        pr = self.params
        d = self._decay
        s0 = q_i + q_mi
        scale = s0 ** (-d) / d
        # Xbar * MR / (r-mu) = price * ((gamma-1)/gamma * q + q_mi) / (s (r-mu))
        #                    = price * (mr_lim + mr_kink / s)
        mr_lim = (pr.gamma - 1.0) / (pr.gamma * (pr.r - pr.mu))
        mr_kink = q_mi / (pr.gamma * (pr.r - pr.mu))

        def mapped(t):
            s = s0 * t ** (-1.0 / d)
            if s[0] == np.inf:   # nodes come in increasing t, so s[0] is the largest
                raise QuadratureNotConvergedError(
                    f"B's nodes beyond s = {s0:.6g} passed the floating-point range")
            price = pr.p_star + self.c / np.maximum(s - q_mi, q_mi) if self.c > 0.0 else pr.p_star
            margin = 1.0 - price * (mr_lim + mr_kink / s)
            return margin * (price ** (-pr.beta) * scale)

        if q_i < q_mi:
            t_k = (s0 / (2.0 * q_mi)) ** d
            edges = np.concatenate((_B_LAYOUT * t_k, [1.0]))
        else:
            edges = _B_LAYOUT
        total = self._split_until(mapped, edges)
        if not abs(total) <= self._tail_envelope(s0):
            raise QuadratureNotConvergedError(
                f"integral {total:.6g} beyond s = {s0:.6g} exceeds its envelope")
        return total

    def B(self, q_i: float, q_mi: float) -> float:
        """Coefficient of x**beta, certified to rel_tol * (1 + |B|)."""
        key = (float(q_i), float(q_mi))
        hit = self._b_cache.get(key)
        if hit is not None:
            return hit
        if q_i + q_mi <= 0.0:
            raise ZeroCapacityError("B needs positive aggregate capacity")
        b = -self._integral(*key)
        bound = self.b_linear_bound(q_i, q_mi)
        if abs(b) > bound * (1.0 + 1e-6) + 1e-250:
            raise QuadratureNotConvergedError(
                f"|B|={abs(b):.6g} violates its certified bound {bound:.6g}"
            )
        if len(self._b_cache) >= _B_CACHE_SIZE:
            self._b_cache.popitem(last=False)
        self._b_cache[key] = b
        return b

    def b_linear_bound(self, q_i: float, q_mi: float) -> float:
        """Linear growth bound |B| <= beta/(beta-1) (P/p*)^beta gamma/(beta-gamma) (q_i+q_mi)."""
        pr = self.params
        s = q_i + q_mi
        return pr.beta / (pr.beta - 1.0) * (s ** (-1.0 / pr.gamma) / pr.p_star) ** pr.beta \
            * pr.gamma / (pr.beta - pr.gamma) * s

    def _c(self, q_i, q_mi):
        """B's coefficient of x**beta, rescaled to y**beta = (x P(q)/p*)**beta."""
        pr = self.params
        return self.B(q_i, q_mi) * (pr.p_star * (q_i + q_mi) ** (1.0 / pr.gamma)) ** pr.beta


class PerturbedValue:
    """Negative-control candidate: the option term is scaled in the value
    channel only, while every reported derivative stays that of the base
    function.  The resulting value/derivative mismatch violates the pricing
    equation, which residual checks must flag.
    """

    def __init__(self, base: ValueFunction, option_scale: float):
        self.base = base
        self.params = base.params
        self.option_scale = option_scale
        self.kind = f"perturbed({base.kind})"

    def strategy_pair(self):
        return self.base.strategy_pair()

    def value(self, x, q_i, q_mi):
        return self.base.value(x, q_i, q_mi) \
            + (self.option_scale - 1.0) * self.base.option_term(x, q_i, q_mi)

    def value_x(self, x, q_i, q_mi):
        return self.base.value_x(x, q_i, q_mi)

    def value_xx(self, x, q_i, q_mi):
        return self.base.value_xx(x, q_i, q_mi)

    def partials(self, x, q_i, q_mi, which=("x", "xx", "qi", "qmi"),
                 boundary_mode: str = "error"):
        return self.base.partials(x, q_i, q_mi, which, boundary_mode)

    def below_branch_arrays(self, x, q_i, q_mi):
        v, vx, vxx = self.base.below_branch_arrays(x, q_i, q_mi)
        opt = self.base.option_term(np.asarray(x, dtype=float), q_i, q_mi)
        return v + (self.option_scale - 1.0) * opt, vx, vxx
