"""Candidate value functions and their partial derivatives.

Below its own trigger every value function solves the same linear pricing
equation.  ValueFunction writes that branch once, as the profit stream
without further investment plus an option term in the normalised price
y = x * P(q_i + q_mi) / p_ref:

    V = p_ref/(r-mu) * q_i * y + C(q_i, q_mi) * y**beta

The strategy family enters only through C.  Each kind supplies p_ref, C
and C's gradient, from which every q-partial is analytic:

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
DynamicValue._integral).  B's q_mi-derivative is integrated in the same call;
its q_i-derivative is the integrand at q_i.
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
    """Integrate the stacked integrands f over consecutive [edges[j],
    edges[j+1]] panels.

    One vectorized call evaluates f at all 15-point node sets, returning one
    row per integrand; returns the Kronrod integrals and |K15 - G7| error
    gauges, each of shape (integrands, panels).
    """
    a = edges[:-1]
    half = 0.5 * (edges[1:] - a)
    center = a + half
    nodes = center[:, None] + half[:, None] * _GK_NODES[None, :]
    sums = f(nodes.reshape(-1)).reshape(-1, *nodes.shape) @ _GK_STACK
    k15, g7 = sums[..., 0] * half, sums[..., 1] * half
    return k15, np.abs(k15 - g7)


class ValueFunction:
    """Shared evaluation plumbing and the below-trigger branch of every kind
    (see the module docstring).  A kind supplies p_ref, its strategy pair
    (own boundary first), the option coefficient _c and its gradient
    _c_grad = (dC/dq_i, dC/dq_mi).

    Every evaluation takes one capital pair and a shock level x that is a
    float or a numpy array of levels.  The below-trigger formulas take a
    whole array of levels at once; only levels above the own trigger, which
    paste to phi(x, q_mi), are evaluated one by one.
    """

    params: ModelParams
    p_ref: float

    # -- branch anatomy -------------------------------------------------------

    def _own_trigger(self, q_i, q_mi):
        return self.strategy_pair()[0].trigger(q_i, q_mi)

    def _phi(self, x, q_mi):
        return self.strategy_pair()[0].base_capacity(x, q_mi)

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

    def _terms(self, x, q_i, q_mi):
        """The branch's profit stream p_ref/(r-mu) * q_i * y and its option
        term C * y**beta."""
        pr = self.params
        y, _ = self._y(x, q_i, q_mi)
        return self.p_ref / (pr.r - pr.mu) * q_i * y, self._c(q_i, q_mi) * y ** pr.beta

    def _below(self, x, q_i, q_mi):
        stream, option = self._terms(x, q_i, q_mi)
        return stream + option

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
        return self._terms(np.minimum(x, self._own_trigger(q_i, q_mi)), q_i, q_mi)[1]

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
    # the paste point phi(x, q_mi).  Kinds with an explicit continuation
    # override these.

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
        """(V, x V_x, x**2 V_xx) of the below-trigger branch, vectorized over
        x.  With the profit stream S y and the option term O = C y**beta they
        are S y + O, S y + beta O and beta (beta-1) O: written in y, they
        stay finite where x**2 overflows."""
        beta = self.params.beta
        stream, option = self._terms(np.asarray(x, dtype=float), q_i, q_mi)
        return stream + option, stream + beta * option, beta * (beta - 1.0) * option

    def partials(self, x, q_i, q_mi, which=("x", "xx", "qi", "qmi")) -> dict:
        """Requested analytic partial derivatives at one capital pair.

        x is one shock level or a numpy array of them; each entry of the
        result has the shape of x.
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
                out[key] = self._d_q(x, q_i, q_mi, key == "qi")
            else:
                raise ValueError(f"unknown partial {key!r}")
        return out

    def _d_q(self, x, q_i, q_mi, own: bool):
        """V_qi (own) or V_qmi: the branch's, from _c_grad, below the own
        trigger.  Above it, the chain rule of the pasting identity at the
        paste point phi: V_qi = 1 and V_qmi = V_qmi + (V_qi - 1) * phi_qmi of
        the branch at (x, phi, q_mi), with phi_qmi = -T_qmi / T_qi from the
        own trigger's gradient.  Smooth fit (V_qi = 1 on the trigger) drops
        the second term; it is kept, so that the propagation check tests
        smooth fit instead of assuming it.
        """
        def above(v, q_i, q_mi):
            if own:
                return 1.0
            phi = self._phi(v, q_mi)
            t_qi, t_qmi = self.strategy_pair()[0].trigger_grad(phi, q_mi)
            return self._q_below(v, phi, q_mi, own=False) \
                - (self._q_below(v, phi, q_mi, own=True) - 1.0) * t_qmi / t_qi

        return self._piecewise(partial(self._q_below, own=own), above, x, q_i, q_mi)


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

    def _d_q(self, x, q_i, q_mi, own):
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
    own-capital derivative to one on the trigger.
    """

    def __init__(self, params: ModelParams, c: float,
                 quadrature: QuadratureSettings = QuadratureSettings()):
        self.params = params
        self.p_ref = params.p_star
        self.c = c
        self.quadrature = quadrature
        self.boundary = DynamicBoundary(params, c)
        # (q_i, q_mi) -> (B, B_qmi).  An OrderedDict drops its oldest entry
        # in O(1); a dict's first key is found past every deleted one.
        self._b_cache: OrderedDict = OrderedDict()

    kind = "dynamic_c"

    def strategy_pair(self):
        return self.boundary, self.boundary

    @property
    def q_floor(self) -> float:
        return self.boundary.q_floor

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
        """Integrals of the stacked integrands f over the panels between
        edges, splitting panels until each integrand's error gauge sum is
        within rel_tol * (1 + |its integral|)."""
        for _ in range(self.quadrature.max_splits + 1):
            vals, errs = _gk15_panels(f, edges)
            totals = vals.sum(axis=1)
            # Each gauge as a share of its integrand's error budget.
            share = errs / (self.quadrature.rel_tol * (1.0 + np.abs(totals)))[:, None]
            if np.all(share.sum(axis=1) <= 1.0):
                return totals
            worst = share.max(axis=0)
            split = worst > 0.5 / len(worst)
            if not split.any():
                split = worst == worst.max()
            mids = 0.5 * (edges[:-1] + edges[1:])
            edges = np.sort(np.concatenate((edges, mids[split])))
        raise QuadratureNotConvergedError(
            f"panel errors {share.sum(axis=1).max():.3g} times the tolerance after refinement")

    def _integral(self, q_i, q_mi):
        """Integrals over [q_i, inf) of B's integrand and of its
        q_mi-derivative, in one variable t.

        With s = q + q_mi the map s = s0 * t**(-1/d), s0 = q_i + q_mi, takes
        the range onto (0, 1], as QUADPACK's QAGI does for infinite ranges but
        with the power matched to the decay.  dq = -s/(d t) dt, and the
        integrand falls like s**(-beta/gamma), so the mapped integrand is
        margin * price**-beta * s**(-d) / (d t), where s**(-d) / t is the
        constant s0**(-d): nothing in it underflows before the Jacobian
        applies.  It varies through t**(1/d), flat near t = 0 and steep near
        1, so the panels get finer toward t = 1; the kink q = q_mi, at
        t_k = (s0 / (2 q_mi))**d, is a panel edge.  The q_mi-derivative is
        taken at fixed t, where ds/dq_mi = s/s0; the kink is continuous and
        on a panel edge, so it adds no boundary term.  An integral outside
        the envelope is an error, not a result.
        """
        pr = self.params
        d = self._decay
        s0 = q_i + q_mi
        scale = s0 ** (-d) / d
        # Xbar * MR / (r-mu) = price * ((gamma-1)/gamma * q + q_mi) / (s (r-mu))
        #                    = price * (mr_lim + mr_kink / s)
        mr_lim = (pr.gamma - 1.0) / (pr.gamma * (pr.r - pr.mu))
        mr_kink = q_mi / (pr.gamma * (pr.r - pr.mu))
        kappa = 1.0 / (pr.gamma * (pr.r - pr.mu))   # d mr_kink / d q_mi

        def mapped(t):
            with np.errstate(over="ignore"):   # an overflow is refused below
                growth = t ** (-1.0 / d)
                s = s0 * growth
            if s[0] == np.inf:   # nodes come in increasing t, so s[0] is the largest
                raise QuadratureNotConvergedError(
                    f"B's nodes beyond s = {s0:.6g} passed the floating-point range")
            # d_* are q_mi-derivatives at fixed t: s moves by s/s0 = growth,
            # s - q_mi by growth - 1 and q_mi/s by (q_i/s0)/s.
            price, d_price = pr.p_star, 0.0
            if self.c > 0.0:
                q = s - q_mi
                beyond = q > q_mi
                m = np.where(beyond, q, q_mi)
                prem = self.c / m
                price = pr.p_star + prem
                d_price = -prem * np.where(beyond, growth - 1.0, 1.0) / m
            mr = mr_lim + mr_kink / s
            margin = 1.0 - price * mr
            weight = price ** (-pr.beta) * scale
            d_margin = -d_price * mr - price * kappa * (q_i / s0) / s
            value = margin * weight
            d_value = (d_margin - pr.beta * margin * d_price / price) * weight - d / s0 * value
            return np.stack((value, d_value))

        if q_i < q_mi:
            t_k = (s0 / (2.0 * q_mi)) ** d
            edges = np.concatenate((_B_LAYOUT * t_k, [1.0]))
        else:
            edges = _B_LAYOUT
        total, d_total = self._split_until(mapped, edges)
        if not abs(total) <= self._tail_envelope(s0):
            raise QuadratureNotConvergedError(
                f"integral {total:.6g} beyond s = {s0:.6g} exceeds its envelope")
        return float(total), float(d_total)

    def B(self, q_i: float, q_mi: float) -> float:
        """Coefficient of x**beta, certified to rel_tol * (1 + |B|).  Its
        q_mi-derivative, certified alike, is cached with it."""
        key = (float(q_i), float(q_mi))
        hit = self._b_cache.get(key)
        if hit is not None:
            return hit[0]
        if q_i + q_mi <= 0.0:
            raise ZeroCapacityError("B needs positive aggregate capacity")
        total, d_total = self._integral(*key)
        b = -total
        bound = self.b_linear_bound(q_i, q_mi)
        if abs(b) > bound * (1.0 + 1e-6) + 1e-250:
            raise QuadratureNotConvergedError(
                f"|B|={abs(b):.6g} violates its certified bound {bound:.6g}"
            )
        if len(self._b_cache) >= _B_CACHE_SIZE:
            self._b_cache.popitem(last=False)
        self._b_cache[key] = (b, -d_total)
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

    def _c_grad(self, q_i, q_mi):
        """C's gradient from B's: B_qi is B's integrand at its lower limit
        q_i, and B_qmi is integrated with B (see _integral)."""
        pr = self.params
        self.B(q_i, q_mi)   # makes sure the pair is cached
        b, b_qmi = self._b_cache[float(q_i), float(q_mi)]
        xbar = self.boundary._raw_trigger(q_i, q_mi)
        b_qi = (1.0 - xbar * pr.marginal_revenue(q_i, q_mi) / (pr.r - pr.mu)) \
            * xbar ** (-pr.beta)
        s = q_i + q_mi
        via_s = b * pr.beta / (pr.gamma * s)   # (p_star * s**(1/gamma))**beta's share
        scale = (pr.p_star * s ** (1.0 / pr.gamma)) ** pr.beta
        return (b_qi + via_s) * scale, (b_qmi + via_s) * scale


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

    def partials(self, x, q_i, q_mi, which=("x", "xx", "qi", "qmi")):
        return self.base.partials(x, q_i, q_mi, which)

    def below_branch_arrays(self, x, q_i, q_mi):
        v, x_vx, x2_vxx = self.base.below_branch_arrays(x, q_i, q_mi)
        opt = self.base.option_term(np.asarray(x, dtype=float), q_i, q_mi)
        return v + (self.option_scale - 1.0) * opt, x_vx, x2_vxx
