"""Candidate value functions and their partial derivatives.

Below its own trigger every value function solves the same linear pricing
equation.  ValueFunction writes that branch once, in the normalised price
y = x * P(q_i + q_mi) / p_ref, as a profit stream S plus an option term O:

    S = unit * q_i,  unit = p_ref/(r-mu) * y,    O = C(q_i, q_mi) * y**beta

One evaluation of unit and y**beta gives the value and every partial.  Both
capitals move y by dy/dq = -y/(gamma q), q = q_i + q_mi, so

    V = S + O,    x V_x = S + beta O,    x**2 V_xx = beta (beta-1) O,
    V_qi  = unit + C_qi y**beta - x V_x / (gamma q),
    V_qmi =        C_qmi y**beta - x V_x / (gamma q).

The strategy family enters only through C and its gradient:

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

Above the trigger the abstainer earns a constant annuity; the investing kinds
continue by the smooth-pasting recursion

    V(x, q_i, q_mi) = V(x, phi(x, q_mi), q_mi) - phi(x, q_mi) + q_i

which is evaluated directly against the below-trigger branch (never by
re-dispatching, so floating-point ties at the trigger cannot recurse), with
one root solve for phi per state.

DynamicValue's B is an improper integral over [q_i, inf) with a kink at
q = q_mi.  Only the anchors (q_mi, q_mi) and the pairs q_i > _FAR_ABOVE * q_mi
are integrated whole, as one integral over t in (0, 1], s = q + q_mi =
(q_i + q_mi) * t**(-1/d), d = beta/gamma - 1, on six Gauss-Kronrod 15 panels
split only where their error gauges miss the tolerance (see _integral).  Any
other pair is its anchor less the integral from q_i to q_mi: a closed form
below the kink, two panels of the mapped integrand above it.  B_qmi is found
alongside B; B_qi is the integrand at q_i.
"""

from __future__ import annotations

import itertools
import operator
from collections import OrderedDict
from functools import cached_property

import numpy as np

from .boundaries import (
    ConstantPriceBoundary,
    DynamicBoundary,
    InfiniteBoundary,
)
from .errors import (
    QuadratureNotConvergedError,
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
# Both weight sets as the columns of one (15, 2) array: one matrix product
# forms a node set's Kronrod and Gauss sums together.
_GK_STACK = np.stack((_GK_WEIGHTS, _G7_WEIGHTS), axis=1)


# B's panel edges in its mapped variable t (see DynamicValue._integral), and
# a segment's from t_hi down to 1 as 1 + _SEGMENT * (t_hi - 1).  Segments up
# to q_i = _FAR_ABOVE * q_mi hold the tolerance unsplit for c >= 0.5 at the
# golden parameters (gauges 0.79 of it, 1.9 at 20 q_mi); farther is whole.
_B_LAYOUT = np.array([0.0, 0.5, 0.75, 0.875, 0.9375, 0.96875, 1.0])
_SEGMENT = np.array([1.0, 0.5, 0.0])
_FAR_ABOVE = 16.0
# The integral beyond s = _S_MAX, which the map's nodes may not pass, must
# stay below _TAIL_REL_TOL.
_S_MAX = 1e300
_TAIL_REL_TOL = 1e-12
# B values kept per DynamicValue, anchors included: a default verification
# report with 80 side-condition paths finds about 2,300 distinct pairs, of
# which it integrates about 750 whole, so this holds about 17 reports.
_B_CACHE_SIZE = 40_000
# Pairs integrated whole per quadrature pass (0.5 MiB of temporaries; a
# segment pass holds as many nodes), and pairs looked up at a time.
_BLOCK_PAIRS = 64
_LOOKUP_CHUNK = 2048
# B's target |error| <= _REL_TOL * (1 + |B|), within _MAX_SPLITS refinement
# rounds.
_REL_TOL = 1e-10
_MAX_SPLITS = 8
# The entries evaluate returns (see ValueFunction).
_ENTRIES = ("v", "x", "xx", "qi", "qmi", "phi")


def _gk15_panels(f, edges):
    """Integrate the stacked integrands f over consecutive [edges[..., j],
    edges[..., j+1]] panels, one row of edges per capital pair or one for all.

    One vectorized call evaluates f at all 15-point node sets, of shape
    (rows or 1, panels, 15), and returns the Kronrod integrals and |K15 - G7|
    error gauges, each of shape (integrands, rows, panels).  One matrix
    product of the node sets, stacked as rows, with _GK_STACK gives both
    sums of every node set; a row of a product is computed from that row
    alone, so a capital pair's bits do not depend on the other pairs.
    """
    a = edges[..., :-1]
    half = 0.5 * (edges[..., 1:] - a)
    center = a + half
    vals = f(center[..., None] + half[..., None] * _GK_NODES)
    sums = (vals.reshape(-1, len(_GK_NODES)) @ _GK_STACK).reshape(*vals.shape[:-1], 2)
    k15 = sums[..., 0] * half
    return k15, np.abs(k15 - sums[..., 1] * half)


class ValueFunction:
    """Shared evaluation of every kind (see the module docstring).  A kind
    supplies p_ref, own_boundary and opponent_boundary, and _coef, which
    gives the option coefficient and its gradient (C, dC/dq_i, dC/dq_mi)
    together, elementwise over arrays of capital pairs, so that a
    quadrature-backed C is looked up once per branch pass.

    evaluate is the one way into a value: it takes states (x, q_i, q_mi) as
    floats or broadcastable numpy arrays and returns every entry, keyed "v"
    (V), "x" (x V_x), "xx" (x**2 V_xx), "qi", "qmi" and "phi" (the paste
    point).  It splits the states once at the own trigger: the branch
    (_below) forms every entry of the states up to it in one pass, and the
    continuation (_above) those of the states over it from one root solve
    per state.  value reads its "v".  Each entry has the broadcast shape of
    the states, and is a float when every argument is one.  An
    intermediate out of the floating-point range gives inf or NaN, as
    float arithmetic does, without a numpy warning; the callers refuse
    non-finite results.
    """

    params: ModelParams
    p_ref: float

    def strategy_pair(self):
        return self.own_boundary, self.opponent_boundary

    def _own_trigger(self, q_i, q_mi):
        return self.own_boundary.trigger(q_i, q_mi)

    def _phi(self, x, q_mi):
        return self.own_boundary.base_capacity(x, q_mi)

    def _coef(self, q_i, q_mi):
        raise NotImplementedError

    # -- the below-trigger branch ---------------------------------------------

    def _branch(self, x, q_i, q_mi):
        """unit = p_ref/(r-mu) * y and y**beta at the normalised price y."""
        pr = self.params
        y = x * ((q_i + q_mi) ** (-1.0 / pr.gamma) / self.p_ref)
        return self.p_ref / (pr.r - pr.mu) * y, y ** pr.beta

    def _below(self, x, q_i, q_mi):
        """Every entry of the branch in one pass, from the profit stream
        S = unit * q_i and the option term O = C * y**beta.  Both capitals
        lower the price P(q), which moves y by dy/dq = -y/(gamma q); own
        capital also scales S.  "xqi" (d(x V_x)/dq_i) serves the
        continuation's x**2 V_xx, and "option" (O) the negative control.
        Written in y, the entries stay finite where x**2 overflows.

        S and O are formed divided by a power of two m <= max(1, q_i) and
        the sums multiplied by m: exact scalings, which keep S from
        overflowing before O cancels it at q_i near 1e308."""
        pr = self.params
        unit, y_beta = self._branch(x, q_i, q_mi)
        c, c_qi, c_qmi = self._coef(q_i, q_mi)
        m = np.ldexp(1.0, np.maximum(0, np.frexp(q_i)[1] - 1))
        stream, option = unit * (q_i / m), c / m * y_beta
        x_vx = (stream + pr.beta * option) * m
        g_q = pr.gamma * (q_i + q_mi)
        via_price = x_vx / g_q
        return {"v": (stream + option) * m, "x": x_vx,
                "xx": pr.beta * (pr.beta - 1.0) * option * m,
                "qi": unit + c_qi * y_beta - via_price,
                "qmi": c_qmi * y_beta - via_price,
                "xqi": unit * (1.0 - q_i / g_q)
                + pr.beta * (c_qi * y_beta - pr.beta * option * m / g_q),
                "option": option * m, "phi": q_i}

    def _above(self, x, q_i, q_mi):
        """The continuation at states above the own trigger: the branch at
        the paste point phi = phi(x, q_mi), solved for every state in one
        call.  V = V(x, phi, q_mi) - phi + q_i, x V_x is the branch's and
        V_qi = 1.  phi_x = 1/T_qi(phi, q_mi) from the own trigger's gradient
        gives x**2 V_xx = x**2 V_xx(x, phi, q_mi) + x/T_qi * d(x V_x)/dq_i.
        V_qmi is the chain rule of the pasting identity, V_qmi + (V_qi - 1)
        * phi_qmi of the branch at phi, with phi_qmi = -T_qmi / T_qi.  Smooth
        fit (V_qi = 1 on the trigger) drops the second term; it is kept, so
        that the propagation check tests smooth fit instead of assuming it.
        "phi" hands back the paste point.  Kinds with an explicit
        continuation override this."""
        phi = self._phi(x, q_mi)
        at = self._below(x, phi, q_mi)
        t_qi, t_qmi = self.own_boundary.trigger_grad(phi, q_mi)
        return {"v": at["v"] - phi + q_i, "x": at["x"],
                "xx": at["xx"] + x / t_qi * at["xqi"], "qi": np.ones(np.shape(x)),
                "qmi": at["qmi"] - (at["qi"] - 1.0) * t_qmi / t_qi, "phi": phi}

    # -- generic surface ------------------------------------------------------

    def evaluate(self, x, q_i, q_mi) -> dict:
        """Every entry (see the class docstring) at every state: one split
        at the own trigger, one branch call for the states up to it and one
        continuation call for the states over it.  When every state is
        below, the branch broadcasts the capitals as given, so an array of
        shock levels per capital pair costs one coefficient per pair."""
        x, q_i, q_mi = (np.asarray(v, dtype=float) for v in (x, q_i, q_mi))
        shape = np.broadcast_shapes(x.shape, q_i.shape, q_mi.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            if np.any(q_i + q_mi <= 0.0):
                raise ZeroCapacityError("value needs positive aggregate capacity")
            under = x <= self._own_trigger(q_i, q_mi)
            if np.all(under):
                out = self._below(x, q_i, q_mi)
            else:
                x, q_i, q_mi, under = (np.broadcast_to(v, shape).ravel()
                                       for v in (x, q_i, q_mi, under))
                out = {key: np.empty(x.size) for key in _ENTRIES}
                for mask, part in ((under, self._below), (~under, self._above)):
                    if mask.any():
                        got = part(x[mask], q_i[mask], q_mi[mask])
                        for key in _ENTRIES:
                            out[key][mask] = got[key]
                out = {key: v.reshape(shape) for key, v in out.items()}
        if not shape:
            return {key: float(np.reshape(out[key], ())) for key in _ENTRIES}
        return {key: out[key] if np.shape(out[key]) == shape
                else np.broadcast_to(out[key], shape).copy() for key in _ENTRIES}

    def value(self, x, q_i, q_mi):
        return self.evaluate(x, q_i, q_mi)["v"]

    def option_term(self, x, q_i, q_mi):
        """C * y**beta of the below-trigger branch; above the own trigger it
        keeps its value on the trigger."""
        with np.errstate(over="ignore", invalid="ignore"):
            y_beta = self._branch(np.minimum(x, self._own_trigger(q_i, q_mi)), q_i, q_mi)[1]
            return self._coef(q_i, q_mi)[0] * y_beta


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

    # The "own" trigger of the piecewise formula is the opponent's: the
    # abstainer itself never invests.
    def _own_trigger(self, q_i, q_mi):
        return self.opponent_boundary.trigger(q_i, q_mi)

    def _coef(self, q_i, q_mi):
        pr = self.params
        # Divided before the product, which would overflow near q_i = 1e308.
        slope = -self.p / ((pr.r - pr.mu) * pr.beta)
        return slope * q_i, slope, 0.0

    def _above(self, x, q_i, q_mi):
        """The annuity: flat in x and in the opponent's capital."""
        pr = self.params
        zero = np.zeros(np.shape(x))
        return {"v": self.p / (pr.r - pr.mu) * (pr.beta - 1.0) / pr.beta * q_i,
                "x": zero, "xx": zero, "qi": zero + self.p / pr.p_star, "qmi": zero,
                "phi": q_i}


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

    def _btil(self, q_i, q_mi):
        return self.coef * (self.k_own * q_i + self.k_opp * q_mi)

    def _coef(self, q_i, q_mi):
        return self._btil(q_i, q_mi), self.coef * self.k_own, self.coef * self.k_opp


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

    def __init__(self, params: ModelParams, c: float):
        self.params = params
        self.p_ref = params.p_star
        self.c = c
        self.boundary = self.own_boundary = self.opponent_boundary = DynamicBoundary(params, c)
        # (q_i, q_mi) -> (B, B_qmi).  An OrderedDict drops its oldest entry
        # in O(1); a dict's first key is found past every deleted one.
        self._b_cache: OrderedDict = OrderedDict()

    kind = "dynamic_c"

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

    def _split_until(self, f, edges, base):
        """base plus the integrals of the stacked integrands f over the panels
        between edges (one row), splitting panels until each integrand's
        error gauge sum is within _REL_TOL * (1 + |its total|)."""
        for _ in range(_MAX_SPLITS + 1):
            vals, errs = _gk15_panels(f, edges[None, :])
            vals, errs = vals[:, 0], errs[:, 0]
            totals = base + vals.sum(axis=1)
            # Each gauge as a share of its integrand's error budget.
            share = errs / (_REL_TOL * (1.0 + np.abs(totals)))[:, None]
            if np.all(share.sum(axis=1) <= 1.0):
                return totals
            worst = share.max(axis=0)
            split = worst > 0.5 / len(worst)
            if not split.any():
                split = worst == worst.max()
            mids = 0.5 * (edges[:-1] + edges[1:])
            edges = np.insert(edges, split.nonzero()[0] + 1, mids[split])
        raise QuadratureNotConvergedError(
            f"panel errors {share.sum(axis=1).max():.3g} times the tolerance after refinement")

    def _integrand(self, q_i, q_mi):
        """B's mapped integrand and its q_mi-derivative (see _integral) for
        the capital pairs of the 1-D arrays q_i, q_mi: f(t) takes nodes of
        shape (pairs or 1, panels, 15) and stacks the two integrands first."""
        pr = self.params
        d = self._decay
        s0 = (q_i + q_mi)[:, None, None]
        q_i, q_mi = q_i[:, None, None], q_mi[:, None, None]
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
            # A whole row's first node has its largest s; a segment's s <= s0.
            past = (s[:, 0, 0] == np.inf).nonzero()[0]
            if past.size:
                raise QuadratureNotConvergedError(
                    f"B's nodes beyond s = {s0.flat[past[0]]:.6g} passed the floating-point range")
            # The price p* + c/q and d_*, q_mi-derivatives at fixed t: s moves
            # by s/s0 = growth, q = s - q_mi by growth - 1, q_mi/s by q_i/s0/s.
            price, d_price, q = pr.p_star, 0.0, None
            if self.c > 0.0:
                q = s - q_mi
                price = self.c / q   # the premium, until p* is added
                d_price = -price * (growth - 1.0) / q
                price += pr.p_star
            # Temporaries are dropped as soon as they are spent, which keeps a
            # block's working set near ten node arrays.
            del growth, q
            mr = mr_lim + mr_kink / s
            d_margin = -d_price * mr - price * kappa * (q_i / s0) / s
            del s
            margin = 1.0 - price * mr
            del mr
            weight = price ** (-pr.beta) * scale
            out = np.empty((2, *margin.shape))
            value = np.multiply(margin, weight, out=out[0])
            np.multiply(d_margin - pr.beta * margin * d_price / price, weight, out=out[1])
            out[1] -= d / s0 * value
            return out

        return mapped

    def _integral(self, q_i, q_mi, edges, base):
        """base (2, pairs) plus the integrals in t of B's integrand and its
        q_mi-derivative on the panels between each pair's row of edges (or
        one row for all) for capital pairs (1-D arrays); each spans [q_i, inf).

        With s = q + q_mi the map s = s0 * t**(-1/d), s0 = q_i + q_mi, takes
        the range onto (0, 1], as QUADPACK's QAGI does for infinite ranges but
        with the power matched to the decay.  dq = -s/(d t) dt, and the
        integrand falls like s**(-beta/gamma), so the mapped integrand is
        margin * price**-beta * s0**(-d) / d: nothing in it underflows.  It
        varies through t**(1/d), so _B_LAYOUT gets finer toward t = 1.  The
        q_mi-derivative is at fixed t, where ds/dq_mi = s/s0.  Every node
        lies above the kink.

        A pass holds as many nodes as _BLOCK_PAIRS pairs on _B_LAYOUT, and a
        pair's bits do not depend on its pass.  Only the pairs whose gauges
        miss the tolerance are refined, each on its own (_split_until).  A
        total outside the envelope, or a B beyond its linear bound, is an
        error (the first such pair's), not a result.
        """
        s0 = q_i + q_mi
        totals, gauges = base.copy(), np.empty_like(base)
        step = _BLOCK_PAIRS * (len(_B_LAYOUT) - 1) // (edges.shape[1] - 1)
        for start in range(0, len(s0), step):
            k = slice(start, start + step)
            vals, errs = _gk15_panels(self._integrand(q_i[k], q_mi[k]),
                                      edges if len(edges) == 1 else edges[k])
            totals[:, k] += vals.sum(axis=2)
            gauges[:, k] = errs.sum(axis=2)
        for k in (gauges > _REL_TOL * (1.0 + np.abs(totals))).any(axis=0).nonzero()[0]:
            totals[:, k] = self._split_until(self._integrand(q_i[k:k + 1], q_mi[k:k + 1]),
                                             edges[min(k, len(edges) - 1)], base[:, k])
        size = np.abs(totals[0])
        outside = ~(size <= self._tail_envelope(s0))
        bound = self.b_linear_bound(q_i, q_mi)
        for k in (outside | (size > bound * (1.0 + 1e-6) + 1e-250)).nonzero()[0][:1]:
            if outside[k]:
                raise QuadratureNotConvergedError(
                    f"integral {totals[0, k]:.6g} beyond s = {s0[k]:.6g} exceeds its envelope")
            raise QuadratureNotConvergedError(
                f"|B|={size[k]:.6g} violates its certified bound {bound[k]:.6g}")
        return totals

    def _kink_terms(self, q_i, q_mi):
        """For pairs below the kink (1-D arrays), the integrals from q_i to
        q_mi of B's integrand g and of its q_mi-derivative at fixed q, and g
        at the kink, g_k.  There P = p* + c/q_mi is frozen, g = P**-beta (A -
        K/s) s**-(1+d) (A = 1 - P mr_lim, K = P mr_kink: see _integrand)."""
        pr, d = self.params, self._decay
        price = pr.p_star + self.c / q_mi
        rho = -(self.c / q_mi) / (q_mi * price)   # d log P / d q_mi
        a = 1.0 - price * (pr.gamma - 1.0) / (pr.gamma * (pr.r - pr.mu))
        k = price * q_mi / (pr.gamma * (pr.r - pr.mu))
        w, s0, s_k = price ** -pr.beta, q_i + q_mi, 2.0 * q_mi
        g_k = w * (a - k / s_k) * s_k ** (-1.0 - d)
        u = np.log1p((q_mi - q_i) / s0)   # log(2 q_mi / s0)
        f0, f1, f2 = (-np.expm1(-e * u) / e for e in (d, 1.0 + d, 2.0 + d))
        w, k = w * s0 ** -d, k / s0
        r = w * (a * f0 - k * f1)
        r_qmi = -pr.beta * rho * r + w * ((a - 1.0) * rho * f0 + k * (2.0 + d) / s0 * f2
                                          - (k * (rho + 1.0 / q_mi) + a * (1.0 + d) / s0) * f1)
        return r, r_qmi, g_k

    def B_block(self, q_i, q_mi) -> tuple:
        """(B, B_qmi) at broadcastable arrays of capital pairs, each of their
        broadcast shape, certified to _REL_TOL * (1 + |B|) alike.  Pairs are
        looked up _LOOKUP_CHUNK at a time, so memory stays bounded; distinct
        misses are found once (_b_misses) and cached in order of first
        appearance, after the anchors integrated for them."""
        q_i, q_mi = np.broadcast_arrays(np.asarray(q_i, dtype=float),
                                        np.asarray(q_mi, dtype=float))
        out, cache = np.empty((2, q_i.size)), self._b_cache
        for start in range(0, q_i.size, _LOOKUP_CHUNK):
            part = slice(start, start + _LOOKUP_CHUNK)
            a, b, o = q_i.ravel()[part], q_mi.ravel()[part], out[:, part]
            # One probe per pair; a hit is its (B, B_qmi) tuple.
            found = list(map(cache.get, zip(a.tolist(), b.tolist())))
            miss = np.fromiter(map(operator.not_, found), bool, len(found))
            o[:, ~miss] = np.fromiter(itertools.chain.from_iterable(filter(None, found)),
                                      float).reshape(-1, 2).T
            if not miss.any():
                continue
            # The distinct missing pairs in order of first appearance.
            pairs, first, inverse = np.unique(
                np.stack((a[miss], b[miss]), axis=1).view(complex).ravel(),
                return_index=True, return_inverse=True)
            order = np.argsort(first)
            a, b = pairs.real[order], pairs.imag[order]
            anchors, at_anchors, entries = self._b_misses(a, b)
            o[:, miss] = entries[:, np.argsort(order)[inverse]]
            for keys, values in ((anchors, anchors), at_anchors), ((a, b), entries):
                cache.update(zip(zip(*(k.tolist() for k in keys)), zip(*values.tolist())))
            for _ in range(len(cache) - _B_CACHE_SIZE):
                cache.popitem(last=False)
        return out[0].reshape(q_i.shape), out[1].reshape(q_i.shape)

    def _b_misses(self, q_i, q_mi):
        """(B, B_qmi) at distinct uncached pairs (1-D arrays), after the q and
        (B, B_qmi) of the new anchors (q, q) not asked for.  Pairs above
        _FAR_ABOVE * q_mi and new anchors are integrated whole; any other is
        its anchor less the integral from q_i to q_mi: a closed form below
        the kink (_kink_terms), above it the mapped integrand from t_hi =
        (s0 / (2 q_mi))**d down to 1, whose q_mi-derivative gains g_k at the
        anchor's limit and f(t_hi) dt_hi/dq_mi = g_k 2 q_mi (1/s0 - 1/q_mi)."""
        if np.any(q_i + q_mi <= 0.0):
            raise ZeroCapacityError("B needs positive aggregate capacity")
        near = q_i <= _FAR_ABOVE * q_mi
        qs, pos = np.unique(q_mi[near], return_inverse=True)
        hits = list(map(self._b_cache.get, zip(qs.tolist(), qs.tolist())))
        new = np.fromiter(map(operator.not_, hits), bool, len(qs))
        a, b = (np.concatenate((v[~near], qs[new])) for v in (q_i, q_mi))
        whole = -self._integral(a, b, _B_LAYOUT[None], np.zeros((2, len(a))))
        anchor = np.empty((2, len(qs)))
        anchor[:, ~new] = np.fromiter(itertools.chain.from_iterable(filter(None, hits)),
                                      float).reshape(-1, 2).T
        anchor[:, new] = whole[:, len(a) - new.sum():]
        out = np.empty((2, len(q_i)))
        out[:, ~near] = whole[:, :len(a) - new.sum()]
        q_i, q_mi, at = q_i[near], q_mi[near], anchor[:, pos]
        r, r_qmi, g_k = self._kink_terms(q_i, q_mi)
        lo, hi = q_i < q_mi, q_i > q_mi
        at[:, lo] -= (r[lo], r_qmi[lo])
        s0, s_k = q_i[hi] + q_mi[hi], 2.0 * q_mi[hi]
        rise = np.expm1(self._decay * np.log1p((q_i[hi] - q_mi[hi]) / s_k))   # t_hi - 1
        base = -np.stack((at[0, hi], at[1, hi] + g_k[hi] * (s_k / s0 - 1.0)))
        at[:, hi] = -self._integral(q_i[hi], q_mi[hi], 1.0 + rise[:, None] * _SEGMENT, base)
        out[:, near] = at
        fresh = new & (np.bincount(pos[q_i == q_mi], minlength=len(qs)) == 0)   # not asked for
        return qs[fresh], anchor[:, fresh], out

    def B(self, q_i: float, q_mi: float) -> float:
        """Coefficient of x**beta at one capital pair: the one-pair block of
        B_block."""
        return float(self.B_block(q_i, q_mi)[0])

    def b_linear_bound(self, q_i, q_mi):
        """Linear growth bound |B| <= beta/(beta-1) (P/p*)^beta gamma/(beta-gamma) (q_i+q_mi),
        elementwise over arrays of capital pairs."""
        pr = self.params
        s = q_i + q_mi
        return pr.beta / (pr.beta - 1.0) * (s ** (-1.0 / pr.gamma) / pr.p_star) ** pr.beta \
            * pr.gamma / (pr.beta - pr.gamma) * s

    def _coef(self, q_i, q_mi):
        """C = B rescaled from x**beta to y**beta = (x P(q)/p*)**beta, and its
        gradient from B's, all from one B_block lookup: B_qi is B's
        integrand at its lower limit q_i, and B_qmi is integrated with B
        (see _integral)."""
        pr = self.params
        b, b_qmi = self.B_block(q_i, q_mi)
        xbar = self.boundary._raw_trigger(q_i, q_mi)
        b_qi = (1.0 - xbar * pr.marginal_revenue(q_i, q_mi) / (pr.r - pr.mu)) \
            * xbar ** (-pr.beta)
        s = q_i + q_mi
        via_s = b * pr.beta / (pr.gamma * s)   # (p_star * s**(1/gamma))**beta's share
        scale = (pr.p_star * s ** (1.0 / pr.gamma)) ** pr.beta
        return b * scale, (b_qi + via_s) * scale, (b_qmi + via_s) * scale


class PerturbedValue(ValueFunction):
    """Negative-control candidate: evaluate scales the option term in the
    value entry only, adding (option_scale - 1) * option_term to "v", while
    every derivative entry stays that of the base function.  The resulting
    value/derivative mismatch violates the pricing equation, which residual
    checks must flag; only states above the own trigger call option_term."""

    def __init__(self, base: ValueFunction, option_scale: float):
        self.base = base
        self.params = base.params
        self.option_scale = option_scale
        self.kind = f"perturbed({base.kind})"
        self.own_boundary, self.opponent_boundary = base.strategy_pair()
        self._own_trigger = base._own_trigger

    def _below(self, x, q_i, q_mi):
        out = self.base._below(x, q_i, q_mi)
        out["v"] = out["v"] + (self.option_scale - 1.0) * out["option"]
        return out

    def _above(self, x, q_i, q_mi):
        out = self.base._above(x, q_i, q_mi)
        out["v"] = out["v"] + (self.option_scale - 1.0) * self.base.option_term(x, q_i, q_mi)
        return out
