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

DynamicValue's B is an improper integral over [q_i, inf).  It is evaluated as
one integral over t in (0, 1], where s = q + q_mi = (q_i + q_mi) * t**(-1/d),
d = beta/gamma - 1: a fixed layout of six Gauss-Kronrod 15 panels, finer
toward t = 1, plus one more from the image of the integrand's kink q = q_mi
when q_i < q_mi, split only where their error gauges miss the tolerance (see
DynamicValue._integral).  One vectorized pass integrates a block of up to
64 capital pairs (_BLOCK_PAIRS), and one matrix product forms every node
set's Kronrod and Gauss sums.  B's q_mi-derivative is integrated in the same
call; its q_i-derivative is the integrand at q_i.
"""

from __future__ import annotations

import itertools
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


# B's panel edges in its mapped variable t (see DynamicValue._integral),
# scaled onto [0, t_k] when the kink t_k lies inside (0, 1).
_B_LAYOUT = np.array([0.0, 0.5, 0.75, 0.875, 0.9375, 0.96875, 1.0])
# The integral beyond s = _S_MAX, which the map's nodes may not pass, must
# stay below _TAIL_REL_TOL.
_S_MAX = 1e300
_TAIL_REL_TOL = 1e-12
# B values kept per DynamicValue: a default verification report with 80
# side-condition paths integrates about 2,200 distinct capital pairs, so
# this holds about 18 reports.
_B_CACHE_SIZE = 40_000
# Distinct uncached capital pairs integrated together in one vectorized
# quadrature pass, and capital pairs looked up in the cache at a time.  On
# a 2-core machine (Python 3.11, numpy 2.4) a fresh pair costs 13.7 us in
# passes of 32, 11.0 at 48, 10.7 at 64, 12.5 at 96 and 13.1 at 128 (medians
# of 30 alternated passes), and a 64-pair pass peaks at 0.54 MiB of
# temporaries.
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
    edges[..., j+1]] panels, one row of edges per capital pair.

    One vectorized call evaluates f at all 15-point node sets, of shape
    (rows, panels, 15), and returns the Kronrod integrals and |K15 - G7|
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
        continuation's x**2 V_xx.  Written in y, the entries stay finite
        where x**2 overflows.

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
                "phi": q_i}

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

    def _split_until(self, f, edges):
        """Integrals of the stacked integrands f over the panels between
        edges (one row), splitting panels until each integrand's error gauge
        sum is within _REL_TOL * (1 + |its integral|)."""
        for _ in range(_MAX_SPLITS + 1):
            vals, errs = _gk15_panels(f, edges[None, :])
            vals, errs = vals[:, 0], errs[:, 0]
            totals = vals.sum(axis=1)
            # Each gauge as a share of its integrand's error budget.
            share = errs / (_REL_TOL * (1.0 + np.abs(totals)))[:, None]
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

    def _integrand(self, q_i, q_mi):
        """B's mapped integrand and its q_mi-derivative (see _integral) for
        the capital pairs of the 1-D arrays q_i, q_mi: f(t) takes nodes of
        shape (pairs, panels, 15) and stacks the two integrands first."""
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

        def premium(s, growth):
            """The price p* + c/max(q, q_mi) and its q_mi-derivative.  d_*
            are q_mi-derivatives at fixed t: s moves by s/s0 = growth, s -
            q_mi by growth - 1 and q_mi/s by (q_i/s0)/s."""
            q = s - q_mi
            beyond = q > q_mi
            m = np.where(beyond, q, q_mi)
            prem = self.c / m
            return pr.p_star + prem, -prem * np.where(beyond, growth - 1.0, 1.0) / m

        def mapped(t):
            with np.errstate(over="ignore"):   # an overflow is refused below
                growth = t ** (-1.0 / d)
                s = s0 * growth
            # Nodes come in increasing t, so a row's first node is its largest s.
            past = np.flatnonzero(s[:, 0, 0] == np.inf)
            if past.size:
                raise QuadratureNotConvergedError(
                    f"B's nodes beyond s = {s0.flat[past[0]]:.6g} passed the floating-point range")
            price, d_price = premium(s, growth) if self.c > 0.0 else (pr.p_star, 0.0)
            # Temporaries are dropped as soon as they are spent, which keeps a
            # block's working set near ten node arrays.
            del growth
            mr = mr_lim + mr_kink / s
            d_margin = -d_price * mr - price * kappa * (q_i / s0) / s
            del s
            margin = 1.0 - price * mr
            del mr
            weight = price ** (-pr.beta) * scale
            out = np.empty((2, *t.shape))
            value = np.multiply(margin, weight, out=out[0])
            np.multiply(d_margin - pr.beta * margin * d_price / price, weight, out=out[1])
            out[1] -= d / s0 * value
            return out

        return mapped

    def _integral(self, q_i, q_mi):
        """Integrals over [q_i, inf) of B's integrand and of its
        q_mi-derivative, in one variable t, for a block of capital pairs
        (1-D arrays): two arrays of the pairs' length.

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
        on a panel edge, so it adds no boundary term.

        Every pair gets seven panels, the last one empty ([1, 1]) when there
        is no kink, so the block is one _gk15_panels call and a pair's bits
        do not depend on its block.  Only the pairs whose gauges miss the
        tolerance are refined, each on its own (_split_until).  An integral
        outside the envelope, or a B beyond its linear bound, is an error
        (the first such pair's), not a result.
        """
        s0 = q_i + q_mi
        if np.any(s0 <= 0.0):
            raise ZeroCapacityError("B needs positive aggregate capacity")
        d = self._decay
        t_k = np.ones(len(s0))
        kink = q_i < q_mi
        t_k[kink] = (s0[kink] / (2.0 * q_mi[kink])) ** d
        edges = np.concatenate((_B_LAYOUT * t_k[:, None], np.ones((len(s0), 1))), axis=1)
        vals, errs = _gk15_panels(self._integrand(q_i, q_mi), edges)
        totals = vals.sum(axis=2)
        share = errs.sum(axis=2) / (_REL_TOL * (1.0 + np.abs(totals)))
        for k in np.flatnonzero(np.any(share > 1.0, axis=0)):
            totals[:, k] = self._split_until(
                self._integrand(q_i[k:k + 1], q_mi[k:k + 1]), edges[k])
        total, d_total = totals
        outside = np.flatnonzero(~(np.abs(total) <= self._tail_envelope(s0)))
        if outside.size:
            k = outside[0]
            raise QuadratureNotConvergedError(
                f"integral {total[k]:.6g} beyond s = {s0[k]:.6g} exceeds its envelope")
        bound = self.b_linear_bound(q_i, q_mi)
        beyond = np.flatnonzero(np.abs(total) > bound * (1.0 + 1e-6) + 1e-250)
        if beyond.size:
            k = beyond[0]
            raise QuadratureNotConvergedError(
                f"|B|={abs(total[k]):.6g} violates its certified bound {bound[k]:.6g}")
        return total, d_total

    def B_block(self, q_i, q_mi) -> tuple:
        """(B, B_qmi) at broadcastable arrays of capital pairs, each of their
        broadcast shape, through the cache: B is certified to _REL_TOL *
        (1 + |B|) and its q_mi-derivative alike.  The pairs are looked up
        _LOOKUP_CHUNK at a time, so memory stays bounded however many
        there are."""
        q_i, q_mi = np.broadcast_arrays(np.asarray(q_i, dtype=float),
                                        np.asarray(q_mi, dtype=float))
        flat_qi, flat_qmi = q_i.ravel(), q_mi.ravel()
        out = np.empty((2, flat_qi.size))
        for start in range(0, flat_qi.size, _LOOKUP_CHUNK):
            part = slice(start, start + _LOOKUP_CHUNK)
            out[:, part] = self._b_lookup(flat_qi[part], flat_qmi[part])
        return out[0].reshape(q_i.shape), out[1].reshape(q_i.shape)

    def _b_lookup(self, q_i, q_mi):
        """(B, B_qmi) at 1-D arrays of capital pairs.  Each distinct pair
        missing from the cache is integrated once, in blocks of at most
        _BLOCK_PAIRS pairs per quadrature pass."""
        # The distinct pairs in order of first appearance, and each pair's.
        index = {}
        inverse = [index.setdefault(key, len(index))
                   for key in zip(q_i.tolist(), q_mi.tolist())]
        cache = self._b_cache
        # One probe per distinct pair; a hit is its (B, B_qmi) tuple, which
        # an eviction below does not change.
        found = [cache.get(key) for key in index]
        missing = [key for key, hit in zip(index, found) if hit is None]
        for start in range(0, len(missing), _BLOCK_PAIRS):
            keys = missing[start:start + _BLOCK_PAIRS]
            total, d_total = self._integral(*np.array(keys).T)
            for key, entry in zip(keys, zip((-total).tolist(), (-d_total).tolist())):
                if len(cache) >= _B_CACHE_SIZE:
                    cache.popitem(last=False)
                cache[key] = found[index[key]] = entry
        flat = np.fromiter(itertools.chain.from_iterable(found), float, 2 * len(found))
        return flat.reshape(-1, 2).T.take(inverse, axis=1)

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
    checks must flag.
    """

    def __init__(self, base: ValueFunction, option_scale: float):
        self.base = base
        self.params = base.params
        self.option_scale = option_scale
        self.kind = f"perturbed({base.kind})"
        self.own_boundary, self.opponent_boundary = base.strategy_pair()

    def evaluate(self, x, q_i, q_mi) -> dict:
        out = self.base.evaluate(x, q_i, q_mi)
        out["v"] = out["v"] + (self.option_scale - 1.0) * self.base.option_term(x, q_i, q_mi)
        return out
