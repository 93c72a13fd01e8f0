"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def _brentq_inverse(boundary, x, q_mi=None):
    """Smallest q >= q_floor with trigger(q, q_mi) >= x, or on the diagonal
    trigger(q, q) >= x when q_mi is None, for a boundary with a premium:
    scipy's brentq on the trigger formula, written out here, so that it
    shares no code with the package's inverses.  Elementwise over arrays
    of x and q_mi, with one root per distinct point.  The bracket's top
    solves p * (k*q + q_mi)**(1/gamma) = x, k = 2 on the diagonal, where
    the trigger, raised by its premium, is already above x.  brentq stops
    within 1e-15 + 1e-15 * q, far inside the 1e-12 * max(1, q) that the
    tests allow."""
    from scipy.optimize import brentq

    p, c, gamma = boundary.p, boundary.c, boundary.params.gamma
    floor = c * (2.0 * gamma - 1.0) / p
    diagonal = q_mi is None

    def trigger(q, w):
        return (p + c / max(q, w)) * (q + w) ** (1.0 / gamma)

    def root(v, w):
        def g(q):
            return (trigger(q, q) if diagonal else trigger(q, w)) - v
        if g(floor) >= 0.0:
            return floor
        hi = max(floor, ((v / p) ** gamma - w) / (2.0 if diagonal else 1.0)) + 1.0
        return brentq(g, floor, hi, xtol=1e-15, rtol=1e-15, maxiter=500)

    x, w = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(0.0 if diagonal else q_mi, dtype=float))
    keys = list(zip(x.ravel().tolist(), w.ravel().tolist()))
    roots = {key: root(*key) for key in dict.fromkeys(keys)}
    return np.array([roots[key] for key in keys]).reshape(x.shape)


@pytest.fixture(scope="session")
def brentq_inverse():
    """The reference trigger inverse (_brentq_inverse) that the Newton
    solver and the outcome builders are checked against."""
    return _brentq_inverse
