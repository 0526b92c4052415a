"""Root finding and maximisation for the one-dimensional solves.

``brentq`` is Brent's zero finder (Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4), step for step the common C formulation of it, with
its stopping rule ``|x - x0| <= xtol + rtol * |x0|``; the tests check that it
returns the same bits as that routine.  ``golden_max`` is the golden-section
search of ch. 5.  ``bisect`` halves many brackets at once, down to adjacent
floats.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
    return fx


def brentq(
    f, a: float, b: float, xtol: float, rtol: float = 4 * sys.float_info.epsilon, maxiter: int = 100
) -> float:
    """Zero of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Stops once the bracket is narrower than ``xtol + rtol * |x|``.  Raises
    ``ValueError`` on a same-sign bracket, a NaN value or after ``maxiter``
    steps without convergence.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _value(f, xcur)
    raise ValueError(f"failed to converge after {maxiter} iterations, value is {xcur}")


def golden_max(f, lo: float, hi: float, xatol: float) -> float:
    """Maximiser of a unimodal ``f`` on [lo, hi], to within ``xatol``."""
    a, b = float(lo), float(hi)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    # each step shrinks the bracket by 1/phi; stop once it is below xatol
    for _ in range(max(0, math.ceil(math.log(xatol / (b - a)) / math.log(_INV_PHI)))):
        if fc >= fd:  # the maximum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:  # the maximum lies in [c, b]
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def bisect(inside, inn: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Bisect every bracket (inn, out) at once until none shrinks (adjacent floats).

    ``inside(x)`` tells which points of an array lie on the ``inn`` side; returns
    the ``inn`` ends.  Only the side is read, so a kink at a root does no harm.
    An empty bracket (inn == out) returns its end.
    """
    while True:
        mid = 0.5 * (inn + out)
        if not ((mid != inn) & (mid != out)).any():
            return inn
        side = inside(mid)
        inn = np.where(side, mid, inn)
        out = np.where(side, out, mid)
