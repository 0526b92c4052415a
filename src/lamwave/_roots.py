"""Root finding and maximisation for the one-dimensional solves.

``bisect`` is the library's one zero finder: it halves many brackets at once,
or one 0-d bracket, down to adjacent floats, reading only which side of the
zero each midpoint lies on.  ``golden_max`` is the golden-section search for a
maximum (Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 5).
"""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def bisect(inside, inn, out) -> np.ndarray:
    """Bisect every bracket (inn, out) at once until none shrinks (adjacent floats).

    ``inside(x)`` tells which points of an array lie on the ``inn`` side.  The
    ends are never evaluated: the caller knows that ``inn`` lies inside and
    ``out`` does not.  Returns the ``inn`` ends, each the float at which the
    side flips: it lies inside and its neighbour toward ``out`` does not.  Only
    the side is read, so a kink at a root does no harm.  Floats give a 0-d
    bracket; an empty bracket (inn == out) returns its end.
    """
    inn, out = np.asarray(inn, dtype=float), np.asarray(out, dtype=float)
    while True:
        mid = 0.5 * (inn + out)
        if not ((mid != inn) & (mid != out)).any():
            return inn
        side = inside(mid)
        inn = np.where(side, mid, inn)
        out = np.where(side, out, mid)
