"""Root finding and maximisation for the one-dimensional solves.

``bisect`` halves many brackets at once, or one 0-d bracket, down to adjacent
floats, reading only which side of the zero each midpoint lies on; ``newton``
narrows them first by a residual's slope.  ``golden_max`` is the golden-section
search for a maximum (Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 5).
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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # a step of inf or NaN bisects
def newton(probe, inn, out) -> tuple[np.ndarray, np.ndarray]:
    """Narrow the brackets (inn, out) of :func:`bisect` by safeguarded Newton steps (Press et
    al., *Numerical Recipes*, 3rd ed., 2007, section 9.4 ``rtsafe``).

    ``probe(x)`` gives ``(inside(x), f, df)``: the predicate, which alone moves the ends, and a
    residual monotone across its flip with its slope.  A step that leaves the bracket or exceeds
    half the step before the last bisects instead; a row freezes once its step is within 2 ulp
    or its iterate leaves the open bracket.  A last call reads the floats within 4 ulp of each
    iterate and pulls the ends in, so that ``bisect`` finishes in a few rounds.  ``probe`` may
    be called at an end, but its answer there is never read.
    """
    inn, out = np.asarray(inn, dtype=float), np.asarray(out, dtype=float)
    up, lo, hi = out > inn, np.minimum(inn, out), np.maximum(inn, out)  # up: inn is the lower end
    x = 0.5 * (lo + hi)
    last = before = 0.5 * (hi - lo)  # half the last step, and half the one before it
    for _ in range(32):  # bisect finishes whatever has not converged by then
        live = (x > lo) & (x < hi)
        if not live.any():
            break
        side, f, df = probe(x)
        low = side == up  # x becomes the lower end
        lo, hi = np.where(live & low, x, lo), np.where(live & ~low, x, hi)
        step = f / df
        nxt, step = x - step, np.abs(step)
        nxt = np.where((nxt > lo) & (nxt < hi) & (step <= before), nxt, 0.5 * (lo + hi))
        frozen = step <= 2.0 * np.abs(np.spacing(x))
        x, last, before = np.where(frozen, x, nxt), 0.5 * np.abs(nxt - x), last
    mid = 0.5 * (lo + hi)
    if ((mid != lo) & (mid != hi)).any():  # some bracket holds a float
        near = np.clip(x + np.multiply.outer(np.arange(-4.0, 5.0), np.spacing(x)), lo, hi)
        low, seen = probe(near)[0] == up, (near > lo) & (near < hi)
        lo, hi = np.where(seen & low, near, lo).max(axis=0), np.where(seen & ~low, near, hi).min(axis=0)
    return np.where(up, lo, hi), np.where(up, hi, lo)
