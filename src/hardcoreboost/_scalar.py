"""One-dimensional search helpers shared across the package.

golden_min searches one scalar bracket until it is tol wide or its probes
run out of doubles.  bisect_root solves independent monotone root problems
elementwise over arrays of brackets, so a batch costs one call: from a
caller's start point, by safeguarded Newton steps on the value and slope of
the function (the rtsafe rule of Press et al., Numerical Recipes, section
9.4), bisecting where a Newton step would leave the bracket or shrink it too
slowly; a good start lets one pass confirm the root.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_min(f, lo: float, hi: float, tol: float = 1e-8) -> tuple[float, float]:
    """Minimize a unimodal function on [lo, hi] by golden-section search.

    Returns (argmin, min value). The bracket is shrunk until its width is
    below `tol`, or until a new probe would not fall strictly between the
    bracket end and the other probe; the better probe is then returned.
    """
    if hi < lo:
        raise ValueError("empty bracket")
    a, b = lo, hi
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            if not a < c < d:
                return d, fd
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            if not c < d < b:
                return c, fc
            fd = f(d)
    x = c if fc < fd else d
    return x, min(fc, fd)


def bisect_root(g, lo, hi, x0, tol: float = 1e-12, max_iter: int = 400):
    """Roots of a nondecreasing function g with g(lo) <= 0 <= g(hi), elementwise.

    g returns the pair (g(x), g'(x)) from one pass.  lo, hi, x0 and g(x) may
    be arrays; they broadcast to one shape, and g must map an array of that
    shape to values of that shape.  Each element is its own search: it
    returns lo when g(lo) > 0 and hi when g(hi) < 0.  Otherwise its first
    iteration evaluates x0 when x0 lies strictly inside the bracket, and
    after that an iteration takes the Newton step when it lands strictly
    inside the bracket and is at most half the step before last, and
    bisects otherwise.  An element stops where g = 0, returning x; where its
    raw Newton step is at most tol (1 + |x|), returning the Newton point (x
    when that lies outside the bracket); and where its bracket is at most
    tol wide or after max_iter iterations, returning the bracket's
    midpoint.  The stop tests the raw step, not the safeguarded one: an
    exact root that became a bracket end would otherwise be bisected away
    from forever.  A scalar problem returns a float.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    glo, ghi = g(lo)[0], g(hi)[0]
    shape = np.broadcast_shapes(lo.shape, hi.shape, np.shape(glo), np.shape(ghi))
    lo = np.broadcast_to(lo, shape).copy()
    hi = np.broadcast_to(hi, shape).copy()
    below = np.broadcast_to(glo > 0, shape)
    above = ~below & (ghi < 0)
    root = np.where(below, lo, hi)
    active = ~(below | above)
    # the next Newton point, the step to it, and the sizes of the last two
    # steps taken; the jump to x0 counts as a step across the bracket, which
    # no earlier step limits
    nxt = np.broadcast_to(np.asarray(x0, dtype=float), shape)
    step, dx, dxold = hi - lo, np.inf, np.inf
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        done = active & (hi - lo <= tol)
        root[done] = mid[done]
        active &= ~done
        if not active.any():
            break
        take = (lo < nxt) & (nxt < hi) & (np.abs(step) <= 0.5 * dxold)
        dxold, dx = dx, np.where(take, np.abs(step), 0.5 * (hi - lo))
        x = np.where(take, nxt, mid)
        f, df = g(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / df
        nxt = x - step
        small = np.abs(step) <= tol * (1.0 + np.abs(x))
        done = active & ((f == 0) | small)
        root[done] = np.where((lo <= nxt) & (nxt <= hi), nxt, x)[done]
        active &= ~done
        neg = f < 0
        np.copyto(lo, x, where=active & neg)
        np.copyto(hi, x, where=active & ~neg)
    else:
        root[active] = 0.5 * (lo + hi)[active]
    return float(root) if root.ndim == 0 else root
