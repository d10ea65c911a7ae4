"""One-dimensional search helpers shared across the package.

golden_min and golden_max search one scalar bracket.  bisect_root runs
independent bisections elementwise over arrays of brackets, so a batch of
monotone root problems costs one call.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_min(f, lo: float, hi: float, tol: float = 1e-8) -> tuple[float, float]:
    """Minimize a unimodal function on [lo, hi] by golden-section search.

    Returns (argmin, min value). The bracket is shrunk until its width is
    below `tol`.
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
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    x = c if fc < fd else d
    return x, min(fc, fd)


def golden_max(f, lo: float, hi: float, tol: float = 1e-8) -> tuple[float, float]:
    x, v = golden_min(lambda t: -f(t), lo, hi, tol)
    return x, -v


def bisect_root(g, lo, hi, tol: float = 1e-12, max_iter: int = 400):
    """Roots of a nondecreasing function g with g(lo) <= 0 <= g(hi), elementwise.

    lo, hi and g(x) may be arrays; they broadcast to one shape, and g must
    map an array of that shape to values of that shape.  Each element is
    its own bisection: it returns lo when g(lo) > 0, hi when g(hi) < 0, and
    otherwise the midpoint of its bracket once the bracket is at most tol
    wide or after max_iter halvings.  A scalar problem returns a float.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    glo, ghi = g(lo), g(hi)
    shape = np.broadcast_shapes(lo.shape, hi.shape, np.shape(glo), np.shape(ghi))
    lo = np.broadcast_to(lo, shape).copy()
    hi = np.broadcast_to(hi, shape).copy()
    below = np.broadcast_to(glo > 0, shape)
    above = ~below & (ghi < 0)
    root = np.where(below, lo, hi)
    active = ~(below | above)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        done = active & (hi - lo <= tol)
        root[done] = mid[done]
        active &= ~done
        if not active.any():
            break
        neg = g(mid) < 0
        np.copyto(lo, mid, where=active & neg)
        np.copyto(hi, mid, where=active & ~neg)
    else:
        root[active] = 0.5 * (lo + hi)[active]
    return float(root) if root.ndim == 0 else root
