"""Planted inputs with a known hard core and a closed-form risk infimum.

A random unit direction w splits the cube [-1, 1]^n.  Core points come in
pairs (x, +1), (x, -1) with x on the hyperplane w.x = 0; every other point
is labelled sign(w.x) and kept only when |w.x| >= MIN_MARGIN.  The uniform
weighting of the core decorrelates every coordinate projection from the
labels, while any weighting that touches a complement point correlates
with w, so the hard core is exactly the set of planted pairs.  Along t*w
the complement risk vanishes and every core pair stays at phi(0), so the
surrogate risk infimum is (core mass) * phi(0) for every loss in the
package's family.
"""

from __future__ import annotations

import numpy as np

MIN_MARGIN = 0.05


def planted_problem(m: int, n: int, core_frac: float, rng: np.random.Generator):
    """Return (x, y, core): instances in [-1, 1]^n, labels, sorted core indices.

    round(core_frac * m / 2) pairs form the core; rows are shuffled so the
    core is spread through the sample.
    """
    if not 0.0 <= core_frac <= 1.0 or m < 2 or n < 2:
        raise ValueError("need 0 <= core_frac <= 1, m >= 2 and n >= 2")
    w = rng.standard_normal(n)
    w /= np.linalg.norm(w)
    pairs = int(round(core_frac * m / 2))
    on_plane = rng.uniform(-1.0, 1.0, size=(pairs, n))
    on_plane -= np.outer(on_plane @ w, w)
    on_plane /= np.maximum(1.0, np.abs(on_plane).max(axis=1, initial=0.0))[:, None]
    rest = m - 2 * pairs
    off = np.empty((0, n))
    while off.shape[0] < rest:
        cand = rng.uniform(-1.0, 1.0, size=(2 * rest, n))
        off = np.vstack([off, cand[np.abs(cand @ w) >= MIN_MARGIN]])
    off = off[:rest]
    x = np.vstack([on_plane, on_plane, off])
    y = np.concatenate([np.ones(pairs), -np.ones(pairs), np.sign(off @ w)])
    order = rng.permutation(m)
    x, y = x[order], y[order]
    core = np.flatnonzero(order < 2 * pairs)
    return x, y, core


def risk_infimum(loss, core_size: int, m: int) -> float:
    """Closed-form inf over lambda of the uniform-weight surrogate risk."""
    return core_size / m * loss.value_at_origin


def write_csv(path, x, y) -> None:
    """Write the dataset in the CLI's format: header f1..fn,label."""
    header = ",".join(f"f{i + 1}" for i in range(x.shape[1])) + ",label"
    rows = [",".join(repr(float(v)) for v in row) + f",{int(lab)}" for row, lab in zip(x, y)]
    with open(path, "w") as fh:
        fh.write(header + "\n" + "\n".join(rows) + "\n")
