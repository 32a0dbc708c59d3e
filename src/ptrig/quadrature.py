"""Gauss-Legendre rules and adaptive panel quadrature.

`gauss_rule` serves the fixed coefficient-bank grids of ptrig.fourier.
`integrate_panels` is the adaptive route of the operator cross-checks
(`reconstruct_check`, the L_s norms of `isometry_check`): each panel is
evaluated with a 16-point rule and re-evaluated on its two halves, the
half-panel sum is kept as the value, the coarse/refined difference as
the error estimate, and panels whose estimate exceeds their share of the
budget are bisected further.  Mild algebraic endpoint singularities are
absorbed by the bisection cascade.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def gauss_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def _panel_estimates(f, a, h, nodes, weights):
    """Coarse and half-panel integrals for panels [a_i, a_i + h_i]."""
    scaled = (nodes + 1.0) / 2.0
    xc = a[:, None] + h[:, None] * scaled[None, :]
    xl = a[:, None] + (h[:, None] / 2.0) * scaled[None, :]
    xr = a[:, None] + h[:, None] / 2.0 + (h[:, None] / 2.0) * scaled[None, :]
    x = np.concatenate([xc, xl, xr], axis=1)
    vals = f(x.ravel()).reshape(x.shape)
    n = nodes.size
    coarse = (h / 2.0) * (vals[:, :n] @ weights)
    refined = (h / 4.0) * ((vals[:, n : 2 * n] + vals[:, 2 * n :]) @ weights)
    return coarse, refined


def integrate_panels(f, edges, abs_tol=1e-12, max_depth=48, points=16):
    """Integrate a vectorized callable over the panels defined by `edges`.

    Returns (value, err_est).  err_est is the summed coarse/refined
    discrepancy of the accepted panels; when max_depth is exhausted the
    remaining discrepancy is folded into err_est rather than raised.
    """
    edges = np.asarray(edges, dtype=float)
    nodes, weights = gauss_rule(points)
    a = edges[:-1]
    h = np.diff(edges)
    total = edges[-1] - edges[0]
    if total <= 0:
        return 0.0, 0.0
    value = 0.0
    err = 0.0
    for depth in range(max_depth + 1):
        if a.size == 0:
            break
        coarse, refined = _panel_estimates(f, a, h, nodes, weights)
        e = np.abs(refined - coarse)
        done = e <= abs_tol * (h / total)
        if depth == max_depth:
            done = np.ones_like(done)
        value += float(refined[done].sum())
        err += float(e[done].sum())
        keep = ~done
        a = a[keep]
        h = h[keep] / 2.0
        a = np.concatenate([a, a + h])
        h = np.concatenate([h, h])
    return value, err

