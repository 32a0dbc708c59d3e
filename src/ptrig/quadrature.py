"""The package's one quadrature: a graded composite Gauss-Legendre grid.

`graded_grid` splits each gap between sorted breakpoints into equal
16-point Gauss-Legendre panels no wider than a given width, grades the
panel next to each breakpoint dyadically down to 2^-40 of itself (which
absorbs algebraic endpoint singularities), and returns the grid followed
by the same grid with every panel halved.  The halved sum is the value,
its gap to the unhalved sum the error estimate (`halved_sum`, which
raises ConvergenceError when the estimate exceeds its tolerance).  The
coefficient banks of ptrig.fourier and `reconstruct_check` sample their
integrands on such a grid directly (`uniform_runs` tells the banks which
nodes lie on uniform panels); `integrate_panels` serves one integrand.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

_GRADING = 40  # dyadic levels into each breakpoint, down to 2^-40 of a panel
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
GAUSS_OFFSETS = (_NODES + 1.0) / 2.0  # node positions within a panel, in panel widths


def graded_grid(breakpoints, width: float):
    """(x, w, nc): nodes and weights of the graded grid over the sorted
    breakpoints (the first nc) and of the same grid with every panel halved.

    Each gap is cut into at least two equal panels no wider than width,
    so the grading toward its two ends never meets.
    """
    b = np.asarray(breakpoints, dtype=float)
    steps = 2.0 ** -np.arange(_GRADING, 0, -1)
    parts = [b[:1]]
    for a, c in zip(b[:-1], b[1:]):
        n = max(2, math.ceil((c - a) / width))
        h = (c - a) / n
        parts += [a + h * steps, a + h * np.arange(1, n), c - (h * steps)[::-1], [c]]
    edges = np.concatenate(parts)
    halved = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    xs, ws = [], []
    for e in (edges, halved):
        a, span = e[:-1, None], np.diff(e)[:, None]
        xs.append((a + span * GAUSS_OFFSETS).ravel())
        ws.append((span / 2.0 * _WEIGHTS).ravel())
    return np.concatenate(xs), np.concatenate(ws), xs[0].size


def uniform_runs(nc: int):
    """The uniform panels of a one-gap graded grid with nc unhalved nodes.

    For the grid of graded_grid((a, c), width) whose gap is cut into panels
    of width h, returns (k, run) for the unhalved grid (k = 1) and the halved
    grid (k = 2): x[run] are that grid's nodes on uniform panels as a
    (panel, node) block, panel r spanning a + (k + r + [0, 1]) h / k, and
    node i sitting at GAUSS_OFFSETS[i] of its panel.  The other nodes of
    each grid lie on the graded panels of its two ends.
    """
    ends = (_GRADING + 1) * _NODES.size  # nodes on one end's graded panels, unhalved
    return (1, slice(ends, nc - ends)), (2, slice(nc + 2 * ends, 3 * nc - 2 * ends))


def halved_sum(weighted, nc: int, abs_tol: float, name: str):
    """(value, err_est) from weighted samples on a graded grid: the sum
    over the halved grid and its gap to the sum over the first nc.

    An estimate above abs_tol (or NaN) raises ConvergenceError naming
    the integral.
    """
    value = float(weighted[nc:].sum())
    err = abs(value - float(weighted[:nc].sum()))
    if not err <= abs_tol:
        raise ConvergenceError(
            f"{name}: quadrature error estimate {err:.3e} exceeds {abs_tol:.3e}"
        )
    return value, err


def integrate_panels(f, edges, abs_tol=1e-12):
    """(value, err_est) of the integral of a vectorized f over
    [edges[0], edges[-1]], by `halved_sum`.

    The edges are the breakpoints of a graded grid whose panels are no
    wider than the widest gap between them; f is called once on it.
    """
    edges = np.asarray(edges, dtype=float)
    x, w, nc = graded_grid(edges, float(np.max(np.diff(edges))))
    return halved_sum(w * f(x), nc, abs_tol, "integrate_panels")
