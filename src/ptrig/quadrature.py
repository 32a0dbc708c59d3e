"""The package's one quadrature: a graded composite Gauss-Legendre grid.

`graded_grid` splits each gap between sorted breakpoints into equal
16-point Gauss-Legendre panels no wider than a given width, grades the
panel next to each breakpoint dyadically down to 2^-40 of itself (which
absorbs algebraic endpoint singularities), and returns the grid followed
by the same grid with every panel halved.  The halved sum is the value,
its gap to the unhalved sum the error estimate (`halved_sum`, which
raises ConvergenceError when the estimate exceeds its tolerance).  The
coefficient banks of ptrig.fourier and `reconstruct_check` sample their
integrands on such a grid directly; `integrate_panels` serves one
integrand.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

_GRADING = 40  # dyadic levels into each breakpoint, down to 2^-40 of a panel
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


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
        xs.append((a + span * (_NODES + 1.0) / 2.0).ravel())
        ws.append((span / 2.0 * _WEIGHTS).ravel())
    return np.concatenate(xs), np.concatenate(ws), xs[0].size


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
