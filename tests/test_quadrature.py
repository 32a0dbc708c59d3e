"""The graded Gauss-Legendre grid and its error-checked integral."""

import numpy as np
import pytest

from ptrig import ConvergenceError
from ptrig.quadrature import GAUSS_OFFSETS, graded_grid, integrate_panels, uniform_runs


def test_smooth_integral_certified():
    value, err = integrate_panels(np.sin, [0.0, 1.0, np.pi], abs_tol=1e-14)
    assert value == pytest.approx(2.0, abs=1e-15)
    assert err <= 1e-14


@pytest.mark.parametrize(
    "f",
    [
        lambda t: t**-0.5,  # the grid certifies this endpoint only to ~1e-8
        lambda t: np.where(t > 0.5, np.nan, t),
    ],
)
def test_estimate_above_tolerance_raises(f):
    with pytest.raises(ConvergenceError):
        integrate_panels(f, [0.0, 1.0], abs_tol=1e-12)


@pytest.mark.parametrize("a,c,n", [(0.0, 0.5, 128), (0.25, 1.0, 12), (-1.0, 2.0, 2)])
def test_uniform_runs_locate_the_uniform_panels(a, c, n):
    # the layout the coefficient banks rely on: on each grid, panel r of the
    # run spans a + (k + r + [0, 1]) h/k, and every other node lies in the
    # first or last uniform panel h of the gap, where the grading sits
    h = (c - a) / n
    x, _, nc = graded_grid((a, c), h)
    for (k, run), grid in zip(uniform_runs(nc), (slice(0, nc), slice(nc, None))):
        panels = x[run].reshape(-1, GAUSS_OFFSETS.size)
        assert panels.shape[0] == k * (n - 2)
        r = np.arange(panels.shape[0])[:, None]
        assert np.allclose(panels, a + (k + r + GAUSS_OFFSETS) * h / k, rtol=0, atol=1e-15)
        on_run = np.zeros(x.size, dtype=bool)
        on_run[run] = True
        rest = x[grid][~on_run[grid]]
        assert np.all((rest < a + h) | (rest > c - h))
