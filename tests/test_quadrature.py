"""The graded Gauss-Legendre grid and its error-checked integral."""

import numpy as np
import pytest

from ptrig import ConvergenceError
from ptrig.quadrature import integrate_panels


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
