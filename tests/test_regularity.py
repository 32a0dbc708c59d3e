"""Weighted coefficient sums, decay bounds, and slope diagnostics."""

import math

import numpy as np
import pytest

import ptrig
from ptrig import (
    ConvergenceError,
    DomainError,
    InsufficientCoefficients,
    decay_slope,
    regularity_report,
    sine_bound_check_large_p,
    sine_bound_check_small_p,
    sine_coeff,
    sobolev_partial,
)
from ptrig.regularity import sine_bound_large_p, sine_bound_small_p

PI = math.pi


# A float or bool truncation index is refused by name.  (A bool below
# decay_slope's lowest Jmax of 51 was already out of range.)
@pytest.mark.parametrize(
    "call,args",
    [
        (sobolev_partial, (1.5, 1.0, 10.5)),
        (sobolev_partial, (1.5, 1.0, True)),
        (regularity_report, (1.5, 1.0, 199.0)),
        (regularity_report, (1.5, 1.0, True)),
        (decay_slope, (1.5, 51.0)),
        (sine_bound_check_small_p, (1.5, 99.5)),
        (sine_bound_check_small_p, (1.5, True)),
        (sine_bound_check_large_p, (3.0, 99.0)),
    ],
    ids=lambda v: repr(v) if not callable(v) else v.__name__,
)
def test_float_and_bool_indices_refused(call, args):
    with pytest.raises(DomainError, match=rf"^{call.__name__} requires an integer"):
        call(*args)


class TestSobolevPartial:
    def test_classical_single_mode(self):
        # only a_1 = 1 survives and carries weight (1 + 1)^rho
        assert sobolev_partial(2.0, 5.0, 99) == pytest.approx(32.0, rel=1e-14)

    def test_bounded_below_threshold(self):
        # p = 3 has threshold 2: at rho = 1.9 the increments become Cauchy
        s99 = sobolev_partial(3.0, 1.9, 99)
        s199 = sobolev_partial(3.0, 1.9, 199)
        s399 = sobolev_partial(3.0, 1.9, 399)
        assert s199 - s99 > s399 - s199 > 0.0
        assert s399 < s99 + 1.0

    def test_small_p_high_order_finite(self):
        total = sobolev_partial(1.5, 2.4, 999)
        assert np.isfinite(total)
        # increments dominated by the cubic-decay bound termwise
        for j in (101, 301, 501):
            a, _ = sine_coeff(1.5, j)
            term = (1.0 + j * j) ** 2.4 * a * a
            cap = (1.0 + j * j) ** 2.4 * sine_bound_small_p(1.5, j) ** 2
            assert term <= cap

    def test_monotone_in_J_and_rho(self):
        assert sobolev_partial(2.5, 1.0, 199) >= sobolev_partial(2.5, 1.0, 99)
        assert sobolev_partial(2.5, 2.0, 99) >= sobolev_partial(2.5, 1.0, 99)

    def test_validation(self):
        with pytest.raises(DomainError):
            sobolev_partial(2.0, -1.0, 99)
        with pytest.raises(DomainError):
            sobolev_partial(2.0, 1.0, 0)
        for rho in (math.inf, math.nan):
            with pytest.raises(DomainError, match="requires a finite rho >= 0"):
                sobolev_partial(3.0, rho, 11)

    def test_overflow_raises(self):
        # (1 + 199^2)^200 is far beyond the largest double
        with pytest.raises(ConvergenceError, match="sobolev_partial overflows"):
            sobolev_partial(3.0, 200.0, 199)


class TestSineBounds:
    def test_small_p_quick(self):
        assert sine_bound_check_small_p(1.5, 49) >= 0.0
        assert sine_bound_check_small_p(1.9, 49) >= 0.0

    def test_large_p_quick(self):
        assert sine_bound_check_large_p(2.5, 49) >= 0.0

    def test_classical_limit_sanity(self):
        # at p = 2 the only nonzero coefficient trivially obeys a cubic decay cap
        a1, _ = sine_coeff(2.0, 1)
        assert a1 <= 16.0 * PI**2 * 1.0 / PI**3  # c_p -> 1 as p -> 2
        for j in (3, 5):
            assert abs(sine_coeff(2.0, j)[0]) == 0.0

    def test_bound_formulas(self):
        assert sine_bound_small_p(1.5, 3) == pytest.approx(
            16.0 * ptrig.pi_p(1.5) ** 2 * ptrig.c_p(1.5) / PI**3 / 27.0, rel=1e-14
        )
        expected = (
            2.0
            * ptrig.pi_p(3.0)
            * ptrig.pi_p(1.5)
            / (PI**3 * 2.0)
            * (2.0 + 0.5 * PI**2)
            * 5.0 ** (-2.5)
        )
        assert sine_bound_large_p(3.0, 5) == pytest.approx(expected, rel=1e-14)
        with pytest.raises(DomainError):
            sine_bound_large_p(1.5, 5)
        with pytest.raises(DomainError):
            sine_bound_small_p(1.5, 0)
        with pytest.raises(DomainError):
            sine_bound_large_p(3.0, 1)

    def test_termwise_domination_below_threshold(self):
        # for p > 2, rho < p' + 1/2: weighted terms are dominated by the
        # square of the decay bound, a convergent series
        p, rho = 3.0, 1.9
        conj = p / (p - 1.0)
        assert 2.0 * rho - 2.0 * conj - 2.0 < -1.0
        for j in range(3, 500, 2):
            a, _ = sine_coeff(p, j)
            weight = (1.0 + j * j) ** rho
            assert weight * a * a <= weight * sine_bound_large_p(p, j) ** 2


class TestDecaySlope:
    def test_large_p_consistent_with_bound(self):
        slope = decay_slope(3.0, 499)
        assert slope <= -(3.0 / 2.0 + 1.0) + 0.15

    def test_small_p_consistent_with_bound(self):
        slope = decay_slope(1.5, 499)
        assert slope <= -3.0 + 0.15

    def test_classical_raises(self):
        with pytest.raises(InsufficientCoefficients):
            decay_slope(2.0, 199)

    def test_validation(self):
        with pytest.raises(DomainError):
            decay_slope(1.5, 49)


class TestRegularityReport:
    def test_large_p_has_threshold(self):
        report = regularity_report(3.0, 1.9, 99)
        assert report.r_threshold == pytest.approx(2.0, rel=1e-14)
        assert report.partial_sum > 0.0
        assert np.isfinite(report.slope_estimate)

    def test_small_p_has_no_threshold(self):
        report = regularity_report(1.5, 2.0, 99)
        assert report.r_threshold is None

    def test_classical_slope_is_nan(self):
        report = regularity_report(2.0, 1.0, 99)
        assert math.isnan(report.slope_estimate)
