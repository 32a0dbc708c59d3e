"""Zeta evaluation, the threshold equations, and their root solvers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptrig import (
    LOWER_THRESHOLD_RHS,
    DomainError,
    convexity_scan,
    lower_threshold_lhs,
    odd_reciprocal_sum,
    pi_p,
    solve_lower_threshold,
    solve_upper_threshold,
    upper_threshold_lhs,
    zeta,
    zeta_three_halves_sandwich,
)
from ptrig.core import decay_bound
from ptrig.quadrature import integrate_panels

from conftest import odd_sum_oracle, zeta_oracle

PI = math.pi


class TestZeta:
    def test_two(self):
        assert abs(zeta(2.0) - PI**2 / 6.0) < 1e-13

    def test_three_halves_against_oracle(self):
        assert zeta(1.5) == pytest.approx(zeta_oracle(1.5), abs=1e-12)
        assert zeta(1.5) == pytest.approx(2.612375348685488, abs=1e-12)

    def test_eleven_sixths_below_secant_bound(self):
        _, _, c1 = zeta_three_halves_sandwich()
        bound = PI**2 / 9.0 + c1 / 3.0
        value = zeta(11.0 / 6.0)
        assert bound - 0.3 < value < bound

    def test_integral_representation_oracle(self):
        # (2/sqrt(pi)) int_0^40 t^(1/2)/(e^t - 1) dt, Gamma(3/2) = sqrt(pi)/2;
        # t = u^2 gives int_0^sqrt(40) 2 u^2/(e^(u^2) - 1) du, free of the
        # t^(-1/2) endpoint that the graded grid certifies only to ~7e-9
        def integrand(u):
            u = np.asarray(u)
            out = np.zeros_like(u)
            pos = u > 0
            out[pos] = 2.0 * u[pos] ** 2 / np.expm1(u[pos] ** 2)
            return out

        edges = np.linspace(0.0, math.sqrt(40.0), 81)
        val, _ = integrate_panels(integrand, edges, abs_tol=1e-10)
        assert zeta(1.5) == pytest.approx(2.0 / math.sqrt(PI) * val, rel=1e-8)

    def test_monotone_decreasing(self):
        qs = np.linspace(1.05, 3.0, 80)
        vals = [zeta(float(q)) for q in qs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        for bad in (1.0, 0.2, -1.0):
            with pytest.raises(DomainError):
                zeta(bad)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1.05, max_value=8.0))
    def test_against_summation_oracle(self, q):
        assert zeta(q) == pytest.approx(zeta_oracle(q, terms=200_000), rel=1e-12)


class TestOddReciprocalSum:
    def test_two(self):
        assert odd_reciprocal_sum(2.0) == pytest.approx(PI**2 / 8.0, rel=1e-14)

    @pytest.mark.parametrize("q", (1.5, 11.0 / 6.0, 1.7))
    def test_against_direct_summation(self, q):
        assert odd_reciprocal_sum(q) == pytest.approx(odd_sum_oracle(q), abs=1e-10)

    def test_decreasing_on_unit_interval(self):
        qs = np.linspace(1.01, 1.99, 99)
        vals = [odd_reciprocal_sum(float(q)) for q in qs]
        assert all(b - a <= 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            odd_reciprocal_sum(0.99)


class TestLowerThresholdLhs:
    def test_closed_form_four_thirds(self):
        expected = PI**2 * 3.0**1.25 * math.sqrt(2.0) / 2.0
        assert lower_threshold_lhs(4.0 / 3.0) == pytest.approx(expected, rel=1e-12)
        assert lower_threshold_lhs(4.0 / 3.0) > LOWER_THRESHOLD_RHS

    def test_closed_form_three_halves(self):
        expected = 64.0 * PI**2 / (27.0 * 4.0 ** (1.0 / 3.0))
        assert lower_threshold_lhs(1.5) == pytest.approx(expected, rel=1e-12)
        assert lower_threshold_lhs(1.5) < LOWER_THRESHOLD_RHS

    def test_limit_at_two(self):
        assert lower_threshold_lhs(1.9999999) == pytest.approx(PI**2, abs=1e-4)

    def test_blowup_at_one(self):
        assert lower_threshold_lhs(1.01) > 100.0

    def test_domain(self):
        with pytest.raises(DomainError):
            lower_threshold_lhs(2.0)


class TestSolveLowerThreshold:
    def test_reference_window(self):
        result = solve_lower_threshold()
        assert abs(result.root - 1.458801) < 5e-6

    def test_certificate(self):
        result = solve_lower_threshold()
        lo, hi = result.bracket
        assert lo <= result.root <= hi
        assert hi - lo <= 1e-12
        assert abs(result.residual) <= 1e-12
        assert result.iterations >= 1
        assert len(result.trace) >= 1

    def test_sign_change_across_bracket(self):
        f = lambda p: lower_threshold_lhs(p) - LOWER_THRESHOLD_RHS
        assert f(4.0 / 3.0) > 0.0 > f(1.5)

    def test_deterministic(self):
        a = solve_lower_threshold()
        b = solve_lower_threshold()
        assert a.root == b.root
        assert a.trace == b.trace
        assert a.bracket == b.bracket


class TestUpperThresholdLhs:
    def test_value_at_two(self):
        expected = (PI / 2.0) * (PI**2 / 8.0 - 1.0)
        assert upper_threshold_lhs(2.0) == pytest.approx(expected, abs=1e-12)
        assert upper_threshold_lhs(2.0) < 1.0

    def test_bracket_endpoints(self):
        assert upper_threshold_lhs(11.0 / 5.0) < 1.0
        assert upper_threshold_lhs(3.0) > 1.0

    def test_increasing_on_two_three(self):
        ps = np.linspace(2.0, 3.0, 101)
        vals = [upper_threshold_lhs(float(p)) for p in ps]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSolveUpperThreshold:
    def test_reference_window(self):
        result = solve_upper_threshold()
        assert abs(result.root - 2.42865) < 5e-5

    def test_certificate(self):
        result = solve_upper_threshold()
        lo, hi = result.bracket
        assert lo <= result.root <= hi
        assert hi - lo <= 1e-12
        assert abs(result.residual) <= 1e-12

    def test_unreduced_equation_at_root(self):
        # the solver itself re-verifies the unreduced form to 1e-10; check tighter here
        result = solve_upper_threshold()
        p = result.root
        conj = p / (p - 1.0)
        lhs = (
            2.0
            * pi_p(conj)
            / (PI**2 * (p - 1.0))
            * (2.0 + 0.5 * PI**2 * (p - 2.0))
            * (odd_reciprocal_sum(conj) - 1.0)
        )
        assert lhs == pytest.approx(8.0 / (PI * pi_p(p)), abs=1e-12)

    def test_deterministic(self):
        a = solve_upper_threshold()
        b = solve_upper_threshold()
        assert a.root == b.root
        assert a.trace == b.trace


@pytest.mark.parametrize(
    "solve,f",
    [
        (solve_lower_threshold, lambda p: lower_threshold_lhs(p) - LOWER_THRESHOLD_RHS),
        (solve_upper_threshold, lambda p: upper_threshold_lhs(p) - 1.0),
    ],
)
def test_bracket_is_adjacent_doubles(solve, f):
    # the root is the end with the smaller |f|; iterations counts the
    # halvings, one f evaluation each
    result = solve()
    lo, hi = result.bracket
    assert np.nextafter(lo, np.inf) == hi
    assert f(lo) * f(hi) <= 0.0
    assert result.root == (lo if abs(f(lo)) <= abs(f(hi)) else hi)
    assert result.residual == f(result.root)
    assert abs(result.residual) <= 1e-14
    assert result.iterations == len(result.trace)


@pytest.mark.parametrize("solve", (solve_lower_threshold, solve_upper_threshold))
def test_roots_satisfy_the_unreduced_criterion_equation(solve):
    # each threshold is where the decay bound's tail C sum_{odd j >= 3} j^-q
    # meets the lower bound on b_1: pi/pi_p below 2, 8/(pi pi_p) above
    p = solve().root
    C, q, _ = decay_bound(p)
    if p < 2.0:
        odd_tail, b1_lower = PI**2 / 8.0 - 1.0, PI / pi_p(p)
    else:
        odd_tail, b1_lower = odd_sum_oracle(q) - 1.0, 8.0 / (PI * pi_p(p))
    assert C * odd_tail == pytest.approx(b1_lower, rel=1e-12)


class TestZetaSandwich:
    def test_strict_enclosure(self):
        lower, value, upper = zeta_three_halves_sandwich()
        assert lower < value < upper

    def test_lower_closed_form(self):
        lower, _, _ = zeta_three_halves_sandwich()
        expected = (4.0 + math.sqrt(2.0)) / 4.0 + math.sqrt(3.0) * (PI**2 / 6.0 - 1.25)
        assert lower == pytest.approx(expected, rel=1e-14)

    def test_upper_closed_form(self):
        _, _, upper = zeta_three_halves_sandwich()
        e = math.e
        t0 = 2.0 * (e**2 - 3.0 * e + 1.0) / (e**2 - 2.0 * e - 1.0)
        expected = (2.0 / math.sqrt(PI)) * (
            2.0 * math.sqrt(2.0) * math.atan(1.0 / math.sqrt(2.0))
            + PI**2 / 6.0
            + t0**2 / 4.0
            - (t0 - 1.0) ** 2 / (2.0 * (e - 1.0) ** 2)
            - (t0 * (e - 2.0) + 1.0) / (e - 1.0)
        )
        assert upper == pytest.approx(expected, rel=1e-14)


def test_convexity_scan():
    assert convexity_scan() >= -1e-9


def test_sine_secant_inequality():
    # sin(5 pi/11) exceeds its secant approximation from the concavity argument
    rhs = math.sqrt(6.0) / 22.0 * (math.sqrt(3.0) + 3.0) + 5.0 / 11.0
    assert math.sin(5.0 * PI / 11.0) > rhs
