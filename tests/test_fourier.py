"""Fourier coefficients, decay bounds, and the basis criterion."""

import math

import numpy as np
import pytest

from ptrig import (
    KIND_COSINE,
    KIND_SINE,
    ConvergenceError,
    DomainError,
    EvalConfig,
    PExponent,
    basis_criterion,
    bound_check_large_p,
    bound_check_small_p,
    build_truncated_operator,
    c_p,
    coeff_relation_check,
    coeff_table,
    compare_bounds,
    cosine_coeff,
    pi_p,
    sine_coeff,
    tail_remainder_bound,
)
from ptrig import fourier
from ptrig._fast_eval import _quarter_table, fast_trig
from ptrig.fourier import (
    _coeff_quadrature,
    _odd_coeffs,
    cosine_bound_large_p,
    cosine_bound_small_p,
)
from ptrig.quadrature import graded_grid

from conftest import cosine_coeffs_fft, odd_sum_oracle

PI = math.pi


class TestClassicalCase:
    def test_shortcut_table(self):
        assert cosine_coeff(2.0, 1) == (1.0, 0.0)
        assert cosine_coeff(2.0, 3) == (0.0, 0.0)
        assert sine_coeff(2.0, 1) == (1.0, 0.0)

    def test_quadrature_path_matches(self):
        # bypass the shortcut: the oscillatory quadrature must agree
        v1, e1 = _coeff_quadrature(2.0, 1)
        assert abs(v1 - 1.0) < 1e-12
        v3, _ = _coeff_quadrature(2.0, 3)
        assert abs(v3) < 1e-10


class TestParity:
    def test_even_indices_structurally_zero(self):
        for j in (0, 2, 4, 10):
            assert cosine_coeff(1.5, j) == (0.0, 0.0)
        for j in (2, 6):
            assert sine_coeff(2.7, j) == (0.0, 0.0)

    def test_even_indices_by_quadrature_spot_check(self):
        # full-interval quadrature confirms the vanishing (the halved
        # formula used for odd indices does not apply to even ones)
        from ptrig._fast_eval import fast_trig
        from ptrig.quadrature import integrate_panels

        for p in (1.5, 2.7):
            trig = fast_trig(p)
            for j, kind in ((2, KIND_COSINE), (4, KIND_COSINE), (4, KIND_SINE)):
                if kind == KIND_COSINE:
                    f = lambda x: trig.cos_scaled(x) * np.cos(j * PI * x)
                else:
                    f = lambda x: trig.sin_scaled(x) * np.sin(j * PI * x)
                edges = np.arange(2 * j + 1) / (2.0 * j)
                value, _ = integrate_panels(f, edges, abs_tol=1e-12)
                assert abs(2.0 * value) < 1e-10

    def test_index_validation(self):
        with pytest.raises(DomainError):
            cosine_coeff(1.5, -1)
        with pytest.raises(DomainError):
            sine_coeff(1.5, 0)


# A float or bool index is refused by name, as the operator's N is.  (A
# bool where the lowest index is 3 or more was already out of range.)
@pytest.mark.parametrize(
    "call,args",
    [
        (basis_criterion, (1.5, 999.0)),
        (coeff_table, (1.5, 10.5)),
        (coeff_table, (1.5, True)),
        (bound_check_small_p, (1.5, 99.5)),
        (bound_check_small_p, (1.5, True)),
        (bound_check_large_p, (3.0, 99.0)),
        (tail_remainder_bound, (1.5, 99.0)),
        (compare_bounds, (1.5, 199.0)),
        (coeff_relation_check, (1.5, 3.0)),
        (coeff_relation_check, (1.5, True)),
        (cosine_coeff, (1.5, True)),
        (sine_coeff, (1.5, True)),
        (cosine_bound_small_p, (1.5, True)),
    ],
    ids=lambda v: repr(v) if not callable(v) else v.__name__,
)
def test_float_and_bool_indices_refused(call, args):
    with pytest.raises(DomainError, match=rf"^{call.__name__} requires an (odd )?integer"):
        call(*args)


class TestDecayBoundExamples:
    def test_small_p_third_coefficient(self):
        value, _ = cosine_coeff(1.5, 3)
        assert abs(value) < 8.0 * pi_p(1.5) * c_p(1.5) / (9.0 * PI**2)

    def test_large_p_fifth_coefficient(self):
        value, _ = cosine_coeff(3.0, 5)
        conj = 1.5
        bound = (
            2.0 * pi_p(conj) / (PI**2 * 2.0) * (2.0 + 0.5 * PI**2) * 5.0 ** (-conj)
        )
        assert abs(value) < bound
        assert cosine_bound_large_p(3.0, 5) == pytest.approx(bound, rel=1e-14)

    def test_first_sine_coefficient_small_p(self):
        # a_1 >= 1 for 1 < p < 2, equivalently b_1 >= pi/pi_p
        for p in (1.2, 1.5, 1.9):
            a1, _ = sine_coeff(p, 1)
            assert a1 >= 1.0
            b1, _ = cosine_coeff(p, 1)
            assert b1 >= PI / pi_p(p) - 1e-12

    def test_first_sine_coefficient_p_three(self):
        a1, _ = sine_coeff(3.0, 1)
        assert a1 > 8.0 / PI**2


class TestCoefficientRelation:
    def test_classical(self):
        assert coeff_relation_check(2.0, 1) < 1e-12

    @pytest.mark.parametrize("p,j", [(1.4, 3), (2.8, 7)])
    def test_two_quadratures(self, p, j):
        assert coeff_relation_check(p, j) < 1e-9

    def test_requires_odd(self):
        with pytest.raises(DomainError):
            coeff_relation_check(1.5, 4)

    def test_sine_side_is_an_independent_route(self, monkeypatch):
        # a_j derived from b_j would satisfy the relation whatever sin_p
        # is; a shift of the sampled sin_p must show in the residual as
        # (pi/pi_p) 4 * 1e-9 int_0^(1/2) sin(pi x) dx = 4e-9/pi_p
        p = 1.5
        assert coeff_relation_check(p, 1) < 1e-11
        trig = fast_trig(p)
        sin_scaled = trig.sin_scaled
        monkeypatch.setattr(trig, "sin_scaled", lambda t: sin_scaled(t) + 1e-9)
        assert coeff_relation_check(p, 1) == pytest.approx(4e-9 / pi_p(p), rel=1e-3)


class TestCoeffTable:
    def test_structure(self):
        table = coeff_table(1.5, 9, KIND_COSINE)
        assert sorted(table.entries) == list(range(10))
        assert table.j_max == 9
        for j, (value, err) in table.entries.items():
            if j % 2 == 0:
                assert value == 0.0
            assert err < 1e-10

    def test_sine_starts_at_one(self):
        table = coeff_table(2.5, 5, KIND_SINE)
        assert sorted(table.entries) == [1, 2, 3, 4, 5]

    def test_validation(self):
        with pytest.raises(DomainError):
            coeff_table(1.5, 0, KIND_COSINE)
        with pytest.raises(DomainError):
            coeff_table(1.5, 5, "bogus")


class TestTailRemainderBound:
    def test_classical_is_zero(self):
        assert tail_remainder_bound(2.0, 99) == 0.0

    def test_small_p_dominates_integral_comparison(self):
        # bound uses 1/(2(J-1)) which dominates the true odd tail sum
        p, J = 1.5, 99
        direct = odd_sum_oracle(2.0) - sum(j ** -2.0 for j in range(1, J + 1, 2))
        coeff = 8.0 * pi_p(p) * c_p(p) / PI**2
        assert tail_remainder_bound(p, J) >= coeff * direct

    def test_large_p_matches_direct_summation(self):
        p, J = 2.43, 99
        q = p / (p - 1.0)
        direct = odd_sum_oracle(q) - sum(j ** -q for j in range(1, J + 1, 2))
        pref = 2.0 * pi_p(q) / (PI**2 * (p - 1.0)) * (2.0 + 0.5 * PI**2 * (p - 2.0))
        assert tail_remainder_bound(p, J) == pytest.approx(pref * direct, abs=1e-10)

    @pytest.mark.parametrize("p", (1.5, 2.43))
    def test_decreasing_in_J(self, p):
        vals = [tail_remainder_bound(p, J) for J in (9, 49, 99, 499, 999)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", (1.5, 2.43))
    def test_dominates_brute_force_tail(self, p):
        # FFT oracle for every coefficient with odd index in (99, 9999]
        coeffs = cosine_coeffs_fft(p)
        js = np.arange(101, 10_000, 2)
        brute = float(np.abs(coeffs[js]).sum())
        assert tail_remainder_bound(p, 99) > brute

    def test_validation(self):
        with pytest.raises(DomainError):
            tail_remainder_bound(0.9, 99)
        with pytest.raises(DomainError):
            tail_remainder_bound(1.5, 98)


class TestQuadratureAgainstFFT:
    @pytest.mark.parametrize("p", (1.46, 2.43))
    def test_spot_agreement(self, p):
        coeffs = cosine_coeffs_fft(p)
        for j in (1, 3, 99, 501):
            assert cosine_coeff(p, j)[0] == pytest.approx(coeffs[j], abs=1e-11)

    # at p = 5 the oracle's own error at 2^20 samples reaches 3e-11 (j = 1023;
    # it falls about 4.7x per doubling), so that exponent takes 2^21
    @pytest.mark.parametrize("p,samples", [(1.1, 2**20), (1.46, 2**20), (2.41, 2**20), (5.0, 2**21)])
    def test_every_odd_index_through_1023(self, p, samples):
        coeffs = cosine_coeffs_fft(p, samples)
        table = coeff_table(p, 1023, KIND_COSINE)
        worst = max(abs(table.entries[j][0] - coeffs[j]) for j in range(1, 1024, 2))
        assert worst < 1e-11


def _exact_phase(j, x):
    """j pi x, with j x reduced mod 2 exactly for |j| < 2^23."""
    xh = np.floor(x * 2.0**30) / 2.0**30  # j * xh is exact
    return PI * (np.fmod(j * xh, 2.0) + j * (x - xh))


class TestBankAgainstDirectSum:
    """The bank's FFT and moment sums against the plain sum on the same grid.

    Same samples, same nodes, same halving rule: only the summation
    differs, so the two agree to rounding.  A panel-offset or twiddle
    error of order 1e-13 would pass the FFT-oracle test above but not
    this one.  The sine coefficients a_j = pi_p b_j/(j pi) are derived
    from the cosine bank, values and estimates alike, and must agree
    with the plain sine sums to the same bound.  The bank's estimates
    also carry its rounding term (at most 4.5e-16), which the plain
    halving gaps do not.
    """

    @staticmethod
    def _direct(p, kind, last):
        trig = fast_trig(p)
        scaled, classical = (
            (trig.cos_scaled, np.cos) if kind == KIND_COSINE else (trig.sin_scaled, np.sin)
        )
        x, w, nc = graded_grid((0.0, 0.5), 0.5 / (last + 1))
        f = w * scaled(x)
        js = np.arange(1 if last == 127 else last // 2 + 2, last + 1, 2)
        values, errs = np.empty(js.size), np.empty(js.size)
        for i, j in enumerate(js):
            weighted = f * classical(_exact_phase(j, x))
            values[i] = 4.0 * weighted[nc:].sum()
            errs[i] = abs(values[i] - 4.0 * weighted[:nc].sum())
        return js, values, errs

    # at p = 20 the plain sine sum's own halving gap reaches 1.1e-14, so a
    # sine comparison there would measure that quadrature, not the bank's sums
    @pytest.mark.parametrize(
        "p,kind",
        [(p, KIND_COSINE) for p in (1.1, 1.46, 2.41, 3.0, 20.0)]
        + [(p, KIND_SINE) for p in (1.1, 1.46, 2.41, 3.0)],
    )
    @pytest.mark.parametrize("last", (127, 1023))
    def test_every_odd_index_of_tier(self, p, kind, last):
        js, values, errs = self._direct(p, kind, last)
        if kind == KIND_COSINE:
            bank_values, bank_errs = _coeff_quadrature(p, js)
        else:
            bank_values, bank_errs = _odd_coeffs(PExponent.of(p), kind, js[0], js[-1], None)
        assert np.max(np.abs(bank_values - values)) < 4e-16
        assert np.max(np.abs(bank_errs - errs)) < 2e-15


class TestBankEstimatesAreHonest:
    """Each b_j within its error estimate of the correctly rounded sum.

    The reference is math.fsum of the same weighted samples on the same
    halved grid, each cos(j pi x) from an exactly reduced phase, so it
    differs from the bank's value only by the bank's summation: the FFT
    rounding, the moment sums and their truncated Taylor series.
    """

    def test_taylor_terms_leave_out_nothing_visible(self):
        k = fourier._MOMENTS
        assert (PI / 2.0) ** (2 * k) / math.factorial(2 * k) <= 2.0**-70

    @pytest.mark.parametrize("p", (1.1, 1.5, 2.41, 20.0))
    def test_every_odd_index_through_1023(self, p):
        values, errs, refs = [], [], []
        for last in (127, 255, 511, 1023):
            x, w, nc = graded_grid((0.0, 0.5), 0.5 / (last + 1))
            f = (w * fast_trig(p).cos_scaled(x))[nc:]
            js = np.arange(1 if last == 127 else last // 2 + 2, last + 1, 2)
            for block in np.array_split(js, max(1, js.size // 32)):
                weighted = f * np.cos(_exact_phase(block[:, None], x[nc:]))
                refs += [4.0 * math.fsum(row) for row in weighted.tolist()]
            value, err = _coeff_quadrature(p, js)
            values.append(value)
            errs.append(err)
        deviation = np.abs(np.concatenate(values) - refs)
        assert np.all(deviation <= np.concatenate(errs))
        assert deviation[:500].sum() <= basis_criterion(p, 999).quadrature_err


def _clear_coefficient_caches():
    fourier._coeff_cached.cache_clear()
    fast_trig.cache_clear()
    _quarter_table.cache_clear()


class TestCoefficientBank:
    JS = (1, 3, 127, 129, 255, 257, 511, 513, 999, 1023)

    @pytest.mark.parametrize("p", (1.46, 2.41))
    def test_values_independent_of_route(self, p):
        cold = []
        for j in self.JS:
            _clear_coefficient_caches()
            cold.append(cosine_coeff(p, j))
        for warm in (
            lambda: basis_criterion(p, 999),
            lambda: build_truncated_operator(p, 256),
        ):
            _clear_coefficient_caches()
            warm()
            assert [cosine_coeff(p, j) for j in self.JS] == cold
        _clear_coefficient_caches()
        assert [cosine_coeff(p, j, config=EvalConfig()) for j in self.JS] == cold

    def test_estimate_above_tolerance_raises(self):
        strict = EvalConfig(rel_tol=1e-18)
        for name, coeff in (("b", cosine_coeff), ("a", sine_coeff)):
            j = next(j for j in range(1, 100, 2) if coeff(1.5, j)[1] > 1e-18)
            with pytest.raises(ConvergenceError, match=rf"{name}_{j} at p=1\.5"):
                coeff(1.5, j, config=strict)
        with pytest.raises(ConvergenceError):
            basis_criterion(1.5, 99, config=strict)


class TestBasisCriterion:
    def test_classical(self):
        report = basis_criterion(2.0)
        assert report.holds
        assert report.margin == pytest.approx(1.0, abs=1e-12)
        assert report.tail_computed == 0.0
        assert report.tail_remainder_bound == 0.0

    @pytest.mark.parametrize("p", (1.46, 2.42))
    def test_inside_basis_range(self, p):
        report = basis_criterion(p, J=499)
        assert report.holds
        assert report.margin > 0.0

    def test_consistency_of_report(self):
        report = basis_criterion(1.7, J=199)
        assert report.holds == (report.margin > 0.0)
        expected = (
            abs(report.b1)
            - report.tail_computed
            - report.tail_remainder_bound
            - report.quadrature_err
        )
        assert report.margin == pytest.approx(expected, abs=1e-15)

    def test_deterministic(self):
        a = basis_criterion(1.7, J=99)
        b = basis_criterion(1.7, J=99)
        assert a == b

    def test_validation(self):
        with pytest.raises(DomainError):
            basis_criterion(1.7, J=100)


class TestBoundChecks:
    def test_small_p_quick(self):
        assert bound_check_small_p(1.2, 49) > 0.0
        assert bound_check_small_p(1.95, 49) > 0.0

    def test_large_p_quick(self):
        assert bound_check_large_p(2.5, 49) > 0.0

    def test_collapse_toward_two(self):
        assert bound_check_small_p(1.99, 49) > 0.0

    def test_bound_values(self):
        assert cosine_bound_small_p(1.5, 3) == pytest.approx(
            8.0 * pi_p(1.5) * c_p(1.5) / (9.0 * PI**2), rel=1e-14
        )
        with pytest.raises(DomainError):
            cosine_bound_small_p(2.5, 3)
        with pytest.raises(DomainError):
            cosine_bound_small_p(1.5, 0)
        with pytest.raises(DomainError):
            cosine_bound_large_p(3.0, 1)


class TestCompareBounds:
    def test_small_p_sharper_since_cp_below_one(self):
        rows = dict(compare_bounds(1.5, J=99))
        assert rows["tail_bound_this_work"] < rows["tail_bound_prior"]
        assert rows["tail_bound_this_work"] == pytest.approx(
            pi_p(1.5) * c_p(1.5) * (PI**2 - 8.0) / PI**2, rel=1e-13
        )
        assert rows["tail_computed"] <= rows["tail_bound_this_work"]

    def test_large_p_bracket_comparison(self):
        rows = dict(compare_bounds(2.5, J=99))
        assert rows["bracket_this_work"] == pytest.approx(2.0 + 0.5 * PI**2 * 0.5)
        assert rows["bracket_prior"] == pytest.approx(4.0 + PI * 1.5)
        assert rows["bracket_this_work"] <= rows["bracket_prior"]

    def test_first_coefficient_bound_supersedes(self):
        rows = dict(compare_bounds(3.0, J=99))
        prior = PI * 2.0 / 5.0 - PI**3 * 2.0 / (24.0 * 9.0)
        assert rows["b1_lower_prior"] == pytest.approx(prior, rel=1e-13)
        assert rows["b1_lower_this_work"] > rows["b1_lower_prior"]

    def test_requires_branch(self):
        with pytest.raises(DomainError):
            compare_bounds(2.0)
