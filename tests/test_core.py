"""Core p-trigonometric evaluation: examples, identities, symmetries."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptrig.core as core
from ptrig import (
    ConvergenceError,
    DomainError,
    EvalConfig,
    PExponent,
    c_p,
    cos_p,
    d2cos_p,
    dcos_p,
    exp_p,
    incomplete_F,
    m_p,
    pi_p,
    sin_p,
    u_p,
    v_p,
)
from ptrig._fast_eval import FastPTrig, _quarter_table, fast_trig
from ptrig.core import _cos_from_y, invert_quarter, reduce_argument

from conftest import incomplete_F_oracle, sin_p_oracle

PI = math.pi

P_GRID = (1.1, 1.46, 2.0, 2.43, 3.0, 10.0)

exponents = st.floats(min_value=1.001, max_value=50.0)
arguments = st.floats(min_value=-40.0, max_value=40.0)


class TestPExponent:
    def test_rejects_bad_p(self):
        for bad in (1.0, 0.5, -3.0, math.nan, math.inf, 10**400, "1.5", True):
            with pytest.raises(DomainError):
                PExponent(bad)

    def test_classical_case(self):
        pe = PExponent(2.0)
        assert pe.p_conj == 2.0
        assert pe.pi_p == pytest.approx(PI, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(exponents)
    def test_invariants(self, p):
        pe = PExponent(p)
        assert abs(1.0 / pe.p + 1.0 / pe.p_conj - 1.0) < 1e-14
        assert abs(pe.pi_p - 2.0 * PI / (p * math.sin(PI / p))) <= 1e-14 * pe.pi_p
        # conjugate identity p' pi_p' = p pi_p
        lhs = pe.p_conj * pi_p(pe.p_conj)
        rhs = pe.p * pe.pi_p
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.rel_tol == 1e-12
        assert cfg.abs_tol == 1e-14
        assert cfg.max_newton_iters == 60
        assert cfg.quad_levels == 12

    def test_validation(self):
        with pytest.raises(DomainError):
            EvalConfig(rel_tol=0.0)
        with pytest.raises(DomainError):
            EvalConfig(abs_tol=-1.0)
        for name in ("rel_tol", "abs_tol"):
            with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
                EvalConfig(**{name: math.inf})
        with pytest.raises(DomainError):
            EvalConfig(max_newton_iters=0)


class TestPiP:
    def test_classical(self):
        assert pi_p(2.0) == pytest.approx(PI, rel=1e-15)

    def test_three_halves_closed_form(self):
        assert pi_p(1.5) == pytest.approx(8.0 * PI / (3.0 * math.sqrt(3.0)), rel=1e-14)

    def test_large_p_limit(self):
        assert 2.0 < pi_p(1000.0) < 2.01

    def test_decreasing(self):
        ps = np.linspace(1.05, 20.0, 60)
        vals = [pi_p(float(p)) for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_quadrature(self, p):
        assert pi_p(p) == pytest.approx(2.0 * incomplete_F(1.0, p), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            pi_p(1.0)
        with pytest.raises(DomainError):
            pi_p(0.3)
        assert pi_p(np.int64(3)) == pi_p(3.0)


class TestIncompleteF:
    def test_zero(self):
        for p in P_GRID:
            assert incomplete_F(0.0, p) == 0.0

    def test_classical_endpoint(self):
        assert incomplete_F(1.0, 2.0) == pytest.approx(PI / 2.0, rel=1e-13)

    def test_classical_half(self):
        assert incomplete_F(0.5, 2.0) == pytest.approx(math.asin(0.5), rel=1e-13)

    def test_monotone(self):
        ys = np.linspace(0.0, 1.0, 41)
        vals = incomplete_F(ys, 1.3)
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("p", P_GRID)
    def test_against_beta_oracle(self, p, rng):
        ys = rng.uniform(0.0, 1.0, 50)
        ours = incomplete_F(ys, p)
        ref = incomplete_F_oracle(ys, p)
        assert np.max(np.abs(ours - ref)) < 1e-12 * pi_p(p)

    def test_domain(self):
        with pytest.raises(DomainError):
            incomplete_F(-0.1, 2.0)
        with pytest.raises(DomainError):
            incomplete_F(1.1, 2.0)
        with pytest.raises(DomainError, match=r"got 1\.5$"):
            incomplete_F(np.array([0.5, 1.5, 2.0]), 2.0)
        with pytest.raises(DomainError):
            incomplete_F(math.nan, 2.0)

    @pytest.mark.parametrize("p", (1.1, 1.5, 2.0, 3.0, 10.0))
    def test_integrand_equals_masked_expression(self, p):
        # the in-place integrand, bit for bit, on the nodes F_p integrates over
        y = np.concatenate([[1e-300, 0.3, 0.5, 0.99, 1.0 - 1e-12],
                            np.random.default_rng(36).random(40)])
        half = y / 2.0
        for level in range(5):
            xi, one_minus_xi, _ = core._ts_level(level, core._ts_cutoff(p))
            x = half[:, None] * (1.0 + xi[None, :])
            d = (1.0 - y)[:, None] + half[:, None] * one_minus_xi[None, :]
            ref = np.empty_like(x)
            far = x <= 0.5
            ref[far] = np.exp(-np.log1p(-(x[far] ** p)) / p)
            ref[~far] = np.exp(-np.log(-np.expm1(p * np.log1p(-d[~far]))) / p)
            assert core._fp_integrand(x, d, p).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", (1.02, 1.1, 1.5, 2.0, 3.0, 10.0, 50.0))
    def test_shared_log_equals_separate_forms(self, p):
        # the integrand and the cosine share one log(1 - y^p); both equal,
        # bit for bit, the two separate forms they replaced
        def integrand_ref(x, one_minus_x, p):
            out = np.empty_like(x)
            near = x > 0.5
            far = ~near
            z = x[far]
            z **= p
            for f in (np.negative, np.log1p, np.negative):
                f(z, out=z)
            z /= p
            out[far] = np.exp(z, out=z)
            d = one_minus_x[near]
            np.negative(d, out=d)
            np.log1p(d, out=d)
            d *= p
            for f in (np.expm1, np.negative, np.log, np.negative):
                f(d, out=d)
            d /= p
            out[near] = np.exp(d, out=d)
            return out

        def cos_ref(y, p):
            out = np.empty_like(y)
            near = y > 0.5
            far = ~near
            out[far] = np.exp(np.log1p(-(y[far] ** p)) / p)
            d = 1.0 - y[near]
            at_one = d <= 0.0
            c = np.exp(np.log(-np.expm1(p * np.log1p(-np.where(at_one, 0.5, d)))) / p)
            out[near] = np.where(at_one, 0.0, c)
            return out

        rng = np.random.default_rng(14)
        y = np.concatenate([
            rng.random(200_000),
            1.0 - 1e-8 * rng.random(1000),
            [0.0, 0.5, np.nextafter(1.0, 0.0), 1.0],
        ])
        assert _cos_from_y(y, p).tobytes() == cos_ref(y, p).tobytes()
        with np.errstate(divide="ignore"):  # the reference integrand meets log(0) at y = 1
            ref = integrand_ref(y, 1.0 - y, p)
        assert core._fp_integrand(y, 1.0 - y, p).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", (1.46, 1.5, 1.8, 2.41, 2.5, 3.0, 5.0, 10.0))
    def test_one_minus_pow_from_shared_log(self, p):
        # d2cos_p takes 1 - y^p as exp(log(1 - y^p)); the form it replaced:
        def one_minus_y_pow_p(y, p):
            out = np.empty_like(y)
            near = y > 0.5
            far = ~near
            out[far] = -np.expm1(p * np.log(np.where(y[far] > 0.0, y[far], 0.5)))
            out[far] = np.where(y[far] > 0.0, out[far], 1.0)
            out[near] = -np.expm1(p * np.log1p(-(1.0 - y[near])))
            return out

        y = np.linspace(0.0, 1.0, 3001)[1:-1]
        ref = one_minus_y_pow_p(y, p)
        got = np.exp(core._log_one_minus_pow(y, 1.0 - y, p))
        assert np.max(np.abs(got - ref) / ref) <= 2e-15

    @pytest.mark.parametrize("p", (1.02, 1.05))
    def test_endpoint_at_small_p(self, p):
        # F_p(1) = pi_p/2 by definition; near it sin_p keeps the one-ulp bracket
        pe = PExponent(p)
        assert incomplete_F(1.0, pe) == pe.quarter
        x = pe.quarter * (1.0 - np.array([1e-6, 1e-9, 1e-12]))
        assert _one_ulp_miss(x, sin_p(x, pe), pe) <= 1e-11


class TestSinP:
    def test_zero_and_quarter(self):
        for p in P_GRID:
            assert sin_p(0.0, p) == 0.0
            assert sin_p(pi_p(p) / 2.0, p) == pytest.approx(1.0, abs=1e-14)

    def test_classical(self):
        assert sin_p(1.0, 2.0) == pytest.approx(math.sin(1.0), abs=1e-13)

    def test_roundtrip_interior(self):
        y = sin_p(0.7, 3.0)
        assert abs(incomplete_F(y, 3.0) - 0.7) < 1e-11

    @pytest.mark.parametrize("p", P_GRID)
    def test_against_beta_oracle(self, p, rng):
        x = rng.uniform(0.0, pi_p(p) / 2.0, 40)
        assert np.max(np.abs(sin_p(x, p) - sin_p_oracle(x, p))) < 5e-13

    def test_range(self, rng):
        x = rng.uniform(-50.0, 50.0, 200)
        for p in (1.3, 2.7):
            vals = sin_p(x, p)
            assert np.all(np.abs(vals) <= 1.0 + 1e-15)

    def test_non_finite_rejected(self):
        for fn in (sin_p, cos_p, exp_p):
            for bad in (math.inf, math.nan):
                with pytest.raises(DomainError):
                    fn(bad, 2.0)


class TestBeyondTwoToThe53:
    """p/(p-1) rounds to 1 above 2^53, so p has no conjugate table."""

    X = np.array([0.3, 0.9, 1.5, 3.0, -7.0])

    @pytest.mark.parametrize("p", (1e16, 1e300))
    def test_triangle_wave(self, p):
        # the classical start gives the p -> inf limit
        y = sin_p(self.X, p)
        assert np.max(np.abs(y - [0.3, 0.9, 0.5, -1.0, 1.0])) <= 2e-16
        assert np.array_equal(cos_p(self.X, p), [1.0, 1.0, -1.0, 0.0, 0.0])
        assert np.array_equal(exp_p(self.X, p).imag, y)

    def test_tables_refused_naming_p(self):
        with pytest.raises(ConvergenceError, match=r"p = 1e\+16 has no conjugate"):
            fast_trig(1e16)


extreme_exponents = st.one_of(
    st.floats(min_value=1.0, max_value=1.001, exclude_min=True),
    st.floats(min_value=50.0, max_value=1e300),
)


@settings(max_examples=10, deadline=None)
@given(extreme_exponents, st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
def test_extreme_exponents_stay_in_range(p, xs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (sin_p, cos_p):
            vals = fn(np.array(xs), p)
            assert np.all(np.abs(vals) <= 1.0)  # NaN fails too
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(DomainError):
                    fn(bad, p)


class TestCosP:
    def test_endpoints(self):
        for p in P_GRID:
            assert cos_p(0.0, p) == 1.0
            assert abs(cos_p(pi_p(p) / 2.0, p)) < 1e-14

    def test_classical(self):
        assert cos_p(1.0, 2.0) == pytest.approx(math.cos(1.0), abs=1e-13)

    def test_half_period_flip(self, rng):
        x = rng.uniform(-10.0, 10.0, 64)
        for p in (1.46, 2.43):
            lhs = cos_p(x + pi_p(p), p)
            assert np.max(np.abs(lhs + cos_p(x, p))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(exponents, arguments)
def test_pythagorean_identity(p, x):
    s = abs(sin_p(x, p))
    c = abs(cos_p(x, p))
    assert abs(s**p + c**p - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(exponents, arguments)
def test_symmetries(p, x):
    period = 2.0 * pi_p(p)
    assert abs(sin_p(-x, p) + sin_p(x, p)) < 1e-12
    assert abs(cos_p(-x, p) - cos_p(x, p)) < 1e-12
    assert abs(sin_p(x + period, p) - sin_p(x, p)) < 1e-12


def test_conjugate_cosine_identity():
    # cos_p(pi_p x) = sin_p'(pi_p' (1/2 - x))^(p'-1) on [0, 1/2)
    for p in (1.2, 1.46, 2.0, 2.8, 6.0):
        pe = PExponent(p)
        conj = pe.conjugate
        x = np.linspace(0.0, 0.499, 41)
        lhs = cos_p(pe.pi_p * x, pe)
        rhs = sin_p(conj.pi_p * (0.5 - x), conj) ** (conj.p - 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_ordering_in_p():
    # for p <= q: sin_p(pi_p x) >= sin_q(pi_q x), cos_p(pi_p x) <= cos_q(pi_q x)
    pairs = [(1.1, 1.46), (1.46, 2.0), (2.0, 2.43), (2.43, 10.0)]
    x = np.linspace(0.0, 0.5, 101)
    for p, q in pairs:
        sp = sin_p(pi_p(p) * x, p)
        sq = sin_p(pi_p(q) * x, q)
        assert np.min(sp - sq) > -1e-12
        cp_ = cos_p(pi_p(p) * x, p)
        cq = cos_p(pi_p(q) * x, q)
        assert np.max(cp_ - cq) < 1e-12


def _conditioning_radius(p: float) -> float:
    """Distance from pi_p/2 inside which one ulp of sin_p may span 1e-12 in x.

    Near the quarter period 1 - sin_p(x) ~ (c eps)^(p') with eps the
    distance to the endpoint, while the roundtrip residual is about
    F_p'(y) times one ulp of y.  Solving F_p'(y) * 2^-53 <= 1e-12 for the
    endpoint distance gives the radius below; outside it the 1e-11
    roundtrip is a solver property.  Inside it no double need meet the
    literal roundtrip, and the contract is that x lies between F_p at the
    neighbouring doubles of sin_p(x) (test_one_ulp_bracket_near_quarter
    and acceptance criterion 04 check it).
    """
    delta_min = (1.1e-4) ** p / p
    return p ** (-1.0 / p) * delta_min ** (1.0 - 1.0 / p) / (1.0 - 1.0 / p)


def test_roundtrip_on_representable_region(rng):
    for p in P_GRID:
        pe = PExponent(p)
        margin = min(2.0 * _conditioning_radius(p), 0.6 * pe.quarter)
        x = rng.uniform(0.0, pe.quarter - margin, 400)
        back = incomplete_F(sin_p(x, pe), pe)
        assert np.max(np.abs(back - x)) < 1e-11


def _one_ulp_miss(x, y, pe):
    """How far x lies outside [F_p(y-), F_p(y+)], y-/y+ the neighbours of y."""
    below = incomplete_F(np.nextafter(y, 0.0), pe)
    above = incomplete_F(np.minimum(np.nextafter(y, 2.0), 1.0), pe)
    return float(np.max(np.maximum(below - x, x - above)))


@pytest.mark.parametrize("p", (1.1, 1.46))
def test_one_ulp_bracket_near_quarter(p):
    # the band the roundtrip test above leaves out
    pe = PExponent(p)
    margin = min(2.0 * _conditioning_radius(p), 0.6 * pe.quarter)
    x = np.random.default_rng(29).uniform(pe.quarter - margin, pe.quarter, 400)
    assert _one_ulp_miss(x, sin_p(x, pe), pe) <= 1e-11


@pytest.mark.parametrize("p", (2.43, 3.0, 5.0))
def test_inversion_near_quarter_within_budget(p):
    # the steepest approach to pi_p/2 under the default max_newton_iters
    pe = PExponent(p)
    u = pe.quarter * (1.0 - 10.0 ** -np.linspace(0.0, 15.5, 156))
    y = invert_quarter(u, pe)
    assert _one_ulp_miss(u, y, pe) <= 1e-11


@pytest.mark.parametrize(
    "p,d", [(1.5, 1e-13), (1.5, 1e-10), (1.5, 1e-8), (1.5, 1e-6), (3.0, 1e-13)]
)
def test_inversion_ends_on_nearer_double(p, d):
    # 1 - y is far below half an ulp here, so of the two doubles around the
    # root 1 has the smaller F_p residual (pi_p/2 - x = d, exactly at y = 1)
    x = pi_p(p) / 2.0 - d
    assert sin_p(x, p) == 1.0
    assert cos_p(x, p) <= 1e-11


class TestDcosP:
    def test_zero_at_origin(self):
        assert dcos_p(0.0, 1.5) == 0.0

    def test_zero_at_quarter_small_p(self):
        assert dcos_p(pi_p(1.5) / 2.0, 1.5) == 0.0

    def test_divergence_marker_large_p(self):
        assert dcos_p(pi_p(3.0) / 2.0, 3.0) == -np.inf

    def test_classical_is_minus_sine(self):
        x = 0.9
        assert dcos_p(x, 2.0) == pytest.approx(-math.sin(x), abs=1e-13)

    def test_finite_difference(self):
        p = 1.3
        x = 0.3 * pi_p(p)
        h = 1e-5
        fd = (cos_p(x + h, p) - cos_p(x - h, p)) / (2.0 * h)
        assert abs(dcos_p(x, p) - fd) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            dcos_p(-0.1, 1.5)
        with pytest.raises(DomainError):
            dcos_p(pi_p(1.5), 1.5)
        with pytest.raises(DomainError):
            dcos_p(math.nan, 1.5)


class TestD2cosP:
    def test_classical_reduces_to_minus_cos(self):
        x = 0.7
        assert d2cos_p(x, 2.0) == pytest.approx(-math.cos(x), abs=1e-13)

    def test_zero_at_extremum_location(self):
        for p in (1.3, 1.5, 1.8):
            x_star = pi_p(p) * m_p(p)
            assert abs(d2cos_p(x_star, p)) < 1e-8

    def test_single_sign_change(self):
        p = 1.5
        x = np.linspace(1e-3, pi_p(p) / 2.0 - 1e-3, 400)
        signs = np.sign(d2cos_p(x, p))
        changes = np.count_nonzero(np.diff(signs))
        assert changes == 1

    def test_finite_difference_of_dcos(self):
        p = 1.5
        x = 0.4 * pi_p(p)
        h = 1e-5
        fd = (dcos_p(x + h, p) - dcos_p(x - h, p)) / (2.0 * h)
        assert abs(d2cos_p(x, p) - fd) < 1e-6

    def test_underflowing_cosine_is_minus_inf_without_warning(self):
        # y rounds to 1 there, so cos_p is 0 and cos_p^(3-2p) divides by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d2cos_p(pi_p(3.0) / 2.0 * (1.0 - 1e-15), 3.0) == -math.inf

    @pytest.mark.parametrize("k", range(8, 17))
    @pytest.mark.parametrize("p", (1.2, 1.5, 1.7, 2.0, 3.0))
    def test_near_the_quarter_point(self, p, k):
        # sin_p rounds to 1 there at most of these p; p = 2 returns -cos x,
        # 1.7 < 2 returns +inf where it diverges, and 3 > 2 returns -inf
        x = pi_p(p) / 2.0 * (1.0 - 10.0**-k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = d2cos_p(x, p)
        assert not math.isnan(value)
        if p == 2.0:
            assert value == -math.cos(x)

    def test_rejects_endpoints(self):
        with pytest.raises(DomainError):
            d2cos_p(0.0, 1.5)
        with pytest.raises(DomainError):
            d2cos_p(pi_p(1.5) / 2.0, 1.5)


class TestCp:
    def test_closed_form_three_halves(self):
        assert c_p(1.5) == pytest.approx(2.0 ** (-2.0 / 3.0), rel=1e-14)
        assert c_p(np.float32(1.5)) == c_p(1.5)

    def test_closed_form_four_thirds(self):
        expected = (1.0 / 3.0) ** 0.25 * (2.0 / 3.0) ** 0.5
        assert c_p(4.0 / 3.0) == pytest.approx(expected, rel=1e-14)
        # consistency with the closed form of pi_p^2 c_p at p = 4/3
        lhs = pi_p(4.0 / 3.0) ** 2 * c_p(4.0 / 3.0)
        assert lhs == pytest.approx(PI**2 * 3.0**1.25 * math.sqrt(2.0) / 2.0, rel=1e-13)

    def test_limits(self):
        assert c_p(1.9999999) == pytest.approx(1.0, abs=1e-5)
        assert c_p(1.0000001) == pytest.approx(1.0, abs=1e-5)

    def test_range_and_domain(self):
        ps = np.linspace(1.01, 1.99, 50)
        assert all(0.0 < c_p(float(p)) <= 1.0 for p in ps)
        for bad in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(DomainError):
                c_p(bad)


class TestMp:
    def test_near_two_approaches_half(self):
        assert m_p(1.999) > 0.47
        assert m_p(1.9999) > m_p(1.999)

    def test_independent_oracle(self):
        # brentq on the inverse-beta route, no shared code with m_p
        from scipy.optimize import brentq
        from scipy.special import betaincinv

        for p in (1.1, 1.46, 1.5, 1.9):
            a, b = 1.0 / p, 1.0 - 1.0 / p
            root = brentq(
                lambda x: 1.0 - betaincinv(a, b, 2.0 * x) - (2.0 - p),
                1e-9,
                0.5 - 1e-9,
                xtol=1e-15,
            )
            assert m_p(p) == pytest.approx(root, abs=1e-12)

    def test_extremum_value(self):
        for p in (1.1, 1.5):
            mp = m_p(p)
            assert 0.0 < mp < 0.5
            assert abs(u_p(mp, p) + c_p(p)) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            m_p(2.0)
        with pytest.raises(DomainError):
            m_p(0.9)


class TestUp:
    def test_zeros(self):
        assert u_p(0.0, 1.5) == 0.0
        assert u_p(0.5, 1.5) == 0.0

    def test_nonpositive(self):
        x = np.linspace(0.0, 0.5, 200)
        assert np.max(u_p(x, 1.3)) <= 0.0

    def test_direct_formula_quarter_point(self):
        p = 1.5
        y = float(sin_p_oracle(pi_p(p) / 4.0, p))
        cpv = (1.0 - y**p) ** (1.0 / p)
        expected = -(y ** (p - 1.0)) * cpv ** (2.0 - p)
        val = u_p(0.25, p)
        assert val < 0.0
        assert val == pytest.approx(expected, rel=1e-11)

    def test_monotone_down_then_up(self):
        p = 1.5
        mp = m_p(p)
        x = np.linspace(0.0, 0.5, 1000)
        vals = u_p(x, p)
        diffs = np.diff(vals)
        before = x[:-1] < mp - 1e-3
        after = x[1:] > mp + 1e-3
        assert np.all(diffs[before] < 1e-15)
        assert np.all(diffs[after] > -1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            u_p(0.6, 1.5)
        with pytest.raises(DomainError):
            u_p(0.2, 2.5)
        with pytest.raises(DomainError):
            u_p(math.nan, 1.5)


class TestVp:
    def test_zero_at_half(self):
        assert v_p(0.5, 3.0) == 0.0

    def test_small_argument_product(self):
        assert 1e-6 * v_p(1e-6, 3.0) < 1e-3

    def test_decreasing(self):
        assert v_p(0.25, 4.0) > v_p(0.3, 4.0) > 0.0
        x = np.linspace(0.01, 0.5, 100)
        vals = v_p(x, 3.0)
        assert np.all(np.diff(vals) < 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            v_p(0.0, 3.0)
        with pytest.raises(DomainError):
            v_p(0.2, 1.5)
        with pytest.raises(DomainError):
            v_p(math.nan, 3.0)
        # p/(p-1) rounds to 1 above 2^53; the error names the p passed
        with pytest.raises(DomainError, match=r"p = 1e\+16 has no conjugate"):
            v_p(0.2, 1e16)


class TestExpP:
    def test_cardinal_points(self):
        for p in (1.46, 2.0, 3.0):
            assert exp_p(0.0, p) == pytest.approx(1.0 + 0.0j, abs=1e-14)
            assert exp_p(pi_p(p) / 2.0, p) == pytest.approx(1.0j, abs=1e-14)

    def test_classical(self):
        z = exp_p(1.0, 2.0)
        assert z == pytest.approx(complex(math.cos(1.0), math.sin(1.0)), abs=1e-13)

    def test_modulus_identity(self, rng):
        y = rng.uniform(-10.0, 10.0, 50)
        for p in (1.3, 4.0):
            z = exp_p(y, p)
            assert np.max(np.abs(np.abs(z.real) ** p + np.abs(z.imag) ** p - 1.0)) < 1e-12


class TestFastEvaluatorAgreesWithNewton:
    """The cached tables are a pure cache of the Newton inversion."""

    @pytest.mark.parametrize("p", (1.05, 1.46, 2.43, 10.0))
    def test_agreement(self, p, rng):
        trig = fast_trig(p)
        x = rng.uniform(-2.0, 2.0, 300)
        pe = PExponent(p)
        assert np.max(np.abs(trig.sin_scaled(x) - sin_p(pe.pi_p * x, pe))) < 5e-12
        assert np.max(np.abs(trig.cos_scaled(x) - cos_p(pe.pi_p * x, pe))) < 5e-12

    def test_series_only_table_serves_quarter_point(self):
        # p >= 19 has no Chebyshev intervals: the series covers all of [0, 1/4]
        pe = PExponent(20.0)
        trig = fast_trig(pe.p)
        assert trig._own.n_intervals == 0
        y = invert_quarter(np.array([pe.pi_p / 4.0]), pe, seed=None)
        assert abs(trig.sin_scaled(0.25) - y[0]) <= 1e-13
        assert abs(trig.cos_scaled(0.25) - _cos_from_y(y, pe.p)[0]) <= 1e-13
        assert abs(sin_p(pe.pi_p / 4.0, pe) - y[0]) <= 1e-13

    def test_conjugate_exponents_share_tables(self):
        # a table depends only on its exponent, so p and p' = p/(p-1) share a pair
        assert fast_trig(3.0)._dual is fast_trig(1.5)._own
        assert fast_trig(1.5)._dual is fast_trig(3.0)._own


SEEDED_P = (1.1, 1.5, 3.0, 10.0)


def _unseeded(x, pe):
    """(sin_p, cos_p) through the public reduction, Newton from the classical sine."""
    t, s_sign, c_sign = reduce_argument(np.asarray(x, dtype=float) / pe.pi_p)
    y = invert_quarter(pe.pi_p * t, pe, seed=None)
    return s_sign * y, c_sign * _cos_from_y(y, pe.p)


def _both(x, pe):
    return np.concatenate([sin_p(x, pe), cos_p(x, pe)])


def _count_F_rows(monkeypatch):
    """A list that collects the number of F_p rows of each later batch."""
    rows = []
    original = core._incomplete_F_batch

    def counted(y, *args):
        rows.append(np.size(y))
        return original(y, *args)

    monkeypatch.setattr(core, "_incomplete_F_batch", counted)
    return rows


class TestTableSeededInversion:
    """Public inversions start Newton from the cached table of p."""

    @pytest.mark.parametrize("p", SEEDED_P)
    def test_split_invariance(self, p):
        pe = PExponent(p)
        x = np.random.default_rng(31).uniform(-4.0 * pe.pi_p, 4.0 * pe.pi_p, 40)
        full = _both(x, pe)
        halves = np.concatenate([sin_p(x[:17], pe), sin_p(x[17:], pe),
                                 cos_p(x[:17], pe), cos_p(x[17:], pe)])
        scalars = np.array([sin_p(float(v), pe) for v in x] + [cos_p(float(v), pe) for v in x])
        assert np.array_equal(full, halves)
        assert np.array_equal(full, scalars)

    @pytest.mark.parametrize("p", SEEDED_P)
    def test_cache_independence(self, p):
        pe = PExponent(p)
        x = np.random.default_rng(32).uniform(-4.0 * pe.pi_p, 4.0 * pe.pi_p, 200)
        fast_trig.cache_clear()
        _quarter_table.cache_clear()
        core._table_refused.cache_clear()
        cold = _both(x, pe)
        fast_trig(p)
        warm = _both(x, pe)
        assert np.array_equal(cold, warm)

    @pytest.mark.parametrize("p", SEEDED_P)
    def test_agrees_with_unseeded_newton(self, p):
        pe = PExponent(p)
        uniform = np.random.default_rng(33).uniform(0.0, pe.quarter, 300)
        steep = pe.quarter * (1.0 - 10.0 ** -np.linspace(1.0, 15.5, 146))
        for u in (uniform, steep):
            assert np.max(np.abs(sin_p(u, pe) - invert_quarter(u, pe, seed=None))) <= 1e-13

    def test_interior_points_take_one_or_two_rows(self, monkeypatch):
        pe = PExponent(3.0)
        sin_p(1.0, pe)  # the table is built outside the count
        rows = _count_F_rows(monkeypatch)
        u = np.random.default_rng(34).uniform(0.05, 0.95, 500) * pe.quarter
        sin_p(u, pe)
        assert sum(rows) <= 2 * u.size

    @pytest.mark.parametrize("p", (30.0, 50.0))
    def test_refused_table_falls_back_once(self, p, monkeypatch):
        pe = PExponent(p)
        builds = []
        original = FastPTrig.__init__

        def counted(self, q):
            builds.append(q)
            original(self, q)

        monkeypatch.setattr(FastPTrig, "__init__", counted)
        core._table_refused.cache_clear()
        x = np.random.default_rng(35).uniform(-4.0 * pe.pi_p, 4.0 * pe.pi_p, 100)
        with pytest.raises(ConvergenceError):
            fast_trig(p)
        builds.clear()
        s, c = _unseeded(x, pe)
        assert np.array_equal(sin_p(x, pe), s)
        assert np.array_equal(cos_p(x, pe), c)
        assert builds == [p]


def test_thread_safety_bitwise(rng):
    """Concurrent batch evaluation matches the serial result bitwise."""
    from concurrent.futures import ThreadPoolExecutor

    x = rng.uniform(-20.0, 20.0, 800)
    pe = PExponent(1.46)
    serial = sin_p(x, pe)
    chunks = np.array_split(x, 8)
    with ThreadPoolExecutor(max_workers=8) as pool:
        parts = list(pool.map(lambda c: sin_p(c, pe), chunks))
    assert np.array_equal(np.concatenate(parts), serial)


def _reference_invert_quarter(u, pexp, seed=None):
    """invert_quarter as it was before the sub-ulp probe, for bitwise checks.

    Where a Newton step leaves y where it is, it bisects the bracket; every
    other rule (start, bracket, residual test, collapse, halving to two
    adjacent doubles, nearer end) is the one invert_quarter keeps.
    """
    cfg = core.DEFAULT_CONFIG
    eps = core._EPS
    u = np.asarray(u, dtype=float)
    u_star = pexp.quarter
    start = np.sin(np.pi * u / pexp.pi_p)
    if seed is not None:
        start = np.where(np.isfinite(seed), seed, start)
    y = np.clip(start, 0.0, 1.0)
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    r_lo = -u
    r_hi = u_star - u
    at0 = u <= 0.0
    at1 = u >= u_star * (1.0 - 4.0 * eps)
    y[at0] = 0.0
    y[at1] = 1.0
    done = at0 | at1
    collapsed = np.zeros(u.shape, dtype=bool)
    r_prev = np.full_like(u, np.inf)
    qrel = max(cfg.rel_tol / 20.0, 4.0 * eps)
    qabs = cfg.abs_tol / 10.0

    def residual(idx, yl):
        F, Ferr = core._incomplete_F_batch(yl, pexp, qrel, qabs, cfg.quad_levels)
        r = F - u[idx]
        tol = np.maximum(cfg.abs_tol + 8.0 * eps * u[idx], 4.0 * Ferr)
        return r, np.abs(r) <= tol

    for _ in range(cfg.max_newton_iters):
        if done.all():
            break
        idx = ~done
        yl = y[idx]
        r, met = residual(idx, yl)
        hl = np.where(r > 0.0, np.minimum(hi[idx], yl), hi[idx])
        cl = np.where(r < 0.0, np.maximum(lo[idx], yl), lo[idx])
        r_hi[idx] = np.where(r > 0.0, r, r_hi[idx])
        r_lo[idx] = np.where(r < 0.0, r, r_lo[idx])
        narrow = ~met & (hl - cl <= 4.0 * eps)
        ok = met | narrow
        y_new = yl - r * _cos_from_y(yl, pexp.p)
        bisect = (
            (~np.isfinite(y_new))
            | (y_new <= cl)
            | (y_new >= hl)
            | (np.abs(r) > 0.5 * np.abs(r_prev[idx]))
        )
        y_new = np.where(bisect, 0.5 * (cl + hl), y_new)
        lo[idx] = cl
        hi[idx] = hl
        y[idx] = np.where(ok, yl, y_new)
        r_prev[idx] = np.abs(r)
        done[idx] |= ok
        collapsed[idx] = narrow
    assert done.all()
    halving = collapsed & (np.nextafter(lo, 2.0) < hi)
    while halving.any():
        idx = halving.copy()
        mid = 0.5 * (lo[idx] + hi[idx])
        r, met = residual(idx, mid)
        hi[idx] = np.where(r > 0.0, mid, hi[idx])
        lo[idx] = np.where(r < 0.0, mid, lo[idx])
        r_hi[idx] = np.where(r > 0.0, r, r_hi[idx])
        r_lo[idx] = np.where(r < 0.0, r, r_lo[idx])
        y[idx] = mid
        collapsed[idx] = ~met
        halving[idx] = ~met & (np.nextafter(lo[idx], 2.0) < hi[idx])
    nearer = np.where(np.abs(r_lo) <= np.abs(r_hi), lo, hi)
    return np.where(collapsed, nearer, y)


class TestSubUlpProbe:
    """A Newton step below one ulp probes 2 eps inward instead of bisecting."""

    @pytest.mark.parametrize("p", SEEDED_P)
    def test_public_values_equal_the_bisecting_loop(self, p):
        pe = PExponent(p)
        x = np.random.default_rng(36).uniform(-4.0 * pe.pi_p, 4.0 * pe.pi_p, 600)
        t, s_sign, c_sign = reduce_argument(x / pe.pi_p)
        u = pe.pi_p * t
        y = _reference_invert_quarter(u, pe, fast_trig(p)._quarter_sin(u / pe.pi_p))
        assert np.array_equal(sin_p(x, pe), s_sign * y)
        assert np.array_equal(cos_p(x, pe), c_sign * _cos_from_y(y, p))

    @pytest.mark.parametrize("p", (1.2, 2.43, 10.0))
    def test_classical_start_equals_the_bisecting_loop(self, p):
        # u stays at least 3e-8 (relative) below pi_p/2, where the classical
        # start is below 1; test_one_ulp_bracket_at_large_p covers a start of 1
        pe = PExponent(p)
        rng = np.random.default_rng(37)
        u = np.concatenate([rng.uniform(0.0, pe.quarter, 300),
                            pe.quarter * (1.0 - 10.0 ** -rng.uniform(0.0, 7.5, 100))])
        assert np.array_equal(invert_quarter(u, pe), _reference_invert_quarter(u, pe))

    def test_row_budget_at_small_p(self, monkeypatch):
        pe = PExponent(1.1)
        sin_p(1.0, pe)  # the table is built outside the count
        rows = _count_F_rows(monkeypatch)
        x = np.random.default_rng(38).uniform(-4.0 * pe.pi_p, 4.0 * pe.pi_p, 2000)
        sin_p(x, pe)
        # the bisecting loop took 14.8 rows per point here
        assert sum(rows) <= 3 * x.size

    @pytest.mark.parametrize("p", (30.0, 50.0))
    def test_start_of_one_takes_one_row(self, p, monkeypatch):
        # the tables of these p are refused, so Newton would start from the
        # classical sine, 1.0 here, whose step is 0: about 31 rows per point
        # bisecting back from [0, 1]; the leading term at pi_p/2 starts below 1
        pe = PExponent(p)
        sin_p(1.0, pe)  # the table refusal is paid outside the count
        rows = _count_F_rows(monkeypatch)
        x = pe.quarter - np.random.default_rng(42).uniform(0.0, 3e-9, 1000)
        sin_p(x, pe)
        assert sum(rows) <= 1.1 * x.size

    def test_one_ulp_bracket_at_large_p(self):
        # the table of p = 50 is refused and the classical sine is 1 here, so
        # Newton starts from the leading term at pi_p/2: that moves some
        # results off the bisecting loop's double, within the residual test
        pe = PExponent(50.0)
        x = pe.quarter - np.random.default_rng(39).uniform(0.0, 3e-9, 1000)
        assert _one_ulp_miss(x, sin_p(x, pe), pe) <= 1e-11


class TestRowBlocks:
    """_incomplete_F_batch sums its rows in blocks of at most _BLOCK elements."""

    @pytest.mark.parametrize("p", (1.1, 3.0))
    def test_block_size_and_split_invariance(self, p, monkeypatch):
        pe = PExponent(p)
        y = np.random.default_rng(40).uniform(0.0, 1.0, 2000)
        full = incomplete_F(y, pe)
        monkeypatch.setattr(core, "_BLOCK", 64)
        parts = np.concatenate([incomplete_F(part, pe) for part in np.split(y, [1, 7, 300, 1999])])
        assert np.array_equal(incomplete_F(y, pe), full)
        assert np.array_equal(parts, full)

    def test_transient_memory_of_one_call(self):
        import tracemalloc

        pe = PExponent(1.1)
        sin_p(1.0, pe)  # the table is built outside the measurement
        x = np.random.default_rng(41).uniform(-4.0 * pe.pi_p, 4.0 * pe.pi_p, 2000)
        tracemalloc.start()
        try:
            sin_p(x, pe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # whole-batch rows peaked at 9.4 MB here
        assert peak <= 3e6
