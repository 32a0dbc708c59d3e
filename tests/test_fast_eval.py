"""The tables of _fast_eval: the power series, the split at the p-diagonal,
the construction check, and accuracy over every exponent up to 2^53.

Up to p = 21.5 the tables are checked against the inverse beta
(`sin_p_oracle`); above it, where y^p underflows there, against the
residual of the hypergeometric quarter-period integral
(`diagonal_residual`).
"""

import math
import warnings

import numpy as np
import pytest

import ptrig._fast_eval as fe
import ptrig.core as core
from conftest import diagonal_residual, incomplete_F_oracle, sin_p_oracle
from ptrig import basis_criterion, pi_p, sin_p
from ptrig.core import PExponent, invert_quarter, reduce_argument
from ptrig.errors import ConvergenceError


@pytest.mark.parametrize(
    "cases",
    # (FastPTrig's exponent, the table changed): FastPTrig(1.5) reads the
    # series of 1.5 and 3.0, FastPTrig(1.1) those of 1.1 and its conjugate
    (((1.5, 1.5), (1.1, 1.1)),
     ((1.5, 3.0), (1.1, PExponent(1.1).p_conj))),
    ids=("own", "dual"),
)
@pytest.mark.parametrize(
    "change", (lambda c: c + 1e-9, lambda c: np.nan), ids=("moved_1e-9", "nan")
)
def test_probe_refuses_a_wrong_table(cases, change, monkeypatch):
    # the series of exponent q comes out of _series with e_1 changed; the
    # table's own check against the 2F1 integral must refuse it
    original = fe._series

    def moved(r, w_top):
        e = original(r, w_top)
        if r == q:
            e[1] = change(e[1])
        return e

    for p, q in cases:
        monkeypatch.setattr(fe, "_series", moved)
        with pytest.raises(ConvergenceError, match="failed validation"):
            fe.FastPTrig(p)
        monkeypatch.undo()
        fe.FastPTrig(p)  # the true tables pass


@pytest.mark.parametrize("p", (1.0001, 1.5, 3.0, 1e6))
def test_tables_run_no_inversion(p, monkeypatch):
    # the check sums F_q by its series: no Newton iteration, no tanh-sinh node
    def refuse(*args, **kwargs):
        raise AssertionError("a table build called the inversion layer")

    monkeypatch.setattr(core, "invert_quarter", refuse)
    monkeypatch.setattr(core, "_incomplete_F_batch", refuse)
    fe.FastPTrig(p)


@pytest.mark.parametrize("p", (1.0001, 1.02, 1.1, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 21.5, 1e3))
def test_series_starts_with_the_closed_form_terms(p):
    # sin_p(u) = u - u^(p+1)/(p(p+1)) + s2 u^(2p+1) + ...; e_2 has a zero at
    # p = 1 + sqrt(2), near which neither form keeps its relative accuracy
    e = fe.FastPTrig(p)._own.series
    s1 = 1.0 / (p * (p + 1.0))
    s2 = (-p * p + 2.0 * p + 1.0) / (2.0 * p * p * (p + 1.0) * (2.0 * p + 1.0))
    assert e[0] == 1.0
    assert abs(e[1] + s1) <= 2.0 * np.spacing(s1)
    assert abs(e[2] - s2) <= 2.0 * np.spacing(abs(s2))


def test_series_at_p2_is_the_taylor_series_of_sin():
    table = fe.FastPTrig(2.0)._own
    m = np.arange(table.series.size)
    taylor = np.array([(-1.0) ** k / math.factorial(2 * k + 1) for k in m])
    u = np.pi / 4.0  # t = 1/4
    assert np.max(np.abs(table.series - taylor) * u ** (2 * m + 1)) <= 1e-17


# sup |sin_scaled - betaincinv^(1/p)| on 20,001 points of [0, 1/2] for the
# tables of the previous layout (a three-term series below up to 27
# Newton-fitted intervals)
SUP_ERROR_BEFORE = {
    1.02: 9.478529072737274e-15,
    1.05: 9.818534874028728e-15,
    1.1: 9.943434964299058e-15,
    1.19: 8.534839501805891e-15,
    1.2: 9.284240043427872e-15,
    1.46: 1.3572476476042539e-14,
    2.41: 9.540979117872439e-15,
    3.0: 1.0477729794899915e-14,
    5.0: 1.3988810110276972e-14,
    10.0: 2.19824158875781e-14,
    20.0: 8.82516282274537e-12,
    21.5: 2.32172059355662e-11,
}


@pytest.mark.parametrize("p", SUP_ERROR_BEFORE)
def test_tables_no_farther_from_betaincinv(p):
    t = np.linspace(0.0, 0.5, 20_001)
    err = np.max(np.abs(fe.fast_trig(p).sin_scaled(t) - sin_p_oracle(pi_p(p) * t, p)))
    assert err <= SUP_ERROR_BEFORE[p]


def test_every_exponent_of_a_sweep_is_accepted():
    # 128 exponents from 1.0001 to 1e6; with the quarter period split at
    # t = 1/4, only p < 24 were accepted, p = 21.03 was not, and p = 166.1
    # and 947.1 warned of an invalid log
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in np.geomspace(1.0001, 1e6, 128):
            fe.FastPTrig(float(p))


@pytest.mark.parametrize("p", (1.0 + 2.0**-52, 1.0 + 1e-8, 2.0**52, 2.0**53))
def test_extreme_exponents_are_accepted(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trig = fe.FastPTrig(p)
    assert trig._own.t_d + trig._dual.t_d == pytest.approx(0.5, abs=2.0 * np.spacing(0.5))


@pytest.mark.parametrize("p", (65.787005, 420.999696))
def test_dual_table_above_one_warns_of_nothing(p):
    # a Chebyshev interval of the dual table of p' near 1 read an ulp above 1
    # at probe points, where 1 - s^p' < 0 met the log; the dual series now
    # serves only up to its diagonal, where s^p' = 1/2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trig = fe.FastPTrig(p)
        assert trig._dual.eval(trig._dual.t_d) ** trig.conj.p == pytest.approx(0.5, rel=1e-13)
        assert abs(sin_p(1.0, p) - sin_p_oracle(1.0, p)) <= 1e-12


# (own, dual) series lengths, measured before the stopping rule became one
# running test: the stopping term must not move
SERIES_LENGTHS = {
    1.0 + 2.0**-52: (25, 9),
    1.0001: (25, 33),
    1.1: (24, 45),
    1.5: (21, 36),
    2.0: (17, 17),
    2.41: (33, 28),
    3.0: (36, 21),
    10.0: (45, 24),
    1e3: (39, 25),
    2.0**53: (9, 25),
}


@pytest.mark.parametrize("p", SERIES_LENGTHS)
def test_series_lengths(p):
    trig = fe.FastPTrig(p)
    assert (trig._own.series.size, trig._dual.series.size) == SERIES_LENGTHS[p]


def test_a_series_that_does_not_reach_the_diagonal_is_refused(monkeypatch):
    monkeypatch.setattr(fe, "_TERMS", 12)  # p = 1.1 needs 24
    with pytest.raises(ConvergenceError, match="does not reach"):
        fe._QuarterTable(PExponent(1.1))


LARGE_P = (22.0, 30.0, 50.0, 65.787005, 100.0, 420.999696, 1000.0, 1e6)


@pytest.mark.parametrize("p", LARGE_P)
def test_large_p_meets_the_residual_oracle(p):
    # on the own side the residual bounds the sine, on the dual side the
    # cosine through s = c^(p-1), which multiplies c's relative error by
    # p - 1; y^p + c^p = 1 then carries each to the other function, whose
    # power there is at least 1/2
    eps = np.finfo(float).eps
    t = np.concatenate([np.linspace(0.0, 0.5, 4001), 0.5 - np.logspace(-17.0, -1.0, 400)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trig = fe.FastPTrig(p)
        y, c = trig.sin_scaled(t), trig.cos_scaled(t)
        own, residual, u = diagonal_residual(t, y, c, p)
        assert own.any() and not own.all()
        assert np.all(residual <= 8.0 * eps * u * np.where(own, 1.0, p - 1.0))
        assert np.all(np.abs(y**p + c**p - 1.0) <= p * eps)


def test_cosines_near_p_one_are_finite():
    # at p = 1.0001 a Chebyshev interval of the own table read an ulp above
    # 1 near t = 0.0019, and the cosine took the log of a negative number
    t = np.random.default_rng(20151104).random(200_000) * 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(fe.fast_trig(1.0001).cos_scaled(t)))
        report = basis_criterion(1.0001, 999)
    assert not report.holds  # p = 1.0001 lies below p0


@pytest.mark.parametrize("p", (1.0001, 1.01, 1.1, 1.46, 2.0, 3.0, 10.0, 21.5))
def test_diagonals_of_conjugates_sum_to_one_half(p):
    # the pair's tables are the same whichever exponent builds them
    pe = PExponent(p)
    own, dual = fe.FastPTrig(p), fe.FastPTrig(pe.p_conj)
    assert np.array_equal(own._dual.series, dual._own.series)
    assert own._dual.t_d == dual._own.t_d
    assert abs(own._own.t_d + dual._own.t_d - 0.5) <= 2.0 * np.spacing(0.5)
    # sin_p^p = 1/2 there: pi_p t_d = F_p(2^(-1/p)), by the incomplete beta
    assert own._own.t_d == pytest.approx(incomplete_F_oracle(0.5 ** (1.0 / p), p) / pe.pi_p,
                                         rel=1e-13)


@pytest.mark.parametrize("p", (1.1, 1.5, 20.0))
@pytest.mark.parametrize(
    "t",
    (
        np.array([-0.0, 0.25, 0.5]),
        np.linspace(0.0, 0.5, 1001),
        np.array([0.1, np.nextafter(0.5, 1.0), 0.4]),
        np.array([-1e-300, 0.3]),
        np.array([]),
    ),
    ids=("ends", "grid", "above_half", "below_zero", "empty"),
)
def test_cos_scaled_skips_only_an_identity_reduction(p, t):
    trig = fe.fast_trig(p)
    tq, _, c_sign = reduce_argument(t)
    assert trig.cos_scaled(t).tobytes() == (c_sign * trig._quarter_cos(tq)).tobytes()


def test_non_finite_seed_keeps_classical_start():
    pexp = PExponent(1.5)
    u = np.linspace(0.0, pexp.quarter, 41)
    seed = np.full_like(u, np.nan)
    seed[::2] = np.inf
    assert np.array_equal(invert_quarter(u, pexp, seed=seed), invert_quarter(u, pexp))


@pytest.mark.parametrize("p", (1.02, 1.05, 1.1, 1.5, 2.41, 3.0, 5.0, 10.0, 20.0, 21.5))
def test_conjugate_half_within_one_ulp_of_the_inline_form(p):
    # above the p-diagonal the sine takes (1 - s^p')^(1/p) from the shared
    # log(1 - y^p); the inline form with its own logs that it replaced:
    def old_upper_half(ft, t):
        s = ft._dual.eval(0.5 - t)
        with np.errstate(divide="ignore"):
            w = ft.conj.p * np.log(s)
            return np.where(s > 0.0, np.exp(np.log(-np.expm1(w)) / ft.pexp.p), 1.0)

    ft = fe.fast_trig(p)
    t = np.linspace(ft._own.t_d, 0.5, 20_002)[1:]
    ref = old_upper_half(ft, t)
    assert np.all(np.abs(ft.sin_scaled(t) - ref) <= np.spacing(ref))
