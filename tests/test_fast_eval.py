"""The tables of _fast_eval: bitwise pins, the power series and the construction probe.

The references below are the straightforward forms of the table fit and
the table evaluation: one `chebyshev.chebfit` per interval, a plain
Horner sum over the series coefficients, and a Clenshaw recurrence over
per-point coefficient rows.  The library's forms must agree with them bit
for bit, because the probe leaves the tables little margin (a 3e-16 move
of one table is enough to refuse fast_trig(20)).
"""

import copy
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import chebyshev

import ptrig._fast_eval as fe
from conftest import sin_p_oracle
from ptrig import pi_p, sin_p
from ptrig.config import DEFAULT_CONFIG
from ptrig.core import PExponent, invert_quarter, reduce_argument
from ptrig.errors import ConvergenceError


def _chebfit_coefs(p):
    """Per-interval chebfit of the Newton values at the table's nodes."""
    pexp = PExponent(p)
    n = fe._quarter_table(p).n_intervals
    his = 0.25 * 2.0 ** (-np.arange(n))
    los = his / 2.0
    ref = np.cos(np.pi * (np.arange(fe._DEG + 1) + 0.5) / (fe._DEG + 1))
    nodes = los[:, None] + (his - los)[:, None] * (ref[None, :] + 1.0) / 2.0
    ys = invert_quarter(pexp.pi_p * nodes.ravel(), pexp, DEFAULT_CONFIG).reshape(nodes.shape)
    return np.array([chebyshev.chebfit(ref, ys[i], fe._DEG) for i in range(n)])


def _row_clenshaw(table, t):
    """The table's value at t: Horner over its series up to t_floor, above
    it Clenshaw over per-point coefficient rows."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    series = (t <= table.t_floor) | (table.n_intervals == 0)
    u = table.pi_p * t[series]
    w = u**table.p
    acc = np.full_like(w, table.series[-1])
    for c in table.series[-2::-1]:
        acc = acc * w + c
    out[series] = u * acc
    rest = ~series
    tr = np.minimum(t[rest], 0.25)
    with np.errstate(divide="ignore"):
        k = np.floor(-np.log2(tr / 0.25)).astype(int)
    k = np.clip(k, 0, table.n_intervals - 1)
    his = 0.25 * 2.0 ** (-k.astype(float))
    xi = np.clip(4.0 * tr / his - 3.0, -1.0, 1.0)
    c = table.coefs[k]
    b1 = np.zeros_like(xi)
    b2 = np.zeros_like(xi)
    for deg in range(fe._DEG, 0, -1):
        b1, b2 = c[:, deg] + 2.0 * xi * b1 - b2, b1
    out[rest] = c[:, 0] + xi * b1 - b2
    return out


@pytest.mark.parametrize("p", (1.02, 1.05, 1.1, 20.0 / 19.0))
def test_fit_equals_chebfit(p):
    # only exponents below about 1.2 keep intervals above the series
    coefs = fe._quarter_table(p).coefs
    assert coefs.shape[0] > 0
    assert coefs.tobytes() == _chebfit_coefs(p).tobytes()


@pytest.mark.parametrize("p", (1.1, 1.46, 3.0))
@pytest.mark.parametrize("n", (33, 2000, 16384))
def test_eval_equals_row_clenshaw(p, n):
    table = fe._quarter_table(p)
    edges = 0.25 * 2.0 ** -np.arange(table.n_intervals + 1)
    special = np.concatenate([
        [0.0, 0.25, table.t_floor, np.nextafter(table.t_floor, 0.0)],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        np.linspace(0.0, table.t_floor, 5),
    ])
    # at 33 points (the probe's size) only the first special points fit
    rng = np.random.default_rng(n)
    t = np.concatenate([special, 0.25 * rng.random(max(n - special.size, 0))])[:n]
    assert table.eval(t).tobytes() == _row_clenshaw(table, t).tobytes()


def _moved(table, part, change):
    """A copy of table with one coefficient changed: coefficient 0 of its
    first interval, or the series coefficient e_1."""
    bad = copy.copy(table)
    if part == "interval":
        bad.coefs = table.coefs.copy()
        bad.coefs[0, 0] = change(bad.coefs[0, 0])
        bad._rows = np.ascontiguousarray(bad.coefs.T)
    else:
        bad.series = table.series.copy()
        bad.series[1] = change(bad.series[1])
    return bad


@pytest.mark.parametrize(
    "cases",
    # (FastPTrig's exponent, the table changed, its part): FastPTrig(1.5)
    # reads the series of 1.5 and 3.0, FastPTrig(1.1) and (11) interval 0 of 1.1
    (((1.5, 1.5, "series"), (1.1, 1.1, "interval")),
     ((1.5, 3.0, "series"), (11.0, 1.1, "interval"))),
    ids=("own", "dual"),
)
@pytest.mark.parametrize(
    "change", (lambda c: c + 1e-9, lambda c: np.nan), ids=("moved_1e-9", "nan")
)
def test_probe_refuses_a_wrong_table(cases, change, monkeypatch):
    # the probe's Newton reference starts from the table, yet must not
    # inherit the table's error
    original = fe._quarter_table
    for p, q, part in cases:
        bad = _moved(original(q), part, change)
        monkeypatch.setattr(fe, "_quarter_table", lambda r: bad if r == q else original(r))
        with pytest.raises(ConvergenceError, match="failed validation"):
            fe.FastPTrig(p)
        monkeypatch.undo()
        fe.FastPTrig(p)  # the true tables pass


@pytest.mark.parametrize("p", (1.0001, 1.02, 1.1, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 21.5, 1e3))
def test_series_starts_with_the_closed_form_terms(p):
    # sin_p(u) = u - u^(p+1)/(p(p+1)) + s2 u^(2p+1) + ...; e_2 has a zero at
    # p = 1 + sqrt(2), near which neither form keeps its relative accuracy
    e = fe._quarter_table(p).series
    s1 = 1.0 / (p * (p + 1.0))
    s2 = (-p * p + 2.0 * p + 1.0) / (2.0 * p * p * (p + 1.0) * (2.0 * p + 1.0))
    assert e[0] == 1.0
    assert abs(e[1] + s1) <= 2.0 * np.spacing(s1)
    assert abs(e[2] - s2) <= 2.0 * np.spacing(abs(s2))


def test_series_at_p2_is_the_taylor_series_of_sin():
    table = fe._quarter_table(2.0)
    assert table.n_intervals == 0
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


@pytest.mark.parametrize("p", (100.0, 1000.0))
def test_large_p_refusal_warns_of_nothing(p):
    # the dual table reads s = 1 there, and 1 - s^p' = 0 meets the log
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="failed validation"):
            fe.FastPTrig(p)


@pytest.mark.parametrize("p", (65.787005, 420.999696))
def test_dual_table_above_one_warns_of_nothing(p):
    # the dual table of p' near 1 reads an ulp above 1 at probe points,
    # where 1 - s^p' < 0 met the log before the value was clipped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="failed validation"):
            fe.FastPTrig(p)
        assert abs(sin_p(1.0, p) - sin_p_oracle(1.0, p)) <= 1e-12


def test_refusals_over_a_sweep_of_exponents():
    # every other exponent of 128 from 1.0001 to 1e6, up to p = 947 (above
    # it each refusal costs about 0.5 s); the tables pass their probe up to
    # p = 23.4 and are refused from 29.1 up, and p = 166.1 and 947.1 warned
    # of an invalid log before the dual value was clipped
    ps = np.geomspace(1.0001, 1e6, 128)[1:64:2]
    accepted = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in ps:
            try:
                fe.FastPTrig(float(p))
                accepted.append(True)
            except ConvergenceError:
                accepted.append(False)
    assert accepted == list(ps < 24.0)


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
    # the upper half of the quarter period takes (1 - s^p')^(1/p) from the
    # shared log(1 - y^p); the inline form with its own logs that it replaced:
    def old_upper_half(ft, t):
        s = ft._dual.eval(0.5 - t)
        with np.errstate(divide="ignore"):
            w = ft.conj.p * np.log(s)
            return np.where(s > 0.0, np.exp(np.log(-np.expm1(w)) / ft.pexp.p), 1.0)

    ft = fe.fast_trig(p)
    t = np.linspace(0.25, 0.5, 20_002)[1:]
    ref = old_upper_half(ft, t)
    assert np.all(np.abs(ft.sin_scaled(t) - ref) <= np.spacing(ref))
