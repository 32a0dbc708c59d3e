"""The Chebyshev tables of _fast_eval: bitwise pins and the construction probe.

The references below are the straightforward forms of the table fit and
the table evaluation: one `chebyshev.chebfit` per interval, and a Clenshaw
recurrence over per-point coefficient rows.  The library's forms must
agree with them bit for bit, because the probe leaves the tables little
margin (a 3e-16 move of one table is enough to refuse fast_trig(20)).
"""

import copy
import warnings

import numpy as np
import pytest
from numpy.polynomial import chebyshev

import ptrig._fast_eval as fe
from ptrig.config import DEFAULT_CONFIG
from ptrig.core import PExponent, invert_quarter
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
    """The table's value at t by Clenshaw over per-point coefficient rows."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    series = (t < table.t_floor) | (table.n_intervals == 0)
    u = table.pi_p * t[series]
    up = u ** (table.p + 1.0)
    out[series] = u - table.s1 * up + table.s2 * up * u**table.p
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


@pytest.mark.parametrize("p", (1.1, 1.46, 3.0, 20.0 / 19.0))
def test_fit_equals_chebfit(p):
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


def _moved(table, change):
    """A copy of table with coefficient 0 of its first interval changed."""
    bad = copy.copy(table)
    bad.coefs = table.coefs.copy()
    bad.coefs[0, 0] = change(bad.coefs[0, 0])
    bad._rows = np.ascontiguousarray(bad.coefs.T)
    return bad


@pytest.mark.parametrize("q", (1.5, 3.0), ids=("own", "dual"))
@pytest.mark.parametrize(
    "change", (lambda c: c + 1e-9, lambda c: np.nan), ids=("moved_1e-9", "nan")
)
def test_probe_refuses_a_wrong_table(q, change, monkeypatch):
    # the probe's Newton reference starts from the table, yet must not
    # inherit the table's error: FastPTrig(1.5) reads table 1.5 and 3.0
    original = fe._quarter_table
    bad = _moved(original(q), change)
    monkeypatch.setattr(fe, "_quarter_table", lambda p: bad if p == q else original(p))
    with pytest.raises(ConvergenceError, match="failed validation"):
        fe.FastPTrig(1.5)
    monkeypatch.undo()
    fe.FastPTrig(1.5)  # the true tables pass


@pytest.mark.parametrize("p", (100.0, 1000.0))
def test_large_p_refusal_warns_of_nothing(p):
    # the dual table reads s = 1 there, and 1 - s^p' = 0 meets the log
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="failed validation"):
            fe.FastPTrig(p)


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
