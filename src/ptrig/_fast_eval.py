"""Cached bulk evaluator for the rescaled p-trigonometric functions.

The coefficient banks need about 10^5 sin_p/cos_p values per exponent
and kind up to j = 1023, which rules out a Newton inversion per point.  This module
builds, once per exponent, tables of

    S_p(t) = sin_p(pi_p t),   t in [0, 1/4],

for p and for its conjugate p' (a table is cached per exponent, so
fast_trig(p) and fast_trig(p') share theirs).  The quarter period splits
at t = 1/4: the upper half is mapped to the lower half of the conjugate
exponent via

    sin_p(pi_p t)  = cos_p'(pi_p' (1/2 - t))^(p'-1)
    cos_p(pi_p t)  = sin_p'(pi_p' (1/2 - t))^(p'-1)

so every evaluation lands in a region where the table is accurate to
near machine precision.  Each table is the power series of sin_p in
w = u^p, found by series reversion: its coefficients follow from
y' = (1 - y^p)^(1/p) by Miller's recurrence for powers of a series.  It
serves t up to t_floor, the largest 2^-n/4 where it has converged to
double precision, which is all of [0, 1/4] from p = 1.2 up.  Only above
t_floor, where the series of p below 1.2 converges too slowly, do dyadic
intervals remain, fitted by Chebyshev polynomials to the safeguarded
Newton inversion started from the classical sine, so no table value
depends on a table.  Construction is probed at 33 points: Newton started
from the table itself runs until its residual test accepts, which
certifies the reference whatever the start, and a table that disagrees
with the reference is refused (ConvergenceError), so the series is
checked by a route independent of it.
The public functions start the same inversion from these tables.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .config import DEFAULT_CONFIG
from .core import PExponent, _cos_from_y, _log_one_minus_pow, invert_quarter, reduce_argument
from .errors import ConvergenceError, DomainError

_DEG = 30  # Chebyshev degree per dyadic interval
_T_TOP = 0.25
# Chebyshev points of one interval, and chebfit's column-scaled design
# matrix for them: every interval solves one least-squares problem with it
_REF = np.cos(np.pi * (np.arange(_DEG + 1) + 0.5) / (_DEG + 1))
_VAN = chebyshev.chebvander(_REF, _DEG)
_SCALE = np.sqrt(np.square(_VAN.T).sum(1))
_FIT = _VAN / _SCALE
_RCOND = _REF.size * np.finfo(float).eps
_TERMS = 64  # most power series terms per exponent
_TAIL = 8  # trailing terms that must be negligible where the series serves


def _series(p: float, w_top: float) -> np.ndarray:
    """Coefficients e_m of sin_p(u) = u * sum_m e_m w^m, w = u^p, e_0 = 1.

    sin_p solves y' = (1 - y^p)^(1/p).  With y = u h(w) and h = sum e_m w^m,
    y' = sum (mp + 1) e_m w^m and y^p = w k with k = h^p, so
    e_m = d_m / (mp + 1) for d = (1 - w k)^(1/p).  Both powers come from
    J. C. P. Miller's recurrence for a power of a power series (Knuth,
    TAOCP Vol. 2, 4.7), each d_m and k_m from the terms before it.  The
    recurrence stops once the series passes `_converged` at w_top, and
    after _TERMS terms at most.  `_converged` is only tried once the last
    _TAIL terms each pass its tail rule with slack, a weaker test, so the
    stopping n is the same.
    """
    e, k, d = (np.zeros(_TERMS) for _ in range(3))
    e[0] = k[0] = d[0] = 1.0
    j = np.arange(1.0, _TERMS)
    with np.errstate(over="ignore"):  # an inf power fails the test below
        w_pow = w_top ** np.arange(_TERMS)
    passing = 0
    for n in range(1, _TERMS):
        # Miller's weights (a + 1) j - n, as a j + (j - n) with j - n exact;
        # coefficient j of 1 - w k is -k_(j-1)
        d[n] = -np.dot((j[:n] / p + (j[:n] - n)) * k[:n], d[n - 1 :: -1]) / n
        e[n] = d[n] / (n * p + 1.0)
        k[n] = np.dot((j[:n] * p + (j[:n] - n)) * e[1 : n + 1], k[n - 1 :: -1]) / n
        passing = passing + 1 if abs(e[n]) * w_pow[n] <= 2.0**-59 else 0
        if passing >= _TAIL and _converged(e[: n + 1], w_top):
            return e[: n + 1]
    return e


def _converged(e, w) -> bool:
    """Whether the series serves w: its last _TAIL terms e_m w^m are below
    2^-60 of the first (which is 1) and their absolute sum is at most 4."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN terms fail
        terms = np.abs(e) * w ** np.arange(e.size)
    return bool(terms[-_TAIL:].max() <= 2.0**-60 and terms.sum() <= 4.0)


class _QuarterTable:
    """sin_p(pi_p t) on [0, 1/4]: its power series up to t_floor, and
    piecewise Chebyshev above it."""

    def __init__(self, pexp: PExponent):
        p = pexp.p
        self.p = p
        self.pi_p = pexp.pi_p
        self.series = _series(p, (self.pi_p * _T_TOP) ** p)
        # t_floor is the largest 2^-n / 4 the series serves; the n dyadic
        # intervals above it are tabulated
        self.n_intervals = 0
        while not _converged(self.series, (self.pi_p * _T_TOP * 2.0 ** -self.n_intervals) ** p):
            self.n_intervals += 1
        self.t_floor = _T_TOP * 2.0 ** (-self.n_intervals)
        k = np.arange(self.n_intervals)
        his = _T_TOP * 2.0 ** (-k)
        los = his / 2.0
        nodes = los[:, None] + (his - los)[:, None] * (_REF[None, :] + 1.0) / 2.0
        ys = invert_quarter(pexp.pi_p * nodes.ravel(), pexp, DEFAULT_CONFIG)
        ys = ys.reshape(nodes.shape)
        # chebfit per interval, its design matrix built once; a batched
        # solve of all intervals is not bitwise the same
        self.coefs = np.empty((self.n_intervals, _DEG + 1))
        for i in range(self.n_intervals):
            self.coefs[i] = np.linalg.lstsq(_FIT, ys[i], _RCOND)[0] / _SCALE
        # row deg holds every interval's coefficient of T_deg
        self._rows = np.ascontiguousarray(self.coefs.T)

    def eval(self, t):
        """sin_p(pi_p t) for t in [0, 1/4]."""
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        # without intervals the series serves all of [0, 1/4]
        series = (t <= self.t_floor) | (self.n_intervals == 0)
        if series.any():
            # Horner in w = u^p
            u = self.pi_p * t[series]
            w = u**self.p
            acc = np.full_like(w, self.series[-1])
            for c in self.series[-2::-1]:
                acc *= w
                acc += c
            out[series] = u * acc
        rest = ~series
        if rest.any():
            tr = np.minimum(t[rest], _T_TOP)
            with np.errstate(divide="ignore"):
                k = np.floor(-np.log2(tr / _T_TOP)).astype(int)
            k = np.clip(k, 0, self.n_intervals - 1)
            his = _T_TOP * 2.0 ** (-k.astype(float))
            xi = np.clip(4.0 * tr / his - 3.0, -1.0, 1.0)
            # Clenshaw, each point's coefficient of T_deg gathered from row
            # deg; b_deg = c + 2 xi b1 - b2 is formed in place on the gather
            rows = self._rows
            two_xi = 2.0 * xi
            b1 = np.zeros_like(xi)
            b2 = np.zeros_like(xi)
            step = np.empty_like(xi)
            for deg in range(_DEG, 0, -1):
                c = rows[deg][k]
                c += np.multiply(two_xi, b1, out=step)
                c -= b2
                b1, b2 = c, b1
            out[rest] = rows[0][k] + xi * b1 - b2
        return out


@lru_cache(maxsize=128)
def _quarter_table(p: float) -> _QuarterTable:
    """The table of one exponent, shared by fast_trig(p) and fast_trig(p')."""
    return _QuarterTable(PExponent(p))


class FastPTrig:
    """Vectorized sin_p(pi_p t), cos_p(pi_p t) for arbitrary real t."""

    def __init__(self, p: float):
        self.pexp = PExponent.of(p)
        try:
            self.conj = self.pexp.conjugate
        except DomainError as exc:  # p above 2^53: no table for the upper half
            raise ConvergenceError(f"fast evaluator tables refused: {exc}") from None
        self._own = _quarter_table(self.pexp.p)
        self._dual = _quarter_table(self.conj.p)
        self._validate()

    def _quarter_sin(self, t):
        """sin_p(pi_p t) on [0, 1/2] via the conjugate split at 1/4."""
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        low = t <= _T_TOP
        if low.any():
            out[low] = self._own.eval(t[low])
        high = ~low
        if high.any():
            # a Chebyshev interval of p' near 1 can read an ulp above 1,
            # where 1 - s^p' < 0 would meet the log
            s = np.minimum(self._dual.eval(0.5 - t[high]), 1.0)
            # (1 - s^p')^(1/p), exactly 1 at the quarter point where s = 0
            out[high] = np.exp(_log_one_minus_pow(s, 1.0 - s, self.conj.p) / self.pexp.p)
        return out

    def _quarter_cos(self, t):
        """cos_p(pi_p t) on [0, 1/2] via the conjugate split at 1/4."""
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        low = t <= _T_TOP
        if low.any():
            out[low] = _cos_from_y(self._own.eval(t[low]), self.pexp.p)
        high = ~low
        if high.any():
            s = self._dual.eval(0.5 - t[high])
            out[high] = s ** (self.conj.p - 1.0)
        return out

    def sin_scaled(self, t):
        """sin_p(pi_p t) for any real t."""
        tq, s_sign, _ = reduce_argument(t)
        return s_sign * self._quarter_sin(tq)

    def cos_scaled(self, t):
        """cos_p(pi_p t) for any real t."""
        t = np.asarray(t, dtype=float)
        if np.all((t >= 0.0) & (t <= 0.5)):  # where reduce_argument is the identity
            return self._quarter_cos(t)
        tq, _, c_sign = reduce_argument(t)
        return c_sign * self._quarter_cos(tq)

    def _validate(self):
        """Probe the tables against the Newton inversion they cache.

        Newton starts from the tables, which only saves iterations: its
        residual test certifies the reference whatever the start, so a
        wrong table value is corrected there and shows as a deviation.
        """
        golden = 0.5 * (math.sqrt(5.0) - 1.0)
        t = np.mod(golden * np.arange(1, 34), 1.0) * 0.5
        y_tab = self._quarter_sin(t)
        y_ref = invert_quarter(self.pexp.pi_p * t, self.pexp, DEFAULT_CONFIG, y_tab)
        c_ref = _cos_from_y(y_ref, self.pexp.p)
        dev = np.concatenate([y_tab - y_ref, self._quarter_cos(t) - c_ref])
        if not np.max(np.abs(dev)) <= 5e-12:  # NaN fails too
            raise ConvergenceError(
                f"fast evaluator tables for p={self.pexp.p} failed validation"
            )


@lru_cache(maxsize=64)
def fast_trig(p: float) -> FastPTrig:
    """Per-exponent cached evaluator (construction is deterministic)."""
    return FastPTrig(float(p))
