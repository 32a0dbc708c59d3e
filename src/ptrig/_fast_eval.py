"""Cached bulk evaluator for the rescaled p-trigonometric functions.

The coefficient banks need about 10^5 sin_p/cos_p values per exponent
and kind up to j = 1023, which rules out a Newton inversion per point.  This module
builds, once per exponent, piecewise Chebyshev tables of

    S_p(t) = sin_p(pi_p t),   t in [0, 1/4],

for p and for its conjugate p' (a table is cached per exponent, so
fast_trig(p) and fast_trig(p') share theirs).  The quarter period splits
at t = 1/4: the upper half is mapped to the lower half of the conjugate
exponent via

    sin_p(pi_p t)  = cos_p'(pi_p' (1/2 - t))^(p'-1)
    cos_p(pi_p t)  = sin_p'(pi_p' (1/2 - t))^(p'-1)

so every evaluation lands in a region where the table is accurate to
near machine precision.  The tables grade dyadically toward t = 0, where
sin_p has a u^(p+1) branch point, and switch to a three-term series once
the truncation error of the series is below 1e-17.  Table nodes are
produced by the safeguarded Newton inversion started from the classical
sine, so no table value depends on a table.  Construction is probed at
33 points: Newton started from the table itself runs until its residual
test accepts, which certifies the reference whatever the start, and a
table that disagrees with the reference is refused (ConvergenceError).
The public functions start the same inversion from these tables.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .config import DEFAULT_CONFIG
from .core import PExponent, _cos_from_y, invert_quarter, reduce_argument
from .errors import ConvergenceError

_DEG = 30  # Chebyshev degree per dyadic interval
_T_TOP = 0.25
# Chebyshev points of one interval, and chebfit's column-scaled design
# matrix for them: every interval solves one least-squares problem with it
_REF = np.cos(np.pi * (np.arange(_DEG + 1) + 0.5) / (_DEG + 1))
_VAN = chebyshev.chebvander(_REF, _DEG)
_SCALE = np.sqrt(np.square(_VAN.T).sum(1))
_FIT = _VAN / _SCALE
_RCOND = _REF.size * np.finfo(float).eps


class _QuarterTable:
    """Piecewise Chebyshev model of sin_p(pi_p t) on [0, 1/4]."""

    def __init__(self, pexp: PExponent):
        p = pexp.p
        self.p = p
        self.pi_p = pexp.pi_p
        # series sin_p(u) = u - s1 u^(p+1) + s2 u^(2p+1) + O(u^(3p+1))
        self.s1 = 1.0 / (p * (p + 1.0))
        self.s2 = (-p * p + 2.0 * p + 1.0) / (2.0 * p * p * (p + 1.0) * (2.0 * p + 1.0))
        u_series = 10.0 ** (-17.0 / (3.0 * p + 1.0))
        t_series = u_series / pexp.pi_p
        if t_series >= _T_TOP:
            self.n_intervals = 0
            self.t_floor = _T_TOP
            self.coefs = np.zeros((0, _DEG + 1))
            self._rows = self.coefs.T
            return
        self.n_intervals = max(1, math.ceil(math.log2(_T_TOP / t_series)))
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
        series = (t < self.t_floor) | (self.n_intervals == 0)
        if series.any():
            u = self.pi_p * t[series]
            up = u ** (self.p + 1.0)
            out[series] = u - self.s1 * up + self.s2 * up * u**self.p
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
        self.conj = self.pexp.conjugate
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
            s = self._dual.eval(0.5 - t[high])
            # (1 - s^p')^(1/p); exact 1 at the quarter point where s = 0.
            # log meets 0 at s = 0, and in the outer log at s = 1 (large p)
            with np.errstate(divide="ignore"):
                w = self.conj.p * np.log(s)
                out[high] = np.where(
                    s > 0.0, np.exp(np.log(-np.expm1(w)) / self.pexp.p), 1.0
                )
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
