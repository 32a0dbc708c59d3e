"""Cached bulk evaluator for the rescaled p-trigonometric functions.

The coefficient banks need about 10^5 sin_p/cos_p values per exponent
and kind up to j = 1023, which rules out a Newton inversion per point.  This module
builds, once per exponent, the table

    S_p(t) = sin_p(pi_p t),   t in [0, t_d(p)],

for p and for its conjugate p'.  t_d(p) is the p-diagonal, where
sin_p^p = cos_p^p = 1/2, and t_d(p) + t_d(p') = 1/2.  The quarter period
splits there: above it, the upper part is mapped to the lower part of the
conjugate exponent via

    sin_p(pi_p t)  = (1 - s^p')^(1/p),   cos_p(pi_p t) = s^(p'-1),
    s = sin_p'(pi_p' (1/2 - t)),

and below it cos_p = (1 - y^p)^(1/p) with y = S_p(t).  Either side forms
1 - x only with x <= 1/2, so no subtraction cancels at any p.  Each table
is the power series of sin_p in w = u^p, found by series reversion: its
coefficients follow from y' = (1 - y^p)^(1/p) by Miller's recurrence for
powers of a series, and it must reach double precision at t_d(p), or the
table is refused (ConvergenceError).  Each table checks its series when
built, at 33 points against the integral it inverts, F_p(y) = pi_p t
summed as a series of positive terms, and is refused if it misses it: a
check independent of the series and of core's Newton inversion, which the
public functions start from these tables.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import PExponent, _cos_from_y, _log_one_minus_pow, reduce_argument
from .errors import ConvergenceError, DomainError

_TERMS = 64  # most power series terms per exponent
_TAIL = 8  # trailing terms that must be negligible where the series serves
_TOL = 2.0**-46  # relative residual of F_q(y) = pi_q t that a table must meet
# where a table is checked, as fractions of t_d: 33 golden-ratio points
_PROBE = np.mod(0.5 * (math.sqrt(5.0) - 1.0) * np.arange(1, 34), 1.0)


def _series(p: float, w_top: float) -> np.ndarray:
    """Coefficients e_m of sin_p(u) = u * sum_m e_m w^m, w = u^p, e_0 = 1.

    sin_p solves y' = (1 - y^p)^(1/p).  With y = u h(w) and h = sum e_m w^m,
    y' = sum (mp + 1) e_m w^m and y^p = w k with k = h^p, so
    e_m = d_m / (mp + 1) for d = (1 - w k)^(1/p).  Both powers come from
    J. C. P. Miller's recurrence for a power of a power series (Knuth,
    TAOCP Vol. 2, 4.7), each d_m and k_m from the terms before it.  The
    recurrence stops once the series serves w_top: its last _TAIL terms
    e_m w_top^m are each at most 2^-60 of the first (which is 1), and the
    absolute sum of all its terms is at most 4 (an inf or NaN term fails
    both).  If it has not after _TERMS terms, ConvergenceError.
    """
    e, k, d = (np.zeros(_TERMS) for _ in range(3))
    e[0] = k[0] = d[0] = 1.0
    j = np.arange(1.0, _TERMS)
    with np.errstate(over="ignore"):  # an inf power fails the test below
        w_pow = w_top ** np.arange(_TERMS)
    run, total = 0, 1.0  # the trailing terms at most 2^-60, the absolute sum
    for n in range(1, _TERMS):
        # Miller's weights (a + 1) j - n, as a j + (j - n) with j - n exact;
        # coefficient j of 1 - w k is -k_(j-1)
        d[n] = -np.dot((j[:n] / p + (j[:n] - n)) * k[:n], d[n - 1 :: -1]) / n
        e[n] = d[n] / (n * p + 1.0)
        k[n] = np.dot((j[:n] * p + (j[:n] - n)) * e[1 : n + 1], k[n - 1 :: -1]) / n
        term = abs(e[n]) * w_pow[n]
        total += term
        run = run + 1 if term <= 2.0**-60 else 0
        if run >= _TAIL and total <= 4.0:
            return e[: n + 1]
    raise ConvergenceError(
        f"fast evaluator tables refused: the series of p={p!r} does not reach "
        f"w={w_top!r} in {_TERMS} terms"
    )


def _hyp2f1(b: float, z):
    """2F1(b, b; 1 + b; z) for 0 <= z <= 1/2, elementwise, as a running sum
    of 61 terms.  Term n is below z^n, and once a term is under 2^-60 of the
    sum, it and every later one are below half an ulp of it."""
    ratio = [(b + n) ** 2 / ((b + 1.0 + n) * (n + 1.0)) for n in range(60)]
    steps = np.ones(np.shape(z) + (61,))  # term n is the product of steps 0..n
    steps[..., 1:] = np.multiply.outer(z, ratio)
    return np.cumsum(np.cumprod(steps, axis=-1), axis=-1)[..., -1]


def _diagonal(pexp: PExponent) -> float:
    """t_d(p), where sin_p(pi_p t_d)^p = 1/2, from the smaller exponent a of
    the pair: pi_a T = F_a(2^(-1/a)) = 2^(-1/a) 2F1(b, b; 1 + b; 1/2) with
    b = 1/a.  t_d = T for p <= p' and 1/2 - T otherwise, so
    t_d(p) + t_d(p') = 1/2."""
    own = pexp.p <= pexp.p_conj
    small = pexp if own else pexp.conjugate
    b = 1.0 / small.p
    T = 2.0**-b * float(_hyp2f1(b, 0.5)) / small.pi_p
    return T if own else 0.5 - T


class _QuarterTable:
    """sin_p(pi_p t) on [0, t_d(p)] by its power series, checked when built.

    The check is against the integral the series inverts: at the _PROBE
    points t of [0, t_d(p)], y = S_p(t) must meet |F_p(y) - pi_p t| <=
    _TOL pi_p t, with F_p(y) = y 2F1(1/p, 1/p; 1 + 1/p; y^p) summed where
    y^p <= 1/2 (NaN fails).  Since F_p' >= 1, the residual bounds
    |y - sin_p(pi_p t)| there.  A table that misses it raises
    ConvergenceError.
    """

    def __init__(self, pexp: PExponent):
        self.p = pexp.p
        self.pi_p = pexp.pi_p
        self.t_d = _diagonal(pexp)
        self.series = _series(self.p, (self.pi_p * self.t_d) ** self.p)
        t = _PROBE * self.t_d
        y, u = self.eval(t), self.pi_p * t
        z = y**self.p
        if not (np.all(z <= 0.5)
                and np.all(abs(y * _hyp2f1(1.0 / self.p, z) - u) <= _TOL * u)):
            raise ConvergenceError(
                f"fast evaluator table for p={self.p} failed validation"
            )

    def eval(self, t):
        """sin_p(pi_p t) for t in [0, t_d(p)], by Horner in w = u^p."""
        u = self.pi_p * np.asarray(t, dtype=float)
        w = u**self.p
        acc = np.full_like(w, self.series[-1])
        for c in self.series[-2::-1]:
            acc *= w
            acc += c
        return u * acc


class FastPTrig:
    """Vectorized sin_p(pi_p t), cos_p(pi_p t) for arbitrary real t."""

    def __init__(self, p: float):
        self.pexp = PExponent.of(p)
        try:
            self.conj = self.pexp.conjugate
        except DomainError as exc:  # p above 2^53: no table for the upper part
            raise ConvergenceError(f"fast evaluator tables refused: {exc}") from None
        self._own = _QuarterTable(self.pexp)
        self._dual = _QuarterTable(self.conj)

    def _split(self, t):
        """(t, low): t as an array and the mask of t <= t_d(p), the own table's part."""
        t = np.asarray(t, dtype=float)
        return t, t <= self._own.t_d

    def _quarter_sin(self, t):
        """sin_p(pi_p t) on [0, 1/2] via the conjugate split at t_d(p)."""
        t, low = self._split(t)
        out = np.empty_like(t)
        out[low] = self._own.eval(t[low])
        s = self._dual.eval(0.5 - t[~low])
        # (1 - s^p')^(1/p), exactly 1 at the quarter point where s = 0
        out[~low] = np.exp(_log_one_minus_pow(s, 1.0 - s, self.conj.p) / self.pexp.p)
        return out

    def _quarter_cos(self, t):
        """cos_p(pi_p t) on [0, 1/2] via the conjugate split at t_d(p)."""
        t, low = self._split(t)
        out = np.empty_like(t)
        out[low] = _cos_from_y(self._own.eval(t[low]), self.pexp.p)
        # p' - 1 as 1/(p - 1): for large p, p' - 1 would keep only about
        # eps p of relative accuracy, and s^(p'-1) with it
        out[~low] = self._dual.eval(0.5 - t[~low]) ** (1.0 / (self.pexp.p - 1.0))
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


@lru_cache(maxsize=64)
def fast_trig(p: float) -> FastPTrig:
    """Per-exponent cached evaluator (construction is deterministic)."""
    return FastPTrig(float(p))
