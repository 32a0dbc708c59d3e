"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the code paths they check: direct
Euler-Maclaurin summation for zeta-type sums, the regularized incomplete
beta function for the quarter-period integral and its inverse, the
hypergeometric form of that integral for residuals at large p, and a
trapezoid/FFT route for bulk Fourier coefficients.
"""

import math

import numpy as np
import pytest
from scipy.special import betainc, betaincinv, hyp2f1


def zeta_oracle(q: float, terms: int = 1_000_000) -> float:
    """zeta(q) by direct summation with Euler-Maclaurin tail correction."""
    n = np.arange(1, terms + 1, dtype=float)
    partial = float(np.sum(n ** (-q)))
    N = float(terms)
    tail = N ** (1.0 - q) / (q - 1.0) - 0.5 * N ** (-q) + q * N ** (-q - 1.0) / 12.0
    return partial + tail


def _odd_midpoint_tail(q: float, N: float) -> float:
    """Sum of j^-q over odd j > N (N odd) by the Euler-Maclaurin midpoint rule."""
    return (N + 1.0) ** (1.0 - q) / (2.0 * (q - 1.0)) - q * (N + 1.0) ** (
        -q - 1.0
    ) / 12.0


def odd_sum_oracle(q: float, terms: int = 1_000_000) -> float:
    """Sum of j^-q over odd j, summing `terms` terms plus a midpoint tail."""
    j = np.arange(1, 2 * terms, 2, dtype=float)
    partial = float(np.sum(j ** (-q)))
    return partial + _odd_midpoint_tail(q, j[-1])


def odd_tail_oracle(q: float, J: int, terms: int = 1_000_000) -> float:
    """Sum of j^-q over odd j > J, summing `terms` terms from J + 2 plus a
    midpoint tail.

    The tail is summed directly, never as a full zeta sum minus a partial
    sum, so it shares neither route nor cancellation with the code it checks.
    """
    j = np.arange(J + 2, J + 2 * terms + 1, 2, dtype=float)
    partial = float(np.sum(j ** (-q)))
    return partial + _odd_midpoint_tail(q, j[-1])


def incomplete_F_oracle(y, p: float):
    """Quarter-period integral through the regularized incomplete beta."""
    from ptrig import pi_p

    y = np.asarray(y, dtype=float)
    return (pi_p(p) / 2.0) * betainc(1.0 / p, 1.0 - 1.0 / p, y**p)


def sin_p_oracle(u, p: float):
    """Inverse of the quarter-period integral via the inverse beta."""
    from ptrig import pi_p

    u = np.asarray(u, dtype=float)
    frac = np.clip(u / (pi_p(p) / 2.0), 0.0, 1.0)
    return betaincinv(1.0 / p, 1.0 - 1.0 / p, frac) ** (1.0 / p)


def diagonal_residual(t, y, c, p: float):
    """(own, residual, u): the F_q residual of y = sin_p(pi_p t), c = cos_p(pi_p t).

    F_q(z) = z 2F1(1/q, 1/q; 1 + 1/q; z^q) is the quarter-period integral
    (scipy's hyp2f1), taken on whichever side of the p-diagonal has
    z^q <= 1/2, where its series converges and no power that matters
    underflows (`sin_p_oracle` inverts y^p, which does at large p: it
    reads 8.4e-4 for 5.0008e-5 at p = 100, t = 2.5e-5):

    - own, where y^p <= 1/2: |F_p(y) - u| with u = pi_p t;
    - elsewhere: |F_p'(s) - u| with s = c^(p-1) = sin_p'(u) and
      u = pi_p' (1/2 - t), since cos_p(pi_p t) = s^(p'-1).

    As F_q' >= 1, the residual bounds the error of z, up to the rounding
    of F_q and of u.
    """
    from ptrig import pi_p

    t, y, c = (np.asarray(a, dtype=float) for a in (t, y, c))
    q = p / (p - 1.0)
    own = y**p <= 0.5
    z = np.where(own, y, c ** (p - 1.0))
    e = np.where(own, p, q)
    u = np.where(own, pi_p(p) * t, pi_p(q) * (0.5 - t))
    return own, np.abs(z * hyp2f1(1.0 / e, 1.0 / e, 1.0 + 1.0 / e, z**e) - u), u


def cosine_coeffs_fft(p: float, samples: int = 2**20) -> np.ndarray:
    """All cosine coefficients of cos_p(pi_p x) by trapezoid/FFT.

    Index j of the result approximates b_j with aliasing error of the
    order of the coefficients beyond 2*samples, i.e. far below 1e-8 for
    every exponent exercised here.
    """
    from ptrig._fast_eval import fast_trig

    trig = fast_trig(p)
    g = trig.cos_scaled(np.arange(samples + 1) / samples)
    ext = np.concatenate([g, g[-2:0:-1]])
    return np.fft.rfft(ext).real / samples


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
