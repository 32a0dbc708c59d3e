"""Riemann zeta on (1, oo) and the two basis-threshold equations.

The lower threshold is the root of pi_p^2 c_p = pi^3/(pi^2 - 8) inside
(4/3, 3/2); the upper threshold is the root of h(p) = 1 inside (11/5, 3),
where

    h(p) = pi / (p^2 sin(pi/p)^2) * (2 + pi^2 (p-2)/2)
           * ((1 - 2^-p') zeta(p') - 1).

Both are solved by halving a sign bracket until it holds two adjacent
doubles, the rule that also ends `invert_quarter`; the root is the end
with the smaller residual, and reruns are bitwise reproducible.
Zeta itself uses the alternating (eta) series with Cohen-Rodriguez
Villegas-Zagier acceleration at a fixed 64 terms, which is far below
1e-13 relative error on the whole range of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import c_p, check_exponent, decay_bound, large_p_bracket, pi_p
from .errors import BracketError, ConvergenceError

PI = math.pi
LOWER_THRESHOLD_RHS = PI**3 / (PI**2 - 8.0)
LOWER_BRACKET = (4.0 / 3.0, 3.0 / 2.0)
UPPER_BRACKET = (11.0 / 5.0, 3.0)


@dataclass(frozen=True)
class RootResult:
    """Root of a scalar equation with its certificate."""

    root: float
    residual: float
    bracket: tuple
    iterations: int
    trace: tuple = field(default=())


def zeta(q: float) -> float:
    """zeta(q) for q > 1 via the accelerated alternating series.

    eta(q) = sum (-1)^(k) (k+1)^-q is accelerated with the Chebyshev-based
    scheme of Cohen, Rodriguez Villegas and Zagier (n = 64 terms), then
    zeta(q) = eta(q) / (1 - 2^(1-q)).
    """
    q = check_exponent(q, "zeta", var="q")
    n = 64
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c * (k + 1.0) ** (-q)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    eta = s / d
    return eta / -math.expm1((1.0 - q) * math.log(2.0))


def odd_reciprocal_sum(q: float) -> float:
    """Sum of j^-q over odd j >= 1, i.e. (1 - 2^-q) zeta(q)."""
    q = check_exponent(q, "odd_reciprocal_sum", var="q")
    return -math.expm1(-q * math.log(2.0)) * zeta(q)


def lower_threshold_lhs(p: float) -> float:
    """pi_p^2 c_p, the level function of the small-p threshold equation."""
    p = check_exponent(p, "lower_threshold_lhs", 1.0, 2.0)
    return pi_p(p) ** 2 * c_p(p)


def upper_threshold_lhs(p: float) -> float:
    """The reduced level function h(p) of the large-p threshold equation."""
    p = check_exponent(p, "upper_threshold_lhs")
    conj = p / (p - 1.0)
    s = math.sin(PI / p)
    return PI / (p * p * s * s) * large_p_bracket(p) * (odd_reciprocal_sum(conj) - 1.0)


def _solve_bracketed(f, lo, hi):
    """Halve the sign bracket [lo, hi] of f until it holds two adjacent doubles.

    Returns the end with the smaller |f|.  iterations counts the halvings,
    one f evaluation each, and trace holds the midpoints in order.
    """
    flo, fhi = f(lo), f(hi)
    if not flo * fhi <= 0.0:  # NaN fails too
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    trace = []
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        fmid = f(mid)
        trace.append(mid)
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        mid = 0.5 * (lo + hi)
    root, residual = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    return RootResult(root, residual, (lo, hi), len(trace), tuple(trace))


def solve_lower_threshold() -> RootResult:
    """Root of pi_p^2 c_p = pi^3/(pi^2 - 8) inside (4/3, 3/2)."""

    def f(p):
        return lower_threshold_lhs(p) - LOWER_THRESHOLD_RHS

    return _solve_bracketed(f, *LOWER_BRACKET)


def solve_upper_threshold() -> RootResult:
    """Root of h(p) = 1 inside (11/5, 3).

    The unreduced form of the same equation, the decay bound's tail
    C (odd_reciprocal_sum(p') - 1) (C from core.decay_bound) equal to the
    lower bound 8/(pi pi_p) on b_1, is re-verified at the root to 1e-10;
    the two sides are linked by the conjugate identity p' pi_p' = p pi_p.
    """

    def f(p):
        return upper_threshold_lhs(p) - 1.0

    result = _solve_bracketed(f, *UPPER_BRACKET)
    C, q, _ = decay_bound(result.root)
    lhs = C * (odd_reciprocal_sum(q) - 1.0)
    rhs = 8.0 / (PI * pi_p(result.root))
    if abs(lhs - rhs) > 1e-10:
        raise ConvergenceError(
            f"unreduced threshold equation disagrees at the root: {lhs!r} vs {rhs!r}"
        )
    return result


def zeta_three_halves_sandwich():
    """Closed-form lower and upper bounds around zeta(3/2).

    The upper bound comes from splitting the integral representation at
    t = 1 and interpolating t/(e^t - 1) piecewise linearly with knot
    t0 = 2(e^2 - 3e + 1)/(e^2 - 2e - 1); the lower bound keeps the first
    two series terms and compares the rest with sqrt(3) * sum k^-2.
    Returns (lower, value, upper) with lower < value < upper.
    """
    e = math.e
    t0 = 2.0 * (e * e - 3.0 * e + 1.0) / (e * e - 2.0 * e - 1.0)
    upper = (2.0 / math.sqrt(PI)) * (
        2.0 * math.sqrt(2.0) * math.atan(1.0 / math.sqrt(2.0))
        + PI**2 / 6.0
        + t0 * t0 / 4.0
        - (t0 - 1.0) ** 2 / (2.0 * (e - 1.0) ** 2)
        - (t0 * (e - 2.0) + 1.0) / (e - 1.0)
    )
    lower = (4.0 + math.sqrt(2.0)) / 4.0 + math.sqrt(3.0) * (PI**2 / 6.0 - 1.25)
    value = zeta(1.5)
    if not lower < value < upper:
        raise ConvergenceError(
            f"zeta(3/2) sandwich violated: {lower!r} < {value!r} < {upper!r}"
        )
    return lower, value, upper


def convexity_scan(n: int = 1000) -> float:
    """Minimum second difference of log(pi_p^2 c_p) on a grid over (1.01, 1.99).

    Log-convexity of each factor makes every second difference nonnegative
    up to rounding; the scan certifies the single-crossing argument behind
    the lower threshold bracket.
    """
    lo, hi = 1.01, 1.99
    step = (hi - lo) / (n - 1)
    vals = [math.log(lower_threshold_lhs(lo + i * step)) for i in range(n)]
    return min(vals[i + 1] - 2.0 * vals[i] + vals[i - 1] for i in range(1, n - 1))
