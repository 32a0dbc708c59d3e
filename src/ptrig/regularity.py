"""Sobolev-regularity diagnostics for the rescaled p-sine.

The sine coefficients obey

    |a_j| <= 16 pi_p^2 c_p / pi^3 * j^-3                       (1 < p < 2)
    |a_j| <= 2 pi_p pi_p' / (pi^3 (p-1)) (2 + pi^2 (p-2)/2) j^-(p'+1)
                                                               (p > 2, j >= 3)

so sin_p(pi_p .) lies in the Sobolev space of every order below
r(p) = p' + 1/2 when p > 2.  This module exposes the weighted partial
sums, slack checks for the two bounds, and a log-log decay-slope
estimate over the computed coefficients.  Slope assertions downstream
are one-sided: the upper bounds are proven, their sharpness is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import EvalConfig
from .core import PExponent, c_p, check_exponent, pi_p
from .errors import ConvergenceError, DomainError, InsufficientCoefficients
from .fourier import KIND_SINE, _check_index, _odd_coeffs, _worst_slack

PI = math.pi

NOISE_FLOOR = 1e-13
_MIN_FIT_POINTS = 8


@dataclass(frozen=True)
class RegularityReport:
    """Weighted-sum and decay diagnostics at one exponent."""

    p: float
    rho: float
    J: int
    partial_sum: float
    slope_estimate: float
    r_threshold: float | None


def sobolev_partial(p, rho: float, J: int, config: EvalConfig | None = None) -> float:
    """Partial sum of (1 + j^2)^rho a_j^2 over odd j <= J.

    A sum beyond the largest double raises ConvergenceError.
    """
    if not 0.0 <= rho < math.inf:
        raise DomainError(f"sobolev_partial requires a finite rho >= 0, got {rho!r}")
    J = _check_index(J, 1, "sobolev_partial", "J")
    a, _ = _odd_coeffs(PExponent.of(p), KIND_SINE, 1, J, config)
    js = np.arange(1, J + 1, 2, dtype=float)
    with np.errstate(over="ignore"):
        total = float(np.sum((1.0 + js * js) ** rho * a * a))
    if not math.isfinite(total):
        raise ConvergenceError(f"sobolev_partial overflows at rho={rho!r}, J={J}")
    return total


def sine_bound_small_p(p: float, j: int) -> float:
    """Decay bound 16 pi_p^2 c_p / pi^3 * j^-3 for 1 < p < 2."""
    p = check_exponent(p, "sine_bound_small_p", 1.0, 2.0)
    j = _check_index(j, 1, "sine_bound_small_p")
    return 16.0 * pi_p(p) ** 2 * c_p(p) / PI**3 / float(j) ** 3


def sine_bound_large_p(p: float, j: int) -> float:
    """Decay bound scaling like j^-(p'+1) for p > 2, odd j >= 3."""
    p = check_exponent(p, "sine_bound_large_p", 2.0)
    j = _check_index(j, 3, "sine_bound_large_p")
    conj = p / (p - 1.0)
    pref = 2.0 * pi_p(p) * pi_p(conj) / (PI**3 * (p - 1.0))
    return pref * (2.0 + 0.5 * PI * PI * (p - 2.0)) * float(j) ** (-(conj + 1.0))


def sine_bound_check_small_p(p: float, J: int, config: EvalConfig | None = None) -> float:
    """Worst slack (bound - |a_j|) over odd j <= J for 1 < p < 2."""
    return _worst_slack(sine_bound_small_p, KIND_SINE, p, 1, J, config, "sine_bound_check_small_p")


def sine_bound_check_large_p(p: float, J: int, config: EvalConfig | None = None) -> float:
    """Worst slack (bound - |a_j|) over odd 3 <= j <= J for p > 2."""
    return _worst_slack(sine_bound_large_p, KIND_SINE, p, 3, J, config, "sine_bound_check_large_p")


def decay_slope(p, Jmax: int, config: EvalConfig | None = None) -> float:
    """Least-squares slope of log|a_j| against log j over odd j in [11, Jmax].

    Coefficients at or below the 1e-13 noise floor are excluded; fewer
    than eight usable points (the classical p = 2 case in particular)
    raise InsufficientCoefficients.
    """
    Jmax = _check_index(Jmax, 51, "decay_slope", "Jmax")
    pexp = PExponent.of(p)
    a, _ = _odd_coeffs(pexp, KIND_SINE, 11, Jmax, config)
    js = np.arange(11, Jmax + 1, 2, dtype=float)
    usable = np.abs(a) > NOISE_FLOOR
    if usable.sum() < _MIN_FIT_POINTS:
        raise InsufficientCoefficients(
            f"only {usable.sum()} coefficients above the noise floor for p={pexp.p}"
        )
    slope, _ = np.polyfit(np.log(js[usable]), np.log(np.abs(a[usable])), 1)
    return float(slope)


def regularity_report(p, rho: float, J: int, config: EvalConfig | None = None) -> RegularityReport:
    """Bundle the weighted partial sum, decay slope, and threshold order."""
    pexp = PExponent.of(p)
    J = _check_index(J, 1, "regularity_report", "J")
    partial = sobolev_partial(pexp, rho, J, config)
    try:
        slope = decay_slope(pexp, max(J, 51), config)
    except InsufficientCoefficients:
        slope = math.nan
    threshold = pexp.p_conj + 0.5 if pexp.p > 2.0 else None
    return RegularityReport(
        p=pexp.p,
        rho=rho,
        J=J,
        partial_sum=partial,
        slope_estimate=slope,
        r_threshold=threshold,
    )
