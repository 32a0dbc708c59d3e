"""Fourier coefficients of the rescaled p-sine and p-cosine.

The sine coefficients a_j of sin_p(pi_p x) and cosine coefficients b_j of
cos_p(pi_p x) vanish for even j by symmetry; for odd j they are computed
as 4 * int_0^(1/2) over panels aligned with the quarter oscillations of
the classical factor, with a bisection refinement supplying the error
estimate.  The decay bounds

    |b_j| < 8 pi_p c_p / (j^2 pi^2)                       (1 < p < 2)
    |b_j| < 2 pi_p' / (pi^2 (p-1)) (2 + pi^2 (p-2)/2) j^-p'   (p > 2, j >= 3)

turn the truncated tail of the basis criterion

    sum over odd j >= 3 of |b_j|  <  |b_1|

into a certified remainder: the part beyond the truncation index is
dominated by 1/(2(J-1)) (small p) or by an odd partial zeta sum (large p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._fast_eval import fast_trig
from .config import DEFAULT_CONFIG, EvalConfig
from .core import PExponent, c_p, check_exponent, pi_p
from .errors import DomainError
from .quadrature import integrate_panels
from .thresholds import odd_reciprocal_sum

PI = math.pi

KIND_SINE = "sine_a"
KIND_COSINE = "cosine_b"


@dataclass
class CoeffTable:
    """Indexed coefficients with per-entry error estimates.

    entries maps j to (value, err_est); the sine table starts at j = 1,
    the cosine table at j = 0.  Even indices are exactly zero.
    """

    p: PExponent
    kind: str
    entries: dict
    j_max: int


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the truncated basis criterion at one exponent."""

    p: float
    b1: float
    tail_computed: float
    tail_remainder_bound: float
    J: int
    margin: float
    holds: bool


def _aligned_edges(j: int) -> np.ndarray:
    """Panel edges k/(2j), k = 0..j, matching the zeros of cos(j pi x)."""
    return np.arange(j + 1, dtype=float) / (2.0 * j)


def _coeff_quadrature(p: float, j: int, kind: str, config: EvalConfig | None = None):
    """Oscillatory quadrature for one odd-index coefficient (no shortcuts)."""
    cfg = config or DEFAULT_CONFIG
    trig = fast_trig(float(p))
    if kind == KIND_COSINE:
        scaled, classical = trig.cos_scaled, np.cos
    else:
        scaled, classical = trig.sin_scaled, np.sin

    def f(x):
        return scaled(x) * classical(j * PI * x)

    value, err = integrate_panels(f, _aligned_edges(j), abs_tol=cfg.rel_tol)
    return 4.0 * value, 4.0 * err


@lru_cache(maxsize=200_000)
def _coeff_cached(p: float, j: int, kind: str):
    return _coeff_quadrature(p, j, kind, None)


def _check_index(j, first: int, name: str) -> int:
    """j as an int, if it is an integer >= first."""
    if not isinstance(j, (int, np.integer)) or j < first:
        raise DomainError(f"{name} requires an integer j >= {first}, got {j!r}")
    return int(j)


def _coeff(p, j, kind: str, config: EvalConfig | None, name: str, first: int):
    """(value, err_est) of one coefficient; odd j by quadrature, cached by default."""
    pexp = PExponent.of(p)
    j = _check_index(j, first, name)
    if j % 2 == 0:
        return 0.0, 0.0
    if pexp.p == 2.0:
        return (1.0, 0.0) if j == 1 else (0.0, 0.0)
    if config is None:
        return _coeff_cached(pexp.p, j, kind)
    return _coeff_quadrature(pexp.p, j, kind, config)


def cosine_coeff(p, j: int, config: EvalConfig | None = None):
    """Cosine coefficient b_j(p) = 2 int_0^1 cos_p(pi_p x) cos(j pi x) dx.

    Even j (including j = 0) vanish by the antisymmetry of cos_p(pi_p x)
    about x = 1/2 and are returned exactly; p = 2 short-circuits to the
    classical table.  Returns (value, err_est).
    """
    return _coeff(p, j, KIND_COSINE, config, "cosine_coeff", 0)


def sine_coeff(p, j: int, config: EvalConfig | None = None):
    """Sine coefficient a_j(p) = 2 int_0^1 sin_p(pi_p x) sin(j pi x) dx.

    Even j vanish exactly; p = 2 short-circuits.  Returns (value, err_est).
    """
    return _coeff(p, j, KIND_SINE, config, "sine_coeff", 1)


def coeff_table(p, j_max: int, kind: str = KIND_COSINE, config: EvalConfig | None = None):
    """Assemble a CoeffTable for 0 <= j <= j_max (sine tables start at 1)."""
    if kind not in (KIND_SINE, KIND_COSINE):
        raise DomainError(f"kind must be {KIND_SINE!r} or {KIND_COSINE!r}, got {kind!r}")
    if j_max < 1:
        raise DomainError(f"j_max must be at least 1, got {j_max!r}")
    pexp = PExponent.of(p)
    start = 0 if kind == KIND_COSINE else 1
    fetch = cosine_coeff if kind == KIND_COSINE else sine_coeff
    entries = {j: fetch(pexp, j, config) for j in range(start, j_max + 1)}
    return CoeffTable(p=pexp, kind=kind, entries=entries, j_max=j_max)


def coeff_relation_check(p, j: int, config: EvalConfig | None = None) -> float:
    """Residual |b_j - (j pi/pi_p) a_j| from two independent quadratures."""
    pexp = PExponent.of(p)
    if j % 2 == 0:
        raise DomainError(f"relation check requires odd j, got {j!r}")
    b, _ = cosine_coeff(pexp, j, config)
    a, _ = sine_coeff(pexp, j, config)
    return abs(b - (j * PI / pexp.pi_p) * a)


def cosine_bound_small_p(p: float, j: int) -> float:
    """Decay bound 8 pi_p c_p / (j^2 pi^2) for 1 < p < 2, all j >= 1."""
    p = check_exponent(p, "cosine_bound_small_p", 1.0, 2.0)
    j = _check_index(j, 1, "cosine_bound_small_p")
    return 8.0 * pi_p(p) * c_p(p) / (j * j * PI * PI)


def _large_p_prefactor(p: float) -> float:
    conj = p / (p - 1.0)
    return 2.0 * pi_p(conj) / (PI * PI * (p - 1.0)) * (2.0 + 0.5 * PI * PI * (p - 2.0))


def cosine_bound_large_p(p: float, j: int) -> float:
    """Decay bound C(p) j^-p' for p > 2, odd j >= 3."""
    p = check_exponent(p, "cosine_bound_large_p", 2.0)
    j = _check_index(j, 3, "cosine_bound_large_p")
    return _large_p_prefactor(p) * float(j) ** (-(p / (p - 1.0)))


def _worst_slack(bound, coeff, p, first: int, J: int, config: EvalConfig | None) -> float:
    """min over odd first <= j <= J of bound(p, j) - |coeff(p, j)|."""
    if J < first:
        raise DomainError(f"bound check requires J >= {first}, got {J!r}")
    return min(bound(p, j) - abs(coeff(p, j, config)[0]) for j in range(first, J + 1, 2))


def bound_check_small_p(p: float, J: int, config: EvalConfig | None = None) -> float:
    """Worst slack (bound - |b_j|) over odd j <= J for 1 < p < 2."""
    return _worst_slack(cosine_bound_small_p, cosine_coeff, p, 1, J, config)


def bound_check_large_p(p: float, J: int, config: EvalConfig | None = None) -> float:
    """Worst slack (bound - |b_j|) over odd 3 <= j <= J for p > 2."""
    return _worst_slack(cosine_bound_large_p, cosine_coeff, p, 3, J, config)


def _odd_partial_sum(q: float, J: int) -> float:
    """Sum of j^-q over odd 1 <= j <= J (fixed order, reproducible)."""
    js = np.arange(1, J + 1, 2, dtype=float)
    return float(np.sum(js ** (-q)))


def tail_remainder_bound(p: float, J: int) -> float:
    """Rigorous upper bound on the coefficient tail sum over odd j > J.

    For 1 < p < 2 the j^-2 decay bound is summed against the enclosure
    sum_{odd j > J} j^-2 < 1/(2(J-1)); for p > 2 the j^-p' bound is summed
    exactly via the odd zeta sum minus its partial sum.  p = 2 has a
    single nonzero coefficient and returns 0.
    """
    p = check_exponent(p, "tail_remainder_bound")
    if J < 3 or J % 2 == 0:
        raise DomainError(f"tail bound requires odd J >= 3, got {J!r}")
    if p == 2.0:
        return 0.0
    if p < 2.0:
        return 8.0 * pi_p(p) * c_p(p) / (PI * PI) * (0.5 / (J - 1.0))
    q = p / (p - 1.0)
    tail = odd_reciprocal_sum(q) - _odd_partial_sum(q, J)
    return _large_p_prefactor(p) * max(tail, 0.0)


def basis_criterion(p, J: int = 999, config: EvalConfig | None = None) -> CriterionReport:
    """Evaluate the truncated basis criterion with a certified remainder.

    tail_computed sums |b_j| over odd 3 <= j <= J from quadrature, the
    remainder bound covers j > J analytically, and the margin is
    |b_1| - tail_computed - remainder.  The criterion is sufficient, not
    necessary: holds = False only means no conclusion at this truncation.
    """
    pexp = PExponent.of(p)
    if J < 3 or J % 2 == 0:
        raise DomainError(f"basis criterion requires odd J >= 3, got {J!r}")
    b1, _ = cosine_coeff(pexp, 1, config)
    tail = 0.0
    for j in range(3, J + 1, 2):
        tail += abs(cosine_coeff(pexp, j, config)[0])
    remainder = tail_remainder_bound(pexp.p, J)
    margin = abs(b1) - tail - remainder
    return CriterionReport(
        p=pexp.p,
        b1=b1,
        tail_computed=tail,
        tail_remainder_bound=remainder,
        J=J,
        margin=margin,
        holds=margin > 0.0,
    )


def compare_bounds(p: float, J: int = 199, config: EvalConfig | None = None):
    """Tail and first-coefficient bounds of this implementation versus the
    earlier dilation-operator estimates, together with computed values.

    Returns an ordered list of (name, value) pairs.  The comparisons that
    are provable in the covered regimes (tail bound sharper for 1 < p < 2
    and for 2 <= p <= 3; first-coefficient bound sharper for p > 2) are
    re-checked and raise if violated.
    """
    p = check_exponent(p, "compare_bounds")
    if p == 2.0:
        raise DomainError("compare_bounds requires p != 2 (pick a branch)")
    pip = pi_p(p)
    report = basis_criterion(p, J=J if J % 2 == 1 else J - 1, config=config)
    rows = [("b1_computed", report.b1), ("tail_computed", report.tail_computed)]
    # two-branch prior lower bound for the first coefficient
    p_star = (72.0 * (PI - 2.0) - 2.0 * PI**3) / (96.0 * (PI - 2.0) - 3.0 * PI**3)
    if p < p_star:
        b1_prior = PI * (p - 1.0) / (2.0 * p - 1.0) - (PI - 2.0) * (p - 1.0) / (
            3.0 * p - 2.0
        )
    else:
        b1_prior = PI * (p - 1.0) / (2.0 * p - 1.0) - PI**3 * (p - 1.0) / (
            24.0 * (4.0 * p - 3.0)
        )
    if p < 2.0:
        tail_new = pip * c_p(p) * (PI * PI - 8.0) / (PI * PI)
        tail_prior = pip * (PI * PI - 8.0) / (PI * PI)
        b1_new = PI / pip
        rows += [
            ("tail_bound_this_work", tail_new),
            ("tail_bound_prior", tail_prior),
            ("b1_lower_this_work", b1_new),
            ("b1_lower_prior", b1_prior),
        ]
        if tail_new > tail_prior:
            raise AssertionError("small-p tail bound failed to improve on prior work")
    else:
        odd_tail = odd_reciprocal_sum(p / (p - 1.0)) - 1.0
        bracket_new = 2.0 + 0.5 * PI * PI * (p - 2.0)
        bracket_prior = 4.0 + PI * (p - 1.0)
        common = 2.0 * pi_p(p / (p - 1.0)) / (PI * PI * (p - 1.0))
        rows += [
            ("tail_bound_this_work", common * bracket_new * odd_tail),
            ("tail_bound_prior", common * bracket_prior * odd_tail),
            ("bracket_this_work", bracket_new),
            ("bracket_prior", bracket_prior),
            ("b1_lower_this_work", 8.0 / (PI * pip)),
            ("b1_lower_prior", b1_prior),
        ]
        if p <= 3.0 and bracket_new > bracket_prior:
            raise AssertionError("large-p tail bound failed to improve on prior work")
        if 8.0 / (PI * pip) <= b1_prior:
            raise AssertionError(
                "large-p first-coefficient bound failed to improve on prior work"
            )
    return rows
