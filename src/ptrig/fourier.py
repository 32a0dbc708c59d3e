"""Fourier coefficients of the rescaled p-sine and p-cosine.

The sine coefficients a_j of sin_p(pi_p x) and cosine coefficients b_j of
cos_p(pi_p x) vanish for even j by symmetry.  Odd b_j are computed as
4 * int_0^(1/2) in banks, one per exponent and tier (odd j <= 127, then
odd j in (T/2, T] for T = 2^k - 1).  A bank samples cos_p(pi_p x) once on
the graded grid of ptrig.quadrature over [0, 1/2], with panels
1/(2(T+1)) wide, a quarter oscillation of cos(T pi x), graded dyadically
into both endpoint singularities.  On the uniform panels the sums over j
are one real FFT per Gauss-node column; on the graded end panels, all
within one panel of 0 or 1/2, they are Taylor series in j of the phase,
summed against moments of the samples.  The value is the sum on the grid
with every panel halved; the error estimate is its gap to the unhalved
sum plus a bound on the rounding of the sums.  A coefficient depends
only on (p, j).

Odd a_j need no quadrature of their own: d/dx sin_p(pi_p x) =
pi_p cos_p(pi_p x) and sin_p(pi_p) = 0, so integrating by parts gives
a_j = pi_p b_j / (j pi) exactly, and value and estimate are scaled alike.

The decay bounds

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
from .errors import ConvergenceError, DomainError
from .quadrature import GAUSS_OFFSETS, graded_grid, halved_sum, uniform_runs
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
    quadrature_err: float
    J: int
    margin: float
    holds: bool


_CHUNK = 16384  # table evaluations per call, to bound the temporaries
# Taylor terms of the end-panel phases, which are at most pi/2: the first
# term left out is below (pi/2)^28 / 28! < 1e-24
_MOMENTS = 14
_EVEN_FACT = np.array([math.factorial(2 * k) for k in range(_MOMENTS)], dtype=float)
_ODD_FACT = _EVEN_FACT * np.arange(1, 2 * _MOMENTS, 2)  # (2k + 1)!


def _tier(j: int):
    """(first, last) odd index of the tier of odd j: [1, 127], then
    (T/2, T] for T = 2^k - 1."""
    last = max(127, (1 << int(j).bit_length()) - 1)
    return (1 if last == 127 else last // 2 + 2), last


def _samples(scaled, x: np.ndarray) -> np.ndarray:
    """scaled(x) in chunks of _CHUNK points."""
    return np.concatenate([scaled(x[i : i + _CHUNK]) for i in range(0, x.size, _CHUNK)])


def _moments(z, f, odd: bool):
    """sum_i f_i z_i^(2k + odd) for k < _MOMENTS: one matrix-vector product
    with power rows built by in-place products."""
    powers = np.empty((_MOMENTS, z.size))
    powers[0] = z if odd else 1.0
    square = z * z
    for k in range(1, _MOMENTS):
        np.multiply(powers[k - 1], square, out=powers[k])
    return powers @ f


def _coeff_quadrature(p: float, j):
    """(value, err_est) of odd cosine coefficients b_j by the tier quadrature.

    j is an odd int or an array of odd indices from one tier.  The whole
    tier is computed from fresh samples of cos_p(pi_p x), with no cache
    and no p = 2 shortcut, so a coefficient comes out the same whichever
    indices are asked for alongside it.

    On the uniform panels of each grid (panel r spanning (k + r + [0, 1])
    h/k, see `uniform_runs`), node q of panel r contributes phase
    pi j (k + r + eta_q) h/k.  With L = 4(T+1)k, L h/k = 2, so its r part
    is the exact integer phase j r mod L: the sums over r for every j are
    one real FFT of length L per node column, and the real part of a
    twiddle e^(i pi j (k + eta_q) h/k) per column finishes them.

    The graded end panels lie within h of 0 or 1/2.  With theta = j pi h
    and z = x/h near 0 or z = (1/2 - x)/h near 1/2, both exact since h is
    a power of two, the phase theta z is at most pi/2, and for odd j

        cos(j pi x) = sum_k (-theta^2)^k z^(2k) / (2k)!                 near 0
        cos(j pi x) = s_j sum_k (-theta^2)^k theta z^(2k+1) / (2k+1)!   near 1/2

    with s_j = (-1)^((j-1)/2), so each end is _MOMENTS moments of the
    samples and one small product for every j of the tier.  The error
    estimate is the halving gap plus 4 eps sum |w f| over the halved grid,
    a bound on the rounding of the FFT and moment sums, which the gap alone
    falls below.
    """
    js = np.asarray(j)
    first, last = _tier(js.max())
    h = 0.5 / (last + 1)
    x, w, nc = graded_grid((0.0, 0.5), h)
    f = w * _samples(fast_trig(float(p)).cos_scaled, x)
    rows = np.arange(first, last + 1, 2)
    theta = rows * (PI * h)
    powers = np.vander(-theta * theta, _MOMENTS, increasing=True)
    left = powers / _EVEN_FACT
    right = powers * (np.where(rows % 4 == 1, theta, -theta)[:, None] / _ODD_FACT)
    sums = np.empty((rows.size, 2))  # (unhalved, halved) per j
    for g, ((k, run), lo, hi) in enumerate(zip(uniform_runs(nc), (0, nc), (nc, 3 * nc))):
        panels = f[run].reshape(-1, GAUSS_OFFSETS.size)
        spectrum = np.fft.rfft(panels, n=4 * (last + 1) * k, axis=0)[rows].conj()
        twiddle = np.exp(1j * PI * np.outer(rows * (h / k), k + GAUSS_OFFSETS))
        near0, near_half = slice(lo, run.start), slice(run.stop, hi)
        sums[:, g] = (
            np.real(twiddle * spectrum).sum(axis=1)
            + left @ _moments(x[near0] / h, f[near0], False)
            + right @ _moments((0.5 - x[near_half]) / h, f[near_half], True)
        )
    values = 4.0 * sums[:, 1]
    rounding = 4.0 * np.finfo(float).eps * np.abs(f[nc:]).sum()
    pick = (js - first) // 2
    return values[pick], (np.abs(values - 4.0 * sums[:, 0]) + rounding)[pick]


@lru_cache(maxsize=1024)
def _coeff_cached(p: float, last: int):
    """The bank of one tier: values and error estimates of its odd b_j."""
    return _coeff_quadrature(p, np.arange(_tier(last)[0], last + 1, 2))


def _check_index(j, first: int, name: str, var: str = "j", stop=None, odd: bool = False) -> int:
    """j as an int, if it is an integer (not a bool) >= first (and < stop,
    when given; odd, when asked).

    Otherwise raises DomainError naming the caller and its range, e.g.
    "apply_dilation requires an integer n >= 1".
    """
    integer = isinstance(j, (int, np.integer)) and not isinstance(j, bool)
    if integer and j >= first and (stop is None or j < stop) and (j % 2 or not odd):
        return int(j)
    bounds = f"{var} >= {first}" if stop is None else f"{first} <= {var} < {stop}"
    raise DomainError(f"{name} requires an {'odd ' if odd else ''}integer {bounds}, got {j!r}")


def _odd_coeffs(pexp: PExponent, kind: str, lo: int, hi: int, config: EvalConfig | None):
    """Values and error estimates of the odd coefficients lo <= j <= hi.

    lo is odd.  The values come from the cosine banks whatever the config,
    the sine kind's scaled by pi_p/(j pi); an error estimate above
    config.rel_tol (or NaN) raises ConvergenceError.  p = 2 reads the
    classical table.
    """
    if pexp.p == 2.0:
        values = (np.arange(lo, hi + 1, 2) == 1).astype(float)
        return values, np.zeros_like(values)
    start, j, banks = _tier(lo)[0], lo, []
    while j <= hi:
        last = _tier(j)[1]
        banks.append(_coeff_cached(pexp.p, last))
        j = last + 2
    take = slice((lo - start) // 2, (hi - start) // 2 + 1)
    values, errs = (np.concatenate(parts)[take] for parts in zip(*banks))
    if kind == KIND_SINE:
        scale = pexp.pi_p / (np.arange(lo, hi + 1, 2) * PI)
        values, errs = values * scale, errs * scale
    cfg = config or DEFAULT_CONFIG
    bad = np.flatnonzero(~(errs <= cfg.rel_tol))
    if bad.size:
        i = bad[0]
        raise ConvergenceError(
            f"{'b' if kind == KIND_COSINE else 'a'}_{lo + 2 * i} at p={pexp.p!r}: "
            f"quadrature error estimate {errs[i]:.3e} exceeds rel_tol {cfg.rel_tol:.3e}"
        )
    return values, errs


def _coeff(p, j, kind: str, config: EvalConfig | None, name: str, first: int):
    """(value, err_est) of one coefficient, read from its bank."""
    pexp = PExponent.of(p)
    j = _check_index(j, first, name)
    if j % 2 == 0:
        return 0.0, 0.0
    values, errs = _odd_coeffs(pexp, kind, j, j, config)
    return float(values[0]), float(errs[0])


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
    j_max = _check_index(j_max, 1, "coeff_table", "j_max")
    pexp = PExponent.of(p)
    values, errs = _odd_coeffs(pexp, kind, 1, j_max, config)
    entries = {j: (0.0, 0.0) for j in range(0 if kind == KIND_COSINE else 1, j_max + 1)}
    entries.update(zip(range(1, j_max + 1, 2), zip(values.tolist(), errs.tolist())))
    return CoeffTable(p=pexp, kind=kind, entries=entries, j_max=j_max)


def coeff_relation_check(p, j: int, config: EvalConfig | None = None) -> float:
    """Residual |b_j - (j pi/pi_p) a_j| from two independent quadratures.

    b_j is read from its cosine bank.  a_j is not derived from it: it is
    the direct halved sum 4 sum w sin_p(pi_p x) sin(j pi x) on the grid of
    j's bank, sampling sin_p, so the residual measures both routes.
    """
    pexp = PExponent.of(p)
    j = _check_index(j, 1, "coeff_relation_check", odd=True)
    b, _ = cosine_coeff(pexp, j, config)
    x, w, nc = graded_grid((0.0, 0.5), 0.5 / (_tier(j)[1] + 1))
    weighted = 4.0 * w * _samples(fast_trig(pexp.p).sin_scaled, x) * np.sin(j * PI * x)
    a, _ = halved_sum(weighted, nc, (config or DEFAULT_CONFIG).rel_tol, f"a_{j} at p={pexp.p!r}")
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


def _worst_slack(bound, kind: str, p, first: int, J, config: EvalConfig | None, name: str):
    """min over odd first <= j <= J of bound(p, j) minus the coefficient's
    modulus; name is the public check, for the DomainError on a bad J."""
    J = _check_index(J, first, name, "J")
    bounds = [bound(p, j) for j in range(first, J + 1, 2)]
    values, _ = _odd_coeffs(PExponent.of(p), kind, first, J, config)
    return min(b - abs(v) for b, v in zip(bounds, values.tolist()))


def bound_check_small_p(p: float, J: int, config: EvalConfig | None = None) -> float:
    """Worst slack (bound - |b_j|) over odd j <= J for 1 < p < 2."""
    return _worst_slack(cosine_bound_small_p, KIND_COSINE, p, 1, J, config, "bound_check_small_p")


def bound_check_large_p(p: float, J: int, config: EvalConfig | None = None) -> float:
    """Worst slack (bound - |b_j|) over odd 3 <= j <= J for p > 2."""
    return _worst_slack(cosine_bound_large_p, KIND_COSINE, p, 3, J, config, "bound_check_large_p")


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
    J = _check_index(J, 3, "tail_remainder_bound", "J", odd=True)
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
    remainder bound covers j > J analytically, quadrature_err sums the
    quadrature error estimates of b_j over odd 1 <= j <= J, and the margin
    is |b_1| - tail_computed - remainder - quadrature_err.  The criterion
    is sufficient, not necessary: holds = False only means no conclusion
    at this truncation.
    """
    pexp = PExponent.of(p)
    J = _check_index(J, 3, "basis_criterion", "J", odd=True)
    values, errs = _odd_coeffs(pexp, KIND_COSINE, 1, J, config)
    b1 = float(values[0])
    tail = float(np.sum(np.abs(values[1:])))
    quadrature_err = float(np.sum(errs))
    remainder = tail_remainder_bound(pexp.p, J)
    margin = abs(b1) - tail - remainder - quadrature_err
    return CriterionReport(
        p=pexp.p,
        b1=b1,
        tail_computed=tail,
        tail_remainder_bound=remainder,
        quadrature_err=quadrature_err,
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
    J = _check_index(J, 3, "compare_bounds", "J")
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
