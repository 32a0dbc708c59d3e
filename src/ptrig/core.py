"""Generalized p-trigonometric functions.

sin_p is the inverse of the incomplete integral

    F_p(y) = int_0^y (1 - t^p)^(-1/p) dt,   0 <= y <= 1,

on the quarter period [0, pi_p/2], extended to the real line by oddness,
reflection about pi_p/2, and 2*pi_p periodicity.  cos_p is its derivative,
which on the principal branch equals (1 - sin_p^p)^(1/p).  F_p is computed
by tanh-sinh quadrature (the integrand has an algebraic endpoint
singularity at t = 1), and the inversion uses a safeguarded Newton
iteration with bisection fallback inside the bracket [0, 1]; a Newton
step below one ulp probes 2 eps inward instead of bisecting.  The public
functions start it from the cached table of p (_fast_eval), a power
series on each side of the p-diagonal, wherever that table is built: at
every p up to 2^53.

All quadrant and sign logic follows the extension rules of the p-sine;
there are no trigonometric shortcuts for p != 2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError

_EPS = float(np.finfo(float).eps)
_BLOCK = 1 << 15  # elements of one tanh-sinh row block: a few arrays of it stay in cache
_REL_TOL = 1e-12  # the one accuracy target: tanh-sinh refinement and coefficient estimates
_ABS_TOL = 1e-14  # absolute part of the quadrature and inversion residual tests
_QUAD_LEVELS = 12  # tanh-sinh refinement levels before ConvergenceError
_NEWTON_ITERS = 60  # safeguarded Newton steps before ConvergenceError


def _real(x) -> float:
    """x as a float if it is a real number (not a bool or a str), NaN otherwise;
    an int beyond the float range reads as inf."""
    try:
        return float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
    except OverflowError:
        return math.inf


def check_exponent(p, name: str, lo: float = 1.0, hi: float = math.inf, var: str = "p") -> float:
    """p as a float, if it is a finite real number (not bool or str) with lo < p < hi.

    Otherwise raises DomainError naming the caller and its range, e.g.
    "v_p requires p > 2".
    """
    value = _real(p)
    if not (math.isfinite(value) and lo < value < hi):
        bounds = f"{var} > {lo:g}" if hi == math.inf else f"{lo:g} < {var} < {hi:g}"
        raise DomainError(
            f"{name} requires {bounds}; {var} must be a finite real number in that range, "
            f"got {p!r}"
        )
    return value


def pi_p(p: float) -> float:
    """Half-period scale 2*pi / (p * sin(pi/p)); pi_2 = pi."""
    p = check_exponent(p, "pi_p")
    return 2.0 * math.pi / (p * math.sin(math.pi / p))


@dataclass(frozen=True, init=False)
class PExponent:
    """Validated exponent p > 1 with conjugate p/(p-1) and cached pi_p."""

    p: float
    p_conj: float
    pi_p: float

    def __init__(self, p: float):
        value = check_exponent(p, "PExponent")
        object.__setattr__(self, "p", value)
        object.__setattr__(self, "p_conj", value / (value - 1.0))
        object.__setattr__(self, "pi_p", pi_p(value))

    @classmethod
    def of(cls, p) -> "PExponent":
        return p if isinstance(p, PExponent) else cls(p)

    @property
    def conjugate(self) -> "PExponent":
        """PExponent(p/(p-1)); above p = 2^53 the quotient rounds to 1 and
        DomainError names p."""
        if not self.p_conj > 1.0:
            raise DomainError(
                f"p = {self.p!r} has no conjugate exponent in double precision: "
                f"p/(p-1) rounds to 1"
            )
        return PExponent(self.p_conj)

    @property
    def quarter(self) -> float:
        return self.pi_p / 2.0


# ---------------------------------------------------------------------------
# tanh-sinh quadrature of F_p
# ---------------------------------------------------------------------------


def _ts_cutoff(p: float) -> float:
    """Truncation point of the tanh-sinh sum for the F_p integrand.

    The weight decays like exp(-pi*sinh(t)) while the integrand grows at
    most like the inverse 1/p power of the endpoint distance, so the
    product decays like exp(-pi*(1 - 1/p)*sinh(t)).
    """
    decay = math.pi * (1.0 - 1.0 / p)
    t = 4.0
    for _ in range(3):
        t = math.asinh((42.0 + t) / decay)
    return min(max(t, 3.5), 7.5)


@lru_cache(maxsize=256)
def _ts_level(level: int, t_max: float):
    """Nodes of tanh-sinh refinement `level` on [-t_max, t_max].

    Returns (xi, one_minus_xi, weight) where xi = tanh((pi/2) sinh t) and
    weight excludes the step size h.  Level 0 holds all integer t, higher
    levels only the odd multiples of h = 2^-level.
    """
    h = 2.0 ** (-level)
    if level == 0:
        k = np.arange(-math.floor(t_max), math.floor(t_max) + 1.0)
    else:
        kmax = math.floor(t_max / h)
        odd = np.arange(1, kmax + 1, 2, dtype=float)
        k = np.concatenate([-odd[::-1], odd])
    t = k * h
    v = 0.5 * math.pi * np.sinh(t)
    xi = np.tanh(v)
    with np.errstate(over="ignore"):
        one_minus = 2.0 / (1.0 + np.exp(2.0 * v))
    av = np.abs(v)
    sech2 = 4.0 * np.exp(-2.0 * av) / (1.0 + np.exp(-2.0 * av)) ** 2
    w = 0.5 * math.pi * np.cosh(t) * sech2
    return xi, one_minus, w


def _log_one_minus_pow(y, d, p):
    """L = log(1 - y^p) for y in [0, 1], given d = 1 - y, in place.

    For y <= 1/2 the power y^p is formed directly, as log1p(-y^p); closer
    to the endpoint the distance d is the accurate quantity and L is
    log(-expm1(p log1p(-d))), which is -inf at d = 0.  Each branch works
    in place on its gathered subset.  Both (1 - y^p)^(-1/p), the F_p
    integrand, and (1 - y^p)^(1/p), the cosine, are exp(+-L/p).
    """
    y = np.asarray(y)
    out = np.empty_like(y)
    near = y > 0.5
    far = ~near
    if far.any():
        z = y[far]
        z **= p
        np.negative(z, out=z)
        out[far] = np.log1p(z, out=z)
    if near.any():
        z = d[near]
        np.negative(z, out=z)
        np.log1p(z, out=z)
        z *= p
        np.expm1(z, out=z)
        np.negative(z, out=z)
        with np.errstate(divide="ignore"):
            out[near] = np.log(z, out=z)
    return out


def _fp_integrand(x, one_minus_x, p):
    """(1 - x^p)^(-1/p) evaluated stably on [0, 1), as exp(-L/p) with L
    from `_log_one_minus_pow`."""
    out = _log_one_minus_pow(x, one_minus_x, p)
    np.negative(out, out=out)
    out /= p
    return np.exp(out, out=out)


def _incomplete_F_batch(y, pexp: PExponent, rel_tol, abs_tol):
    """F_p over a batch of upper limits in [0, 1]; returns (values, errors).

    Each element freezes at its own first converged refinement level, so
    the result at a given y is bitwise independent of the rest of the
    batch (callers may partition work arbitrarily).  A level's active rows
    are summed in blocks of at most _BLOCK nodes in all, which bounds the
    temporaries whatever the batch size; each row is still its own
    pairwise sum, so the blocks do not change a bit.  F_p(1) is pi_p/2 by
    the definition pi_p = 2 F_p(1); only y in (0, 1) is integrated, which
    keeps the tanh-sinh nodes off the singular endpoint.  Elements still
    unconverged after _QUAD_LEVELS refinements raise ConvergenceError.
    """
    y = np.asarray(y, dtype=float)
    out = np.where(y == 1.0, pexp.quarter, 0.0)
    err = np.zeros_like(y)
    live = (y > 0.0) & (y < 1.0)
    if not live.any():
        return out, err
    yl = y[live]
    p = pexp.p
    t_max = _ts_cutoff(p)
    half = yl / 2.0
    one_minus_y = 1.0 - yl
    m = yl.size
    cum = np.zeros(m)
    prev = np.zeros(m)
    vals = np.zeros(m)
    errs = np.full(m, np.inf)
    active = np.ones(m, dtype=bool)
    for level in range(_QUAD_LEVELS + 1):
        xi, one_minus_xi, w = _ts_level(level, t_max)
        one_plus_xi = 1.0 + xi
        rows = np.flatnonzero(active)
        block = max(1, _BLOCK // xi.size)
        for b in range(0, rows.size, block):
            blk = rows[b : b + block]
            x = half[blk, None] * one_plus_xi
            d = one_minus_y[blk, None] + half[blk, None] * one_minus_xi
            # pairwise row sums: bitwise independent of the batch shape and
            # of the blocks, unlike a BLAS matrix-vector product
            cum[blk] += np.sum(_fp_integrand(x, d, p) * w, axis=1)
        new_vals = 2.0 ** (-level) * cum[rows] * half[rows]
        vals[rows] = new_vals
        if level >= 1:
            errs[rows] = np.abs(new_vals - prev[rows])
        prev[rows] = new_vals
        if level >= 2:
            active &= ~(errs <= rel_tol * np.abs(vals) + abs_tol)
            if not active.any():
                break
    else:
        worst = float(np.max(errs[active]))
        raise ConvergenceError(
            f"tanh-sinh quadrature for F_p did not converge (err {worst:.3e})"
        )
    out[live] = vals
    err[live] = errs
    return out, err


def _cos_from_y(y, p):
    """(1 - y^p)^(1/p) for y in [0, 1], stable near both endpoints, as
    exp(L/p) with L from `_log_one_minus_pow` (0 at y = 1)."""
    y = np.asarray(y, dtype=float)
    out = _log_one_minus_pow(y, 1.0 - y, p)
    out /= p
    return np.exp(out, out=out)


# ---------------------------------------------------------------------------
# quarter-period inversion
# ---------------------------------------------------------------------------


def invert_quarter(u, pexp: PExponent, seed=None):
    """Solve F_p(y) = u for u in [0, pi_p/2] by safeguarded Newton.

    The initial guess is `seed` (an array shaped like u, clipped to
    [0, 1]) or, without one or where it is not finite, the classical sine
    of the rescaled argument; a guess of exactly 1 below pi_p/2 is replaced
    by the leading term of the expansion at pi_p/2.
    A seed only moves the start: the acceptance rule below is the same
    either way, so any seed yields an answer with the same certificate.
    A bisection step replaces Newton whenever the iterate leaves the current
    bracket or fails to halve the residual, except where a step below one
    ulp leaves y where it is: y then sits on a bracket end, and moves 2 eps
    inward, while that stays inside the bracket, so that the next residual
    closes the bracket to 4 eps instead of a bisection back from [0, 1].
    Termination is by residual tolerance, or, where F_p is too steep for
    any double to meet it (near pi_p/2), by bracket collapse: once the
    bracket is 4 eps wide the iteration stops, and halving outside the
    _NEWTON_ITERS budget narrows it to two adjacent doubles, so the
    exact root lies within one ulp of the result.  Arguments within 4 eps
    (relative) of pi_p/2 map to 1.
    """
    u = np.asarray(u, dtype=float)
    u_star = pexp.quarter
    if not np.all((u >= -1e-15) & (u <= u_star * (1.0 + 1e-13))):
        raise DomainError("inversion argument outside [0, pi_p/2]")
    p = pexp.p
    start = np.sin(np.pi * u / pexp.pi_p)
    if seed is not None:  # a non-finite seed entry keeps the classical start
        start = np.where(np.isfinite(seed), seed, start)
    y = np.clip(start, 0.0, 1.0)
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    # residuals F_p(lo) - u and F_p(hi) - u; F_p(1) = pi_p/2 exactly
    r_lo = -u
    r_hi = u_star - u
    done = np.zeros(u.shape, dtype=bool)
    at0 = u <= 0.0
    at1 = u >= u_star * (1.0 - 4.0 * _EPS)
    y[at0] = 0.0
    y[at1] = 1.0
    # Newton's step is 0 at y = 1: start there from the leading term of
    # F_p(1) - F_p(y) = p^(-1/p) (1 - y)^(1/p') / (1 - 1/p) + ... instead
    top = (y == 1.0) & ~at1
    if top.any():
        gap = (u_star - u[top]) * (1.0 - 1.0 / p) * p ** (1.0 / p)
        with np.errstate(over="ignore"):  # gap > 1 near p = 1: inf, clipped to 0
            y[top] = np.clip(1.0 - gap**pexp.p_conj, 0.0, 1.0 - _EPS)
    done |= at0 | at1
    collapsed = np.zeros(u.shape, dtype=bool)
    r_prev = np.full_like(u, np.inf)

    def residual(idx, yl):
        F, Ferr = _incomplete_F_batch(yl, pexp, _REL_TOL / 20.0, _ABS_TOL / 10.0)
        r = F - u[idx]
        tol = np.maximum(_ABS_TOL + 8.0 * _EPS * u[idx], 4.0 * Ferr)
        return r, np.abs(r) <= tol

    for _ in range(_NEWTON_ITERS):
        if done.all():
            break
        idx = ~done
        yl = y[idx]
        r, met = residual(idx, yl)
        hl = np.where(r > 0.0, np.minimum(hi[idx], yl), hi[idx])
        cl = np.where(r < 0.0, np.maximum(lo[idx], yl), lo[idx])
        r_hi[idx] = np.where(r > 0.0, r, r_hi[idx])
        r_lo[idx] = np.where(r < 0.0, r, r_lo[idx])
        narrow = ~met & (hl - cl <= 4.0 * _EPS)
        ok = met | narrow
        step = r * _cos_from_y(yl, p)
        y_new = yl - step
        # a step that leaves y on its bracket end probes 2 eps inward
        probe = yl - np.sign(r) * (2.0 * _EPS)
        stuck = (y_new == yl) & (probe > cl) & (probe < hl)
        bisect = ~stuck & (
            (~np.isfinite(y_new))
            | (y_new <= cl)
            | (y_new >= hl)
            | (np.abs(r) > 0.5 * np.abs(r_prev[idx]))
        )
        y_new = np.where(stuck, probe, np.where(bisect, 0.5 * (cl + hl), y_new))
        lo[idx] = cl
        hi[idx] = hl
        y[idx] = np.where(ok, yl, y_new)
        r_prev[idx] = np.abs(r)
        done[idx] |= ok
        collapsed[idx] = narrow
    if not done.all():
        idx = ~done
        r, _ = residual(idx, y[idx])
        raise ConvergenceError(
            f"quarter-period inversion exhausted {_NEWTON_ITERS} "
            f"iterations (residual {float(np.max(np.abs(r))):.3e})"
        )
    # A 4 eps bracket above 2^-k holds at most 2^(3+k) ulps, and the
    # midpoint of two non-adjacent doubles lies strictly between them, so
    # these halvings end after 3 + k rounds (3 near pi_p/2).  A bracket of
    # two adjacent doubles ends on the one with the smaller residual.
    halving = collapsed & (np.nextafter(lo, 2.0) < hi)
    while halving.any():
        idx = halving.copy()
        mid = 0.5 * (lo[idx] + hi[idx])
        r, met = residual(idx, mid)
        hi[idx] = np.where(r > 0.0, mid, hi[idx])
        lo[idx] = np.where(r < 0.0, mid, lo[idx])
        r_hi[idx] = np.where(r > 0.0, r, r_hi[idx])
        r_lo[idx] = np.where(r < 0.0, r, r_lo[idx])
        y[idx] = mid
        collapsed[idx] = ~met
        halving[idx] = ~met & (np.nextafter(lo[idx], 2.0) < hi[idx])
    nearer = np.where(np.abs(r_lo) <= np.abs(r_hi), lo, hi)
    return np.where(collapsed, nearer, y)


def reduce_argument(tau):
    """Map tau = x/pi_p to the quarter period with sine and cosine signs.

    Returns (t, sin_sign, cos_sign) with t in [0, 1/2] such that
    sin_p(pi_p tau) = sin_sign * sin_p(pi_p t) and likewise for cos_p.
    """
    tau = np.asarray(tau, dtype=float)
    t2 = tau - 2.0 * np.round(tau / 2.0)
    a = np.abs(t2)
    refl = a > 0.5
    t = np.where(refl, 1.0 - a, a)
    sin_sign = np.sign(t2)
    cos_sign = np.where(refl, -1.0, 1.0)
    return t, sin_sign, cos_sign


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _as_batch(x):
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _scalar_or_array(values, scalar):
    return float(values[0]) if scalar else values


def incomplete_F(y, p):
    """F_p(y) = int_0^y (1 - t^p)^(-1/p) dt for y in [0, 1].

    Monotone increasing with F_p(0) = 0 and F_p(1) = pi_p/2; the endpoint
    singularity is absorbed by the tanh-sinh transformation.
    """
    pexp = PExponent.of(p)
    arr, scalar = _as_batch(y)
    bad = arr[~((arr >= 0.0) & (arr <= 1.0))]
    if bad.size:
        raise DomainError(f"incomplete_F requires 0 <= y <= 1, got {float(bad[0])!r}")
    vals, _ = _incomplete_F_batch(arr, pexp, _REL_TOL, _ABS_TOL)
    return _scalar_or_array(vals, scalar)


def _invert(u, pexp: PExponent):
    """invert_quarter started from the cached table of p, wherever one can be built.

    Whether to seed depends on p alone, so a result is bitwise independent
    of how a batch is split and of whether the table was already cached.
    """
    from ._fast_eval import fast_trig  # _fast_eval imports this module

    t = np.clip(np.nan_to_num(np.asarray(u, dtype=float) / pexp.pi_p), 0.0, 0.5)
    try:
        seed = fast_trig(pexp.p)._quarter_sin(t)
    except ConvergenceError:  # p above 2^53, refused before any series is built
        seed = None
    return invert_quarter(u, pexp, seed)


def _reduce_and_invert(x, pexp: PExponent, name: str):
    """|sin_p(x)| with the sine and cosine signs of x's quadrant.

    Returns (y, sin_sign, cos_sign, scalar); non-finite x is rejected.
    """
    arr, scalar = _as_batch(x)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} requires finite arguments")
    t, s_sign, c_sign = reduce_argument(arr / pexp.pi_p)
    return _invert(pexp.pi_p * t, pexp), s_sign, c_sign, scalar


def sin_p(x, p):
    """The p-sine: odd, 2*pi_p periodic, increasing on [0, pi_p/2]."""
    pexp = PExponent.of(p)
    y, s_sign, _, scalar = _reduce_and_invert(x, pexp, "sin_p")
    return _scalar_or_array(s_sign * y, scalar)


def cos_p(x, p):
    """The p-cosine sign(quadrant) * (1 - |sin_p|^p)^(1/p); even, 2*pi_p periodic."""
    pexp = PExponent.of(p)
    y, _, c_sign, scalar = _reduce_and_invert(x, pexp, "cos_p")
    return _scalar_or_array(c_sign * _cos_from_y(y, pexp.p), scalar)


def dcos_p(x, p):
    """Derivative of cos_p on the first quarter period [0, pi_p/2].

    Equals -sin_p(x)^(p-1) * cos_p(x)^(2-p).  For p > 2 the second factor
    diverges at pi_p/2; arguments where cos_p underflows below 1e-13
    return -inf rather than a garbage float.
    """
    pexp = PExponent.of(p)
    arr, scalar = _as_batch(x)
    if np.any(arr < -1e-15) or np.any(arr > pexp.quarter * (1.0 + 1e-13)):
        raise DomainError("dcos_p requires x in the first quarter period")
    y = _invert(np.clip(arr, 0.0, pexp.quarter), pexp)
    c = _cos_from_y(y, pexp.p)
    with np.errstate(divide="ignore", over="ignore"):
        vals = -(y ** (pexp.p - 1.0)) * c ** (2.0 - pexp.p)
    if pexp.p > 2.0:
        vals = np.where(c < 1e-13, -np.inf, vals)
    return _scalar_or_array(vals, scalar)


def d2cos_p(x, p):
    """Second derivative of cos_p, strictly inside (0, pi_p/2).

    Equals sin_p^(p-2) * cos_p^(3-2p) * (2 - p - cos_p^p); the sign change
    of the bracket locates the extremum of the rescaled derivative.  The
    endpoints are singular for p != 2 and are rejected.  p = 2 returns
    -cos x.  Where cos_p underflows below 1e-13, p > 2 returns -inf, as in
    dcos_p, and 1.5 < p < 2 returns +inf (where sin_p rounds to 1): the
    true value diverges to that side at pi_p/2.
    """
    pexp = PExponent.of(p)
    arr, scalar = _as_batch(x)
    if not np.all((arr > 0.0) & (arr < pexp.quarter)):  # NaN fails too
        raise DomainError("d2cos_p requires x strictly inside (0, pi_p/2)")
    p = pexp.p
    if p == 2.0:  # where sin_p rounds to 1 the product below is inf * 0
        return _scalar_or_array(-np.cos(arr), scalar)
    y = _invert(arr, pexp)
    L = _log_one_minus_pow(y, 1.0 - y, p)  # log(1 - y^p) = p log cos_p
    c = np.exp(L / p)
    with np.errstate(divide="ignore", over="ignore"):
        vals = y ** (p - 2.0) * c ** (3.0 - 2.0 * p) * (2.0 - p - np.exp(L))
    if p > 2.0:
        vals = np.where(c < 1e-13, -np.inf, vals)
    return _scalar_or_array(vals, scalar)


def c_p(p: float) -> float:
    """Extremum magnitude (p-1)^((p-1)/p) * (2-p)^((2-p)/p) on (1, 2).

    Continuous with limit 1 at both ends under the convention 0^0 = 1.
    """
    p = check_exponent(p, "c_p", 1.0, 2.0)
    a = p - 1.0
    b = 2.0 - p
    first = math.exp((a / p) * math.log(a)) if a > 0 else 1.0
    second = math.exp((b / p) * math.log(b)) if b > 0 else 1.0
    return first * second


def large_p_bracket(p: float) -> float:
    """The paper's bracket 2 + pi^2 (p - 2)/2 in the bounds for p > 2."""
    return 2.0 + 0.5 * math.pi * math.pi * (p - 2.0)


def decay_bound(p, name: str = "decay_bound"):
    """(C, q, first) of the paper's decay bound |b_j| <= C j^-q, j >= first:

        C = 8 pi_p c_p / pi^2,                              q = 2,  first = 1   (1 < p < 2)
        C = 2 pi_p' (2 + pi^2 (p-2)/2) / (pi^2 (p-1)),      q = p', first = 3   (p > 2)

    p = 2, where only b_1 is nonzero, has no bound: DomainError names the
    caller, as an invalid p does.
    """
    p = check_exponent(p, name)
    if p == 2.0:
        raise DomainError(f"{name} requires p != 2, where only b_1 is nonzero; got {p!r}")
    if p < 2.0:
        return 8.0 * pi_p(p) * c_p(p) / (math.pi * math.pi), 2.0, 1
    conj = p / (p - 1.0)
    return 2.0 * pi_p(conj) / (math.pi * math.pi * (p - 1.0)) * large_p_bracket(p), conj, 3


def m_p(p: float) -> float:
    """Unique point in (0, 1/2) where cos_p(pi_p m)^p = 2 - p, for 1 < p < 2.

    There sin_p(pi_p m)^p = p - 1, so m = F_p((p-1)^(1/p)) / pi_p in
    closed form; the rescaled derivative attains its minimum -c_p there.
    """
    pexp = PExponent(check_exponent(p, "m_p", 1.0, 2.0))
    return incomplete_F((pexp.p - 1.0) ** (1.0 / pexp.p), pexp) / pexp.pi_p


def u_p(x, p: float):
    """Rescaled derivative -sin_p(pi_p x)^(p-1) cos_p(pi_p x)^(2-p) on [0, 1/2].

    Defined for 1 < p < 2; nonpositive, vanishing exactly at 0 and 1/2,
    with minimum -c_p at m_p.  Equals dcos_p(pi_p x).
    """
    pexp = PExponent(check_exponent(p, "u_p", 1.0, 2.0))
    arr, scalar = _as_batch(x)
    if np.any(arr < 0.0) or np.any(arr > 0.5):
        raise DomainError("u_p requires 0 <= x <= 1/2")
    return _scalar_or_array(dcos_p(pexp.pi_p * arr, pexp), scalar)


def v_p(x, p: float):
    """Conjugate-side weight (p'-1) sin_p'(pi_p' x)^(p'-2) cos_p'(pi_p' x).

    Defined for p > 2 on (0, 1/2]; positive, strictly decreasing, zero at
    x = 1/2, divergent as x -> 0+ (which is rejected).
    """
    conj = PExponent(check_exponent(p, "v_p", 2.0)).conjugate
    arr, scalar = _as_batch(x)
    if np.any(arr <= 0.0) or np.any(arr > 0.5):
        raise DomainError("v_p requires 0 < x <= 1/2 (diverges at 0)")
    q = conj.p
    y = _invert(conj.pi_p * arr, conj)
    c = _cos_from_y(y, q)
    vals = (q - 1.0) * y ** (q - 2.0) * c
    return _scalar_or_array(vals, scalar)


def exp_p(y, p):
    """cos_p(y) + i sin_p(y); the modulus identity |Re|^p + |Im|^p = 1 holds."""
    pexp = PExponent.of(p)
    s, s_sign, c_sign, scalar = _reduce_and_invert(y, pexp, "exp_p")
    vals = c_sign * _cos_from_y(s, pexp.p) + 1j * (s_sign * s)
    return complex(vals[0]) if scalar else vals
