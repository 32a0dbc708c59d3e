"""Dilation operators and the truncated change-of-coordinates operator.

M_n sends a function on [0, 1] to its even 2-periodic extension sampled
at n times the argument; on cosine coefficients it is the index dilation
e_j -> e_nj.  The change-of-coordinates operator

    A = sum over odd j of b_j(p) M_j

maps the classical cosines e_n onto the p-cosines cos_p(n pi_p x).  Its
N x N truncation in coefficient space is sparse: column n >= 1 has an
entry b_m(p) in row k exactly when k = m n with odd m.  Its nonzeros
are stored once, as column-major index arrays.  The truncation is lower
triangular with b_1(p) on the diagonal, so it is inverted by a sieve
over its columns: once c_n is known, c_n times column n is subtracted
from the rows below the diagonal.  Only the columns n < N/3 have such a
row (3n < N), so the sieve visits those alone.  That is how functions
are expanded in the p-cosine system; it needs b_1(p) != 0, which the
basis criterion implies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ._fast_eval import fast_trig
from .core import _REL_TOL, PExponent, _real
from .errors import ConvergenceError, DomainError
from .fourier import KIND_COSINE, _check_index, _odd_coeffs
from .quadrature import graded_grid, halved_sum, integrate_panels

_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(eq=False)
class CosineVector:
    """Finite cosine-basis coordinates g(0..N-1).

    Entry 0 is the constant coefficient, the one that multiplies e_0
    directly (the raw integral coefficient divided by two).  The operator
    maps constants to constants, so `apply_dilation` and
    `expand_in_pcosine` pass it through unchanged.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 1 or self.coeffs.size < 1:
            raise DomainError("CosineVector requires a 1-d sequence of length >= 1")
        if not np.all(np.isfinite(self.coeffs)):
            raise DomainError("CosineVector requires finite coefficients")

    def __len__(self):
        return self.coeffs.size


@dataclass(eq=False)
class TruncatedBasisOp:
    """Sparse N x N truncation of the change-of-coordinates operator.

    The nonzeros are stored once, column by column: entry i sits at
    (rows[i], cols[i]) with value vals[i], and column n is the slice
    starts[n]:starts[n+1], its diagonal entry first.
    """

    p: float
    N: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    starts: np.ndarray

    @property
    def entries(self):
        """Read-only {(row, col): value} view of the nonzeros, in storage order.

        It is built from the arrays on each access; take it once per use.
        """
        keys = zip(self.rows.tolist(), self.cols.tolist())
        return MappingProxyType(dict(zip(keys, self.vals.tolist())))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.N, self.N))
        out[self.rows, self.cols] = self.vals
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.N,):
            raise DomainError(f"matvec expects a vector of length {self.N}")
        return np.bincount(self.rows, self.vals * v[self.cols], minlength=self.N)

    def column(self, n: int) -> np.ndarray:
        n = _check_index(n, 0, "column", "n", stop=self.N)
        out = np.zeros(self.N)
        part = slice(self.starts[n], self.starts[n + 1])
        out[self.rows[part]] = self.vals[part]
        return out


def apply_dilation(v: CosineVector, n: int, cap: int | None = None) -> CosineVector:
    """Index dilation of cosine coefficients: output at n*j is input at j.

    The constant term is fixed (the dilation of a constant is itself).
    The result has length n*(N-1)+1, or `cap` when given.
    """
    n = _check_index(n, 1, "apply_dilation", "n")
    N = len(v)
    out_len = n * (N - 1) + 1 if cap is None else _check_index(cap, 1, "apply_dilation", "cap")
    take = min(N, (out_len - 1) // n + 1)
    out = np.zeros(out_len)
    out[: n * take : n] = v.coeffs[:take]
    return CosineVector(out)


def _periodic_even(g, x):
    """Even 2-periodic extension g*(x) with floor-based reduction."""
    y = x - 2.0 * np.floor(x / 2.0)
    y = np.where(y > 1.0, 2.0 - y, y)
    return g(y)


def _ls_norm_pow(f, s: float, edges) -> float:
    """int_0^1 |f|^s on the graded grid with breakpoints at the edges."""
    with np.errstate(over="ignore"):  # an overflow raises below or in halved_sum
        value, err = integrate_panels(lambda x: np.abs(f(x)) ** s, edges, abs_tol=math.inf)
    if not (math.isfinite(value) and err <= _REL_TOL * value):
        raise ConvergenceError(
            f"isometry_check: quadrature estimate {err:.3e} exceeds rel_tol of {value:.3e}"
        )
    return value


def isometry_check(g, n: int, s: float) -> float:
    """|  ||M_n g||_s / ||g||_s  -  1 | for an integrable g given as a callable.

    Both norms come from `integrate_panels`, the dilated one with
    breakpoints at the fold points k/n of the periodic extension, so g
    should be smooth inside (0, 1).  Both integrate |g/M|^s, with M the
    largest |g| on the base grid, so that |g|^s neither underflows nor
    overflows on every node; M^s only rescales the norms, not their
    ratio.  An error estimate above 1e-12 times the integral, or
    a norm ||g||_s^s beyond the largest double, raises ConvergenceError.
    """
    n = _check_index(n, 1, "isometry_check", "n")
    if not 1.0 < _real(s) < math.inf:
        raise DomainError(f"isometry_check requires a finite s > 1, got {s!r}")
    scale = float(np.max(np.abs(g(graded_grid([0.0, 1.0], 1.0)[0]))))
    if scale == 0.0:
        raise DomainError("isometry check requires a function with positive norm")
    base = _ls_norm_pow(lambda x: g(x) / scale, s, [0.0, 1.0])
    if s * math.log(scale) + math.log(base) > _LOG_MAX:
        raise ConvergenceError(f"isometry_check: ||g||_s^s overflows at s={s!r}")
    folds = np.arange(n + 1) / n
    dilated = _ls_norm_pow(lambda x: _periodic_even(g, n * x) / scale, s, folds)
    return abs((dilated / base) ** (1.0 / s) - 1.0)


def build_truncated_operator(p, N: int) -> TruncatedBasisOp:
    """Assemble the sparse N x N truncation of the change-of-coordinates map.

    Column 0 is the unit vector (constants map to constants); column
    n >= 1 holds b_m(p) in row m*n for odd m with m*n < N, so the diagonal
    carries b_1(p).
    """
    pexp = PExponent.of(p)
    N = _check_index(N, 2, "build_truncated_operator", "N")
    values = _odd_coeffs(pexp, KIND_COSINE, 1, N - 1)[0]
    counts = np.r_[1, ((N - 1) // np.arange(1, N) + 1) // 2]
    starts = np.r_[0, np.cumsum(counts)]
    cols = np.repeat(np.arange(N), counts)
    half = np.arange(starts[-1]) - starts[cols]  # (m - 1) / 2 for the odd multiplier m
    vals = values[half]
    vals[0] = 1.0
    rows = (2 * half + 1) * cols
    return TruncatedBasisOp(p=pexp.p, N=N, rows=rows, cols=cols, vals=vals, starts=starts)


def reconstruct_check(p, n: int, N: int) -> float:
    """Max deviation of column n of the truncated operator from quadrature.

    The direct route samples cos_p(n pi_p x) once on a graded grid over
    [0, 1] with breakpoints at the fold points j/(2n) and panels at most
    1/(2N) wide, and forms each cosine coefficient k < N from those
    samples times cos(k pi x), with the constant coefficient halved to
    match the coefficient-space convention of the operator columns.  It
    takes one plain sum per k and shares neither the banks' FFTs nor their
    end-panel moments.  An error estimate above 1e-12 raises
    ConvergenceError.
    """
    pexp = PExponent.of(p)
    N = _check_index(N, 2, "reconstruct_check", "N")
    n = _check_index(n, 0, "reconstruct_check", "n", stop=N)
    col = build_truncated_operator(pexp, N).column(n)
    direct = np.zeros(N)
    if n == 0:
        direct[0] = 1.0
    else:
        x, w, nc = graded_grid(np.arange(2 * n + 1) / (2.0 * n), 0.5 / N)
        f = w * fast_trig(pexp.p).cos_scaled(n * x)
        for k in range(N):
            name = f"reconstruct_check coefficient {k}"
            value, _ = halved_sum(f * np.cos(k * math.pi * x), nc, _REL_TOL, name)
            direct[k] = value if k == 0 else 2.0 * value
    return float(np.max(np.abs(col - direct)))


def expand_in_pcosine(fhat: CosineVector, p, N: int):
    """Solve the truncated system A c = fhat for p-cosine coordinates.

    fhat is read at its first N entries: a shorter vector is padded with
    zeros and a longer one is cut to N.  A sieve over the columns of the
    truncated operator in increasing order: row n has received every
    off-diagonal term by the time column n is reached, so c_n = (its
    remainder) / b_1, and column n times c_n is then subtracted from the
    rows below the diagonal.  The sieve visits only the columns n < N/3,
    the ones with a row below the diagonal; every row still receives the
    same subtractions in the same order.  Returns (CosineVector, residual)
    where the residual is the max-norm defect of the truncated system,
    taken with the same operator.  A first coefficient below 1e-8 in
    magnitude makes the truncation numerically singular and is reported.
    """
    pexp = PExponent.of(p)
    N = _check_index(N, 1, "expand_in_pcosine", "N")
    rhs = np.zeros(N)
    take = min(N, len(fhat))
    rhs[:take] = fhat.coeffs[:take]
    b1 = _odd_coeffs(pexp, KIND_COSINE, 1, 1)[0][0]
    if abs(b1) < 1e-8:
        raise ConvergenceError(
            f"truncated operator is numerically singular: |b_1| = {abs(b1):.3e}"
        )
    if N == 1:
        return CosineVector(rhs), 0.0
    op = build_truncated_operator(pexp, N)
    acc, starts = rhs.copy(), op.starts.tolist()
    for n in range(1, (N - 1) // 3 + 1):  # n < N/3
        below = slice(starts[n] + 1, starts[n + 1])  # column n without its diagonal
        acc[op.rows[below]] -= op.vals[below] * (acc[n] / b1)
    c = np.r_[rhs[0], acc[1:] / b1]
    residual = float(np.max(np.abs(op.matvec(c) - rhs)))
    return CosineVector(c), residual
