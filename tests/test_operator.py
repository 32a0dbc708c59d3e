"""Dilation operators, the truncated change-of-coordinates map, expansion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptrig import (
    ConvergenceError,
    CosineVector,
    DomainError,
    apply_dilation,
    build_truncated_operator,
    cosine_coeff,
    expand_in_pcosine,
    isometry_check,
    reconstruct_check,
    tail_remainder_bound,
)

PI = math.pi


def unit(n, size):
    v = np.zeros(size)
    v[n] = 1.0
    return CosineVector(v)


OP8 = build_truncated_operator(1.5, 8)


class TestApplyDilation:
    def test_moves_single_mode(self):
        out = apply_dilation(unit(1, 4), 3)
        assert np.nonzero(out.coeffs)[0].tolist() == [3]
        assert out.coeffs[3] == 1.0

    def test_fixes_constant(self):
        out = apply_dilation(unit(0, 2), 5)
        assert out.coeffs[0] == 1.0
        assert np.all(out.coeffs[1:] == 0.0)

    def test_linearity(self):
        v = CosineVector(np.array([0.0, 0.0, 1.0, 1.0]))
        out = apply_dilation(v, 2)
        assert np.nonzero(out.coeffs)[0].tolist() == [4, 6]

    def test_cap(self):
        out = apply_dilation(unit(3, 4), 4, cap=8)
        assert len(out) == 8
        assert np.all(out.coeffs == 0.0)  # 12 exceeds the cap

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.lists(st.floats(-2, 2), min_size=2, max_size=6),
    )
    def test_composition(self, m, n, coeffs):
        v = CosineVector(np.array(coeffs))
        a = apply_dilation(apply_dilation(v, n), m)
        b = apply_dilation(v, m * n)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_validation(self):
        with pytest.raises(DomainError):
            apply_dilation(unit(0, 2), 0)


class TestIsometry:
    def test_identity_dilation_exact(self):
        assert isometry_check(lambda x: x**2, 1, 2.0) < 1e-12

    def test_examples(self):
        assert isometry_check(lambda x: x, 3, 2.0) < 1e-8
        assert isometry_check(lambda x: np.cos(PI * x), 4, 3.0) < 1e-8

    def test_tolerance_is_relative_to_the_integral(self):
        # int |2 cos(pi x)|^50 is about 1e14, so an estimate of 1.6e-2 is well
        # inside rel_tol = 1e-12 of it
        assert isometry_check(lambda x: 2.0 * np.cos(PI * x), 2, 50.0) < 1e-12

    def test_overflowing_norm_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                isometry_check(lambda x: 2.0 * np.cos(PI * x), 2, 1e300)

    def test_norm_below_the_underflow_of_its_power(self):
        # |0.5 cos(pi x)|^1e4 underflows on every node; the norms integrate
        # |g / max|g||^s, so a positive multiple of g gives the same ratio
        half = isometry_check(lambda x: 0.5 * np.cos(PI * x), 2, 1e4)
        assert half == isometry_check(lambda x: np.cos(PI * x), 2, 1e4) == 0.0

    def test_zero_function_raises(self):
        with pytest.raises(DomainError, match="positive norm"):
            isometry_check(lambda x: 0.0 * x, 2, 2.0)

    def test_unresolved_singularity_raises(self):
        # |x^-0.4|^2 = x^-0.8 keeps ~1e-3 of its mass below the finest graded panel
        with pytest.raises(ConvergenceError):
            isometry_check(lambda x: x**-0.4, 1, 2.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            isometry_check(lambda x: x, 0, 2.0)
        with pytest.raises(DomainError):
            isometry_check(lambda x: x, 2, 1.0)
        # a str, None or bool is not a real s, as it is not a real p
        for s in (math.inf, math.nan, "2", None, True):
            with pytest.raises(DomainError, match="requires a finite s > 1"):
                isometry_check(np.cos, 2, s)


class TestTruncatedOperator:
    def test_classical_identity(self):
        op = build_truncated_operator(2.0, 8)
        assert np.allclose(op.to_dense(), np.eye(8), atol=1e-12)

    def test_divisor_structure(self):
        op = build_truncated_operator(1.5, 8)
        b1 = cosine_coeff(1.5, 1)[0]
        b3 = cosine_coeff(1.5, 3)[0]
        assert op.entries[(3, 1)] == b3
        assert op.entries[(3, 3)] == b1
        assert op.entries[(6, 2)] == b3
        assert (2, 1) not in op.entries

    def test_column_zero_is_unit(self):
        op = build_truncated_operator(1.5, 8)
        col = op.column(0)
        assert col[0] == 1.0
        assert np.all(col[1:] == 0.0)

    def test_column_sparsity_bound(self):
        N = 64
        op = build_truncated_operator(2.3, N)
        for n in range(1, N):
            nnz = sum(1 for (k, m) in op.entries if m == n)
            assert nnz <= math.ceil(N / (2 * n))

    def test_column_norm_bounded_by_coefficient_sum(self):
        N = 32
        p = 1.7
        op = build_truncated_operator(p, N)
        full = abs(cosine_coeff(p, 1)[0]) + sum(
            abs(cosine_coeff(p, j)[0]) for j in range(3, N, 2)
        ) + tail_remainder_bound(p, N - 1 if N % 2 == 0 else N)
        dense = op.to_dense()
        for n in range(1, N):
            assert np.abs(dense[:, n]).sum() <= full + 1e-12

    def test_diagonal_dominance_in_basis_range(self):
        N = 48
        for p in (1.6, 2.0, 2.4):
            op = build_truncated_operator(p, N)
            dense = op.to_dense()
            b1 = abs(cosine_coeff(p, 1)[0]) if p != 2.0 else 1.0
            for n in range(1, N):
                off = np.abs(dense[:, n]).sum() - abs(dense[n, n])
                assert abs(dense[n, n]) == pytest.approx(b1, abs=1e-15)
                assert b1 > off

    @pytest.mark.parametrize("N", (2, 3, 64))
    def test_arrays_match_definition(self, N):
        p = 1.83
        op = build_truncated_operator(p, N)
        expected = {(0, 0): 1.0}
        for n in range(1, N):
            for m in range(1, N // n + 1, 2):
                if m * n < N:
                    expected[(m * n, n)] = cosine_coeff(p, m)[0]
        assert op.entries == expected
        dense = op.to_dense()
        for n in range(N):
            assert op.column(n).tobytes() == dense[:, n].tobytes()
        v = np.random.default_rng(N).standard_normal(N)
        assert np.allclose(op.matvec(v), dense @ v, rtol=1e-15, atol=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            build_truncated_operator(1.5, 1)


class TestReconstruct:
    def test_classical(self):
        assert reconstruct_check(2.0, 3, 16) < 1e-10

    @pytest.mark.parametrize("p,n", [(1.6, 2), (2.4, 5)])
    def test_two_routes(self, p, n):
        assert reconstruct_check(p, n, 32) < 1e-8

    @pytest.mark.parametrize("p", (1.46, 2.42))
    @pytest.mark.parametrize("n", (1, 3))
    def test_rounding_level_agreement(self, p, n):
        # the ends of the benchmark's exponent range; both routes sum on
        # graded grids, so they should agree to rounding
        assert reconstruct_check(p, n, 32) <= 2e-15

    def test_constant_column(self):
        assert reconstruct_check(1.8, 0, 8) < 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            reconstruct_check(1.5, 9, 8)


class TestExpansion:
    def test_classical_is_identity(self, rng):
        fhat = CosineVector(rng.standard_normal(12))
        coeffs, residual = expand_in_pcosine(fhat, 2.0, 12)
        assert np.allclose(coeffs.coeffs, fhat.coeffs, atol=1e-14)
        assert residual < 1e-14

    def test_recovers_first_column(self):
        p = 1.7
        op = build_truncated_operator(p, 16)
        coeffs, residual = expand_in_pcosine(CosineVector(op.column(1)), p, 16)
        expected = np.zeros(16)
        expected[1] = 1.0
        assert np.max(np.abs(coeffs.coeffs - expected)) < 1e-8
        assert residual < 1e-12

    def test_linear_combination(self):
        p = 2.3
        op = build_truncated_operator(p, 16)
        fhat = CosineVector(op.column(1) + 2.0 * op.column(3))
        coeffs, residual = expand_in_pcosine(fhat, p, 16)
        expected = np.zeros(16)
        expected[1] = 1.0
        expected[3] = 2.0
        assert np.max(np.abs(coeffs.coeffs - expected)) < 1e-7
        assert residual < 1e-12

    @pytest.mark.parametrize("p", (1.46, 1.83, 2.41))
    def test_matches_divisor_substitution(self, p, rng):
        # the sieve subtracts a row's terms in reverse divisor order, so it
        # agrees with plain forward substitution to rounding only
        N = 256
        fhat = CosineVector(rng.standard_normal(N) * np.arange(1, N + 1) ** -1.5)
        b = [cosine_coeff(p, j)[0] for j in range(N)]
        c = np.zeros(N)
        c[0] = fhat.coeffs[0]
        for k in range(1, N):
            acc = fhat.coeffs[k]
            for m in range(3, k + 1, 2):
                if k % m == 0:
                    acc -= b[m] * c[k // m]
            c[k] = acc / b[1]
        coeffs, residual = expand_in_pcosine(fhat, p, N)
        assert np.max(np.abs(coeffs.coeffs - c)) <= 1e-15
        assert residual <= 1e-15

    @pytest.mark.parametrize("p", (1.6, 1.9, 2.2, 2.4))
    def test_inverts_apply(self, p, rng):
        for N in (24, 1024):
            op = build_truncated_operator(p, N)
            vec = rng.standard_normal(N)
            fhat = CosineVector(op.matvec(vec))
            coeffs, residual = expand_in_pcosine(fhat, p, N)
            assert np.max(np.abs(coeffs.coeffs - vec)) < 1e-7
            assert residual < 1e-10


def sieve_every_column(fhat, p, N):
    """The sieve over all N - 1 columns, empty below-diagonal slices included."""
    rhs = np.zeros(N)
    take = min(N, len(fhat))
    rhs[:take] = fhat.coeffs[:take]
    if N == 1:
        return rhs, 0.0
    op = build_truncated_operator(p, N)
    b1 = op.vals[op.starts[1]]
    acc = rhs.copy()
    for n in range(1, N):
        below = slice(op.starts[n] + 1, op.starts[n + 1])
        acc[op.rows[below]] -= op.vals[below] * (acc[n] / b1)
    c = np.r_[rhs[0], acc[1:] / b1]
    return c, float(np.max(np.abs(op.matvec(c) - rhs)))


def assert_sieve_bitwise(fhat, p, N):
    coeffs, residual = expand_in_pcosine(fhat, p, N)
    ref_coeffs, ref_residual = sieve_every_column(fhat, p, N)
    assert coeffs.coeffs.tobytes() == ref_coeffs.tobytes()
    assert np.float64(residual).tobytes() == np.float64(ref_residual).tobytes()


class TestSieveColumns:
    """Only columns n <= (N-1)/3 have a row below the diagonal (3n < N)."""

    @pytest.mark.parametrize("p", (1.46, 1.8, 2.0, 2.3, 2.42))
    @pytest.mark.parametrize("N", (1, 2, 3, 4, 5, 6, 7, 9, 16, 100, 257, 1024, 2048))
    def test_bitwise_equal_to_every_column(self, p, N, rng):
        for size in (max(1, N // 2), N, N + 5):
            fhat = CosineVector(rng.standard_normal(size) * np.arange(1, size + 1) ** -1.0)
            assert_sieve_bitwise(fhat, p, N)

    @given(
        N=st.integers(1, 400),
        p=st.sampled_from((1.46, 1.8, 2.3)),
        extra=st.integers(-400, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_property(self, N, p, extra, seed):
        size = max(1, N + extra)
        fhat = CosineVector(np.random.default_rng(seed).standard_normal(size))
        assert_sieve_bitwise(fhat, p, N)


@pytest.mark.parametrize(
    "fn,args,message",
    [
        (apply_dilation, (unit(0, 2), 1.0), "apply_dilation requires an integer n >= 1, got 1.0"),
        (isometry_check, (abs, 0, 2.0), "isometry_check requires an integer n >= 1, got 0"),
        (build_truncated_operator, (1.5, 1),
         "build_truncated_operator requires an integer N >= 2, got 1"),
        (reconstruct_check, (1.5, 8, 8), "reconstruct_check requires an integer 0 <= n < 8, got 8"),
        (reconstruct_check, (1.5, 0, 2.0), "reconstruct_check requires an integer N >= 2, got 2.0"),
        (expand_in_pcosine, (unit(0, 2), 1.5, "4"),
         "expand_in_pcosine requires an integer N >= 1, got '4'"),
        (apply_dilation, (unit(0, 2), 2, 2.7),
         "apply_dilation requires an integer cap >= 1, got 2.7"),
        (apply_dilation, (unit(0, 2), 2, True),
         "apply_dilation requires an integer cap >= 1, got True"),
        (OP8.column, (8,), "column requires an integer 0 <= n < 8, got 8"),
        (OP8.column, (-1,), "column requires an integer 0 <= n < 8, got -1"),
        (OP8.column, (2.5,), "column requires an integer 0 <= n < 8, got 2.5"),
        (OP8.column, (True,), "column requires an integer 0 <= n < 8, got True"),
    ],
)
def test_index_checks_share_one_message(fn, args, message):
    with pytest.raises(DomainError) as info:
        fn(*args)
    assert str(info.value) == message


class TestCosineVector:
    def test_validation(self):
        with pytest.raises(DomainError):
            CosineVector(np.zeros((2, 2)))
        with pytest.raises(DomainError):
            CosineVector(np.array([]))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite"):
                CosineVector(np.array([1.0, bad]))
