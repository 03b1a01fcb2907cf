"""Tests for the Gaussian kernel, kernel matrices, and the bandwidth rule."""

import tracemalloc

import numpy as np
import pytest

from aucmax.dataio import Dataset, SparseVector
from aucmax.errors import ConfigError, DataError
from aucmax.kernels import (
    GaussianKernelParams,
    bandwidth_heuristic,
    gaussian_kernel,
    kernel_matrix,
    pairwise_sq_dists,
)


class TestParams:
    def test_gamma_conversion(self):
        p = GaussianKernelParams.from_gamma(0.25)
        assert p.sigma2 == 2.0
        assert GaussianKernelParams(2.0).gamma == 0.25

    def test_rejects_bad_sigma2(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                GaussianKernelParams(bad)


class TestGaussianKernel:
    def test_zero_distance_is_one(self):
        x = SparseVector([0, 3], [1.0, -2.0])
        assert gaussian_kernel(x, x, GaussianKernelParams(1.0)) == 1.0

    def test_empty_sparse_against_dense(self):
        p = GaussianKernelParams(1.0)
        assert gaussian_kernel(SparseVector([], []), np.zeros(3), p) == 1.0
        with pytest.raises(DataError):
            gaussian_kernel(SparseVector([3], [1.0]), np.zeros(3), p)

    def test_value_at_two_sigma2(self):
        # ||x - y||^2 = 2 sigma2 gives exactly exp(-1)
        p = GaussianKernelParams(2.0)
        x = np.array([0.0, 0.0])
        y = np.array([2.0, 0.0])
        np.testing.assert_allclose(gaussian_kernel(x, y, p), np.exp(-1.0), rtol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        p = GaussianKernelParams(0.7)
        for _ in range(50):
            idx_x = np.sort(rng.choice(12, size=4, replace=False))
            idx_y = np.sort(rng.choice(12, size=5, replace=False))
            x = SparseVector(idx_x, rng.standard_normal(4))
            y = SparseVector(idx_y, rng.standard_normal(5))
            assert gaussian_kernel(x, y, p) == gaussian_kernel(y, x, p)

    def test_range(self):
        rng = np.random.default_rng(1)
        p = GaussianKernelParams(1.0)
        for _ in range(100):
            x, y = rng.standard_normal((2, 6))
            k = gaussian_kernel(x, y, p)
            assert 0.0 < k <= 1.0

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(2)
        p = GaussianKernelParams(3.0)
        for _ in range(30):
            xv, yv = rng.standard_normal((2, 9))
            xv[rng.random(9) < 0.5] = 0.0
            yv[rng.random(9) < 0.5] = 0.0
            xs = SparseVector(np.nonzero(xv)[0], xv[np.nonzero(xv)[0]])
            ys = SparseVector(np.nonzero(yv)[0], yv[np.nonzero(yv)[0]])
            np.testing.assert_allclose(
                gaussian_kernel(xs, ys, p), gaussian_kernel(xv, yv, p), rtol=1e-12
            )

    def test_sparse_pair_with_a_huge_index(self):
        # a length-1e9 dense copy would take 8 GB; the pair holds three entries
        p = GaussianKernelParams(1.0)
        x = SparseVector([3, 10**9], [1.0, 2.0])
        y = SparseVector([10**9], [0.5])
        tracemalloc.start()
        try:
            k = gaussian_kernel(x, y, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ||x - y||^2 = 1 + 1.5^2
        assert k == np.exp(-3.25 / 2.0)
        assert peak < 1 << 20


class TestKernelMatrix:
    def test_single_point(self):
        x = np.array([[1.5, -2.0]])
        np.testing.assert_array_equal(kernel_matrix(x, x, GaussianKernelParams(1.0)), [[1.0]])

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((3, 4))
        K = kernel_matrix(X, X, GaussianKernelParams(2.0))
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(K), 1.0, rtol=1e-15)

    def test_psd(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20, 5))
        K = kernel_matrix(X, X, GaussianKernelParams(1.3))
        eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert eigs.min() >= -1e-10

    def test_matches_scalar_kernel(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 3))
        B = rng.standard_normal((4, 3))
        p = GaussianKernelParams(0.9)
        K = kernel_matrix(A, B, p)
        for i in range(6):
            for j in range(4):
                np.testing.assert_allclose(K[i, j], gaussian_kernel(A[i], B[j], p), rtol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            kernel_matrix(np.ones((2, 3)), np.ones((2, 4)), GaussianKernelParams(1.0))


class TestPairwiseSqDists:
    def test_exact_on_small_case(self):
        A = np.array([[0.0, 0.0], [3.0, 4.0]])
        B = np.array([[0.0, 0.0]])
        np.testing.assert_allclose(pairwise_sq_dists(A, B), [[0.0], [25.0]])

    def test_nonnegative_under_roundoff(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 6)) * 1e8
        d2 = pairwise_sq_dists(X, X)
        assert d2.min() >= 0.0


class TestBandwidthHeuristic:
    def test_two_points_one_dim(self):
        ds = Dataset(np.array([[0.0], [2.0]]), np.array([1, -1]), 1)
        assert bandwidth_heuristic(ds).sigma2 == 1.0

    def test_identical_points_error(self):
        ds = Dataset(np.full((5, 2), 3.7), np.array([1, 1, 1, -1, -1]), 2)
        with pytest.raises(DataError, match="sigma2"):
            bandwidth_heuristic(ds)

    def test_cap_limits_rows_used(self):
        # rows beyond the cap must not influence the estimate
        rng = np.random.default_rng(8)
        head = rng.standard_normal((100, 3))
        tail = rng.standard_normal((50, 3)) * 100.0
        y = np.where(rng.random(150) < 0.5, 1, -1)
        ds = Dataset(np.vstack([head, tail]), y, 3)
        capped = bandwidth_heuristic(ds, cap=100)
        head_only = bandwidth_heuristic(Dataset(head, y[:100], 3))
        assert capped.sigma2 == head_only.sigma2

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((60, 4)) + 2.0
        ds = Dataset(X, np.where(rng.random(60) < 0.5, 1, -1), 4)
        expected = np.mean(np.sum((X - X.mean(axis=0)) ** 2, axis=1))
        np.testing.assert_allclose(bandwidth_heuristic(ds).sigma2, expected, rtol=1e-12)

    def test_default_cap(self):
        import inspect

        sig = inspect.signature(bandwidth_heuristic)
        assert sig.parameters["cap"].default == 80000
