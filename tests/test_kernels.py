"""Tests for the Gaussian kernel, kernel matrices, and the bandwidth rule."""

import numpy as np
import pytest

from aucmax.dataio import Dataset
from aucmax.errors import ConfigError, DataError
from aucmax.kernels import (
    GaussianKernelParams,
    bandwidth_heuristic,
    gaussian_kernel,
    kernel_matrix,
    pairwise_sq_dists,
)


class TestParams:
    def test_rejects_bad_sigma2(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                GaussianKernelParams(bad)


class TestGaussianKernel:
    def test_zero_distance_is_one(self):
        x = np.array([1.0, 0.0, 0.0, -2.0])
        assert gaussian_kernel(x, x, GaussianKernelParams(1.0)) == 1.0

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
            x, y = rng.standard_normal((2, 12))
            assert gaussian_kernel(x, y, p) == gaussian_kernel(y, x, p)

    @pytest.mark.parametrize("x, y", [(np.zeros(3), np.zeros(4)), (np.zeros((2, 3)), np.zeros((2, 3)))],
                             ids=["lengths", "two-d"])
    def test_shape_mismatch_is_data_error(self, x, y):
        with pytest.raises(DataError):
            gaussian_kernel(x, y, GaussianKernelParams(1.0))

    def test_range(self):
        rng = np.random.default_rng(1)
        p = GaussianKernelParams(1.0)
        for _ in range(100):
            x, y = rng.standard_normal((2, 6))
            k = gaussian_kernel(x, y, p)
            assert 0.0 < k <= 1.0


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

    def test_bits_of_the_out_of_place_formula(self):
        rng = np.random.default_rng(9)
        A, B = rng.standard_normal((50, 7)) * 3, rng.standard_normal((40, 7))
        an, bn = np.einsum("ij,ij->i", A, A), np.einsum("ij,ij->i", B, B)
        expected = np.maximum(an[:, None] + bn[None, :] - 2.0 * (A @ B.T), 0.0)
        np.testing.assert_array_equal(pairwise_sq_dists(A, B), expected)

    def test_nonnegative_under_roundoff(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 6)) * 1e8
        d2 = pairwise_sq_dists(X, X)
        assert d2.min() >= 0.0


class TestBandwidthHeuristic:
    def test_two_points_one_dim(self):
        ds = Dataset(np.array([[0.0], [2.0]]), np.array([1, -1]))
        assert bandwidth_heuristic(ds).sigma2 == 1.0

    def test_identical_points_error(self):
        ds = Dataset(np.full((5, 2), 3.7), np.array([1, 1, 1, -1, -1]))
        with pytest.raises(DataError, match="sigma2"):
            bandwidth_heuristic(ds)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((60, 4)) + 2.0
        ds = Dataset(X, np.where(rng.random(60) < 0.5, 1, -1))
        expected = np.mean(np.sum((X - X.mean(axis=0)) ** 2, axis=1))
        np.testing.assert_allclose(bandwidth_heuristic(ds).sigma2, expected, rtol=1e-12)
