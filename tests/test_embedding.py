"""Tests for k-means landmarks, the Nystroem map, and random cosine features."""

import numpy as np
import pytest

from aucmax.dataio import Dataset, SparseVector
from aucmax.embedding import (
    LandmarkSet,
    NystroemMap,
    _lloyd,
    embed,
    embed_point,
    fit_nystroem,
    fit_rff,
    kmeans,
)
from aucmax.errors import ConfigError, DataError, NumericalError
from aucmax.kernels import GaussianKernelParams, kernel_matrix


def _labels(n, rng):
    y = np.where(rng.random(n) < 0.5, 1, -1)
    y[0], y[1] = 1, -1
    return y


class TestKmeans:
    def test_single_centroid_is_mean(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        ds = Dataset(X, _labels(40, rng))
        lm = kmeans(ds, v=1, max_iter=20, seed=0)
        np.testing.assert_allclose(lm.centroids, X.mean(axis=0, keepdims=True), atol=1e-12)

    def test_v_equals_n_distinct_points(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((12, 2))
        ds = Dataset(X, _labels(12, rng))
        lm = kmeans(ds, v=12, max_iter=20, seed=3)
        # zero cost: every point is its own centroid
        assert sorted(map(tuple, lm.centroids)) == sorted(map(tuple, X))

    def test_two_blobs_recovered(self):
        bad = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            a = rng.standard_normal((200, 2)) * 0.3 + np.array([5.0, 5.0])
            b = rng.standard_normal((200, 2)) * 0.3 - np.array([5.0, 5.0])
            X = np.vstack([a, b])
            ds = Dataset(X, np.array([1] * 200 + [-1] * 200))
            lm = kmeans(ds, v=2, max_iter=50, seed=seed)
            got = sorted(map(tuple, lm.centroids))
            want = sorted([(-5.0, -5.0), (5.0, 5.0)])
            if any(np.hypot(g[0] - w[0], g[1] - w[1]) > 0.5 for g, w in zip(got, want)):
                bad += 1
        assert bad == 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((60, 4))
        ds = Dataset(X, _labels(60, rng))
        a = kmeans(ds, v=5, max_iter=30, seed=7)
        b = kmeans(ds, v=5, max_iter=30, seed=7)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_v_too_large(self):
        ds = Dataset(np.ones((3, 2)), np.array([1, 1, -1]))
        with pytest.raises(DataError):
            kmeans(ds, v=4)

    def test_inertia_nonincreasing(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((300, 5))
        init = X[rng.choice(300, size=8, replace=False)].copy()
        _, history = _lloyd(X, init, max_iter=50)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-9)

    def test_update_sums_each_cluster_in_row_order(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 6))
        X[rng.random((80, 6)) < 0.5] = 0.0
        init = X[[3, 17, 42, 64]].copy()
        labels = np.argmin(((X[:, None, :] - init[None]) ** 2).sum(axis=2), axis=1)
        sums = np.zeros_like(init)
        for i in range(80):
            sums[labels[i]] += X[i]
        expected = sums / np.bincount(labels, minlength=4)[:, None]
        centroids, _ = _lloyd(X, init, max_iter=1)
        np.testing.assert_array_equal(centroids, expected)

    def test_duplicate_points_handled(self):
        # more landmarks than distinct values forces the uniform fallback
        X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0]])
        ds = Dataset(X, np.array([1, 1, -1, -1, -1]))
        lm = kmeans(ds, v=4, max_iter=10, seed=0)
        assert lm.v == 4
        assert np.all(np.isfinite(lm.centroids))


class TestFitNystroem:
    def test_single_landmark(self):
        lm = LandmarkSet(np.array([[1.0, 2.0]]))
        m = fit_nystroem(lm, GaussianKernelParams(1.0))
        np.testing.assert_array_equal(m.projection, [[1.0]])
        np.testing.assert_array_equal(m.eigenvalues, [1.0])
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(embed_point(m, x), [1.0])

    def test_duplicate_landmark_drops_rank(self):
        lm = LandmarkSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
        m = fit_nystroem(lm, GaussianKernelParams(1.0))
        # all-ones 2x2 kernel matrix has spectrum {2, 0}
        assert m.rank == 1
        np.testing.assert_allclose(m.eigenvalues, [2.0], atol=1e-12)

    def test_landmark_gram_reproduces_w(self):
        rng = np.random.default_rng(6)
        C = rng.standard_normal((15, 3))
        lm = LandmarkSet(C)
        p = GaussianKernelParams(2.0)
        m = fit_nystroem(lm, p)
        Z = np.vstack([embed_point(m, C[i]) for i in range(15)])
        W = kernel_matrix(C, C, p)
        np.testing.assert_allclose(Z @ Z.T, W, atol=1e-8)

    def test_full_landmark_exactness(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 4))
        y = _labels(50, rng)
        ds = Dataset(X, y)
        p = GaussianKernelParams(1.5)
        m = fit_nystroem(LandmarkSet(X), p)
        emb = embed(m, ds)
        K = kernel_matrix(X, X, p)
        np.testing.assert_allclose(emb.X @ emb.X.T, K, atol=1e-6)

    def test_rank_cap(self):
        rng = np.random.default_rng(8)
        lm = LandmarkSet(rng.standard_normal((10, 2)))
        m = fit_nystroem(lm, GaussianKernelParams(1.0), rank_cap=3)
        assert m.rank == 3
        assert m.projection.shape == (3, 10)

    def test_embedded_gram_psd(self):
        rng = np.random.default_rng(9)
        lm = LandmarkSet(rng.standard_normal((12, 3)))
        m = fit_nystroem(lm, GaussianKernelParams(0.8))
        Xq = rng.standard_normal((30, 3))
        Z = np.vstack([embed_point(m, q) for q in Xq])
        eigs = np.linalg.eigvalsh(Z @ Z.T)
        assert eigs.min() >= -1e-10

    def test_approximation_improves_with_landmarks(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((500, 4))
        y = _labels(500, rng)
        ds = Dataset(X, y)
        p = GaussianKernelParams(4.0)
        K = kernel_matrix(X, X, p)
        errs = []
        for v in (8, 32, 128):
            per_seed = []
            for seed in range(10):
                lm = kmeans(ds, v=v, max_iter=25, seed=seed)
                m = fit_nystroem(lm, p)
                Z = embed(m, ds).X
                per_seed.append(np.linalg.norm(K - Z @ Z.T))
            errs.append(np.mean(per_seed))
        assert errs[0] >= errs[1] >= errs[2]

    def test_eigenvalue_ordering(self):
        rng = np.random.default_rng(11)
        lm = LandmarkSet(rng.standard_normal((20, 3)))
        m = fit_nystroem(lm, GaussianKernelParams(1.0))
        assert np.all(np.diff(m.eigenvalues) <= 0)
        assert np.all(m.eigenvalues > 0)


class TestEmbed:
    def test_dimension_contract(self):
        rng = np.random.default_rng(12)
        lm = LandmarkSet(rng.standard_normal((6, 3)))
        m = fit_nystroem(lm, GaussianKernelParams(1.0), rank_cap=4)
        ds = Dataset(rng.standard_normal((9, 3)), _labels(9, rng))
        emb = embed(m, ds)
        assert emb.X.shape == (9, 4)
        np.testing.assert_array_equal(emb.y, ds.y)

    def test_index_sets(self):
        m = fit_nystroem(LandmarkSet(np.eye(2)), GaussianKernelParams(1.0))
        emb = embed(m, Dataset(np.zeros((4, 2)), np.array([1, -1, -1, 1])))
        pos_idx, neg_idx = emb.class_indices()
        np.testing.assert_array_equal(pos_idx, [0, 3])
        np.testing.assert_array_equal(neg_idx, [1, 2])

    def test_dim_mismatch(self):
        lm = LandmarkSet(np.ones((2, 3)))
        m = fit_nystroem(lm, GaussianKernelParams(1.0))
        with pytest.raises(DataError):
            embed_point(m, np.ones(4))

    def test_embed_matches_embed_point(self):
        rng = np.random.default_rng(13)
        lm = LandmarkSet(rng.standard_normal((7, 2)))
        m = fit_nystroem(lm, GaussianKernelParams(1.0))
        X = rng.standard_normal((5, 2))
        ds = Dataset(X, np.array([1, -1, 1, -1, 1]))
        emb = embed(m, ds)
        for i in range(5):
            np.testing.assert_allclose(emb.X[i], embed_point(m, X[i]), atol=1e-13)

    def test_sparse_point(self):
        lm = LandmarkSet(np.eye(4))
        m = fit_nystroem(lm, GaussianKernelParams(1.0))
        x = SparseVector([1], [1.0])
        np.testing.assert_allclose(embed_point(m, x), embed_point(m, np.array([0.0, 1.0, 0.0, 0.0])))


class TestRff:
    def test_self_inner_product_near_one(self):
        rng = np.random.default_rng(14)
        m = fit_rff(5, 4096, GaussianKernelParams(1.0), seed=0)
        x = rng.standard_normal(5)
        z = embed_point(m, x)
        assert abs(z @ z - 1.0) < 0.05

    def test_unbiased_kernel_estimate(self):
        p = GaussianKernelParams(2.0)
        x = np.zeros(3)
        y = np.array([2.0, 0.0, 0.0])  # ||x-y||^2 = 4 = 2 sigma2
        vals = []
        for seed in range(50):
            m = fit_rff(3, 2048, p, seed=seed)
            vals.append(embed_point(m, x) @ embed_point(m, y))
        assert abs(np.mean(vals) - np.exp(-1.0)) < 0.05

    def test_scale(self):
        m = fit_rff(2, 8, GaussianKernelParams(1.0), seed=1)
        np.testing.assert_allclose(m.scale, np.sqrt(0.25))

    def test_deterministic(self):
        a = fit_rff(4, 64, GaussianKernelParams(1.0), seed=5)
        b = fit_rff(4, 64, GaussianKernelParams(1.0), seed=5)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        np.testing.assert_array_equal(a.phases, b.phases)

    def test_dataset_embedding_shape(self):
        rng = np.random.default_rng(15)
        m = fit_rff(3, 32, GaussianKernelParams(1.0), seed=2)
        ds = Dataset(rng.standard_normal((6, 3)), np.array([1, -1] * 3))
        emb = embed(m, ds)
        assert emb.X.shape == (6, 32)
        np.testing.assert_allclose(emb.X[0], embed_point(m, ds.X[0]), atol=1e-13)


class TestValidation:
    def test_nystroem_map_shape_check(self):
        lm = LandmarkSet(np.ones((3, 2)))
        with pytest.raises(DataError):
            NystroemMap(lm, GaussianKernelParams(1.0), np.ones((2, 4)), np.array([1.0, 0.5]))

    def test_landmarks_must_be_finite(self):
        with pytest.raises(DataError):
            LandmarkSet(np.array([[np.nan, 0.0]]))
