"""Tests for k-means landmarks, the Nystroem map, and random cosine features."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aucmax import embedding
from aucmax.dataio import Dataset, SparseVector, Standardizer, _row_chunks
from aucmax.embedding import (
    LandmarkSet,
    NystroemMap,
    _assign,
    _kmeanspp,
    _landmark_kernel,
    _lloyd,
    embed,
    embed_point,
    fit_nystroem,
    fit_rff,
    kmeans,
)
from aucmax.errors import ConfigError, DataError
from aucmax.kernels import GaussianKernelParams, kernel_matrix, pairwise_sq_dists, row_sq_norms
from aucmax.model import LinearModel, TrainedPipeline, load_model, save_model
from aucmax.synthetic import make_rings


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

    def test_kmeanspp_picks_distinct_rows(self):
        # a draw just under the pairwise d2.sum() used to pass the sequential
        # cumsum's last entry and be clamped onto an already chosen row
        class EdgeRng:
            def integers(self, n):
                return n - 1

            def random(self):
                return 1.0 - 2.0**-53

        X = np.random.default_rng(1).standard_normal((300, 1))
        chosen = _kmeanspp(X, 2, EdgeRng())
        assert chosen[0] != chosen[1]

    @pytest.mark.parametrize("rows", [
        [[0.0, 1.0]] * 5 + [[1e160, 0.0]],
        [[4e153, 0.0], [-4e153, 0.0]] * 10 + [[0.0, 1.0]] * 5,
    ], ids=["far-row", "many-large-rows"])
    def test_overflowing_seeding_distances_are_a_data_error(self, rows):
        # the seeding's running sum of squared distances reaches inf, from
        # one row's distance or from many finite ones: the draw would land
        # past the last row
        X = np.array(rows)
        with pytest.raises(DataError, match="overflow"):
            kmeans(Dataset(X, _labels(X.shape[0], np.random.default_rng(0))), v=3, seed=0)

    def test_diagnostics(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((200, 3))
        lm = kmeans(Dataset(X, _labels(200, rng)), v=6, max_iter=50, seed=1)
        _, history = _lloyd(X, X[_kmeanspp(X, 6, np.random.default_rng(1))], 50)
        assert lm.diagnostics["lloyd_iterations"] == len(history)
        assert lm.diagnostics["inertia"] == history[-1]
        assert len(lm.diagnostics["distance_rows"]) == len(history)

    def test_duplicate_points_handled(self):
        # more landmarks than distinct values forces the uniform fallback
        X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0]])
        ds = Dataset(X, np.array([1, 1, -1, -1, -1]))
        lm = kmeans(ds, v=4, max_iter=10, seed=0)
        assert lm.v == 4
        assert np.all(np.isfinite(lm.centroids))


def _full_argmin_lloyd(X, centroids, max_iter):
    """The oracle: Lloyd with every row's distances to every centroid computed
    at every iteration, chunked as _lloyd's full assignment. Returns the
    centroids and each iteration's labels."""
    d, v = X.shape[1], centroids.shape[0]
    seen = []
    for _ in range(max_iter):
        labels = np.empty(X.shape[0], dtype=np.int64)
        d2 = np.empty(X.shape[0])
        c_norms = row_sq_norms(centroids)
        for rows in _row_chunks(X.shape[0], v):
            D = pairwise_sq_dists(X[rows], centroids, c_norms)
            labels[rows] = np.argmin(D, axis=1)
            d2[rows] = D[np.arange(D.shape[0]), labels[rows]]
        seen.append(labels)
        if len(seen) > 1 and np.array_equal(labels, seen[-2]):
            break
        bins = (labels[:, None] * d + np.arange(d)).ravel()
        sums = np.bincount(bins, weights=X.ravel(), minlength=v * d).reshape(v, d)
        counts = np.bincount(labels, minlength=v).astype(np.float64)
        nonempty = counts > 0
        centroids = centroids.copy()
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        for c in np.flatnonzero(counts == 0):
            far = int(np.argmax(d2))
            centroids[c] = X[far]
            d2[far] = -np.inf
    return centroids, seen


def _integer_rows(seed, n, d, v):
    """Rows on an integer grid, many of them duplicates, and v of them as centroids."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
    return X, X[rng.choice(n, v, replace=False)]


def _box_rows(seed, n, d, v):
    """Normal rows, and v centroids drawn uniformly from a box, not from the rows."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.uniform(-2.0, 2.0, (v, d))


def _rings_rows(n, v):
    X = make_rings(n, seed=3).X
    return X, X[_kmeanspp(X, v, np.random.default_rng(0))]


def _gaussian_rows(n, d, v):
    rng = np.random.default_rng(21)
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, size=d)
    return X, X[_kmeanspp(X, v, rng)]


def _lognormal_rows(n, d, v):
    """Standardized heavy-tailed rows, shaped like spambase's."""
    rng = np.random.default_rng(57)
    X = rng.lognormal(0.0, 1.0, (n, d))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    return X, X[_kmeanspp(X, v, rng)]


def _far_rows(seed):
    """Rows 1e8 from the origin with spread 10: the distance formula's
    rounding, about eps * 1e16, is as large as the gaps it must separate."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, 2)) * 10.0 + 1e8
    return X, X[rng.choice(40, 4, replace=False)]


def _mirrored_grid():
    """Integer grid points; those on x = 0 are equidistant from the two
    mirrored centroids, so the full argmin's lowest index takes them."""
    g = np.arange(-3.0, 4.0)
    X = np.array([(a, b) for a in g for b in g])
    return X, np.array([[-1.0, 0.0], [1.0, 0.0]])


class TestLloydExact:
    """_lloyd's bounds skip distance rows, yet its labels must be the full
    argmin's at every iteration, down to ties and the last bit."""

    CASES = {
        "rings-v64": lambda: _rings_rows(3000, 64),
        "rings-v400": lambda: _rings_rows(3000, 400),
        "gaussian-d57": lambda: _gaussian_rows(1500, 57, 40),
        # v close to n: the gap product spares too few rows and is dropped after one
        "lognormal-d57": lambda: _lognormal_rows(600, 57, 500),
        "v1": lambda: _gaussian_rows(200, 3, 1),
        "v2": lambda: _rings_rows(500, 2),
        "mirrored-grid": _mirrored_grid,
        # bounds skipped without a rounding slack give other labels here
        "far-offset-9": lambda: _far_rows(9),
        "far-offset-18": lambda: _far_rows(18),
        # an exact tie after the first iteration
        "late-tie": lambda: _integer_rows(5, 35, 2, 4),
        # duplicates that leave a cluster empty after the first iteration
        "late-empty": lambda: _integer_rows(5, 20, 1, 5),
        # a cluster left empty by a partial assignment, in the second iteration
        "partial-empty": lambda: _box_rows(10, 15, 2, 7),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_argmin(self, case):
        X, init = self.CASES[case]()
        want_centroids, want_labels = _full_argmin_lloyd(X, init, 100)
        got_labels, rows = [], []
        centroids, history = _lloyd(X, init, 100, lambda lab, r: (got_labels.append(lab.copy()), rows.append(r)))
        assert len(history) == len(got_labels) == len(want_labels)
        for got, want in zip(got_labels, want_labels):
            np.testing.assert_array_equal(got, want)
        assert centroids.tobytes() == want_centroids.tobytes()
        if case in ("late-tie", "late-empty"):
            # the near tie or the re-seeding took a full assignment after the first
            assert max(rows[1:]) >= X.shape[0]
        if case == "partial-empty":
            # the re-seed reads every row's distances after the partial assignment computed some
            assert max(rows[1:]) > X.shape[0]

    def test_mirrored_tie_goes_to_lowest_index(self):
        X, init = _mirrored_grid()
        first = []
        _lloyd(X, init, 1, lambda lab, _: first.append(lab))
        np.testing.assert_array_equal(first[0][X[:, 0] == 0.0], 0)

    @pytest.mark.parametrize("d", [2, 57])
    def test_subset_rounding_within_bound(self, d):
        # A row's distances need not have the same bits alone, in a subset
        # and in its full chunk: numpy sends one row through gemv, and
        # OpenBLAS picks small-matrix kernels by shape. _lloyd relies only on
        # each being within (d + 2) eps R^2 of the true value, and settles
        # near ties with a full assignment.
        rng = np.random.default_rng(d)
        n, v = 3000, 64
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, size=d)
        C = X[rng.choice(n, v, replace=False)] + 0.01
        c_norms = row_sq_norms(C)
        full = np.vstack([pairwise_sq_dists(X[rows], C, c_norms) for rows in _row_chunks(n, v)])
        true = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        bound = (d + 2) * np.finfo(np.float64).eps * (row_sq_norms(X)[:, None] + c_norms.max())
        assert np.all(np.abs(full - true) <= bound)
        for m in (1, 2, 7, 17, 300):
            idx = np.sort(rng.choice(n, m, replace=False))
            sub = pairwise_sq_dists(X[idx], C, c_norms)
            assert np.all(np.abs(sub - full[idx]) <= 2 * bound[idx])

    @pytest.mark.parametrize("case", ["lognormal-d57", "rings-v64"])
    def test_gap_product_only_while_it_pays(self, case, monkeypatch):
        X, init = self.CASES[case]()
        assign, products = _assign, [0]

        def counted(A, centroids, *args):
            products[-1] += A is centroids
            return assign(A, centroids, *args)

        monkeypatch.setattr(embedding, "_assign", counted)
        _, history = _lloyd(X, init, 100, lambda *_: products.append(0))
        products.pop()
        # one per iteration after the first, until one spares no more than v rows
        want = [0, 1, 0] if case == "lognormal-d57" else [0] + [1] * (len(history) - 1)
        assert products == want

    def test_most_distance_rows_skipped(self):
        ds = make_rings(4000, seed=7)
        lm = kmeans(ds, v=100, seed=0)
        diag = lm.diagnostics
        assert len(diag["distance_rows"]) == diag["lloyd_iterations"]
        assert diag["distance_rows"][0] == ds.n
        assert sum(diag["distance_rows"]) < 0.4 * ds.n * diag["lloyd_iterations"]


class TestFitNystroem:
    def test_single_landmark(self):
        # W = [[1]] factors by Cholesky, with L = [[1]]
        lm = LandmarkSet(np.array([[1.0, 2.0]]))
        m = fit_nystroem(lm, GaussianKernelParams(1.0))
        assert m.diagnostics == {"retained_rank": 1, "pruned_landmarks": 0, "dropped_mass": 0.0}
        np.testing.assert_array_equal(m.projection, [[1.0]])
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(m.features(x[None])[0], [1.0])

    def test_duplicate_landmark_drops_rank(self):
        lm = LandmarkSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
        m = fit_nystroem(lm, GaussianKernelParams(1.0))
        # the all-ones 2x2 kernel matrix has rank 1: the map keeps the first landmark
        assert m.rank == 1
        np.testing.assert_array_equal(m.landmarks.centroids, [[1.0, 0.0]])
        assert m.diagnostics["pruned_landmarks"] == 1 and m.diagnostics["dropped_mass"] == 0.0

    def test_landmark_gram_reproduces_w(self):
        rng = np.random.default_rng(6)
        C = rng.standard_normal((15, 3))
        lm = LandmarkSet(C)
        p = GaussianKernelParams(2.0)
        m = fit_nystroem(lm, p)
        Z = m.features(C)
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

    def test_embedded_gram_psd(self):
        rng = np.random.default_rng(9)
        lm = LandmarkSet(rng.standard_normal((12, 3)))
        m = fit_nystroem(lm, GaussianKernelParams(0.8))
        Xq = rng.standard_normal((30, 3))
        Z = m.features(Xq)
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

    def test_factors_once(self, monkeypatch):
        # the fitted map keeps its whitening: features and folding factor nothing again
        calls = []
        factor = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda W: calls.append(W.shape) or factor(W))
        C = np.random.default_rng(17).standard_normal((9, 2))
        # two repeats: the full 11 x 11 matrix fails, and the 9 distinct landmarks factor
        for duplicates, shapes in ((0, [(9, 9)]), (2, [(11, 11), (9, 9)])):
            calls.clear()
            m = fit_nystroem(LandmarkSet(np.vstack([C, C[:duplicates]])), GaussianKernelParams(1.0))
            m.features(np.zeros((3, 2)))
            m.fold(np.ones(m.rank))
            assert calls == shapes

    def test_diagnostics_report_the_dropped_spectrum(self):
        rng = np.random.default_rng(16)
        C = rng.standard_normal((12, 3))
        p = GaussianKernelParams(1.0)
        m = fit_nystroem(LandmarkSet(C), p)
        assert m.diagnostics == {"retained_rank": 12, "pruned_landmarks": 0, "dropped_mass": 0.0}
        # three repeats: the map keeps the 12 distinct landmarks and drops only rounding
        m = fit_nystroem(LandmarkSet(np.vstack([C, C[:3]])), p)
        assert m.diagnostics["retained_rank"] == 12 and m.diagnostics["pruned_landmarks"] == 3
        assert 0.0 <= m.diagnostics["dropped_mass"] <= 1e-12
        # 60 landmarks on a segment: W is numerically rank-deficient, and the
        # dropped mass is the trace of W less that of the embedded landmarks' Gram matrix
        U = np.linspace(0.0, 1.0, 60)[:, None] * [1.0, 2.0, -1.0]
        m = fit_nystroem(LandmarkSet(U), p)
        E = m.features(U)
        assert m.rank == m.diagnostics["retained_rank"] < 60
        assert m.diagnostics["pruned_landmarks"] == 60 - m.rank
        assert m.diagnostics["dropped_mass"] == pytest.approx(60 - np.einsum("ij,ij->", E, E), rel=1e-3)

    # Twelve landmarks, the second delta from the first. The pair sets the
    # smallest eigenvalue of W: the Cholesky certificate holds down to
    # delta = 1e-4; from 5e-6 down it fails, and the pivoted Cholesky keeps
    # one landmark of the pair.
    ROUTES = [
        (1.0, "cholesky"), (1e-2, "cholesky"), (1e-4, "cholesky"),
        (5e-6, "pivoted"), (1e-6, "pivoted"), (1e-8, "pivoted"),
    ]

    @staticmethod
    def paired_landmarks(delta):
        C = np.random.default_rng(18).standard_normal((12, 3))
        C[1] = C[0] + [delta, 0.0, 0.0]
        return C

    @pytest.mark.parametrize("delta, route", ROUTES)
    def test_route_keeps_certified_landmarks(self, delta, route):
        C = self.paired_landmarks(delta)
        p = GaussianKernelParams(1.0)
        m = fit_nystroem(LandmarkSet(C), p)
        kept = np.arange(12) if route == "cholesky" else np.delete(np.arange(12), 1)
        np.testing.assert_array_equal(m.landmarks.centroids, C[kept])
        assert m.diagnostics["pruned_landmarks"] == 12 - kept.size
        W = kernel_matrix(C, C, p)
        E = m.features(C)
        assert np.max(np.abs(E @ E.T - W)) <= m.diagnostics["dropped_mass"] + 1e-9 * 12

    @pytest.mark.parametrize("delta, route", ROUTES)
    def test_loaded_map_takes_the_fitted_route(self, tmp_path, delta, route):
        C = self.paired_landmarks(delta)
        m = fit_nystroem(LandmarkSet(C), GaussianKernelParams(1.0))
        w = np.random.default_rng(19).standard_normal(m.rank)
        path = str(tmp_path / "model.txt")
        save_model(path, TrainedPipeline(Standardizer(np.zeros(3), np.ones(3)), m, LinearModel(w, "batch", {})))
        loaded = load_model(path)
        assert loaded.embedding.rank == (12 if route == "cholesky" else 11)
        X = np.vstack([C, np.random.default_rng(20).standard_normal((20, 3))])
        np.testing.assert_array_equal(loaded.embedding.features(X), m.features(X))
        np.testing.assert_allclose(loaded.linear.w, w, rtol=0, atol=1e-9 * np.abs(w).max())


@st.composite
def crowded_landmarks(draw):
    """A few random landmarks with exact and near repeats of some of them
    (offsets 1e-8 to 1e-3) mixed in, and a bandwidth."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    C = rng.standard_normal((draw(st.integers(1, 10)), d))
    offsets = st.sampled_from([0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3])
    repeats = draw(st.lists(st.tuples(st.integers(0, C.shape[0] - 1), offsets), max_size=8))
    rows = [C]
    for i, offset in repeats:
        u = rng.standard_normal(d)
        rows.append(C[i] + offset * u / np.linalg.norm(u))
    return np.vstack(rows)[rng.permutation(C.shape[0] + len(repeats))], draw(st.sampled_from([0.25, 1.0, 4.0]))


def _copies_past_a_pivot_block():
    """200 distinct landmarks and copies of the first 40, at sigma2 = 4: the
    pivoted Cholesky keeps 200, so it updates W after its first block of pivots."""
    C = 3.0 * np.random.default_rng(5).standard_normal((200, 8))
    return np.vstack([C, C[:40]]), 4.0


class TestPrunedMap:
    @settings(max_examples=60, deadline=None)
    @given(crowded_landmarks())
    @example(_copies_past_a_pivot_block())
    def test_pruned_map_is_certified_exact_and_reproducible(self, case):
        C, sigma2 = case
        p = GaussianKernelParams(sigma2)
        m = fit_nystroem(LandmarkSet(C), p)
        v, kept = C.shape[0], m.landmarks.centroids
        # the kept landmarks are rows of C, in C's order
        rows = iter(C)
        assert all(any(np.array_equal(row, r) for r in rows) for row in kept)
        assert m.diagnostics["pruned_landmarks"] == v - m.rank
        # their kernel matrix passes the certificate that the whitening rests on
        W_kept = kernel_matrix(kept, kept, p)
        assert float(np.vdot(m.projection, m.projection)) * float(np.trace(W_kept)) * 1e-12 < 1
        # the map reproduces the whole v x v W up to the mass it reports dropped
        W = kernel_matrix(C, C, p)
        E = m.features(C)
        assert np.max(np.abs(E @ E.T - W)) <= m.diagnostics["dropped_mass"] + 1e-9 * np.trace(W)
        # a second fit gives the same bits, and a saved map loads to them and saves back to the byte
        again = fit_nystroem(LandmarkSet(C), p)
        np.testing.assert_array_equal(again.landmarks.centroids, kept)
        np.testing.assert_array_equal(again.projection, m.projection)
        assert again.diagnostics == m.diagnostics
        pipe = TrainedPipeline(Standardizer(np.zeros(C.shape[1]), np.ones(C.shape[1])), m,
                               LinearModel(np.ones(m.rank), "batch", {}))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.model"), Path(tmp, "b.model")
            save_model(str(first), pipe)
            loaded = load_model(str(first))
            np.testing.assert_array_equal(loaded.embedding.projection, m.projection)
            save_model(str(second), loaded)
            assert first.read_bytes() == second.read_bytes()


class TestEmbed:
    def test_dimension_contract(self):
        rng = np.random.default_rng(12)
        lm = LandmarkSet(rng.standard_normal((6, 3)))
        m = fit_nystroem(lm, GaussianKernelParams(1.0))
        ds = Dataset(rng.standard_normal((9, 3)), _labels(9, rng))
        emb = embed(m, ds)
        assert emb.X.shape == (9, 6)
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

    @pytest.mark.parametrize("kind", ["nystroem", "pruned", "rff"])
    def test_one_row_has_the_bits_of_the_one_row_matrix(self, kind):
        rng = np.random.default_rng(17)
        C = rng.standard_normal((9, 3))
        if kind == "rff":
            m = fit_rff(3, 40, GaussianKernelParams(2.0), seed=1)
        else:
            m = fit_nystroem(LandmarkSet(np.vstack([C, C[:2]]) if kind == "pruned" else C), GaussianKernelParams(2.0))
            assert m.diagnostics["pruned_landmarks"] == (2 if kind == "pruned" else 0)
        beta = rng.standard_normal(m.rank)
        for x in rng.standard_normal((20, 3)) * 2:
            assert m.features(x).tobytes() == m.features(x[None])[0].tobytes()
            assert m.score(x, beta).tobytes() == m.score(x[None], beta)[0].tobytes()

    def test_sparse_point(self):
        lm = LandmarkSet(np.eye(4))
        m = fit_nystroem(lm, GaussianKernelParams(1.0))
        x = SparseVector([1], [1.0])
        np.testing.assert_allclose(embed_point(m, x), embed_point(m, np.array([0.0, 1.0, 0.0, 0.0])))


class TestChunking:
    def test_score_has_the_bits_of_one_product(self):
        # at v = 610 the budget allows 429 rows, which would end a chunk inside
        # one of gemv's groups of 4 rows: the chunks are 424 and 276 rows, and
        # each score has the bits of one kappa(X, U) @ beta over all rows
        rng = np.random.default_rng(40)
        C, X = rng.standard_normal((610, 5)), rng.standard_normal((700, 5))
        kernel = GaussianKernelParams(3.0)
        chunks = _row_chunks(700, 610)
        assert [c.stop for c in chunks] == [424, 700]
        m = NystroemMap(LandmarkSet(C), kernel)
        K = np.vstack([kernel_matrix(X[rows], C, kernel) for rows in chunks])
        beta = rng.standard_normal(610)
        np.testing.assert_array_equal(m.score(X, beta), K @ beta)

    def test_landmark_kernel_is_symmetrized_by_chunks(self):
        rng = np.random.default_rng(44)
        C = rng.standard_normal((610, 5))
        kernel = GaussianKernelParams(3.0)
        K = np.vstack([kernel_matrix(C[rows], C, kernel) for rows in _row_chunks(610, 610)])
        W = _landmark_kernel(LandmarkSet(C), kernel)
        np.testing.assert_array_equal(W, 0.5 * (K + K.T))
        np.testing.assert_array_equal(W, W.T)

    def test_row_chunks_cover_in_whole_row_groups(self):
        # 865 = 2 * 432 + 1 rows at v = 600: the lone last row joins the chunk before
        for n_rows, n_cols in [(1, 1), (9, 2**18), (865, 600), (1000, 600), (5, 10**6), (2**18 + 3, 1)]:
            chunks = _row_chunks(n_rows, n_cols)
            assert chunks[0].start == 0 and chunks[-1].stop == n_rows
            assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
            assert all((c.stop - c.start) % 8 == 0 for c in chunks[:-1])
            assert n_rows == 1 or chunks[-1].stop - chunks[-1].start > 1
        assert [c.stop for c in _row_chunks(865, 600)] == [432, 865]


def traced_peak(fn):
    """fn's result and the most bytes it held at once beyond what was held before, by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """Each n x v pass holds its output plus a fixed scratch of chunk-sized arrays.

    The inputs span 16 chunks of the 2**18-cell budget (2 MB of float64) that
    dataio.py documents. The traced excess over the output, in chunks, read
    2.07 for features and score, 2.03 for RFF score (17.97 when it built all
    n x D cosines) and 4.29 for kmeans (whose O(n) bounds and labels add
    about one); fit_nystroem held W and its Cholesky factor, two
    projection-sized arrays, plus 0.001. With chunks of 4e6 cells the same
    excess read 30.6, 31.0 and 14.6.
    """

    CHUNK_BYTES = 2**18 * 8
    SCRATCH = 6 * CHUNK_BYTES

    @pytest.fixture(scope="class")
    def nystroem(self):
        rng = np.random.default_rng(41)
        m = fit_nystroem(LandmarkSet(rng.standard_normal((256, 16))), GaussianKernelParams(4.0))
        assert m.rank == 256
        return m, rng.standard_normal((16384, 16))

    def test_features(self, nystroem):
        m, X = nystroem
        out, peak = traced_peak(lambda: m.features(X))
        assert X.shape[0] * m.rank >= 16 * self.CHUNK_BYTES / 8
        assert peak <= out.nbytes + self.SCRATCH

    def test_score(self, nystroem):
        m, X = nystroem
        out, peak = traced_peak(lambda: m.score(X, np.ones(m.rank)))
        assert peak <= out.nbytes + self.SCRATCH

    def test_rff_score(self, nystroem):
        # all n x D cosines at once would be 16 chunks
        _, X = nystroem
        m = fit_rff(16, 256, GaussianKernelParams(4.0), seed=0)
        out, peak = traced_peak(lambda: m.score(X, np.ones(m.rank)))
        assert peak <= out.nbytes + self.SCRATCH

    def test_kmeans(self):
        rng = np.random.default_rng(42)
        data = Dataset(rng.standard_normal((16384, 4)), np.ones(16384, dtype=np.int64))
        out, peak = traced_peak(lambda: kmeans(data, 256, max_iter=5, seed=0))
        assert out.diagnostics["lloyd_iterations"] > 1
        assert peak <= out.centroids.nbytes + self.SCRATCH

    def test_fit_nystroem(self):
        # 2048 well-separated landmarks: W is near the identity, so the Cholesky route runs
        rng = np.random.default_rng(43)
        landmarks = LandmarkSet(rng.standard_normal((2048, 64)))
        out, peak = traced_peak(lambda: fit_nystroem(landmarks, GaussianKernelParams(16.0)))
        assert out.rank == 2048
        assert peak <= 2 * out.projection.nbytes + self.SCRATCH


class TestRff:
    def test_self_inner_product_near_one(self):
        rng = np.random.default_rng(14)
        m = fit_rff(5, 4096, GaussianKernelParams(1.0), seed=0)
        x = rng.standard_normal(5)
        z = m.features(x[None])[0]
        assert abs(z @ z - 1.0) < 0.05

    def test_unbiased_kernel_estimate(self):
        p = GaussianKernelParams(2.0)
        x = np.zeros(3)
        y = np.array([2.0, 0.0, 0.0])  # ||x-y||^2 = 4 = 2 sigma2
        vals = []
        for seed in range(50):
            m = fit_rff(3, 2048, p, seed=seed)
            z = m.features(np.vstack([x, y]))
            vals.append(z[0] @ z[1])
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
        np.testing.assert_allclose(emb.X[0], m.features(ds.X[:1])[0], atol=1e-13)


class TestValidation:
    def test_nystroem_map_shape_check(self):
        # a map built from landmarks alone has one direction per landmark
        m = NystroemMap(LandmarkSet(np.eye(3)), GaussianKernelParams(1.0))
        assert m.rank == 3 and m.projection.shape == (3, 3)
        assert m.features(np.zeros((5, 3))).shape == (5, 3)

    def test_rank_beyond_the_numerical_rank_fails_on_access(self):
        # duplicate landmarks: W has numerical rank 1, so a map of both has no projection
        m = NystroemMap(LandmarkSet(np.ones((2, 2))), GaussianKernelParams(1.0))
        with pytest.raises(DataError, match="kernel matrix of the 2 landmarks is not certified"):
            m.projection

    def test_unfold_beyond_the_numerical_rank_fails_on_access(self, tmp_path):
        # a loaded model whose landmark 1 duplicates landmark 0 scores through its folded weights, but has no w
        rng = np.random.default_rng(45)
        m = fit_nystroem(LandmarkSet(rng.standard_normal((3, 2))), GaussianKernelParams(1.0))
        pipe = TrainedPipeline(Standardizer(np.zeros(2), np.ones(2)), m, LinearModel(np.ones(3), "batch", {}))
        m.landmarks.centroids[1] = m.landmarks.centroids[0]
        save_model(str(tmp_path / "m.model"), pipe)
        loaded = load_model(str(tmp_path / "m.model"))
        assert np.isfinite(loaded.score_point(np.zeros(2)))
        with pytest.raises(DataError, match="kernel matrix of the 3 landmarks is not certified"):
            loaded.linear.w

    def test_overflowing_landmark_is_a_data_error(self):
        # past a squared norm of 2**1021 the distance formula can overflow into nan
        for far in (1e200, 2.0**511):
            with pytest.raises(DataError, match="squared norms below 2\\*\\*1021"):
                LandmarkSet(np.array([[far, 0.0], [0.0, 1.0]]))
        LandmarkSet(np.array([[np.nextafter(2.0**510.5, 0), 0.0]]))

    def test_landmarks_must_be_finite(self):
        with pytest.raises(DataError):
            LandmarkSet(np.array([[np.nan, 0.0]]))

    def test_unallocatable_rff_feature_count(self):
        # numpy refuses 2**62 x 3 doubles outright, without trying to allocate them
        with pytest.raises(ConfigError, match="cannot allocate"):
            fit_rff(3, 2**62, GaussianKernelParams(1.0))
