"""Tests for the pair aggregation, gradient/HVP oracles, CG, and the solver."""

import tracemalloc

import numpy as np
import pytest

import aucmax.batch
from aucmax.batch import BatchConfig, PairAggregates, conjugate_gradient, hvp_fast, train_batch
from aucmax.dataio import _CHUNK_CELLS, Dataset, standardize_apply, standardize_fit
from aucmax.embedding import embed, fit_nystroem, kmeans
from aucmax.errors import ConfigError, DataError, NumericalError
from aucmax.kernels import bandwidth_heuristic
from aucmax.metrics import auc
from aucmax.synthetic import make_rings
from oracles import active_pairs, aggregates, brute_grad, brute_hvp, brute_loss


def active_counts(agg, n):
    """Active partners of each of the n rows, read from the aggregate's rows."""
    counts = np.zeros(n, dtype=np.int64)
    for row, c in zip(agg.rows, agg.c_act):
        counts[row] = c
    return counts


def enumerated_counts(pairs, n):
    counts = np.zeros(n, dtype=np.int64)
    for i, j in pairs:
        counts[i] += 1
        counts[j] += 1
    return counts


def random_instance(rng, n_max=60, r_max=8, spread=1.0):
    n = int(rng.integers(4, n_max + 1))
    r = int(rng.integers(1, r_max + 1))
    X = rng.standard_normal((n, r)) * spread
    y = np.where(rng.random(n) < rng.uniform(0.2, 0.8), 1, -1)
    y[0], y[1] = 1, -1
    return Dataset(X, y)


def instances_by_active_share(rng, at_most_half, count=60, lattice=False):
    """(data, w) pairs whose active rows are at most half of the rows
    (at_most_half=True) or more than half. A class offset along the first column
    and a weight of varying length spread the margins, so that anywhere from
    none to all of the rows have an active pair. With lattice=True features
    and weights are multiples of 1/4, so scores are exact and some margins
    sit exactly at the threshold 1."""
    found = []
    while len(found) < count:
        data = random_instance(rng)
        X = data.X.copy()
        X[:, 0] += rng.uniform(0.0, 3.0) * data.y
        w = rng.standard_normal(data.dim) * rng.uniform(0.05, 0.5)
        w[0] = rng.uniform(0.0, 2.0)
        if lattice:
            X, w = np.round(4.0 * X) / 4.0, np.round(4.0 * w) / 4.0
        data = Dataset(X, data.y)
        s = data.X @ w
        rows = {i for pair in active_pairs(s, data.y) for i in pair}
        if (2 * len(rows) <= data.n) == at_most_half:
            found.append((data, w))
    return found


class TestPairAggregates:
    @pytest.mark.parametrize("n", [1_000, 100_000])
    def test_sorts_and_searches_each_row_once(self, n, monkeypatch):
        # the O(n log n) claim as a count: a construction sorts each class
        # once and binary-searches each row once, with no n+ x n- work
        sorted_sizes, needles = [], []

        class CountedNumpy:
            """numpy, with the sizes given to argsort and searchsorted recorded."""

            def __getattr__(self, name):
                return getattr(np, name)

            def argsort(self, a, *args, **kwargs):
                sorted_sizes.append(np.size(a))
                return np.argsort(a, *args, **kwargs)

            def searchsorted(self, a, v, *args, **kwargs):
                needles.append(np.size(v))
                return np.searchsorted(a, v, *args, **kwargs)

        rng = np.random.default_rng(8)
        positive = rng.random(n) < 0.3
        pos_idx, neg_idx = np.flatnonzero(positive), np.flatnonzero(~positive)
        monkeypatch.setattr(aucmax.batch, "np", CountedNumpy())
        agg = PairAggregates(rng.standard_normal(n), pos_idx, neg_idx)
        assert 0 < agg.active_pairs < pos_idx.size * neg_idx.size
        assert sorted_sizes == [pos_idx.size, neg_idx.size]
        assert needles == [pos_idx.size, neg_idx.size]

    def test_counts_match_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            data = random_instance(rng)
            w = rng.standard_normal(data.dim) * rng.uniform(0.1, 2.0)
            s = data.X @ w
            agg = PairAggregates(s, *data.class_indices())
            pairs = active_pairs(s, data.y)
            assert agg.active_pairs == len(pairs)
            # both sides must see the identical pair set
            assert agg.c_act[: agg.n_act_pos].sum() == agg.c_act[agg.n_act_pos :].sum()
            np.testing.assert_array_equal(active_counts(agg, data.n), enumerated_counts(pairs, data.n))

    def test_counts_consistent_with_ties_at_boundary(self):
        # scores engineered so several margins sit exactly at the threshold
        s = np.array([1.0, 0.5, 0.0, 0.0, -0.5, 1.5])
        y = np.array([1, 1, 1, -1, -1, -1])
        pos = np.flatnonzero(y == 1)
        neg = np.flatnonzero(y == -1)
        agg = PairAggregates(s, pos, neg)
        pairs = active_pairs(s, y)
        assert agg.active_pairs == len(pairs)
        assert agg.c_act[: agg.n_act_pos].sum() == agg.c_act[agg.n_act_pos :].sum() == len(pairs)
        np.testing.assert_array_equal(active_counts(agg, s.size), enumerated_counts(pairs, s.size))

    def test_active_rows_are_the_rows_of_active_pairs(self):
        rng = np.random.default_rng(13)
        for at_most_half in (True, False):
            for data, w in instances_by_active_share(rng, at_most_half, count=30):
                s = data.X @ w
                agg = PairAggregates(s, *data.class_indices())
                expected = {i for pair in active_pairs(s, data.y) for i in pair}
                assert sorted(agg.rows.tolist()) == sorted(expected)

    def test_loss_matches_brute(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            data = random_instance(rng)
            w = rng.standard_normal(data.dim)
            expected = brute_loss(w, data.X, data.y)
            np.testing.assert_allclose(aggregates(w, data).loss(), expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("at_most_half", [True, False], ids=["at-most-half-active", "over-half-active"])
    def test_loss_and_gradient_with_inactive_rows_and_ties(self, at_most_half):
        rng = np.random.default_rng(19 + at_most_half)
        inactive_rows = at_threshold = 0
        for data, w in instances_by_active_share(rng, at_most_half, count=40, lattice=True):
            s = data.X @ w
            pos_idx, neg_idx = data.class_indices()
            margins = 1.0 - s[pos_idx, None] + s[None, neg_idx]
            at_threshold += int(np.count_nonzero(margins == 0.0))
            agg = aggregates(w, data)
            inactive_rows += data.n - agg.rows.size
            np.testing.assert_allclose(agg.loss(), brute_loss(w, data.X, data.y), rtol=1e-12, atol=0)
            C = float(rng.uniform(0.05, 4.0))
            np.testing.assert_allclose(
                agg.gradient(w, data.X, C), brute_grad(w, data.X, data.y, C),
                rtol=1e-10, atol=1e-12,
            )
        # the instances do exercise absent rows and pairs exactly at the threshold
        assert inactive_rows > 0 and at_threshold > 0


class TestGradFast:
    def test_single_pair_by_hand(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        data = Dataset(X, np.array([1, -1]))
        w = np.zeros(2)
        g = aggregates(w, data).gradient(w, data.X, 1.0)
        np.testing.assert_allclose(g, [-2.0, 2.0], rtol=1e-15)

    def test_no_active_pairs_returns_w(self):
        X = np.array([[2.0], [-2.0], [3.0], [-1.5]])
        data = Dataset(X, np.array([1, -1, 1, -1]))
        w = np.array([1.0])  # every margin is at least 3
        np.testing.assert_array_equal(aggregates(w, data).gradient(w, data.X, 5.0), w)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            data = random_instance(rng)
            w = rng.standard_normal(data.dim) * rng.uniform(0.05, 2.0)
            C = float(rng.uniform(0.05, 4.0))
            expected = brute_grad(w, data.X, data.y, C)
            got = aggregates(w, data).gradient(w, data.X, C)
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            data = random_instance(rng, n_max=40, r_max=6)
            w = rng.standard_normal(data.dim) * 0.5
            C = float(rng.uniform(0.1, 2.0))
            g = aggregates(w, data).gradient(w, data.X, C)
            h = 1e-6
            fd = np.empty_like(g)
            for k in range(data.dim):
                e = np.zeros(data.dim)
                e[k] = h
                up, down = w + e, w - e
                f_up, f_down = (aggregates(v, data).objective(v, C) for v in (up, down))
                fd[k] = (f_up - f_down) / (2 * h)
            scale = max(1.0, float(np.linalg.norm(g)))
            np.testing.assert_allclose(g, fd, rtol=0, atol=1e-5 * scale)


class TestHvpFast:
    def test_identity_when_no_active_pairs(self):
        X = np.array([[2.0], [-2.0]])
        data = Dataset(X, np.array([1, -1]))
        w = np.array([1.0])
        v = np.array([3.7])
        np.testing.assert_array_equal(hvp_fast(aggregates(w, data), v, data, C=2.0), v)

    def test_single_active_pair_rank_one(self):
        X = np.array([[0.5, 0.0], [0.0, 0.5]])
        data = Dataset(X, np.array([1, -1]))
        w = np.zeros(2)
        diff = X[0] - X[1]
        v = diff.copy()
        expected = v + 2.0 * float(diff @ diff) * diff
        np.testing.assert_allclose(
            hvp_fast(aggregates(w, data), v, data, C=1.0), expected, rtol=1e-14
        )

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            data = random_instance(rng)
            w = rng.standard_normal(data.dim) * rng.uniform(0.05, 2.0)
            v = rng.standard_normal(data.dim)
            C = float(rng.uniform(0.05, 4.0))
            expected = brute_hvp(w, v, data.X, data.y, C)
            got = hvp_fast(aggregates(w, data), v, data, C)
            np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("at_most_half", [True, False], ids=["at-most-half-active", "over-half-active"])
    def test_matches_bruteforce_on_each_branch(self, at_most_half):
        # the product multiplies X[:end], the prefix that ends at the last
        # active row, wherever the active rows lie: rows past it are never read
        rng = np.random.default_rng(15 + at_most_half)
        unread = 0
        for data, w in instances_by_active_share(rng, at_most_half):
            agg = aggregates(w, data)
            assert agg.end == (agg.rows.max() + 1 if agg.rows.size else 0)
            v = rng.standard_normal(data.dim)
            C = float(rng.uniform(0.05, 4.0))
            expected = brute_hvp(w, v, data.X, data.y, C)
            got = hvp_fast(agg, v, data, C)
            np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-12)
            poisoned = Dataset(data.X.copy(), data.y)
            poisoned.X[agg.end :] = np.nan
            np.testing.assert_array_equal(hvp_fast(agg, v, poisoned, C), got)
            unread += data.n - agg.end
        assert unread > 0

    def test_quadratic_form_at_least_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            data = random_instance(rng)
            w = rng.standard_normal(data.dim)
            v = rng.standard_normal(data.dim)
            C = float(rng.uniform(0.05, 4.0))
            Hv = hvp_fast(aggregates(w, data), v, data, C)
            assert float(v @ Hv) >= float(v @ v) - 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            data = random_instance(rng)
            w = rng.standard_normal(data.dim)
            agg = aggregates(w, data)
            u = rng.standard_normal(data.dim)
            v = rng.standard_normal(data.dim)
            C = 1.3
            lhs = float(u @ hvp_fast(agg, v, data, C))
            rhs = float(v @ hvp_fast(agg, u, data, C))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestConjugateGradient:
    def test_identity_solved_in_one_iteration(self):
        g = np.array([1.0, -2.0, 0.5])
        s, history = conjugate_gradient(lambda v: v, g, cg_tol=1e-10, cg_max=50)
        np.testing.assert_allclose(s, -g, rtol=1e-14)
        assert len(history) == 2

    def test_diagonal_two_by_two(self):
        H = np.diag([2.0, 5.0])
        g = np.array([4.0, -10.0])
        s, history = conjugate_gradient(lambda v: H @ v, g, cg_tol=1e-12, cg_max=10)
        np.testing.assert_allclose(s, [-2.0, 2.0], rtol=1e-12)
        assert len(history) <= 3

    def test_residual_history_on_these_instances(self):
        # identity and well-conditioned diagonal systems keep the residual
        # monotone; that is what the histories below certify
        g = np.array([3.0, 1.0, -2.0, 0.25])
        _, hist_id = conjugate_gradient(lambda v: v, g, 1e-12, 20)
        assert all(b <= a + 1e-12 for a, b in zip(hist_id, hist_id[1:]))
        H = np.diag([1.0, 1.5])
        g = np.array([1.0, 2.0])
        _, hist_diag = conjugate_gradient(lambda v: H @ v, g, 1e-12, 20)
        assert all(b <= a + 1e-12 for a, b in zip(hist_diag, hist_diag[1:]))

    def test_zero_gradient(self):
        g = np.zeros(3)
        s, history = conjugate_gradient(lambda v: v, g, 1e-10, 10)
        np.testing.assert_array_equal(s, np.zeros(3))
        assert history == [0.0]

    def test_stops_once_residual_reaches_cg_tol(self):
        # the history is the true residual ||H s + g||, and the solve stops at
        # the first iterate within cg_tol * ||g||
        rng = np.random.default_rng(16)
        A = rng.standard_normal((30, 30))
        H = A @ A.T + np.diag(rng.uniform(1.0, 200.0, 30))
        g = rng.standard_normal(30)
        tol = 1e-6
        s, history = conjugate_gradient(lambda v: H @ v, g, tol, 200)
        np.testing.assert_allclose(history[-1], np.linalg.norm(H @ s + g), rtol=1e-6)
        assert history[-1] <= tol * np.linalg.norm(g) < history[-2]

    def test_respects_iteration_cap(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((30, 30))
        H = A @ A.T + np.eye(30)
        g = rng.standard_normal(30)
        _, history = conjugate_gradient(lambda v: H @ v, g, cg_tol=1e-16, cg_max=5)
        assert len(history) <= 6


def separable_1d(n_pos=30, n_neg=50):
    X = np.concatenate([np.ones(n_pos), -np.ones(n_neg)]).reshape(-1, 1)
    y = np.array([1] * n_pos + [-1] * n_neg)
    return Dataset(X, y)


class TestTrainBatch:
    @pytest.mark.parametrize("y", [[0, 1, 0, 1], [1, 1, 1, 1]], ids=["zero-one", "one-class"])
    def test_needs_both_pm1_classes(self, y):
        with pytest.raises(DataError):
            train_batch(Dataset(np.eye(4), y), BatchConfig(C=1.0))

    def test_separable_reaches_perfect_auc(self):
        data = separable_1d()
        model = train_batch(data, BatchConfig(C=1.0))
        scores = data.X @ model.w
        assert auc(scores, data.y).auc == 1.0
        final = aggregates(model.w, data).objective(model.w, 1.0)
        assert final < 1.0 * np.count_nonzero(data.y == 1) * np.count_nonzero(data.y == -1)

    def test_tiny_c_shrinks_weights(self):
        data = separable_1d()
        model = train_batch(data, BatchConfig(C=1e-8, grad_tol=1e-12))
        assert np.linalg.norm(model.w) <= 1e-3
        # the direction still ranks the separable data perfectly
        assert model.w[0] > 0
        assert auc(data.X @ model.w, data.y).auc == 1.0

    def test_objective_strictly_decreases(self):
        rng = np.random.default_rng(8)
        data = random_instance(rng, n_max=50, r_max=5)
        model = train_batch(data, BatchConfig(C=1.0))
        objs = model.diagnostics["objectives"]
        assert all(b < a for a, b in zip(objs, objs[1:]))

    def test_matches_grid_search_oracle(self):
        X = np.array(
            [
                [0.6, 0.1],
                [0.4, 0.5],
                [0.7, -0.2],
                [-0.5, 0.3],
                [-0.2, -0.4],
                [0.0, 0.0],
            ]
        )
        y = np.array([1, 1, 1, -1, -1, -1])
        data = Dataset(X, y)
        C = 0.05
        model = train_batch(
            data, BatchConfig(C=C, grad_tol=1e-10, cg_tol=1e-8, max_outer=200)
        )
        f_solver = aggregates(model.w, data).objective(model.w, C)

        diffs = X[y == 1][:, None, :] - X[y == -1][None, :, :]
        diffs = diffs.reshape(-1, 2)
        grid = np.arange(-3.0, 3.0 + 1e-9, 1e-3)
        best = np.inf
        chunk = 2000
        for lo in range(0, grid.size, chunk):
            w0 = grid[lo : lo + chunk]
            W = np.stack(
                [np.repeat(w0, grid.size), np.tile(grid, w0.size)], axis=1
            )
            margins = 1.0 - W @ diffs.T
            np.maximum(margins, 0.0, out=margins)
            F = 0.5 * np.einsum("ij,ij->i", W, W) + C * np.sum(margins**2, axis=1)
            best = min(best, float(F.min()))
        assert abs(f_solver - best) <= 1e-6

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(9)
        data = random_instance(rng, n_max=40, r_max=6)
        C = 0.7
        for _ in range(50):
            a = rng.standard_normal(data.dim)
            b = rng.standard_normal(data.dim)
            fa = aggregates(a, data).objective(a, C)
            fb = aggregates(b, data).objective(b, C)
            m = 0.5 * (a + b)
            fm = aggregates(m, data).objective(m, C)
            assert fm <= 0.5 * (fa + fb) + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        data = random_instance(rng, n_max=60, r_max=6)
        a = train_batch(data, BatchConfig(C=0.5))
        b = train_batch(data, BatchConfig(C=0.5))
        np.testing.assert_array_equal(a.w, b.w)

    @pytest.mark.parametrize(
        "seed, offset, C",
        # separated classes: the active rows fall from all to under half over the steps;
        # overlapping classes at a large C: the line search halves the step
        [(17, 3.0, 1.0), (35, 0.0, 20.0)],
        ids=["shrinking-active-set", "line-search-halves"],
    )
    def test_counters_match_the_work_done(self, monkeypatch, seed, offset, C):
        calls = {"hvp": 0, "aggregates": 0}
        hvp = aucmax.batch.hvp_fast

        def counted_hvp(*args):
            calls["hvp"] += 1
            return hvp(*args)

        class CountedAggregates(PairAggregates):
            def __init__(self, *args):
                calls["aggregates"] += 1
                super().__init__(*args)

        # the same call points the benchmark tracer wraps
        monkeypatch.setattr(aucmax.batch, "hvp_fast", counted_hvp)
        monkeypatch.setattr(aucmax.batch, "PairAggregates", CountedAggregates)
        data = random_instance(np.random.default_rng(seed), n_max=60, r_max=6)
        data = Dataset(data.X + offset * data.y[:, None], data.y)
        diag = train_batch(data, BatchConfig(C=C)).diagnostics
        assert diag["converged"]
        assert diag["hvps"] == calls["hvp"] == sum(diag["cg_iterations"]) > 0
        assert len(diag["cg_iterations"]) == len(diag["active_rows"]) == diag["outer_iterations"]
        # one aggregate at the start, then one per line-search trial
        assert calls["aggregates"] == 1 + diag["outer_iterations"] + diag["linesearch_halvings"]
        # every pair is active at w = 0
        assert diag["active_rows"][0] == data.n
        if offset:
            assert 2 * diag["active_rows"][-1] <= data.n
        else:
            assert diag["linesearch_halvings"] > 0

    def test_rotated_features_take_the_same_steps(self):
        # plain CG commutes with an orthogonal change of basis X -> X Q, so the
        # solver takes the same steps in either basis and gives the same scores
        rng = np.random.default_rng(22)
        for _ in range(3):
            X = rng.standard_normal((80, 6))
            y = np.where(X[:, 0] + rng.standard_normal(80) > 0, 1, -1)
            Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            plain = train_batch(Dataset(X, y), BatchConfig(C=1.0))
            rotated = train_batch(Dataset(X @ Q, y), BatchConfig(C=1.0))
            assert rotated.diagnostics["cg_iterations"] == plain.diagnostics["cg_iterations"]
            np.testing.assert_allclose((X @ Q) @ rotated.w, X @ plain.w, rtol=0, atol=1e-12)

    def test_max_outer_reached_is_not_converged(self):
        rng = np.random.default_rng(18)
        data = random_instance(rng, n_max=60, r_max=6)
        # separated classes: the active pairs at the optimum are not the ones at w = 0
        data = Dataset(data.X + 3.0 * data.y[:, None], data.y)
        diag = train_batch(data, BatchConfig(C=1.0, max_outer=1)).diagnostics
        assert diag["outer_iterations"] == 1
        assert diag["grad_norms"][-1] > diag["grad_norms"][0] * 1e-4
        assert not diag["converged"]

    def test_default_grad_tol_relative_to_start(self):
        data = separable_1d(5, 5)
        model = train_batch(data, BatchConfig(C=1.0))
        assert model.diagnostics["converged"]
        assert model.diagnostics["grad_norms"][-1] <= model.hyperparameters["grad_tol"]

    def test_stop_at_float_resolution_records_the_bound_it_meets(self):
        # a grad_tol below float resolution: the line search fails at a
        # gradient norm within sqrt(eps) of zero, which the solver accepts as
        # converged, and the model records that norm, not the unmet 1e-12
        raw = make_rings(n=300, seed=3)
        rows = standardize_apply(standardize_fit(raw), raw)
        emb_map = fit_nystroem(kmeans(rows, v=20, seed=0), bandwidth_heuristic(rows))
        model = train_batch(embed(emb_map, rows), BatchConfig(C=1.0, grad_tol=1e-12))
        diag, tol = model.diagnostics, model.hyperparameters["grad_tol"]
        assert diag["converged"] and diag["outer_iterations"] < 100
        assert 1e-12 < diag["grad_norms"][-1] <= tol

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            BatchConfig(C=0.0)
        with pytest.raises(ConfigError):
            BatchConfig(C=1.0, grad_tol=-1.0)
        with pytest.raises(ConfigError):
            BatchConfig(C=1.0, max_outer=0)

    @pytest.mark.parametrize("field", ["grad_tol", "cg_tol"])
    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_tolerance(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            BatchConfig(C=1.0, **{field: value})


class TestGradScaling:
    def test_near_linear_in_n(self):
        import time

        rng = np.random.default_rng(11)
        r = 8

        def problem(n):
            X = rng.standard_normal((n, r))
            y = np.where(rng.random(n) < 0.5, 1, -1)
            y[0], y[1] = 1, -1
            return Dataset(X, y), rng.standard_normal(r) * 0.1

        def seconds(data, w):
            t0 = time.process_time()
            aggregates(w, data).gradient(w, data.X, 1.0)
            return time.process_time() - t0

        seconds(*problem(4000))  # warm-up allocation paths
        # CPU seconds, best of five reps that alternate the sizes, so a slow
        # spell of a shared host reaches both sizes alike
        problems = [problem(20000), problem(40000)]
        best = [np.inf, np.inf]
        for _ in range(5):
            for k, (data, w) in enumerate(problems):
                best[k] = min(best[k], seconds(data, w))
        assert best[1] / best[0] < 2.5


def shrinking_instance():
    """test_counters_match_the_work_done's separated classes: the active rows
    fall from all of them to under half, so rows move between steps."""
    data = random_instance(np.random.default_rng(17), n_max=60, r_max=6)
    return Dataset(data.X + 3.0 * data.y[:, None], data.y)


class TestRowsInPlace:
    """train_batch moves the active rows of data.X to the front while it
    runs, multiplies only them, and leaves data.X as it came."""

    def test_every_hvp_multiplies_exactly_the_active_rows(self, monkeypatch):
        products = []

        class CountedProducts(np.ndarray):
            """Rows whose products record the shape of the matrix operand."""

            def __matmul__(self, other):
                products.append(self.shape)
                return np.asarray(self) @ other

        per_hvp = []
        hvp = aucmax.batch.hvp_fast

        def counted_hvp(*args):
            products.clear()
            out = hvp(*args)
            per_hvp.append(list(products))
            return out

        monkeypatch.setattr(aucmax.batch, "hvp_fast", counted_hvp)
        data = shrinking_instance()
        data.X = data.X.view(CountedProducts)
        diag = train_batch(data, BatchConfig(C=1.0)).diagnostics
        assert min(diag["active_rows"]) < data.n
        expected = np.repeat(diag["active_rows"], diag["cg_iterations"])
        assert len(per_hvp) == diag["hvps"] == expected.size
        for shapes, m in zip(per_hvp, expected):
            assert shapes == [(m, data.dim), (data.dim, m)]

    def test_rows_come_back_bitwise(self):
        data = shrinking_instance()
        original = data.X.copy()
        first = train_batch(data, BatchConfig(C=1.0))
        assert data.X.tobytes() == original.tobytes()
        # a second solve on the same rows, as gridsearch makes one per C, has the same bits
        second = train_batch(data, BatchConfig(C=1.0))
        assert second.w.tobytes() == first.w.tobytes()
        assert data.X.tobytes() == original.tobytes()

    def test_rows_come_back_after_an_error_mid_solve(self, monkeypatch):
        data = shrinking_instance()
        original = data.X.copy()
        cg = aucmax.batch.conjugate_gradient

        def failing_cg(*args):
            if not np.array_equal(data.X, original):
                raise NumericalError("stopped once rows had moved")
            return cg(*args)

        monkeypatch.setattr(aucmax.batch, "conjugate_gradient", failing_cg)
        with pytest.raises(NumericalError, match="rows had moved"):
            train_batch(data, BatchConfig(C=1.0))
        assert data.X.tobytes() == original.tobytes()

    def test_read_only_rows_are_refused(self):
        data = shrinking_instance()
        original = data.X.copy()
        data.X.flags.writeable = False
        with pytest.raises(DataError, match="read-only"):
            train_batch(data, BatchConfig(C=1.0))
        assert data.X.tobytes() == original.tobytes()

    def test_working_set_is_a_few_chunks(self):
        # 16 chunks of the 2 MB budget; the separated classes end with under
        # half of the rows active, and an earlier step's active block spans
        # 7 chunks. The traced peak above the input read 1.6 chunks: the
        # two half-chunk copies of a swap and the O(n) vectors. A gathered
        # copy of the active rows read 7.8.
        chunk_bytes = _CHUNK_CELLS * 8
        rng = np.random.default_rng(44)
        y = np.where(rng.random(16384) < 0.5, 1, -1)
        X = rng.standard_normal((16384, 256))
        X[:, 0] += 3.0 * y
        data = Dataset(X, y)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            diag = train_batch(data, BatchConfig(C=1.0)).diagnostics
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        rows_per_chunk = _CHUNK_CELLS // data.dim
        assert 2 * diag["active_rows"][-1] <= data.n
        assert any(6 * rows_per_chunk <= m <= data.n // 2 for m in diag["active_rows"])
        assert peak <= 3 * chunk_bytes
