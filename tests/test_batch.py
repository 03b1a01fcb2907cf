"""Tests for the pair aggregation, gradient/HVP oracles, CG, and the solver."""

import numpy as np
import pytest

import aucmax.batch
from aucmax.batch import BatchConfig, PairAggregates, conjugate_gradient, hvp_fast, train_batch
from aucmax.dataio import Dataset
from aucmax.errors import ConfigError, DataError
from aucmax.metrics import auc


# ---------------------------------------------------------------------------
# Brute-force oracles: literal enumeration of every positive/negative pair.
# The active-pair predicate matches the implementation bit for bit
# (s_j > s_i - 1.0 evaluated in that float order).
# ---------------------------------------------------------------------------


def active_pairs(s, y):
    out = []
    for i in np.flatnonzero(y == 1):
        t = s[i] - 1.0
        for j in np.flatnonzero(y == -1):
            if s[j] > t:
                out.append((i, j))
    return out


def brute_grad(w, X, y, C):
    s = X @ w
    g = w.copy()
    for i, j in active_pairs(s, y):
        d = 1.0 - s[i] + s[j]
        g += 2.0 * C * d * (X[j] - X[i])
    return g


def brute_hvp(w, v, X, y, C):
    s = X @ w
    out = v.copy()
    for i, j in active_pairs(s, y):
        diff = X[i] - X[j]
        out += 2.0 * C * float(diff @ v) * diff
    return out


def brute_loss(w, X, y):
    s = X @ w
    return sum((1.0 - s[i] + s[j]) ** 2 for i, j in active_pairs(s, y))


def brute_objective(w, X, y, C):
    return 0.5 * float(w @ w) + C * brute_loss(w, X, y)


def aggregates(w, data):
    return PairAggregates(data.X @ w, *data.class_indices())


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


def instances_by_active_share(rng, gathered, count=60, lattice=False):
    """(data, w) pairs whose active rows are at most half of the rows
    (gathered=True) or more than half. A class offset along the first column
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
        if (2 * len(rows) <= data.n) == gathered:
            found.append((data, w))
    return found


class TestPairAggregates:
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
        for gathered in (True, False):
            for data, w in instances_by_active_share(rng, gathered, count=30):
                s = data.X @ w
                agg = PairAggregates(s, *data.class_indices())
                expected = {i for pair in active_pairs(s, data.y) for i in pair}
                assert sorted(agg.rows.tolist()) == sorted(expected)

    def test_hessian_diagonal_matches_bruteforce(self, monkeypatch):
        # three columns per block, so most instances span several blocks
        monkeypatch.setattr(PairAggregates, "DIAG_COLUMNS", 3)
        rng = np.random.default_rng(14)
        for gathered in (True, False):
            for data, w in instances_by_active_share(rng, gathered, count=40):
                C = float(rng.uniform(0.05, 4.0))
                agg = PairAggregates(data.X @ w, *data.class_indices())
                got = agg.hessian_diagonal(data.X, C)
                eye = np.eye(data.dim)
                expected = [brute_hvp(w, eye[j], data.X, data.y, C)[j] for j in range(data.dim)]
                np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0)

    def test_loss_matches_brute(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            data = random_instance(rng)
            w = rng.standard_normal(data.dim)
            expected = brute_loss(w, data.X, data.y)
            np.testing.assert_allclose(aggregates(w, data).loss(), expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("gathered", [True, False], ids=["at-most-half-active", "over-half-active"])
    def test_loss_and_gradient_with_inactive_rows_and_ties(self, gathered):
        rng = np.random.default_rng(19 + gathered)
        inactive_rows = at_threshold = 0
        for data, w in instances_by_active_share(rng, gathered, count=40, lattice=True):
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

    @pytest.mark.parametrize("gathered", [True, False], ids=["at-most-half-active", "over-half-active"])
    def test_matches_bruteforce_on_each_branch(self, gathered):
        rng = np.random.default_rng(15 + gathered)
        for data, w in instances_by_active_share(rng, gathered):
            agg = aggregates(w, data)
            M, _ = agg.active_features(data.X)
            # the gathered copy holds exactly the active rows; otherwise X is used as is
            assert (M is not data.X) == gathered
            if gathered:
                np.testing.assert_array_equal(M, data.X[agg.rows])
            v = rng.standard_normal(data.dim)
            C = float(rng.uniform(0.05, 4.0))
            expected = brute_hvp(w, v, data.X, data.y, C)
            np.testing.assert_allclose(hvp_fast(agg, v, data, C), expected, rtol=1e-8, atol=1e-12)
            # the copy is made once per aggregate
            assert agg.active_features(data.X)[0] is M

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
        s, history = conjugate_gradient(lambda v: v, g, cg_tol=1e-10, cg_max=50, inv_diag=np.ones_like(g))
        np.testing.assert_allclose(s, -g, rtol=1e-14)
        assert len(history) == 2

    def test_diagonal_two_by_two(self):
        H = np.diag([2.0, 5.0])
        g = np.array([4.0, -10.0])
        s, history = conjugate_gradient(lambda v: H @ v, g, cg_tol=1e-12, cg_max=10, inv_diag=np.ones_like(g))
        np.testing.assert_allclose(s, [-2.0, 2.0], rtol=1e-12)
        assert len(history) <= 3

    def test_residual_history_on_these_instances(self):
        # identity and well-conditioned diagonal systems keep the residual
        # monotone; that is what the histories below certify
        g = np.array([3.0, 1.0, -2.0, 0.25])
        _, hist_id = conjugate_gradient(lambda v: v, g, 1e-12, 20, inv_diag=np.ones_like(g))
        assert all(b <= a + 1e-12 for a, b in zip(hist_id, hist_id[1:]))
        H = np.diag([1.0, 1.5])
        g = np.array([1.0, 2.0])
        _, hist_diag = conjugate_gradient(lambda v: H @ v, g, 1e-12, 20, inv_diag=np.ones_like(g))
        assert all(b <= a + 1e-12 for a, b in zip(hist_diag, hist_diag[1:]))

    def test_zero_gradient(self):
        g = np.zeros(3)
        s, history = conjugate_gradient(lambda v: v, g, 1e-10, 10, inv_diag=np.ones_like(g))
        np.testing.assert_array_equal(s, np.zeros(3))
        assert history == [0.0]

    def test_jacobi_solves_diagonal_system_in_one_iteration(self):
        h = np.array([2.0, 5.0, 0.1, 40.0, 7.5])
        g = np.array([1.0, -3.0, 0.2, 8.0, -0.5])
        s, history = conjugate_gradient(lambda v: h * v, g, 1e-10, 50, inv_diag=1.0 / h)
        np.testing.assert_allclose(s, -g / h, rtol=1e-14)
        assert len(history) == 2

    def test_jacobi_stops_on_unpreconditioned_residual(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((30, 30))
        H = A @ A.T + np.diag(rng.uniform(1.0, 200.0, 30))
        g = rng.standard_normal(30)
        tol = 1e-6
        s, history = conjugate_gradient(lambda v: H @ v, g, tol, 200, inv_diag=1.0 / np.diag(H))
        np.testing.assert_allclose(history[-1], np.linalg.norm(H @ s + g), rtol=1e-6)
        assert history[-1] <= tol * np.linalg.norm(g) < history[-2]

    def test_respects_iteration_cap(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((30, 30))
        H = A @ A.T + np.eye(30)
        g = rng.standard_normal(30)
        _, history = conjugate_gradient(lambda v: H @ v, g, cg_tol=1e-16, cg_max=5, inv_diag=np.ones_like(g))
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

        def timed(n):
            X = rng.standard_normal((n, r))
            y = np.where(rng.random(n) < 0.5, 1, -1)
            y[0], y[1] = 1, -1
            data = Dataset(X, y)
            w = rng.standard_normal(r) * 0.1
            best = np.inf
            for _ in range(5):
                t0 = time.perf_counter()
                aggregates(w, data).gradient(w, data.X, 1.0)
                best = min(best, time.perf_counter() - t0)
            return best

        timed(4000)  # warm-up allocation paths
        t1 = timed(20000)
        t2 = timed(40000)
        assert t2 / t1 < 2.5
