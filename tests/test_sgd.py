"""Tests for the stochastic solver: hand-computed runs, replay equality, convergence."""

import numpy as np
import pytest

from aucmax.dataio import Dataset
from aucmax.errors import ConfigError, DataError
from aucmax.metrics import auc
from aucmax.sgd import SgdConfig, train_sgd


def constant_pair(n, x_pos, x_neg):
    """n // 2 copies of one positive row and the rest of one negative row, so
    every sampled pair is x_pos - x_neg whatever the draws."""
    k = n // 2
    X = np.array([x_pos] * k + [x_neg] * (n - k), dtype=np.float64)
    return Dataset(X, np.array([1] * k + [-1] * (n - k)))


def run(data, **fields):
    """train_sgd's model and copies of the weights and of the last iterate
    that it reports after each epoch."""
    snapshots, lasts = [], []

    def grab(epoch, w, last, elapsed):
        snapshots.append(w.copy())
        lasts.append(last.copy())

    model = train_sgd(data, SgdConfig(**fields), epoch_callback=grab)
    return model, snapshots, lasts


# lam * (1 + t0) == 1 exactly, so the first step adds x_diff itself
UNIT = dict(lam=2.0**-10, t0=1023)


class TestHingeSubgradient:
    def test_inside_margin(self):
        # margin stays far below 1: every iteration steps by x / (lam (t + t0))
        data = constant_pair(2, [0.001], [0.0])
        model, _, lasts = run(data, **UNIT, epochs=3, rskip=1000, askip=1000)
        expected = 0.0
        for t in range(1, 7):
            expected += 0.001 / (UNIT["lam"] * (t + UNIT["t0"]))
        np.testing.assert_array_equal(lasts[-1], [expected])
        assert model.diagnostics["steps"] == 6

    def test_outside_margin(self):
        # the first step lands at margin 4; no later iteration moves w
        data = constant_pair(2, [1.0, 0.0], [-1.0, 0.0])
        model, _, lasts = run(data, **UNIT, epochs=3, rskip=1000, askip=1000)
        np.testing.assert_array_equal(lasts, [[2.0, 0.0]] * 3)
        assert model.diagnostics["steps"] == 1

    def test_boundary_is_zero(self):
        # lam (1 + t0) == 4: the first step is 0.5 and leaves a margin of exactly 1
        data = constant_pair(2, [1.0], [-1.0])
        model, _, lasts = run(data, lam=2.0**-8, t0=1023, epochs=3, rskip=1000, askip=1000)
        np.testing.assert_array_equal(lasts[-1], [0.5])
        assert model.diagnostics["steps"] == 1


class TestSgdStep:
    def test_first_step_formula(self):
        # margin 5 / 1.01 after the first step, so the second takes none
        data = constant_pair(2, [1.0, -0.5], [-1.0, 0.5])
        model, _, lasts = run(data, lam=0.01, t0=100, epochs=1)
        np.testing.assert_array_equal(lasts[-1], np.array([2.0, -1.0]) / (0.01 * (1 + 100)))
        assert model.diagnostics["steps"] == 1

    def test_inactive_leaves_w(self):
        # only the first iteration steps, yet every iteration counts toward
        # the schedule: shrinks at t = 5, 10 and captures at t = 3, 6, 9
        data = constant_pair(10, [1.0, 0.0], [-1.0, 0.0])
        model, _, _ = run(data, **UNIT, epochs=1, rskip=5, askip=3)
        captured = iterates(10, 5)[2::3]
        assert captured[0, 0] == 2.0 and captured[1, 0] < 2.0
        np.testing.assert_allclose(model.w, captured.mean(axis=0), rtol=1e-14, atol=0)
        assert model.diagnostics["captures"] == 3
        assert model.diagnostics["steps"] == 1

    def test_step_size_decreases(self):
        data = constant_pair(2, [0.001], [0.0])  # stays inside the margin
        _, _, lasts = run(data, lam=0.1, t0=50, epochs=3, rskip=16, askip=16)
        steps = np.diff(np.concatenate([[0.0], np.ravel(lasts)]))
        assert steps[0] > steps[1] > steps[2] > 0


class TestScheduledRegularize:
    def test_formula(self):
        # one shrink, at t = 16, after the first step set w = (2, 0)
        data = constant_pair(16, [1.0, 0.0], [-1.0, 0.0])
        _, _, lasts = run(data, **UNIT, epochs=1, rskip=16, askip=1000)
        np.testing.assert_array_equal(lasts[-1], [2.0 * (1.0 - 16 / (16 + 1023)), 0.0])

    def test_zero_stays_zero(self):
        # identical rows: every step adds zero and every shrink scales zero
        data = constant_pair(16, [1.0, 2.0], [1.0, 2.0])
        model, _, lasts = run(data, **UNIT, epochs=2, rskip=4, askip=1000)
        np.testing.assert_array_equal(lasts[-1], np.zeros(2))
        # a margin of 0 is inside the margin, so all 32 iterations step
        assert model.diagnostics["steps"] == 32

    def test_cumulative_product_over_epoch(self):
        # 64 iterations: only the first steps, then shrinks at t = 16, 32, 48, 64
        data = constant_pair(64, [1.0, 0.0], [-1.0, 0.0])
        _, _, lasts = run(data, **UNIT, epochs=1, rskip=16, askip=1000)
        factors = [1.0 - 16 / (t + 1023) for t in (16, 32, 48, 64)]
        expected = 2.0
        for f in factors:
            expected *= f
        np.testing.assert_array_equal(lasts[-1], [expected, 0.0])
        np.testing.assert_allclose(lasts[-1][0], 2.0 * np.prod(factors), rtol=1e-14)


def iterates(n, rskip):
    """The iterate after each of n iterations on constant_pair(n, (1, 0), (-1, 0))
    at UNIT: (2, 0) after the first step, then one shrink every rskip."""
    w, out = 2.0, []
    for t in range(1, n + 1):
        if t % rskip == 0:
            w *= 1.0 - rskip / (t + 1023)
        out.append([w, 0.0])
    return np.array(out)


class TestScheduledAverage:
    def test_first_capture(self):
        data = constant_pair(4, [1.0, 0.0], [-1.0, 0.0])
        model, _, _ = run(data, **UNIT, epochs=1, rskip=16, askip=4)
        np.testing.assert_array_equal(model.w, [2.0, 0.0])
        assert model.diagnostics["captures"] == 1

    def test_two_point_mean(self):
        # captures at t = 4 and t = 8; the shrink at t = 8 comes first
        data = constant_pair(8, [1.0, 0.0], [-1.0, 0.0])
        model, _, _ = run(data, **UNIT, epochs=1, rskip=8, askip=4)
        w4, w8 = iterates(8, 8)[[3, 7], 0]
        assert w4 != w8
        np.testing.assert_array_equal(model.w, [(w4 + w8) / 2, 0.0])
        assert model.diagnostics["captures"] == 2

    def test_mean_of_ten_known_vectors(self):
        data = constant_pair(40, [1.0, 0.0], [-1.0, 0.0])
        model, _, _ = run(data, **UNIT, epochs=1, rskip=8, askip=4)
        captured = iterates(40, 8)[3::4]
        assert len(captured) == 10
        np.testing.assert_allclose(model.w, captured.mean(axis=0), rtol=1e-14, atol=0)
        assert model.diagnostics["captures"] == 10


class TestConfigValidation:
    def test_bad_lambda(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ConfigError):
                SgdConfig(lam=bad)

    def test_bad_epochs(self):
        with pytest.raises(ConfigError):
            SgdConfig(lam=1e-6, epochs=0)

    def test_bad_skips(self):
        with pytest.raises(ConfigError):
            SgdConfig(lam=1e-6, rskip=0)
        with pytest.raises(ConfigError):
            SgdConfig(lam=1e-6, askip=0)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            SgdConfig(lam=1e-6, seed=-1)
        SgdConfig(lam=1e-6, seed=0)

    def test_t0_must_dominate_rskip(self):
        with pytest.raises(ConfigError):
            SgdConfig(lam=1e-6, t0=10, rskip=16)
        SgdConfig(lam=1e-6, t0=16, rskip=16)  # t0 + 1 > rskip holds


def separable_1d(n_pos=20, n_neg=30):
    X = np.concatenate([np.ones(n_pos), -np.ones(n_neg)]).reshape(-1, 1)
    y = np.array([1] * n_pos + [-1] * n_neg)
    return Dataset(X, y)


def reference_data(name):
    """Datasets for the reference loop. The two 300-row sets end each epoch
    in a partial block. After the first block, "few-steps" data steps on
    about one pair in twenty and "many-steps" data on about half of them."""
    rng = np.random.default_rng(2)
    n, r = (30, 4) if name == "few-rows" else (300, 5)
    X = rng.standard_normal((n, r))
    y = np.where(rng.random(n) < 0.4, 1, -1)
    y[0], y[1] = 1, -1
    if name == "few-steps":
        X += 0.5 * y[:, None]
    return Dataset(X, y)


def literal_loop(data, cfg):
    """The solver written out: each epoch's pairs drawn up front, a hinge
    step inside the margin, a shrink every rskip iterations and a capture
    into the running mean every askip iterations. Returns the mean (the
    last iterate when nothing was captured), the last iterate, the
    captures and the steps."""
    draws = np.random.default_rng(cfg.seed)
    Xp, Xn = data.X[data.y == 1], data.X[data.y == -1]
    w = np.zeros(data.dim)
    w_avg, q, t, steps = None, 0, 0, 0
    for _ in range(cfg.epochs):
        pos = draws.integers(0, Xp.shape[0], size=data.n)
        neg = draws.integers(0, Xn.shape[0], size=data.n)
        for k in range(data.n):
            t += 1
            x = Xp[pos[k]] - Xn[neg[k]]
            if float(w @ x) < 1.0:
                w = w + x / (cfg.lam * (t + cfg.t0))
                steps += 1
            if t % cfg.rskip == 0:
                w = w * (1.0 - cfg.rskip / (t + cfg.t0))
            if t % cfg.askip == 0:
                w_avg = w.copy() if q == 0 else (q * w_avg + w) / (q + 1)
                q += 1
    return (w_avg if q else w), w, q, steps


def assert_matches_reference_loop(dataset, iterate, rskip, askip):
    # iterate names the vector compared: the returned mean ("averaged") or
    # the last iterate the final epoch's callback sees ("last-iterate");
    # the scaled iterate computes each margin as a (D @ v) and each step
    # with a coefficient, so it agrees with the loop to rounding, not bits
    data = reference_data(dataset)
    fields = dict(lam=1e-4, t0=100, epochs=3, rskip=rskip, askip=askip, seed=42)
    model, _, lasts = run(data, **fields)
    average, last, captures, steps = literal_loop(data, SgdConfig(**fields))
    found, expected = (model.w, average) if iterate == "averaged" else (lasts[-1], last)
    assert np.linalg.norm(found - expected) <= 1e-10 * np.linalg.norm(expected)
    assert model.diagnostics["captures"] == captures > 0
    assert model.diagnostics["steps"] == steps


class TestTrainSgd:
    @pytest.mark.parametrize("y", [[0, 1, 0, 1], [1, 1, 1, 1]], ids=["zero-one", "one-class"])
    def test_needs_both_pm1_classes(self, y):
        with pytest.raises(DataError):
            train_sgd(Dataset(np.eye(4), y), SgdConfig(lam=1e-6, epochs=1))

    def test_separable_reaches_perfect_auc(self):
        data = separable_1d()
        cfg = SgdConfig(lam=1e-4, t0=10_000, epochs=5, seed=3)
        model = train_sgd(data, cfg)
        assert auc(data.X @ model.w, data.y).auc == 1.0

    def test_huge_lambda_freezes_weights(self):
        data = separable_1d()
        cfg = SgdConfig(lam=1e6, t0=10_000, epochs=2, seed=0)
        model = train_sgd(data, cfg)
        assert np.linalg.norm(model.w) <= 1e-3

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 3))
        y = np.where(rng.random(40) < 0.5, 1, -1)
        y[0], y[1] = 1, -1
        data = Dataset(X, y)
        cfg = SgdConfig(lam=1e-5, epochs=3, seed=11)
        a = train_sgd(data, cfg)
        b = train_sgd(data, cfg)
        np.testing.assert_array_equal(a.w, b.w)

    @pytest.mark.parametrize("rskip, askip", [(16, 16), (7, 5)], ids=["skips-16-16", "skips-7-5"])
    @pytest.mark.parametrize("iterate", ["averaged", "last-iterate"])
    def test_matches_reference_loop(self, iterate, rskip, askip):
        assert_matches_reference_loop("few-rows", iterate, rskip, askip)

    @pytest.mark.parametrize("dataset", ["few-steps", "many-steps"])
    @pytest.mark.parametrize("rskip, askip", [(16, 16), (7, 5)], ids=["skips-16-16", "skips-7-5"])
    @pytest.mark.parametrize("iterate", ["averaged", "last-iterate"])
    def test_matches_reference_loop_across_blocks(self, iterate, rskip, askip, dataset):
        assert_matches_reference_loop(dataset, iterate, rskip, askip)

    def test_shorter_run_is_prefix_of_longer(self):
        # same seed: both iterates at epoch e of a long run equal those of a run stopped at e
        rng = np.random.default_rng(3)
        X = rng.standard_normal((25, 3))
        y = np.where(rng.random(25) < 0.5, 1, -1)
        y[0], y[1] = 1, -1
        data = Dataset(X, y)

        long_model, snapshots, lasts = run(data, lam=1e-5, epochs=4, seed=9)
        np.testing.assert_array_equal(long_model.w, snapshots[-1])
        for epochs in (1, 2, 3):
            short, _, short_lasts = run(data, lam=1e-5, epochs=epochs, seed=9)
            np.testing.assert_array_equal(short.w, snapshots[epochs - 1])
            np.testing.assert_array_equal(short_lasts[-1], lasts[epochs - 1])

    def test_fallback_when_no_capture_fires(self):
        # 8 iterations with askip 16: the mean never captures, the final
        # iterate is returned
        data = separable_1d(4, 4)
        model, _, lasts = run(data, lam=1e-4, epochs=1, askip=16, rskip=16, seed=0)
        assert model.diagnostics["captures"] == 0
        assert np.linalg.norm(model.w) > 0
        np.testing.assert_array_equal(model.w, lasts[-1])

    def test_averaging_changes_result(self):
        # the returned mean and the last iterate of the same run differ
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 3))
        y = np.where(rng.random(50) < 0.5, 1, -1)
        y[0], y[1] = 1, -1
        model, _, lasts = run(Dataset(X, y), lam=1e-5, epochs=3, seed=7)
        assert model.diagnostics["captures"] > 0
        assert not np.array_equal(model.w, lasts[-1])

    @pytest.mark.parametrize("n", [1_000, 100_000])
    def test_gathers_two_rows_per_iteration(self, n):
        # the per-iteration cost that does not depend on n, as a count: each
        # iteration reads one positive and one negative row, and nothing reads all n
        gathered = []

        class CountedRows(np.ndarray):
            """Rows whose reads by take or by indexing are counted, in rows."""

            def take(self, indices, axis=None, **kwargs):
                out = self.view(np.ndarray).take(indices, axis=axis, **kwargs)
                gathered.append(-(-out.size // self.shape[1]))
                return out

            def __getitem__(self, key):
                out = self.view(np.ndarray)[key]
                gathered.append(-(-np.size(out) // self.shape[1]))
                return out

        rng = np.random.default_rng(9)
        y = np.where(rng.random(n) < 0.3, 1, -1)
        y[0], y[1] = 1, -1
        data = Dataset(rng.standard_normal((n, 4)), y)
        data.X = data.X.view(CountedRows)
        model = train_sgd(data, SgdConfig(lam=1e-6, epochs=2, seed=1))
        assert model.diagnostics["iterations"] == 2 * n
        assert model.diagnostics["steps"] > 0
        assert sum(gathered) == 2 * model.diagnostics["iterations"]

    def test_iteration_time_independent_of_n(self):
        import time

        rng = np.random.default_rng(5)
        r = 16

        def dataset(n):
            X = rng.standard_normal((n, r))
            y = np.where(rng.random(n) < 0.3, 1, -1)
            y[0], y[1] = 1, -1
            return Dataset(X, y)

        cfg = SgdConfig(lam=1e-6, epochs=1, seed=1)

        def seconds_per_iter(data):
            t0 = time.perf_counter()
            train_sgd(data, cfg)
            return (time.perf_counter() - t0) / data.n

        warm_up = dataset(2000)
        for _ in range(5):
            seconds_per_iter(warm_up)
        sizes = [dataset(10_000), dataset(50_000)]
        best = [np.inf, np.inf]
        # alternate the sizes rep by rep, so a slow spell of the host slows both
        for _ in range(5):
            for k, data in enumerate(sizes):
                best[k] = min(best[k], seconds_per_iter(data))
        a, b = best
        assert max(a, b) / min(a, b) < 1.6
