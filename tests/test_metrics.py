"""Tests for exact AUC computation and the pairwise objective."""

import numpy as np
import pytest

from aucmax.batch import pairwise_objective
from aucmax.embedding import EmbeddedDataset
from aucmax.errors import ConfigError, DataError
from aucmax.metrics import auc, auc_bruteforce


def brute_objective(w, X, y, C):
    """Literal double sum over all positive/negative pairs."""
    s = X @ w
    total = 0.0
    for i in np.flatnonzero(y == 1):
        for j in np.flatnonzero(y == -1):
            d = 1.0 - s[i] + s[j]
            if d > 0:
                total += d**2
    return 0.5 * float(w @ w) + C * total


class TestAucExamples:
    def test_perfect_ranking(self):
        r = auc([0.9, 0.1], [1, -1])
        assert r.auc == 1.0
        assert (r.wins, r.ties, r.losses) == (1, 0, 0)

    def test_single_tied_pair(self):
        assert auc([0.5, 0.5], [1, -1], "half").auc == 0.5
        assert auc([0.5, 0.5], [1, -1], "strict").auc == 0.0

    def test_four_instances_half_wins(self):
        r = auc([0.8, 0.3, 0.6, 0.1], [1, -1, -1, 1])
        assert r.auc == 0.5
        assert (r.wins, r.ties, r.losses) == (2, 0, 2)

    def test_all_scores_equal(self):
        r = auc([1.0, 1.0, 1.0, 1.0], [1, 1, -1, -1])
        assert r.auc == 0.5
        assert r.ties == 4

    def test_counts_sum_to_pairs(self):
        rng = np.random.default_rng(0)
        s = rng.random(30)
        y = np.array([1] * 12 + [-1] * 18)
        r = auc(s, y)
        assert r.pairs == 12 * 18


class TestAucValidation:
    def test_single_class(self):
        with pytest.raises(DataError):
            auc([0.1, 0.2], [1, 1])

    def test_nonfinite_scores(self):
        with pytest.raises(DataError):
            auc([np.nan, 0.2], [1, -1])

    def test_bad_labels(self):
        with pytest.raises(DataError):
            auc([0.1, 0.2], [1, 0])

    def test_bad_policy(self):
        with pytest.raises(ConfigError):
            auc([0.1, 0.2], [1, -1], "weird")


class TestAucEquivalence:
    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(42)
        for trial in range(300):
            n = int(rng.integers(2, 120))
            y = np.where(rng.random(n) < rng.uniform(0.15, 0.85), 1, -1)
            y[0], y[1] = 1, -1
            if trial % 3 == 0:
                # coarse quantization forces many duplicate scores
                s = np.round(rng.random(n) * 4) / 4
            else:
                s = rng.standard_normal(n)
            for policy in ("half", "strict"):
                a = auc(s, y, policy)
                b = auc_bruteforce(s, y, policy)
                assert (a.wins, a.ties, a.losses) == (b.wins, b.ties, b.losses)
                assert a.auc == b.auc

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(50)
        y = np.where(rng.random(50) < 0.4, 1, -1)
        y[0], y[1] = 1, -1
        base = auc(s, y)
        for f in (lambda x: 3 * x + 2, np.tanh, lambda x: x**3):
            r = auc(f(s), y)
            assert (r.wins, r.ties, r.losses) == (base.wins, base.ties, base.losses)

    def test_label_swap_duality(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal(40)
        y = np.where(rng.random(40) < 0.5, 1, -1)
        y[0], y[1] = 1, -1
        assert auc(s, y, "half").auc == auc(-s, -y, "half").auc

    def test_reversal_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(4, 40))
            y = np.where(rng.random(n) < 0.5, 1, -1)
            y[0], y[1] = 1, -1
            s = np.round(rng.standard_normal(n), 1)
            fwd = auc_bruteforce(s, y, "strict")
            rev = auc_bruteforce(-s, y, "strict")
            assert fwd.auc + rev.auc <= 1.0 + 1e-15
            if fwd.ties == 0:
                np.testing.assert_allclose(fwd.auc + rev.auc, 1.0, atol=1e-15)


def _embedded(rng, n, r):
    X = rng.standard_normal((n, r))
    y = np.where(rng.random(n) < 0.5, 1, -1)
    y[0], y[1] = 1, -1
    return EmbeddedDataset(X, y)


class TestObjective:
    def test_zero_weights(self):
        rng = np.random.default_rng(4)
        data = _embedded(rng, 20, 3)
        n_pairs = data.pos_idx.size * data.neg_idx.size
        assert pairwise_objective(np.zeros(3), data, C=2.5) == 2.5 * n_pairs

    def test_inactive_single_pair(self):
        # margin 2 keeps the pair out of the loss; only the regularizer remains
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        data = EmbeddedDataset(X, np.array([1, -1]))
        w = np.array([1.0, 0.5])
        np.testing.assert_allclose(
            pairwise_objective(w, data, C=1.0), 0.5 * (1.0 + 0.25), rtol=1e-15
        )

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(4, 40))
            r = int(rng.integers(1, 6))
            data = _embedded(rng, n, r)
            w = rng.standard_normal(r)
            C = float(rng.uniform(0.1, 5.0))
            expected = brute_objective(w, data.features, data.y, C)
            np.testing.assert_allclose(pairwise_objective(w, data, C), expected, rtol=1e-9)

    def test_rejects_bad_c(self):
        rng = np.random.default_rng(6)
        data = _embedded(rng, 10, 2)
        with pytest.raises(ConfigError):
            pairwise_objective(np.zeros(2), data, C=0.0)
