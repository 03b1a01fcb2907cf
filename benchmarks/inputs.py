"""Seeded input generators for the benchmark, independent of aucmax.

Every generator returns labels in {-1, +1}, the rows, and the generator's
own ground-truth score: the exact log-likelihood ratio log p(x|+)/p(x|-) of
the distribution it samples from, evaluated on the values as written to the
LibSVM file. Its AUC on any set of rows is the reference the trained model
is held against.

The distribution parameters are fixed; only the samples depend on the seed,
so every seed poses a problem of the same difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPAM_DIM = 57
_WORDS, _CHARS = 48, 6  # then three capital-run-length columns


@dataclass
class Table:
    """n labelled rows; X is dense n x d with zeros standing for absent features."""

    X: np.ndarray
    y: np.ndarray
    truth: np.ndarray

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def rows(self, idx: np.ndarray) -> "Table":
        return Table(self.X[idx], self.y[idx], self.truth[idx])


def _spam_params():
    """Class-conditional parameters of the spambase-shaped generator.

    Per column: presence probability and log-normal (mu, sigma) of the value
    when present, for each class. Word and character frequencies are mostly
    absent; the three capital-run-length columns are always present and
    heavy-tailed, as in UCI spambase.
    """
    rng = np.random.default_rng(57)
    sparse = _WORDS + _CHARS
    present = np.empty((2, SPAM_DIM))
    mu = np.empty((2, SPAM_DIM))
    sigma = np.empty((2, SPAM_DIM))
    base = rng.uniform(0.05, 0.35, size=sparse)
    lift = rng.normal(0.0, 0.9, size=sparse)
    # index 0: negatives, index 1: positives
    present[0, :sparse] = base
    present[1, :sparse] = 1.0 / (1.0 + np.exp(-(np.log(base / (1 - base)) + lift)))
    mu[0, :sparse] = rng.normal(-1.0, 0.5, size=sparse)
    mu[1, :sparse] = mu[0, :sparse] + rng.normal(0.0, 0.35, size=sparse)
    sigma[0, :sparse] = rng.uniform(0.3, 0.55, size=sparse)
    sigma[1, :sparse] = sigma[0, :sparse] * rng.uniform(0.7, 1.4, size=sparse)
    present[:, sparse:] = 1.0
    mu[0, sparse:] = [0.8, 2.7, 4.8]
    mu[1, sparse:] = [1.3, 3.6, 5.9]
    sigma[0, sparse:] = [0.4, 0.6, 0.6]
    sigma[1, sparse:] = [0.45, 0.6, 0.6]
    return present, mu, sigma


_SPAM = _spam_params()
_DECIMALS = np.array([2] * _WORDS + [3] * _CHARS + [3, 0, 0])


def _lognormal_logpdf(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    lx = np.log(x)
    return -lx - np.log(sigma) - 0.5 * np.log(2 * np.pi) - 0.5 * ((lx - mu) / sigma) ** 2


def _spam_class_loglik(X: np.ndarray, cls: int) -> np.ndarray:
    present, mu, sigma = (a[cls] for a in _SPAM)
    on = X > 0
    safe = np.where(on, X, 1.0)
    absent = np.log1p(-np.minimum(present, 1 - 1e-12))
    return np.where(on, np.log(present) + _lognormal_logpdf(safe, mu, sigma), absent).sum(axis=1)


def make_spam(n: int, pos_share: float, seed: int, stream: int = 0) -> Table:
    """Spambase-shaped sparse rows: exactly round(n * pos_share) positives."""
    rng = np.random.default_rng([seed, stream])
    n_pos = int(round(n * pos_share))
    y = np.full(n, -1, dtype=np.int64)
    y[rng.permutation(n)[:n_pos]] = 1
    cls = (y == 1).astype(np.int64)
    present, mu, sigma = (a[cls] for a in _SPAM)
    on = rng.random((n, SPAM_DIM)) < present
    values = np.exp(mu + sigma * rng.standard_normal((n, SPAM_DIM)))
    scale = 10.0 ** _DECIMALS
    # the smallest written value is one unit of the last decimal (1 for counts)
    values = np.maximum(np.round(values * scale), 1.0) / scale
    X = np.where(on, values, 0.0)
    truth = _spam_class_loglik(X, 1) - _spam_class_loglik(X, 0)
    return Table(X, y, truth)


RING_POS, RING_NEG, RING_NOISE = 1.0, 2.0, 0.4


def _radius_logpdf(rho: np.ndarray, radius: float) -> np.ndarray:
    # the norm of rho * (cos t, sin t) folds radius noise that crosses zero
    z1 = (rho - radius) / RING_NOISE
    z2 = (rho + radius) / RING_NOISE
    return np.logaddexp(-0.5 * z1**2, -0.5 * z2**2)


def make_rings(n: int, neg_per_pos: float, seed: int) -> Table:
    """Two noisy concentric rings in 2-D, positives on the inner ring.

    The ground truth depends on the norm only, so no linear score beats
    chance by much.
    """
    rng = np.random.default_rng([seed, 1])
    n_pos = int(round(n / (1.0 + neg_per_pos)))
    y = np.full(n, -1, dtype=np.int64)
    y[rng.permutation(n)[:n_pos]] = 1
    radius = np.where(y == 1, RING_POS, RING_NEG)
    theta = rng.uniform(0.0, 2 * np.pi, size=n)
    rho = radius + rng.normal(0.0, RING_NOISE, size=n)
    X = np.round(np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1), 6)
    norm = np.hypot(X[:, 0], X[:, 1])
    truth = _radius_logpdf(norm, RING_POS) - _radius_logpdf(norm, RING_NEG)
    return Table(X, y, truth)


def write_libsvm(path: str, table: Table):
    """LibSVM text, 1-based indices, zeros omitted, shortest exact decimals."""
    with open(path, "w") as fh:
        for label, row in zip(table.y, table.X):
            nz = np.flatnonzero(row)
            fh.write(f"{label:+d}" + "".join(f" {k + 1}:{float(row[k])!r}" for k in nz) + "\n")


def write_labels(path: str, y: np.ndarray):
    with open(path, "w") as fh:
        fh.write("".join(f"{v:+d}\n" for v in y))


def split_rows(n: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The train/test partition the CLI documents: a seeded permutation whose
    first round(n * (1 - test_fraction)) entries (half-up) train."""
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(n * (1.0 - test_fraction) + 0.5))
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])
