"""Synthetic task generators used by tests, demos, and benchmarks."""

from __future__ import annotations

import numpy as np

from .dataio import Dataset
from .errors import ConfigError


def make_rings(
    n: int = 2000,
    seed: int = 0,
    imbalance: float = 3.0,
    r_pos: float = 1.0,
    r_neg: float = 2.0,
    noise: float = 0.15,
) -> Dataset:
    """Two concentric noisy rings in 2-D, positives on the inner ring.

    No direction in the plane separates the classes, so linear scoring on
    the raw coordinates is near chance while a kernel embedding makes the
    task easy. imbalance is the negative:positive count ratio.
    """
    if n < 4:
        raise ConfigError(f"need n >= 4, got {n}")
    if imbalance <= 0:
        raise ConfigError(f"imbalance must be positive, got {imbalance}")
    rng = np.random.default_rng(seed)
    n_pos = max(1, int(round(n / (1.0 + imbalance))))
    n_neg = n - n_pos

    def ring(count, radius):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
        rho = radius + rng.normal(0.0, noise, size=count)
        return np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1)

    X = np.vstack([ring(n_pos, r_pos), ring(n_neg, r_neg)])
    y = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n_neg, dtype=np.int64)])
    order = rng.permutation(n)
    return Dataset(X[order], y[order])
