"""Stochastic pairwise hinge solver with scheduled shrinkage and averaging.

Each iteration samples one positive and one negative instance uniformly,
takes a subgradient step on the hinge loss of their difference vector with
step size 1/(lambda (t + t0)), shrinks the weights once every rskip
iterations (pulling the regularizer out of the per-step update), and folds
the iterate into a running mean once every askip iterations. The averaged
vector is the returned model; with averaging disabled the final iterate is
returned instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddedDataset
from .errors import ConfigError
from .model import LinearModel


@dataclass
class SgdConfig:
    lam: float = 1e-8
    t0: int = 10_000
    epochs: int = 20
    rskip: int = 16
    askip: int = 16
    seed: int = 0
    averaging: bool = True

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise ConfigError(f"lambda must be finite and positive, got {self.lam}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.rskip < 1 or self.askip < 1:
            raise ConfigError("rskip and askip must be >= 1")
        if self.t0 < 0:
            raise ConfigError(f"t0 must be >= 0, got {self.t0}")
        if self.t0 + 1 <= self.rskip:
            # keeps every shrink factor 1 - rskip/(t + t0) strictly positive
            raise ConfigError(
                f"t0 + 1 must exceed rskip (got t0={self.t0}, rskip={self.rskip})"
            )


def train_sgd(
    data: EmbeddedDataset, cfg: SgdConfig, epoch_callback=None
) -> LinearModel:
    """Run epochs * n iterations of the pair-sampling hinge solver.

    Deterministic for a given seed. One epoch is n iterations; the index
    blocks for each epoch are drawn up front, so a run at fewer epochs is
    an exact prefix of a longer run with the same seed. The returned
    weights are the mean of the iterates captured every askip iterations,
    or the last iterate when averaging is off or no capture fired
    (fewer than askip iterations).

    epoch_callback(epoch_number, w, elapsed_seconds) fires after each epoch
    with the weights the run would return if it stopped there and the
    cumulative solver time; callback cost is excluded from that time. Later
    epochs may update w in place, so a callback that keeps it must copy it.
    """
    data.require_both_classes()
    n = data.n
    Xp = np.ascontiguousarray(data.features[data.pos_idx])
    Xn = np.ascontiguousarray(data.features[data.neg_idx])
    n_pos, n_neg = Xp.shape[0], Xn.shape[0]

    rng = np.random.default_rng(cfg.seed)
    lam, t0, rskip, askip, averaging = cfg.lam, cfg.t0, cfg.rskip, cfg.askip, cfg.averaging
    w = np.zeros(data.r)
    # the vector the run reports: the iterate itself until the first capture
    w_avg = w
    q = 0
    t = 0

    elapsed = 0.0
    for epoch in range(1, cfg.epochs + 1):
        t_start = time.perf_counter()
        pos_draw = rng.integers(0, n_pos, size=n)
        neg_draw = rng.integers(0, n_neg, size=n)
        for i, j in zip(pos_draw.tolist(), neg_draw.tolist()):
            t += 1
            x_diff = Xp[i] - Xn[j]
            if w @ x_diff < 1.0:
                w += x_diff / (lam * (t + t0))
            if t % rskip == 0:
                w *= 1.0 - rskip / (t + t0)
            if averaging and t % askip == 0:
                w_avg = w.copy() if q == 0 else (q * w_avg + w) / (q + 1)
                q += 1
        elapsed += time.perf_counter() - t_start
        if epoch_callback is not None:
            epoch_callback(epoch, w_avg, elapsed)

    return LinearModel(
        w_avg,
        trained_by="sgd",
        hyperparameters={
            "lambda": cfg.lam,
            "t0": cfg.t0,
            "epochs": cfg.epochs,
            "rskip": cfg.rskip,
            "askip": cfg.askip,
            "seed": cfg.seed,
            "averaging": "on" if averaging else "off",
        },
        diagnostics={
            "iterations": cfg.epochs * n,
            "captures": q,
            "seconds": elapsed,
        },
    )

