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


@dataclass
class SgdState:
    w: np.ndarray
    w_avg: np.ndarray | None = None
    q: int = 0
    t: int = 1
    rcount: int = 0
    acount: int = 0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)


def hinge_subgradient_coeff(margin: float) -> float:
    """1 while the pair is inside the margin, 0 at and beyond it."""
    return 1.0 if margin < 1.0 else 0.0


def sgd_step(state: SgdState, x_diff: np.ndarray, cfg: SgdConfig) -> SgdState:
    """One stochastic update at iteration state.t; advances the countdowns.

    The iteration counter itself is advanced by the caller after any
    scheduled work, so the shrink that fires on this iteration sees the
    same t the step used.
    """
    margin = float(state.w @ x_diff)
    if hinge_subgradient_coeff(margin):
        state.w += x_diff / (cfg.lam * (state.t + cfg.t0))
    state.rcount -= 1
    state.acount -= 1
    return state


def scheduled_regularize(state: SgdState, cfg: SgdConfig) -> SgdState:
    """Apply rskip iterations' worth of weight decay in one multiply."""
    state.w *= 1.0 - cfg.rskip / (state.t + cfg.t0)
    state.rcount = cfg.rskip
    return state


def scheduled_average(state: SgdState, cfg: SgdConfig) -> SgdState:
    """Fold the current iterate into the running mean of captured iterates."""
    if state.q == 0:
        state.w_avg = state.w.copy()
    else:
        state.w_avg = (state.q * state.w_avg + state.w) / (state.q + 1)
    state.q += 1
    state.acount = cfg.askip
    return state


def train_sgd(
    data: EmbeddedDataset, cfg: SgdConfig, epoch_callback=None
) -> LinearModel:
    """Run epochs * n iterations of the pair-sampling hinge solver.

    Deterministic for a given seed. One epoch is n iterations; the index
    blocks for each epoch are drawn up front, so a run at fewer epochs is
    an exact prefix of a longer run with the same seed. epoch_callback
    (epoch_number, state, elapsed_seconds) fires after each epoch with the
    cumulative solver time; callback cost is excluded from that time.
    """
    data.require_both_classes()
    n = data.n
    Xp = np.ascontiguousarray(data.features[data.pos_idx])
    Xn = np.ascontiguousarray(data.features[data.neg_idx])
    n_pos, n_neg = Xp.shape[0], Xn.shape[0]

    rng = np.random.default_rng(cfg.seed)
    state = SgdState(
        w=np.zeros(data.r), q=0, t=1, rcount=cfg.rskip, acount=cfg.askip
    )
    averaging = cfg.averaging

    elapsed = 0.0
    for epoch in range(1, cfg.epochs + 1):
        t_start = time.perf_counter()
        pos_draw = rng.integers(0, n_pos, size=n)
        neg_draw = rng.integers(0, n_neg, size=n)
        for k in range(n):
            x_diff = Xp[pos_draw[k]] - Xn[neg_draw[k]]
            sgd_step(state, x_diff, cfg)
            if state.rcount == 0:
                scheduled_regularize(state, cfg)
            if state.acount == 0:
                if averaging:
                    scheduled_average(state, cfg)
                else:
                    state.acount = cfg.askip
            state.t += 1
        elapsed += time.perf_counter() - t_start
        if epoch_callback is not None:
            epoch_callback(epoch, state, elapsed)

    return LinearModel(
        sgd_result_weights(state, averaging),
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
            "captures": state.q,
            "seconds": elapsed,
        },
    )


def sgd_result_weights(state: SgdState, averaging: bool) -> np.ndarray:
    """The vector a finished run reports: the mean of the captured iterates,
    or the last iterate when averaging is off or no capture fired (T < askip)."""
    if averaging and state.q > 0:
        return state.w_avg
    return state.w
