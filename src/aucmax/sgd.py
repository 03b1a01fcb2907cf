"""Stochastic pairwise hinge solver with scheduled shrinkage and averaging.

Each iteration samples one positive and one negative instance uniformly,
takes a subgradient step on the hinge loss of their difference vector with
step size 1/(lambda (t + t0)), shrinks the weights once every rskip
iterations (pulling the regularizer out of the per-step update), and folds
the iterate into a running mean once every askip iterations. A run returns
that mean; the last iterate of the same trajectory, the baseline that
averaging is measured against, reaches only the epoch callback.

Most iterations take no step, so the loop spends little Python work on
those:

- Scaled iterate (Bottou, "Stochastic Gradient Descent Tricks", 2012). The
  iterate is w = a v. A shrink multiplies the scalar a, and the margin test
  w.d < 1 becomes d.v < 1/a. The scale depends on t alone, so each epoch's
  step coefficients c = 1/(lambda (t + t0) a) are computed up front as an
  array, and a is folded into v at the epoch's end.
- Lazy average. With A the sum of the scales at the captures so far, a step
  v += c d also adds A c d to a vector R. The sum of the captured iterates
  is then A v - R, so a capture is one scalar addition.
- Blocks. Each epoch runs in blocks of _BLOCK pairs whose difference rows
  are gathered in one call and multiplied by their coefficients, so each
  row of D is the step c d and a step is one numpy addition; the margin
  test is (c d).v < c/a. The scan takes the margins of the next _WINDOW
  rows from one product and steps at the first one below its limit; a
  step makes the later margins stale, so the next window starts at the
  following row. R takes each block's steps in one product.

The result is deterministic per seed but not bit-identical to the literal
loop, which computes each margin as w.d and each step as d / (lambda (t + t0)).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .errors import ConfigError, NumericalError
from .model import LinearModel


@dataclass
class SgdConfig:
    lam: float = 1e-8
    t0: int = 10_000
    epochs: int = 20
    rskip: int = 16
    askip: int = 16
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise ConfigError(f"lambda must be finite and positive, got {self.lam}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.rskip < 1 or self.askip < 1:
            raise ConfigError("rskip and askip must be >= 1")
        if self.t0 < 0:
            raise ConfigError(f"t0 must be >= 0, got {self.t0}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.t0 + 1 <= self.rskip:
            # keeps every shrink factor 1 - rskip/(t + t0) strictly positive
            raise ConfigError(
                f"t0 + 1 must exceed rskip (got t0={self.t0}, rskip={self.rskip})"
            )


# Pairs per block. Large enough that the block's fixed numpy calls (gather,
# the R update) cost little per iteration; small enough that D stays in
# cache.
_BLOCK = 128

# Rows whose margins come from one product. A step discards the margins
# after it, so a wide window wastes work where steps are frequent and a
# narrow one pays the product's call overhead where they are rare. With
# BLAS at one thread on one x86-64 vCPU, 32 rows took 3.25 us per iteration
# on criterion 08's data (r = 64, 49% of iterations step) and 0.91 on the
# rings-sgd training rows (r = 83, 6% step); 8 rows took 3.12 and 1.24,
# 64 rows 3.41 and 0.89 (medians of 10 alternating runs).
_WINDOW = 32


def train_sgd(
    data: Dataset, cfg: SgdConfig, epoch_callback=None
) -> LinearModel:
    """Run epochs * n iterations of the pair-sampling hinge solver.

    data's rows, usually embedded, carry +-1 labels of both classes.
    Deterministic for a given seed. One epoch is n iterations; the index
    blocks for each epoch are drawn up front, so a run at fewer epochs is
    an exact prefix of a longer run with the same seed. It returns the
    mean of the iterates captured every askip iterations, or the last
    iterate when no capture fired (fewer than askip iterations).

    epoch_callback(epoch_number, w, last, elapsed_seconds) fires after each
    epoch with the weights the run would return if it stopped there, the
    last iterate and the cumulative solver time, callback cost excluded.
    Later epochs may update w and last in place, so a callback that keeps
    them must copy them.

    Step sizes, or a squared weight norm at an epoch's end, that are not
    finite, as a lambda too small for the rows gives, are a NumericalError.
    A schedule whose t + t0 or askip leaves int64 is a ConfigError.
    """
    pos_idx, neg_idx = data.class_indices()
    n, F = data.n, data.X
    # t + t0, t % askip and t % rskip run in int64, and rskip <= t0 (SgdConfig)
    if max(cfg.t0 + cfg.epochs * n, cfg.askip) >= 2**63:
        raise ConfigError("the schedule leaves int64: t0 + epochs * n and askip must stay below 2**63")
    rng = np.random.default_rng(cfg.seed)
    lam, t0, rskip, askip = cfg.lam, cfg.t0, cfg.rskip, cfg.askip
    # the iterate over its scale; the scale is 1 at the start of each epoch
    v = np.zeros(data.dim)
    # the sum of the iterates captured in the epochs before this one
    captured = np.zeros(data.dim)
    q = 0
    steps = 0

    elapsed = 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            t_start = time.perf_counter()
            pos_rows = pos_idx[rng.integers(0, pos_idx.size, size=n)]
            neg_rows = neg_idx[rng.integers(0, neg_idx.size, size=n)]

            t = np.arange((epoch - 1) * n + 1, epoch * n + 1)
            # the scale after iteration t's shrink, and at its margin test
            scale_after = np.cumprod(np.where(t % rskip == 0, 1.0 - rskip / (t + t0), 1.0))
            scale = np.concatenate(([1.0], scale_after[:-1]))
            coef = 1.0 / (lam * (t + t0) * scale)
            # the margin test d.v < 1/scale, on the step c d: (c d).v < c/scale
            limit = coef / scale
            # scale is at most 1, so limit is at least coef: a finite limit has a finite coef
            if not np.all(np.isfinite(limit)):
                raise NumericalError(f"the step sizes of epoch {epoch} overflow at lambda = {lam:g}")
            at_capture = t % askip == 0
            # A, the sum of the scales at the captures, after each iteration
            A = np.cumsum(np.where(at_capture, scale_after, 0.0))
            # a step c d at iteration t adds A c d to R, with A as it stood before t
            A_before = np.concatenate(([0.0], A[:-1]))
            R = np.zeros(data.dim)

            for lo in range(0, n, _BLOCK):
                blk = slice(lo, min(lo + _BLOCK, n))
                # each row is the step its iteration would take
                D = F.take(pos_rows[blk], axis=0)
                D -= F.take(neg_rows[blk], axis=0)
                D *= coef[blk, None]
                hits = _scan_block(D, v, limit[blk])
                steps += len(hits)
                if hits:
                    R += A_before[blk][hits] @ D[hits]

            captured += A[-1] * v - R
            q += int(np.count_nonzero(at_capture))
            v *= scale_after[-1]
            if not np.isfinite(v @ v):
                raise NumericalError(f"the weights overflow in epoch {epoch} at lambda = {lam:g}")
            elapsed += time.perf_counter() - t_start
            if epoch_callback is not None:
                epoch_callback(epoch, captured / q if q else v, v, elapsed)

    return LinearModel(
        captured / q if q else v,
        trained_by="sgd",
        hyperparameters={
            "lambda": cfg.lam,
            "t0": cfg.t0,
            "epochs": cfg.epochs,
            "rskip": cfg.rskip,
            "askip": cfg.askip,
            "seed": cfg.seed,
        },
        diagnostics={
            "iterations": cfg.epochs * n,
            "captures": q,
            "steps": steps,
            "seconds": elapsed,
        },
    )


def _scan_block(D, v, limit):
    """Add to v, in order, each row of D whose margin D[k].v falls below
    limit[k]; the rows added."""
    hits = []
    k = 0
    while k < len(D):
        end = k + _WINDOW
        below = D[k:end] @ v < limit[k:end]
        j = int(below.argmax())
        if not below[j]:
            k = end
            continue
        k += j
        v += D[k]
        hits.append(k)
        k += 1
    return hits
