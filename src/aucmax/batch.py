"""Truncated-Newton solver for the pairwise squared hinge AUC objective.

    F(w) = 1/2 ||w||^2 + C sum_{i in P} sum_{j in N} max(0, 1 - w.(x_i - x_j))^2

The pair sums are never materialized. Sorting each class's scores once lets
every per-instance quantity (active-partner counts, partner score sums,
partner projection sums) come from binary searches plus prefix/suffix sums,
so gradient, Hessian-vector product, and objective all cost O(n log n).

A pair (i, j) is active when s_j > s_i - 1 with s = Xw. Both classes derive
their active sets from that one float comparison, so the counts seen from
the positive side and from the negative side agree exactly and the implied
Hessian is exactly symmetric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddedDataset
from .errors import ConfigError, NumericalError
from .model import LinearModel


@dataclass
class BatchConfig:
    C: float = 1.0
    grad_tol: float | None = None
    max_outer: int = 100
    cg_tol: float = 1e-3
    cg_max: int = 200

    def __post_init__(self):
        if not np.isfinite(self.C) or self.C <= 0:
            raise ConfigError(f"C must be finite and positive, got {self.C}")
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise ConfigError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_outer < 1 or self.cg_max < 1:
            raise ConfigError("iteration caps must be >= 1")
        if self.cg_tol <= 0:
            raise ConfigError(f"cg_tol must be positive, got {self.cg_tol}")


class PairAggregates:
    """Sorted-score view of the active pairs at a fixed weight vector.

    Positives contribute thresholds t_i = s_i - 1; a negative j is an active
    partner of i iff s_j > t_i. Suffix sums over the sorted negative scores
    and prefix sums over the sorted thresholds turn every pairwise sum into
    an O(1) lookup per instance.
    """

    def __init__(self, scores: np.ndarray, pos_idx: np.ndarray, neg_idx: np.ndarray):
        self.scores = scores
        self.pos_idx = pos_idx
        self.neg_idx = neg_idx
        s_pos = scores[pos_idx]
        s_neg = scores[neg_idx]
        self.t_pos = s_pos - 1.0

        self.order_pos = np.argsort(self.t_pos, kind="stable")
        self.order_neg = np.argsort(s_neg, kind="stable")
        self.t_pos_sorted = self.t_pos[self.order_pos]
        self.s_neg_sorted = s_neg[self.order_neg]
        self.s_pos_sorted = s_pos[self.order_pos]

        # first active negative (in sorted order) for each positive
        self.k = np.searchsorted(self.s_neg_sorted, self.t_pos, side="right")
        # number of active positives for each negative
        self.m = np.searchsorted(self.t_pos_sorted, s_neg, side="left")

        self.c_pos = self.neg_idx.size - self.k
        self.c_neg = self.m

        self.suff_s_neg = self._suffix(self.s_neg_sorted)
        self.suff_q_neg = self._suffix(self.s_neg_sorted**2)
        self.pref_s_pos = self._prefix(self.s_pos_sorted)

        self.s_pos = s_pos
        self.s_neg = s_neg

    @staticmethod
    def _suffix(x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.size + 1)
        np.cumsum(x[::-1], out=out[1:])
        return out[::-1].copy()

    @staticmethod
    def _prefix(x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.size + 1)
        np.cumsum(x, out=out[1:])
        return out

    @property
    def active_pairs(self) -> int:
        return int(self.c_pos.sum())

    def loss(self, p: int = 2) -> float:
        """Pair-loss sum at the aggregate's scores (no regularizer, no C)."""
        c = self.c_pos.astype(np.float64)
        one_minus = 1.0 - self.s_pos
        S = self.suff_s_neg[self.k]
        if p == 1:
            return float(np.sum(c * one_minus + S))
        Q = self.suff_q_neg[self.k]
        return float(np.sum(c * one_minus**2 + 2.0 * one_minus * S + Q))

    def objective(self, w: np.ndarray, C: float, p: int = 2) -> float:
        """F(w), for the w whose scores built these aggregates."""
        return 0.5 * float(w @ w) + C * self.loss(p)

    def gamma(self) -> np.ndarray:
        """Per-instance pair-sum coefficients: the gradient is w + 2C X^T gamma."""
        g = np.zeros(self.scores.size)
        S_pos = self.suff_s_neg[self.k]
        g[self.pos_idx] = -((1.0 - self.s_pos) * self.c_pos + S_pos)
        S_neg = self.pref_s_pos[self.m]
        g[self.neg_idx] = (1.0 + self.s_neg) * self.c_neg - S_neg
        return g

    def gradient(self, w: np.ndarray, X, C: float) -> np.ndarray:
        """Squared hinge gradient, for the w whose scores X @ w built these aggregates."""
        return w + 2.0 * C * (X.T @ self.gamma())

    def alpha(self, proj: np.ndarray) -> np.ndarray:
        """Coefficients for the Hessian-vector product given proj = Xv."""
        a = np.zeros(self.scores.size)
        p_pos = proj[self.pos_idx]
        p_neg = proj[self.neg_idx]
        suff_p = self._suffix(p_neg[self.order_neg])
        pref_p = self._prefix(p_pos[self.order_pos])
        a[self.pos_idx] = self.c_pos * p_pos - suff_p[self.k]
        a[self.neg_idx] = self.c_neg * p_neg - pref_p[self.m]
        return a


def pairwise_objective(w: np.ndarray, data: EmbeddedDataset, C: float, p: int = 2) -> float:
    """F(w) for the hinge (p=1) or squared hinge (p=2) pair loss."""
    if C <= 0:
        raise ConfigError(f"C must be positive, got {C}")
    if p not in (1, 2):
        raise ConfigError(f"p must be 1 or 2, got {p}")
    w = np.asarray(w, dtype=np.float64)
    return PairAggregates(data.features @ w, data.pos_idx, data.neg_idx).objective(w, C, p)


def grad_fast(w: np.ndarray, data: EmbeddedDataset, C: float) -> np.ndarray:
    """Exact gradient of the squared hinge objective in O(n log n)."""
    w = np.asarray(w, dtype=np.float64)
    return PairAggregates(data.features @ w, data.pos_idx, data.neg_idx).gradient(w, data.features, C)


def hvp_fast(agg: PairAggregates, v: np.ndarray, data: EmbeddedDataset, C: float) -> np.ndarray:
    """Generalized-Hessian product at the weights the aggregates were built from."""
    proj = data.features @ v
    return v + 2.0 * C * (data.features.T @ agg.alpha(proj))


def conjugate_gradient(
    apply_H, g: np.ndarray, cg_tol: float, cg_max: int
) -> tuple[np.ndarray, list[float]]:
    """Solve H s = -g for symmetric positive definite H.

    Returns the approximate solution and the residual-norm history
    (including the initial residual). Stops when the residual drops below
    cg_tol * ||g|| or after cg_max iterations.
    """
    b = -g
    s = np.zeros_like(g)
    r = b.copy()
    d = r.copy()
    rr = float(r @ r)
    b_norm = float(np.sqrt(rr))
    history = [b_norm]
    if b_norm == 0.0:
        return s, history
    threshold = cg_tol * b_norm
    for _ in range(cg_max):
        Hd = apply_H(d)
        dHd = float(d @ Hd)
        if dHd <= 0:
            # cannot happen for identity-plus-PSD; bail out defensively
            raise NumericalError("conjugate gradient met a non-positive curvature direction")
        step = rr / dHd
        s += step * d
        r -= step * Hd
        rr_new = float(r @ r)
        history.append(float(np.sqrt(rr_new)))
        if history[-1] <= threshold:
            break
        d = r + (rr_new / rr) * d
        rr = rr_new
    return s, history


def train_batch(data: EmbeddedDataset, cfg: BatchConfig) -> LinearModel:
    """Newton iterations with CG inner solves and a halving line search.

    Starts from w = 0 and stops when the gradient norm falls below the
    tolerance (default 1e-4 * max(1, initial gradient norm)) or after
    max_outer steps. Every accepted step strictly decreases the objective.
    """
    data.require_both_classes()
    X = data.features
    n, r = X.shape
    C = cfg.C

    w = np.zeros(r)
    scores = np.zeros(n)
    t_start = time.perf_counter()

    agg = PairAggregates(scores, data.pos_idx, data.neg_idx)
    g = agg.gradient(w, X, C)
    g0_norm = float(np.linalg.norm(g))
    tol = cfg.grad_tol if cfg.grad_tol is not None else 1e-4 * max(1.0, g0_norm)

    grad_norms = [g0_norm]
    objectives = [agg.objective(w, C)]
    outer = 0
    converged = g0_norm <= tol

    while not converged and outer < cfg.max_outer:
        direction, _ = conjugate_gradient(
            lambda v: hvp_fast(agg, v, data, C), g, cfg.cg_tol, cfg.cg_max
        )
        x_dir = X @ direction
        current = objectives[-1]

        eta = 1.0
        accepted = False
        for _ in range(31):
            trial_scores = scores + eta * x_dir
            trial_w = w + eta * direction
            trial_agg = PairAggregates(trial_scores, data.pos_idx, data.neg_idx)
            trial_obj = trial_agg.objective(trial_w, C)
            if trial_obj < current:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            gn = float(np.linalg.norm(g))
            if gn <= np.sqrt(np.finfo(np.float64).eps) * max(1.0, g0_norm):
                # flat at float resolution: accept w as converged
                converged = True
                break
            raise NumericalError(
                "line search could not decrease the objective after 30 halvings "
                f"(gradient norm {gn:.3e}); gradient/curvature inconsistency"
            )

        w, scores, agg = trial_w, trial_scores, trial_agg
        outer += 1
        objectives.append(trial_obj)
        g = agg.gradient(w, X, C)
        gn = float(np.linalg.norm(g))
        grad_norms.append(gn)
        converged = gn <= tol

    elapsed = time.perf_counter() - t_start
    return LinearModel(
        w,
        trained_by="batch",
        hyperparameters={
            "c": C,
            "grad_tol": float(tol),
            "max_outer": cfg.max_outer,
            "cg_tol": cfg.cg_tol,
            "cg_max": cfg.cg_max,
        },
        diagnostics={
            "outer_iterations": outer,
            "converged": bool(converged),
            "grad_norms": grad_norms,
            "objectives": objectives,
            "seconds": elapsed,
        },
    )
