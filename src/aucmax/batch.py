"""Truncated-Newton solver for the pairwise squared hinge AUC objective.

    F(w) = 1/2 ||w||^2 + C sum_{i in P} sum_{j in N} max(0, 1 - w.(x_i - x_j))^2

The pair sums are never materialized. A pair (i, j) is active when
s_j > s_i - 1 with s = Xw, and a row with no active pair contributes
nothing to the loss, the gradient or the Hessian. Every partner of an
active row is itself active, so the solver keeps one view, of the active
rows A only: sorting each class's scores once makes the active positives a
prefix of the sorted thresholds and the active negatives a suffix of the
sorted negative scores. Binary searches then give each active row its count
of partners, and prefix/suffix sums over A give its partner score and
projection sums, so objective, gradient and Hessian-vector product (HVP)
all cost O(n log n). Both classes derive their active sets from the one
float comparison above, so the counts seen from the positive side and from
the negative side agree exactly and the implied Hessian is exactly
symmetric.

Each Newton step solves H s = -g by conjugate gradient, truncated as
LIBLINEAR truncates its Newton steps (Lin, Weng & Keerthi, JMLR 2008): plain
CG stops once the residual ||H s + g|| falls below cg_tol ||g||, 0.1 by
default. Its HVPs take only the active rows: H v = v + 2C X_A^T
alpha_A(X_A v) is exact (the active-set trick of primal SVM Newton methods,
Chapelle 2007). The HVP and the gradient multiply X[:e], the shortest
prefix of the rows that holds all of A, which is exact wherever A lies.
After each accepted step train_batch swaps rows of X in place, in chunks
of dataio's 2 MB budget, until A fills the front, so that e = |A|
and no copy of X_A is made; it undoes the swaps before it returns or
raises. Plain CG commutes with a rotation of the features, so the
solver's steps and scores do not depend on the basis of the embedding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, _row_chunks
from .errors import ConfigError, DataError, NumericalError
from .model import LinearModel


@dataclass
class BatchConfig:
    C: float = 1.0
    grad_tol: float | None = None
    max_outer: int = 100
    cg_tol: float = 0.1
    cg_max: int = 200

    def __post_init__(self):
        if not np.isfinite(self.C) or self.C <= 0:
            raise ConfigError(f"C must be finite and positive, got {self.C}")
        if self.grad_tol is not None and (not np.isfinite(self.grad_tol) or self.grad_tol <= 0):
            raise ConfigError(f"grad_tol must be finite and positive, got {self.grad_tol}")
        if self.max_outer < 1 or self.cg_max < 1:
            raise ConfigError("iteration caps must be >= 1")
        if not np.isfinite(self.cg_tol) or self.cg_tol <= 0:
            raise ConfigError(f"cg_tol must be finite and positive, got {self.cg_tol}")


class PairAggregates:
    """The rows with an active pair at a fixed weight vector, in sorted order.

    Positives contribute thresholds t_i = s_i - 1; a negative j is an active
    partner of i iff s_j > t_i. `rows` lists the active positives in
    ascending threshold order, then the active negatives in ascending score
    order; k_act, m_act, c_act and s_act are indexed like `rows`. Positive
    number p pairs with the negatives from k_act[p] on, and negative number q
    with the first m_act[q] positives, so a suffix sum over the negatives or
    a prefix sum over the positives turns each pairwise sum into an O(1)
    lookup per row. A row with no active pair is absent: its terms are all
    zero.
    """

    def __init__(self, scores: np.ndarray, pos_idx: np.ndarray, neg_idx: np.ndarray):
        t_pos = scores[pos_idx] - 1.0
        s_neg = scores[neg_idx]
        order_pos = np.argsort(t_pos, kind="stable")
        order_neg = np.argsort(s_neg, kind="stable")
        t_sorted = t_pos[order_pos]
        s_neg_sorted = s_neg[order_neg]
        # each sorted positive's first active partner among the sorted negatives,
        # and each sorted negative's count of active partners
        k = np.searchsorted(s_neg_sorted, t_sorted, side="right")
        m = np.searchsorted(t_sorted, s_neg_sorted, side="left")

        # Active positives lead the sorted thresholds and active negatives
        # trail the sorted negative scores.
        n_neg = neg_idx.size
        self.n_act_pos = int(np.count_nonzero(k < n_neg))
        tail = n_neg - int(np.count_nonzero(m))
        self.rows = np.concatenate([pos_idx[order_pos[: self.n_act_pos]], neg_idx[order_neg[tail:]]])
        k = k[: self.n_act_pos]
        # each active positive's first partner, counted from the first active negative
        self.k_act = k - tail
        self.m_act = m[tail:]
        self.c_act = np.concatenate([n_neg - k, self.m_act]).astype(np.float64)
        self.s_act = scores[self.rows]

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
    def end(self) -> int:
        """One past the last active row, 0 when none: X[:end] holds every active row."""
        return int(self.rows.max()) + 1 if self.rows.size else 0

    @property
    def active_pairs(self) -> int:
        return int(self.c_act[: self.n_act_pos].sum())

    def loss(self) -> float:
        """Squared hinge pair-loss sum at the aggregate's scores (no regularizer, no C)."""
        npos = self.n_act_pos
        one_minus = 1.0 - self.s_act[:npos]
        s_neg = self.s_act[npos:]
        S = self._suffix(s_neg)[self.k_act]
        Q = self._suffix(s_neg**2)[self.k_act]
        return float(np.sum(self.c_act[:npos] * one_minus**2 + 2.0 * one_minus * S + Q))

    def objective(self, w: np.ndarray, C: float) -> float:
        """F(w), for the w whose scores built these aggregates."""
        return 0.5 * float(w @ w) + C * self.loss()

    def gamma(self) -> np.ndarray:
        """Pair-sum coefficients of the rows: the gradient is w + 2C X[rows]^T gamma."""
        npos = self.n_act_pos
        s_pos = self.s_act[:npos]
        s_neg = self.s_act[npos:]
        S_pos = self._suffix(s_neg)[self.k_act]
        S_neg = self._prefix(s_pos)[self.m_act]
        return np.concatenate(
            [-((1.0 - s_pos) * self.c_act[:npos] + S_pos),
             (1.0 + s_neg) * self.c_act[npos:] - S_neg]
        )

    def gradient(self, w: np.ndarray, X, C: float) -> np.ndarray:
        """Squared hinge gradient, for the w whose scores X @ w built these
        aggregates. It reads only the rows X[:end]."""
        g = np.zeros(self.end)
        g[self.rows] = self.gamma()
        return w + 2.0 * C * (X[: g.size].T @ g)

    def alpha(self, proj: np.ndarray) -> np.ndarray:
        """Hessian-vector coefficients on the active rows, given proj = X[rows] @ v.

        Every other row's coefficient is exactly zero.
        """
        p_pos = proj[: self.n_act_pos]
        p_neg = proj[self.n_act_pos :]
        suff_p = self._suffix(p_neg)
        pref_p = self._prefix(p_pos)
        return np.concatenate(
            [self.c_act[: self.n_act_pos] * p_pos - suff_p[self.k_act],
             self.c_act[self.n_act_pos :] * p_neg - pref_p[self.m_act]]
        )


def hvp_fast(agg: PairAggregates, v: np.ndarray, data: Dataset, C: float) -> np.ndarray:
    """Generalized-Hessian product at the weights the aggregates were built from.

    It multiplies only data.X[:agg.end], in which the rows that are not
    active get a zero coefficient; train_batch keeps the active rows at the
    front, so that prefix is exactly the active rows.
    """
    X = data.X[: agg.end]
    a = np.zeros(X.shape[0])
    a[agg.rows] = agg.alpha((X @ v)[agg.rows])
    return v + 2.0 * C * (X.T @ a)


def conjugate_gradient(apply_H, g: np.ndarray, cg_tol: float, cg_max: int) -> tuple[np.ndarray, list[float]]:
    """Solve H s = -g for symmetric positive definite H by conjugate gradient.

    Returns the approximate solution and the history of the residual norm
    ||H s + g||, the initial residual included. Stops when that residual
    drops below cg_tol * ||g|| or after cg_max iterations.
    """
    s = np.zeros_like(g)
    r = -g
    d = r.copy()
    rr = float(r @ r)
    g_norm = float(np.sqrt(rr))
    history = [g_norm]
    if g_norm == 0.0:
        return s, history
    threshold = cg_tol * g_norm
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


def train_batch(data: Dataset, cfg: BatchConfig) -> LinearModel:
    """Truncated Newton iterations with a halving line search.

    data's rows, usually embedded, carry +-1 labels of both classes. Each
    step's direction is a plain CG solve of H s = -g, stopped once its
    residual falls below cg_tol * ||g|| or after cg_max HVPs. Starts
    from w = 0 and stops when the gradient norm falls below the tolerance
    (default 1e-4 * max(1, initial gradient norm)) or after max_outer
    steps. A line search that fails where the gradient norm is already at
    float resolution (sqrt(eps) * max(1, initial norm)) also stops it, as
    converged, and the model records that norm as its grad_tol, the bound
    its w meets. Every accepted step strictly decreases the objective. A starting
    objective or a gradient norm that is not finite, as a C too large for
    the rows gives, is a NumericalError.

    The rows of data.X are reordered in place while the solver runs (a
    read-only data.X is a DataError) and are back in their order, bit for
    bit, when it returns or raises.
    """
    if not data.X.flags.writeable:
        raise DataError("train_batch reorders the rows of X in place while it runs, and X is read-only")
    # the row pairs (a, b) exchanged so far, one entry per chunk, in order
    swaps: list[tuple[np.ndarray, np.ndarray]] = []
    try:
        # an overflow surfaces as a NumericalError, or as a rejected line-search trial
        with np.errstate(over="ignore", invalid="ignore"):
            return _newton(data, cfg, swaps)
    finally:
        for a, b in reversed(swaps):
            _swap_rows(data.X, a, b)


def _swap_rows(X: np.ndarray, a: np.ndarray, b: np.ndarray, log: list | None = None):
    """Exchange rows a[k] and b[k] of X for every k, in chunks whose two
    row copies together stay within the 2 MB chunk budget; append each
    chunk's pair to log once it is exchanged."""
    for chunk in _row_chunks(a.size, 2 * X.shape[1]):
        rows_a, rows_b = a[chunk], b[chunk]
        kept = X[rows_a]
        X[rows_a] = X[rows_b]
        X[rows_b] = kept
        if log is not None:
            log.append((rows_a, rows_b))


def _to_front(X: np.ndarray, agg: PairAggregates, scores: np.ndarray, class_idx: tuple, swaps: list):
    """Swap rows until agg's active rows are X[:m], m of them, and carry
    scores and the row indices in agg.rows and class_idx along. Rows
    already in front stay."""
    m = agg.rows.size
    active = np.zeros(X.shape[0], dtype=bool)
    active[agg.rows] = True
    holes = np.flatnonzero(~active[:m])
    if holes.size == 0:
        return
    movers = m + np.flatnonzero(active[m:])
    _swap_rows(X, holes, movers, swaps)
    scores[holes], scores[movers] = scores[movers], scores[holes]
    position = np.arange(X.shape[0])
    position[holes], position[movers] = movers, holes
    for idx in (agg.rows, *class_idx):
        idx[:] = position[idx]


def _newton(data: Dataset, cfg: BatchConfig, swaps: list) -> LinearModel:
    """train_batch's iterations; they swap rows of data.X and log the swaps in swaps."""
    pos_idx, neg_idx = data.class_indices()
    X = data.X
    n, r = X.shape
    C = cfg.C

    w = np.zeros(r)
    scores = np.zeros(n)
    t_start = time.perf_counter()

    # every row is active at w = 0, so no row moves yet
    agg = PairAggregates(scores, pos_idx, neg_idx)
    g = agg.gradient(w, X, C)
    g0_norm = float(np.linalg.norm(g))
    objectives = [agg.objective(w, C)]
    if not np.isfinite(objectives[0]) or not np.isfinite(g0_norm):
        raise NumericalError(f"the objective or its gradient at w = 0 overflows at C = {C:g}")
    tol = cfg.grad_tol if cfg.grad_tol is not None else 1e-4 * max(1.0, g0_norm)

    grad_norms = [g0_norm]
    cg_iterations: list[int] = []
    active_rows: list[int] = []
    halvings = 0
    outer = 0
    converged = g0_norm <= tol

    while not converged and outer < cfg.max_outer:
        active_rows.append(int(agg.rows.size))
        direction, history = conjugate_gradient(lambda v: hvp_fast(agg, v, data, C), g, cfg.cg_tol, cfg.cg_max)
        cg_iterations.append(len(history) - 1)
        x_dir = X @ direction
        current = objectives[-1]

        eta = 1.0
        accepted = False
        for _ in range(31):
            trial_scores = scores + eta * x_dir
            trial_w = w + eta * direction
            trial_agg = PairAggregates(trial_scores, pos_idx, neg_idx)
            trial_obj = trial_agg.objective(trial_w, C)
            if trial_obj < current:
                accepted = True
                break
            halvings += 1
            eta *= 0.5
        if not accepted:
            gn = float(np.linalg.norm(g))
            if gn <= np.sqrt(np.finfo(np.float64).eps) * max(1.0, g0_norm):
                # flat at float resolution: accept w as converged, and
                # record the gradient bound that it meets
                converged = True
                tol = gn
                break
            raise NumericalError(
                "line search could not decrease the objective after 30 halvings "
                f"(gradient norm {gn:.3e}); gradient/curvature inconsistency"
            )

        w, scores, agg = trial_w, trial_scores, trial_agg
        _to_front(X, agg, scores, (pos_idx, neg_idx), swaps)
        outer += 1
        objectives.append(trial_obj)
        g = agg.gradient(w, X, C)
        gn = float(np.linalg.norm(g))
        if not np.isfinite(gn):
            raise NumericalError(f"the gradient norm overflows after {outer} Newton steps at C = {C:g}")
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
            # one entry per CG solve: per Newton step, plus the solve of a
            # line search that stopped at float resolution
            "cg_iterations": cg_iterations,
            "active_rows": active_rows,
            "hvps": sum(cg_iterations),
            # rejected line-search trials, each halving the step
            "linesearch_halvings": halvings,
            "seconds": elapsed,
        },
    )
