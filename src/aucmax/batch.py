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

Each Newton step solves H s = -g by conjugate gradient, and two things keep
that solve cheap:

- Active-row HVPs. H v = v + 2C X_A^T alpha_A(X_A v) is exact (the
  active-set trick of primal SVM Newton methods, Chapelle 2007). When at
  most half of the rows are active, X_A is gathered once per aggregate;
  otherwise the product runs over X itself and no copy is made. The
  gradient w + 2C X^T gamma scatters gamma_A into an n-vector and runs over
  X.
- Jacobi preconditioning. CG is preconditioned by the exact diagonal of
  H = I + 2C X^T L X at the current aggregates, L being the active-pair
  Laplacian (Hsia, Chiang & Lin, ACML 2018). It still stops on the
  unpreconditioned residual, so cg_tol keeps its meaning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
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

    # columns per block of hessian_diagonal, bounding its temporaries to rows x 64
    DIAG_COLUMNS = 64

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
        self._gathered = None

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
        """Squared hinge gradient, for the w whose scores X @ w built these aggregates."""
        g = np.zeros(X.shape[0])
        g[self.rows] = self.gamma()
        return w + 2.0 * C * (X.T @ g)

    def active_features(self, X):
        """(M, sel) with M[sel] == X[rows]: the matrix the HVP multiplies and
        the positions of the active rows in it.

        When at most half of the rows are active, M is the gathered X[rows],
        made on the first call, and sel takes all of it. Otherwise M is X.
        """
        if 2 * self.rows.size > X.shape[0]:
            return X, self.rows
        if self._gathered is None:
            self._gathered = X[self.rows]
        return self._gathered, slice(None)

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

    def hessian_diagonal(self, X, C: float) -> np.ndarray:
        """diag(H) = 1 + 2C diag(X^T L X), L the active-pair Laplacian.

        Column j is sum_i c_i x_ij^2 - 2 sum_p x_pj S_pj over the active
        rows, where S_p sums the rows of p's active partners: a suffix sum
        of the sorted negatives. That is sum over active pairs of
        (x_pj - x_kj)^2 >= 0, so rounding below 0 is clamped. Computed
        DIAG_COLUMNS columns at a time.
        """
        M, sel = self.active_features(X)
        npos = self.n_act_pos
        quad = np.empty(X.shape[1])
        for lo in range(0, quad.size, self.DIAG_COLUMNS):
            B = M[sel, lo : lo + self.DIAG_COLUMNS]
            S = np.cumsum(B[npos:][::-1], axis=0)[::-1]
            quad[lo : lo + B.shape[1]] = self.c_act @ (B * B) - 2.0 * np.einsum(
                "ij,ij->j", B[:npos], S[self.k_act]
            )
        return 1.0 + 2.0 * C * np.maximum(quad, 0.0)


def hvp_fast(agg: PairAggregates, v: np.ndarray, data: Dataset, C: float) -> np.ndarray:
    """Generalized-Hessian product at the weights the aggregates were built from.

    Only the active rows enter it; see PairAggregates.active_features.
    """
    M, sel = agg.active_features(data.X)
    a = np.zeros(M.shape[0])
    a[sel] = agg.alpha((M @ v)[sel])
    return v + 2.0 * C * (M.T @ a)


def conjugate_gradient(
    apply_H, g: np.ndarray, cg_tol: float, cg_max: int, inv_diag: np.ndarray
) -> tuple[np.ndarray, list[float]]:
    """Solve H s = -g for symmetric positive definite H by preconditioned CG.

    inv_diag is the inverse of a positive diagonal approximating H; all
    ones gives plain CG. Returns the approximate solution and the history of
    the unpreconditioned residual norm (including the initial residual).
    Stops when that residual drops below cg_tol * ||g|| or after cg_max
    iterations.
    """
    b = -g
    s = np.zeros_like(g)
    r = b.copy()
    z = inv_diag * r
    d = z
    rz = float(r @ z)
    b_norm = float(np.sqrt(r @ r))
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
        step = rz / dHd
        s += step * d
        r -= step * Hd
        history.append(float(np.sqrt(r @ r)))
        if history[-1] <= threshold:
            break
        z = inv_diag * r
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    return s, history


def train_batch(data: Dataset, cfg: BatchConfig) -> LinearModel:
    """Newton iterations with CG inner solves and a halving line search.

    data's rows, usually embedded, carry +-1 labels of both classes. Starts
    from w = 0 and stops when the gradient norm falls below the tolerance
    (default 1e-4 * max(1, initial gradient norm)) or after max_outer
    steps. Every accepted step strictly decreases the objective.
    """
    pos_idx, neg_idx = data.class_indices()
    X = data.X
    n, r = X.shape
    C = cfg.C

    w = np.zeros(r)
    scores = np.zeros(n)
    t_start = time.perf_counter()

    agg = PairAggregates(scores, pos_idx, neg_idx)
    g = agg.gradient(w, X, C)
    g0_norm = float(np.linalg.norm(g))
    tol = cfg.grad_tol if cfg.grad_tol is not None else 1e-4 * max(1.0, g0_norm)

    grad_norms = [g0_norm]
    objectives = [agg.objective(w, C)]
    cg_iterations: list[int] = []
    active_rows: list[int] = []
    halvings = 0
    outer = 0
    converged = g0_norm <= tol

    while not converged and outer < cfg.max_outer:
        active_rows.append(int(agg.rows.size))
        direction, history = conjugate_gradient(
            lambda v: hvp_fast(agg, v, data, C),
            g,
            cfg.cg_tol,
            cfg.cg_max,
            1.0 / agg.hessian_diagonal(X, C),
        )
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
