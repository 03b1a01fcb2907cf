"""Brute-force oracles, the ground truth the fast paths are tested against.

Literal enumeration of every positive/negative pair for AUC and for the
pairwise squared hinge's loss, gradient and Hessian-vector product, and
the Gaussian kernel of one pair of points. The active-pair predicate
matches the solver's bit for bit (s_j > s_i - 1.0 evaluated in that float
order).
"""

import numpy as np

from aucmax.batch import PairAggregates
from aucmax.errors import DataError
from aucmax.metrics import AucResult, _check_inputs, _result_from_counts


def auc_bruteforce(scores, labels, tie_policy: str = "half") -> AucResult:
    """AUC by comparing every positive score with every negative one."""
    scores, labels = _check_inputs(scores, labels)
    s_pos = scores[labels == 1]
    s_neg = scores[labels == -1]
    wins = int(np.sum(s_pos[:, None] > s_neg[None, :]))
    ties = int(np.sum(s_pos[:, None] == s_neg[None, :]))
    losses = s_pos.size * s_neg.size - wins - ties
    return _result_from_counts(wins, ties, losses, tie_policy)


def gaussian_kernel(x, y, params) -> float:
    """kappa for a single pair of equal-length 1-D dense vectors."""
    xv, yv = (np.asarray(v, dtype=np.float64) for v in (x, y))
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise DataError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    diff = xv - yv
    return float(np.exp(-float(diff @ diff) / (2.0 * params.sigma2)))


def active_pairs(s, y):
    out = []
    for i in np.flatnonzero(y == 1):
        t = s[i] - 1.0
        for j in np.flatnonzero(y == -1):
            if s[j] > t:
                out.append((i, j))
    return out


def brute_grad(w, X, y, C):
    s = X @ w
    g = w.copy()
    for i, j in active_pairs(s, y):
        d = 1.0 - s[i] + s[j]
        g += 2.0 * C * d * (X[j] - X[i])
    return g


def brute_hvp(w, v, X, y, C):
    s = X @ w
    out = v.copy()
    for i, j in active_pairs(s, y):
        diff = X[i] - X[j]
        out += 2.0 * C * float(diff @ v) * diff
    return out


def brute_loss(w, X, y):
    s = X @ w
    return sum((1.0 - s[i] + s[j]) ** 2 for i, j in active_pairs(s, y))


def brute_objective(w, X, y, C):
    return 0.5 * float(w @ w) + C * brute_loss(w, X, y)


def aggregates(w, data):
    """The solver's pair aggregates at w, the fast side of each comparison."""
    return PairAggregates(data.X @ w, *data.class_indices())
