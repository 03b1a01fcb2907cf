"""Output checks computed apart from aucmax, plus the corruptions that must
make each of them fail.

Every check takes plain arrays (or the program's printed text) and returns a
``(ok, detail)`` pair. None of them calls into aucmax: kernels, embeddings,
AUC and gradients are recomputed here from the fitted pipeline's parts.
"""

from __future__ import annotations

import csv

import numpy as np

# eval-auc and the gridsearch report print AUC with six decimals
AUC_DECIMALS = 6
_HALF_ULP6 = 0.5 * 10.0**-AUC_DECIMALS


def pair_count_auc(scores: np.ndarray, y: np.ndarray) -> float:
    """AUC by counting every positive/negative pair; ties count one half."""
    s_pos = scores[y == 1]
    s_neg = scores[y == -1]
    wins = ties = 0
    step = max(1, 4_000_000 // max(s_neg.size, 1))
    for lo in range(0, s_pos.size, step):
        block = s_pos[lo : lo + step, None]
        wins += int(np.count_nonzero(block > s_neg))
        ties += int(np.count_nonzero(block == s_neg))
    return (wins + 0.5 * ties) / (s_pos.size * s_neg.size)


def gaussian_kernel(A: np.ndarray, B: np.ndarray, sigma2: float) -> np.ndarray:
    """exp(-||a - b||^2 / (2 sigma2)) for every row pair."""
    d2 = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.exp(-np.maximum(d2, 0.0) / (2.0 * sigma2))


class Pipeline:
    """The parts of a fitted Nystroem pipeline, as arrays."""

    def __init__(self, mean, stdev, centroids, sigma2, projection, w):
        self.mean, self.stdev = mean, stdev
        self.centroids, self.sigma2 = centroids, sigma2
        self.projection, self.w = projection, w

    def kernel_rows(self, X: np.ndarray) -> np.ndarray:
        return gaussian_kernel((X - self.mean) / self.stdev, self.centroids, self.sigma2)

    def embed(self, X: np.ndarray) -> np.ndarray:
        return self.kernel_rows(X) @ self.projection.T

    def scores(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """kappa(x, U) . (P^T w), and the magnitude bound for its rounding error."""
        K = self.kernel_rows(X)
        beta = self.projection.T @ self.w
        scale = K @ (np.abs(self.projection).T @ np.abs(self.w))
        return K @ beta, scale


# --- the checks ------------------------------------------------------------


def auc_matches_eval(scores, y, printed: str):
    """The held-out AUC by pair count equals eval-auc's output to its digits."""
    own = f"{pair_count_auc(scores, y):.{AUC_DECIMALS}f}"
    return own == printed.strip(), f"pair count {own}, eval-auc {printed.strip()}"


def auc_near_truth(scores, y, truth, margin: float):
    """The model's held-out AUC is within margin of the generator's own score."""
    model, best = pair_count_auc(scores, y), pair_count_auc(truth, y)
    return abs(model - best) <= margin, f"model {model:.4f}, truth {best:.4f}, margin {margin}"


def first_order(w, X_emb, y, C: float, grad_tol: float):
    """||w + 2C X^T gamma|| <= grad_tol, gamma from the explicit pair matrix.

    h[i, j] = max(0, 1 - (s_i - s_j)) over positives i and negatives j;
    gamma is -sum_j h[i, j] on positive i and +sum_i h[i, j] on negative j.
    """
    s = X_emb @ w
    pos, neg = y == 1, y == -1
    h = np.maximum(0.0, 1.0 - (s[pos][:, None] - s[neg][None, :]))
    gamma = np.zeros(s.size)
    gamma[pos] = -h.sum(axis=1)
    gamma[neg] = h.sum(axis=0)
    norm = float(np.linalg.norm(w + 2.0 * C * (X_emb.T @ gamma)))
    return norm <= grad_tol, f"gradient norm {norm:.6g}, grad_tol {grad_tol:.6g}"


def sgd_near_batch(sgd_scores, batch_scores, y, margin: float):
    """The SGD model's held-out AUC is within margin of the batch optimum's."""
    a, b = pair_count_auc(sgd_scores, y), pair_count_auc(batch_scores, y)
    return abs(a - b) <= margin, f"sgd {a:.4f}, batch {b:.4f}, margin {margin}"


def landmark_kernel(pipe: Pipeline, rel_tol: float = 1e-9):
    """Embedded landmarks reproduce the landmark kernel matrix.

    E = K P^T gives E E^T = K minus its dropped spectrum, so the largest
    entry error is at most the largest dropped eigenvalue; at full rank it
    is rounding only.
    """
    K = gaussian_kernel(pipe.centroids, pipe.centroids, pipe.sigma2)
    E = K @ pipe.projection.T
    eig = np.linalg.eigvalsh(K)[::-1]
    dropped = float(eig[pipe.projection.shape[0]]) if pipe.projection.shape[0] < eig.size else 0.0
    err = float(np.max(np.abs(E @ E.T - K)))
    bound = max(dropped, 0.0) + rel_tol * float(eig[0])
    rank = pipe.projection.shape[0]
    return err <= bound, f"rank {rank}/{eig.size}, max error {err:.3g}, bound {bound:.3g}"


def scores_match(scores, pipe: Pipeline, X, rel_tol: float = 1e-8):
    """Program scores equal kappa(x, U) . (P^T w) within a relative tolerance."""
    own, scale = pipe.scores(X)
    err = np.abs(scores - own)
    worst = int(np.argmax(err / (scale + 1e-300)))
    ok = scores.shape == own.shape and bool(np.all(err <= rel_tol * scale))
    return ok, f"worst row {worst}: error {err[worst]:.3g}, scale {scale[worst]:.3g}"


def read_grid_report(path: str) -> list[tuple[float, int, float]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [(float(r["value"]), int(r["fold"]), float(r["auc"])) for r in rows]


def grid_selection(rows, grid, folds: int, selected: float, printed_mean: float):
    """The selection recomputed from the per-cell report, ties toward smaller C.

    The report rounds each AUC to six decimals, so a selection counts as
    recomputed when its mean is the best to within that rounding; among
    exactly equal means the smallest C must win.
    """
    cells = {(v, f): a for v, f, a in rows}
    if sorted(cells) != sorted((v, f) for v in grid for f in range(folds)):
        return False, "report does not hold exactly one row per (value, fold)"
    means = {v: sum(cells[v, f] for f in range(folds)) / folds for v in grid}
    best = max(means.values())
    expected = min(v for v in grid if means[v] == best)
    within = means.get(selected, -1.0) >= best - 2 * _HALF_ULP6
    ok = selected in means and (selected == expected or (within and means[selected] != best))
    ok = ok and abs(printed_mean - means[selected]) <= 2 * _HALF_ULP6
    return ok, f"selected {selected:g}, recomputed {expected:g}, mean {printed_mean:.6f}"


# --- corruptions, one per check --------------------------------------------


def flip_top_positive(scores, y):
    """The best-scored positive drops below every other score."""
    out = scores.copy()
    pos = np.flatnonzero(y == 1)
    out[pos[np.argmax(scores[pos])]] = scores.min() - 1.0
    return out


def perturb_weights(w, scale: float = 0.2):
    """Add scale * ||w|| along the largest weight."""
    out = w.copy()
    out[np.argmax(np.abs(w))] += scale * np.linalg.norm(w)
    return out


def perturb_projection(pipe: Pipeline) -> Pipeline:
    P = pipe.projection.copy()
    P[0] *= 1.001
    return Pipeline(pipe.mean, pipe.stdev, pipe.centroids, pipe.sigma2, P, pipe.w)


def flip_largest(scores):
    out = scores.copy()
    k = np.argmax(np.abs(scores))
    out[k] = -out[k]
    return out


def swap_best_and_worst(rows):
    """Exchange the AUC columns of the best and the worst grid value."""
    values = sorted({v for v, _, _ in rows})
    mean = {v: np.mean([a for u, _, a in rows if u == v]) for v in values}
    best, worst = max(values, key=mean.get), min(values, key=mean.get)
    swap = {best: worst, worst: best}
    cells = {(v, f): a for v, f, a in rows}
    return [(v, f, cells[swap.get(v, v), f]) for v, f, _ in rows]
