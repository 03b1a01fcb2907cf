"""Finite-dimensional feature construction.

k-means landmarks, the Nystroem map built from the eigendecomposition of the
landmark kernel matrix, and a random-Fourier-feature map as the baseline
embedding. Embedded data is always dense n x r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dataio import Dataset, Matrix, SparseVector
from .errors import ConfigError, DataError, NumericalError
from .kernels import GaussianKernelParams, kernel_matrix, row_sq_norms

# cap on float64 cells held by one distance/kernel chunk (~32 MB)
_CHUNK_CELLS = 4_000_000


@dataclass
class LandmarkSet:
    """v landmark points, one per row."""

    centroids: np.ndarray

    def __post_init__(self):
        self.centroids = np.atleast_2d(np.asarray(self.centroids, dtype=np.float64))
        if self.centroids.shape[0] < 1:
            raise DataError("need at least one landmark")
        if not np.all(np.isfinite(self.centroids)):
            raise DataError("landmarks must be finite")

    @property
    def v(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


@dataclass
class NystroemMap:
    """Embedding x -> projection @ [kappa(x, u_1), ..., kappa(x, u_v)].

    projection is the (r x v) whitening of the landmark kernel matrix W:
    rows are eigenvectors of W scaled by 1/sqrt(eigenvalue), so embedded
    landmarks reproduce W up to the dropped part of the spectrum.
    """

    landmarks: LandmarkSet
    kernel: GaussianKernelParams
    projection: np.ndarray
    eigenvalues: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        if self.projection.shape != (self.eigenvalues.shape[0], self.landmarks.v):
            raise DataError("projection shape does not match rank and landmark count")
        if np.any(self.eigenvalues <= 0) or np.any(np.diff(self.eigenvalues) > 0):
            raise DataError("retained eigenvalues must be positive and non-increasing")

    @property
    def rank(self) -> int:
        return self.projection.shape[0]


@dataclass
class RffMap:
    """Random cosine features: x -> sqrt(2/D) cos(freqs @ x + phases)."""

    frequencies: np.ndarray
    phases: np.ndarray
    kernel: GaussianKernelParams
    seed: int | None = None

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=np.float64)
        self.phases = np.asarray(self.phases, dtype=np.float64)
        if self.frequencies.ndim != 2 or self.frequencies.shape[0] != self.phases.shape[0]:
            raise DataError("frequencies must be D x d with one phase per row")
        if self.frequencies.shape[0] < 1:
            raise DataError("need at least one random feature")

    @property
    def rank(self) -> int:
        return self.frequencies.shape[0]

    @property
    def scale(self) -> float:
        return float(np.sqrt(2.0 / self.frequencies.shape[0]))


@dataclass
class EmbeddedDataset:
    """Dense embedded instances with positive/negative index sets."""

    features: np.ndarray
    y: np.ndarray
    pos_idx: np.ndarray = field(init=False)
    neg_idx: np.ndarray = field(init=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.y.shape[0]:
            raise DataError("features must be n x r with one label per row")
        if not np.all(np.isfinite(self.features)):
            raise DataError("embedded features must be finite")
        if not np.all((self.y == 1) | (self.y == -1)):
            raise DataError("labels must be +-1 at embedding time")
        self.pos_idx = np.flatnonzero(self.y == 1)
        self.neg_idx = np.flatnonzero(self.y == -1)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def r(self) -> int:
        return self.features.shape[1]

    def require_both_classes(self):
        if self.pos_idx.size == 0 or self.neg_idx.size == 0:
            raise DataError("training requires at least one instance of each class")


def _chunk_rows(n_cols: int) -> int:
    return max(1, _CHUNK_CELLS // max(n_cols, 1))


def _assign(X: Matrix, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and squared distances, chunked over rows."""
    n = X.shape[0]
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n)
    c_norms = row_sq_norms(centroids)
    x_norms = row_sq_norms(X)
    step = _chunk_rows(centroids.shape[0])
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        cross = X[lo:hi] @ centroids.T
        d2 = x_norms[lo:hi, None] + c_norms[None, :] - 2.0 * np.asarray(cross)
        np.maximum(d2, 0.0, out=d2)
        idx = np.argmin(d2, axis=1)
        labels[lo:hi] = idx
        best[lo:hi] = d2[np.arange(hi - lo), idx]
    return labels, best


def _min_sq_dist_to(X: Matrix, point: np.ndarray) -> np.ndarray:
    cross = np.asarray(X @ point)
    d2 = row_sq_norms(X) + float(point @ point) - 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeanspp(X: Matrix, v: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted seeding; returns v distinct row indices."""
    n = X.shape[0]
    chosen = np.empty(v, dtype=np.int64)
    chosen[0] = rng.integers(n)
    picked = np.zeros(n, dtype=bool)
    picked[chosen[0]] = True
    d2 = _min_sq_dist_to(X, _row_dense(X, chosen[0]))
    d2[chosen[0]] = 0.0
    for k in range(1, v):
        total = float(d2.sum())
        if total <= 0.0:
            # remaining mass is zero (duplicate points): fall back to uniform
            pool = np.flatnonzero(~picked)
            idx = int(pool[rng.integers(pool.size)])
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        chosen[k] = idx
        picked[idx] = True
        np.minimum(d2, _min_sq_dist_to(X, _row_dense(X, idx)), out=d2)
        d2[idx] = 0.0
    return chosen


def _row_dense(X: Matrix, i: int) -> np.ndarray:
    if sp.issparse(X):
        return np.asarray(X.getrow(i).todense()).ravel()
    return np.asarray(X[i], dtype=np.float64)


def _lloyd(
    X: Matrix, centroids: np.ndarray, max_iter: int
) -> tuple[np.ndarray, list[float]]:
    """Alternate assignment/update until fixpoint; returns inertia history."""
    n, v = X.shape[0], centroids.shape[0]
    prev = None
    history: list[float] = []
    for _ in range(max_iter):
        labels, d2 = _assign(X, centroids)
        history.append(float(d2.sum()))
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
        indicator = sp.csr_matrix(
            (np.ones(n), labels, np.arange(n + 1)), shape=(n, v)
        )
        sums = np.asarray((indicator.T @ X).todense() if sp.issparse(X) else indicator.T @ X)
        counts = np.bincount(labels, minlength=v).astype(np.float64)
        empty = np.flatnonzero(counts == 0)
        nonempty = counts > 0
        centroids = centroids.copy()
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        if empty.size:
            # hand each empty cluster the point currently worst-served
            claim = d2.copy()
            for c in empty:
                far = int(np.argmax(claim))
                centroids[c] = _row_dense(X, far)
                claim[far] = -np.inf
    return centroids, history


def kmeans(data: Dataset, v: int, max_iter: int = 100, seed: int = 0) -> LandmarkSet:
    """Landmark selection: distance-weighted seeding plus Lloyd refinement.

    Deterministic for a given seed. Empty clusters are re-seeded from the
    point farthest from its assigned centroid.
    """
    if v < 1:
        raise ConfigError(f"landmark count must be >= 1, got {v}")
    if v > data.n:
        raise DataError(f"landmark count {v} exceeds instance count {data.n}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    rng = np.random.default_rng(seed)
    idx = _kmeanspp(data.X, v, rng)
    if sp.issparse(data.X):
        init = np.asarray(data.X[idx].todense(), dtype=np.float64)
    else:
        init = np.array(data.X[idx], dtype=np.float64)
    centroids, _ = _lloyd(data.X, init, max_iter)
    return LandmarkSet(centroids)


def fit_nystroem(
    landmarks: LandmarkSet,
    kernel: GaussianKernelParams,
    rank_cap: int | None = None,
    eig_drop: float = 1e-12,
    seed: int | None = None,
) -> NystroemMap:
    """Eigendecompose the landmark kernel matrix and build the whitening map.

    Eigenvalues at or below eig_drop * lambda_max are discarded, which is the
    pseudo-inverse treatment of (near-)singular W from duplicate landmarks.
    """
    if eig_drop < 0:
        raise ConfigError(f"eig_drop must be >= 0, got {eig_drop}")
    if rank_cap is not None and rank_cap < 1:
        raise ConfigError(f"rank cap must be >= 1, got {rank_cap}")
    W = kernel_matrix(landmarks.centroids, landmarks.centroids, kernel)
    W = 0.5 * (W + W.T)
    vals, vecs = np.linalg.eigh(W)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    lam_max = float(vals[0])
    if not np.isfinite(lam_max) or lam_max <= 0:
        raise NumericalError("landmark kernel matrix has no positive eigenvalue")
    keep = vals > eig_drop * lam_max
    retained = int(np.count_nonzero(keep))
    if retained == 0:
        raise NumericalError("every eigenvalue fell below the drop threshold")
    r = retained if rank_cap is None else min(rank_cap, retained)
    lam = vals[:r]
    projection = (vecs[:, :r] / np.sqrt(lam)).T
    return NystroemMap(landmarks, kernel, projection, lam, seed=seed)


def fit_rff(
    d: int, D: int, kernel: GaussianKernelParams, seed: int = 0
) -> RffMap:
    """Sample the spectral measure of the Gaussian kernel.

    Frequencies have per-coordinate variance 1/sigma2, so the expected
    inner product of two feature vectors equals kappa.
    """
    if D < 1:
        raise ConfigError(f"feature count must be >= 1, got {D}")
    if d < 1:
        raise ConfigError(f"input dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    freqs = rng.normal(0.0, 1.0 / np.sqrt(kernel.sigma2), size=(D, d))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=D)
    return RffMap(freqs, phases, kernel, seed=seed)


def _nystroem_features(m: NystroemMap, X: Matrix) -> np.ndarray:
    n = X.shape[0]
    out = np.empty((n, m.rank))
    step = _chunk_rows(m.landmarks.v)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        E = kernel_matrix(X[lo:hi], m.landmarks.centroids, m.kernel)
        out[lo:hi] = E @ m.projection.T
    return out


def _rff_features(m: RffMap, X: Matrix) -> np.ndarray:
    n = X.shape[0]
    out = np.empty((n, m.rank))
    step = _chunk_rows(m.rank)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        proj = np.asarray(X[lo:hi] @ m.frequencies.T)
        out[lo:hi] = m.scale * np.cos(proj + m.phases)
    return out


def _check_dim(map_dim: int, data_dim: int):
    if map_dim != data_dim:
        raise DataError(f"embedding expects dimension {map_dim}, data has {data_dim}")


def embed(m: NystroemMap | RffMap, data: Dataset) -> EmbeddedDataset:
    """Map a whole dataset into the embedded space, carrying labels over."""
    if isinstance(m, NystroemMap):
        _check_dim(m.landmarks.dim, data.dim)
        feats = _nystroem_features(m, data.X)
    else:
        _check_dim(m.frequencies.shape[1], data.dim)
        feats = _rff_features(m, data.X)
    return EmbeddedDataset(feats, data.y)


def embed_point(m: NystroemMap | RffMap, x) -> np.ndarray:
    """Embed one point (SparseVector or 1-D dense vector)."""
    d = m.landmarks.dim if isinstance(m, NystroemMap) else m.frequencies.shape[1]
    if isinstance(x, SparseVector):
        if x.indices.size and x.indices[-1] >= d:
            raise DataError(f"feature index {int(x.indices[-1])} outside dimension {d}")
        xv = x.to_dense(d)
    else:
        xv = np.asarray(x, dtype=np.float64)
    _check_dim(d, xv.shape[0])
    if isinstance(m, NystroemMap):
        return _nystroem_features(m, xv.reshape(1, -1)).ravel()
    return _rff_features(m, xv.reshape(1, -1)).ravel()
