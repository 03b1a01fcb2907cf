"""Finite-dimensional feature construction.

k-means landmarks, the Nystroem map built from the eigendecomposition of the
landmark kernel matrix, and a random-Fourier-feature map as the baseline
embedding. embed returns a plain Dataset of dense n x rank rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataio import Dataset, SparseVector, dense_point
from .errors import ConfigError, DataError, NumericalError
from .kernels import GaussianKernelParams, kernel_matrix, pairwise_sq_dists, row_sq_norms

# cap on float64 cells held by one distance/kernel chunk (~32 MB)
_CHUNK_CELLS = 4_000_000

# landmark-kernel eigenvalues at or below this share of the largest are dropped
_EIG_DROP = 1e-12


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
        # one memory layout for fitted and loaded maps: fold's matrix-vector
        # product rounds differently on a transposed layout
        self.projection = np.ascontiguousarray(self.projection, dtype=np.float64)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        if self.projection.shape != (self.eigenvalues.shape[0], self.landmarks.v):
            raise DataError("projection shape does not match rank and landmark count")
        if not np.all(np.isfinite(self.eigenvalues)):
            raise DataError("retained eigenvalues must be finite")
        if np.any(self.eigenvalues <= 0) or np.any(np.diff(self.eigenvalues) > 0):
            raise DataError("retained eigenvalues must be positive and non-increasing")

    @property
    def rank(self) -> int:
        return self.projection.shape[0]

    @property
    def dim(self) -> int:
        return self.landmarks.dim

    # score multiplies kernel values, which lie in [0, 1], into the folded weights
    value_bound = 1.0

    @cached_property
    def _landmark_sq_norms(self) -> np.ndarray:
        return row_sq_norms(self.landmarks.centroids)

    def _kernel_times(self, X: np.ndarray, M: np.ndarray) -> np.ndarray:
        """kappa(X, U) @ M, in chunks of X's rows."""
        out = np.empty((X.shape[0], *M.shape[1:]))
        for rows in _row_chunks(X.shape[0], self.landmarks.v):
            K = kernel_matrix(X[rows], self.landmarks.centroids, self.kernel, self._landmark_sq_norms)
            out[rows] = K @ M
        return out

    def features(self, X: np.ndarray) -> np.ndarray:
        """The n x rank embedding of X's rows, in chunks of rows."""
        return self._kernel_times(X, self.projection.T)

    def fold(self, w: np.ndarray) -> np.ndarray:
        """The weights over the kernel values that make score equal features(X) @ w:
        beta = projection.T @ w, one per landmark."""
        return self.projection.T @ w

    def score(self, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """kappa(x, U) @ beta for each row x of X, beta from fold: O(v d) per row,
        with no rank x v product."""
        return self._kernel_times(X, beta)


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
    def dim(self) -> int:
        return self.frequencies.shape[1]

    @property
    def scale(self) -> float:
        return float(np.sqrt(2.0 / self.frequencies.shape[0]))

    @property
    def value_bound(self) -> float:
        """score multiplies features, which lie within +-scale, into the weights."""
        return self.scale

    def features(self, X: np.ndarray) -> np.ndarray:
        """The n x rank embedding of X's rows, in chunks of rows."""
        out = np.empty((X.shape[0], self.rank))
        for rows in _row_chunks(X.shape[0], self.rank):
            out[rows] = self.scale * np.cos(X[rows] @ self.frequencies.T + self.phases)
        return out

    def fold(self, w: np.ndarray) -> np.ndarray:
        """The features are explicit, so the weights need no folding."""
        return w

    def score(self, X: np.ndarray, w: np.ndarray) -> np.ndarray:
        """features(X) @ w."""
        return self.features(X) @ w


def _row_chunks(n_rows: int, n_cols: int) -> list[slice]:
    """Slices covering range(n_rows), each of at most _CHUNK_CELLS / n_cols rows."""
    step = max(1, _CHUNK_CELLS // max(n_cols, 1))
    return [slice(lo, min(n_rows, lo + step)) for lo in range(0, n_rows, step)]


def _assign(X: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and squared distances, chunked over rows."""
    n = X.shape[0]
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n)
    c_norms = row_sq_norms(centroids)
    for rows in _row_chunks(n, centroids.shape[0]):
        d2 = pairwise_sq_dists(X[rows], centroids, c_norms)
        idx = np.argmin(d2, axis=1)
        labels[rows] = idx
        best[rows] = d2[np.arange(d2.shape[0]), idx]
    return labels, best


def _kmeanspp(X: np.ndarray, v: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted seeding; returns v distinct row indices."""
    n = X.shape[0]
    x_norms = row_sq_norms(X)

    def sq_dists_to(i: int) -> np.ndarray:
        return pairwise_sq_dists(X[i : i + 1], X, x_norms)[0]

    chosen = np.empty(v, dtype=np.int64)
    chosen[0] = rng.integers(n)
    picked = np.zeros(n, dtype=bool)
    picked[chosen[0]] = True
    d2 = sq_dists_to(chosen[0])
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
        np.minimum(d2, sq_dists_to(idx), out=d2)
        d2[idx] = 0.0
    return chosen


def _lloyd(
    X: np.ndarray, centroids: np.ndarray, max_iter: int
) -> tuple[np.ndarray, list[float]]:
    """Alternate assignment/update until fixpoint; returns inertia history."""
    d, v = X.shape[1], centroids.shape[0]
    prev = None
    history: list[float] = []
    for _ in range(max_iter):
        labels, d2 = _assign(X, centroids)
        history.append(float(d2.sum()))
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
        # each cell of X goes to the bin (its row's label, its column), summed in row order
        bins = (labels[:, None] * d + np.arange(d)).ravel()
        sums = np.bincount(bins, weights=X.ravel(), minlength=v * d).reshape(v, d)
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
                centroids[c] = X[far]
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
    idx = _kmeanspp(data.X, v, np.random.default_rng(seed))
    centroids, _ = _lloyd(data.X, data.X[idx], max_iter)
    return LandmarkSet(centroids)


def fit_nystroem(
    landmarks: LandmarkSet,
    kernel: GaussianKernelParams,
    rank_cap: int | None = None,
    seed: int | None = None,
) -> NystroemMap:
    """Eigendecompose the landmark kernel matrix and build the whitening map.

    Eigenvalues at or below _EIG_DROP * lambda_max are discarded, which is the
    pseudo-inverse treatment of (near-)singular W from duplicate landmarks.
    """
    if rank_cap is not None and rank_cap < 1:
        raise ConfigError(f"rank cap must be >= 1, got {rank_cap}")
    W = kernel_matrix(landmarks.centroids, landmarks.centroids, kernel)
    W = 0.5 * (W + W.T)
    vals, vecs = np.linalg.eigh(W)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    lam_max = float(vals[0])
    if not np.isfinite(lam_max) or lam_max <= 0:
        raise NumericalError("landmark kernel matrix has no positive eigenvalue")
    keep = vals > _EIG_DROP * lam_max
    retained = int(np.count_nonzero(keep))
    if retained == 0:
        raise NumericalError("every eigenvalue fell below the drop threshold")
    r = retained if rank_cap is None else min(rank_cap, retained)
    lam = vals[:r]
    projection = np.divide(vecs[:, :r].T, np.sqrt(lam)[:, None], order="C")
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


def embed(m: NystroemMap | RffMap, data: Dataset) -> Dataset:
    """The n x rank embedded rows of a whole dataset, with its labels."""
    if m.dim != data.dim:
        raise DataError(f"embedding expects dimension {m.dim}, data has {data.dim}")
    return Dataset(m.features(data.X), data.y)


def embed_point(m: NystroemMap | RffMap, x: SparseVector | np.ndarray) -> np.ndarray:
    """Embed one point (SparseVector or 1-D dense vector)."""
    return m.features(dense_point(x, m.dim).reshape(1, -1)).ravel()
