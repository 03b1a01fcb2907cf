"""Finite-dimensional feature construction.

k-means landmarks, the Nystroem map whitened by the inverse Cholesky factor
of its landmark kernel matrix (on a rank-deficient matrix, of the
landmarks that a diagonally pivoted Cholesky keeps), and a
random-Fourier-feature map as the baseline embedding. embed returns a plain
Dataset of dense n x rank rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataio import Dataset, SparseVector, dense_point
from .errors import ConfigError, DataError, NumericalError
from .kernels import GaussianKernelParams, kernel_matrix, pairwise_sq_dists, row_sq_norms

# Cap on the float64 cells of one distance or kernel chunk: 2**18 cells,
# 2 MB, one core's L2 cache on the x86-64 host measured. A pass holds two or
# three chunk-sized arrays, so a fit holds its live arrays plus a few MB.
# Over 2**18 to 2**20 cells (BLAS at one thread), 2**18 gave the fastest
# k-means on both benchmark inputs: 0.37 CPU-s on the 16 000 rings rows at
# v = 400 against 0.44 at 2**20 and 0.49 at 4e6 cells; the embedding of
# 3681 spam-shaped rows at v = 1600 took 0.43 against 0.39 at 2**20.
_CHUNK_CELLS = 2**18

# Chunks hold a multiple of this many rows. BLAS gemv, which computes a
# score's kappa(X, U) @ beta, takes rows in groups of 4 and the rest by a loop
# that rounds differently, so a chunk boundary inside a group would change
# scores in the last bit. Aligned chunks give every score the bits of one
# gemv over all rows, whatever the budget.
_ROW_GROUP = 8

# the Cholesky whitening is taken when it certifies a condition number below 1 / _COND_DROP
_COND_DROP = 1e-12

# _tril_inv hands triangles of at most this order to np.linalg.inv
_INV_BASE = 64

# _pivots updates the residual of the landmark kernel once per this many pivots
_PIVOT_BLOCK = 128


@dataclass
class LandmarkSet:
    """v landmark points, one per row.

    diagnostics, filled by kmeans, holds lloyd_iterations, the final
    inertia and distance_rows: per Lloyd iteration, the rows whose
    distances to every centroid were computed.
    """

    centroids: np.ndarray
    diagnostics: dict | None = field(default=None, repr=False)

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

    projection is L^-1 for the Cholesky factor L of the landmark kernel
    matrix W, so the embedded landmarks reproduce W, and the rank is the
    landmark count v. A map built from landmarks alone (a loaded model's)
    computes projection on first access, by the same function as
    fit_nystroem: on one machine, the same bits. diagnostics, filled by
    fit_nystroem, holds retained_rank, pruned_landmarks and dropped_mass.
    """

    landmarks: LandmarkSet
    kernel: GaussianKernelParams
    seed: int | None = None
    diagnostics: dict | None = field(default=None, repr=False)

    @property
    def rank(self) -> int:
        return self.landmarks.v

    @cached_property
    def projection(self) -> np.ndarray:
        P = _certified_inverse(_landmark_kernel(self.landmarks, self.kernel))
        if P is None:
            raise DataError(
                f"the kernel matrix of the {self.rank} landmarks is not certified well-conditioned"
            )
        return P

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

    def unfold(self, beta: np.ndarray) -> np.ndarray:
        """The w that fold maps to beta = projection.T @ w: L^T @ beta, since
        projection is L^-1, with L factored again from W."""
        return np.linalg.cholesky(_landmark_kernel(self.landmarks, self.kernel)).T @ beta

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

    unfold = fold

    def score(self, X: np.ndarray, w: np.ndarray) -> np.ndarray:
        """features(X) @ w."""
        return self.features(X) @ w


def _row_chunks(n_rows: int, n_cols: int) -> list[slice]:
    """Slices covering range(n_rows), each of at most _CHUNK_CELLS / n_cols rows
    rounded down to a multiple of _ROW_GROUP, and of at least _ROW_GROUP. A
    last chunk of one row joins the chunk before it: numpy multiplies a lone
    row by gemv, which rounds differently from the gemm of the other rows."""
    step = max(1, _CHUNK_CELLS // max(n_cols, 1) // _ROW_GROUP) * _ROW_GROUP
    # no boundary at n_rows - 1, which would leave the last row alone
    bounds = [*range(step, n_rows - 1, step)]
    return [slice(lo, hi) for lo, hi in zip([0, *bounds], [*bounds, n_rows]) if hi > lo]


def _assign(
    X: np.ndarray, centroids: np.ndarray, c_norms: np.ndarray, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-centroid labels with the nearest and second-nearest squared
    distances (inf for one centroid), for X's rows or the rows indexed by
    ``rows``, chunked over rows."""
    Xs = X if rows is None else X[rows]
    n, v = Xs.shape[0], centroids.shape[0]
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n)
    second = np.full(n, np.inf)
    for chunk in _row_chunks(n, v):
        d2 = pairwise_sq_dists(Xs[chunk], centroids, c_norms)
        at = np.arange(d2.shape[0])
        idx = np.argmin(d2, axis=1)
        labels[chunk] = idx
        best[chunk] = d2[at, idx]
        if v > 1:
            d2[at, idx] = np.inf
            second[chunk] = d2.min(axis=1)
    return labels, best, second


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
        cum = np.cumsum(d2)
        if cum[-1] <= 0.0:
            # remaining mass is zero (duplicate points): fall back to uniform
            pool = np.flatnonzero(~picked)
            idx = int(pool[rng.integers(pool.size)])
        else:
            # r < cum[-1], so the first cum > r ends a positive, unpicked d2
            idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        chosen[k] = idx
        picked[idx] = True
        np.minimum(d2, sq_dists_to(idx), out=d2)
        d2[idx] = 0.0
    return chosen


def _lloyd(
    X: np.ndarray, centroids: np.ndarray, max_iter: int, on_iteration=None
) -> tuple[np.ndarray, list[float]]:
    """Alternate assignment/update until fixpoint; returns inertia history.

    Every iteration's labels are the full nearest-centroid argmin's, but
    Hamerly's bounds ("Making k-means even faster", SDM 2010) spare most
    rows their distance row. Each row holds its exact squared distance to
    its own centroid (own, which the inertia needs anyway) and a lower
    bound on its distance to every other centroid (lower: the second
    nearest when last computed, less the largest other centroid shift
    since). It keeps its label when own is below lower^2 or a quarter of
    the squared gap from its centroid to the nearest other one. on_iteration,
    when given, gets each iteration's labels and the number of rows whose
    distances to every centroid it computed.

    Exactness. For a row x with label a, let D_j be its true distance to
    centroid j, F_j the value pairwise_sq_dists rounds D_j^2 to, and
    R^2 = ||x||^2 + max ||c||^2 (r2; a centroid is an initial one, a mean
    or a row). With eps the machine epsilon:
    - |F_j - D_j^2| <= E = (d + 2) eps R^2 (norms and a dot product of d
      terms, in any BLAS blocking, then two additions);
    - own, summed from d differences, is within (d + 3) eps R^2 of D_a^2;
    - lower^2 starts within E of min over j != a of D_j^2; the shifts, roots
      of d squared differences, are within (d + 5) eps / 4 relative, and
      each subtraction rounds once, so after k iterations lower^2 is at
      most 2E + (d + 7 + 2k) eps R^2 too high;
    - the gaps' own F are within 2E, and D_j >= ||c_a - c_j|| - D_a costs
      no more.
    So own + tol < bound, with tol = (8d + 32 + 2k) eps R^2 above the
    (6d + 21 + 2k) eps R^2 these add up to, gives D_a^2 + 2E < D_j^2, hence
    F_a < F_j for every j != a: the skipped row's label is the formula's
    strict argmin, and no tie is left for the lowest index to break.
    Recomputed rows go through pairwise_sq_dists as a gathered subset, and
    BLAS picks its kernel by matrix shape (one row goes through gemv), so
    their F may differ in the last bits from the full assignment's, though
    both are within E of the truth. Where a recomputed row's two nearest F
    lie within tol > 4E, the iteration therefore takes the full assignment,
    as does the first iteration and one that re-seeds an empty cluster,
    whose rule reads every row's F.
    """
    n, d = X.shape
    v = centroids.shape[0]
    x_norms = row_sq_norms(X)
    r2 = x_norms + max(float(x_norms.max()), float(row_sq_norms(centroids).max()))
    eps = np.finfo(np.float64).eps
    history: list[float] = []
    labels = lower = None
    for it in range(max_iter):
        c_norms = row_sq_norms(centroids)
        tol = (8 * d + 32 + 2 * it) * eps * r2
        prev, best, computed = labels, None, 0
        full = prev is None
        if not full:
            own = row_sq_norms(X - centroids[prev])
            # a quarter of each centroid's squared distance to its nearest other one
            half = 0.25 * _assign(centroids, centroids, c_norms)[2]
            redo = np.flatnonzero(own + tol >= np.maximum(half[prev], lower * lower))
            new, nearest, second = _assign(X, centroids, c_norms, redo)
            computed = redo.size
            full = bool(np.any(second - nearest <= tol[redo]))
            if not full:
                labels = prev.copy()
                labels[redo] = new
                lower[redo] = np.sqrt(second)
                moved = redo[new != prev[redo]]
                own[moved] = row_sq_norms(X[moved] - centroids[labels[moved]])
        if full:
            labels, best, second = _assign(X, centroids, c_norms)
            lower = np.sqrt(second)
            own = row_sq_norms(X - centroids[labels])
            computed += n
        history.append(float(own.sum()))
        done = prev is not None and np.array_equal(labels, prev)
        if not done:
            # each cell of X goes to the bin (its row's label, its column), summed in row order
            bins = (labels[:, None] * d + np.arange(d)).ravel()
            sums = np.bincount(bins, weights=X.ravel(), minlength=v * d).reshape(v, d)
            counts = np.bincount(labels, minlength=v).astype(np.float64)
            empty = np.flatnonzero(counts == 0)
            nonempty = counts > 0
            updated = centroids.copy()
            updated[nonempty] = sums[nonempty] / counts[nonempty, None]
            if empty.size:
                if best is None:
                    _, best, second = _assign(X, centroids, c_norms)
                    lower = np.sqrt(second)
                    computed += n
                # hand each empty cluster the point currently worst-served
                for c in empty:
                    far = int(np.argmax(best))
                    updated[c] = X[far]
                    best[far] = -np.inf
            shift = np.sqrt(row_sq_norms(updated - centroids))
            top = int(np.argmax(shift))
            rest = np.max(shift, initial=0.0, where=np.arange(v) != top)
            lower = np.maximum(lower - np.where(labels == top, rest, shift[top]), 0.0)
            centroids = updated
        if on_iteration is not None:
            on_iteration(labels, computed)
        if done:
            break
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
    distance_rows: list[int] = []
    centroids, history = _lloyd(
        data.X, data.X[idx], max_iter, lambda _, rows: distance_rows.append(rows)
    )
    diagnostics = {"lloyd_iterations": len(history), "inertia": history[-1], "distance_rows": distance_rows}
    return LandmarkSet(centroids, diagnostics)


def _landmark_kernel(landmarks: LandmarkSet, kernel: GaussianKernelParams) -> np.ndarray:
    """The landmark kernel matrix W, symmetric to the bit, in chunks of rows.
    Each chunk averages its part left of the diagonal with the transposed
    part above it, which the earlier chunks wrote and nothing has touched since."""
    C = landmarks.centroids
    c_norms = row_sq_norms(C)
    W = np.empty((C.shape[0], C.shape[0]))
    for rows in _row_chunks(C.shape[0], C.shape[0]):
        W[rows] = kernel_matrix(C[rows], C, kernel, c_norms)
        left = W[rows, : rows.stop] + W[: rows.stop, rows].T
        left *= 0.5
        W[rows, : rows.stop] = left
        W[: rows.stop, rows] = left.T
    return W


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """Overwrite the lower-triangular L with its inverse and return it: the
    inverses of its two diagonal halves, in place, joined by two products,
    with np.linalg.inv only at the base. At v = 1600 this took 0.085 CPU-s
    against 0.36 for np.linalg.inv(L), which does not know L is triangular
    (one x86-64 vCPU, BLAS at one thread)."""
    n = L.shape[0]
    if n <= _INV_BASE:
        L[...] = np.linalg.inv(L)
        return L
    h = n // 2
    top, bottom = _tril_inv(L[:h, :h]), _tril_inv(L[h:, h:])
    L[h:, :h] = -(bottom @ L[h:, :h]) @ top
    return L


def _certified_inverse(W: np.ndarray) -> np.ndarray | None:
    """L^-1 for the Cholesky factor L of W when ||L^-1||_F^2 * trace(W) *
    _COND_DROP < 1, else None. ||L^-1||_F^2 = trace(W^-1) is at least
    1 / lambda_min and trace(W) at least lambda_max, so the bound certifies a
    condition number below 1 / _COND_DROP. A failed factorization or a
    non-finite inverse (whose square sum is not finite) is None too. A W
    that the caller passed without keeping is freed before the inversion,
    which then holds one v x v array, L, overwritten by its inverse."""
    trace = float(np.trace(W))
    try:
        L = np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        return None
    del W
    P = _tril_inv(L)
    return P if float(np.vdot(P, P)) * trace * _COND_DROP < 1 else None


def _pivots(W: np.ndarray) -> tuple[list[int], list[float]]:
    """Diagonally pivoted Cholesky of W, which it overwrites (Harbrecht,
    Peters & Schneider, Appl. Numer. Math. 2012): the pivots in the order
    taken, and the residual trace after each prefix of them, from trace(W).

    Each step takes the largest residual diagonal entry s. It stops before a
    pivot that leaves none, or that brings sum(1 / s) * trace(W[S, S]) to
    half of 1 / _COND_DROP: the sum is the diagonal part of trace(W[S, S]^-1)
    that _certified_inverse bounds. W is updated once per _PIVOT_BLOCK
    pivots; at v = 1700 this took 0.33 CPU-s, against 0.81 with every
    earlier pivot row subtracted from each (one x86-64 vCPU, BLAS at one thread).
    """
    v = W.shape[0]
    diag = W.diagonal().copy()
    d = diag.copy()
    order: list[int] = []
    mass = [float(d.sum())]
    inv_sum = trace = 0.0
    while len(order) < v:
        G = np.empty((min(_PIVOT_BLOCK, v - len(order)), v))
        for j in range(G.shape[0]):
            p = int(np.argmax(d))
            s = float(d[p])
            if not (s > 0 and (inv_sum + 1 / s) * (trace + diag[p]) * _COND_DROP < 0.5):
                return order, mass
            G[j] = (W[p] - G[:j, p] @ G[:j]) / np.sqrt(s)
            d -= G[j] * G[j]
            d[p] = 0.0
            order.append(p)
            mass.append(float(np.maximum(d, 0.0).sum()))
            inv_sum += 1 / s
            trace += diag[p]
        W -= G.T @ G
    return order, mass


def fit_nystroem(landmarks: LandmarkSet, kernel: GaussianKernelParams, seed: int | None = None) -> NystroemMap:
    """The Nystroem map of the landmarks when the Cholesky whitening of their
    kernel matrix W is certified; otherwise of the first k pivots of W, in
    k-means order, for the largest certified k. k = 1 is certified unless W
    is not finite. So a pruned map is just a smaller landmark set; its
    dropped_mass is the residual trace, the part of trace(W) it leaves out."""
    v = landmarks.v
    P = _certified_inverse(_landmark_kernel(landmarks, kernel))
    dropped_mass = 0.0
    if P is None:
        # W again: the whitening freed it, and on the common, certified route nothing else reads it
        order, mass = _pivots(_landmark_kernel(landmarks, kernel))
        for k in range(len(order), 0, -1):
            kept = LandmarkSet(landmarks.centroids[np.sort(order[:k])], landmarks.diagnostics)
            P = _certified_inverse(_landmark_kernel(kept, kernel))
            if P is not None:
                break
        else:
            raise NumericalError("the landmark kernel matrix is not finite")
        landmarks, dropped_mass = kept, mass[k]
    diagnostics = {"retained_rank": landmarks.v, "pruned_landmarks": v - landmarks.v, "dropped_mass": dropped_mass}
    m = NystroemMap(landmarks, kernel, seed=seed, diagnostics=diagnostics)
    m.projection = P  # fills the cache that a loaded map computes on first access
    return m


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
    try:
        freqs = rng.normal(0.0, 1.0 / np.sqrt(kernel.sigma2), size=(D, d))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=D)
    except (ValueError, MemoryError):
        raise ConfigError(f"cannot allocate {D} random features of dimension {d}") from None
    return RffMap(freqs, phases, kernel, seed=seed)


def embed(m: NystroemMap | RffMap, data: Dataset) -> Dataset:
    """The n x rank embedded rows of a whole dataset, with its labels."""
    if m.dim != data.dim:
        raise DataError(f"embedding expects dimension {m.dim}, data has {data.dim}")
    return Dataset(m.features(data.X), data.y)


def embed_point(m: NystroemMap | RffMap, x: SparseVector | np.ndarray) -> np.ndarray:
    """Embed one point (SparseVector or 1-D dense vector)."""
    return m.features(dense_point(x, m.dim).reshape(1, -1)).ravel()
