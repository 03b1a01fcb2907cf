"""Finite-dimensional feature construction.

k-means landmarks, the Nystroem map whitened by the inverse Cholesky factor
of its landmark kernel matrix (on a rank-deficient matrix, of the
landmarks that a diagonally pivoted Cholesky keeps), and a
random-Fourier-feature map as the baseline embedding. embed returns a plain
Dataset of dense n x rank rows. Both maps embed and score rows in chunks by
dataio's chunk rule, through one route, _chunked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataio import Dataset, SparseVector, _row_chunks, dense_point
from .errors import ConfigError, DataError, NumericalError
from .kernels import FAR_SQ_NORM, GaussianKernelParams, kernel_matrix, pairwise_sq_dists, row_sq_norms

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
        # pairwise_sq_dists takes its B rows, the landmarks, below FAR_SQ_NORM
        if not np.all(row_sq_norms(self.centroids) < FAR_SQ_NORM):
            raise DataError("landmarks must be finite, with squared norms below 2**1021")

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
    def _route(self) -> tuple:
        """_chunked's route: kernel_matrix and its arguments after the rows."""
        return kernel_matrix, self.landmarks.centroids, self.kernel, row_sq_norms(self.landmarks.centroids)

    def features(self, X: np.ndarray) -> np.ndarray:
        """The n x rank embedding of X's rows, in chunks of rows; of one 1-D row, its rank-vector."""
        return _chunked(X, self.projection.T, self._route)

    def fold(self, w: np.ndarray) -> np.ndarray:
        """The weights over the kernel values that make score equal features(X) @ w:
        beta = projection.T @ w, one per landmark."""
        return self.projection.T @ w

    def unfold(self, beta: np.ndarray) -> np.ndarray:
        """The w that fold maps to beta = projection.T @ w: L^T @ beta, since
        projection is L^-1 (whose access certifies W), with L factored again from W."""
        self.projection  # a DataError unless W is certified
        return np.linalg.cholesky(_landmark_kernel(self.landmarks, self.kernel)).T @ beta

    def score(self, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """kappa(x, U) @ beta for each row x of X, beta from fold: O(v d) per row,
        with no rank x v product. One 1-D row x gives a scalar with the bits of
        the one-row X."""
        return _chunked(X, beta, self._route)


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
        if not (np.all(np.isfinite(self.frequencies)) and np.all(np.isfinite(self.phases))):
            raise DataError("frequencies and phases must be finite")
        self._route = (self._cosines, self.frequencies, self.phases, self.scale)  # _chunked's route

    @property
    def rank(self) -> int:
        return self.frequencies.shape[0]

    @property
    def dim(self) -> int:
        return self.frequencies.shape[1]

    @property
    def scale(self) -> float:
        return float(np.sqrt(2.0 / self.frequencies.shape[0]))

    # score multiplies features, which lie within +-scale, into the weights
    value_bound = scale

    @staticmethod
    def _cosines(X: np.ndarray, frequencies: np.ndarray, phases: np.ndarray, scale: float) -> np.ndarray:
        return scale * np.cos(X @ frequencies.T + phases)

    def features(self, X: np.ndarray) -> np.ndarray:
        """The n x rank embedding of X's rows, in chunks of rows; of one 1-D row, its rank-vector."""
        return _chunked(X, None, self._route)

    def fold(self, w: np.ndarray) -> np.ndarray:
        """The features are explicit, so the weights need no folding."""
        return w

    unfold = fold

    def score(self, X: np.ndarray, w: np.ndarray) -> np.ndarray:
        """features(X) @ w, in chunks of rows, with no n x rank array; a scalar for one 1-D row."""
        return _chunked(X, w, self._route)


def _chunked(X: np.ndarray, M: np.ndarray | None, route: tuple) -> np.ndarray:
    """block(X, U, b, c) @ M, or without M when None, in chunks of X's rows, for a map's route
    (block, U, b, c), whose block gives one value per row of U; one 1-D row takes no chunks.
    Unpacked, not starred: a starred call added 0.3 us to a 7 us score (Python 3.11)."""
    block, U, b, c = route
    if X.ndim == 1:
        return block(X, U, b, c) if M is None else block(X, U, b, c) @ M
    out = np.empty((X.shape[0], *(U.shape[:1] if M is None else M.shape[1:])))
    for rows in _row_chunks(X.shape[0], U.shape[0]):
        out[rows] = block(X[rows], U, b, c) if M is None else block(X[rows], U, b, c) @ M
    return out


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
    chosen = np.empty(v, dtype=np.int64)
    chosen[0] = rng.integers(n)
    picked = np.zeros(n, dtype=bool)
    picked[chosen[0]] = True
    d2 = pairwise_sq_dists(X[chosen[0]], X, x_norms)
    d2[chosen[0]] = 0.0
    for k in range(1, v):
        with np.errstate(over="ignore"):
            cum = np.cumsum(d2)
        if not np.isfinite(cum[-1]):
            # the draw below would land past the last row
            raise DataError("the rows are too far apart to seed k-means: their squared distances overflow float64")
        if cum[-1] <= 0.0:
            # remaining mass is zero (duplicate points): fall back to uniform
            pool = np.flatnonzero(~picked)
            idx = int(pool[rng.integers(pool.size)])
        else:
            # r < cum[-1], so the first cum > r ends a positive, unpicked d2
            idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        chosen[k] = idx
        picked[idx] = True
        np.minimum(d2, pairwise_sq_dists(X[idx], X, x_norms), out=d2)
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
    the squared gap from its centroid to the nearest other one. The gaps
    cost a v x v distance product, as much as v distance rows, so they are
    taken only while the last ones spared more than v rows that lower alone
    would not have: on 57-D rows they spare few. on_iteration, when given,
    gets each iteration's labels and the number of rows whose distances to
    every centroid it computed.

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
      no more; an iteration without them tests lower alone, which keeps
      every label the test with them keeps, and whose rows spared are a
      subset of its.
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
    gaps = True
    for it in range(max_iter):
        c_norms = row_sq_norms(centroids)
        tol = (8 * d + 32 + 2 * it) * eps * r2
        prev, best, computed = labels, None, 0
        full = prev is None
        if not full:
            own = row_sq_norms(X - centroids[prev])
            redo_lower = own + tol >= lower * lower
            if gaps:
                # a quarter of each centroid's squared distance to its nearest other one
                half = 0.25 * _assign(centroids, centroids, c_norms)[2]
                redo_gap = own + tol >= half[prev]
                gaps = np.count_nonzero(redo_lower & ~redo_gap) > v
                redo_lower &= redo_gap
            redo = np.flatnonzero(redo_lower)
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
    """Embed one point (SparseVector or 1-D dense vector). Nothing in the
    package calls it and it is not exported; it is kept because
    benchmarks/tracecli.py wraps it by name."""
    return m.features(dense_point(x, m.dim))
