"""Gaussian kernel evaluation and the mean-squared-distance bandwidth rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class GaussianKernelParams:
    """Bandwidth of kappa(x, y) = exp(-||x - y||^2 / (2 sigma2))."""

    sigma2: float

    def __post_init__(self):
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0:
            raise ConfigError(f"sigma2 must be finite and positive, got {self.sigma2}")


def row_sq_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray, b_sq_norms: np.ndarray | None = None) -> np.ndarray:
    """All-pairs ||a - b||^2 via ||a||^2 + ||b||^2 - 2<a,b>, clamped at 0.

    The one distance formula; both arguments are dense. ``b_sq_norms``, when
    given, is row_sq_norms(B), computed once by a caller that holds B fixed.
    """
    if A.shape[1] != B.shape[1]:
        raise DataError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    nb = row_sq_norms(B) if b_sq_norms is None else b_sq_norms
    # (||a||^2 + ||b||^2) + (-2 <a,b>), the bits of the out-of-place formula,
    # with two distance-sized arrays alive where that one held four
    G = A @ B.T
    G *= -2.0
    d2 = np.add.outer(row_sq_norms(A), nb)
    d2 += G
    np.maximum(d2, 0.0, out=d2)
    return d2


def gaussian_kernel(x, y, params: GaussianKernelParams) -> float:
    """kappa for a single pair of equal-length 1-D dense vectors."""
    xv, yv = (np.asarray(v, dtype=np.float64) for v in (x, y))
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise DataError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    diff = xv - yv
    return float(np.exp(-float(diff @ diff) / (2.0 * params.sigma2)))


def kernel_matrix(
    rows_a: np.ndarray, rows_b: np.ndarray, params: GaussianKernelParams, b_sq_norms: np.ndarray | None = None
) -> np.ndarray:
    """Dense Gaussian kernel matrix between the rows of rows_a and of rows_b.

    Both arguments are dense 2-D arrays of the same width. Symmetric with
    unit diagonal when both are the same rows.
    ``b_sq_norms`` is as in :func:`pairwise_sq_dists`.
    """
    K = pairwise_sq_dists(rows_a, rows_b, b_sq_norms)
    # in place: a chunk of rows holds one distance-sized array, not three
    K /= -2.0 * params.sigma2
    return np.exp(K, out=K)


def bandwidth_heuristic(data: Dataset) -> GaussianKernelParams:
    """sigma2 = mean squared distance of the rows to their mean.

    One O(n x dim) pass, the cost of fitting a standardizer. On standardized
    rows it equals, up to rounding, the number of non-constant features.
    """
    if data.n < 2:
        raise DataError("bandwidth heuristic needs at least 2 instances")
    d2 = pairwise_sq_dists(data.X, data.X.mean(axis=0, keepdims=True)).ravel()
    sigma2 = float(d2.mean())
    # identical rows produce only round-off here; treat that as zero spread
    scale = float(np.mean(row_sq_norms(data.X)))
    if sigma2 <= 16.0 * np.finfo(np.float64).eps * max(scale, 1.0):
        raise DataError("all instances coincide, so the bandwidth heuristic fails; pass sigma2 explicitly")
    return GaussianKernelParams(sigma2)
