"""Kernel approximation quality: clustered landmarks vs random features.

Both embeddings promise phi(x) . phi(y) ~ exp(-||x-y||^2 / (2 sigma^2)).
This script measures the worst-case entry error against the exact kernel
matrix as the budget grows. Landmarks win per dimension because they adapt
to where the data actually sits.
"""

import numpy as np

from aucmax import (
    bandwidth_heuristic,
    embed,
    fit_nystroem,
    fit_rff,
    kernel_matrix,
    kmeans,
)
from aucmax.dataio import Dataset

rng = np.random.default_rng(0)

# blobby data in 8 dimensions, 400 points
centers = rng.standard_normal((5, 8)) * 3.0
X = np.vstack([c + rng.standard_normal((80, 8)) for c in centers])
data = Dataset(X, np.where(rng.random(400) < 0.5, 1, -1))

kernel = bandwidth_heuristic(data)
exact = kernel_matrix(X, X, kernel)
print(f"sigma^2 = {kernel.sigma2:.3f}, exact kernel matrix {exact.shape}")

print(f"\n{'budget':>8} {'landmark error':>15} {'random error':>13}")
for budget in (16, 32, 64, 128, 256):
    nys = fit_nystroem(kmeans(data, v=budget, seed=1), kernel, seed=1)
    F = embed(nys, data).X
    nys_err = np.max(np.abs(F @ F.T - exact))

    rff = fit_rff(8, budget, kernel, seed=1)
    G = embed(rff, data).X
    rff_err = np.max(np.abs(G @ G.T - exact))

    print(f"{budget:>8} {nys_err:>15.2e} {rff_err:>13.2e}")

# sanity: with every point as its own landmark the embedding is exact
nys_full = fit_nystroem(kmeans(data, v=400, seed=1), kernel, seed=1)
F = embed(nys_full, data).X
print(f"\nv = n = 400 reconstruction error: {np.max(np.abs(F @ F.T - exact)):.2e}")
