"""End-to-end walkthrough on a 2-D dataset a linear scorer cannot separate.

Positives sit on an inner ring, negatives on an outer ring, three negatives
per positive. A linear model on the raw coordinates is stuck near AUC 0.5;
the same solver on a small clustered kernel embedding is nearly perfect.
"""

import numpy as np

from aucmax import (
    BatchConfig,
    auc,
    bandwidth_heuristic,
    embed,
    fit_nystroem,
    kmeans,
    split,
    standardize_apply,
    standardize_fit,
    train_batch,
)
from aucmax.synthetic import make_rings

# 1. data: 2000 points, 3:1 negative-to-positive
data = make_rings(n=2000, seed=0, imbalance=3.0, noise=0.3)
print(f"{data.n} points, {np.count_nonzero(data.y == 1)} positive / {np.count_nonzero(data.y == -1)} negative")

train, test = split(data, 0.2, seed=0)
scaler = standardize_fit(train)
train_std = standardize_apply(scaler, train)
test_std = standardize_apply(scaler, test)

# 2. baseline: Newton solver straight on the 2 raw coordinates
raw = train_batch(train_std, BatchConfig(C=1.0))
raw_auc = auc(test_std.X @ raw.w, test_std.y).auc
print(f"raw 2-D features:   test AUC {raw_auc:.4f}")

# 3. cluster 64 landmarks, whiten their kernel matrix, re-express every point
landmarks = kmeans(train_std, v=64, seed=0)
kernel = bandwidth_heuristic(train_std)
print(f"bandwidth heuristic: sigma^2 = {kernel.sigma2:.3f}")

mapping = fit_nystroem(landmarks, kernel, seed=0)
train_emb = embed(mapping, train_std)
test_emb = embed(mapping, test_std)
print(f"embedding rank {mapping.rank} from {landmarks.v} landmarks")

# 4. same solver, embedded features
model = train_batch(train_emb, BatchConfig(C=1.0))
emb_auc = auc(test_emb.X @ model.w, test_emb.y).auc
print(f"64-landmark embedding: test AUC {emb_auc:.4f}")
print(f"Newton iterations: {model.diagnostics['outer_iterations']}, "
      f"converged: {model.diagnostics['converged']}")

# the gap is the whole story: the rings are radially separable, and the
# kernel features expose the radius that the raw coordinates hide
assert emb_auc > raw_auc + 0.2
print("done")
