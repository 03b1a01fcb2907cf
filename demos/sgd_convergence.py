"""How fast the stochastic solver closes in on the batch optimum.

Trains the scheduled stochastic solver once and prints, at increasing
epoch counts, the test AUC of its averaged and of its last iterate next to
the batch solver's number. Averaging buys a smoother, earlier plateau.
"""

import numpy as np

from aucmax import (
    BatchConfig,
    SgdConfig,
    auc,
    bandwidth_heuristic,
    embed,
    fit_nystroem,
    kmeans,
    split,
    standardize_apply,
    standardize_fit,
    train_batch,
    train_sgd,
)
from aucmax.synthetic import make_rings

data = make_rings(n=2000, seed=0, imbalance=3.0, noise=0.3)
train, test = split(data, 0.2, seed=0)
scaler = standardize_fit(train)
train_std = standardize_apply(scaler, train)
test_std = standardize_apply(scaler, test)

mapping = fit_nystroem(kmeans(train_std, v=64, seed=0),
                       bandwidth_heuristic(train_std), seed=0)
train_emb = embed(mapping, train_std)
test_emb = embed(mapping, test_std)

batch_auc = auc(test_emb.X @ train_batch(train_emb, BatchConfig(C=1.0)).w,
                test_emb.y).auc
print(f"batch solver test AUC: {batch_auc:.4f}")

# lambda paired to C = 1 through the pair count
pos_idx, neg_idx = train_emb.class_indices()
lam = 1.0 / (pos_idx.size * neg_idx.size)
checkpoints = [1, 2, 5, 10, 20, 50]

# one run keeps both iterates: the average it returns and the last one
curves = {"averaged": {}, "last iterate": {}}


def record(epoch, w, last, elapsed):
    if epoch in checkpoints:
        curves["averaged"][epoch] = auc(test_emb.X @ w, test_emb.y).auc
        curves["last iterate"][epoch] = auc(test_emb.X @ last, test_emb.y).auc


train_sgd(train_emb, SgdConfig(lam=lam, epochs=checkpoints[-1], seed=0), epoch_callback=record)

print(f"\n{'epochs':>8} {'averaged':>10} {'last iterate':>13}")
for epoch in checkpoints:
    print(f"{epoch:>8} {curves['averaged'][epoch]:>10.4f} "
          f"{curves['last iterate'][epoch]:>13.4f}")

gap = abs(curves["averaged"][checkpoints[-1]] - batch_auc)
print(f"\naveraged solver vs batch at {checkpoints[-1]} epochs: gap {gap:.4f}")
