"""Exact AUC computation.

AUC is the probability that a uniformly random positive instance outscores
a uniformly random negative one. Counts are accumulated as exact integers
and divided once, so results are bit-identical across platforms and agree
exactly with literal pair enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class AucResult:
    auc: float
    wins: int
    ties: int
    losses: int
    tie_policy: str

    @property
    def pairs(self) -> int:
        return self.wins + self.ties + self.losses


def _check_inputs(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("scores and labels must be 1-D arrays of equal length")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores must be finite")
    if not np.all((labels == 1) | (labels == -1)):
        raise DataError("labels must be +-1")
    if not (labels == 1).any() or not (labels == -1).any():
        raise DataError("AUC needs at least one instance of each class")
    return scores, labels


def _result_from_counts(wins: int, ties: int, losses: int, tie_policy: str) -> AucResult:
    if tie_policy not in ("half", "strict"):
        raise ConfigError(f"tie policy must be 'half' or 'strict', got {tie_policy!r}")
    pairs = wins + ties + losses
    if tie_policy == "half":
        value = (wins + 0.5 * ties) / pairs
    else:
        value = wins / pairs
    return AucResult(value, wins, ties, losses, tie_policy)


def auc(scores, labels, tie_policy: str = "half") -> AucResult:
    """Rank-statistic AUC via one sort, O(n log n), exact integer counts."""
    scores, labels = _check_inputs(scores, labels)
    values, inverse = np.unique(scores, return_inverse=True)
    pos_at = np.bincount(inverse[labels == 1], minlength=values.size)
    neg_at = np.bincount(inverse[labels == -1], minlength=values.size)
    neg_below = np.concatenate(([0], np.cumsum(neg_at)[:-1]))
    wins = int(pos_at @ neg_below)
    ties = int(pos_at @ neg_at)
    losses = int(pos_at.sum()) * int(neg_at.sum()) - wins - ties
    return _result_from_counts(wins, ties, losses, tie_policy)
