"""LibSVM-format parsing, +-1 labels, standardization, splits and row chunks.

A dataset is a dense float64 n x dim array plus an integer label vector:
the parser fills the array from the sparse text, so every consumer sees
dense rows, and the standardized and embedded rows keep that type. Feature
indices are 1-based in LibSVM text and 0-based everywhere in memory.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .errors import ConfigError, DataError, ParseError

# the largest 1-based feature index whose column numpy can address
_MAX_INDEX = int(np.iinfo(np.intp).max)

# Cap on the float64 cells of one chunk of a pass over rows (distances,
# kernel values, cosines, row swaps): 2**18 cells, 2 MB, one core's L2 cache
# on the x86-64 host measured. A pass holds two or three chunk-sized arrays,
# so a fit holds its live arrays plus a few MB. Over 2**18 to 2**20 cells
# (BLAS at one thread), 2**18 gave the fastest k-means on both benchmark
# inputs: 0.37 CPU-s on the 16 000 rings rows at v = 400 against 0.44 at
# 2**20 and 0.49 at 4e6 cells; the embedding of 3681 spam-shaped rows at
# v = 1600 took 0.43 against 0.39 at 2**20.
_CHUNK_CELLS = 2**18

# Chunks hold a multiple of this many rows. BLAS gemv, which computes a
# score's kappa(X, U) @ beta or cosines @ w, takes rows in groups of 4 and
# the rest by a loop that rounds differently, so a chunk boundary inside a
# group would change scores in the last bit. Aligned chunks give every score
# the bits of one gemv over all rows, whatever the budget.
_ROW_GROUP = 8


@dataclass
class SparseVector:
    """One sparse row: parallel (index, value) arrays, indices strictly increasing."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.indices.ndim != 1 or self.indices.shape != self.values.shape:
            raise DataError("indices and values must be 1-D arrays of equal length")
        if self.indices.size:
            if self.indices[0] < 0 or np.any(np.diff(self.indices) <= 0):
                raise DataError("feature indices must be non-negative and strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DataError("feature values must be finite")

    def to_dense(self, dim: int) -> np.ndarray:
        if self.indices.size and self.indices[-1] >= dim:
            raise DataError(f"feature index {int(self.indices[-1])} outside dimension {dim}")
        out = np.zeros(dim)
        out[self.indices] = self.values
        return out


@dataclass
class Dataset:
    """Labeled rows, raw, standardized or embedded: a dense finite float64 n x dim X and int labels y.

    Labels are kept as written; :func:`binary_labels` makes them +-1 for
    training. Values are treated as immutable after construction, with one
    exception: train_batch reorders the rows of X in place while it runs
    and restores them, bit for bit, before it returns or raises.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        try:
            self.X = np.asarray(self.X, dtype=np.float64)
        except (TypeError, ValueError):
            raise DataError(f"X must be a numeric array, got {type(self.X).__name__}") from None
        if self.X.ndim != 2:
            raise DataError(f"X must be 2-D, got shape {self.X.shape}")
        if not np.all(np.isfinite(self.X)):
            raise DataError("feature values must be finite")
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.shape[0] != self.y.shape[0]:
            raise DataError(
                f"row count {self.X.shape[0]} does not match label count {self.y.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.X[indices], self.y[indices])

    def class_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(pos_idx, neg_idx) for a solver; a DataError unless labels are +-1 with both classes present."""
        pos_idx, neg_idx = np.flatnonzero(self.y == 1), np.flatnonzero(self.y == -1)
        if pos_idx.size + neg_idx.size != self.n:
            raise DataError("training needs +-1 labels; binary_labels makes them")
        if pos_idx.size == 0 or neg_idx.size == 0:
            raise DataError("training requires at least one instance of each class")
        return pos_idx, neg_idx


@dataclass
class Standardizer:
    """Per-feature affine transform fitted on training data: (x - mean) / stdev."""

    mean: np.ndarray
    stdev: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.stdev = np.asarray(self.stdev, dtype=np.float64)
        if self.mean.shape != self.stdev.shape or self.mean.ndim != 1:
            raise DataError("mean and stdev must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.stdev))):
            raise DataError("mean and stdev entries must be finite")
        if np.any(self.stdev <= 0):
            raise DataError("stdev entries must be strictly positive")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def dense_point(x: SparseVector | np.ndarray, dim: int) -> np.ndarray:
    """One point, a SparseVector or a 1-D array, as a new dense vector of
    length dim, which the caller may overwrite. An array is checked as
    Dataset checks its rows: numeric, finite, and here 1-D of length dim."""
    if isinstance(x, SparseVector):
        return x.to_dense(dim)
    try:
        xv = np.array(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise DataError(f"a point must be numeric, got {type(x).__name__}") from None
    if xv.shape != (dim,):
        raise DataError(f"expected a point of dimension {dim}, got shape {xv.shape}")
    if not np.all(np.isfinite(xv)):
        raise DataError("feature values must be finite")
    return xv


def _row_chunks(n_rows: int, n_cols: int) -> list[slice]:
    """Slices covering range(n_rows), each of at most _CHUNK_CELLS / n_cols rows
    rounded down to a multiple of _ROW_GROUP, and of at least _ROW_GROUP. A
    last chunk of one row joins the chunk before it: numpy multiplies a lone
    row by gemv, which rounds differently from the gemm of the other rows."""
    step = max(1, _CHUNK_CELLS // max(n_cols, 1) // _ROW_GROUP) * _ROW_GROUP
    # no boundary at n_rows - 1, which would leave the last row alone
    bounds = [*range(step, n_rows - 1, step)]
    return [slice(lo, hi) for lo, hi in zip([0, *bounds], [*bounds, n_rows]) if hi > lo]


@contextmanager
def open_text(path: str):
    """The text file at path, open for reading, and the one place an input error names its file.

    A DataError raised while it is open, or undecodable bytes, gets "{path}: "
    in front of its message; a ParseError keeps its line. Blocks must not nest.
    """
    with open(path) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
        except DataError as exc:
            exc.args = (f"{path}: {exc}",)
            raise


def format_float(x: float) -> str:
    """17 significant digits, which round-trip binary64 exactly."""
    return format(float(x), ".17g")


def format_floats(values: np.ndarray) -> str:
    """format_float of each value, space-separated, made by one % format."""
    return " ".join(["%.17g"] * len(values)) % tuple(values.tolist())


def binary_labels(y, positive: Iterable[int] | None = None) -> np.ndarray:
    """The +-1 labels of y, the one split of a label set into P and N.

    With ``positive``, labels in that set become +1 and all others -1.
    Without it, {-1, +1} labels pass through and any other two-valued set
    maps its smaller value to -1. More than two values without ``positive``,
    or a result with only one class, is a DataError.
    """
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise DataError("dataset is empty")
    if positive is not None:
        out = np.where(np.isin(y, list(positive)), 1, -1)
    else:
        distinct = np.unique(y)
        if distinct.size > 2:
            raise DataError(
                f"labels take {distinct.size} values; name the positive ones to make two classes"
            )
        out = y if set(distinct.tolist()) <= {-1, 1} else np.where(y == distinct[0], -1, 1)
    n_pos = int(np.count_nonzero(out == 1))
    if n_pos in (0, y.size):
        if positive is not None:
            raise DataError(f"grouping produced no {'positive' if n_pos == 0 else 'negative'} instances")
        raise DataError(
            f"need at least one instance of each class (n_pos={n_pos}, n_neg={y.size - n_pos})"
        )
    return out.astype(np.int64)


def parse_libsvm(source: str | TextIO, dim: int | None = None) -> Dataset:
    """Parse LibSVM sparse text ("<label> <idx>:<val> ...", 1-based indices).

    Labels are kept as written. Blank lines are skipped. ``dim`` overrides
    the inferred feature count so that separately parsed train/test files
    share a feature space.

    Raises ParseError (with line number) on malformed tokens, non-increasing
    or unaddressable indices within a line, non-numeric values, or labels
    that are not integers or do not fit int64, and DataError when a feature
    index exceeds ``dim`` or the dense n x dim array cannot be allocated.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    labels: list[int] = []
    data: list[float] = []
    col: list[int] = []
    indptr: list[int] = [0]
    max_index = -1

    for lineno, line in enumerate(source, start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = int(tokens[0])
        except ValueError:
            # forms like 1.0 and 1e0; int first keeps labels above 2^53 exact
            try:
                raw = float(tokens[0])
            except ValueError:
                raise ParseError(f"label {tokens[0]!r} is not numeric", lineno) from None
            if not np.isfinite(raw) or raw != int(raw):
                raise ParseError(f"label {tokens[0]!r} is not an integer", lineno)
            label = int(raw)
        if not -(2**63) <= label < 2**63:
            raise ParseError(f"label {tokens[0]!r} does not fit a 64-bit integer", lineno)
        labels.append(label)

        prev = -1
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            if not val_s:
                raise ParseError(f"malformed feature token {tok!r}", lineno)
            try:
                idx = int(idx_s)
            except ValueError:
                raise ParseError(f"feature index {idx_s!r} is not an integer", lineno) from None
            if idx < 1:
                raise ParseError(f"feature index {idx} must be >= 1", lineno)
            if idx - 1 <= prev:
                raise ParseError(f"feature indices not strictly increasing at {tok!r}", lineno)
            try:
                val = float(val_s)
            except ValueError:
                raise ParseError(f"feature value {val_s!r} is not numeric", lineno) from None
            if not np.isfinite(val):
                raise ParseError(f"feature value {val_s!r} is not finite", lineno)
            prev = idx - 1
            col.append(prev)
            data.append(val)
        indptr.append(len(data))
        # indices increase along a line, so its last one is its largest
        if prev + 1 > _MAX_INDEX:
            raise ParseError(f"feature index {prev + 1} exceeds the largest addressable {_MAX_INDEX}", lineno)
        if prev > max_index:
            max_index = prev

    inferred = max_index + 1
    if dim is None:
        dim = inferred
    elif dim < inferred:
        raise DataError(f"feature index {inferred} exceeds dimension {dim}")

    n = len(labels)
    try:
        X = np.zeros((n, dim))
    except (ValueError, MemoryError):
        raise DataError(f"cannot allocate a dense {n} x {dim} float64 feature array") from None
    X[np.repeat(np.arange(n), np.diff(indptr)), col] = data
    return Dataset(X, labels)


def to_libsvm(data: Dataset) -> str:
    """Serialize back to LibSVM text (1-based indices, 17 significant digits).

    Each row's nonzeros are written, so parse_libsvm(to_libsvm(d)) reproduces
    d's values exactly; explicit ``i:0`` entries of a parsed file are not
    written back.
    """
    lines = []
    for label, x in zip(data.y, data.X):
        parts = [str(int(label))]
        parts.extend(f"{idx + 1}:{format_float(x[idx])}" for idx in np.flatnonzero(x))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def _column_moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population variance, two-pass for accuracy."""
    mean = (X * (1.0 / X.shape[0])).sum(axis=0)
    var = ((X - mean) ** 2).mean(axis=0)
    return mean, var


def standardize_fit(data: Dataset) -> Standardizer:
    """Fit zero-mean unit-variance statistics (population variance).

    Constant features get a stdev guard of 1 so they pass through centered.
    A feature whose mean square overflows float64 is a DataError that names it.
    """
    if data.n < 1:
        raise DataError("cannot fit a standardizer on an empty dataset")
    with np.errstate(over="ignore"):
        mean, var = _column_moments(data.X)
        rms_sq = var + mean**2
    # an overflowing var or mean**2 (a spread or offset past about 1e154) would pass the constant test
    huge = np.flatnonzero(np.isinf(rms_sq))
    if huge.size:
        raise DataError(f"feature {huge[0] + 1} is too large to standardize: its mean square overflows")
    # features whose variance sits at float noise level count as constant
    eps = np.finfo(np.float64).eps
    constant = var <= (eps**2) * np.maximum(rms_sq, 1.0)
    stdev = np.sqrt(np.where(constant, 1.0, var))
    return Standardizer(mean, stdev)


def standardize_apply(s: Standardizer, data: Dataset) -> Dataset:
    """Apply fitted statistics."""
    if s.dim != data.dim:
        raise DataError(f"standardizer expects dimension {s.dim}, data has {data.dim}")
    return Dataset((data.X - s.mean) / s.stdev, data.y)


def split(data: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint uniform-random train/test partition, deterministic per seed.

    Train size is round(n * (1 - test_fraction)) with half-up rounding.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ConfigError(f"test fraction must be in (0, 1), got {test_fraction}")
    if data.n < 2:
        raise DataError("need at least 2 instances to split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    n_train = int(np.floor(data.n * (1.0 - test_fraction) + 0.5))
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return data.subset(train_idx), data.subset(test_idx)
