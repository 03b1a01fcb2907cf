"""Trained-model containers and the text model-file format.

A model file is self-describing: it holds the standardizer, the embedding
map, and the linear weights folded into the embedding, so prediction needs
nothing but the file. A Nystroem map is stored as its landmarks, sigma2 and
rank r = v (a file with another r, from an earlier version, is refused);
scoring the folded weights reads nothing else. Floats are written
with 17 significant digits, which round-trips binary64 exactly, making
saved models bit-reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .dataio import (
    Dataset,
    SparseVector,
    Standardizer,
    dense_point,
    format_float,
    format_floats,
    open_text,
    standardize_apply,
)
from .embedding import LandmarkSet, NystroemMap, RffMap
from .errors import DataError, ParseError
from .kernels import GaussianKernelParams

_MAGIC = "aucmax-model 2"


def _weights(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise DataError("weights must be a vector")
    if not np.all(np.isfinite(w)):
        raise DataError("weights must be finite")
    return w


class LinearModel:
    """Weight vector over the embedded space plus training provenance.

    w may also be given as a function that returns it, called on first
    access: a loaded model unfolds w from its folded weights only when
    something reads it, which scoring never does.
    """

    def __init__(
        self, w, trained_by: str, hyperparameters: dict, embedding_id: str = "", diagnostics: dict | None = None
    ):
        self._w = w if callable(w) else _weights(w)
        if trained_by not in ("batch", "sgd"):
            raise DataError(f"unknown solver tag {trained_by!r}")
        self.trained_by = trained_by
        self.hyperparameters = hyperparameters
        self.embedding_id = embedding_id
        self.diagnostics = diagnostics

    @property
    def w(self) -> np.ndarray:
        if callable(self._w):
            self._w = _weights(self._w())
        return self._w


def embedding_digest(m: NystroemMap | RffMap) -> str:
    """Stable identifier binding weights to the exact embedding arrays."""
    h = hashlib.sha256()
    if isinstance(m, NystroemMap):
        h.update(b"nystroem")
        h.update(np.ascontiguousarray(m.landmarks.centroids).tobytes())
        h.update(f"rank {m.rank}".encode())
    else:
        h.update(b"rff")
        h.update(np.ascontiguousarray(m.frequencies).tobytes())
        h.update(np.ascontiguousarray(m.phases).tobytes())
    h.update(repr(float(m.kernel.sigma2)).encode())
    return h.hexdigest()


@dataclass
class TrainedPipeline:
    """standardize -> embed -> dot product, the full scoring path.

    Scoring goes through the weights folded once into the embedding
    (``embedding.fold``): a Nystroem score is kappa(x, U) @ (projection.T @ w),
    which equals embed(x) @ w up to rounding in the last bits. A loaded
    pipeline is given folded, as its file stores it, and never folds.
    score_point standardizes its own dense copy of the point in place and
    hands the 1-D row to the embedding's score, which skips the chunking of
    many rows: its score has the bits of score() of the one-row Dataset.
    """

    standardizer: Standardizer
    embedding: NystroemMap | RffMap
    linear: LinearModel
    meta: dict = field(default_factory=dict)
    folded: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.embedding.dim != self.standardizer.dim:
            raise DataError(
                f"embedding expects dimension {self.embedding.dim}, standardizer has "
                f"{self.standardizer.dim}"
            )
        if self.linear.embedding_id and self.linear.embedding_id != embedding_digest(self.embedding):
            raise DataError("embedding_id does not match the embedding: the weights belong to another one")
        width = self.embedding.rank
        if self.folded is None:
            if self.linear.w.size != width:
                raise DataError(f"weight length {self.linear.w.size} does not match embedding rank {width}")
            with np.errstate(over="ignore", invalid="ignore"):
                self.folded = self.embedding.fold(self.linear.w)
        else:
            self.folded = _weights(self.folded)
            if self.folded.size != width:
                raise DataError(f"{self.folded.size} folded weights, but the embedding takes {width}")
        with np.errstate(over="ignore", invalid="ignore"):
            reach = float(np.abs(self.folded).sum()) * self.embedding.value_bound
        # |score| <= reach, so a finite reach keeps every score finite
        if not np.isfinite(reach):
            raise DataError("weights are too large: folded into the embedding, scores would overflow")

    @property
    def dim(self) -> int:
        return self.standardizer.dim

    def score(self, data: Dataset) -> np.ndarray:
        standardized = standardize_apply(self.standardizer, data)
        return self.embedding.score(standardized.X, self.folded)

    def score_point(self, x: SparseVector | np.ndarray) -> float:
        z = dense_point(x, self.dim)
        z -= self.standardizer.mean
        z /= self.standardizer.stdev
        return float(self.embedding.score(z, self.folded))


def _positive(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"must be finite and positive, got {text!r}")
    return value


def _nonempty(text: str) -> str:
    if not text:
        raise ValueError("empty value")
    return text


# the hyperparameters either solver records, with their types
_HYPERPARAMETERS = {
    "askip": int,
    "c": float,
    "cg_max": int,
    "cg_tol": float,
    "epochs": int,
    "grad_tol": float,
    "lambda": float,
    "max_outer": int,
    "rskip": int,
    "seed": int,
    "t0": int,
}

# Each section's typed scalar keys and its matrices with their shapes, in the
# order the file holds them. A shape names the section's declared sizes, which
# the reader compares with each matrix header. Scalars not typed here (meta
# entries, hyperparameters unknown to this version) stay text; an unseeded
# embedding has no seed line.
_SCHEMA = {
    "meta": ({}, {}),
    "standardizer": ({"dim": int}, {"mean": (1, "dim"), "stdev": (1, "dim")}),
    "nystroem": (
        {"v": int, "r": int, "d": int, "sigma2": _positive, "seed": int},
        {"centroids": ("v", "d")},
    ),
    "rff": (
        {"D": int, "d": int, "sigma2": _positive, "seed": int},
        {"frequencies": ("D", "d"), "phases": (1, "D")},
    ),
    # the folded weights: one per landmark, or one per random feature
    "linear": (
        {"trained_by": str, **_HYPERPARAMETERS, "embedding_id": _nonempty},
        {"weights": (1, "folded")},
    ),
}


def _write_matrix(fh, name: str, M: np.ndarray):
    M = np.atleast_2d(M)
    fh.write(f"{name} {M.shape[0]} {M.shape[1]}\n")
    # one row at a time: formatting the whole matrix at once would box every value
    for row in M:
        fh.write(format_floats(row) + "\n")


def save_model(path: str, pipe: TrainedPipeline):
    std, emb, lin = pipe.standardizer, pipe.embedding, pipe.linear
    if isinstance(emb, NystroemMap):
        kind, emb_values = "nystroem", {
            "v": emb.landmarks.v,
            "r": emb.rank,
            "d": emb.landmarks.dim,
            "sigma2": float(emb.kernel.sigma2),
            "seed": emb.seed,
            "centroids": emb.landmarks.centroids,
        }
    else:
        kind, emb_values = "rff", {
            "D": emb.rank,
            "d": emb.frequencies.shape[1],
            "sigma2": float(emb.kernel.sigma2),
            "seed": emb.seed,
            "frequencies": emb.frequencies,
            "phases": emb.phases,
        }
    sections = {
        "meta": {k: str(v) for k, v in sorted(pipe.meta.items())},
        "standardizer": {"dim": std.dim, "mean": std.mean, "stdev": std.stdev},
        kind: emb_values,
        "linear": {
            "trained_by": lin.trained_by,
            **dict(sorted(lin.hyperparameters.items())),
            "embedding_id": embedding_digest(emb),
            "weights": pipe.folded,
        },
    }

    with open(path, "w") as fh:
        fh.write(_MAGIC + "\n")
        for section, values in sections.items():
            fh.write(f"[{section}]\n")
            matrices = _SCHEMA[section][1]
            for key, value in values.items():
                if key not in matrices and value is not None:
                    fh.write(f"{key} {format_float(value) if isinstance(value, float) else value}\n")
            for matrix in matrices:
                _write_matrix(fh, matrix, values[matrix])


class _Section(dict):
    """A section's values by key, and in lines the file line of each scalar;
    a missing key is a ParseError."""

    def __init__(self, name: str, line: int):
        super().__init__()
        self.name = name
        self.line = line
        self.lines: dict[str, int] = {}

    def __missing__(self, key):
        raise ParseError(f"section [{self.name}] has no {key!r} line", self.line)

    def pop(self, key):
        return super().pop(key) if key in self else self.__missing__(key)


def _parse(kind, key: str, text: str, line: int):
    """The one value parser: a bad value is a ParseError at its line."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ParseError(f"bad value for {key!r}: {exc}", line) from None


def _parse_block(lines: list[str], shape: tuple[int, int]) -> np.ndarray | None:
    """The matrix in one numpy call, or None where the lines do not parse to it.

    np.loadtxt accepts a subset of what float() accepts and gives the same
    bits, so a block it parses reads as the row-by-row loop would read it.
    """
    if not lines:
        return None
    try:
        M = np.loadtxt(lines, ndmin=2, comments=None)
    except ValueError:
        return None
    return M if M.shape == shape else None


class _Reader:
    """The non-blank lines of a model file; errors name each line's number in the file."""

    def __init__(self, fh):
        numbered = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, start=1) if ln.strip()]
        self.lines = [ln for _, ln in numbered]
        self.numbers = [no for no, _ in numbered]
        self.pos = 0

    @property
    def lineno(self) -> int:
        """The file line number of the last line read; 0 before the first."""
        return self.numbers[self.pos - 1] if self.pos else 0

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self) -> str:
        line = self.peek()
        if line is None:
            raise ParseError("unexpected end of model file", self.lineno)
        self.pos += 1
        return line

    def read_matrix(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        head = self.next().split()
        if len(head) != 3 or head[0] != name:
            raise ParseError(f"expected matrix header {name!r}", self.lineno)
        try:
            rows, cols = int(head[1]), int(head[2])
            if (rows, cols) != shape:
                raise ParseError(
                    f"matrix {name!r} is {rows} x {cols}, the file declares "
                    f"{shape[0]} x {shape[1]}",
                    self.lineno,
                )
            M = _parse_block(self.lines[self.pos : self.pos + rows], shape)
            if M is not None:
                self.pos += rows
                return M
            # a bad cell, a short row or a missing line: find it row by row, keeping only rows the file has
            found = []
            for _ in range(rows):
                vals = self.next().split()
                if len(vals) != cols:
                    raise ParseError(f"matrix {name!r} row has {len(vals)} values, expected {cols}", self.lineno)
                found.append([float(v) for v in vals])
            return np.array(found) if found else np.empty(shape)
        except ValueError as exc:
            raise ParseError(f"matrix {name!r}: {exc}", self.lineno) from None

    def read_section(self, name: str, **sizes: int) -> _Section:
        """The section's scalars, typed by the schema, then its matrices;
        sizes gives the sizes that an earlier section declares."""
        line = self.next()
        if line != f"[{name}]":
            raise ParseError(f"expected section [{name}], got {line!r}", self.lineno)
        types, matrices = _SCHEMA[name]
        out = _Section(name, self.lineno)
        while True:
            line = self.peek()
            if line is None or line.startswith("["):
                break
            key, *text = line.split(None, 1)
            if key in matrices:
                break
            self.next()
            out[key] = _parse(types.get(key, str), key, "".join(text), self.lineno)
            out.lines[key] = self.lineno
        for matrix, shape in matrices.items():
            shape = tuple(sizes.get(size, size) for size in shape)
            declared = tuple(out[size] if isinstance(size, str) else size for size in shape)
            out[matrix] = self.read_matrix(matrix, declared)
        return out


def load_model(path: str) -> TrainedPipeline:
    with open_text(path) as fh:
        rd = _Reader(fh)
        magic = rd.next()
        if magic == "aucmax-model 1":
            raise ParseError("model format 1 is no longer read: train the model again", rd.lineno)
        if magic != _MAGIC:
            raise ParseError("not a model file (bad magic line)", rd.lineno)

        meta = rd.read_section("meta")

        std = rd.read_section("standardizer")
        standardizer = Standardizer(std["mean"].ravel(), std["stdev"].ravel())

        if rd.peek() == "[rff]":
            emb = rd.read_section("rff")
            embedding = RffMap(
                emb["frequencies"],
                emb["phases"].ravel(),
                GaussianKernelParams(emb["sigma2"]),
                seed=emb.get("seed"),
            )
        else:
            emb = rd.read_section("nystroem")
            if emb["r"] != emb["v"]:
                raise ParseError(f"rank {emb['r']} differs from the landmark count {emb['v']}: maps that keep fewer "
                                 "directions than landmarks are no longer read: train the model again", emb.lines["r"])
            embedding = NystroemMap(LandmarkSet(emb["centroids"]), GaussianKernelParams(emb["sigma2"]), emb.get("seed"))

        lin = rd.read_section("linear", folded=emb["v"] if "v" in emb else emb["D"])
        folded = lin.pop("weights").ravel()
        trained_by = lin.pop("trained_by")
        embedding_id = lin.pop("embedding_id")
        linear = LinearModel(lambda: embedding.unfold(folded), trained_by, dict(lin), embedding_id=embedding_id)
        return TrainedPipeline(standardizer, embedding, linear, meta=dict(meta), folded=folded)
