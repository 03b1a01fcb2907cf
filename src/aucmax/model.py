"""Trained-model containers and the text model-file format.

A model file is self-describing: it holds the standardizer, the embedding
map, and the linear weights, so prediction needs nothing but the file.
Floats are written with 17 significant digits, which round-trips binary64
exactly, making saved models bit-reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset, SparseVector, Standardizer, standardize_apply
from .embedding import LandmarkSet, NystroemMap, RffMap, embed, embed_point
from .errors import DataError, ParseError
from .kernels import GaussianKernelParams

_MAGIC = "aucmax-model 1"


@dataclass
class LinearModel:
    """Weight vector over the embedded space plus training provenance."""

    w: np.ndarray
    trained_by: str
    hyperparameters: dict
    embedding_id: str = ""
    diagnostics: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 1:
            raise DataError("weights must be a vector")
        if not np.all(np.isfinite(self.w)):
            raise DataError("weights must be finite")
        if self.trained_by not in ("batch", "sgd"):
            raise DataError(f"unknown solver tag {self.trained_by!r}")

    @property
    def r(self) -> int:
        return self.w.shape[0]


def embedding_digest(m: NystroemMap | RffMap) -> str:
    """Stable identifier binding weights to the exact embedding arrays."""
    h = hashlib.sha256()
    if isinstance(m, NystroemMap):
        h.update(b"nystroem")
        h.update(np.ascontiguousarray(m.landmarks.centroids).tobytes())
        h.update(np.ascontiguousarray(m.projection).tobytes())
    else:
        h.update(b"rff")
        h.update(np.ascontiguousarray(m.frequencies).tobytes())
        h.update(np.ascontiguousarray(m.phases).tobytes())
    h.update(repr(float(m.kernel.sigma2)).encode())
    return h.hexdigest()


@dataclass
class TrainedPipeline:
    """standardize -> embed -> dot product, the full scoring path."""

    standardizer: Standardizer
    embedding: NystroemMap | RffMap
    linear: LinearModel
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.linear.r != self.embedding_rank:
            raise DataError(
                f"weight length {self.linear.r} does not match embedding rank "
                f"{self.embedding_rank}"
            )
        if self.linear.embedding_id and self.linear.embedding_id != embedding_digest(self.embedding):
            raise DataError("embedding_id does not match the embedding: the weights belong to another one")

    @property
    def embedding_rank(self) -> int:
        return self.embedding.rank

    @property
    def dim(self) -> int:
        return self.standardizer.dim

    def score(self, data: Dataset) -> np.ndarray:
        if data.dim != self.dim:
            raise DataError(f"model expects dimension {self.dim}, data has {data.dim}")
        emb = embed(self.embedding, standardize_apply(self.standardizer, data))
        return emb.features @ self.linear.w

    def score_point(self, x: SparseVector | np.ndarray) -> float:
        xv = x.to_dense(self.dim) if isinstance(x, SparseVector) else np.asarray(x, dtype=np.float64)
        if xv.shape[0] != self.dim:
            raise DataError(f"model expects dimension {self.dim}, point has {xv.shape[0]}")
        z = (xv - self.standardizer.mean) / self.standardizer.stdev
        return float(embed_point(self.embedding, z) @ self.linear.w)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _positive(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"must be finite and positive, got {text!r}")
    return value


# the hyperparameters either solver records, with their types
_HYPERPARAMETERS = {
    "askip": int,
    "averaging": str,
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

# Each section's typed scalar keys and its matrices, in the order the file
# holds them. Scalars not typed here (meta entries, hyperparameters unknown to
# this version) stay text; an unseeded embedding has no seed line.
_SCHEMA = {
    "meta": ({}, ()),
    "standardizer": ({"dim": int}, ("mean", "stdev")),
    "nystroem": (
        {"v": int, "r": int, "d": int, "sigma2": _positive, "seed": int},
        ("centroids", "projection", "eigenvalues"),
    ),
    "rff": ({"D": int, "d": int, "sigma2": _positive, "seed": int}, ("frequencies", "phases")),
    "linear": (
        {"r": int, "trained_by": str, **_HYPERPARAMETERS, "embedding_id": str},
        ("weights",),
    ),
}


def _write_matrix(out: list[str], name: str, M: np.ndarray):
    M = np.atleast_2d(M)
    out.append(f"{name} {M.shape[0]} {M.shape[1]}")
    for row in M:
        out.append(" ".join(_fmt(v) for v in row))


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
            "projection": emb.projection,
            "eigenvalues": emb.eigenvalues,
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
        "meta": {"solver": lin.trained_by, **{k: str(v) for k, v in sorted(pipe.meta.items())}},
        "standardizer": {"dim": std.dim, "mean": std.mean, "stdev": std.stdev},
        kind: emb_values,
        "linear": {
            "r": lin.r,
            "trained_by": lin.trained_by,
            **dict(sorted(lin.hyperparameters.items())),
            "embedding_id": embedding_digest(emb),
            "weights": lin.w,
        },
    }

    lines = [_MAGIC]
    for section, values in sections.items():
        lines.append(f"[{section}]")
        matrices = _SCHEMA[section][1]
        for key, value in values.items():
            if key not in matrices and value is not None:
                lines.append(f"{key} {_fmt(value) if isinstance(value, float) else value}")
        for matrix in matrices:
            _write_matrix(lines, matrix, values[matrix])

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class _Section(dict):
    """A section's values by key; a missing key is a ParseError."""

    def __init__(self, name: str, line: int):
        super().__init__()
        self.name = name
        self.line = line

    def __missing__(self, key):
        raise ParseError(f"section [{self.name}] has no {key!r} line", self.line)


def _parse(kind, key: str, text: str, line: int):
    """The one value parser: a bad value is a ParseError at its line."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ParseError(f"bad value for {key!r}: {exc}", line) from None


class _Reader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self) -> str:
        line = self.peek()
        if line is None:
            raise ParseError("unexpected end of model file", self.pos)
        self.pos += 1
        return line

    def read_matrix(self, name: str) -> np.ndarray:
        head = self.next().split()
        if len(head) != 3 or head[0] != name:
            raise ParseError(f"expected matrix header {name!r}", self.pos)
        try:
            rows, cols = int(head[1]), int(head[2])
            M = np.empty((rows, cols))
            for i in range(rows):
                vals = self.next().split()
                if len(vals) != cols:
                    raise ParseError(f"matrix {name!r} row has {len(vals)} values, expected {cols}", self.pos)
                M[i] = [float(v) for v in vals]
        except ValueError as exc:
            raise ParseError(f"matrix {name!r}: {exc}", self.pos) from None
        return M

    def read_section(self, name: str) -> _Section:
        """The section's scalars, typed by the schema, then its matrices."""
        line = self.next()
        if line != f"[{name}]":
            raise ParseError(f"expected section [{name}], got {line!r}", self.pos)
        types, matrices = _SCHEMA[name]
        out = _Section(name, self.pos)
        while True:
            line = self.peek()
            if line is None or line.startswith("["):
                break
            key, *text = line.split(None, 1)
            if key in matrices:
                break
            self.next()
            out[key] = _parse(types.get(key, str), key, "".join(text), self.pos)
        for matrix in matrices:
            out[matrix] = self.read_matrix(matrix)
        return out


def load_model(path: str) -> TrainedPipeline:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    rd = _Reader(lines)
    if rd.next() != _MAGIC:
        raise ParseError("not a model file (bad magic line)", 1)

    meta = rd.read_section("meta")
    meta.pop("solver", None)

    std = rd.read_section("standardizer")
    mean = std["mean"].ravel()
    if std["dim"] != mean.shape[0]:
        raise ParseError("standardizer dim does not match its arrays", std.line)
    standardizer = Standardizer(mean, std["stdev"].ravel())

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
        embedding = NystroemMap(
            LandmarkSet(emb["centroids"]),
            GaussianKernelParams(emb["sigma2"]),
            emb["projection"],
            emb["eigenvalues"].ravel(),
            seed=emb.get("seed"),
        )

    lin = rd.read_section("linear")
    w = lin.pop("weights").ravel()
    lin.pop("r", None)
    trained_by = lin.pop("trained_by", "batch")
    embedding_id = lin.pop("embedding_id", "")
    linear = LinearModel(w, trained_by, dict(lin), embedding_id=embedding_id)
    return TrainedPipeline(standardizer, embedding, linear, meta=dict(meta))
