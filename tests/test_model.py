"""Tests for model containers, the text model file, and the rings generator."""

import numpy as np
import pytest

from aucmax.batch import BatchConfig, train_batch
from aucmax.dataio import (
    Dataset,
    SparseVector,
    Standardizer,
    format_float,
    standardize_apply,
    standardize_fit,
)
from aucmax.embedding import LandmarkSet, embed, fit_nystroem, fit_rff, kmeans
from aucmax.errors import DataError, ParseError
from aucmax.kernels import GaussianKernelParams, bandwidth_heuristic, kernel_matrix
from aucmax.metrics import auc
from aucmax.model import (
    LinearModel,
    TrainedPipeline,
    embedding_digest,
    load_model,
    save_model,
)
from aucmax.sgd import SgdConfig, train_sgd
from aucmax.synthetic import make_rings


def fit_pipeline(solver="batch", embedding="nystroem", seed=0, duplicates=0):
    """A fitted pipeline on rings; ``duplicates`` repeats that many landmarks,
    so the Nystroem map drops part of the landmark kernel's spectrum."""
    data = make_rings(n=240, seed=seed)
    std = standardize_fit(data)
    standardized = standardize_apply(std, data)
    kernel = bandwidth_heuristic(standardized)
    if embedding == "nystroem":
        lm = kmeans(standardized, v=16, max_iter=30, seed=seed)
        lm = LandmarkSet(np.vstack([lm.centroids, lm.centroids[:duplicates]]))
        emb_map = fit_nystroem(lm, kernel, seed=seed)
    else:
        emb_map = fit_rff(2, 16, kernel, seed=seed)
    emb = embed(emb_map, standardized)
    if solver == "batch":
        linear = train_batch(emb, BatchConfig(C=1.0))
    else:
        linear = train_sgd(emb, SgdConfig(lam=1e-6, epochs=3, seed=seed))
    return data, TrainedPipeline(std, emb_map, linear, meta={"seed": str(seed)})


class TestLinearModel:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            LinearModel(np.array([1.0, np.nan]), "batch", {})

    def test_rejects_unknown_solver(self):
        with pytest.raises(DataError):
            LinearModel(np.ones(2), "mystery", {})


def explicit_scores(pipe, data):
    """embed(x) @ w, the score through the unfolded features."""
    standardized = standardize_apply(pipe.standardizer, data)
    return embed(pipe.embedding, standardized).X @ pipe.linear.w


class TestPipelineScoring:
    @pytest.mark.parametrize("duplicates", [0, 4])
    def test_folded_score_matches_explicit(self, duplicates):
        data, pipe = fit_pipeline(duplicates=duplicates)
        emb = pipe.embedding
        assert emb.landmarks.v == 16 + duplicates
        assert emb.rank <= 16
        # kappa(x, U) @ (P^T w) sums the products of embed(x) @ w in another
        # order; its rounding error is bounded by sum |kappa| |P|^T |w|
        Z = standardize_apply(pipe.standardizer, data).X
        K = kernel_matrix(Z, emb.landmarks.centroids, emb.kernel)
        scale = K @ (np.abs(emb.projection).T @ np.abs(pipe.linear.w))
        error = np.abs(pipe.score(data) - explicit_scores(pipe, data))
        assert np.all(error <= 1e-12 * scale)

    def test_rff_score_is_explicit_bitwise(self):
        data, pipe = fit_pipeline(embedding="rff")
        np.testing.assert_array_equal(pipe.score(data), explicit_scores(pipe, data))

    def test_score_point_matches_batch_scoring(self):
        for embedding in ("nystroem", "rff"):
            data, pipe = fit_pipeline(embedding=embedding)
            scores = pipe.score(data)
            for i in (0, 7, 100):
                np.testing.assert_allclose(
                    pipe.score_point(np.asarray(data.X[i]).ravel()), scores[i], rtol=1e-12
                )

    def test_dim_mismatch(self):
        _, pipe = fit_pipeline()
        bad = Dataset(np.ones((3, 5)), np.array([1, -1, 1]))
        with pytest.raises(DataError, match="dimension"):
            pipe.score(bad)

    @pytest.mark.parametrize("embedding", ["nystroem", "rff"])
    def test_embedding_dim_must_match_standardizer(self, embedding):
        _, pipe = fit_pipeline(embedding=embedding)
        with pytest.raises(DataError, match="standardizer has 3"):
            TrainedPipeline(Standardizer(np.zeros(3), np.ones(3)), pipe.embedding, pipe.linear)

    def test_score_point_index_outside_dim(self):
        _, pipe = fit_pipeline()
        with pytest.raises(DataError, match="outside dimension 2"):
            pipe.score_point(SparseVector([5], [1.0]))


class TestModelFile:
    def test_roundtrip_predictions_bitwise(self, tmp_path):
        data, pipe = fit_pipeline()
        path = str(tmp_path / "model.txt")
        save_model(path, pipe)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.score(data), pipe.score(data))
        np.testing.assert_array_equal(loaded.linear.w, pipe.linear.w)
        assert loaded.linear.embedding_id == embedding_digest(pipe.embedding)
        assert loaded.linear.trained_by == "batch"

    def test_roundtrip_rff(self, tmp_path):
        data, pipe = fit_pipeline(solver="sgd", embedding="rff")
        path = str(tmp_path / "model.txt")
        save_model(path, pipe)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.score(data), pipe.score(data))
        np.testing.assert_array_equal(loaded.embedding.frequencies, pipe.embedding.frequencies)
        assert loaded.linear.hyperparameters["lambda"] == 1e-6

    @pytest.mark.parametrize("solver", ["batch", "sgd"])
    def test_hyperparameters_keep_values_and_types(self, tmp_path, solver):
        _, pipe = fit_pipeline(solver=solver)
        path = str(tmp_path / "model.txt")
        save_model(path, pipe)
        loaded = load_model(path).linear.hyperparameters
        expected = pipe.linear.hyperparameters
        assert loaded == expected
        assert {k: type(v) for k, v in loaded.items()} == {k: type(v) for k, v in expected.items()}

    def test_matrix_text_is_format_float(self, tmp_path):
        # RFF weights need no folding, so no arithmetic touches these values
        _, pipe = fit_pipeline(embedding="rff")
        awkward = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, -2.5e-310]
        # the largest float once: repeated, it would let a score overflow, and
        # TrainedPipeline refuses such weights
        w = np.zeros(pipe.linear.r)
        w[: len(awkward)] = awkward
        pipe = TrainedPipeline(pipe.standardizer, pipe.embedding, LinearModel(w, "batch", {}))
        path = tmp_path / "model.txt"
        save_model(str(path), pipe)
        lines = path.read_text().splitlines()
        at = lines.index(f"weights 1 {w.size}")
        assert lines[at + 1] == " ".join(format_float(v) for v in w)
        loaded = load_model(str(path)).linear.w
        np.testing.assert_array_equal(loaded, w)
        np.testing.assert_array_equal(np.signbit(loaded), np.signbit(w))

    def test_resave_is_byte_identical(self, tmp_path):
        _, pipe = fit_pipeline()
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_model(str(p1), pipe)
        save_model(str(p2), load_model(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_digest_binds_embedding(self):
        _, pipe_a = fit_pipeline(seed=0)
        _, pipe_b = fit_pipeline(seed=1)
        assert embedding_digest(pipe_a.embedding) != embedding_digest(pipe_b.embedding)
        pipe_a.linear.embedding_id = embedding_digest(pipe_b.embedding)
        with pytest.raises(DataError, match="embedding_id"):
            TrainedPipeline(pipe_a.standardizer, pipe_a.embedding, pipe_a.linear)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a model\n")
        with pytest.raises(ParseError):
            load_model(str(path))

    def test_truncated_file(self, tmp_path):
        data, pipe = fit_pipeline()
        path = tmp_path / "model.txt"
        save_model(str(path), pipe)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]))
        with pytest.raises(ParseError):
            load_model(str(path))

    def test_weight_length_must_match_rank(self):
        _, pipe = fit_pipeline()
        with pytest.raises(DataError):
            TrainedPipeline(
                pipe.standardizer,
                pipe.embedding,
                LinearModel(np.ones(pipe.embedding.rank + 1), "batch", {}),
            )


class TestMakeRings:
    def test_sizes_and_imbalance(self):
        data = make_rings(n=2000, seed=1, imbalance=3.0)
        assert data.n == 2000
        assert np.count_nonzero(data.y == 1) == 500
        assert np.count_nonzero(data.y == -1) == 1500

    def test_radii_separate_classes(self):
        data = make_rings(n=1000, seed=2)
        radii = np.linalg.norm(data.X, axis=1)
        assert radii[data.y == 1].mean() < 1.3
        assert radii[data.y == -1].mean() > 1.7

    def test_deterministic(self):
        a = make_rings(n=100, seed=3)
        b = make_rings(n=100, seed=3)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_linear_scoring_near_chance(self):
        # both classes are centered at the origin: no direction ranks them
        data = make_rings(n=1500, seed=4)
        best = 0.0
        for theta in np.linspace(0, np.pi, 16, endpoint=False):
            w = np.array([np.cos(theta), np.sin(theta)])
            r = auc(data.X @ w, data.y).auc
            best = max(best, r, 1.0 - r)
        assert best <= 0.60
