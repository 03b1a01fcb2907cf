"""Tests for model containers, the text model file, and the rings generator."""

import re
import warnings

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
    _HYPERPARAMETERS,
    LinearModel,
    TrainedPipeline,
    embedding_digest,
    load_model,
    save_model,
)
from aucmax.sgd import SgdConfig, train_sgd
from aucmax.synthetic import make_rings


def fit_pipeline(solver="batch", embedding="nystroem", seed=0, duplicates=0, rank=None):
    """A fitted pipeline on rings; ``duplicates`` repeats that many landmarks,
    so the Nystroem map prunes them. ``rank`` tiles the first that many
    centroids over all 16 landmarks, so the map prunes to that rank."""
    data = make_rings(n=240, seed=seed)
    std = standardize_fit(data)
    standardized = standardize_apply(std, data)
    kernel = bandwidth_heuristic(standardized)
    if embedding == "nystroem":
        lm = kmeans(standardized, v=16, max_iter=30, seed=seed)
        centroids = lm.centroids if rank is None else np.resize(lm.centroids[:rank], lm.centroids.shape)
        lm = LandmarkSet(np.vstack([centroids, centroids[:duplicates]]))
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
        assert emb.rank == emb.landmarks.v == 16
        assert emb.diagnostics["pruned_landmarks"] == duplicates
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

    @pytest.mark.parametrize(
        "x, match",
        [
            (np.array([np.nan, 1.0]), "finite"),
            (np.array([1.0, np.inf]), "finite"),
            (np.array([-np.inf, 0.0]), "finite"),
            (np.array(["a", "b"]), "numeric"),
            ([[1.0], [2.0, 3.0]], "numeric"),
            (np.ones(3), "dimension 2"),
            (np.ones((1, 2)), "dimension 2"),
            (np.float64(1.0), "dimension 2"),
        ],
        ids=["nan", "inf", "minus-inf", "strings", "ragged", "length", "two-d", "scalar"],
    )
    def test_score_point_rejects_a_bad_array(self, x, match):
        # the DataError that score() raises for the one-row Dataset, and no RuntimeWarning on the way
        _, pipe = fit_pipeline()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=match):
                pipe.score_point(x)

    @pytest.mark.parametrize(
        "embedding, duplicates", [("nystroem", 0), ("nystroem", 4), ("rff", 0)], ids=["nystroem", "pruned", "rff"]
    )
    def test_score_point_has_the_bits_of_the_one_row_dataset(self, embedding, duplicates, tmp_path):
        data, fitted = fit_pipeline(embedding=embedding, duplicates=duplicates)
        path = str(tmp_path / "model.txt")
        save_model(path, fitted)
        X = data.X.copy()
        X[::3, 0] = 0.0  # sparse points with a missing feature too
        for pipe in (fitted, load_model(path)):
            assert pipe.embedding.rank == 16
            for i in range(0, data.n, 5):
                x, nonzero = X[i], np.flatnonzero(X[i])
                want = pipe.score(Dataset(X[i : i + 1], data.y[i : i + 1]))[0].tobytes()
                assert np.float64(pipe.score_point(x)).tobytes() == want
                assert np.float64(pipe.score_point(SparseVector(nonzero, x[nonzero]))).tobytes() == want

    @pytest.mark.parametrize("embedding", ["nystroem", "rff"])
    def test_a_far_point_scores_finitely(self, embedding):
        # ||x||^2 overflows float64, where the distance formula gives NaN
        data, pipe = fit_pipeline(embedding=embedding)
        far = np.array([1e308, 0.0])
        score = pipe.score_point(far)
        assert np.isfinite(score)
        assert np.float64(score).tobytes() == pipe.score(Dataset(far[None], [1]))[0].tobytes()
        if embedding == "nystroem":
            assert score == 0.0  # every kernel value is 0

    @pytest.mark.parametrize("embedding", ["nystroem", "rff"])
    def test_score_point_leaves_its_array_alone(self, embedding):
        # score_point standardizes in place, on its own copy
        data, pipe = fit_pipeline(embedding=embedding)
        x = data.X[3]
        before = x.copy()
        first = pipe.score_point(x)
        assert x.tobytes() == before.tobytes()
        assert pipe.score_point(x) == first


class TestModelFile:
    def test_roundtrip_predictions_bitwise(self, tmp_path):
        data, pipe = fit_pipeline()
        path = str(tmp_path / "model.txt")
        save_model(path, pipe)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.score(data), pipe.score(data))
        np.testing.assert_array_equal(loaded.folded, pipe.folded)
        # w is unfolded from the stored folded weights, exact up to rounding
        np.testing.assert_allclose(loaded.linear.w, pipe.linear.w, rtol=1e-12, atol=1e-12 * np.abs(pipe.linear.w).max())
        with open(path) as fh:
            assert f"\nembedding_id {embedding_digest(pipe.embedding)}\n" in fh.read()
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

    def test_hyperparameter_table_is_what_the_solvers_record(self, tmp_path):
        # a key no solver records, such as the dropped averaging, fails here
        recorded = {}
        for solver in ("batch", "sgd"):
            _, pipe = fit_pipeline(solver=solver)
            path = str(tmp_path / "model.txt")
            save_model(path, pipe)
            expected = pipe.linear.hyperparameters
            loaded = load_model(path).linear.hyperparameters
            assert expected.keys() <= _HYPERPARAMETERS.keys()
            assert loaded == expected
            assert all(type(value) is _HYPERPARAMETERS[key] for key, value in loaded.items())
            recorded[solver] = expected.keys()
        assert recorded["batch"] | recorded["sgd"] == _HYPERPARAMETERS.keys()

    def test_older_format_2_lines_load_as_text(self, tmp_path):
        # earlier format 2 files repeat the solver in [meta] and record
        # averaging in [linear]; both load as text and change no score
        data, pipe = fit_pipeline(solver="sgd")
        path = tmp_path / "model.txt"
        save_model(str(path), pipe)
        text = path.read_text()
        resaved = tmp_path / "resaved.txt"
        save_model(str(resaved), load_model(str(path)))
        assert resaved.read_text() == text
        assert "averaging" not in text and "solver" not in text

        older = tmp_path / "older.txt"
        older.write_text(
            text.replace("[meta]\n", "[meta]\nsolver sgd\n").replace("askip 16\n", "askip 16\naveraging off\n")
        )
        current, loaded = load_model(str(path)), load_model(str(older))
        np.testing.assert_array_equal(loaded.score(data), current.score(data))
        np.testing.assert_array_equal(loaded.linear.w, current.linear.w)
        assert loaded.meta == {**current.meta, "solver": "sgd"}
        assert loaded.linear.hyperparameters == {**current.linear.hyperparameters, "averaging": "off"}

    def test_matrix_text_is_format_float(self, tmp_path):
        # RFF weights need no folding, so no arithmetic touches these values
        _, pipe = fit_pipeline(embedding="rff")
        awkward = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, -2.5e-310]
        # the largest float once: repeated, it would let a score overflow, and
        # TrainedPipeline refuses such weights
        w = np.zeros(pipe.linear.w.size)
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
        for embedding, duplicates in (("nystroem", 0), ("nystroem", 3), ("rff", 0)):
            _, pipe = fit_pipeline(embedding=embedding, duplicates=duplicates)
            p1 = tmp_path / "a.txt"
            p2 = tmp_path / "b.txt"
            save_model(str(p1), pipe)
            save_model(str(p2), load_model(str(p1)))
            assert p1.read_bytes() == p2.read_bytes()
            # unfolding w, which refactors the landmark kernel, leaves the saved weights alone
            loaded = load_model(str(p2))
            loaded.linear.w
            save_model(str(p2), loaded)
            assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("rank", [None, 3])
    def test_loaded_map_refactors_to_the_fitted_bits(self, tmp_path, rank):
        _, pipe = fit_pipeline(duplicates=2, rank=rank)
        path = str(tmp_path / "model.txt")
        save_model(path, pipe)
        loaded = load_model(path)
        assert loaded.embedding.rank == pipe.embedding.rank == (rank or 16)
        assert pipe.embedding.diagnostics["pruned_landmarks"] == 18 - (rank or 16)
        np.testing.assert_array_equal(loaded.embedding.projection, pipe.embedding.projection)
        w = pipe.linear.w
        np.testing.assert_allclose(loaded.linear.w, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())

    def test_load_and_score_factor_nothing(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factorization called")

        for duplicates in (0, 4):
            data, pipe = fit_pipeline(duplicates=duplicates)
            assert pipe.embedding.diagnostics["pruned_landmarks"] == duplicates
            path = str(tmp_path / "model.txt")
            save_model(path, pipe)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "cholesky", refuse)
                loaded = load_model(path)
                np.testing.assert_array_equal(loaded.score(data), pipe.score(data))
                assert loaded.score_point(data.X[5]) == pipe.score_point(data.X[5])
                with pytest.raises(AssertionError, match="factorization called"):
                    loaded.linear.w

    def test_nystroem_file_holds_landmarks_and_folded_weights_only(self, tmp_path):
        # a guard on the file size: the whitening projection must not come back
        _, pipe = fit_pipeline(duplicates=4)
        path = tmp_path / "model.txt"
        save_model(str(path), pipe)
        lines = path.read_text().splitlines()
        headers = [ln.split()[0] for ln in lines if re.fullmatch(r"[a-z_]+ \d+ \d+", ln)]
        assert headers == ["mean", "stdev", "centroids", "weights"]
        v, d = pipe.embedding.landmarks.v, pipe.dim
        assert path.stat().st_size < 26 * (v * d + v + 2 * d) + 2048

    def test_digest_binds_embedding(self, tmp_path):
        _, pipe_a = fit_pipeline(seed=0)
        _, pipe_b = fit_pipeline(seed=1)
        digest_a, digest_b = embedding_digest(pipe_a.embedding), embedding_digest(pipe_b.embedding)
        assert digest_a != digest_b
        path = tmp_path / "model.txt"
        save_model(str(path), pipe_a)
        lines = path.read_text().splitlines()
        at = lines.index(f"embedding_id {digest_a}")
        lines[at] = f"embedding_id {digest_b}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"line {at + 1}: embedding_id does not match") as exc:
            load_model(str(path))
        assert str(exc.value).startswith(f"{path}: ")

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

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    @pytest.mark.parametrize("embedding", ["nystroem", "rff"])
    def test_folded_length_must_match_embedding(self, embedding, extra):
        # one folded weight per landmark (16: the two repeats are pruned) or per random feature (16)
        _, pipe = fit_pipeline(embedding=embedding, duplicates=2)
        width = 16
        assert pipe.folded.size == width
        with pytest.raises(DataError, match=f"^{width + extra} folded weights, but the embedding takes {width}$"):
            TrainedPipeline(pipe.standardizer, pipe.embedding, pipe.linear, folded=np.ones(width + extra))


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
