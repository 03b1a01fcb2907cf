"""The benchmark wraps aucmax functions by name and reads a saved model in
process; every name it touches must exist."""

import runpy
from pathlib import Path

import numpy as np

import aucmax.batch
import aucmax.model
from aucmax import BatchConfig, EmbeddedDataset, train_batch
from aucmax.cli import main
from aucmax.dataio import Dataset, SparseVector, to_libsvm
from aucmax.model import load_model
from aucmax.synthetic import make_rings

TRACECLI = Path(__file__).resolve().parent.parent / "benchmarks" / "tracecli.py"


def test_traced_names_exist():
    traced = runpy.run_path(str(TRACECLI), run_name="tracecli")["TRACED"]
    missing = [f"{home.__name__}.{attr}" for _, home, attr, _ in traced if not hasattr(home, attr)]
    assert missing == []
    # install() also wraps these two directly
    assert callable(aucmax.batch.PairAggregates)
    assert callable(aucmax.model.TrainedPipeline.score)


def test_in_process_names_the_benchmark_reads(capsys, tmp_path):
    data = make_rings(n=120, seed=2)
    data_file, model_file = tmp_path / "rings.libsvm", tmp_path / "m.model"
    data_file.write_text(to_libsvm(data))
    assert main(["train-batch", "--data", str(data_file), "--landmarks", "6", "--model", str(model_file)]) == 0
    capsys.readouterr()

    # the fields the benchmark's own recomputation of the scores reads
    pipe = load_model(str(model_file))
    emb = pipe.embedding
    mean, stdev = pipe.standardizer.mean, pipe.standardizer.stdev
    centroids, sigma2, projection = emb.landmarks.centroids, emb.kernel.sigma2, emb.projection
    w = pipe.linear.w
    assert mean.shape == stdev.shape == (data.dim,)
    assert centroids.shape == (6, data.dim) and sigma2 > 0
    assert projection.shape == (6, w.size)
    assert float(pipe.linear.hyperparameters["grad_tol"]) > 0

    x = data.X[0]
    nonzero = np.flatnonzero(x)
    score = pipe.score_point(SparseVector(nonzero, x[nonzero]))
    assert score == pipe.score(Dataset(data.X[:1], data.y[:1]))[0]

    # run.py builds its reference batch model through the old name of Dataset
    assert aucmax.EmbeddedDataset is aucmax.Dataset
    rng = np.random.default_rng(0)
    ref = train_batch(EmbeddedDataset(rng.standard_normal((30, 3)), np.repeat([1, -1], 15)), BatchConfig(C=1.0))
    assert ref.w.shape == (3,) and ref.diagnostics["converged"]
