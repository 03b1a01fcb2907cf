"""End-to-end command-line tests.

Commands run in-process through main(argv) so exit codes and printed
key=value lines can be asserted directly.
"""

import argparse
import csv
import re

import numpy as np
import pytest

from aucmax.cli import build_parser, main
from aucmax.dataio import parse_libsvm, to_libsvm
from aucmax.synthetic import make_rings


@pytest.fixture(scope="module")
def rings_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "rings.libsvm"
    path.write_text(to_libsvm(make_rings(n=600, seed=3)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_kv(stdout: str) -> dict:
    pairs = {}
    for line in stdout.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


class TestTrainPredictEval:
    def test_batch_round_trip(self, capsys, tmp_path, rings_file):
        model = str(tmp_path / "m.model")
        scores = str(tmp_path / "s.txt")
        labels = str(tmp_path / "l.txt")

        code, out, _ = run(capsys, [
            "train-batch", "--data", rings_file, "--landmarks", "32",
            "--seed", "0", "--model", model,
        ])
        assert code == 0
        kv = parse_kv(out)
        assert set(kv) >= {"train_auc", "test_auc", "embedding_seconds", "training_seconds"}
        assert float(kv["test_auc"]) > 0.95

        code, out, _ = run(capsys, ["predict", "--model", model, "--data", rings_file,
                                    "--scores", scores])
        assert code == 0
        assert parse_kv(out)["scored"] == "600"
        score_values = [float(x) for x in open(scores).read().split()]
        assert len(score_values) == 600

        with open(rings_file) as fh:
            lines = fh.read().splitlines()
        with open(labels, "w") as fh:
            fh.write("\n".join(line.split()[0] for line in lines) + "\n")
        code, out, _ = run(capsys, ["eval-auc", "--scores", scores, "--labels", labels])
        assert code == 0
        assert float(out.strip()) > 0.99

    def test_sgd_round_trip_with_curve(self, capsys, tmp_path, rings_file):
        model = str(tmp_path / "m.model")
        curve = str(tmp_path / "curve.csv")
        code, out, _ = run(capsys, [
            "train-sgd", "--data", rings_file, "--landmarks", "32", "--seed", "0",
            "--lambda", "1e-7", "--epochs", "4", "--curve", curve, "--model", model,
        ])
        assert code == 0
        assert float(parse_kv(out)["test_auc"]) > 0.9

        with open(curve, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_auc", "test_auc", "elapsed_seconds"]
        body = rows[1:]
        assert [int(r[0]) for r in body] == [1, 2, 3, 4]
        for r in body:
            assert 0.0 <= float(r[1]) <= 1.0
            assert 0.0 <= float(r[2]) <= 1.0
        elapsed = [float(r[3]) for r in body]
        assert elapsed == sorted(elapsed)

    def test_rff_embedding_path(self, capsys, tmp_path, rings_file):
        model = str(tmp_path / "m.model")
        code, out, _ = run(capsys, [
            "train-batch", "--data", rings_file, "--embedding", "rff",
            "--landmarks", "128", "--seed", "0", "--model", model,
        ])
        assert code == 0
        assert float(parse_kv(out)["test_auc"]) > 0.9

    def test_predict_rejects_wider_data(self, capsys, tmp_path, rings_file):
        model = str(tmp_path / "m.model")
        assert run(capsys, ["train-batch", "--data", rings_file, "--landmarks", "16",
                            "--model", model])[0] == 0
        wide = tmp_path / "wide.libsvm"
        wide.write_text("1 5:1.0\n-1 1:2.0\n")
        code, _, err = run(capsys, ["predict", "--model", model,
                                    "--data", str(wide), "--scores", str(tmp_path / "s")])
        assert code == 3
        assert "dimension" in err

    def test_scores_round_trip_exactly(self, capsys, tmp_path, rings_file):
        # text scores reload to the same doubles the pipeline computed
        model = str(tmp_path / "m.model")
        scores_path = tmp_path / "s.txt"
        run(capsys, ["train-batch", "--data", rings_file, "--landmarks", "16",
                     "--model", model])
        run(capsys, ["predict", "--model", model, "--data", rings_file,
                     "--scores", str(scores_path)])

        from aucmax.model import load_model
        pipe = load_model(model)
        with open(rings_file) as fh:
            data = parse_libsvm(fh)
        expected = pipe.score(data)
        reloaded = np.array([float(x) for x in scores_path.read_text().split()])
        assert np.array_equal(reloaded, expected)


class TestEvalAuc:
    def test_tie_policies(self, capsys, tmp_path):
        (tmp_path / "s.txt").write_text("1.0\n1.0\n0.0\n0.0\n")
        (tmp_path / "l.txt").write_text("1\n-1\n1\n-1\n")
        code, out, _ = run(capsys, ["eval-auc", "--scores", str(tmp_path / "s.txt"),
                                    "--labels", str(tmp_path / "l.txt")])
        assert code == 0 and out.strip() == "0.500000"
        code, out, _ = run(capsys, ["eval-auc", "--scores", str(tmp_path / "s.txt"),
                                    "--labels", str(tmp_path / "l.txt"), "--strict"])
        assert code == 0 and out.strip() == "0.250000"

    def test_zero_one_labels_normalized(self, capsys, tmp_path):
        (tmp_path / "s.txt").write_text("0.9\n0.8\n0.1\n0.2\n")
        (tmp_path / "l.txt").write_text("1\n1\n0\n0\n")
        code, out, _ = run(capsys, ["eval-auc", "--scores", str(tmp_path / "s.txt"),
                                    "--labels", str(tmp_path / "l.txt")])
        assert code == 0 and out.strip() == "1.000000"

    def test_length_mismatch_is_data_error(self, capsys, tmp_path):
        (tmp_path / "s.txt").write_text("0.9\n0.8\n")
        (tmp_path / "l.txt").write_text("1\n")
        assert run(capsys, ["eval-auc", "--scores", str(tmp_path / "s.txt"),
                            "--labels", str(tmp_path / "l.txt")])[0] == 3

    def test_malformed_score_line(self, capsys, tmp_path):
        (tmp_path / "s.txt").write_text("0.9\nnope\n")
        (tmp_path / "l.txt").write_text("1\n-1\n")
        code, _, err = run(capsys, ["eval-auc", "--scores", str(tmp_path / "s.txt"),
                                    "--labels", str(tmp_path / "l.txt")])
        assert code == 3
        assert ":2:" in err


class TestDeterminism:
    def test_batch_models_byte_identical(self, capsys, tmp_path, rings_file):
        a, b = str(tmp_path / "a.model"), str(tmp_path / "b.model")
        for path in (a, b):
            assert run(capsys, ["train-batch", "--data", rings_file, "--landmarks", "32",
                                "--seed", "7", "--model", path])[0] == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_sgd_models_byte_identical(self, capsys, tmp_path, rings_file):
        a, b = str(tmp_path / "a.model"), str(tmp_path / "b.model")
        for path in (a, b):
            assert run(capsys, ["train-sgd", "--data", rings_file, "--landmarks", "32",
                                "--seed", "7", "--epochs", "3", "--model", path])[0] == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_changes_model(self, capsys, tmp_path, rings_file):
        a, b = str(tmp_path / "a.model"), str(tmp_path / "b.model")
        run(capsys, ["train-batch", "--data", rings_file, "--landmarks", "32",
                     "--seed", "7", "--model", a])
        run(capsys, ["train-batch", "--data", rings_file, "--landmarks", "32",
                     "--seed", "8", "--model", b])
        assert open(a, "rb").read() != open(b, "rb").read()


class TestGridsearch:
    def test_report_shape_and_selection(self, capsys, tmp_path, rings_file):
        report = str(tmp_path / "grid.csv")
        code, out, _ = run(capsys, [
            "gridsearch", "--data", rings_file, "--solver", "batch",
            "--grid", "0.25,1,4", "--folds", "3", "--landmarks", "16",
            "--report", report,
        ])
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["selected"]) in (0.25, 1.0, 4.0)
        assert 0.0 <= float(kv["mean_auc"]) <= 1.0

        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["value", "fold", "auc", "seconds"]
        assert len(rows) == 1 + 3 * 3
        keys = [(float(r[0]), int(r[1])) for r in rows[1:]]
        assert keys == sorted(keys)

    def test_tie_breaks_toward_stronger_regularization(self, capsys, rings_file):
        # separable rings: every C reaches AUC 1, smallest C must win
        code, out, _ = run(capsys, [
            "gridsearch", "--data", rings_file, "--solver", "batch",
            "--grid", "1,2,4", "--folds", "2", "--landmarks", "32",
        ])
        assert code == 0
        assert float(parse_kv(out)["selected"]) == 1.0

    def test_sgd_solver_grid(self, capsys, rings_file):
        code, out, _ = run(capsys, [
            "gridsearch", "--data", rings_file, "--solver", "sgd",
            "--grid", "1e-8,1e-7", "--folds", "2", "--landmarks", "16",
            "--epochs", "3",
        ])
        assert code == 0
        assert float(parse_kv(out)["selected"]) in (1e-8, 1e-7)

    def test_too_many_folds_for_class(self, capsys, tmp_path):
        small = tmp_path / "small.libsvm"
        small.write_text("1 1:1.0\n1 1:1.1\n-1 1:2.0\n-1 1:2.1\n-1 1:2.2\n")
        code, _, err = run(capsys, ["gridsearch", "--data", str(small),
                                    "--solver", "batch", "--grid", "1", "--folds", "3"])
        assert code == 3
        assert "fold" in err

    def test_bad_grid_is_config_error(self, capsys, rings_file):
        assert run(capsys, ["gridsearch", "--data", rings_file, "--solver", "batch",
                            "--grid", "1,zebra"])[0] == 2
        assert run(capsys, ["gridsearch", "--data", rings_file, "--solver", "batch",
                            "--grid", "0,1"])[0] == 2
        assert run(capsys, ["gridsearch", "--data", rings_file, "--solver", "batch",
                            "--grid", "1", "--folds", "1"])[0] == 2


class TestConvergence:
    def test_report_structure(self, capsys, tmp_path, rings_file):
        report = str(tmp_path / "conv.csv")
        code, _, _ = run(capsys, [
            "convergence", "--data", rings_file, "--landmarks", "16",
            "--lambda", "1e-7", "--epochs-grid", "1,2,4", "--seeds", "0,1",
            "--report", report,
        ])
        assert code == 0
        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variant", "epochs", "seed", "test_auc", "train_seconds"]
        body = rows[1:]
        assert len(body) == 2 * 3 * 2  # variants x epochs x seeds
        assert {r[0] for r in body} == {"averaged", "non-averaged"}
        keys = [(r[0], int(r[1]), int(r[2])) for r in body]
        assert keys == sorted(keys)

    def test_snapshots_match_standalone_runs(self, capsys, tmp_path, rings_file):
        # a snapshot at epoch e must equal a separate run trained for e epochs
        report = str(tmp_path / "conv.csv")
        run(capsys, [
            "convergence", "--data", rings_file, "--landmarks", "16",
            "--seed", "5", "--lambda", "1e-7", "--epochs-grid", "2,4",
            "--seeds", "5", "--report", report,
        ])
        with open(report, newline="") as fh:
            table = {(r["variant"], int(r["epochs"])): float(r["test_auc"])
                     for r in csv.DictReader(fh)}

        for epochs in (2, 4):
            model = str(tmp_path / f"e{epochs}.model")
            code, out, _ = run(capsys, [
                "train-sgd", "--data", rings_file, "--landmarks", "16",
                "--lambda", "1e-7", "--epochs", str(epochs), "--seed", "5",
                "--model", model,
            ])
            assert code == 0
            # same split, embedding, and draw prefix: exact agreement
            assert table[("averaged", epochs)] == float(parse_kv(out)["test_auc"])

    def test_reports_reproducible(self, capsys, tmp_path, rings_file):
        # identical apart from the wall-clock column
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        argv = ["convergence", "--data", rings_file, "--landmarks", "16",
                "--lambda", "1e-7", "--epochs-grid", "1,3", "--seeds", "0"]
        run(capsys, argv + ["--report", a])
        run(capsys, argv + ["--report", b])

        def strip_seconds(path):
            with open(path, newline="") as fh:
                return [row[:-1] for row in csv.reader(fh)]

        assert strip_seconds(a) == strip_seconds(b)


class TestKmeansEmbed:
    def test_kmeans_output(self, capsys, tmp_path, rings_file):
        out_path = tmp_path / "centroids.txt"
        code, out, _ = run(capsys, ["kmeans", "--data", rings_file,
                                    "--landmarks", "8", "--out", str(out_path)])
        assert code == 0
        assert parse_kv(out) == {"landmarks": "8", "dim": "2"}
        lines = out_path.read_text().splitlines()
        assert lines[0] == "8 2"
        grid = np.array([[float(v) for v in line.split()] for line in lines[1:]])
        assert grid.shape == (8, 2)
        assert np.all(np.isfinite(grid))

    def test_embed_output(self, capsys, tmp_path, rings_file):
        out_path = tmp_path / "features.csv"
        code, out, _ = run(capsys, ["embed", "--data", rings_file,
                                    "--landmarks", "8", "--out", str(out_path)])
        assert code == 0
        rank = int(parse_kv(out)["rank"])
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label"] + [f"f{k}" for k in range(rank)]
        assert len(rows) == 1 + 600
        sample = np.array([[float(v) for v in r[1:]] for r in rows[1:20]])
        assert np.all(np.isfinite(sample))
        assert {r[0] for r in rows[1:]} == {"1", "-1"}


class TestExitCodes:
    def test_missing_file(self, capsys, tmp_path):
        assert run(capsys, ["train-batch", "--data", str(tmp_path / "nope"),
                            "--model", str(tmp_path / "m")])[0] == 2

    def test_malformed_data(self, capsys, tmp_path):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("spam 1:1.0\n")
        code, _, err = run(capsys, ["train-batch", "--data", str(bad),
                                    "--model", str(tmp_path / "m")])
        assert code == 3
        assert "line 1" in err

    def test_single_class_data(self, capsys, tmp_path):
        bad = tmp_path / "one.libsvm"
        bad.write_text("1 1:1.0\n1 1:2.0\n")
        assert run(capsys, ["train-batch", "--data", str(bad),
                            "--model", str(tmp_path / "m")])[0] == 3

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys, rings_file):
        with pytest.raises(SystemExit) as exc:
            main(["train-batch", "--data", rings_file])
        assert exc.value.code == 2

    def test_bad_positive_labels(self, capsys, tmp_path):
        multi = tmp_path / "multi.libsvm"
        multi.write_text("0 1:1.0\n1 1:2.0\n2 1:3.0\n2 1:4.0\n")
        assert run(capsys, ["kmeans", "--data", str(multi), "--landmarks", "2",
                            "--positive-labels", "x,y",
                            "--out", str(tmp_path / "c")])[0] == 2

    def test_positive_labels_grouping(self, capsys, tmp_path):
        multi = tmp_path / "multi.libsvm"
        multi.write_text(
            "0 1:0.1 2:0.2\n1 1:1.0 2:1.1\n2 1:2.0 2:2.1\n"
            "2 1:2.2 2:2.3\n0 1:0.3 2:0.4\n1 1:1.2 2:1.3\n"
            "0 1:0.5 2:0.6\n1 1:1.4 2:1.5\n2 1:2.4 2:2.5\n0 1:0.7 2:0.8\n"
        )
        code, out, _ = run(capsys, [
            "train-batch", "--data", str(multi), "--positive-labels", "2",
            "--landmarks", "4", "--test-fraction", "0.2",
            "--model", str(tmp_path / "m.model"),
        ])
        assert code == 0
        assert 0.0 <= float(parse_kv(out)["train_auc"]) <= 1.0


# option -> (default, required) for every subcommand; argparse's -h is left out
OPTIONS = {
    "train-batch": {
        "--data": (None, True),
        "--test-fraction": (0.2, False),
        "--seed": (0, False),
        "--positive-labels": (None, False),
        "--sigma2": (None, False),
        "--gamma": (None, False),
        "--bandwidth-cap": (80000, False),
        "--embedding": ("nystroem", False),
        "--landmarks": (1600, False),
        "--rank": (None, False),
        "--kmeans-iters": (100, False),
        "--c": (1.0, False),
        "--grad-tol": (None, False),
        "--max-outer": (100, False),
        "--cg-tol": (0.001, False),
        "--cg-max": (200, False),
        "--model": (None, True),
    },
    "train-sgd": {
        "--data": (None, True),
        "--test-fraction": (0.2, False),
        "--seed": (0, False),
        "--positive-labels": (None, False),
        "--sigma2": (None, False),
        "--gamma": (None, False),
        "--bandwidth-cap": (80000, False),
        "--embedding": ("nystroem", False),
        "--landmarks": (1600, False),
        "--rank": (None, False),
        "--kmeans-iters": (100, False),
        "--lambda": (1e-08, False),
        "--t0": (10000, False),
        "--epochs": (20, False),
        "--rskip": (16, False),
        "--askip": (16, False),
        "--no-averaging": (False, False),
        "--curve": (None, False),
        "--model": (None, True),
    },
    "predict": {
        "--model": (None, True),
        "--data": (None, True),
        "--scores": (None, True),
    },
    "eval-auc": {
        "--scores": (None, True),
        "--labels": (None, True),
        "--strict": (False, False),
    },
    "gridsearch": {
        "--data": (None, True),
        "--seed": (0, False),
        "--positive-labels": (None, False),
        "--sigma2": (None, False),
        "--gamma": (None, False),
        "--bandwidth-cap": (80000, False),
        "--embedding": ("nystroem", False),
        "--landmarks": (1600, False),
        "--rank": (None, False),
        "--kmeans-iters": (100, False),
        "--solver": (None, True),
        "--grid": (None, False),
        "--folds": (3, False),
        "--report": (None, False),
        "--t0": (10000, False),
        "--epochs": (20, False),
        "--rskip": (16, False),
        "--askip": (16, False),
    },
    "convergence": {
        "--data": (None, True),
        "--test-fraction": (0.2, False),
        "--seed": (0, False),
        "--positive-labels": (None, False),
        "--sigma2": (None, False),
        "--gamma": (None, False),
        "--bandwidth-cap": (80000, False),
        "--embedding": ("nystroem", False),
        "--landmarks": (1600, False),
        "--rank": (None, False),
        "--kmeans-iters": (100, False),
        "--lambda": (1e-08, False),
        "--t0": (10000, False),
        "--rskip": (16, False),
        "--askip": (16, False),
        "--epochs-grid": (None, False),
        "--seeds": (None, False),
        "--report": (None, True),
    },
    "kmeans": {
        "--data": (None, True),
        "--seed": (0, False),
        "--positive-labels": (None, False),
        "--landmarks": (1600, False),
        "--kmeans-iters": (100, False),
        "--out": (None, True),
    },
    "embed": {
        "--data": (None, True),
        "--seed": (0, False),
        "--positive-labels": (None, False),
        "--sigma2": (None, False),
        "--gamma": (None, False),
        "--bandwidth-cap": (80000, False),
        "--embedding": ("nystroem", False),
        "--landmarks": (1600, False),
        "--rank": (None, False),
        "--kmeans-iters": (100, False),
        "--out": (None, True),
    },
}


def test_option_set_is_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {}
    for command, subparser in sub.choices.items():
        found[command] = {}
        for action in subparser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            for option in action.option_strings:
                found[command][option] = (action.default, action.required)
    assert found == OPTIONS


@pytest.fixture(scope="module")
def model_text(tmp_path_factory, rings_file):
    path = tmp_path_factory.mktemp("model") / "m.model"
    assert main(["train-batch", "--data", rings_file, "--landmarks", "16", "--model", str(path)]) == 0
    return path.read_text()


class TestCorruptModel:
    @pytest.mark.parametrize("section, pattern, repl, message", [
        ("linear", r"^(weights \d+ \d+\n)\S+", r"\1abc", "line "),
        ("standardizer", r"^dim \d+\n", "", "line "),
        ("linear", r"^weights \d+ \d+$", "weights x 1", "line "),
        ("nystroem", r"^sigma2 \S+$", "sigma2 abc", "line "),
        ("nystroem", r"^seed \S+$", "seed x", "line "),
        ("linear", r"^c \S+$", "c abc", "line "),
        ("nystroem", r"^sigma2 \S+$", "sigma2 -1", "line "),
        ("linear", r"^embedding_id \S+$", "embedding_id deadbeef", "embedding_id"),
    ], ids=["matrix-cell", "missing-dim", "matrix-header", "sigma2-text", "seed-text",
            "c-text", "sigma2-negative", "foreign-embedding-id"])
    def test_exits_three(self, capsys, tmp_path, rings_file, model_text, section, pattern, repl, message):
        head, header, body = model_text.partition(f"[{section}]\n")
        body, n = re.subn(pattern, repl, body, count=1, flags=re.M)
        assert header and n == 1
        path = tmp_path / "bad.model"
        path.write_text(head + header + body)
        code, _, err = run(capsys, ["predict", "--model", str(path), "--data", rings_file,
                                    "--scores", str(tmp_path / "s.txt")])
        assert code == 3
        assert message in err
