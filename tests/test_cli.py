"""End-to-end command-line tests.

Commands run in-process through main(argv) so exit codes and printed
key=value lines can be asserted directly.
"""

import argparse
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aucmax
from aucmax.cli import build_parser, main
from aucmax.dataio import Dataset, parse_libsvm, split, to_libsvm
from aucmax.model import load_model, save_model
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


def recorded(monkeypatch, name):
    """The configs that the CLI passes to its solver `name`, in call order."""
    configs = []
    solver = getattr(aucmax.cli, name)

    def record(data, cfg, **kwargs):
        configs.append(cfg)
        return solver(data, cfg, **kwargs)

    monkeypatch.setattr(aucmax.cli, name, record)
    return configs


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["train-batch"],
            ["train-sgd", "--epochs", "3"],
            ["train-sgd", "--epochs", "3", "--curve", "curve.csv"],
        ],
        ids=["train-batch", "train-sgd", "train-sgd-curve"],
    )
    def test_printed_test_auc_is_eval_auc_of_predict(self, capsys, tmp_path, rings_file, argv, monkeypatch):
        # the held-out rows are scored as predict scores them: through the folded weights
        monkeypatch.chdir(tmp_path)
        model, rows, scores = str(tmp_path / "m.model"), tmp_path / "held.libsvm", str(tmp_path / "s.txt")
        code, out, _ = run(capsys, [*argv, "--data", rings_file, "--landmarks", "32", "--seed", "4",
                                    "--model", model])
        assert code == 0
        with open(rings_file) as fh:
            _, held_out = split(parse_libsvm(fh), 0.2, 4)
        rows.write_text(to_libsvm(held_out))
        assert run(capsys, ["predict", "--model", model, "--data", str(rows), "--scores", scores])[0] == 0
        code, evaluated, _ = run(capsys, ["eval-auc", "--scores", scores, "--labels", str(rows)])
        assert code == 0
        assert parse_kv(out)["test_auc"] == evaluated.strip()

    def test_converged_line(self, capsys, tmp_path, rings_file):
        argv = ["train-batch", "--data", rings_file, "--landmarks", "16",
                "--model", str(tmp_path / "m")]
        code, out, _ = run(capsys, argv)
        assert code == 0
        keys = [line.partition("=")[0] for line in out.splitlines()]
        assert keys == ["train_auc", "test_auc", "embedding_seconds", "rank", "training_seconds",
                        "converged", "model"]
        assert parse_kv(out)["converged"] == "1"
        code, out, _ = run(capsys, [*argv, "--max-outer", "1"])
        assert code == 0
        assert parse_kv(out)["converged"] == "0"

    def test_sigma2_flag_fixes_the_bandwidth(self, capsys, tmp_path, rings_file):
        model = str(tmp_path / "m.model")
        assert run(capsys, ["train-batch", "--data", rings_file, "--landmarks", "8",
                            "--sigma2", "2.5", "--model", model])[0] == 0
        assert load_model(model).embedding.kernel.sigma2 == 2.5

    def test_sgd_prints_no_converged_line(self, capsys, tmp_path, rings_file):
        code, out, _ = run(capsys, ["train-sgd", "--data", rings_file, "--landmarks", "16",
                                    "--epochs", "1", "--model", str(tmp_path / "m")])
        assert code == 0
        assert "converged" not in parse_kv(out)

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

        pipe = load_model(model)
        with open(rings_file) as fh:
            data = parse_libsvm(fh)
        expected = pipe.score(data)
        reloaded = np.array([float(x) for x in scores_path.read_text().split()])
        assert np.array_equal(reloaded, expected)

    @pytest.mark.parametrize("embedding", ["nystroem", "rff"])
    def test_predict_scores_a_far_row_finitely(self, capsys, tmp_path, rings_file, embedding):
        # ||x||^2 of the first row overflows float64, where the distance formula gives nan
        model, rows, scores = (str(tmp_path / name) for name in ("m.model", "far.libsvm", "s.txt"))
        assert run(capsys, ["train-batch", "--data", rings_file, "--landmarks", "6", "--embedding", embedding,
                            "--model", model])[0] == 0
        Path(rows).write_text("1 1:1e308 2:0\n-1 1:0.5 2:0.5\n")
        assert run(capsys, ["predict", "--model", model, "--data", rows, "--scores", scores])[0] == 0
        assert run(capsys, ["eval-auc", "--scores", scores, "--labels", rows])[0] == 0


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

    def test_fractional_label_is_data_error(self, capsys, tmp_path):
        (tmp_path / "s.txt").write_text("0.9\n0.1\n0.5\n")
        (tmp_path / "l.txt").write_text("1\n-1\n1.7\n")
        code, out, err = run(capsys, ["eval-auc", "--scores", str(tmp_path / "s.txt"),
                                      "--labels", str(tmp_path / "l.txt")])
        assert code == 3 and not out
        assert "line 3: label '1.7' is not an integer" in err

    def test_malformed_score_line(self, capsys, tmp_path):
        (tmp_path / "s.txt").write_text("0.9\nnope\n")
        (tmp_path / "l.txt").write_text("1\n-1\n")
        code, _, err = run(capsys, ["eval-auc", "--scores", str(tmp_path / "s.txt"),
                                    "--labels", str(tmp_path / "l.txt")])
        assert code == 3
        assert f"{tmp_path / 's.txt'}: line 2: " in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_score_names_file_and_line(self, capsys, tmp_path, value):
        scores = tmp_path / "s.txt"
        scores.write_text(f"0.9\n{value}\n")
        (tmp_path / "l.txt").write_text("1\n-1\n")
        code, out, err = run(capsys, ["eval-auc", "--scores", str(scores),
                                      "--labels", str(tmp_path / "l.txt")])
        assert code == 3 and not out
        assert err == f"error: {scores}: line 2: score {value!r} is not finite\n"

    def test_length_mismatch_names_both_files(self, capsys, tmp_path):
        scores, labels = tmp_path / "s.txt", tmp_path / "l.txt"
        scores.write_text("0.9\n0.8\n0.1\n")
        labels.write_text("1\n-1\n")
        code, out, err = run(capsys, ["eval-auc", "--scores", str(scores), "--labels", str(labels)])
        assert code == 3 and not out
        assert err == f"error: {scores} has 3 scores but {labels} has 2 labels\n"


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

    def test_repeated_value_is_trained_and_reported_once(self, capsys, monkeypatch, tmp_path, rings_file):
        configs = recorded(monkeypatch, "train_batch")
        found = {}
        for grid in ("1,1,0.5", "0.5,1"):
            report = tmp_path / "grid.csv"
            code, out, _ = run(capsys, ["gridsearch", "--data", rings_file, "--solver", "batch",
                                        "--grid", grid, "--folds", "2", "--landmarks", "16",
                                        "--report", str(report)])
            assert code == 0
            with open(report, newline="") as fh:
                found[grid] = out, [row[:-1] for row in csv.reader(fh)]  # all but the seconds
        # each value once per fold, in both runs
        assert [cfg.C for cfg in configs] == [0.5, 1.0] * 4
        assert found["1,1,0.5"] == found["0.5,1"]

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

    @pytest.mark.parametrize("value", ["1,zebra", ",", ""], ids=["bad-token", "no-token", "empty"])
    @pytest.mark.parametrize("flag", ["--positive-labels", "--grid", "--epochs-grid", "--seeds"])
    def test_bad_comma_list_exits_two(self, capsys, tmp_path, rings_file, flag, value):
        command = {
            "--positive-labels": ["train-batch", "--model", str(tmp_path / "m")],
            "--grid": ["gridsearch", "--solver", "batch"],
            "--epochs-grid": ["convergence", "--report", str(tmp_path / "r.csv")],
            "--seeds": ["convergence", "--report", str(tmp_path / "r.csv")],
        }[flag]
        code, _, err = run(capsys, [*command, "--data", rings_file, flag, value])
        assert code == 2
        assert err.startswith(f"error: {flag} ")


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

    def test_snapshots_match_standalone_runs(self, capsys, tmp_path):
        # an averaged snapshot at epoch e must equal a separate run trained
        # for e epochs; on noisier rings than rings_file's, the two
        # variants' AUCs differ
        data = tmp_path / "noisy.libsvm"
        data.write_text(to_libsvm(make_rings(n=600, seed=3, noise=0.4)))
        report = str(tmp_path / "conv.csv")
        run(capsys, [
            "convergence", "--data", str(data), "--landmarks", "16",
            "--seed", "5", "--lambda", "1e-7", "--epochs-grid", "2,4",
            "--seeds", "5", "--report", report,
        ])
        with open(report, newline="") as fh:
            table = {(r["variant"], int(r["epochs"])): float(r["test_auc"])
                     for r in csv.DictReader(fh)}
        assert all(table[("averaged", e)] != table[("non-averaged", e)] for e in (2, 4))

        for epochs in (2, 4):
            model = str(tmp_path / f"e{epochs}.model")
            code, out, _ = run(capsys, [
                "train-sgd", "--data", str(data), "--landmarks", "16",
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

    def test_repeated_seed_is_trained_and_reported_once(self, capsys, monkeypatch, tmp_path, rings_file):
        configs = recorded(monkeypatch, "train_sgd")
        found = {}
        for given in ("3,3", "3"):
            report = tmp_path / "conv.csv"
            assert run(capsys, ["convergence", "--data", rings_file, "--landmarks", "16",
                                "--lambda", "1e-7", "--epochs-grid", "1,2", "--seeds", given,
                                "--report", str(report)])[0] == 0
            with open(report, newline="") as fh:
                found[given] = [row[:-1] for row in csv.reader(fh)]  # all but the seconds
        assert [cfg.seed for cfg in configs] == [3, 3]  # one run per command
        assert len(found["3"]) == 1 + 2 * 2  # variants x epochs
        assert found["3,3"] == found["3"]


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

    @pytest.mark.parametrize("token, message", [
        ("9223372036854775808:2", "line 1: feature index 9223372036854775808"),
        ("4611686018427387904:2", "1 x 4611686018427387904"),
        ("3", "line 1: malformed feature token '3'"),
        ("x:2", "line 1: feature index 'x' is not an integer"),
        ("3:inf", "line 1: feature value 'inf' is not finite"),
    ], ids=["beyond-intp", "array-too-big", "malformed-token", "index-not-integer", "value-not-finite"])
    def test_oversized_feature_index(self, capsys, tmp_path, token, message):
        # and the other feature tokens that parse_libsvm refuses
        data = tmp_path / "wide.libsvm"
        data.write_text(f"+1 1:1 {token}\n")
        code, _, err = run(capsys, ["kmeans", "--data", str(data), "--landmarks", "1",
                                    "--out", str(tmp_path / "c.txt")])
        assert code == 3
        assert message in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_single_class_data(self, capsys, tmp_path):
        bad = tmp_path / "one.libsvm"
        bad.write_text("1 1:1.0\n1 1:2.0\n")
        assert run(capsys, ["train-batch", "--data", str(bad),
                            "--model", str(tmp_path / "m")])[0] == 3

    @pytest.mark.parametrize("command", ["train-batch", "train-sgd"])
    def test_single_class_holdout_writes_no_model(self, capsys, tmp_path, command):
        # 3 positives in 30 rows; the first seed whose 6 held-out rows are all
        # negative leaves both classes in training, so only scoring fails
        data = Dataset(np.arange(60.0).reshape(30, 2), np.array([1] * 3 + [-1] * 27))
        seed = next(s for s in range(100) if set(split(data, 0.2, s)[1].y) == {-1})
        path = tmp_path / "holdout.libsvm"
        path.write_text(to_libsvm(data))
        model = tmp_path / "m.model"
        epochs = ["--epochs", "1"] if command == "train-sgd" else []
        code, _, err = run(capsys, [
            command, "--data", str(path), "--landmarks", "4", *epochs,
            "--seed", str(seed), "--model", str(model),
        ])
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not model.exists()

    @pytest.mark.parametrize("command, flag, value", [("train-batch", "--c", "1e200"),
                                                      ("train-sgd", "--lambda", "1e-320"),
                                                      ("train-sgd", "--lambda", "1e-300")],
                             ids=["batch-c", "sgd-lambda", "sgd-lambda-1e-300"])
    def test_overflowing_regularization_exits_four(self, capsys, tmp_path, command, flag, value):
        # the squared gradient norm at w = 0, the SGD step sizes, or the SGD
        # weights overflow; a silent all-zero model is not a result, and the
        # error line is the only report: no RuntimeWarning comes before it
        # (tier-1 turns RuntimeWarnings into errors)
        path = tmp_path / "rings300.libsvm"
        path.write_text(to_libsvm(make_rings(n=300, seed=3)))
        model = tmp_path / "m.model"
        code, _, err = run(capsys, [command, "--data", str(path), "--landmarks", "20",
                                    flag, value, "--model", str(model)])
        assert code == 4
        assert err.startswith("error: ") and "overflow" in err and err.count("\n") == 1
        assert not model.exists()

    @pytest.mark.parametrize("flags", [("--t0", "99999999999999999999"),
                                       ("--askip", "99999999999999999999"),
                                       ("--t0", str(2**64), "--rskip", str(2**63)),
                                       ("--t0", str(2**63 - 1), "--epochs", "1")],
                             ids=["t0", "askip", "rskip", "t0-plus-iterations"])
    def test_schedule_beyond_int64_exits_two(self, capsys, tmp_path, flags):
        # the schedule runs in int64: past it numpy raises OverflowError, or
        # t + t0 wraps and the model comes out all zero
        path = tmp_path / "rings300.libsvm"
        path.write_text(to_libsvm(make_rings(n=300, seed=3)))
        model = tmp_path / "m.model"
        code, _, err = run(capsys, ["train-sgd", "--data", str(path), "--landmarks", "20",
                                    *flags, "--model", str(model)])
        assert code == 2
        assert err.startswith("error: the schedule leaves int64") and err.count("\n") == 1
        assert not model.exists()

    @pytest.mark.parametrize("value", ["1e200", "1e160"])
    def test_overflowing_feature_exits_three(self, capsys, tmp_path, value):
        # the feature's variance overflows float64, which the constant test
        # must not take for a column of one value
        path = tmp_path / "rings101.libsvm"
        path.write_text(to_libsvm(make_rings(n=100, seed=3)) + f"1 1:{value} 2:0\n")
        model = tmp_path / "m.model"
        code, _, err = run(capsys, ["train-batch", "--data", str(path), "--landmarks", "5",
                                    "--model", str(model)])
        assert code == 3
        assert err.startswith("error: feature 1 is too large to standardize") and err.count("\n") == 1
        assert not model.exists()

    @pytest.mark.parametrize("flag, value", [("--grad-tol", "inf"), ("--grad-tol", "nan")],
                             ids=["grad-tol-inf", "grad-tol-nan"])
    def test_non_finite_tolerance_exits_two(self, capsys, tmp_path, rings_file, flag, value):
        model = tmp_path / "m.model"
        code, _, err = run(capsys, ["train-batch", "--data", rings_file, "--landmarks", "5",
                                    flag, value, "--model", str(model)])
        assert code == 2
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
        assert not model.exists()

    def test_unallocatable_rff_feature_count_exits_two(self, capsys, tmp_path, rings_file):
        # 2**62 rows of frequencies is too big for numpy to try, so nothing is allocated
        model = tmp_path / "m.model"
        code, _, err = run(capsys, ["train-sgd", "--data", rings_file, "--embedding", "rff",
                                    "--landmarks", str(2**62), "--model", str(model)])
        assert code == 2
        assert err.startswith("error: cannot allocate") and err.count("\n") == 1
        assert not model.exists()

    @staticmethod
    def required(tmp_path, command):
        """The flags besides --data that the command requires."""
        return {"train-batch": ["--model", str(tmp_path / "m.model")],
                "train-sgd": ["--model", str(tmp_path / "m.model")],
                "gridsearch": ["--solver", "batch"],
                "convergence": ["--report", str(tmp_path / "c.csv")],
                "embed": ["--out", str(tmp_path / "f.csv")],
                "kmeans": ["--out", str(tmp_path / "c.txt")]}[command]

    def assert_unrecognized(self, capsys, tmp_path, rings_file, command, flag, value):
        """flag is unknown to command, under either embedding where the command takes one."""
        embeddings = [[]] if command == "kmeans" else [["--embedding", e] for e in ("rff", "nystroem")]
        for embedding in embeddings:
            with pytest.raises(SystemExit) as exc:
                main([command, "--data", rings_file, *embedding, flag, value, *self.required(tmp_path, command)])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["train-batch", "train-sgd", "gridsearch", "convergence", "embed"])
    def test_rank_with_rff_exits_two(self, capsys, tmp_path, rings_file, command):
        # --rank is gone: the Nystroem rank is the count of landmarks kept
        self.assert_unrecognized(capsys, tmp_path, rings_file, command, "--rank", "3")

    @pytest.mark.parametrize("command", ["train-batch", "train-sgd", "gridsearch", "convergence", "embed", "kmeans"])
    def test_kmeans_iters_with_rff_exits_two(self, capsys, tmp_path, rings_file, command):
        # --kmeans-iters is gone: Lloyd runs to kmeans's own cap
        self.assert_unrecognized(capsys, tmp_path, rings_file, command, "--kmeans-iters", "5")

    @pytest.mark.parametrize("flag, value", [("--cg-tol", "0.01"), ("--cg-max", "50")])
    def test_cg_caps_exit_two(self, capsys, tmp_path, rings_file, flag, value):
        # the truncated CG's tolerance and cap are BatchConfig's alone
        self.assert_unrecognized(capsys, tmp_path, rings_file, "train-batch", flag, value)

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
        assert run(capsys, ["train-batch", "--data", str(multi), "--landmarks", "2",
                            "--positive-labels", "x,y",
                            "--model", str(tmp_path / "m")])[0] == 2

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



def relabeled(rings_file, path, new_label) -> str:
    """A copy of rings_file with row i's label y replaced by new_label(i, y)."""
    with open(rings_file) as src, open(path, "w") as out:
        for i, line in enumerate(src):
            label, _, features = line.partition(" ")
            out.write(f"{new_label(i, int(label))} {features}")
    return str(path)


def exit_code(capsys, argv):
    """main's exit code, whether it returns it or argparse exits; and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestUnusableInput:
    """Each file a subcommand reads, replaced by one it cannot use."""

    READS = [("train-batch", "--data"), ("train-sgd", "--data"), ("predict", "--data"),
             ("predict", "--model"), ("eval-auc", "--scores"), ("eval-auc", "--labels"),
             ("gridsearch", "--data"), ("convergence", "--data"), ("kmeans", "--data"),
             ("embed", "--data")]

    @staticmethod
    def argv(tmp_path, rings_file, model_text, command, flag, bad):
        model = tmp_path / "m.model"
        model.write_text(model_text)
        scores, labels = tmp_path / "s.txt", tmp_path / "l.txt"
        scores.write_text("0.5\n0.1\n")
        labels.write_text("+1\n-1\n")
        out = str(tmp_path / "out")
        args = {
            "train-batch": ["--data", rings_file, "--landmarks", "4", "--model", out],
            "train-sgd": ["--data", rings_file, "--landmarks", "4", "--epochs", "1", "--model", out],
            "predict": ["--model", str(model), "--data", rings_file, "--scores", out],
            "eval-auc": ["--scores", str(scores), "--labels", str(labels)],
            "gridsearch": ["--data", rings_file, "--landmarks", "4", "--solver", "batch"],
            "convergence": ["--data", rings_file, "--landmarks", "4", "--report", out],
            "kmeans": ["--data", rings_file, "--landmarks", "4", "--out", out],
            "embed": ["--data", rings_file, "--landmarks", "4", "--out", out],
        }[command]
        args[args.index(flag) + 1] = str(bad)
        return [command, *args]

    @pytest.mark.parametrize("command, flag", READS)
    def test_undecodable_bytes_exit_three(self, capsys, tmp_path, rings_file, model_text, command, flag):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"+1 1:0.5\n-1 1:caf\xe9\n")
        code, err = exit_code(capsys, self.argv(tmp_path, rings_file, model_text, command, flag, bad))
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err

    @pytest.mark.parametrize("command, flag", READS)
    def test_malformed_line_names_file_and_line(self, capsys, tmp_path, rings_file, model_text, command, flag):
        bad = tmp_path / "bad.txt"
        if flag == "--model":
            lines = model_text.splitlines(keepends=True)
            bad.write_text(lines[0] + "garbage\n" + "".join(lines[2:]))
        else:
            bad.write_text("0.5\nabc\n" if flag == "--scores" else "+1 1:0.5\nx 1:0.3\n")
        code, err = exit_code(capsys, self.argv(tmp_path, rings_file, model_text, command, flag, bad))
        assert code == 3
        assert err.startswith(f"error: {bad}: line 2: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, flag", READS)
    @pytest.mark.parametrize("kind", ["directory", "under-a-file"])
    def test_unusable_path_exits_two(self, capsys, tmp_path, rings_file, model_text, command, flag, kind):
        bad = tmp_path / "dir"
        bad.mkdir()
        if kind == "under-a-file":
            (bad / "file").write_text("")
            bad = bad / "file" / "child"
        code, err = exit_code(capsys, self.argv(tmp_path, rings_file, model_text, command, flag, bad))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err


def test_predict_opens_data_before_reading_the_model(capsys, tmp_path, monkeypatch):
    def load_model(path):
        raise AssertionError("the model was read before --data was opened")

    monkeypatch.setattr("aucmax.cli.load_model", load_model)
    code, err = exit_code(capsys, ["predict", "--model", str(tmp_path / "m.model"),
                                   "--data", str(tmp_path / "missing.libsvm"), "--scores", str(tmp_path / "s")])
    assert code == 2
    assert "missing.libsvm" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["train-batch", "kmeans"])
def test_label_outside_int64_exits_three(capsys, tmp_path, command):
    data = tmp_path / "big.libsvm"
    data.write_text("+1 1:0.5\n1e30 1:0.5\n-1 1:0.2\n")
    out = ["--model", str(tmp_path / "m")] if command == "train-batch" else ["--out", str(tmp_path / "c")]
    code, err = exit_code(capsys, [command, "--data", str(data), "--landmarks", "1", *out])
    assert code == 3
    assert err == f"error: {data}: line 2: label '1e30' does not fit a 64-bit integer\n"


@pytest.mark.parametrize("argv", [
    ["train-batch", "--seed", "-1", "--model", "OUT"],
    ["train-sgd", "--seed", "-1", "--model", "OUT"],
    ["gridsearch", "--seed", "-1", "--solver", "sgd"],
    ["kmeans", "--seed", "-1", "--out", "OUT"],
    ["embed", "--seed", "-1", "--out", "OUT"],
    ["convergence", "--seeds", "0,-1", "--report", "OUT"],
], ids=["train-batch", "train-sgd", "gridsearch", "kmeans", "embed", "convergence-seeds"])
def test_negative_seed_is_a_usage_error(capsys, tmp_path, rings_file, argv):
    command, *rest = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    code, err = exit_code(capsys, [command, "--data", rings_file, "--landmarks", "4", *rest])
    assert code == 2
    assert "seed must be >= 0, got -1" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


class TestLabelSets:
    """predict reads no labels; training splits any label set the same way."""

    def test_predict_ignores_labels(self, capsys, tmp_path, rings_file):
        model = str(tmp_path / "m.model")
        assert run(capsys, ["train-batch", "--data", rings_file, "--landmarks", "16",
                            "--model", model])[0] == 0
        written = []
        for name, new_label in (("pm1", lambda i, y: y), ("zeros", lambda i, y: 0),
                                ("three", lambda i, y: i % 3)):
            data = relabeled(rings_file, tmp_path / f"{name}.libsvm", new_label)
            scores = tmp_path / f"{name}.scores"
            assert run(capsys, ["predict", "--model", model, "--data", data,
                                "--scores", str(scores)])[0] == 0
            written.append(scores.read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    def weights(self, capsys, tmp_path, data, *flags):
        model = str(tmp_path / "w.model")
        assert run(capsys, ["train-batch", "--data", data, "--landmarks", "16",
                            "--model", model, *flags])[0] == 0
        return load_model(model).linear.w

    def test_positive_labels_on_two_valued_file(self, capsys, tmp_path, rings_file):
        three_seven = relabeled(rings_file, tmp_path / "37.libsvm", lambda i, y: 7 if y == 1 else 3)
        seven_three = relabeled(rings_file, tmp_path / "73.libsvm", lambda i, y: 3 if y == 1 else 7)
        plain = self.weights(capsys, tmp_path, three_seven)
        np.testing.assert_array_equal(
            self.weights(capsys, tmp_path, three_seven, "--positive-labels", "7"), plain)
        np.testing.assert_array_equal(
            self.weights(capsys, tmp_path, three_seven, "--positive-labels", "3"),
            self.weights(capsys, tmp_path, seven_three))

class TestFlagsReachSolvers:
    """A non-default value of every solver flag ends up in the solver's config."""

    def hyperparameters(self, capsys, tmp_path, rings_file, *argv):
        model = str(tmp_path / "m.model")
        assert run(capsys, [*argv, "--data", rings_file, "--landmarks", "16", "--model", model])[0] == 0
        return load_model(model).linear.hyperparameters

    def test_train_batch(self, capsys, tmp_path, rings_file):
        found = self.hyperparameters(capsys, tmp_path, rings_file, "train-batch", "--c", "2",
                                     "--grad-tol", "1e-3", "--max-outer", "7")
        # the CG caps are BatchConfig's defaults, which no flag sets
        assert found == {"c": 2.0, "grad_tol": 1e-3, "max_outer": 7, "cg_tol": 0.1, "cg_max": 200}

    def test_train_sgd(self, capsys, tmp_path, rings_file):
        found = self.hyperparameters(capsys, tmp_path, rings_file, "train-sgd", "--lambda", "1e-6",
                                     "--t0", "100", "--epochs", "3", "--rskip", "4", "--askip", "8",
                                     "--seed", "5")
        assert found == {"lambda": 1e-6, "t0": 100, "epochs": 3, "rskip": 4, "askip": 8, "seed": 5}

    def test_gridsearch_sgd(self, capsys, monkeypatch, rings_file):
        configs = recorded(monkeypatch, "train_sgd")
        assert run(capsys, ["gridsearch", "--data", rings_file, "--solver", "sgd", "--landmarks", "16",
                            "--grid", "1e-6,1e-7", "--folds", "2", "--seed", "2", "--t0", "50",
                            "--epochs", "2", "--rskip", "4", "--askip", "4"])[0] == 0
        # each fold trains the grid in ascending order
        assert configs == [aucmax.SgdConfig(lam=lam, t0=50, epochs=2, rskip=4, askip=4, seed=2)
                           for _ in range(2) for lam in (1e-7, 1e-6)]

    def test_gridsearch_batch(self, capsys, monkeypatch, rings_file):
        configs = recorded(monkeypatch, "train_batch")
        assert run(capsys, ["gridsearch", "--data", rings_file, "--solver", "batch", "--landmarks", "16",
                            "--grid", "0.5,2", "--folds", "2"])[0] == 0
        assert configs == [aucmax.BatchConfig(C=c) for _ in range(2) for c in (0.5, 2.0)]

    def test_convergence(self, capsys, monkeypatch, tmp_path, rings_file):
        configs = recorded(monkeypatch, "train_sgd")
        assert run(capsys, ["convergence", "--data", rings_file, "--landmarks", "16",
                            "--epochs-grid", "1,2", "--seeds", "3,4", "--lambda", "1e-6", "--t0", "50",
                            "--rskip", "4", "--askip", "4", "--report", str(tmp_path / "c.csv")])[0] == 0
        # one averaged run per seed holds both variants
        assert configs == [aucmax.SgdConfig(lam=1e-6, t0=50, epochs=2, rskip=4, askip=4, seed=seed)
                           for seed in (3, 4)]


    @pytest.mark.parametrize("command", ["train-batch", "kmeans"], ids=["train-batch-default", "kmeans-default"])
    def test_kmeans_iters(self, capsys, monkeypatch, tmp_path, rings_file, command):
        # no cap is passed, so Lloyd runs to kmeans's own default
        calls = []
        fit = aucmax.cli.kmeans

        def record(data, **kwargs):
            calls.append(kwargs)
            return fit(data, **kwargs)

        monkeypatch.setattr(aucmax.cli, "kmeans", record)
        out = ["--model", str(tmp_path / "m.model")] if command == "train-batch" else ["--out", str(tmp_path / "c")]
        assert run(capsys, [command, "--data", rings_file, "--landmarks", "16", "--seed", "2", *out])[0] == 0
        assert calls == [{"v": 16, "seed": 2}]


# option -> (default, required) for every subcommand; argparse's -h is left out
OPTIONS = {
    "train-batch": {
        "--data": (None, True),
        "--test-fraction": (0.2, False),
        "--seed": (0, False),
        "--positive-labels": (None, False),
        "--sigma2": (None, False),
        "--embedding": ("nystroem", False),
        "--landmarks": (1600, False),
        "--c": (1.0, False),
        "--grad-tol": (None, False),
        "--max-outer": (100, False),
        "--model": (None, True),
    },
    "train-sgd": {
        "--data": (None, True),
        "--test-fraction": (0.2, False),
        "--seed": (0, False),
        "--positive-labels": (None, False),
        "--sigma2": (None, False),
        "--embedding": ("nystroem", False),
        "--landmarks": (1600, False),
        "--lambda": (1e-08, False),
        "--t0": (10000, False),
        "--epochs": (20, False),
        "--rskip": (16, False),
        "--askip": (16, False),
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
        "--embedding": ("nystroem", False),
        "--landmarks": (1600, False),
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
        "--embedding": ("nystroem", False),
        "--landmarks": (1600, False),
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
        "--landmarks": (1600, False),
        "--out": (None, True),
    },
    "embed": {
        "--data": (None, True),
        "--seed": (0, False),
        "--positive-labels": (None, False),
        "--sigma2": (None, False),
        "--embedding": ("nystroem", False),
        "--landmarks": (1600, False),
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
        ("linear", r"^weights \d+ \d+$", "weights 1", "expected matrix header 'weights'"),
        ("nystroem", r"^sigma2 \S+$", "sigma2 abc", "line "),
        ("nystroem", r"^seed \S+$", "seed x", "line "),
        ("linear", r"^c \S+$", "c abc", "line "),
        ("nystroem", r"^sigma2 \S+$", "sigma2 -1", "line "),
        ("linear", r"^embedding_id \S+$", "embedding_id deadbeef", "embedding_id"),
        ("linear", r"^weights 1 \d+$", "weights 1 5", "line "),
        ("nystroem", r"^v \d+$", "v 999", "line "),
        ("nystroem", r"^r \d+$", "r 3", "rank 3 differs from the landmark count"),
        ("nystroem", r"^r \d+$", "r 17", "rank 17"),
        ("nystroem", r"^d \d+$", "d 7", "line "),
        ("linear", r"^trained_by \S+\n", "", "line "),
        ("linear", r"^embedding_id \S+\n", "", "line "),
        ("linear", r"^embedding_id \S+$", "embedding_id", "line "),
        ("standardizer", r"^(mean 1 \d+\n)\S+", r"\1nan", "finite"),
        ("standardizer", r"^(stdev 1 \d+\n)\S+", r"\1nan", "finite"),
        ("standardizer", r"^(stdev 1 \d+\n)\S+", r"\1inf", "finite"),
        ("linear", r"^(weights 1 \d+\n)\S+", r"\1nan", "finite"),
        ("linear", r"^(weights 1 \d+\n)\S+ \S+", r"\g<1>1.7e308 1.7e308", "overflow"),
        ("nystroem", r"^v \d+(\n(?:.*\n)*?centroids )\d+", r"v 99999999999\g<1>99999999999", "row has"),
        ("nystroem", r"^d \d+(\n(?:.*\n)*?centroids \d+ )\d+", r"d 99999999999\g<1>99999999999", "row has"),
    ], ids=["matrix-cell", "missing-dim", "matrix-header", "matrix-header-short", "sigma2-text", "seed-text",
            "c-text", "sigma2-negative", "foreign-embedding-id", "weights-length", "nystroem-v",
            "nystroem-r", "nystroem-r-beyond-v", "nystroem-d", "missing-trained-by", "missing-embedding-id",
            "empty-embedding-id", "nan-mean", "nan-stdev", "inf-stdev", "nan-weight",
            "overflowing-weights", "rows-beyond-the-file", "columns-beyond-the-row"])
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
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("array, value", [("frequencies", np.nan), ("phases", np.inf)],
                             ids=["nan-frequency", "inf-phase"])
    def test_non_finite_random_feature_exits_three(self, capsys, tmp_path, rings_file, array, value):
        # save_model writes the embedding_id of the damaged arrays, so only the finite check can refuse them
        path = tmp_path / "rff.model"
        assert main(["train-batch", "--data", rings_file, "--embedding", "rff", "--landmarks", "16",
                     "--model", str(path)]) == 0
        pipe = load_model(str(path))
        getattr(pipe.embedding, array).flat[1] = value
        save_model(str(path), pipe)
        capsys.readouterr()
        code, _, err = run(capsys, ["predict", "--model", str(path), "--data", rings_file,
                                    "--scores", str(tmp_path / "s.txt")])
        assert code == 3
        assert err == f"error: {path}: frequencies and phases must be finite\n"

    def test_far_landmark_exits_three(self, capsys, tmp_path, rings_file):
        # past a squared norm of 2**1021 the distance formula can overflow
        # into nan against this landmark
        path = tmp_path / "far.model"
        assert main(["train-batch", "--data", rings_file, "--landmarks", "6", "--model", str(path)]) == 0
        pipe = load_model(str(path))
        pipe.embedding.landmarks.centroids[0] = [1e200, 0.0]
        save_model(str(path), pipe)
        capsys.readouterr()
        code, _, err = run(capsys, ["predict", "--model", str(path), "--data", rings_file,
                                    "--scores", str(tmp_path / "s.txt")])
        assert code == 3
        assert err == f"error: {path}: landmarks must be finite, with squared norms below 2**1021\n"

    @pytest.mark.parametrize("damage", ["cell", "short-row"])
    def test_matrix_error_names_its_line(self, capsys, tmp_path, rings_file, model_text, damage):
        lines = model_text.splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("centroids "))
        row = header + 1 + int(lines[header].split()[1]) // 2
        values = lines[row].split()
        lines[row] = " ".join(values[:-1] if damage == "short-row" else [values[0], "abc", *values[2:]])
        path = tmp_path / "bad.model"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, ["predict", "--model", str(path), "--data", rings_file,
                                    "--scores", str(tmp_path / "s.txt")])
        assert code == 3
        assert f"line {row + 1}: matrix 'centroids'" in err

    def test_format_one_is_refused(self, capsys, tmp_path, rings_file, model_text):
        path = tmp_path / "old.model"
        path.write_text(model_text.replace("aucmax-model 2\n", "aucmax-model 1\n", 1))
        code, _, err = run(capsys, ["predict", "--model", str(path), "--data", rings_file,
                                    "--scores", str(tmp_path / "s.txt")])
        assert code == 3
        assert err == f"error: {path}: line 1: model format 1 is no longer read: train the model again\n"

    def test_error_names_the_model_file(self, capsys, tmp_path, rings_file, model_text):
        # an error found while building the pipeline, after parsing, names the model too
        path = tmp_path / "foreign.model"
        path.write_text(re.sub(r"^embedding_id \S+$", "embedding_id deadbeef", model_text, flags=re.M))
        code, _, err = run(capsys, ["predict", "--model", str(path), "--data", rings_file,
                                    "--scores", str(tmp_path / "s.txt")])
        assert code == 3
        assert err.startswith(f"error: {path}: embedding_id") and rings_file not in err

    def test_error_names_the_file_line_past_blank_lines(self, capsys, tmp_path, rings_file, model_text):
        lines = model_text.splitlines()
        meta = lines.index("[meta]")
        lines[meta + 1 : meta + 1] = ["", "", ""]
        at = next(i for i, line in enumerate(lines) if line.startswith("sigma2 "))
        lines[at] = "sigma2 abc"
        path = tmp_path / "bad.model"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, ["predict", "--model", str(path), "--data", rings_file,
                                    "--scores", str(tmp_path / "s.txt")])
        assert code == 3
        assert f"line {at + 1}: bad value for 'sigma2'" in err


# Two format 2 files written by the release that whitened a rank-deficient
# landmark kernel matrix by its eigendecomposition, from `train-batch
# --landmarks 4` on make_rings(n=60, seed=5): OLD_FULL_MODEL has r = v, and
# OLD_CAPPED_MODEL, trained with `--rank 2` as well, r < v. OLD_FULL_SCORES is
# what that release's predict wrote for OLD_FULL_MODEL on OLD_ROWS.
OLD_FULL_MODEL = """\
aucmax-model 2
[meta]
seed 0
test_fraction 0.20000000000000001
[standardizer]
dim 2
mean 1 2
-0.25424777386036579 0.042529932677235358
stdev 1 2
1.1366033819595196 1.3607643363594308
[nystroem]
v 4
r 4
d 2
sigma2 2
seed 0
centroids 4 2
-0.78992461943264902 0.76885975505906801
0.68984044481715634 1.1754563791280779
0.98471393333251356 -0.70689947935038677
-0.97365935915615198 -0.90643563978770703
[linear]
trained_by batch
c 1
cg_max 200
cg_tol 0.10000000000000001
grad_tol 0.026305254780596098
max_outer 100
embedding_id 99a313b319c5a754d4bd87ffd8d934fe1fb85c7eb35d6ceba742b8ad2c1c60b3
weights 1 4
1.9390015617819603 1.2369851016056119 2.9308594722526822 0.86890601145345581
"""

OLD_CAPPED_MODEL = """\
aucmax-model 2
[meta]
seed 0
test_fraction 0.20000000000000001
[standardizer]
dim 2
mean 1 2
-0.25424777386036579 0.042529932677235358
stdev 1 2
1.1366033819595196 1.3607643363594308
[nystroem]
v 4
r 2
d 2
sigma2 2
seed 0
centroids 4 2
-0.78992461943264902 0.76885975505906801
0.68984044481715634 1.1754563791280779
0.98471393333251356 -0.70689947935038677
-0.97365935915615198 -0.90643563978770703
[linear]
trained_by batch
c 1
cg_max 200
cg_tol 0.10000000000000001
grad_tol 0.019159888978624664
max_outer 100
embedding_id 600739b69549429bc3bf97493b53110fbc5a3d2734800de524d70c273e337786
weights 1 4
2.5302563162688645 2.1516603963924452 2.1570964786351214 2.3414910822743451
"""

OLD_ROWS = """\
1 1:-0.66376399808119246 2:0.59738739742311131
-1 1:1.8197809674374823 2:0.013717467174400047
-1 1:1.8396808046139532 2:-0.58470253169618069
-1 1:-2.1990451934019908 2:-0.088268978969501893
"""

OLD_FULL_SCORES = """\
4.4827712707882892
3.2121675197698623
3.205363787831812
2.573861437148679
"""


class TestOlderModels:
    def test_full_rank_file_scores_and_resaves_bitwise(self, capsys, tmp_path):
        model, rows, scores = tmp_path / "old.model", tmp_path / "rows.libsvm", tmp_path / "s.txt"
        model.write_text(OLD_FULL_MODEL)
        rows.write_text(OLD_ROWS)
        code, out, _ = run(capsys, ["predict", "--model", str(model), "--data", str(rows), "--scores", str(scores)])
        assert code == 0 and out == "scored=4\n"
        assert scores.read_text() == OLD_FULL_SCORES
        save_model(str(tmp_path / "again.model"), load_model(str(model)))
        assert (tmp_path / "again.model").read_text() == OLD_FULL_MODEL

    def test_file_of_lower_rank_is_refused_at_its_r_line(self, capsys, tmp_path):
        model, rows, scores = tmp_path / "old.model", tmp_path / "rows.libsvm", tmp_path / "s.txt"
        model.write_text(OLD_CAPPED_MODEL)
        rows.write_text(OLD_ROWS)
        code, _, err = run(capsys, ["predict", "--model", str(model), "--data", str(rows), "--scores", str(scores)])
        assert code == 3
        line = OLD_CAPPED_MODEL.splitlines().index("r 2") + 1
        assert err == (f"error: {model}: line {line}: rank 2 differs from the landmark count 4: maps that keep "
                       "fewer directions than landmarks are no longer read: train the model again\n")
        assert not scores.exists()


def test_cli_start_imports_no_scipy():
    # importing scipy costs every CLI start about 23 MB of resident memory
    src = Path(aucmax.__file__).resolve().parents[1]
    probe = (
        "import sys, aucmax.cli; aucmax.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "command", ["train-batch", "train-sgd", "gridsearch-sgd", "convergence", "predict", "kmeans", "embed"]
)
def test_batch_training_and_predict_import_no_scipy(tmp_path, rings_file, command):
    # no command imports scipy: numpy is the only runtime dependency
    model = str(tmp_path / "m.model")
    small = ["--landmarks", "16"]
    argv = {
        "train-batch": ["train-batch", "--data", rings_file, *small, "--model", model],
        "train-sgd": ["train-sgd", "--data", rings_file, *small, "--epochs", "2", "--model", model],
        "gridsearch-sgd": ["gridsearch", "--data", rings_file, *small, "--solver", "sgd", "--grid", "1e-7",
                           "--folds", "2", "--epochs", "1"],
        "convergence": ["convergence", "--data", rings_file, *small, "--epochs-grid", "1,2",
                        "--report", str(tmp_path / "r.csv")],
        "predict": ["predict", "--model", model, "--data", rings_file, "--scores", str(tmp_path / "s.txt")],
        "kmeans": ["kmeans", "--data", rings_file, *small, "--out", str(tmp_path / "c.txt")],
        "embed": ["embed", "--data", rings_file, *small, "--out", str(tmp_path / "e.csv")],
    }
    if command == "predict":
        assert main(argv["train-batch"]) == 0
    src = Path(aucmax.__file__).resolve().parents[1]
    probe = (
        "import sys, aucmax.cli; code = aucmax.cli.main(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(code)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv[command]],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"
