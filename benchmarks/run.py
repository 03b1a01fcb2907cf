"""CPU-time benchmark of the aucmax command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is taken from ./src.
The benchmark writes seeded LibSVM inputs, runs whole rounds of the
workload's aucmax commands until S seconds have passed, checks every output
against computations made here, and prints one JSON object as its last
line. With --trace 0 it reports the end-to-end metrics; with --trace 1 it
also runs each command under benchmarks/tracecli.py and reports the
per-layer metrics instead, writing the spans to benchmarks/_out/.

Times are CPU seconds (user + system) of the processes that run each
command, with BLAS pinned to one thread, so they measure single-thread work
and leave out time the hypervisor steals. Details of every round go to
standard error.
"""

from __future__ import annotations

import os

_ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(_ONE_THREAD)  # before numpy loads BLAS in this process

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

CLI_SEED = 0  # the program's own --seed; the inputs carry the benchmark seed
TEST_FRACTION = 0.2  # the CLI's default held-out share
# Other guests of the shared host slow a vCPU by up to 1.5x, in spells of
# seconds to minutes, so the CPU seconds of the same work vary; they are
# never lower than the work needs. Each command's time is therefore a mean
# over repeats spread over the round, and score_point, whose passes are
# short, is summed up by the fastest pass.
PREDICTS = {"spam-batch": 5, "rings-sgd": 7}  # predict runs per round; 3 where not listed
# rings-sgd fits three times per round, each with another --seed: Lloyd
# needs 25 to 67 iterations, depending on the sample and on where k-means++
# starts, and the mean over three starts, and over three spells of the host,
# narrows the spread between runs. The first fit uses CLI_SEED; its model is
# the one predicted with and checked.
FIT_SEEDS = {"rings-sgd": (CLI_SEED, 1, 2)}  # (CLI_SEED,) where not listed
SETUPS = 5  # fresh interpreters timed per run; setup_s is their mean
SCORE_POINT_ROWS = 200
SCORE_POINT_PASS_S = 1.0  # CPU seconds of score_point calls after each predict
SPAM_C = 1.0
# the SGD loop's work is fixed by the epochs; at 200 it is about 4/5 of the
# rings fit, which dilutes the seed-dependent k-means work
RINGS_EPOCHS = 200
GRID = [2.0**-12, 2.0**-6, 1.0]
GRID_FOLDS = 3
SGD_BATCH_MARGIN = 0.01
# how far the held-out AUC may sit from the AUC of the generator's own score
TRUTH_MARGIN = {"spam-batch": 0.05, "rings-sgd": 0.02, "imbalanced-grid": 0.05}

END_TO_END = [
    ("setup_s", "s"),
    ("fit_cpu_s", "s"),
    ("predict_cpu_s", "s"),
    ("score_point_us", "us"),
    ("model_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
    ("test_auc", "1"),
]


@dataclass
class Command:
    cpu_s: float
    wall_s: float
    rss_mb: float
    stdout: str


class Context:
    """One run: its work directory, the CLI environment and the tracing switch."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.work = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **_ONE_THREAD)
        self.commands = 0
        self.point_calls = 0
        self.spans: list[dict] = []

    def path(self, name: str) -> str:
        return str(self.work / name)

    def cli(self, args: list[str], traced: bool = False) -> Command:
        """Run one aucmax command; CPU time and peak RSS come from wait4."""
        if traced:
            spans = self.path("spans.json")
            argv = [sys.executable, str(HERE / "tracecli.py"), spans, *args]
        else:
            argv = [sys.executable, "-m", "aucmax.cli", *args]
        self.commands += 1
        with open(self.path("stdout"), "w+") as out, open(self.path("stderr"), "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        if proc.returncode != 0:
            raise RuntimeError(f"aucmax {args[0]} exited {proc.returncode}: {stderr.strip()}")
        if traced:
            with open(spans) as fh:
                self.spans.append({"command": args[0], "spans": json.load(fh)})
        return Command(usage.ru_utime + usage.ru_stime, wall, usage.ru_maxrss / 1024.0, stdout)


def measure_setup(env: dict) -> float:
    """Mean CPU seconds of SETUPS fresh interpreters, one after another, that
    each import aucmax.cli and build its parser."""
    code = "import aucmax.cli; aucmax.cli.build_parser()"
    seconds = []
    for _ in range(SETUPS):
        proc = subprocess.Popen([sys.executable, "-c", code], env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"importing aucmax.cli exited {proc.returncode}")
        seconds.append(usage.ru_utime + usage.ru_stime)
    return statistics.fmean(seconds)


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def kv(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


# --- inputs -----------------------------------------------------------------


@dataclass
class Inputs:
    data: inputs.Table  # the file the training commands read
    train: inputs.Table  # its rows the CLI split keeps for training
    scored: inputs.Table  # the rows predict scores
    data_file: str
    scored_file: str
    labels_file: str


def make_inputs(ctx: Context) -> Inputs:
    seed = ctx.seed
    if ctx.workload == "spam-batch":
        data = inputs.make_spam(4601, 0.39, seed)
    elif ctx.workload == "rings-sgd":
        data = inputs.make_rings(20_000, 3.0, seed)
    else:
        data = inputs.make_spam(10_000, 1 / 51, seed, stream=1)
    train_idx, test_idx = inputs.split_rows(data.n, TEST_FRACTION, CLI_SEED)
    if ctx.workload == "imbalanced-grid":
        scored = inputs.make_spam(50_000, 1 / 51, seed, stream=2)
    else:
        scored = data.rows(test_idx)
    files = Inputs(
        data, data.rows(train_idx), scored,
        ctx.path("data.libsvm"), ctx.path("scored.libsvm"), ctx.path("scored.labels"),
    )
    inputs.write_libsvm(files.data_file, data)
    inputs.write_libsvm(files.scored_file, scored)
    inputs.write_labels(files.labels_file, scored.y)
    return files


# --- one round --------------------------------------------------------------


def fit_commands(ctx: Context, inp: Inputs, model: str, cli_seed: int = CLI_SEED, traced: bool = False):
    """The workload's training commands; returns them and the C of the batch model."""
    data = ["--data", inp.data_file, "--seed", str(cli_seed)]
    if ctx.workload == "spam-batch":
        cmd = ctx.cli(["train-batch", *data, "--landmarks", "1600", "--c", repr(SPAM_C), "--model", model], traced)
        return [cmd], SPAM_C, None
    if ctx.workload == "rings-sgd":
        cmd = ctx.cli(["train-sgd", *data, "--landmarks", "400", "--epochs", str(RINGS_EPOCHS), "--model", model],
                      traced)
        return [cmd], None, None
    report = ctx.path("grid.csv")
    grid = ",".join(repr(c) for c in GRID)
    search = ctx.cli(
        ["gridsearch", *data, "--solver", "batch", "--folds", str(GRID_FOLDS),
         "--landmarks", "400", "--grid", grid, "--report", report],
        traced,
    )
    out = kv(search.stdout)
    selected = float(out["selected"])
    train = ctx.cli(["train-batch", *data, "--landmarks", "400", "--c", repr(selected), "--model", model], traced)
    return [search, train], selected, (report, selected, float(out["mean_auc"]))


def read_scores(path: str) -> np.ndarray:
    with open(path) as fh:
        return np.array([float(line) for line in fh])


def pipeline_parts(model_path: str):
    from aucmax.model import load_model

    pipe = load_model(model_path)
    emb = pipe.embedding
    parts = checks.Pipeline(
        pipe.standardizer.mean, pipe.standardizer.stdev, emb.landmarks.centroids,
        emb.kernel.sigma2, emb.projection, pipe.linear.w,
    )
    return pipe, parts


def score_point_passes(pipe, rows: list) -> tuple[list[float], np.ndarray]:
    """Call score_point over the rows, in whole passes, until SCORE_POINT_PASS_S
    CPU seconds have gone; returns each pass's CPU seconds per call, and the
    scores."""
    values = np.empty(len(rows))
    per_call, start = [], time.process_time()
    while not per_call or time.process_time() - start < SCORE_POINT_PASS_S:
        t0 = time.process_time()
        for i, x in enumerate(rows):
            values[i] = pipe.score_point(x)
        per_call.append((time.process_time() - t0) / len(rows))
    return per_call, values


def verify(results: list, name: str, good, bad):
    """Record a check on the real output and on its corrupted twin."""
    ok, detail = good
    caught, _ = bad
    results.append({"check": name, "ok": bool(ok), "corruption_caught": not caught, "detail": detail})


def run_round(ctx: Context, inp: Inputs) -> tuple[dict, list[dict], dict]:
    """Fit once per FIT_SEEDS entry and predict PREDICTS times, each predict
    followed by score_point calls.

    The fit at CLI_SEED comes first and the other fits go between the
    predicts, so that every time's samples spread over the whole round: the
    host's speed drifts over tens of seconds. Repeated predicts must write
    byte-identical scores. The fit and predict times are means over their
    repeats; score_point's is its fastest pass.
    """
    from aucmax.dataio import SparseVector

    model, scores_file = ctx.path("model.txt"), ctx.path("scores.txt")
    _, *other_seeds = FIT_SEEDS.get(ctx.workload, (CLI_SEED,))
    fits, C, grid = fit_commands(ctx, inp, model)
    fit_runs, outputs = [fits], set()
    n_predicts = PREDICTS.get(ctx.workload, 3)
    points = [SparseVector(np.flatnonzero(x), x[np.flatnonzero(x)]) for x in inp.scored.X[:SCORE_POINT_ROWS]]
    predicts, point_per_call = [], []
    for k in range(n_predicts):
        predicts.append(ctx.cli(["predict", "--model", model, "--data", inp.scored_file, "--scores", scores_file]))
        outputs.add(digest(scores_file))
        if k == 0:
            pipe, parts = pipeline_parts(model)
        per_call, point_scores = score_point_passes(pipe, points)
        point_per_call.extend(per_call)
        if other_seeds and (k + 1) % (n_predicts // (len(other_seeds) + 1)) == 0:
            other_fits, _, _ = fit_commands(ctx, inp, ctx.path("other-model.txt"), other_seeds.pop(0))
            fit_runs.append(other_fits)
    ctx.point_calls += len(point_per_call) * len(points)
    scores = read_scores(scores_file)
    y = inp.scored.y
    metrics = {
        "fit_cpu_s": statistics.fmean(sum(c.cpu_s for c in fits) for fits in fit_runs),
        "predict_cpu_s": statistics.fmean(c.cpu_s for c in predicts),
        "score_point_us": 1e6 * min(point_per_call),
        "model_bytes": os.path.getsize(model),
        "peak_rss_mb": max(c.rss_mb for fits in fit_runs for c in fits),
        "test_auc": checks.pair_count_auc(scores, y),
    }
    detail = {
        "fit_wall_s": statistics.fmean(sum(c.wall_s for c in fits) for fits in fit_runs),
        "predict_wall_s": statistics.fmean(c.wall_s for c in predicts),
        "score_point_mean_us": 1e6 * statistics.fmean(point_per_call),
    }

    results: list[dict] = [
        {"check": "repeats_agree", "ok": len(outputs) == 1, "corruption_caught": True, "detail": ""}
    ]
    printed = ctx.cli(["eval-auc", "--scores", scores_file, "--labels", inp.labels_file]).stdout
    verify(results, "auc_matches_eval_auc",
           checks.auc_matches_eval(scores, y, printed),
           checks.auc_matches_eval(checks.flip_top_positive(scores, y), y, printed))
    margin = TRUTH_MARGIN[ctx.workload]
    verify(results, "auc_near_ground_truth",
           checks.auc_near_truth(scores, y, inp.scored.truth, margin),
           checks.auc_near_truth(-scores, y, inp.scored.truth, margin))
    n_point = point_scores.size
    verify(results, "scores_match_recomputed",
           checks.scores_match(np.concatenate([scores, point_scores]), parts,
                               np.vstack([inp.scored.X, inp.scored.X[:n_point]])),
           checks.scores_match(checks.flip_largest(scores), parts, inp.scored.X))
    verify(results, "landmark_kernel_reproduced",
           checks.landmark_kernel(parts), checks.landmark_kernel(checks.perturb_projection(parts)))

    X_train = parts.embed(inp.train.X)
    if C is not None:
        tol = float(pipe.linear.hyperparameters["grad_tol"])
        w = parts.w
        verify(results, "batch_first_order",
               checks.first_order(w, X_train, inp.train.y, C, tol),
               checks.first_order(checks.perturb_weights(w), X_train, inp.train.y, C, tol))
    else:
        from aucmax import BatchConfig, EmbeddedDataset, train_batch

        ref = train_batch(EmbeddedDataset(X_train, inp.train.y), BatchConfig(C=1.0))
        batch_scores = parts.embed(inp.scored.X) @ ref.w
        verify(results, "sgd_near_batch",
               checks.sgd_near_batch(scores, batch_scores, y, SGD_BATCH_MARGIN),
               checks.sgd_near_batch(-scores, batch_scores, y, SGD_BATCH_MARGIN))
    if grid is not None:
        report, selected, mean_auc = grid
        rows = checks.read_grid_report(report)
        verify(results, "grid_selection",
               checks.grid_selection(rows, GRID, GRID_FOLDS, selected, mean_auc),
               checks.grid_selection(checks.swap_best_and_worst(rows), GRID, GRID_FOLDS, selected, mean_auc))

    if ctx.trace:
        traced_model, traced_scores = ctx.path("traced-model.txt"), ctx.path("traced-scores.txt")
        traced_fits, _, _ = fit_commands(ctx, inp, traced_model, traced=True)
        ctx.cli(["predict", "--model", traced_model, "--data", inp.scored_file, "--scores", traced_scores], True)
        same = digest(traced_model) == digest(model) and digest(traced_scores) == digest(scores_file)
        results.append({"check": "tracing_changes_no_output", "ok": same, "corruption_caught": True, "detail": ""})
        detail["traced_fit_cpu_s"] = sum(c.cpu_s for c in traced_fits)
        detail["untraced_fit_cpu_s"] = sum(c.cpu_s for c in fit_runs[0])  # the same --seed
    return metrics, results, detail


# --- per-layer metrics from spans -------------------------------------------


def layer_table(commands: list[dict]) -> dict:
    """Self time per layer: each span's time less the part its children cover."""
    table: dict[str, dict] = {}
    for command in commands:
        covered: dict[int, float] = {}
        for s in command["spans"]:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        for s in command["spans"]:
            row = table.setdefault(s["name"].split(".")[0], {"self_s": 0.0, "spans": 0})
            row["self_s"] += s["end"] - s["start"] - covered.get(s["id"], 0.0)
            row["spans"] += 1
    return table


def layer_metrics(commands: list[dict], traced_fit_cpu: float, fit_cpu: float) -> tuple[dict, dict]:
    """Per-layer metrics and the self-time table from one round's spans."""
    spans = [dict(s, dur=s["end"] - s["start"]) for c in commands for s in c["spans"]]
    table = layer_table(commands)

    def total(name, field="dur"):
        return float(sum(s.get(field, 0) for s in spans if s["name"] == name))

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    parse_s = total("dataio.parse")
    solves = count("batch.train")
    steps = total("batch.train", "newton_steps")
    trials = total("batch.train", "aggregates") - solves
    sgd_s, sgd_iters = total("sgd.train"), total("sgd.train", "iters")
    ranks = [s["rank"] for s in spans if s["name"] == "embedding.fit_nystroem"]
    out = {
        "dataio.parse_s": parse_s,
        "dataio.parse_rows_per_s": total("dataio.parse", "rows") / parse_s,
        "dataio.standardize_s": total("dataio.standardize"),
        "kernels.bandwidth_s": total("kernels.bandwidth"),
        "embedding.kmeans_s": total("embedding.kmeans"),
        "embedding.fit_nystroem_s": total("embedding.fit_nystroem"),
        "embedding.embed_s": total("embedding.embed"),
        "embedding.rank": ranks[-1],
        "batch.train_s": total("batch.train"),
        "batch.solves": solves,
        "batch.newton_steps": steps,
        "batch.cg_iters": total("batch.cg", "cg_iters"),
        "batch.hvp_count": count("batch.hvp"),
        "batch.hvp_s": total("batch.hvp"),
        "batch.linesearch_trials": trials,
        "batch.linesearch_accept_ratio": steps / trials if trials else 0.0,
        "batch.converged_solves": total("batch.train", "converged"),
        "sgd.train_s": sgd_s,
        "sgd.iters": sgd_iters,
        "sgd.us_per_iter": 1e6 * sgd_s / sgd_iters if sgd_iters else 0.0,
        "sgd.captures": total("sgd.train", "captures"),
        "metrics.auc_s": total("metrics.auc"),
        "model.save_s": total("model.save"),
        "model.load_s": total("model.load"),
        "model.score_s": total("model.score"),
        "cli.self_s": table["cli"]["self_s"],
        "trace.overhead_s": traced_fit_cpu - fit_cpu,
    }
    return out, table


PER_LAYER_UNITS = {
    "dataio.parse_rows_per_s": "rows/s",
    "embedding.rank": "count",
    "batch.solves": "count",
    "batch.newton_steps": "count",
    "batch.cg_iters": "count",
    "batch.hvp_count": "count",
    "batch.linesearch_trials": "count",
    "batch.linesearch_accept_ratio": "1",
    "batch.converged_solves": "count",
    "sgd.iters": "count",
    "sgd.us_per_iter": "us",
    "sgd.captures": "count",
}


# --- driver -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRUTH_MARGIN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aucmax" / "cli.py").is_file():
        print(f"error: no aucmax source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import aucmax

    if Path(aucmax.__file__).resolve().parent != (SRC / "aucmax").resolve():
        print(f"error: imported aucmax from {aucmax.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    ctx = Context(args.workload, args.seed, bool(args.trace))
    try:
        setup_s = measure_setup(ctx.env)
        inp = make_inputs(ctx)
        rounds, results, layers = [], [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            ctx.spans = []
            metrics, checked, detail = run_round(ctx, inp)
            rounds.append(metrics)
            results.extend(checked)
            if ctx.trace:
                layers.append(layer_metrics(ctx.spans, detail["traced_fit_cpu_s"], detail["untraced_fit_cpu_s"]))
                _write_trace(ctx, ctx.spans, layers[-1])
            print(json.dumps({"round": len(rounds), **metrics, **detail, "checks": checked}), file=sys.stderr)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    correct = all(r["ok"] and r["corruption_caught"] for r in results)
    for r in results:
        if not (r["ok"] and r["corruption_caught"]):
            print(f"check failed: {r}", file=sys.stderr)
    if ctx.trace:
        metrics = {
            name: {"value": statistics.median(l[0][name] for l in layers), "unit": PER_LAYER_UNITS.get(name, "s")}
            for name in layers[0][0]
        }
    else:
        values = {"setup_s": setup_s}
        values.update({k: statistics.median(r[k] for r in rounds) for k in rounds[0]})
        metrics = {k: {"value": float(values[k]), "unit": unit} for k, unit in END_TO_END}
    attempted = ctx.commands + ctx.point_calls
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


def _write_trace(ctx: Context, commands: list[dict], layer: tuple[dict, dict]):
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{ctx.workload}-seed{ctx.seed}.json"
    metrics, table = layer
    with open(path, "w") as fh:
        json.dump({"metrics": metrics, "layers": table, "commands": commands}, fh)
    print(f"{'layer':<10} {'self_s':>9} {'spans':>7}", file=sys.stderr)
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<10} {row['self_s']:9.3f} {row['spans']:7d}", file=sys.stderr)
    print(f"trace.overhead_s {metrics['trace.overhead_s']:.3f}   spans: {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
