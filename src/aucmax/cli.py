"""Command-line pipeline driver.

Subcommands: train-batch, train-sgd, predict, eval-auc, gridsearch,
convergence, kmeans, embed. Exit codes: 0 success, 2 usage error, 3 data
error, 4 numerical failure. Reports are CSV with a header row; training
commands print key=value lines so scripts can scrape them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
import time

import numpy as np

from .batch import BatchConfig, train_batch
from .dataio import (
    Dataset,
    binary_labels,
    format_float,
    format_floats,
    open_text,
    parse_libsvm,
    split,
    standardize_apply,
    standardize_fit,
)
from .embedding import embed, fit_nystroem, fit_rff, kmeans
from .errors import ConfigError, DataError, NumericalError, ParseError
from .kernels import GaussianKernelParams, bandwidth_heuristic
from .metrics import auc
from .model import TrainedPipeline, load_model, save_model
from .sgd import SgdConfig, train_sgd

DEFAULT_C_GRID = [2.0**k for k in range(-15, 11)]
DEFAULT_LAMBDA_GRID = [1e-10, 1e-9, 1e-8, 1e-7]
DEFAULT_EPOCHS_GRID = [1, 2, 3, 4, 5, 10, 20, 50, 100, 200, 300, 400]


# ---------------------------------------------------------------------------
# shared flag groups
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only non-negative seeds."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text}")
    return int(text)


# every shared flag, declared once; each dest is the config field it sets and
# each solver default is the config's own
_FLAGS = {
    "--data": dict(required=True, help="LibSVM-format input file"),
    "--test-fraction": dict(
        type=float, default=0.2, help="held-out fraction for the random split (default 0.2)"
    ),
    "--seed": dict(type=_seed, default=0, help="seed for every random stage"),
    "--positive-labels": dict(default=None, help="comma-separated labels grouped as the positive class"),
    "--sigma2": dict(type=float, default=None, help="kernel bandwidth (squared-distance units)"),
    "--embedding": dict(
        choices=("nystroem", "rff"), default="nystroem", help="feature construction (default nystroem)"
    ),
    "--landmarks": dict(
        type=int, default=1600, help="landmark cap v, or the rff feature count (default %(default)s)"
    ),
    "--model": dict(required=True, help="model file, written by training and read by predict"),
    "--c": dict(dest="C", type=float, default=BatchConfig.C, help="pair-loss weight C (default %(default)s)"),
    "--grad-tol": dict(type=float, default=BatchConfig.grad_tol, help="gradient-norm stop (default relative)"),
    "--max-outer": dict(type=int, default=BatchConfig.max_outer, help="Newton step cap (default %(default)s)"),
    "--lambda": dict(
        dest="lam", type=float, default=SgdConfig.lam, help="regularization scale (default %(default)s)"
    ),
    "--t0": dict(type=int, default=SgdConfig.t0, help="step-size offset (default %(default)s)"),
    "--epochs": dict(type=int, default=SgdConfig.epochs, help="passes over the rows (default %(default)s)"),
    "--rskip": dict(
        type=int, default=SgdConfig.rskip, help="iterations between shrink events (default %(default)s)"
    ),
    "--askip": dict(
        type=int, default=SgdConfig.askip, help="iterations between mean captures (default %(default)s)"
    ),
}
_DATA = ("--data", "--seed", "--positive-labels")
_EMBEDDING = ("--sigma2", "--embedding", "--landmarks")
_BATCH = ("--c", "--grad-tol", "--max-outer")
_SGD = ("--lambda", "--t0", "--epochs", "--rskip", "--askip")


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def _comma_list(flag: str, text: str, kind) -> list:
    """The values of a comma-separated flag; a bad token or no value is a ConfigError."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"{flag} {text!r}: {exc}") from None
    if not values:
        raise ConfigError(f"{flag} is empty")
    return values


def _load_grouped(args) -> Dataset:
    """--data with +-1 labels, grouped by --positive-labels when given."""
    positive = None
    if args.positive_labels is not None:
        positive = _comma_list("--positive-labels", args.positive_labels, int)
    with open_text(args.data) as fh:
        data = parse_libsvm(fh)
        return Dataset(data.X, binary_labels(data.y, positive))


def _fit_embedded(args, train: Dataset, *held_out: Dataset):
    """Fit the standardizer and the embedding map on train; embed train and
    each held-out set. The last value is the seconds all of this took."""
    t0 = time.perf_counter()
    standardizer = standardize_fit(train)
    standardized = [standardize_apply(standardizer, d) for d in (train, *held_out)]
    if args.sigma2 is not None:
        kernel = GaussianKernelParams(args.sigma2)
    else:
        kernel = bandwidth_heuristic(standardized[0])
    if args.embedding == "rff":
        emb_map = fit_rff(train.dim, args.landmarks, kernel, seed=args.seed)
    else:
        lm = kmeans(standardized[0], v=args.landmarks, seed=args.seed, kernel=kernel)
        emb_map = fit_nystroem(lm, kernel, seed=args.seed)
    embedded = [embed(emb_map, d) for d in standardized]
    return standardizer, emb_map, embedded, time.perf_counter() - t0


def _prepare(args, embed_test: bool = False):
    """parse -> group -> split -> fit on the training part and embed it.

    The held-out part comes back raw, to be scored through the folded
    weights, and also embedded when embed_test: for commands that score it
    once per epoch or per seed.
    """
    data = _load_grouped(args)
    train, test = split(data, args.test_fraction, args.seed)
    standardizer, emb_map, embedded, seconds = _fit_embedded(args, train, *([test] if embed_test else []))
    return standardizer, emb_map, test, embedded, seconds


def _config(cls, args, **fields):
    """A BatchConfig or SgdConfig from the flags the subcommand takes, but for those left None;
    fields set the rest. Commands build theirs before they open --data: a bad setting is
    refused before any input is read."""
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
    taken = {name: value for name, value in given.items() if value is not None}
    return cls(**{**taken, **fields})


def _write_csv(path: str, header: list, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _print_rank(args, emb_map):
    print(f"rank={emb_map.rank}")
    if args.embedding == "nystroem":  # random features prune nothing
        print(f"pruned_landmarks={emb_map.diagnostics['pruned_landmarks']}")


def _report_and_save(args, standardizer, emb_map, emb_train, test, linear, embedding_seconds):
    meta = {"seed": str(args.seed), "test_fraction": format_float(args.test_fraction)}
    if args.positive_labels:
        meta["positive_labels"] = args.positive_labels
    pipe = TrainedPipeline(standardizer, emb_map, linear, meta=meta)
    # both AUCs first: a held-out part of one class fails here, before any file is written.
    # The held-out rows are scored as predict scores them, through the folded weights.
    train_auc = auc(emb_train.X @ linear.w, emb_train.y).auc
    test_auc = auc(pipe.score(test), test.y).auc
    save_model(args.model, pipe)
    print(f"train_auc={train_auc:.6f}")
    print(f"test_auc={test_auc:.6f}")
    print(f"embedding_seconds={embedding_seconds:.3f}")
    _print_rank(args, emb_map)
    print(f"training_seconds={linear.diagnostics['seconds']:.3f}")
    if "converged" in linear.diagnostics:  # the batch solver's; SGD has no stopping test
        print(f"converged={int(linear.diagnostics['converged'])}")
    print(f"model={args.model}")
    return 0


def cmd_train_batch(args) -> int:
    cfg = _config(BatchConfig, args)
    standardizer, emb_map, test, (emb_train,), emb_sec = _prepare(args)
    linear = train_batch(emb_train, cfg)
    return _report_and_save(args, standardizer, emb_map, emb_train, test, linear, emb_sec)


def cmd_train_sgd(args) -> int:
    cfg = _config(SgdConfig, args)
    standardizer, emb_map, test, embedded, emb_sec = _prepare(args, embed_test=bool(args.curve))
    rows = []

    def snapshot(epoch, w, last, elapsed):
        # the AUC on the training rows, then on the held-out rows
        rows.append([epoch, *(f"{auc(d.X @ w, d.y).auc:.6f}" for d in embedded), f"{elapsed:.6f}"])

    callback = snapshot if args.curve else None
    linear = train_sgd(embedded[0], cfg, epoch_callback=callback)
    if args.curve:
        _write_csv(args.curve, ["epoch", "train_auc", "test_auc", "elapsed_seconds"], rows)
    return _report_and_save(args, standardizer, emb_map, embedded[0], test, linear, emb_sec)


def cmd_predict(args) -> int:
    open(args.data).close()  # an unusable --data fails before the model is read
    pipe = load_model(args.model)
    with open_text(args.data) as fh:
        data = parse_libsvm(fh, dim=pipe.dim)
    scores = pipe.score(data)
    with open(args.scores, "w") as fh:
        for s in scores:
            fh.write(format_float(s) + "\n")
    print(f"scored={scores.shape[0]}")
    return 0


def cmd_eval_auc(args) -> int:
    scores = []
    with open_text(args.scores) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                scores.append(float(line))
            except ValueError:
                raise ParseError(f"score {line!r} is not a number", lineno) from None
            if not math.isfinite(scores[-1]):
                raise ParseError(f"score {line!r} is not finite", lineno)
    with open_text(args.labels) as fh:
        labels = binary_labels(parse_libsvm(fh).y)
    if len(scores) != labels.size:
        raise DataError(f"{args.scores} has {len(scores)} scores but {args.labels} has {labels.size} labels")
    result = auc(np.asarray(scores), labels, "strict" if args.strict else "half")
    print(f"{result.auc:.6f}")
    return 0


def _stratified_folds(data: Dataset, k: int, seed: int) -> list[np.ndarray]:
    pos, neg = data.class_indices()
    if pos.size < k or neg.size < k:
        raise DataError(
            f"{k}-fold split leaves a fold without both classes "
            "(try fewer folds or a different stratification seed)"
        )
    rng = np.random.default_rng(seed)
    rng.shuffle(pos)
    rng.shuffle(neg)
    return [np.sort(np.concatenate([pos[i::k], neg[i::k]])) for i in range(k)]


def cmd_gridsearch(args) -> int:
    if args.solver == "batch":
        cls, field, train, grid = BatchConfig, "C", train_batch, DEFAULT_C_GRID
        for flag in _SGD[1:]:
            if getattr(args, flag[2:]) is not None:
                raise ConfigError(f"{flag} applies to --solver sgd only")
    else:
        cls, field, train, grid = SgdConfig, "lam", train_sgd, DEFAULT_LAMBDA_GRID
    if args.grid is not None:
        grid = sorted(set(_comma_list("--grid", args.grid, float)))
    configs = [_config(cls, args, **{field: value}) for value in grid]
    if args.folds < 2:
        raise ConfigError(f"need at least 2 folds, got {args.folds}")

    data = _load_grouped(args)
    folds = _stratified_folds(data, args.folds, args.seed)
    all_idx = np.arange(data.n)
    rows = []
    for fold_id, val_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, val_idx)
        _, _, (emb_train, emb_val), _ = _fit_embedded(args, data.subset(train_idx), data.subset(val_idx))
        for value, cfg in zip(grid, configs):
            linear = train(emb_train, cfg)
            score = auc(emb_val.X @ linear.w, emb_val.y).auc
            rows.append((value, fold_id, score, linear.diagnostics["seconds"]))

    means = {value: np.mean([r[2] for r in rows if r[0] == value]) for value in grid}
    best_auc = max(means.values())
    candidates = [value for value in grid if means[value] == best_auc]
    # ties break toward stronger regularization
    selected = min(candidates) if args.solver == "batch" else max(candidates)

    rows.sort(key=lambda r: (r[0], r[1]))
    if args.report:
        _write_csv(
            args.report,
            ["value", "fold", "auc", "seconds"],
            (
                [format_float(value), fold_id, f"{score:.6f}", f"{seconds:.6f}"]
                for value, fold_id, score, seconds in rows
            ),
        )
    print(f"selected={format_float(selected)}")
    print(f"mean_auc={means[selected]:.6f}")
    return 0


def cmd_convergence(args) -> int:
    epochs_grid = DEFAULT_EPOCHS_GRID
    if args.epochs_grid is not None:
        epochs_grid = sorted(set(_comma_list("--epochs-grid", args.epochs_grid, int)))
    if epochs_grid[0] < 1:
        raise ConfigError("epochs grid must contain positive integers")
    seeds = [args.seed] if args.seeds is None else sorted(set(_comma_list("--seeds", args.seeds, _seed)))
    configs = [_config(SgdConfig, args, epochs=epochs_grid[-1], seed=seed) for seed in seeds]

    _, _, _, (emb_train, emb_test), emb_sec = _prepare(args, embed_test=True)
    rows = []
    for cfg in configs:
        # one run per seed gives both variants: its mean and its last iterate
        def snapshot(epoch, w, last, elapsed, seed=cfg.seed):
            if epoch in epochs_grid:
                for variant, weights in (("averaged", w), ("non-averaged", last)):
                    score = auc(emb_test.X @ weights, emb_test.y).auc
                    rows.append((variant, epoch, seed, score, elapsed))

        train_sgd(emb_train, cfg, epoch_callback=snapshot)

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(
        args.report,
        ["variant", "epochs", "seed", "test_auc", "train_seconds"],
        ([variant, epoch, seed, f"{score:.6f}", f"{sec:.6f}"] for variant, epoch, seed, score, sec in rows),
    )
    print(f"report={args.report}")
    print(f"embedding_seconds={emb_sec:.3f}")
    return 0


def cmd_kmeans(args) -> int:
    with open_text(args.data) as fh:
        data = parse_libsvm(fh)
    lm = kmeans(data, v=args.landmarks, seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write(f"{lm.v} {lm.dim}\n")
        for row in lm.centroids:
            fh.write(format_floats(row) + "\n")
    print(f"landmarks={lm.v}")
    print(f"dim={lm.dim}")
    return 0


def cmd_embed(args) -> int:
    data = _load_grouped(args)
    _, emb_map, (emb,), seconds = _fit_embedded(args, data)
    _write_csv(
        args.out,
        ["label"] + [f"f{k}" for k in range(emb.dim)],
        ([int(label)] + [format_float(v) for v in row] for label, row in zip(emb.y, emb.X)),
    )
    _print_rank(args, emb_map)
    print(f"embedding_seconds={seconds:.3f}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aucmax",
        description="AUC maximization with kernel feature embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *flags):
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command(
        "train-batch", cmd_train_batch, "embed and train the Newton solver",
        *_DATA, "--test-fraction", *_EMBEDDING, *_BATCH, "--model",
    )

    p = command(
        "train-sgd", cmd_train_sgd, "embed and train the stochastic solver",
        *_DATA, "--test-fraction", *_EMBEDDING, *_SGD, "--model",
    )
    p.add_argument("--curve", default=None, help="per-epoch AUC curve CSV")

    p = command("predict", cmd_predict, "score a dataset with a saved model", "--model", "--data")
    p.add_argument("--scores", required=True, help="output file, one score per line")

    p = command("eval-auc", cmd_eval_auc, "AUC of a scores file against a labels file")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--strict", action="store_true", help="count ties as losses")

    p = command(
        "gridsearch", cmd_gridsearch, "stratified cross-validation over C or lambda", *_DATA, *_EMBEDDING,
    )
    for flag in _SGD[1:]:
        # unset unless given, so that --solver batch can refuse a given one
        spec = _FLAGS[flag]
        p.add_argument(flag, **{**spec, "default": None, "help": "--solver sgd: " + spec["help"] % spec})
    p.add_argument("--solver", choices=("batch", "sgd"), required=True)
    p.add_argument("--grid", default=None, help="comma-separated values (defaults per solver)")
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--report", default=None, help="per-cell CSV report")

    p = command(
        "convergence", cmd_convergence, "test AUC per epoch count, both variants",
        *_DATA, "--test-fraction", *_EMBEDDING, "--lambda", "--t0", "--rskip", "--askip",
    )
    p.add_argument("--epochs-grid", default=None, help="comma-separated epoch counts")
    p.add_argument("--seeds", default=None, help="comma-separated solver seeds")
    p.add_argument("--report", required=True, help="output CSV")

    p = command("kmeans", cmd_kmeans, "write landmark centroids for a dataset", "--data", "--seed", "--landmarks")
    p.add_argument("--out", required=True, help="output centroid file")

    p = command("embed", cmd_embed, "fit an embedding and write embedded features", *_DATA, *_EMBEDDING)
    p.add_argument("--out", required=True, help="output features CSV")

    return parser


_EXIT_CODES = {ConfigError: 2, OSError: 2, DataError: 3, NumericalError: 4}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
