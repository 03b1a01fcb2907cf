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


def _add_data_flags(p: argparse.ArgumentParser, with_split: bool = True, with_labels: bool = True):
    p.add_argument("--data", required=True, help="LibSVM-format input file")
    if with_split:
        p.add_argument(
            "--test-fraction",
            type=float,
            default=0.2,
            help="held-out fraction for the random split (default 0.2)",
        )
    p.add_argument("--seed", type=_seed, default=0, help="seed for every random stage")
    if with_labels:
        p.add_argument(
            "--positive-labels",
            default=None,
            help="comma-separated labels grouped as the positive class",
        )


def _add_kernel_flags(p: argparse.ArgumentParser):
    p.add_argument("--sigma2", type=float, default=None, help="kernel bandwidth (squared-distance units)")
    p.add_argument(
        "--bandwidth-cap",
        type=int,
        default=80000,
        help="instances used by the bandwidth heuristic (default 80000)",
    )


def _add_embedding_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--embedding",
        choices=("nystroem", "rff"),
        default="nystroem",
        help="feature construction (default nystroem)",
    )
    _add_landmark_flags(p)
    p.add_argument("--rank", type=int, default=None, help="embedding rank cap (default: full)")


def _add_landmark_flags(p: argparse.ArgumentParser):
    p.add_argument("--landmarks", type=int, default=1600, help="landmark count v (default 1600)")
    p.add_argument("--kmeans-iters", type=int, default=100, help="Lloyd iteration cap (default 100)")


def _add_batch_flags(p: argparse.ArgumentParser):
    p.add_argument("--c", type=float, default=1.0, help="pair-loss weight C (default 1)")
    p.add_argument("--grad-tol", type=float, default=None, help="gradient-norm stop (default relative)")
    p.add_argument("--max-outer", type=int, default=100)
    p.add_argument(
        "--cg-tol",
        type=float,
        default=1e-3,
        help="CG stop: unpreconditioned residual relative to the gradient norm (default 1e-3)",
    )
    p.add_argument("--cg-max", type=int, default=200, help="CG iteration cap per Newton step (default 200)")


# every SGD flag, declared once; each subcommand adds the ones it takes
_SGD_FLAGS = {
    "--lambda": dict(dest="lam", type=float, default=1e-8, help="regularization scale"),
    "--t0": dict(type=int, default=10_000, help="step-size offset (default 10000)"),
    "--epochs": dict(type=int, default=20),
    "--rskip": dict(type=int, default=16, help="iterations between shrink events"),
    "--askip": dict(type=int, default=16, help="iterations between mean captures"),
    "--no-averaging": dict(action="store_true", help="return the last iterate instead"),
}


def _add_sgd_flags(p: argparse.ArgumentParser, flags):
    for flag in flags:
        p.add_argument(flag, **_SGD_FLAGS[flag])


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
    with open_text(args.data) as fh:
        data = parse_libsvm(fh)
    positive = None
    if args.positive_labels is not None:
        positive = _comma_list("--positive-labels", args.positive_labels, int)
    return Dataset(data.X, binary_labels(data.y, positive))


def _kernel_params(args, standardized: Dataset) -> GaussianKernelParams:
    if args.sigma2 is not None:
        return GaussianKernelParams(args.sigma2)
    return bandwidth_heuristic(standardized, cap=args.bandwidth_cap)


def _fit_embedded(args, train: Dataset, *held_out: Dataset):
    """Fit the standardizer and the embedding map on train; embed train and each held-out set."""
    standardizer = standardize_fit(train)
    standardized = [standardize_apply(standardizer, d) for d in (train, *held_out)]
    kernel = _kernel_params(args, standardized[0])
    if args.embedding == "rff":
        emb_map = fit_rff(train.dim, args.landmarks, kernel, seed=args.seed)
    else:
        lm = kmeans(standardized[0], v=args.landmarks, max_iter=args.kmeans_iters, seed=args.seed)
        emb_map = fit_nystroem(lm, kernel, rank_cap=args.rank, seed=args.seed)
    return standardizer, emb_map, [embed(emb_map, d) for d in standardized]


def _prepare(args):
    """parse -> group -> split -> embed both parts."""
    data = _load_grouped(args)
    train, test = split(data, args.test_fraction, args.seed)
    t0 = time.perf_counter()
    standardizer, emb_map, (emb_train, emb_test) = _fit_embedded(args, train, test)
    embedding_seconds = time.perf_counter() - t0
    return standardizer, emb_map, emb_train, emb_test, embedding_seconds


def _sgd_config(args, **fields) -> SgdConfig:
    """SgdConfig from the SGD flags the subcommand takes; fields set the rest."""
    taken = {f.name: getattr(args, f.name) for f in dataclasses.fields(SgdConfig) if hasattr(args, f.name)}
    if hasattr(args, "no_averaging"):
        taken["averaging"] = not args.no_averaging
    return SgdConfig(**{**taken, **fields})


def _report_and_save(args, standardizer, emb_map, emb_train, emb_test, linear, embedding_seconds):
    meta = {"seed": str(args.seed), "test_fraction": format_float(args.test_fraction)}
    if args.positive_labels:
        meta["positive_labels"] = args.positive_labels
    pipe = TrainedPipeline(standardizer, emb_map, linear, meta=meta)
    # both AUCs first: a held-out part of one class fails here, before any file is written
    train_auc = auc(emb_train.X @ linear.w, emb_train.y).auc
    test_auc = auc(emb_test.X @ linear.w, emb_test.y).auc
    save_model(args.model, pipe)
    print(f"train_auc={train_auc:.6f}")
    print(f"test_auc={test_auc:.6f}")
    print(f"embedding_seconds={embedding_seconds:.3f}")
    print(f"training_seconds={linear.diagnostics['seconds']:.3f}")
    if "converged" in linear.diagnostics:  # the batch solver's; SGD has no stopping test
        print(f"converged={int(linear.diagnostics['converged'])}")
    print(f"model={args.model}")
    return 0


def cmd_train_batch(args) -> int:
    standardizer, emb_map, emb_train, emb_test, emb_sec = _prepare(args)
    cfg = BatchConfig(
        C=args.c,
        grad_tol=args.grad_tol,
        max_outer=args.max_outer,
        cg_tol=args.cg_tol,
        cg_max=args.cg_max,
    )
    linear = train_batch(emb_train, cfg)
    return _report_and_save(args, standardizer, emb_map, emb_train, emb_test, linear, emb_sec)


def cmd_train_sgd(args) -> int:
    standardizer, emb_map, emb_train, emb_test, emb_sec = _prepare(args)
    cfg = _sgd_config(args)
    rows = []

    def snapshot(epoch, w, elapsed):
        rows.append(
            (
                epoch,
                auc(emb_train.X @ w, emb_train.y).auc,
                auc(emb_test.X @ w, emb_test.y).auc,
                elapsed,
            )
        )

    callback = snapshot if args.curve else None
    linear = train_sgd(emb_train, cfg, epoch_callback=callback)
    if args.curve:
        with open(args.curve, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_auc", "test_auc", "elapsed_seconds"])
            for epoch, tr, te, sec in rows:
                writer.writerow([epoch, f"{tr:.6f}", f"{te:.6f}", f"{sec:.6f}"])
    return _report_and_save(args, standardizer, emb_map, emb_train, emb_test, linear, emb_sec)


def cmd_predict(args) -> int:
    pipe = load_model(args.model)
    with open_text(args.data) as fh:
        try:
            data = parse_libsvm(fh, dim=pipe.dim)
        except DataError as exc:
            raise DataError(f"model expects dimension {pipe.dim}: {exc}") from exc
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
                raise DataError(f"{args.scores}:{lineno}: not a number: {line!r}")
    with open_text(args.labels) as fh:
        try:
            labels = parse_libsvm(fh).y
        except ParseError as exc:
            raise DataError(f"{args.labels}: {exc}") from None
    result = auc(np.asarray(scores), binary_labels(labels), "strict" if args.strict else "half")
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
    data = _load_grouped(args)
    if args.grid is not None:
        grid = _comma_list("--grid", args.grid, float)
    else:
        grid = DEFAULT_C_GRID if args.solver == "batch" else DEFAULT_LAMBDA_GRID
    if any(v <= 0 for v in grid):
        raise ConfigError("grid values must be positive")
    if args.folds < 2:
        raise ConfigError(f"need at least 2 folds, got {args.folds}")

    folds = _stratified_folds(data, args.folds, args.seed)
    all_idx = np.arange(data.n)
    rows = []
    for fold_id, val_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, val_idx)
        _, _, (emb_train, emb_val) = _fit_embedded(args, data.subset(train_idx), data.subset(val_idx))
        for value in grid:
            t0 = time.perf_counter()
            if args.solver == "batch":
                linear = train_batch(emb_train, BatchConfig(C=value))
            else:
                linear = train_sgd(emb_train, _sgd_config(args, lam=value))
            seconds = time.perf_counter() - t0
            score = auc(emb_val.X @ linear.w, emb_val.y).auc
            rows.append((value, fold_id, score, seconds))

    means = {value: np.mean([r[2] for r in rows if r[0] == value]) for value in grid}
    best_auc = max(means.values())
    candidates = [value for value in grid if means[value] == best_auc]
    # ties break toward stronger regularization
    selected = min(candidates) if args.solver == "batch" else max(candidates)

    rows.sort(key=lambda r: (r[0], r[1]))
    if args.report:
        with open(args.report, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["value", "fold", "auc", "seconds"])
            for value, fold_id, score, seconds in rows:
                writer.writerow([format_float(value), fold_id, f"{score:.6f}", f"{seconds:.6f}"])
    print(f"selected={format_float(selected)}")
    print(f"mean_auc={means[selected]:.6f}")
    return 0


def cmd_convergence(args) -> int:
    epochs_grid = DEFAULT_EPOCHS_GRID
    if args.epochs_grid is not None:
        epochs_grid = sorted(set(_comma_list("--epochs-grid", args.epochs_grid, int)))
    if epochs_grid[0] < 1:
        raise ConfigError("epochs grid must contain positive integers")
    seeds = [args.seed] if args.seeds is None else _comma_list("--seeds", args.seeds, _seed)

    standardizer, emb_map, emb_train, emb_test, emb_sec = _prepare(args)
    wanted = set(epochs_grid)
    rows = []
    for seed in seeds:
        for variant, averaging in (("averaged", True), ("non-averaged", False)):
            cfg = _sgd_config(args, epochs=epochs_grid[-1], seed=seed, averaging=averaging)

            def snapshot(epoch, w, elapsed, variant=variant, seed=seed):
                if epoch in wanted:
                    score = auc(emb_test.X @ w, emb_test.y).auc
                    rows.append((variant, epoch, seed, score, elapsed))

            train_sgd(emb_train, cfg, epoch_callback=snapshot)

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with open(args.report, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "epochs", "seed", "test_auc", "train_seconds"])
        for variant, epoch, seed, score, seconds in rows:
            writer.writerow([variant, epoch, seed, f"{score:.6f}", f"{seconds:.6f}"])
    print(f"report={args.report}")
    print(f"embedding_seconds={emb_sec:.3f}")
    return 0


def cmd_kmeans(args) -> int:
    with open_text(args.data) as fh:
        data = parse_libsvm(fh)
    lm = kmeans(data, v=args.landmarks, max_iter=args.kmeans_iters, seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write(f"{lm.v} {lm.dim}\n")
        for row in lm.centroids:
            fh.write(format_floats(row) + "\n")
    print(f"landmarks={lm.v}")
    print(f"dim={lm.dim}")
    return 0


def cmd_embed(args) -> int:
    data = _load_grouped(args)
    t0 = time.perf_counter()
    _, _, (emb,) = _fit_embedded(args, data)
    seconds = time.perf_counter() - t0
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{k}" for k in range(emb.dim)])
        for i in range(emb.n):
            writer.writerow([int(emb.y[i])] + [format_float(v) for v in emb.X[i]])
    print(f"rank={emb.dim}")
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

    p = sub.add_parser("train-batch", help="embed and train the Newton solver")
    _add_data_flags(p)
    _add_kernel_flags(p)
    _add_embedding_flags(p)
    _add_batch_flags(p)
    p.add_argument("--model", required=True, help="output model file")
    p.set_defaults(func=cmd_train_batch)

    p = sub.add_parser("train-sgd", help="embed and train the stochastic solver")
    _add_data_flags(p)
    _add_kernel_flags(p)
    _add_embedding_flags(p)
    _add_sgd_flags(p, _SGD_FLAGS)
    p.add_argument("--curve", default=None, help="per-epoch AUC curve CSV")
    p.add_argument("--model", required=True, help="output model file")
    p.set_defaults(func=cmd_train_sgd)

    p = sub.add_parser("predict", help="score a dataset with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--scores", required=True, help="output file, one score per line")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval-auc", help="AUC of a scores file against a labels file")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--strict", action="store_true", help="count ties as losses")
    p.set_defaults(func=cmd_eval_auc)

    p = sub.add_parser("gridsearch", help="stratified cross-validation over C or lambda")
    _add_data_flags(p, with_split=False)
    _add_kernel_flags(p)
    _add_embedding_flags(p)
    p.add_argument("--solver", choices=("batch", "sgd"), required=True)
    p.add_argument("--grid", default=None, help="comma-separated values (defaults per solver)")
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--report", default=None, help="per-cell CSV report")
    _add_sgd_flags(p, ("--t0", "--epochs", "--rskip", "--askip"))
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("convergence", help="test AUC per epoch count, both variants")
    _add_data_flags(p)
    _add_kernel_flags(p)
    _add_embedding_flags(p)
    _add_sgd_flags(p, ("--lambda", "--t0", "--rskip", "--askip"))
    p.add_argument("--epochs-grid", default=None, help="comma-separated epoch counts")
    p.add_argument("--seeds", default=None, help="comma-separated solver seeds")
    p.add_argument("--report", required=True, help="output CSV")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("kmeans", help="write landmark centroids for a dataset")
    _add_data_flags(p, with_split=False, with_labels=False)
    _add_landmark_flags(p)
    p.add_argument("--out", required=True, help="output centroid file")
    p.set_defaults(func=cmd_kmeans)

    p = sub.add_parser("embed", help="fit an embedding and write embedded features")
    _add_data_flags(p, with_split=False)
    _add_kernel_flags(p)
    _add_embedding_flags(p)
    p.add_argument("--out", required=True, help="output features CSV")
    p.set_defaults(func=cmd_embed)

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
