"""Acceptance gate: one test per release criterion.

Each test computes its verdict, prints one "criterion NN PASS/FAIL" line
(visible under pytest -s or on failure), then asserts. Criterion 09 needs
the spambase file and is skipped unless AUCMAX_SPAMBASE points at it.
"""

import os
import time

import numpy as np
import pytest

from aucmax.batch import BatchConfig, hvp_fast, train_batch
from aucmax.cli import main as cli_main
from aucmax.dataio import Dataset, parse_libsvm, split, standardize_apply, standardize_fit, to_libsvm
from aucmax.embedding import LandmarkSet, embed, fit_nystroem, kmeans
from aucmax.kernels import bandwidth_heuristic, kernel_matrix
from aucmax.metrics import auc
from aucmax.sgd import SgdConfig, train_sgd
from aucmax.synthetic import make_rings
from oracles import aggregates, auc_bruteforce, brute_grad, brute_hvp


def verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared random instances for gradient / HVP checks
# ---------------------------------------------------------------------------


def _pair_instances(count: int, rng: np.random.Generator):
    """Random embedded datasets with weights placed near the margin kink."""
    out = []
    for _ in range(count):
        n = int(rng.integers(10, 81))
        r = int(rng.integers(2, 21))
        X = rng.standard_normal((n, r)) * rng.uniform(0.3, 1.5)
        y = np.where(rng.random(n) < rng.uniform(0.2, 0.8), 1, -1)
        y[: max(1, n // 10)] = 1
        y[-max(1, n // 10):] = -1
        data = Dataset(X, y)
        w = rng.standard_normal(r) * rng.uniform(0.1, 2.0)
        C = float(rng.choice([0.1, 1.0, 10.0]))
        out.append((data, w, C))
    return out


@pytest.fixture(scope="module")
def pair_instances():
    return _pair_instances(200, np.random.default_rng(20240817))


# ---------------------------------------------------------------------------
# shared rings benchmark (criteria 05, 06, 07)
# ---------------------------------------------------------------------------


class RingsBenchmark:
    def __init__(self):
        t0 = time.perf_counter()
        data = make_rings(n=2000, seed=0, imbalance=3.0, noise=0.3)
        train, test = split(data, 0.2, seed=0)
        std = standardize_fit(train)
        std_train = standardize_apply(std, train)
        std_test = standardize_apply(std, test)

        raw_model = train_batch(std_train, BatchConfig(C=1.0))
        self.raw_auc = auc(std_test.X @ raw_model.w, std_test.y).auc

        landmarks = kmeans(std_train, v=64, seed=0)
        nys = fit_nystroem(landmarks, bandwidth_heuristic(std_train), seed=0)
        self.embedded_train = embed(nys, std_train)
        self.embedded_test = embed(nys, std_test)
        batch_model = train_batch(self.embedded_train, BatchConfig(C=1.0))
        self.batch_auc = self.test_auc(batch_model.w)
        self.batch_seconds = time.perf_counter() - t0

        pos_idx, neg_idx = self.embedded_train.class_indices()
        self.lam = 1.0 / (pos_idx.size * neg_idx.size)

        t0 = time.perf_counter()
        # one averaged run per seed gives both: its mean (True) and its last iterate (False)
        self.sgd_auc = {True: [], False: []}
        for seed in range(10):
            cfg = SgdConfig(lam=self.lam, epochs=50, seed=seed)
            last = []  # the callback's last iterate; after the final epoch, the run's
            model = train_sgd(self.embedded_train, cfg, epoch_callback=lambda e, w, v, sec: last.append(v))
            self.sgd_auc[True].append(self.test_auc(model.w))
            self.sgd_auc[False].append(self.test_auc(last[-1]))
        self.sgd_auc = {averaging: np.array(runs) for averaging, runs in self.sgd_auc.items()}
        self.sgd_seconds = time.perf_counter() - t0

    def test_auc(self, w):
        return auc(self.embedded_test.X @ w, self.embedded_test.y).auc


@pytest.fixture(scope="module")
def rings():
    return RingsBenchmark()


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_auc_matches_brute_force():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        if rng.random() < 0.5:
            scores = rng.integers(0, 8, size=n) / 2.0  # heavy duplication
        else:
            scores = rng.standard_normal(n)
        labels = np.where(rng.random(n) < rng.uniform(0.1, 0.9), 1, -1)
        labels[rng.integers(0, n)] = 1
        labels[rng.integers(0, n)] = -1
        if not ((labels == 1).any() and (labels == -1).any()):
            continue
        for policy in ("half", "strict"):
            fast = auc(scores, labels, policy)
            slow = auc_bruteforce(scores, labels, policy)
            if (fast.auc, fast.wins, fast.ties, fast.losses) != (
                slow.auc, slow.wins, slow.ties, slow.losses,
            ):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert verdict(1, ok, f"{mismatches} mismatches in 1000 instances, {elapsed:.1f}s")


def test_criterion_02_gradient_correctness(pair_instances):
    t0 = time.perf_counter()
    worst_fd = 0.0
    worst_brute = 0.0
    for data, w, C in pair_instances:
        g = aggregates(w, data).gradient(w, data.X, C)

        h = 1e-6
        g_fd = np.empty_like(g)
        for k in range(w.size):
            step = np.zeros_like(w)
            step[k] = h
            up, down = w + step, w - step
            f_up, f_down = (aggregates(v, data).objective(v, C) for v in (up, down))
            g_fd[k] = (f_up - f_down) / (2.0 * h)
        denom = max(1.0, float(np.linalg.norm(g)))
        worst_fd = max(worst_fd, float(np.linalg.norm(g_fd - g)) / denom)

        g_brute = brute_grad(w, data.X, data.y, C)
        worst_brute = max(worst_brute, float(np.linalg.norm(g_brute - g)) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst_fd <= 1e-5 and worst_brute <= 1e-10 and elapsed < 30.0
    assert verdict(
        2, ok, f"fd rel err {worst_fd:.2e}, brute rel err {worst_brute:.2e}, {elapsed:.1f}s"
    )


def test_criterion_03_hvp_correctness(pair_instances):
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    worst = 0.0
    curvature_ok = True
    for data, w, C in pair_instances:
        v = rng.standard_normal(w.size)
        hv = hvp_fast(aggregates(w, data), v, data, C)
        hv_brute = brute_hvp(w, v, data.X, data.y, C)
        worst = max(
            worst,
            float(np.linalg.norm(hv_brute - hv)) / max(1.0, float(np.linalg.norm(hv))),
        )
        if float(v @ hv) < float(v @ v):
            curvature_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and curvature_ok and elapsed < 30.0
    assert verdict(
        3, ok, f"rel err {worst:.2e}, vHv >= |v|^2 {curvature_ok}, {elapsed:.1f}s"
    )


def test_criterion_04_nystroem_exact_at_full_rank():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((50, 6))
    data = Dataset(X, np.where(np.arange(50) % 2 == 0, 1, -1))
    kernel = bandwidth_heuristic(data)
    nys = fit_nystroem(LandmarkSet(X), kernel)
    features = embed(nys, data).X
    exact = kernel_matrix(X, X, kernel)
    err = float(np.max(np.abs(features @ features.T - exact)))
    ok = err <= 1e-6
    assert verdict(4, ok, f"max |phi phi^T - K| = {err:.2e} with v = n = 50")


def test_criterion_05_embedding_captures_rings(rings):
    ok = (
        rings.raw_auc <= 0.70
        and rings.batch_auc >= 0.95
        and rings.batch_seconds < 60.0
    )
    assert verdict(
        5,
        ok,
        f"raw 2-D AUC {rings.raw_auc:.4f} <= 0.70, embedded AUC "
        f"{rings.batch_auc:.4f} >= 0.95, {rings.batch_seconds:.1f}s",
    )


def test_criterion_06_stochastic_reaches_batch(rings):
    gaps = np.abs(rings.sgd_auc[True] - rings.batch_auc)
    hits = int(np.sum(gaps <= 0.01))
    elapsed = rings.batch_seconds + rings.sgd_seconds
    ok = hits >= 8 and elapsed < 300.0
    assert verdict(
        6,
        ok,
        f"{hits}/10 seeds within 0.01 of batch AUC {rings.batch_auc:.4f} "
        f"at 50 epochs (lambda {rings.lam:.2e}), {elapsed:.1f}s",
    )


def test_criterion_07_averaging_reduces_variance(rings):
    averaged, plain = rings.sgd_auc[True], rings.sgd_auc[False]
    std_ok = averaged.std() <= plain.std()
    mean_ok = averaged.mean() >= plain.mean() - 0.005
    ok = std_ok and mean_ok
    assert verdict(
        7,
        ok,
        f"std {averaged.std():.2e} vs {plain.std():.2e}, "
        f"mean {averaged.mean():.4f} vs {plain.mean():.4f}",
    )


def test_criterion_08_iteration_cost_independent_of_n():
    rng = np.random.default_rng(11)
    r = 64

    def dataset(n):
        X = rng.standard_normal((n, r))
        y = np.where(rng.random(n) < 0.25, 1, -1)
        y[0], y[1] = 1, -1
        return Dataset(X, y)

    def seconds_per_iter(data, runs):
        # the solver loop's own seconds, as train_sgd reports them
        seconds = sum(
            train_sgd(data, SgdConfig(lam=1e-6, epochs=1, seed=1)).diagnostics["seconds"]
            for _ in range(runs)
        )
        return seconds / (data.n * runs)

    warm_up = dataset(2000)
    for _ in range(2):
        seconds_per_iter(warm_up, 1)
    # equal work at both sizes, 100 000 iterations per rep: ten one-epoch runs
    # at n=1e4 against one at n=1e5, so each rep spans as many of the host's
    # speed spells at one size as at the other. Five of the small runs go
    # before the large run and five after, so a change of the host's speed
    # during a rep reaches both sizes alike.
    small_data, large_data = dataset(10_000), dataset(100_000)
    best = [np.inf, np.inf]
    for _ in range(10):
        before = seconds_per_iter(small_data, 5)
        large = seconds_per_iter(large_data, 1)
        after = seconds_per_iter(small_data, 5)
        best = [min(best[0], (before + after) / 2), min(best[1], large)]
    small, large = best
    ratio = max(small, large) / min(small, large)
    ok = ratio < 1.2
    assert verdict(
        8,
        ok,
        f"{small * 1e6:.2f} us/iter at n=1e4 vs {large * 1e6:.2f} us/iter at n=1e5, "
        f"ratio {ratio:.3f} < 1.2",
    )


@pytest.mark.skipif(
    "AUCMAX_SPAMBASE" not in os.environ,
    reason="set AUCMAX_SPAMBASE to the spambase.data path to run",
)
def test_criterion_09_spambase_reproduction(tmp_path, capsys):
    raw = np.loadtxt(os.environ["AUCMAX_SPAMBASE"], delimiter=",")
    X, y01 = raw[:, :-1], raw[:, -1].astype(np.int64)
    data = Dataset(X, np.where(y01 == 1, 1, -1))
    train, test = split(data, 0.2, seed=0)
    std = standardize_fit(train)
    std_train, std_test = standardize_apply(std, train), standardize_apply(std, test)

    libsvm = tmp_path / "train.libsvm"
    libsvm.write_text(to_libsvm(std_train))
    code = cli_main([
        "gridsearch", "--data", str(libsvm), "--solver", "batch",
        "--folds", "3", "--landmarks", "1600",
    ])
    printed = capsys.readouterr().out
    assert code == 0
    selected = float(next(
        line.split("=", 1)[1] for line in printed.splitlines()
        if line.startswith("selected=")
    ))

    landmarks = kmeans(std_train, v=1600, seed=0)
    nys = fit_nystroem(landmarks, bandwidth_heuristic(std_train), seed=0)
    emb_train, emb_test = embed(nys, std_train), embed(nys, std_test)
    model = train_batch(emb_train, BatchConfig(C=selected))
    score = auc(emb_test.X @ model.w, emb_test.y).auc
    ok = score >= 0.970
    assert verdict(9, ok, f"spambase test AUC {score:.4f} >= 0.970 at C = {selected}")


def test_criterion_10_training_is_bit_deterministic(tmp_path, capsys):
    data_file = tmp_path / "rings.libsvm"
    data_file.write_text(to_libsvm(make_rings(n=400, seed=4)))

    outputs = {}
    for solver, extra in (
        ("train-batch", ["--c", "1"]),
        ("train-sgd", ["--lambda", "1e-7", "--epochs", "5"]),
    ):
        paths = [str(tmp_path / f"{solver}-{k}.model") for k in range(2)]
        for path in paths:
            code = cli_main([
                solver, "--data", str(data_file), "--landmarks", "16",
                "--seed", "9", "--model", path, *extra,
            ])
            assert code == 0
        outputs[solver] = (
            open(paths[0], "rb").read(),
            open(paths[1], "rb").read(),
        )
    capsys.readouterr()
    same = {solver: a == b for solver, (a, b) in outputs.items()}
    ok = all(same.values())
    assert verdict(10, ok, f"byte-identical model files per solver: {same}")
