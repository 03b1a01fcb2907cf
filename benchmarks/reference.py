"""Reference figures for benchmarks/README.md.

    python3 benchmarks/reference.py

Runs benchmarks/run.py once per workload and seed in SEEDS, for
BENCHMARK.json's run_seconds, in each of SETS sets, and prints, per workload
and metric, each set's median, quartiles and spread (IQR / median), the
wall-clock medians of the fit and predict commands, score_point's mean
over its passes (the metric is its fastest pass), and the share of CPU
time the hypervisor took (the steal column of /proc/stat) while the runs went on.
Run from the root of a checkout, on an otherwise idle machine.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["spam-batch", "rings-sgd", "imbalanced-grid"]
SEEDS = range(1, 11)
SETS = 2


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies over all CPUs."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: a check failed\n{proc.stderr}")
    rounds = [json.loads(line) for line in proc.stderr.splitlines() if line.startswith('{"round"')]
    return result, rounds


def summary(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {(q3 - q1) / med:.3f}"


def main() -> int:
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    for workload in WORKLOADS:
        for set_no in range(1, SETS + 1):
            steal0, total0 = cpu_ticks()
            results, walls = [], []
            for seed in SEEDS:
                result, rounds = one_run(workload, seed, seconds)
                results.append(result)
                walls.extend(rounds)
            steal1, total1 = cpu_ticks()
            print(f"## {workload}, set {set_no}, seeds {SEEDS.start}-{SEEDS.stop - 1}")
            for name, metric in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                print(f"  {name:<15} {summary(values)} {metric['unit']}")
            for name in ("fit_wall_s", "predict_wall_s"):
                print(f"  {name:<15} median {statistics.median(w[name] for w in walls):.3f} s (wall clock)")
            print(f"  score_point_mean_us {summary([w['score_point_mean_us'] for w in walls])} (mean over passes, not a metric)")
            steal = (steal1 - steal0) / max(total1 - total0, 1)
            print(f"  steal share    {steal:.3f} of all CPU time while this set ran")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
