"""The benchmark's tracer wraps aucmax functions by name; each must exist."""

import runpy
from pathlib import Path

import aucmax.batch
import aucmax.model

TRACECLI = Path(__file__).resolve().parent.parent / "benchmarks" / "tracecli.py"


def test_traced_names_exist():
    traced = runpy.run_path(str(TRACECLI), run_name="tracecli")["TRACED"]
    missing = [f"{home.__name__}.{attr}" for _, home, attr, _ in traced if not hasattr(home, attr)]
    assert missing == []
    # install() also wraps these two directly
    assert callable(aucmax.batch.PairAggregates)
    assert callable(aucmax.model.TrainedPipeline.score)
