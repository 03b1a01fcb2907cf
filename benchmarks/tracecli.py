"""Run one aucmax CLI command with spans around the public calls of each module.

    python3 benchmarks/tracecli.py SPANS.json <aucmax subcommand and flags>

The wrappers replace module attributes from outside; aucmax itself is not
edited. Each span records a name, CPU start and end (process seconds), its
parent span and a few counts. Spans stay in memory and are written to
SPANS.json when the command returns. The exit code is the command's.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import aucmax
import aucmax.batch
import aucmax.cli
import aucmax.model


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "start": time.process_time(),
        }
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span: dict):
        span["end"] = time.process_time()
        self.stack.pop()

    def count(self, name: str, k: int = 1):
        """Add to a count on the innermost open span."""
        span = self.spans[self.stack[-1]]
        span[name] = span.get(name, 0) + k


def _traced(tracer: Tracer, name: str, fn, record=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if record is not None:
            span.update(record(result))
        return result

    return wrapper


def _batch_counts(model):
    diag = model.diagnostics
    return {"newton_steps": diag["outer_iterations"], "converged": int(diag["converged"])}


def _sgd_counts(model):
    diag = model.diagnostics
    return {"iters": diag["iterations"], "captures": diag["captures"]}


# (span name, module that defines the function, attribute, counts from the result)
TRACED = [
    ("dataio.parse", aucmax.dataio, "parse_libsvm", lambda d: {"rows": d.n}),
    ("dataio.standardize", aucmax.dataio, "standardize_fit", None),
    ("dataio.standardize", aucmax.dataio, "standardize_apply", None),
    ("kernels.bandwidth", aucmax.kernels, "bandwidth_heuristic", None),
    ("embedding.kmeans", aucmax.embedding, "kmeans", None),
    ("embedding.fit_nystroem", aucmax.embedding, "fit_nystroem", lambda m: {"rank": m.rank}),
    ("embedding.embed", aucmax.embedding, "embed", None),
    ("embedding.embed", aucmax.embedding, "embed_point", None),
    ("batch.train", aucmax.batch, "train_batch", _batch_counts),
    ("batch.cg", aucmax.batch, "conjugate_gradient", lambda r: {"cg_iters": len(r[1]) - 1}),
    ("batch.hvp", aucmax.batch, "hvp_fast", None),
    ("sgd.train", aucmax.sgd, "train_sgd", _sgd_counts),
    ("metrics.auc", aucmax.metrics, "auc", None),
    ("model.save", aucmax.model, "save_model", None),
    ("model.load", aucmax.model, "load_model", None),
]


def install(tracer: Tracer):
    """Swap every module-level reference to a traced function for its wrapper."""
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "aucmax"]
    for span_name, home, attr, record in TRACED:
        original = getattr(home, attr)
        wrapper = _traced(tracer, span_name, original, record)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)

    pipeline = aucmax.model.TrainedPipeline
    pipeline.score = _traced(tracer, "model.score", pipeline.score)

    class CountedAggregates(aucmax.batch.PairAggregates):
        """One construction per line-search trial, plus one per solve."""

        def __init__(self, *args, **kwargs):
            tracer.count("aggregates")
            super().__init__(*args, **kwargs)

    aucmax.batch.PairAggregates = CountedAggregates


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    root = tracer.open("cli.main")
    try:
        code = aucmax.cli.main(cli_args)
    finally:
        tracer.close(root)
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
