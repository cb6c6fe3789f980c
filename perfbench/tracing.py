"""In-memory spans around calls into the public functions of each layer.

The tracer replaces a function on every ``fairpair`` module that binds it
(``cli``, ``reweight`` and ``evaluation`` import their own copies with
``from ... import``), so a call is recorded whichever binding it goes
through.  Spans are kept in a list and written out once, at exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records spans (name, start, end, parent id, run id) and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, attrs=None, **kwargs):
        """Call ``fn`` inside a span; ``attrs(result, args, kwargs)`` adds fields."""
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span.update(attrs(result, args, kwargs))
        return result

    def begin(self, run_id: str) -> int:
        """Start a new run id with fresh counters; returns its first span index."""
        self.run_id = run_id
        self.counters.clear()
        return len(self.spans)

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, module, attr: str, name: str, attrs=None) -> None:
        """Wrap ``module.attr`` and every other fairpair binding of it."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, attrs=attrs, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "fairpair" and mod.__dict__.get(attr) is original:
                self._replace(mod, attr, wrapper)

    def count_function(self, module, attr: str, name: str) -> None:
        """Count calls of ``module.attr`` without a span (it runs per minibatch)."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return original(*args, **kwargs)

        self._replace(module, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        self._replace(cls, attr, wrapper)

    def wrap_cached_property(self, cls, attr: str, name: str) -> None:
        """Span the first access of a ``functools.cached_property``."""
        original = cls.__dict__[attr]
        prop = functools.cached_property(
            functools.wraps(original.func)(
                lambda obj: self.span(name, original.func, obj)
            )
        )
        prop.__set_name__(cls, attr)
        self._replace(cls, attr, prop)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child_time)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"counters": dict(self.counters), "spans": self.spans}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every fairpair layer."""
    from fairpair import constraints, data, evaluation, model, reweight, training

    def n_pairs(result, args, kwargs):
        return {"pairs": len(result)}

    def n_rows(result, args, kwargs):
        return {"rows": result.n_items}

    def pair_epochs(result, args, kwargs):
        ps = args[0]
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        return {"pair_epochs": len(ps) * cfg.epochs}

    def outer_iters(result, args, kwargs):
        return {"outer_iters": len(result[2])}

    tracer.wrap_function(data, "generate_synthetic", "data.generate_synthetic")
    tracer.wrap_function(data, "load_csv", "data.load_csv", attrs=n_rows)
    tracer.wrap_function(data, "split_queries", "data.split_queries")
    tracer.wrap_function(data, "make_pairs", "data.make_pairs", attrs=n_pairs)
    tracer.wrap_cached_property(data.PairSet, "arrays", "data.arrays")
    tracer.wrap_function(constraints, "compute_group_stats", "constraints.compute_group_stats")
    tracer.wrap_function(training, "train_weighted", "training.train_weighted", attrs=pair_epochs)
    tracer.count_function(training, "adam_update", "training.adam_update")
    tracer.wrap_function(reweight, "expected_bias", "reweight.expected_bias")
    tracer.wrap_function(reweight, "pair_weights", "reweight.pair_weights")
    tracer.wrap_function(reweight, "fair_train", "reweight.fair_train", attrs=outer_iters)
    tracer.wrap_function(evaluation, "evaluate", "evaluation.evaluate")
    tracer.wrap_function(evaluation, "auc", "evaluation.auc")
    tracer.wrap_method(evaluation.EvalReport, "write_json", "evaluation.write_json")
    tracer.wrap_function(model, "save_model", "model.save_model")
    tracer.wrap_function(model, "load_model", "model.load_model")


# Per-layer metric -> (aggregate, span name).  "self" sums each span's
# duration minus its children, so a layer's time excludes the layers it
# calls (a first PairSet.arrays access inside compute_group_stats counts
# as data.arrays_s only); the self times of all spans add up to the op time.
LAYER_METRICS = {
    "training.train_weighted_s": ("self", "training.train_weighted"),
    "training.train_weighted_calls": ("calls", "training.train_weighted"),
    "training.adam_steps": ("counter", "training.adam_update"),
    "training.pair_epochs_per_s": ("pair_epochs/self", "training.train_weighted"),
    "reweight.expected_bias_s": ("self", "reweight.expected_bias"),
    "reweight.expected_bias_calls": ("calls", "reweight.expected_bias"),
    "reweight.pair_weights_s": ("self", "reweight.pair_weights"),
    "reweight.pair_weights_calls": ("calls", "reweight.pair_weights"),
    "reweight.fair_train_self_s": ("self", "reweight.fair_train"),
    "reweight.outer_iters": ("outer_iters", "reweight.fair_train"),
    "constraints.group_stats_s": ("self", "constraints.compute_group_stats"),
    "constraints.group_stats_calls": ("calls", "constraints.compute_group_stats"),
    "data.load_csv_s": ("self", "data.load_csv"),
    "data.load_csv_rows_per_s": ("rows/self", "data.load_csv"),
    "data.generate_s": ("self", "data.generate_synthetic"),
    "data.split_s": ("self", "data.split_queries"),
    "data.make_pairs_s": ("self", "data.make_pairs"),
    "data.make_pairs_calls": ("calls", "data.make_pairs"),
    "data.pairs": ("pairs", "data.make_pairs"),
    "data.arrays_s": ("self", "data.arrays"),
    "evaluation.evaluate_self_s": ("self", "evaluation.evaluate"),
    "evaluation.evaluate_calls": ("calls", "evaluation.evaluate"),
    "evaluation.auc_s": ("self", "evaluation.auc"),
    "evaluation.write_json_s": ("self", "evaluation.write_json"),
    "model.save_s": ("self", "model.save_model"),
    "model.load_s": ("self", "model.load_model"),
    "cli.train_s": ("total", "cli.train"),
    "cli.evaluate_s": ("total", "cli.evaluate"),
    "cli.self_s": ("self", "cli"),
}


def layer_metrics(tracer: Tracer, first_span: int = 0) -> dict[str, float]:
    """Fold the spans from ``first_span`` on into the per-layer metrics."""
    sums: dict[tuple[str, str], float] = defaultdict(float)
    self_times = tracer.self_times()
    for s, self_s in list(zip(tracer.spans, self_times))[first_span:]:
        names = [s["name"]]
        if s["name"].startswith("cli."):
            names.append("cli")
        for name in names:
            sums["total", name] += s["end"] - s["start"]
            sums["self", name] += self_s
            sums["calls", name] += 1
            for key in ("pairs", "rows", "pair_epochs", "outer_iters"):
                sums[key, name] += s.get(key, 0)
    for name, count in tracer.counters.items():
        sums["counter", name] = count

    metrics = {}
    for metric, (agg, name) in LAYER_METRICS.items():
        work, _, per = agg.partition("/")
        value = sums[work, name]
        if per:
            value = value / sums[per, name] if sums[per, name] > 0 else 0.0
        metrics[metric] = value
    return metrics


def self_time_total(metrics: dict[str, float]) -> float:
    """Sum of the self-time metrics, which together cover every span."""
    return sum(
        metrics[m] for m, (agg, _) in LAYER_METRICS.items() if agg == "self"
    )
