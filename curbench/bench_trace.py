"""Span tracing around the calls into curlearn's modules, and the per-layer summary.

Nothing here edits curlearn. ``Tracer.install`` replaces each traced
function at every name a curlearn module binds it under (``make_plan`` is
bound in ``samplers``, ``trainer`` and ``cli``), so a caller's own lookup
goes through the wrapper; ``uninstall`` puts the originals back. Spans stay
in memory until the run ends.

The layers are the package modules. A span belongs to the module that
defines the function, so ``FeatureMatrix.build`` is in ``toy_model``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

# Traced functions, by defining module. A function called per example inside
# a hot loop of the same layer (forward, softmax) is left out: its cost stays
# in the caller's self time, and tracing each of them would add more overhead
# than the call itself costs.
TRACED = {
    "cli": ["main", "cmd_score", "cmd_plan", "cmd_analyze", "cmd_compare"],
    "dataset_io": ["load_dataset", "load_external_scores", "token_lengths",
                   "stratified_split"],
    "scoring": ["score_dataset", "score_table_from_probs", "margins_from_matrix",
                "rank_examples", "score_histogram", "write_histogram_csv"],
    "samplers": ["make_plan", "write_plan_jsonl"],
    "toy_model": ["featurize", "loss_and_grad", "optimizer_step", "build_probe_scorer",
                  "FeatureMatrix.build", "FeatureMatrix.logits"],
    "trainer": ["resolve_score_table", "run_training", "evaluate", "aggregate_runs",
                "write_report_json", "write_checkpoint_csv", "write_aggregate_csv",
                "write_aggregate_text"],
}
LAYERS = tuple(TRACED)


def _count_len_result(args, kwargs, result):
    return len(result)


def _count_written_positions(args, kwargs, result):
    plans = args[0]
    return len(plans) if hasattr(plans, "order") else sum(len(p) for p in plans)


def _count_touched(args, kwargs, result):
    # fraction of the model's columns the update touches
    model, grads = args[0], args[1]
    return len(grads.cols) / model.dim


def _count_split_len(args, kwargs, result):
    split = args[1] if len(args) > 1 else kwargs["split"]
    return len(split)


# Work counted per call, for the per-unit metrics.
COUNTERS = {
    "dataset_io.load_dataset": _count_len_result,
    "dataset_io.load_external_scores": _count_len_result,
    "scoring.score_dataset": _count_len_result,
    "samplers.write_plan_jsonl": _count_written_positions,
    "toy_model.optimizer_step": _count_touched,
    "trainer.evaluate": _count_split_len,
}


@dataclass
class Span:
    id: int
    parent: int          # -1 for a root span
    name: str            # "<layer>.<function>"
    start: float         # perf_counter seconds
    end: float
    run: str             # which workload iteration the span belongs to
    error: bool
    count: float | None  # work done, from COUNTERS
    tag: str | None      # make_plan's strategy

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call into a traced curlearn function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        counter = COUNTERS.get(name)
        # cli.main reports failure by its exit code, not by raising
        fails_on_nonzero = name == "cli.main"
        tags_strategy = name == "samplers.make_plan"
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            error, count, tag = True, None, None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                error = fails_on_nonzero and result != 0
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if not error and counter is not None:
                    count = counter(args, kwargs, result)
                if tags_strategy:
                    tag = getattr(args[0], "value", str(args[0]))
                tracer.spans.append(Span(sid, parent, name, start, end, tracer.run,
                                         error, count, tag))

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Wrap every traced function at each name curlearn binds it under."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[f"curlearn.{name}"] for name in LAYERS}
        package = sys.modules["curlearn"]
        replacements = {}
        for layer, names in TRACED.items():
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(modules[layer], cls_name)
                    raw = cls.__dict__[meth]
                    func = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapped = self._wrap(f"{layer}.{qual}", func)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(wrapped)
                    self._saved.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                else:
                    func = getattr(modules[layer], qual)
                    replacements[id(func)] = (func, self._wrap(f"{layer}.{qual}", func))
        for module in list(modules.values()) + [package]:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def write_jsonl(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "layer": s.layer,
                    "start_s": s.start - origin, "end_s": s.end - origin, "run": s.run,
                    "error": s.error, "count": s.count, "tag": s.tag}) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def summarize(spans, wall: float) -> dict:
    """Calls, total, self time and share of ``wall`` per function and per layer.

    A layer's total counts each interval once: spans nested inside a span of
    the same layer are not added again.
    """
    selfs = self_times(spans)
    layer_of = {s.id: s.layer for s in spans}
    functions: dict[str, dict] = {}
    layers = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in LAYERS}
    for s in spans:
        f = functions.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        f["calls"] += 1
        f["total_s"] += s.duration
        f["self_s"] += selfs[s.id]
        row = layers.setdefault(s.layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
        if layer_of.get(s.parent) != s.layer:
            row["total_s"] += s.duration
    for table in (functions, layers):
        for row in table.values():
            row["share_of_wall"] = row["self_s"] / wall if wall > 0 else 0.0
    covered = sum(selfs.values())
    return {"wall_s": wall, "self_coverage": covered / wall if wall > 0 else 0.0,
            "layers": layers, "functions": dict(sorted(functions.items()))}


STRATEGY_NAMES = ("Random", "Length", "E2D", "D2E", "SME", "SMD", "PME", "PMD")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics for the spans of one workload iteration."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(*names):
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def own(*names):
        return sum(selfs[s.id] for n in names for s in by_name.get(n, ()))

    def work(name):
        return sum(s.count or 0 for s in by_name.get(name, ()))

    def per(seconds, units, scale):
        return seconds * scale / units if units else 0.0

    out = {
        "dataset_io.load_us_per_example": per(total("dataset_io.load_dataset"),
                                              work("dataset_io.load_dataset"), 1e6),
        "dataset_io.scores_read_us_per_example": per(
            total("dataset_io.load_external_scores"),
            work("dataset_io.load_external_scores"), 1e6),
        "scoring.score_self_us_per_example": per(own("scoring.score_dataset"),
                                                 work("scoring.score_dataset"), 1e6),
        "scoring.histogram_ms": total("scoring.score_histogram") * 1e3,
        "scoring.rank_ms": total("scoring.rank_examples") * 1e3,
        "samplers.write_us_per_position": per(total("samplers.write_plan_jsonl"),
                                              work("samplers.write_plan_jsonl"), 1e6),
        "samplers.plans": float(calls("samplers.make_plan")),
        "toy_model.grad_us_per_step": per(total("toy_model.loss_and_grad"),
                                          calls("toy_model.loss_and_grad"), 1e6),
        "toy_model.optimizer_us_per_step": per(total("toy_model.optimizer_step"),
                                               calls("toy_model.optimizer_step"), 1e6),
        "toy_model.steps": float(calls("toy_model.optimizer_step")),
        "toy_model.touched_col_ratio": per(work("toy_model.optimizer_step"),
                                           calls("toy_model.optimizer_step"), 1.0),
        "toy_model.featurize_us_per_example": per(total("toy_model.featurize"),
                                                  calls("toy_model.featurize"), 1e6),
        "toy_model.featurize_calls": float(calls("toy_model.featurize")),
        "toy_model.feature_matrix_builds": float(calls("toy_model.FeatureMatrix.build")),
        "toy_model.probe_build_ms": total("toy_model.build_probe_scorer") * 1e3,
        "trainer.evaluate_us_per_example": per(total("trainer.evaluate"),
                                               work("trainer.evaluate"), 1e6),
        "trainer.evaluate_calls": float(calls("trainer.evaluate")),
        "trainer.run_training_self_ms": own("trainer.run_training") * 1e3,
        "trainer.write_ms": total("trainer.write_report_json", "trainer.write_checkpoint_csv",
                                  "trainer.write_aggregate_csv",
                                  "trainer.write_aggregate_text") * 1e3,
        "cli.self_ms": sum(selfs[s.id] for s in spans if s.layer == "cli") * 1e3,
        "cli.commands": float(sum(calls(f"cli.{c}") for c in TRACED["cli"] if c != "main")),
    }
    for strategy in STRATEGY_NAMES:
        plans = [s for s in by_name.get("samplers.make_plan", ()) if s.tag == strategy]
        out[f"samplers.plan_ms.{strategy}"] = per(sum(selfs[s.id] for s in plans),
                                                  len(plans), 1e3)
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(sum(1 for s in spans if s.layer == layer and s.error))
    return out
