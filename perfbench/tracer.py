"""Spans around the calls into dipmix's public functions, taken from outside.

The tracer replaces a function at the module attribute its callers look up
(``dipmix.objective.sample_lambda``, ``dipmix.predictor.forward``, ...) with a
wrapper that records one span per call, and puts the original back on
``restore``. Spans are kept in memory while the benchmark runs and written
out at its end. A span is recorded only while an operation is open, so the
benchmark's own correctness checks, which call the same functions, leave no
spans.
"""

from __future__ import annotations

import functools
import json
import time
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: str
    count: int  # work done by the call: rows, draws or items


def _rows(args, kwargs, pos, key):
    value = kwargs[key] if key in kwargs else args[pos]
    return len(value)


def _draws(args, kwargs):
    size = kwargs["size"] if "size" in kwargs else (args[2] if len(args) > 2 else None)
    return 1 if size is None else int(size)


def _dip_rows(args, kwargs):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    return _rows(args, kwargs, 1, "batch") * cfg.s


# (module path, attribute, span name, work count). Each entry names the
# attribute that the caller resolves at call time, so the wrapper sees every
# call the program makes through it.
TARGETS = (
    ("dipmix", "gen_spirals", "data.gen_spirals", None),
    ("dipmix", "split", "data.split", None),
    ("dipmix", "standardize", "data.standardize", None),
    ("dipmix", "apply_stats", "data.apply_stats", None),
    ("dipmix", "load_model", "nn.load_model", None),
    ("dipmix", "train", "objective.train", None),
    ("dipmix", "predict_batch", "predictor.predict_batch",
     lambda a, k: _rows(a, k, 1, "features")),
    ("dipmix.objective", "mixup_loss_grad", "objective.mixup_loss_grad",
     lambda a, k: _rows(a, k, 1, "batch")),
    ("dipmix.objective", "dip_loss_preserving_grad", "objective.dip_loss_preserving_grad",
     _dip_rows),
    ("dipmix.objective", "backward", "nn.backward", lambda a, k: _rows(a, k, 1, "batch")),
    ("dipmix.objective", "sample_lambda", "mixing.sample_lambda", _draws),
    ("dipmix.objective", "sample_partners", "mixing.sample_partners", None),
    ("dipmix.objective", "forward", "nn.forward", lambda a, k: _rows(a, k, 1, "features")),
    ("dipmix.objective", "softmax_xent", "nn.softmax_xent", lambda a, k: _rows(a, k, 0, "logits")),
    ("dipmix.objective", "sgd_step", "nn.sgd_step", None),
    ("dipmix.nn", "softmax_xent", "nn.softmax_xent", lambda a, k: _rows(a, k, 0, "logits")),
    ("dipmix.predictor", "sample_lambda", "mixing.sample_lambda", _draws),
    ("dipmix.predictor", "forward", "nn.forward", lambda a, k: _rows(a, k, 1, "features")),
)

# The per-batch call that objective.train makes for each mix mode.
STEP_NAMES = ("objective.mixup_loss_grad", "objective.dip_loss_preserving_grad", "nn.backward")


class Tracer:
    """Records spans of wrapped calls made while ``op`` is set."""

    def __init__(self):
        self.spans: list = []
        self.op: str | None = None
        self._stack: list = []
        self._saved: list = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return original(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                work = count(args, kwargs) if count is not None else 0
                self.spans[index] = Span(name, start, end, parent, self.op, work)

        setattr(module, attr, wrapper)

    def install(self, modules: dict) -> None:
        """Wrap every target; ``modules`` maps module paths to module objects."""
        for path, attr, name, count in TARGETS:
            self.wrap(modules[path], attr, name, count)

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, op, count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")


def self_times(spans) -> list:
    """Each span's duration less the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def op_metrics(spans, own, indices) -> dict:
    """Per-layer figures of one operation: ``indices`` select its spans out of
    all ``spans``, whose self times are ``own``."""
    busy = {}
    calls = {}
    work = {}
    self_s = {}
    mine = [spans[i] for i in indices]
    for i, s in zip(indices, mine):
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0) + s.count
        self_s[s.name] = self_s.get(s.name, 0.0) + own[i]
    under_predictor = [
        s for s in mine if s.parent >= 0 and spans[s.parent].name == "predictor.predict_batch"
    ]
    items = work.get("predictor.predict_batch", 0)

    def per_item(n):
        return n / items if items else 0.0

    def total(table, keys):
        return sum(table.get(k, 0) for k in keys)

    return {
        "mixing.sample_lambda.busy_s": busy.get("mixing.sample_lambda", 0.0),
        "mixing.sample_lambda.calls": calls.get("mixing.sample_lambda", 0),
        "mixing.sample_lambda.draws": work.get("mixing.sample_lambda", 0),
        "mixing.sample_partners.busy_s": busy.get("mixing.sample_partners", 0.0),
        "mixing.sample_partners.calls": calls.get("mixing.sample_partners", 0),
        "objective.step.busy_s": total(busy, STEP_NAMES),
        "objective.step.calls": total(calls, STEP_NAMES),
        "objective.step.mixed_rows": total(work, STEP_NAMES[:2]),
        "objective.step.self_s": total(self_s, STEP_NAMES),
        "objective.train.self_s": self_s.get("objective.train", 0.0),
        "nn.sgd_step.busy_s": busy.get("nn.sgd_step", 0.0),
        "nn.sgd_step.calls": calls.get("nn.sgd_step", 0),
        "nn.backward.busy_s": busy.get("nn.backward", 0.0),
        "nn.backward.rows": work.get("nn.backward", 0),
        "nn.softmax_xent.busy_s": busy.get("nn.softmax_xent", 0.0),
        "nn.softmax_xent.calls": calls.get("nn.softmax_xent", 0),
        "nn.forward.busy_s": busy.get("nn.forward", 0.0),
        "nn.forward.calls": calls.get("nn.forward", 0),
        "nn.forward.rows": work.get("nn.forward", 0),
        "predictor.predict_batch.busy_s": busy.get("predictor.predict_batch", 0.0),
        "predictor.items": items,
        "predictor.self_s": self_s.get("predictor.predict_batch", 0.0),
        "predictor.forward_calls_per_item": per_item(
            sum(1 for s in under_predictor if s.name == "nn.forward")),
        "predictor.draws_per_item": per_item(
            sum(s.count for s in under_predictor if s.name == "mixing.sample_lambda")),
    }


def setup_metrics(spans) -> dict:
    """Data-building and model-loading time of one set-up."""
    data = sum((s.end - s.start for s in spans if s.name.startswith("data.")), 0.0)
    load = sum((s.end - s.start for s in spans if s.name == "nn.load_model"), 0.0)
    return {"data.busy_s": data, "nn.load_model.busy_s": load}
