"""The benchmark's traced run wraps dipmix functions at named module attributes
and reads the work of each call from its arguments; a refactor that drops one
of those names, or moves the arguments the tracer reads, should fail here, not
in that run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import dipmix

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ("dipmix", "dipmix.objective", "dipmix.nn", "dipmix.predictor")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_attribute_resolves():
    tracer = load_tracer()
    missing = [
        f"{path}.{attr}"
        for path, attr, _, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(path), attr, None))
    ]
    assert tracer.TARGETS and missing == []


@pytest.mark.parametrize("mode,s,branches", [("none", 1, 0), ("label_mixing", 3, 1),
                                             ("label_preserving", 3, 3)])
def test_step_spans_count_the_rows_of_each_step(mode, s, branches):
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install({name: importlib.import_module(name) for name in MODULES})
    try:
        tracer.op = "train"
        dipmix.train(dipmix.mlp_init([2, 12, 8, 2], "relu", seed=2),
                     dipmix.gen_spirals(25, 0.1, 1.25, seed=2),  # 50 rows: batches 16, 16, 16, 2
                     dipmix.MixConfig(mode, 0.0 if mode == "none" else 1.0, s),
                     dipmix.OptimState(0.1, 0.9), 1, 16, np.random.default_rng(0))
    finally:
        tracer.op = None
        tracer.restore()
    spans = tracer.spans
    steps = [span for span in spans if span.name in tracer_module.STEP_NAMES]
    rows = [16, 16, 16, 2]
    if branches:  # a mixed step's work is its rows times the draws per row
        assert [span.count for span in steps] == [r * branches for r in rows]
    else:
        assert [(span.name, span.count) for span in steps] == [("nn.backward", r) for r in rows]
    metrics = tracer_module.op_metrics(spans, tracer_module.self_times(spans), range(len(spans)))
    assert metrics["objective.step.calls"] == metrics["nn.sgd_step.calls"] == 4
    assert metrics["objective.step.mixed_rows"] == 50 * branches
    assert metrics["nn.backward.rows"] == (0 if branches else 50)
    assert metrics["nn.forward.calls"] == 1  # the epoch's accuracy pass
