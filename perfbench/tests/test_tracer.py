"""The tracer records the calls made inside operations and puts every wrapped
attribute back as it found it."""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402


def small_train(dm, mix, epochs=2, batch=50):
    data, _, _ = run.make_split(dm, 0)
    params = dm.mlp_init(run.LAYERS, run.ACTIVATION, seed=0)
    optim = dm.OptimState(0.1, 0.9)
    return dm.train(params, data, dm.MixConfig(*mix), optim, epochs, batch,
                    np.random.default_rng(0))


def test_restore_leaves_every_attribute_as_found():
    dm, modules = run.import_dipmix()
    before = {(path, attr): getattr(modules[path], attr) for path, attr, _, _ in tr.TARGETS}
    tracer = tr.Tracer()
    tracer.install(modules)
    assert all(getattr(modules[p], a) is not f for (p, a), f in before.items())
    tracer.op = "op"
    small_train(dm, ("label_preserving", 1.0, 2), epochs=1)
    tracer.op = None
    tracer.restore()
    assert all(getattr(modules[p], a) is f for (p, a), f in before.items())
    assert tracer.spans


def test_spans_only_inside_operations_and_counts_per_op():
    dm, modules = run.import_dipmix()
    tracer = tr.Tracer()
    tracer.install(modules)
    try:
        small_train(dm, ("label_preserving", 1.0, 2))  # no operation open
        assert tracer.spans == []
        tracer.op = "op"
        small_train(dm, ("label_preserving", 1.0, 2))
        tracer.op = None
    finally:
        tracer.restore()
    spans = tracer.spans
    own = tr.self_times(spans)
    assert min(own) >= 0
    m = tr.op_metrics(spans, own, list(range(len(spans))))
    steps = 2 * 10  # 2 epochs of 500 rows in batches of 50
    assert m["objective.step.calls"] == steps
    assert m["objective.step.mixed_rows"] == 2 * 500 * 2
    assert m["mixing.sample_lambda.calls"] == steps
    assert m["mixing.sample_lambda.draws"] == 2 * 500 * 2
    assert m["mixing.sample_partners.calls"] == steps * 2
    assert m["nn.sgd_step.calls"] == steps
    assert m["nn.forward.calls"] == 2 and m["nn.forward.rows"] == 2 * 500
    assert m["nn.backward.rows"] == 0
    assert m["predictor.items"] == 0
    assert 0 < m["objective.step.self_s"] <= m["objective.step.busy_s"]


def test_predictor_counts_per_item():
    dm, modules = run.import_dipmix()
    params, stats = run.load_shipped_model(dm)
    train_set, test_set, _ = run.make_split(dm, 1, stats)
    cfg = dm.PredictorConfig("dip", 30, dm.BetaParams(*run.PRIOR),
                             partner_pool=train_set.features, seed=0)
    tracer = tr.Tracer()
    tracer.install(modules)
    tracer.op = "op"
    try:
        dm.predict_batch(params, test_set.features[:7], cfg)
    finally:
        tracer.op = None
        tracer.restore()
    m = tr.op_metrics(tracer.spans, tr.self_times(tracer.spans), range(len(tracer.spans)))
    assert m["predictor.items"] == 7
    assert m["predictor.forward_calls_per_item"] == 1
    assert m["predictor.draws_per_item"] == 30
    assert m["nn.forward.rows"] == 7 * 30
