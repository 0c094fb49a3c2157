"""Benchmark of dipmix: DIP training and Monte-Carlo prediction on two spirals.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see README.md beside this file):

    train_plain    ERM, the unmixed baseline; the only caller of nn.backward
    train_mixup    label-mixing training (Mixup, alpha=1)
    train_dip_s4   label-preserving Jensen surrogate with S=4
    predict_dip    DIP prediction, S=500, prior Beta(2,1), of a shipped model

One operation is one model trained for one seed, or one prediction pass over
a test split for one prediction seed. A round is a fixed list of operations
derived from ``--seed``; a run repeats whole rounds until the timed
operations add up to ``--seconds``. Each operation is timed alone and the
run's throughput comes from the median one, so a burst of load on a shared
host moves one operation, not the run. Longer shifts in the host's speed are
taken out by timing a fixed reference kernel around every operation (see
HostClock). Every operation's output is checked against the references in
checks.py, outside the timed span.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of tracer.py instead; there every operation runs once untraced and once
traced, which gives the tracing overhead. Results and traces are also written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer, op_metrics, self_times, setup_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODEL = HERE / "model" / "mixup_model.json"
MODEL_STATS = HERE / "model" / "mixup_standardize.json"

# The inputs: two spirals, split half and half, standardized on the train half.
N_PER_CLASS = 500
NOISE = 0.05
TURNS = 1.25
TEST_FRACTION = 0.5

# The model and its training recipe: the CLI's defaults.
LAYERS = [2, 64, 64, 2]
ACTIVATION = "relu"
EPOCHS = 200
BATCH = 64
LEARNING_RATE = 0.1
MOMENTUM = 0.9
SCHEDULE = [(100, 0.1), (150, 0.1)]

S_TEST = 500
PRIOR = (2.0, 1.0)  # Beta(alpha + 1, alpha) at alpha = 1
REF_DRAWS = 200
SETUPS = 9

# The host-speed reference: a fixed loop of small elementwise numpy operations,
# with no matmul, so that no BLAS setting the program makes reaches it. On a
# shared host the speed of a whole run shifts by 20% and more for minutes at a
# time, which no median within a run can remove. The timed end-to-end metrics
# are therefore measured against this reference, timed before and after each
# operation and set-up, and expressed at the speed where it takes REF_SECONDS.
REF_LOOPS = 5000
REF_SECONDS = 0.05
REF_INPUT = np.random.default_rng(0).standard_normal((64, 64))

# mode, alpha, S of training; the round has as many operations as it takes
# for the run's mean test error to repeat across seeds (see README.md);
# test_err_max is the ceiling the run's mean test error must stay under.
WORKLOADS = {
    "train_plain": {"mix": ("none", 0.0, 1), "round": 40, "test_err_max": 0.06},
    "train_mixup": {"mix": ("label_mixing", 1.0, 1), "round": 28, "test_err_max": 0.10},
    "train_dip_s4": {"mix": ("label_preserving", 1.0, 4), "round": 12, "test_err_max": 0.07},
    "predict_dip": {"mix": None, "round": 28, "test_err_max": 0.08},
}


def item_seed(seed: int, k: int) -> int:
    """Seed of the k-th operation of a round: its data, model and streams."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def import_dipmix():
    """Import dipmix afresh from the checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "dipmix" or m.startswith("dipmix.")]:
        del sys.modules[name]
    dm = importlib.import_module("dipmix")
    return dm, {name: sys.modules[name] for name in ("dipmix", "dipmix.objective",
                                                    "dipmix.nn", "dipmix.predictor")}


def make_split(dm, seed: int, stats=None):
    """Train and test halves of one spirals draw, standardized by ``stats``
    or, when None, by the train half's own moments."""
    full = dm.gen_spirals(N_PER_CLASS, NOISE, TURNS, seed=seed)
    train_set, test_set = dm.split(full, TEST_FRACTION, seed)
    if stats is None:
        train_set, stats = dm.standardize(train_set)
    else:
        train_set = dm.apply_stats(train_set, stats)
    return train_set, dm.apply_stats(test_set, stats), stats


def train_model(dm, train_set, mix, seed: int):
    """One model trained by the recipe; returns (params, epoch metrics)."""
    params = dm.mlp_init(LAYERS, ACTIVATION, seed=seed)
    optim = dm.OptimState(LEARNING_RATE, MOMENTUM, list(SCHEDULE))
    return dm.train(params, train_set, dm.MixConfig(*mix), optim, EPOCHS, BATCH,
                    np.random.default_rng([seed, 1]))


def load_shipped_model(dm):
    with open(MODEL_STATS, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return dm.load_model(MODEL), dm.StandardizeStats(doc["mean"], doc["std"])


def set_up(workload: str, seed: int, tracer: Tracer | None = None, label: str = ""):
    """Import dipmix, build the round's inputs and, for prediction, load the
    model. Returns (dipmix, inputs, seconds taken)."""
    start = time.perf_counter()
    dm, modules = import_dipmix()
    if tracer is not None:
        tracer.restore()
        tracer.install(modules)
        tracer.op = label
    spec = WORKLOADS[workload]
    inputs = {"model": None, "items": []}
    stats = None
    if spec["mix"] is None:
        inputs["model"], stats = load_shipped_model(dm)
    for k in range(spec["round"]):
        s = item_seed(seed, k)
        train_set, test_set, _ = make_split(dm, s, stats)
        inputs["items"].append((s, train_set, test_set))
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    return dm, inputs, elapsed


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, dm, workload: str, inputs):
        self.dm = dm
        self.spec = WORKLOADS[workload]
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.errors = {}  # item -> test error of its first run
        self.outputs = {}  # item -> predicted probabilities of its first run

    @property
    def work_per_op(self) -> int:
        _, train_set, test_set = self.inputs["items"][0]
        if self.spec["mix"] is None:
            return test_set.n
        return train_set.n * EPOCHS

    def run(self, k: int, tracer: Tracer | None = None, label: str = ""):
        """Operation k of the round; returns its seconds, or None if it raised."""
        dm = self.dm
        seed, train_set, test_set = self.inputs["items"][k]
        if self.spec["mix"] is None:
            params = self.inputs["model"]
            cfg = dm.PredictorConfig("dip", S_TEST, dm.BetaParams(*PRIOR),
                                     partner_pool=train_set.features, seed=seed)

            def operation():
                return dm.predict_batch(params, test_set.features, cfg)
        else:
            def operation():
                return train_model(dm, train_set, self.spec["mix"], seed)
        self.attempted += 1
        if tracer is not None:
            tracer.op = label
        try:
            start = time.perf_counter()
            out = operation()
            elapsed = time.perf_counter() - start
        except Exception:
            self.failed += 1
            print(f"operation {k} (seed {seed}) failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        finally:
            if tracer is not None:
                tracer.op = None
        if self.spec["mix"] is None:
            self.check(k, params, train_set, test_set, out, None)
        else:
            params, epochs = out
            self.check(k, params, train_set, test_set, None, [e.train_loss for e in epochs])
        return elapsed

    def check(self, k, params, train_set, test_set, probs, losses):
        dm = self.dm
        seed = self.inputs["items"][k][0]
        x = test_set.features
        raw = dm.predict_batch(params, x, dm.PredictorConfig("raw"))
        problems = checks.check_raw(params.weights, params.biases, params.activation, x, raw)
        problems += checks.check_simplex(raw)
        degenerate = dm.predict_batch(params, x, dm.PredictorConfig(
            "dip", S_TEST, None, partner_pool=train_set.features, seed=seed))
        if not np.array_equal(degenerate, raw):
            problems.append("the degenerate prior does not give exactly the raw prediction")
        if probs is None:
            probs = raw
            problems += checks.check_loss_curve(losses)
        else:
            problems += checks.check_simplex(probs)
            mean, sd = checks.dip_reference(
                params.weights, params.biases, params.activation, x, train_set.features,
                *PRIOR, REF_DRAWS, np.random.default_rng([seed, 7]))
            problems += checks.check_dip(mean, sd, REF_DRAWS, probs, S_TEST)
        if k in self.outputs:
            if not np.array_equal(self.outputs[k], probs):
                problems.append("a repeated operation gave other predictions")
        else:
            self.outputs[k] = probs
            self.errors[k] = float((probs.argmax(axis=1) != test_set.class_ids()).mean())
        self.problems += [f"operation {k} (seed {seed}): {p}" for p in problems]

    def test_err(self) -> float:
        """Mean test error over the round, checked against the ceiling."""
        err = float(np.mean([self.errors[k] for k in sorted(self.errors)]))
        if err > self.spec["test_err_max"]:
            self.problems.append(f"mean test error {err:.4f} exceeds the ceiling "
                                 f"{self.spec['test_err_max']}")
        return err


def reference_seconds() -> float:
    """Wall time of the host-speed reference kernel, now."""
    start = time.perf_counter()
    for _ in range(REF_LOOPS):
        z = REF_INPUT * REF_INPUT
        np.maximum(z, 0.5, out=z)
        z.sum(axis=0)
    return time.perf_counter() - start


class HostClock:
    """Scales timings to the speed at which the reference takes REF_SECONDS."""

    def __init__(self):
        self.before = reference_seconds()
        self.refs = [self.before]

    def restart(self):
        """Time the reference again after untimed work."""
        self.before = reference_seconds()
        self.refs.append(self.before)

    def scale(self, seconds: float) -> float:
        """``seconds`` of work just done, over the mean of the reference
        timed before it and the reference timed now."""
        before = self.before
        self.restart()
        return seconds * REF_SECONDS / (0.5 * (before + self.before))


def median_or_fail(times, what):
    if not times:
        raise SystemExit(f"no {what} operation completed")
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float):
    """End-to-end metrics with tracing off; timings at reference speed.

    The set-ups after the first are spread over the first round, between
    operations, so that their median, like that of the operations, samples
    the host over the whole run rather than over its first second.
    """
    clock = HostClock()
    dm, inputs, first = set_up(workload, seed)
    setups = [clock.scale(first)]
    runner = Runner(dm, workload, inputs)
    n_items = len(inputs["items"])
    every = max(1, n_items // (SETUPS - 1))
    runner.run(0)  # warm-up: BLAS threads, page faults, first-call costs
    clock.restart()
    wall, times = [], []
    while sum(wall) < seconds or not wall:
        for k in range(n_items):
            elapsed = runner.run(k)
            if elapsed is None:
                clock.restart()
            else:
                wall.append(elapsed)
                times.append(clock.scale(elapsed))
            if len(setups) < SETUPS and k % every == every - 1:
                setups.append(clock.scale(set_up(workload, seed)[2]))
    work = runner.work_per_op
    print(f"{workload} unscaled: items_per_s = {work / median_or_fail(wall, workload):.6g} 1/s; "
          f"reference median {statistics.median(clock.refs):.4g} s, nominal {REF_SECONDS} s")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (work / median_or_fail(times, workload), "1/s"),
        "test_err": (runner.test_err(), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return runner, metrics, None


def measure_traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics. Each operation runs untraced, then traced; the
    tracing overhead is the median difference of the two."""
    tracer = Tracer()
    setups = [set_up(workload, seed, tracer, f"setup{i}") for i in range(SETUPS)]
    dm, inputs, _ = setups[-1]
    runner = Runner(dm, workload, inputs)
    n_items = len(inputs["items"])
    runner.run(0)
    pairs = []  # (untraced, traced) seconds of one operation, run back to back
    rounds = 0
    try:
        while sum(t for _, t in pairs if t is not None) < seconds or not pairs:
            for k in range(n_items):
                pairs.append((runner.run(k), runner.run(k, tracer, f"r{rounds}k{k}")))
            rounds += 1
    finally:
        tracer.restore()
    runner.test_err()
    spans = tracer.spans
    own = self_times(spans)
    by_op = {}
    for i, s in enumerate(spans):
        by_op.setdefault(s.op, []).append(i)
    per_op = [op_metrics(spans, own, idx) for op, idx in by_op.items()
              if not op.startswith("setup")]
    per_setup = [setup_metrics([spans[i] for i in idx]) for op, idx in by_op.items()
                 if op.startswith("setup")]
    metrics = {}
    for name in per_op[0]:
        unit = "s" if name.endswith("_s") else "count"
        if name.endswith("_per_item"):
            unit = "count/item"
        metrics[name] = (statistics.median(m[name] for m in per_op), unit)
    for name in per_setup[0]:
        metrics[name] = (statistics.median(m[name] for m in per_setup), "s")
    metrics["trace.overhead_s"] = (median_or_fail(
        [t - u for u, t in pairs if u is not None and t is not None], workload), "s")
    return runner, metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dipmix" / "__init__.py").is_file():
        print(f"dipmix sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    measure_fn = measure_traced if args.trace else measure
    runner, metrics, tracer = measure_fn(args.workload, args.seed, args.seconds)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
