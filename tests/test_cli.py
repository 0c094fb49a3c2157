import json
import math
from pathlib import Path

import numpy as np
import pytest

from dipmix import (ConfigurationError, DivergenceError, DomainError, InputError, MixConfig,
                    NumericError, OptimState, ParseError, ShapeError, cli, gen_spirals, load_csv,
                    mlp_init, split, train)
from dipmix import BetaParams, PredictorConfig, evaluate
from dipmix.cli import main
from dipmix.nn import ModelParams, forward, load_model, save_model
from dipmix.predictor import _blas_pin

from test_predictor import blas_threads, caller_count, count_forwards  # noqa: F401 (a fixture)


def generator(**fields):
    """A dataset override whose generator differs from tiny_config's in fields."""
    return {"generator": {"n_per_class": 30, "noise_std": 0.05, "turns": 1.25, "seed": 0,
                          **fields}}


def train_with(epochs, batch_size):
    ds = gen_spirals(8, 0.05, 1.25, 0)
    return train(mlp_init([2, 8, 2], "relu", seed=0), ds, MixConfig(), OptimState(0.1),
                 epochs, batch_size, np.random.default_rng(0))


def tiny_config(tmp_path, **overrides):
    cfg = {
        "dataset": {
            "generator": {"n_per_class": 30, "noise_std": 0.05, "turns": 1.25, "seed": 0},
            "test_fraction": 0.5,
            "split_seed": 0,
            "standardize": True,
        },
        "model": {"layer_sizes": [2, 8, 2], "activation": "relu"},
        "mix": {"mode": "label_mixing", "alpha": 1.0, "s": 1},
        "optim": {"learning_rate": 0.1, "momentum": 0.9, "schedule": [[5, 0.1]]},
        "epochs": 8,
        "batch_size": 16,
        "predictor": {"mode": "raw", "s_test": 50, "alpha": None},
        "seeds": [0],
        "output_dir": str(tmp_path / "run"),
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGenData:
    def test_default_row_count(self, tmp_path, capsys):
        out = tmp_path / "spirals.csv"
        assert main(["gen-data", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1001  # header + 500 per class
        assert "class 0: 500" in capsys.readouterr().out

    def test_small_noiseless(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["gen-data", "--n", "10", "--noise", "0", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 21

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["gen-data", "--n", "20", "--seed", "5", "--out", str(a)])
        main(["gen-data", "--n", "20", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exits_one(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 1

    @pytest.mark.parametrize("flag,value", [("--turns", "inf"), ("--noise", "nan"),
                                            ("--noise", "inf")])
    def test_non_finite_arg_exits_two_naming_it(self, tmp_path, capsys, flag, value):
        assert main(["gen-data", flag, value, "--out", str(tmp_path / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert flag.lstrip("-") in captured.err and "finite" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        assert main(["train", str(cfg_path)]) == 0
        run = tmp_path / "run"
        assert (run / "model.json").exists()
        assert (run / "metrics.csv").exists()
        assert (run / "standardize.json").exists()
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["training_prior"] == {"a": 1.0, "b": 1.0}
        header = (run / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,train_acc,lr"
        assert not list(run.glob("*.tmp"))

    def test_malformed_config_exits_two_no_outputs(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path, epochs="many", mix={"alpha": -1.0})
        assert main(["train", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "epochs" in err and "alpha" in err  # all failures listed at once
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides,key", [
        ({"dataset": 5}, "dataset must be a JSON object"),
        ({"mix": {"alpah": 1.0}}, "mix.alpah"),
        ({"mix": {"s": 2.5}}, "mix: s must"),
        ({"optim": {"schedule": [["a", 0.1]]}}, "optim: schedule"),
        ({"dataset": {"generator": {"n_per_class": 30, "noise_std": 0.05, "turns": 1.25,
                                    "seed": "x"}}}, "dataset.generator.seed"),
        ({"batch_size": 31}, "batch_size"),  # the train half holds 30 rows
        ({"model": {"layer_sizes": [3, 8, 2]}}, "layer_sizes"),
        ({"output_dir": 5}, "output_dir"),
        ({"dataset": {"csv": 7}}, "dataset.csv"),
        ({"mix": {"partner": "batch_permutation"}}, "mix.partner"),
        ({"predictor": {"s_test": True}}, "predictor: s_test must"),
        ({"predictor": {"s_test": 2.5}}, "predictor: s_test must"),
        ({"dataset": {"generator": {"n_per_class": 30, "noise_std": 0.05, "turns": math.inf,
                                    "seed": 0}}}, "dataset.generator.turns"),
        ({"dataset": {"generator": {"n_per_class": 30, "noise_std": math.inf, "turns": 1.25,
                                    "seed": 0}}}, "dataset.generator.noise_std"),
        ({"epochs": True}, "epochs must"),
        ({"mix": {"mode": "label_preserving", "s": True}}, "mix: s must"),
        ({"batch_size": True}, "batch_size must"),
        ({"seeds": [True]}, "seeds must"),
        ({"dataset": {"generator": {"n_per_class": True, "noise_std": 0.05, "turns": 1.25,
                                    "seed": 0}}}, "dataset.generator.n_per_class"),
        ({"dataset": {"standardize": "no"}}, "dataset.standardize must be true or false"),
        ({"dataset": {"standardize": 0}}, "dataset.standardize must be true or false"),
    ], ids=["section-not-object", "nested-typo", "s-not-int", "schedule-pair", "seed-type",
            "batch-too-large", "input-width", "output-dir-type", "csv-type", "removed-partner",
            "s-test-bool", "s-test-float", "turns-inf", "noise-inf", "epochs-bool", "s-bool",
            "batch-size-bool", "seeds-bool", "n-per-class-bool", "standardize-string",
            "standardize-zero"])
    def test_bad_config_exits_two_naming_key(self, tmp_path, capsys, overrides, key):
        cfg_path = tiny_config(tmp_path, **overrides)
        assert main(["train", str(cfg_path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_every_owner_reports_at_once(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path, epochs=0, batch_size=0)
        assert main(["train", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "epochs must" in err and "batch_size must" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides,prefix,owner", [
        ({"dataset": generator(turns=math.inf)}, "dataset.generator.",
         lambda: gen_spirals(30, 0.05, math.inf, 0)),
        ({"dataset": generator(n_per_class=True)}, "dataset.generator.",
         lambda: gen_spirals(True, 0.05, 1.25, 0)),
        ({"dataset": generator(noise_std=-1)}, "dataset.generator.",
         lambda: gen_spirals(30, -1, 1.25, 0)),
        ({"dataset": generator(seed=-1)}, "dataset.generator.",
         lambda: gen_spirals(30, 0.05, 1.25, -1)),
        ({"dataset": {"test_fraction": 1.5}}, "dataset.",
         lambda: split(gen_spirals(30), 1.5, 0)),
        ({"epochs": 0}, "", lambda: train_with(epochs=0, batch_size=16)),
        ({"batch_size": 0}, "", lambda: train_with(epochs=8, batch_size=0)),
        ({"predictor": {"mode": "x"}}, "predictor: ", lambda: PredictorConfig("x")),
    ], ids=["turns", "n-per-class", "noise-std", "generator-seed", "test-fraction", "epochs",
            "batch-size", "predictor-mode"])
    def test_config_reports_the_owners_rule(self, tmp_path, overrides, prefix, owner):
        # the config's line is the owner's message under the key's prefix: one rule, one text
        with pytest.raises(ConfigurationError) as owned:
            owner()
        doc = json.loads(tiny_config(tmp_path, **overrides).read_text())
        with pytest.raises(ConfigurationError) as config:
            cli.resolve_config(doc)
        lines = [line.strip() for line in str(config.value).splitlines()[1:]]
        assert lines == [prefix + str(owned.value)]

    @pytest.mark.parametrize("raw", ["true", "NaN", "Infinity"])
    @pytest.mark.parametrize("overrides,key", [
        ({"mix": {"alpha": "X"}}, "mix: alpha must"),
        ({"optim": {"learning_rate": "X"}}, "optim: learning_rate must"),
        ({"optim": {"momentum": "X"}}, "optim: momentum must"),
        ({"optim": {"schedule": [["X", 0.1]]}}, "optim: schedule must"),
        ({"optim": {"schedule": [[5, "X"]]}}, "optim: schedule must"),
        ({"dataset": {"generator": {"n_per_class": 30, "noise_std": "X", "turns": 1.25,
                                    "seed": 0}}}, "dataset.generator.noise_std must"),
        ({"dataset": {"generator": {"n_per_class": 30, "noise_std": 0.05, "turns": "X",
                                    "seed": 0}}}, "dataset.generator.turns must"),
        ({"dataset": {"test_fraction": "X"}}, "dataset.test_fraction must"),
        ({"predictor": {"alpha": "X"}}, "predictor.alpha must"),
    ], ids=["mix-alpha", "learning-rate", "momentum", "schedule-epoch", "schedule-multiplier",
            "noise-std", "turns", "test-fraction", "predictor-alpha"])
    def test_non_real_value_exits_two_naming_key(self, tmp_path, capsys, overrides, key, raw):
        # the value is JSON text, as a config file may hold it: true, NaN or Infinity
        cfg_path = tiny_config(tmp_path, **overrides)
        cfg_path.write_text(cfg_path.read_text().replace('"X"', raw))
        assert main(["train", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert key in captured.err and "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "run").exists()

    # 1e300 overflows the logits inside epoch 0, the others its mean loss
    @pytest.mark.parametrize("lr", [
        pytest.param(1000.0, id="lr-1e3"),
        pytest.param(1e4, id="lr-1e4"),
        pytest.param(1e300, marks=pytest.mark.filterwarnings(
            "ignore:overflow encountered:RuntimeWarning"), id="lr-1e300"),
    ])
    def test_diverging_run_exits_one_without_model(self, tmp_path, capsys, lr):
        cfg_path = tiny_config(tmp_path, optim={"learning_rate": lr}, epochs=3)
        assert main(["train", str(cfg_path)]) == 1
        assert "training diverged in epoch 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        sweep_dir = tmp_path / "sweep"
        assert main(["sweep", str(cfg_path), "--alphas", "1", "--s-values", "1",
                     "--output-dir", str(sweep_dir)]) == 0
        cell = json.loads((sweep_dir / "sweep_progress.json").read_text())["alpha=1,S=1,seed=0"]
        assert cell["error"].startswith("DivergenceError: training diverged in epoch 0")

    def test_collapsing_run_exits_one_without_model(self, tmp_path, capsys):
        # the default data and model at learning rate 5: a bounded loss, one class predicted
        cfg_path = tmp_path / "collapse.json"
        cfg_path.write_text(json.dumps({"mix": {"mode": "label_mixing", "alpha": 1.0},
                                        "optim": {"learning_rate": 5}, "epochs": 5,
                                        "output_dir": str(tmp_path / "run")}))
        assert main(["train", str(cfg_path)]) == 1
        assert "training collapsed: after epoch 4" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_one_class_far_above_uniform_loss_exits_one_without_model(self, tmp_path, capsys):
        # learning rate 5: the logits still vary, but class 0 everywhere at loss 6.4 > 2 log 2
        cfg_path = tiny_config(tmp_path, optim={"learning_rate": 5})
        assert main(["train", str(cfg_path)]) == 1
        assert "predicts class 0 for all 30 training rows" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_manifest_reproduces_metrics(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        main(["train", str(cfg_path)])
        first = (tmp_path / "run" / "metrics.csv").read_bytes()
        manifest = tmp_path / "run" / "manifest.json"
        assert main(["train", str(manifest), "--output-dir", str(tmp_path / "rerun")]) == 0
        assert (tmp_path / "rerun" / "metrics.csv").read_bytes() == first

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"epochz": 5}))
        assert main(["train", str(cfg_path)]) == 2

    def test_non_utf8_config_exits_two_naming_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_bytes(b'{"epochs": 5, "output_dir": "\xff"}')
        assert main(["train", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert f"config {cfg_path} is not UTF-8 text" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_absent_class_id_keeps_its_output(self, tmp_path, capsys):
        # class ids 0 and 2: split skips id 1, and the model needs outputs 0 to 2
        data = tmp_path / "gapped.csv"
        main(["gen-data", "--n", "30", "--out", str(data)])
        data.write_text(data.read_text().replace(",1\n", ",2\n"))
        cfg_path = tiny_config(tmp_path, dataset={"csv": str(data)},
                               model={"layer_sizes": [2, 8, 3]})
        assert main(["train", str(cfg_path)]) == 0
        assert load_model(tmp_path / "run" / "model.json").n_outputs == 3
        capsys.readouterr()
        cfg_path = tiny_config(tmp_path, dataset={"csv": str(data)},
                               output_dir=str(tmp_path / "r2"))
        assert main(["train", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert "do not fit data with 2 features and 3 classes" in captured.err
        assert not (tmp_path / "r2").exists()

    def test_separable_spirals_reach_high_train_accuracy(self, tmp_path):
        cfg_path = tiny_config(
            tmp_path,
            dataset={"generator": {"n_per_class": 100, "noise_std": 0.0,
                                   "turns": 1.25, "seed": 1},
                     "test_fraction": None},
            model={"layer_sizes": [2, 64, 64, 2]},
            mix={"mode": "none", "alpha": 0.0},
            optim={"schedule": [[100, 0.1], [150, 0.1]]},
            epochs=200,
            batch_size=64,
        )
        assert main(["train", str(cfg_path)]) == 0
        last = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[-1]
        train_acc = float(last.split(",")[2])
        assert train_acc >= 0.99

    def test_env_var_supplies_output_dir(self, tmp_path, monkeypatch):
        cfg_path = tiny_config(tmp_path, output_dir=None)
        monkeypatch.setenv("DIPMIX_OUTPUT_DIR", str(tmp_path / "from_env"))
        assert main(["train", str(cfg_path)]) == 0
        assert (tmp_path / "from_env" / "model.json").exists()

    def test_no_output_dir_exits_two_naming_every_source(self, tmp_path, monkeypatch, capsys):
        cfg_path = tiny_config(tmp_path, output_dir=None)
        monkeypatch.delenv("DIPMIX_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["train", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: no output directory: set output_dir, --output-dir, "
                                "or $DIPMIX_OUTPUT_DIR\n")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_config_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("[1]")
        assert main(["train", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: config must be a JSON object\n" and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def diverge_at_s3(cfg):
    """Fails a sweep cell of S = 3 as diverged training does."""
    if cfg["mix"]["s"] == 3:
        raise DivergenceError("diverged at S=3")


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One small trained model plus datasets, shared by eval/grid tests."""
    tmp = tmp_path_factory.mktemp("cli_run")
    cfg_path = tiny_config(tmp, epochs=40)
    assert main(["train", str(cfg_path)]) == 0
    data_csv = tmp / "all.csv"
    main(["gen-data", "--n", "30", "--seed", "0", "--out", str(data_csv)])
    run = tmp / "run"
    return {
        "model": str(run / "model.json"),
        "stats": str(run / "standardize.json"),
        "data": str(data_csv),
        "dir": tmp,
    }


@pytest.mark.parametrize("command,flag", [
    (["gen-data", "--seed", "-1", "--out", "{dir}/out.csv"], "--seed"),
    (["train", "{config}", "--seed", "-1"], "--seed"),
    (["eval", "--model", "{model}", "--data", "{data}", "--mode", "dip",
      "--partner-data", "{data}", "--seed", "-1"], "--seed"),
    (["grid", "--model", "{model}", "--res", "4", "--mode", "dip", "--partner-data", "{data}",
      "--seed", "-1", "--out-prefix", "{dir}/out"], "--seed"),
    (["sweep", "{config}", "--alphas", "1", "--s-values", "1", "--seeds=-1"], "--seeds"),
], ids=["gen-data", "train", "eval", "grid", "sweep"])
def test_negative_seed_exits_two_before_any_output(trained_run, tmp_path, capsys, command, flag):
    names = {"dir": tmp_path, "config": tiny_config(tmp_path), "model": trained_run["model"],
             "data": trained_run["data"]}
    assert main([arg.format(**names) for arg in command]) == 2
    captured = capsys.readouterr()
    assert flag + " must" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", [
    ["eval", "--model", "{model}", "--data", "{data}"],
    ["grid", "--model", "{model}", "--res", "4", "--out-prefix", "{dir}/out"],
    ["bound", "--data", "{data}", "--out", "{dir}/bound.json"],
], ids=["eval", "grid", "bound"])
def test_bad_alpha_exits_two_in_every_mode(trained_run, tmp_path, capsys, command, value):
    # raw eval and grid never read the prior, but eval echoes it in its JSON
    names = {"dir": tmp_path, "model": trained_run["model"], "data": trained_run["data"]}
    assert main([arg.format(**names) for arg in command] + [f"--alpha={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --alpha must be a finite number >= 0, got {float(value)}\n"
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc,code,err", [
    (InputError("bad"), 2, "error: bad"),
    (ConfigurationError("bad"), 2, "error: bad"),
    (ShapeError("bad"), 2, "error: bad"),
    (DomainError("bad"), 2, "error: bad"),
    (NumericError("bad"), 2, "error: bad"),
    (ParseError("bad", line=3), 2, "error: line 3: bad"),
    (DivergenceError("bad"), 1, "error: bad"),
    (OSError("bad"), 1, "i/o error: bad"),
], ids=["input", "configuration", "shape", "domain", "numeric", "parse", "divergence", "os"])
def test_exit_code_follows_the_error_class(tmp_path, monkeypatch, capsys, exc, code, err):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_gen_data", fail)
    assert main(["gen-data", "--out", str(tmp_path / "out.csv")]) == code
    captured = capsys.readouterr()
    assert captured.err == err + "\n" and captured.out == ""


@pytest.mark.parametrize("command", [[], ["--alphas", "1", "--s-values", "1"]],
                         ids=["train", "sweep"])
def test_empty_output_dir_flag_exits_two_before_training(tmp_path, monkeypatch, capsys, command):
    # the flag is taken whenever it is given, so an empty one is not passed over for the variable
    monkeypatch.setattr(cli, "run_training", lambda *a: pytest.fail("trained a model"))
    monkeypatch.setenv("DIPMIX_OUTPUT_DIR", str(tmp_path / "from_env"))
    cfg_path = tiny_config(tmp_path, output_dir=None)
    name = "sweep" if command else "train"
    assert main([name, str(cfg_path), *command, "--output-dir", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --output-dir must be a nonempty string\n" and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.skipif(_blas_pin() is None, reason="numpy's BLAS has no per-call thread count")
@pytest.mark.parametrize("user", [None, "2"], ids=["default", "user-set"])
def test_every_heavy_command_runs_on_one_blas_thread(tmp_path, monkeypatch, caller_count, user):
    """train, raw eval and dip grid run every forward on one BLAS thread, whether
    or not OPENBLAS_NUM_THREADS is set, and give the in-process caller back its
    count."""
    pin, count = caller_count
    if user is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", user)
    seen = count_forwards(monkeypatch, pin)
    cfg_path, data = tiny_config(tmp_path, epochs=2), str(tmp_path / "d.csv")
    model = ["--model", str(tmp_path / "run" / "model.json")]
    assert main(["gen-data", "--n", "20", "--out", data]) == 0
    # 8 x 8 grid points at S = 600 are 11 blocks of 6 points, spread over the workers
    for argv in (["train", str(cfg_path)], ["eval", *model, "--data", data],
                 ["grid", *model, "--res", "8", "--mode", "dip", "--s-test", "600",
                  "--partner-data", data, "--out-prefix", str(tmp_path / "g")]):
        seen.clear()
        assert main(argv) == 0
        assert seen and set(seen) == {1}
        assert blas_threads(pin) == count


def test_other_value_errors_propagate(tmp_path, monkeypatch):
    # a ValueError that is no InputError is a fault in the program or in numpy, not bad input
    def fail(args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "cmd_gen_data", fail)
    with pytest.raises(ValueError, match="could not be broadcast"):
        main(["gen-data", "--out", str(tmp_path / "out.csv")])


class TestEval:
    def test_dip_with_alpha_zero_equals_raw(self, trained_run, capsys):
        base = ["--model", trained_run["model"], "--data", trained_run["data"],
                "--stats", trained_run["stats"]]
        assert main(["eval"] + base + ["--mode", "raw"]) == 0
        raw_out = json.loads(capsys.readouterr().out)
        assert main(["eval"] + base + ["--mode", "dip", "--alpha", "0",
                                       "--partner-data", trained_run["data"]]) == 0
        dip_out = json.loads(capsys.readouterr().out)
        for key in ("accuracy", "misclassification_rate", "mean_loss"):
            assert raw_out[key] == dip_out[key]

    def test_fixed_seed_identical_json(self, trained_run, capsys):
        args = ["eval", "--model", trained_run["model"], "--data", trained_run["data"],
                "--stats", trained_run["stats"], "--mode", "dip", "--alpha", "1",
                "--s-test", "50", "--seed", "3", "--partner-data", trained_run["data"]]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_dip_without_pool_exits_two(self, trained_run, capsys):
        assert main(["eval", "--model", trained_run["model"], "--data", trained_run["data"],
                     "--mode", "dip"]) == 2
        assert "--partner-data" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha_exits_two(self, trained_run, capsys, value):
        assert main(["eval", "--model", trained_run["model"], "--data", trained_run["data"],
                     "--mode", "dip", "--alpha", value,
                     "--partner-data", trained_run["data"]]) == 2
        captured = capsys.readouterr()
        assert "--alpha must be a finite number >= 0" in captured.err and captured.out == ""

    @pytest.mark.parametrize("doc,field", [
        ('{"mean": [0.0, 0.0]}', "'std'"),
        ('{"mean": [0, 0], "std": [1.0]}', "std"),
        ('[[0, 0], [1, 1]]', "'mean'"),
        ('{"mean": [0, 0], "std": ["a", 1]}', "'std'"),
        ('{"mean": [0, 0], ', "not valid JSON"),
        ('{"mean": [0, 0], "std": [Infinity, 1]}', "must be finite"),
        ('{"mean": [NaN, 0], "std": [1, 1]}', "must be finite"),
    ])
    def test_bad_stats_file_exits_two(self, trained_run, tmp_path, capsys, doc, field):
        bad = tmp_path / "stats.json"
        bad.write_text(doc)
        assert main(["eval", "--model", trained_run["model"], "--data", trained_run["data"],
                     "--stats", str(bad)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        '{"layer_sizes": [2, 2', "[1, 2, 3]",
        '{"layer_sizes": [2, 2], "weights": [[[1, 2], [3]]], "biases": [[0, 0]]}',
    ])
    def test_bad_model_file_exits_two(self, trained_run, tmp_path, capsys, doc):
        bad = tmp_path / "model.json"
        bad.write_text(doc)
        assert main(["eval", "--model", str(bad), "--data", trained_run["data"]]) == 2
        assert "error:" in capsys.readouterr().err

    def test_incompatible_model_exits_two(self, trained_run, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,x3,label\n1,2,3,0\n4,5,6,1\n")
        assert main(["eval", "--model", trained_run["model"], "--data", str(bad)]) == 2
        # dip mode: a 3-column partner pool, then 3-column scored points
        for data, pool in ((trained_run["data"], str(bad)), (str(bad), trained_run["data"])):
            assert main(["eval", "--model", trained_run["model"], "--data", data,
                         "--mode", "dip", "--partner-data", pool]) == 2

    @pytest.mark.parametrize("rows", [
        "0.1,0.2,0\n0.3,0.4,1\n0.5,0.6,2\n",
        "0.1,0.2,2\n0.3,0.4,2\n",  # one class present, and the model has no output for it
    ], ids=["three-classes", "class-two-only"])
    def test_label_width_other_than_model_outputs_exits_two(self, trained_run, tmp_path,
                                                            capsys, rows):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,label\n" + rows)
        assert main(["eval", "--model", trained_run["model"], "--data", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "class id 2 has no output in a 2-output model" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_shifted_labels_exit_two_naming_class_two(self, trained_run, tmp_path, capsys):
        lines = Path(trained_run["data"]).read_text().splitlines()
        shifted = tmp_path / "shifted.csv"
        shifted.write_text("\n".join([lines[0]] + [
            f"{row.rsplit(',', 1)[0]},{int(row.rsplit(',', 1)[1]) + 1}" for row in lines[1:]]))
        assert main(["eval", "--model", trained_run["model"], "--data", str(shifted)]) == 2
        captured = capsys.readouterr()
        assert "class id 2 has no output" in captured.err and captured.out == ""

    @pytest.mark.parametrize("cls", [0, 1], ids=["class-zero-only", "class-one-only"])
    def test_single_class_file_scores_against_its_output(self, trained_run, tmp_path, capsys,
                                                         cls):
        lines = Path(trained_run["data"]).read_text().splitlines()
        one = tmp_path / "one.csv"
        one.write_text("\n".join([lines[0]] + [r for r in lines[1:] if r.endswith(f",{cls}")]))
        rows = load_csv(one).features
        assert main(["eval", "--model", trained_run["model"], "--data", str(one),
                     "--stats", trained_run["stats"]]) == 0
        out = json.loads(capsys.readouterr().out)
        stats = json.loads(Path(trained_run["stats"]).read_text())
        logits = forward(load_model(trained_run["model"]),
                         (rows - stats["mean"]) / np.array(stats["std"]))
        assert out["n"] == len(rows) > 0
        assert out["accuracy"] == np.mean(logits.argmax(axis=1) == cls)
        log_probs = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
        assert out["mean_loss"] == pytest.approx(-log_probs[:, cls].mean(), rel=1e-12)

    def test_non_utf8_data_exits_two_naming_it(self, trained_run, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"x1,x2,label\n0.1,0.2,0\xff\n")
        assert main(["eval", "--model", trained_run["model"], "--data", str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"CSV file {bad} is not UTF-8 text" in captured.err and captured.out == ""

    def test_missing_file_exits_one(self, trained_run):
        assert main(["eval", "--model", trained_run["model"],
                     "--data", "/nonexistent.csv"]) == 1


class TestBound:
    def test_alpha_one_c_lambda(self, trained_run, capsys):
        assert main(["bound", "--data", trained_run["data"], "--alpha", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["c_lambda"] - 2 / 3) < 1e-12

    def test_alpha_two_shrinks_rad_bound(self, trained_run, capsys):
        main(["bound", "--data", trained_run["data"], "--alpha", "1"])
        r1 = json.loads(capsys.readouterr().out)
        main(["bound", "--data", trained_run["data"], "--alpha", "2"])
        r2 = json.loads(capsys.readouterr().out)
        assert r2["rad_bound"] < r1["rad_bound"]

    def test_standardized_data_centers(self, trained_run, capsys):
        assert main(["bound", "--data", trained_run["data"], "--alpha", "1",
                     "--standardize"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sq_norm_mean"] < 1e-18

    def test_bad_constants_exit_two(self, trained_run):
        assert main(["bound", "--data", trained_run["data"], "--delta", "2.0"]) == 2

    @pytest.mark.parametrize("flag,name", [("--rho", "rho"), ("--c-h", "c_h"),
                                           ("--loss-bound", "loss_bound"), ("--delta", "delta"),
                                           ("--alpha", "alpha")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_constant_exits_two(self, trained_run, tmp_path, capsys, flag, name,
                                           value):
        out = tmp_path / "bound.json"
        assert main(["bound", "--data", trained_run["data"], flag, value,
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert name in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_alpha_zero_means_no_mixing(self, trained_run, capsys):
        assert main(["bound", "--data", trained_run["data"], "--alpha", "0"]) == 0
        assert '"c_lambda": 1.0' in capsys.readouterr().out

    def test_out_file_holds_what_it_prints(self, trained_run, tmp_path, capsys):
        out = tmp_path / "bound.json"
        assert main(["bound", "--data", trained_run["data"], "--alpha", "2", "--standardize",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert json.loads(printed)["c_lambda"] == pytest.approx(0.6)
        assert out.read_bytes() == printed.encode()


class TestSweep:
    def test_grid_rows_and_aggregates(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        assert main(["sweep", str(cfg_path), "--alphas", "0,1", "--s-values", "1",
                     "--seeds", "0,1,2"]) == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("alpha,S,mode,seed,train_err,test_err,gap,"
                            "train_err_se,test_err_se,gap_se")
        assert len(lines) == 1 + 6 + 2  # header, 6 runs, 2 aggregate rows
        alpha0 = [l for l in lines[1:] if l.startswith("0,")]
        assert all(",none," in l for l in alpha0)

    def test_bad_s_test_exits_two_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_training", lambda *a: pytest.fail("trained a cell"))
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"),
                               predictor={"mode": "dip", "s_test": True})
        assert main(["sweep", str(cfg_path), "--alphas", "1", "--s-values", "1"]) == 2
        assert "predictor: s_test must be an integer > 0, got True" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("overrides,flags,flag", [
        ({}, ["--alphas", "1", "--s-values", "1", "--seeds", "0,0"], "--seeds"),
        ({}, ["--alphas", "1,1.0", "--s-values", "1", "--seeds", "0"], "--alphas"),
        ({}, ["--alphas", "1", "--s-values", "2,1,2", "--seeds", "0"], "--s-values"),
        ({"seeds": [0, 0]}, ["--alphas", "1", "--s-values", "1"], "seeds"),
        ({}, ["--alphas", "inf", "--s-values", "1", "--seeds", "0"], "--alphas"),
        ({}, ["--alphas", "1,nan", "--s-values", "1", "--seeds", "0"], "--alphas"),
    ], ids=["seeds-repeat", "alphas-repeat", "s-values-repeat", "config-seeds-repeat",
            "alpha-inf", "alpha-nan"])
    def test_bad_list_exits_two_before_training(self, tmp_path, capsys, monkeypatch,
                                                overrides, flags, flag):
        monkeypatch.setattr(cli, "run_training", lambda *a: pytest.fail("trained a cell"))
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"), **overrides)
        assert main(["sweep", str(cfg_path)] + flags) == 2
        captured = capsys.readouterr()
        assert flag + " must" in captured.err and captured.out == ""
        assert not (tmp_path / "sweep").exists()

    def test_aggregate_se_hand_checked(self, tmp_path):
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        main(["sweep", str(cfg_path), "--alphas", "1", "--s-values", "1",
              "--seeds", "0,1,2"])
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        runs = [l.split(",") for l in lines if l.split(",")[3] != "mean"]
        agg = [l.split(",") for l in lines if l.split(",")[3] == "mean"][0]
        gaps = np.array([float(r[6]) for r in runs])
        expected_se = gaps.std(ddof=1) / math.sqrt(len(gaps))
        assert abs(float(agg[9]) - expected_se) < 1e-12
        assert abs(float(agg[6]) - gaps.mean()) < 1e-12

    def test_s_ignoring_modes_train_once_per_alpha_and_seed(self, tmp_path, monkeypatch):
        modes = []
        real = cli.run_training
        monkeypatch.setattr(cli, "run_training", lambda cfg, seed, train_set: (
            modes.append(cfg["mix"]["mode"]) or real(cfg, seed, train_set)))
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        assert main(["sweep", str(cfg_path), "--alphas", "0,1", "--s-values", "1,2,4",
                     "--seeds", "0"]) == 0
        assert modes == ["none", "label_mixing"]
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        rows = [l.split(",")[:7] for l in lines if l.split(",")[3] == "0"]
        assert [r[:3] for r in rows] == [["0", "1", "none"], ["0", "2", "none"],
                                         ["0", "4", "none"], ["1", "1", "label_mixing"],
                                         ["1", "2", "label_mixing"], ["1", "4", "label_mixing"]]
        # every S of one (alpha, seed) reports the scores of its one model
        assert rows[0][4:] == rows[1][4:] == rows[2][4:]
        assert rows[3][4:] == rows[4][4:] == rows[5][4:]

    def test_predictor_alpha_scores_every_cell(self, tmp_path, monkeypatch):
        # a non-null predictor.alpha sets the scoring prior of every cell, alpha 0's too
        models = {}
        real = cli.run_training

        def record(cfg, seed, train_set):
            models[cfg["mix"]["alpha"], seed] = real(cfg, seed, train_set)
            return models[cfg["mix"]["alpha"], seed]

        monkeypatch.setattr(cli, "run_training", record)
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"),
                               predictor={"mode": "dip", "s_test": 20, "alpha": 2.0})
        assert main(["sweep", str(cfg_path), "--alphas", "0,1", "--s-values", "1",
                     "--seeds", "0"]) == 0
        progress = json.loads((tmp_path / "sweep" / "sweep_progress.json").read_text())
        assert sorted(models) == [(0.0, 0), (1.0, 0)]
        train_set, test_set, _, _ = cli.build_datasets(
            cli.resolve_config(json.loads(cfg_path.read_text())))
        for (alpha, seed), (params, _) in models.items():
            pred = PredictorConfig("dip", 20, BetaParams(3.0, 2.0), train_set.features, seed)
            cell = progress[f"alpha={alpha:g},S=1,seed={seed}"]
            assert cell["train_err"] == evaluate(params, train_set, pred).misclassification_rate
            assert cell["test_err"] == evaluate(params, test_set, pred).misclassification_rate

    @pytest.mark.parametrize("alpha", ["0", "1", "0,1"], ids=["none", "label-mixing", "both"])
    def test_resumed_sweep_reuses_the_models_it_holds(self, tmp_path, monkeypatch, alpha):
        cfg_path = tiny_config(tmp_path)
        fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
        flags = ["--alphas", alpha, "--seeds", "0,1", "--s-values"]
        assert main(["sweep", str(cfg_path), *flags, "1,2,4", "--output-dir", str(fresh)]) == 0
        assert main(["sweep", str(cfg_path), *flags, "1", "--output-dir", str(resumed)]) == 0
        monkeypatch.setattr(cli, "run_training", lambda *a: pytest.fail("trained a held model"))
        assert main(["sweep", str(cfg_path), *flags, "1,2,4", "--output-dir", str(resumed)]) == 0
        for name in ("sweep.csv", "sweep_progress.json"):
            assert (resumed / name).read_bytes() == (fresh / name).read_bytes()

    def test_cells_outside_the_grid_follow_in_their_old_order(self, tmp_path, monkeypatch):
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        assert main(["sweep", str(cfg_path), "--alphas", "0,1", "--s-values", "1",
                     "--seeds", "0,1"]) == 0
        progress_path = tmp_path / "sweep" / "sweep_progress.json"
        before = json.loads(progress_path.read_text())
        monkeypatch.setattr(cli, "run_training", lambda *a: pytest.fail("trained a held model"))
        assert main(["sweep", str(cfg_path), "--alphas", "1", "--s-values", "1,2",
                     "--seeds", "1"]) == 0
        after = json.loads(progress_path.read_text())
        assert list(after) == ["alpha=1,S=1,seed=1", "alpha=1,S=2,seed=1", "alpha=0,S=1,seed=0",
                               "alpha=0,S=1,seed=1", "alpha=1,S=1,seed=0"]
        assert all(after[key] == cell for key, cell in before.items())
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        assert [l.split(",")[:4] for l in lines] == [["1", "1", "label_mixing", "1"],
                                                      ["1", "1", "label_mixing", "mean"],
                                                      ["1", "2", "label_mixing", "1"],
                                                      ["1", "2", "label_mixing", "mean"]]

    @pytest.mark.parametrize("alpha,mode,trains", [
        ("0", "none", [("none", 3)]),
        ("1", "label_preserving", [("label_preserving", 1), ("label_preserving", 2)]),
    ], ids=["none", "label-preserving"])
    def test_each_model_trains_once(self, tmp_path, monkeypatch, alpha, mode, trains):
        # only a mode that reads S can fail at S = 3 alone; one that ignores S trains at the first
        trained = []
        real = cli.run_training
        monkeypatch.setattr(cli, "run_training", lambda cfg, seed, train_set: (
            (mode == "label_preserving" and diverge_at_s3(cfg))
            or trained.append((cfg["mix"]["mode"], cfg["mix"]["s"]))
            or real(cfg, seed, train_set)))
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"),
                               mix={"mode": mode, "alpha": float(alpha), "s": 1})
        assert main(["sweep", str(cfg_path), "--alphas", alpha, "--s-values", "3,1,2",
                     "--seeds", "0"]) == 0
        assert trained == trains
        progress = json.loads((tmp_path / "sweep" / "sweep_progress.json").read_text())
        cells = [progress[f"alpha={alpha},S={s},seed=0"] for s in (3, 1, 2)]
        scores = [{k: v for k, v in c.items() if k not in ("S", "scores_sha256")} for c in cells]
        if mode == "none":  # S = 1 and S = 2 report S = 3's scores
            assert [cell["S"] for cell in cells] == [3, 1, 2]
            assert scores[0] == scores[1] == scores[2]
        else:
            assert cells[0]["error"] == "DivergenceError: diverged at S=3"
            assert [cell["S"] for cell in cells[1:]] == [1, 2] and scores[1] != scores[2]

    @pytest.mark.parametrize("alpha,mode", [("0", "label_preserving"), ("1", "label_mixing")],
                             ids=["alpha0", "label-mixing"])
    def test_a_model_that_ignores_s_fails_once(self, tmp_path, monkeypatch, capsys, alpha, mode):
        attempts = []

        def diverge(cfg, seed, train_set):
            attempts.append((cfg["mix"]["s"], seed))
            raise DivergenceError("training diverged in epoch 0")

        monkeypatch.setattr(cli, "run_training", diverge)
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"),
                               mix={"mode": mode, "alpha": 1.0, "s": 1})
        args = ["sweep", str(cfg_path), "--alphas", alpha, "--s-values", "3,1,2",
                "--seeds", "0,1"]
        for run in (1, 2):  # a resumed sweep trains its failed cells again
            assert main(args) == 0
            assert attempts == [(3, 0), (3, 1)] * run
            progress = json.loads((tmp_path / "sweep" / "sweep_progress.json").read_text())
            assert list(progress) == [f"alpha={alpha},S={s},seed={seed}"
                                      for s in (3, 1, 2) for seed in (0, 1)]
            error = "DivergenceError: training diverged in epoch 0"
            assert all(cell == {"error": error} for cell in progress.values())
            assert capsys.readouterr().err.count(f"failed: {error}\n") == 6
            assert (tmp_path / "sweep" / "sweep.csv").read_text().count("\n") == 1

    def test_alphas_that_print_alike_stay_apart(self, tmp_path):
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"), epochs=2)
        assert main(["sweep", str(cfg_path), "--alphas", "0.1234567,0.1234568",
                     "--s-values", "1", "--seeds", "0"]) == 0
        progress = json.loads((tmp_path / "sweep" / "sweep_progress.json").read_text())
        assert sorted(progress) == ["alpha=0.1234567,S=1,seed=0", "alpha=0.1234568,S=1,seed=0"]
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        assert [l.split(",")[0] for l in lines] == ["0.1234567"] * 2 + ["0.1234568"] * 2

    def test_resume_skips_completed_cells(self, tmp_path):
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        args = ["sweep", str(cfg_path), "--alphas", "1", "--s-values", "1",
                "--seeds", "0,1"]
        assert main(args) == 0
        csv_path = tmp_path / "sweep" / "sweep.csv"
        first = csv_path.read_bytes()
        progress_path = tmp_path / "sweep" / "sweep_progress.json"
        before = progress_path.read_text()
        csv_path.unlink()
        # the same cells in another order are written back in grid order
        cells = json.loads(before)
        progress_path.write_text(json.dumps(dict(reversed(cells.items())), indent=2))
        assert main(args) == 0
        assert csv_path.read_bytes() == first
        assert progress_path.read_text() == before

    def test_resume_reruns_cells_of_changed_config(self, tmp_path):
        args = ["sweep", "--alphas", "1", "--s-values", "1", "--seeds", "0,1",
                "--output-dir", str(tmp_path / "sweep")]
        assert main(args[:1] + [str(tiny_config(tmp_path))] + args[1:]) == 0
        csv_path = tmp_path / "sweep" / "sweep.csv"
        first = csv_path.read_bytes()
        assert main(args[:1] + [str(tiny_config(tmp_path, epochs=40))] + args[1:]) == 0
        assert csv_path.read_bytes() != first
        progress = json.loads((tmp_path / "sweep" / "sweep_progress.json").read_text())
        assert len({cell["config_sha256"] for cell in progress.values()}) == 1

    @pytest.mark.parametrize("changed", [False, True], ids=["same-csv", "changed-csv"])
    def test_resume_reruns_cells_only_when_the_csv_changed(self, tmp_path, monkeypatch, changed):
        data, resumed, fresh = tmp_path / "data.csv", tmp_path / "resumed", tmp_path / "fresh"
        assert main(["gen-data", "--n", "30", "--out", str(data)]) == 0
        cfg_path = tiny_config(tmp_path, dataset={"csv": str(data)})
        args = ["sweep", str(cfg_path), "--alphas", "0,1", "--s-values", "1", "--seeds", "0",
                "--output-dir"]
        assert main([*args, str(resumed)]) == 0
        first = (resumed / "sweep.csv").read_bytes()
        if changed:
            assert main(["gen-data", "--n", "30", "--seed", "1", "--out", str(data)]) == 0
        assert main([*args, str(fresh)]) == 0
        assert (first != (fresh / "sweep.csv").read_bytes()) == changed
        trained = []
        real = cli.run_training
        monkeypatch.setattr(cli, "run_training",
                            lambda cfg, seed, train_set: trained.append(seed)
                            or real(cfg, seed, train_set))
        assert main([*args, str(resumed)]) == 0
        assert len(trained) == (2 if changed else 0)
        for name in ("sweep.csv", "sweep_progress.json"):
            assert (resumed / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("content", [b"a,b\n1,0\n", b"x1,x2,label\n\xff,0,1\n"],
                             ids=["header", "not-utf8"])
    def test_malformed_csv_exits_two_as_train_does(self, tmp_path, monkeypatch, capsys, content):
        monkeypatch.setattr(cli, "run_training", lambda *a: pytest.fail("trained a model"))
        data = tmp_path / "data.csv"
        data.write_bytes(content)
        cfg_path = tiny_config(tmp_path, dataset={"csv": str(data)})
        assert main(["train", str(cfg_path)]) == 2
        train_err = capsys.readouterr().err
        assert train_err.startswith("error: ") and train_err.count("\n") == 1
        assert main(["sweep", str(cfg_path), "--alphas", "0,1", "--s-values", "1",
                     "--output-dir", str(tmp_path / "sweep")]) == 2
        captured = capsys.readouterr()
        assert captured.err == train_err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.csv"]

    def test_csv_is_read_and_parsed_once(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data.csv"
        assert main(["gen-data", "--n", "30", "--out", str(data)]) == 0
        reads, parses = [], []
        read_bytes, parse_csv = Path.read_bytes, cli.parse_csv
        monkeypatch.setattr(Path, "read_bytes", lambda path: (
            path == data and reads.append(path)) or read_bytes(path))
        monkeypatch.setattr(cli, "parse_csv", lambda raw, path: (
            parses.append(path) or parse_csv(raw, path)))
        cfg_path = tiny_config(tmp_path, dataset={"csv": str(data)},
                               mix={"mode": "label_preserving", "alpha": 1.0, "s": 1})
        assert main(["sweep", str(cfg_path), "--alphas", "0,1", "--s-values", "1,3",
                     "--seeds", "0,1", "--output-dir", str(tmp_path / "sweep")]) == 0
        assert "(8 cells, 0 failed)" in capsys.readouterr().out
        assert reads == [data] and parses == [str(data)]

    def test_csv_overwritten_mid_sweep_is_not_read_again(self, tmp_path, monkeypatch):
        data, other = tmp_path / "data.csv", tmp_path / "other.csv"
        assert main(["gen-data", "--n", "30", "--out", str(data)]) == 0
        assert main(["gen-data", "--n", "30", "--seed", "1", "--out", str(other)]) == 0
        cfg_path = tiny_config(tmp_path, dataset={"csv": str(data)})
        args = ["sweep", str(cfg_path), "--alphas", "0,1", "--s-values", "1", "--seeds", "0,1",
                "--output-dir"]
        assert main([*args, str(tmp_path / "fresh")]) == 0
        real = cli.run_training

        def overwrite_then_train(cfg, seed, train_set):
            data.write_bytes(other.read_bytes())  # during the first cell and every later one
            return real(cfg, seed, train_set)

        monkeypatch.setattr(cli, "run_training", overwrite_then_train)
        assert main([*args, str(tmp_path / "overwritten")]) == 0
        assert data.read_bytes() == other.read_bytes()
        for name in ("sweep.csv", "sweep_progress.json"):
            assert ((tmp_path / "overwritten" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())

    def test_unreadable_csv_exits_one_before_any_cell(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_training", lambda *a: pytest.fail("trained a model"))
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"),
                               dataset={"csv": str(tmp_path / "missing.csv")})
        assert main(["sweep", str(cfg_path), "--alphas", "1", "--s-values", "1"]) == 1
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert not (tmp_path / "sweep").exists()

    def test_minus_zero_alpha_is_alpha_zero(self, tmp_path, monkeypatch):
        trained = []
        real = cli.run_training
        monkeypatch.setattr(cli, "run_training",
                            lambda cfg, seed, train_set: trained.append(seed)
                            or real(cfg, seed, train_set))
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        for alphas in ("--alphas=-0", "--alphas=0"):
            assert main(["sweep", str(cfg_path), alphas, "--s-values", "1", "--seeds", "0"]) == 0
        assert len(trained) == 1
        progress = json.loads((tmp_path / "sweep" / "sweep_progress.json").read_text())
        assert list(progress) == ["alpha=0,S=1,seed=0"]
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        assert [l.split(",")[0] for l in lines] == ["0", "0"]

    def test_resume_reruns_cells_of_another_version(self, tmp_path, monkeypatch):
        args = ["sweep", str(tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))),
                "--alphas", "1", "--s-values", "1", "--seeds", "0,1"]
        assert main(args) == 0
        csv_path = tmp_path / "sweep" / "sweep.csv"
        progress_path = tmp_path / "sweep" / "sweep_progress.json"
        first, first_progress = csv_path.read_bytes(), progress_path.read_bytes()
        # cells another version computed, with other scores and digests that match them
        monkeypatch.setattr(cli, "__version__", "0.0.0")
        monkeypatch.setattr(cli, "_sweep_cell",
                            lambda *a: {"alpha": 1.0, "S": 1, "mode": "label_mixing",
                                        "seed": a[3], "train_err": 0.999, "test_err": 0.999,
                                        "gap": 0.0})
        progress_path.unlink()
        assert main(args) == 0
        assert b"0.999" in csv_path.read_bytes()
        monkeypatch.undo()
        trained = []
        real = cli.run_training
        monkeypatch.setattr(cli, "run_training",
                            lambda cfg, seed, train_set: trained.append(seed)
                            or real(cfg, seed, train_set))
        assert main(args) == 0
        assert trained == [0, 1]
        assert csv_path.read_bytes() == first
        assert progress_path.read_bytes() == first_progress

    @pytest.mark.parametrize("edit", [
        lambda cell: cell.update(test_err=0.999),
        lambda cell: cell.pop("gap"),
        lambda cell: cell.pop("scores_sha256"),
    ], ids=["test-err", "field-dropped", "digest-dropped"])
    def test_resume_reruns_edited_cells(self, tmp_path, monkeypatch, edit):
        args = ["sweep", str(tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))),
                "--alphas", "1", "--s-values", "1", "--seeds", "0,1"]
        assert main(args) == 0
        csv_path = tmp_path / "sweep" / "sweep.csv"
        progress_path = tmp_path / "sweep" / "sweep_progress.json"
        first, first_progress = csv_path.read_bytes(), progress_path.read_bytes()
        progress = json.loads(first_progress)
        edit(progress["alpha=1,S=1,seed=1"])
        progress_path.write_text(json.dumps(progress, indent=2))
        trained = []
        real = cli.run_training
        monkeypatch.setattr(cli, "run_training",
                            lambda cfg, seed, train_set: trained.append(seed)
                            or real(cfg, seed, train_set))
        assert main(args) == 0
        assert trained == [1]
        assert csv_path.read_bytes() == first
        assert progress_path.read_bytes() == first_progress

    def test_failed_cell_recorded_sweep_continues(self, tmp_path, monkeypatch, capsys):
        real = cli.run_training
        monkeypatch.setattr(cli, "run_training",
                            lambda cfg, seed, train_set: diverge_at_s3(cfg)
                            or real(cfg, seed, train_set))
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"),
                               mix={"mode": "label_preserving", "alpha": 1.0, "s": 1})
        # the S=3 cells diverge; the S=1 cells, whose models differ, still run
        assert main(["sweep", str(cfg_path), "--alphas", "1", "--s-values", "3,1",
                     "--seeds", "0,1"]) == 0
        progress = json.loads((tmp_path / "sweep" / "sweep_progress.json").read_text())
        failed = [v for v in progress.values() if "error" in v]
        done = [v for v in progress.values() if "error" not in v]
        assert len(failed) == 2 and len(done) == 2
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 + 1  # header, two good runs, one aggregate

    def test_one_seed_group_has_zero_ses(self, tmp_path):
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        assert main(["sweep", str(cfg_path), "--alphas", "1", "--s-values", "1",
                     "--seeds", "0"]) == 0
        _, row, agg = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert row.startswith("1,1,label_mixing,0,") and row.endswith(",,,")
        assert agg.startswith("1,1,label_mixing,mean,") and agg.endswith(",0.0,0.0,0.0")
        assert agg.split(",")[4:7] == row.split(",")[4:7]

    def test_wholly_failed_group_writes_no_rows(self, tmp_path, monkeypatch):
        real = cli.run_training
        monkeypatch.setattr(cli, "run_training",
                            lambda cfg, seed, train_set: diverge_at_s3(cfg)
                            or real(cfg, seed, train_set))
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"),
                               mix={"mode": "label_preserving", "alpha": 1.0, "s": 1})
        # the S=3 group between two others fails in both seeds
        assert main(["sweep", str(cfg_path), "--alphas", "1", "--s-values", "1,3,2",
                     "--seeds", "0,1"]) == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        assert [l.split(",")[1:4] for l in lines] == [
            [s, "label_preserving", seed] for s in ("1", "2") for seed in ("0", "1", "mean")]
        progress = json.loads((tmp_path / "sweep" / "sweep_progress.json").read_text())
        assert all("error" in progress[f"alpha=1,S=3,seed={seed}"] for seed in (0, 1))

    @pytest.mark.parametrize("alphas, bad", [("-1,1", -1.0), ("1,-0.5", -0.5)])
    def test_negative_alpha_exits_two_before_any_work(self, tmp_path, capsys, alphas, bad):
        # the --alpha rule; a non-finite value already fails the list's own check
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        assert main(["sweep", str(cfg_path), f"--alphas={alphas}", "--s-values", "1"]) == 2
        assert capsys.readouterr().err == f"error: --alphas must be a finite number >= 0, got {bad}\n"
        assert not (tmp_path / "sweep").exists()

    def test_non_numeric_alpha_exits_two_before_any_work(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        assert main(["sweep", str(cfg_path), "--alphas", "a,1", "--s-values", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --alphas must be") and captured.out == ""
        assert not (tmp_path / "sweep").exists()

    def test_no_test_split_exits_two_before_training(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path, dataset={"test_fraction": None},
                               output_dir=str(tmp_path / "sweep"))
        assert main(["sweep", str(cfg_path), "--alphas", "0,1", "--s-values", "1"]) == 2
        assert "test_fraction" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("s_values, bad", [(["--s-values", "0,1"], 0),
                                               (["--s-values=-2,1"], -2)], ids=["zero", "negative"])
    def test_non_positive_s_exits_two_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                      s_values, bad):
        monkeypatch.setattr(cli, "run_training", lambda *a: pytest.fail("trained a cell"))
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        assert main(["sweep", str(cfg_path), "--alphas", "0,1", *s_values, "--seeds", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --s-values must be an integer > 0, got {bad}\n"
        assert captured.out == "" and not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("flag, text, err", [
        ("--alphas", "a,1", "--alphas must be a finite number >= 0, got 'a'"),
        ("--s-values", "1,2.0", "--s-values must be an integer > 0, got '2.0'"),
        ("--seeds", "0,true", "--seeds must be an integer >= 0, got 'true'"),
        ("--seeds", ",", "--seeds must be a nonempty list, got []"),
        ("--seeds", "", "--seeds must be a nonempty list, got []"),
        ("--alphas", "1,1.0", "--alphas must not repeat a value, got [1.0, 1.0]"),
    ], ids=["alpha-text", "s-float", "seed-text", "empty", "empty-text", "repeat"])
    def test_each_list_message_names_its_flag(self, tmp_path, capsys, flag, text, err):
        flags = {"--alphas": "1", "--s-values": "1", "--seeds": "0", flag: text}
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        assert main(["sweep", str(cfg_path), *(f"{k}={v}" for k, v in flags.items())]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("doc", ['{"a', "[]", '{"alpha=1,S=1,seed=0": []}'],
                             ids=["not-json", "not-object", "cell-not-object"])
    def test_bad_progress_file_exits_two(self, tmp_path, capsys, doc):
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        (tmp_path / "sweep").mkdir()
        (tmp_path / "sweep" / "sweep_progress.json").write_text(doc)
        assert main(["sweep", str(cfg_path), "--alphas", "1", "--s-values", "1"]) == 2
        assert "sweep_progress.json" in capsys.readouterr().err

    def test_interrupted_write_keeps_previous_progress(self, tmp_path, monkeypatch):
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        args = ["sweep", str(cfg_path), "--alphas", "1", "--s-values", "1", "--seeds"]
        assert main(args + ["0"]) == 0
        progress_path = tmp_path / "sweep" / "sweep_progress.json"
        before = progress_path.read_bytes()

        def crash(src, dst):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(cli.os, "replace", crash)
            assert main(args + ["0,1"]) == 1
        assert progress_path.read_bytes() == before
        assert not list(progress_path.parent.glob("*.tmp"))
        trained = []
        sweep_cell = cli._sweep_cell
        monkeypatch.setattr(cli, "_sweep_cell", lambda cfg, alpha, s, seed, *rest: (
            trained.append(seed) or sweep_cell(cfg, alpha, s, seed, *rest)))
        assert main(args + ["0,1"]) == 0
        assert trained == [1]  # the seed-0 cell is reused from the surviving file


class TestGrid:
    def test_raw_grid_files(self, trained_run, tmp_path, capsys):
        prefix = tmp_path / "g"
        assert main(["grid", "--model", trained_run["model"], "--res", "4",
                     "--out-prefix", str(prefix)]) == 0
        rows = (tmp_path / "g.csv").read_text().splitlines()
        assert rows[0] == "x,y,class,prob"
        assert len(rows) == 17
        pgm = (tmp_path / "g.pgm").read_text().splitlines()
        assert pgm[0] == "P2" and pgm[1] == "4 4" and pgm[2] == "1"
        body = " ".join(pgm[3:]).split()
        assert set(body) <= {"0", "1"} and len(body) == 16

    def test_out_of_memory_is_one_line_and_exit_one(self, trained_run, tmp_path, monkeypatch,
                                                     capsys):
        def refuse(*args, **kwargs):  # what numpy raises for --res 100000, without allocating
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                              "(100000, 100000) and data type float64")

        monkeypatch.setattr(cli, "decision_grid", refuse)
        assert main(["grid", "--model", trained_run["model"], "--res", "100000",
                     "--out-prefix", str(tmp_path / "g")]) == 1
        err = capsys.readouterr().err
        assert err == ("error: out of memory: Unable to allocate 74.5 GiB for an array with "
                       "shape (100000, 100000) and data type float64\n")
        assert not list(tmp_path.glob("g*"))

    def test_raw_and_dip_grids_differ(self, trained_run, tmp_path):
        raw_prefix = tmp_path / "raw"
        dip_prefix = tmp_path / "dip"
        main(["grid", "--model", trained_run["model"], "--res", "16",
              "--out-prefix", str(raw_prefix)])
        dip_args = ["grid", "--model", trained_run["model"], "--res", "16",
                    "--mode", "dip", "--alpha", "1", "--s-test", "50",
                    "--partner-data", trained_run["data"],
                    "--stats", trained_run["stats"],
                    "--out-prefix", str(dip_prefix)]
        assert main(dip_args) == 0
        raw_pgm = (tmp_path / "raw.pgm").read_text()
        dip_pgm = (tmp_path / "dip.pgm").read_text()
        assert raw_pgm != dip_pgm
        # same seed, same files
        first = (tmp_path / "dip.csv").read_bytes()
        assert main(dip_args) == 0
        assert (tmp_path / "dip.csv").read_bytes() == first

    def test_dip_without_pool_exits_two(self, trained_run, tmp_path):
        assert main(["grid", "--model", trained_run["model"], "--mode", "dip",
                     "--out-prefix", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("flag,value", [("--xmin", "nan"), ("--xmax", "inf"),
                                            ("--ymin", "-inf"), ("--ymax", "nan")])
    def test_non_finite_box_exits_two(self, trained_run, tmp_path, capsys, flag, value):
        assert main(["grid", "--model", trained_run["model"], "--res", "2", f"{flag}={value}",
                     "--out-prefix", str(tmp_path / "g")]) == 2
        captured = capsys.readouterr()
        assert "grid bounds must be finite" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_reversed_box_exits_two(self, trained_run, tmp_path, capsys):
        assert main(["grid", "--model", trained_run["model"], "--res", "3", "--xmin", "1",
                     "--xmax=-1", "--out-prefix", str(tmp_path / "g")]) == 2
        captured = capsys.readouterr()
        assert "grid bounds must be finite" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_non_planar_model_exits_two(self, tmp_path):
        model_path = tmp_path / "m3.json"
        save_model(mlp_init([3, 4, 2], "relu", seed=0), model_path)
        assert main(["grid", "--model", str(model_path),
                     "--out-prefix", str(tmp_path / "y")]) == 2
