import json
import math

import numpy as np
import pytest

from dipmix import (ConfigurationError, MixConfig, OptimState, cli, gen_spirals, mlp_init, split,
                    train)
from dipmix.cli import main
from dipmix.nn import save_model
from dipmix.nn import ModelParams


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
    ], ids=["turns", "n-per-class", "noise-std", "generator-seed", "test-fraction", "epochs",
            "batch-size"])
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
        assert "finite alpha" in captured.err and captured.out == ""

    @pytest.mark.parametrize("doc,field", [
        ('{"mean": [0.0, 0.0]}', "'std'"),
        ('{"mean": [0, 0], "std": [1.0]}', "std"),
        ('[[0, 0], [1, 1]]', "'mean'"),
        ('{"mean": [0, 0], "std": ["a", 1]}', "'std'"),
        ('{"mean": [0, 0], ', "not valid JSON"),
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
        assert "predictor: s_test must be a positive integer, got True" in capsys.readouterr().err
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
        monkeypatch.setattr(cli, "run_training",
                            lambda cfg, seed: modes.append(cfg["mix"]["mode"]) or real(cfg, seed))
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

    def test_failed_cell_recorded_sweep_continues(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        # alpha=-1 cells cannot build a mix config; the alpha=1 cells still run
        assert main(["sweep", str(cfg_path), "--alphas=-1,1", "--s-values", "1",
                     "--seeds", "0,1"]) == 0
        progress = json.loads((tmp_path / "sweep" / "sweep_progress.json").read_text())
        failed = [v for v in progress.values() if "error" in v]
        done = [v for v in progress.values() if "error" not in v]
        assert len(failed) == 2 and len(done) == 2
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 + 1  # header, two good runs, one aggregate

    def test_no_test_split_exits_two_before_training(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path, dataset={"test_fraction": None},
                               output_dir=str(tmp_path / "sweep"))
        assert main(["sweep", str(cfg_path), "--alphas", "0,1", "--s-values", "1"]) == 2
        assert "test_fraction" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_s_zero_cell_fails(self, tmp_path):
        cfg_path = tiny_config(tmp_path, output_dir=str(tmp_path / "sweep"))
        assert main(["sweep", str(cfg_path), "--alphas", "0", "--s-values", "0",
                     "--seeds", "0"]) == 0
        progress = json.loads((tmp_path / "sweep" / "sweep_progress.json").read_text())
        (cell,) = progress.values()
        assert "mix: s must" in cell["error"]
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert not any(line.startswith("0,0,") for line in lines)

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
        monkeypatch.setattr(cli, "_sweep_cell", lambda cfg, alpha, s, seed, scored: (
            trained.append(seed) or sweep_cell(cfg, alpha, s, seed, scored)))
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

    def test_non_planar_model_exits_two(self, tmp_path):
        model_path = tmp_path / "m3.json"
        save_model(mlp_init([3, 4, 2], "relu", seed=0), model_path)
        assert main(["grid", "--model", str(model_path),
                     "--out-prefix", str(tmp_path / "y")]) == 2
