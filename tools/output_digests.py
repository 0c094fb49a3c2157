"""Print a SHA-256 of every file a fixed, small dipmix run writes, as JSON.

    python3 tools/output_digests.py --src ../parent/src > before.json
    python3 tools/output_digests.py --src src > after.json
    diff before.json after.json

The package under --src runs in a fresh interpreter, inside a new temporary
directory, through this matrix; every path in it is relative, so two runs of
one tree print the same digests:

- ``gen-data``: 60 spiral points per class, ``spirals.csv``;
- ``train`` of a [2, 16, 2] ReLU net for 8 epochs in each mixing mode, none,
  label_mixing and label_preserving at S = 3, into ``run/<mode>/``;
- raw and dip ``eval`` (S = 7, alpha 1) of each model on the spirals;
- an in-place rerun: ``config_none.json`` trained into ``rerun/``, then a copy
  with ``"standardize": false``, ``config_unstandardized.json``, trained into
  the same directory with ``--seed 1``. The second run rewrites the manifest's
  ``seeds`` and leaves no ``standardize.json``, so ``rerun/`` holds exactly
  what a run without standardization writes;
- a dip ``grid`` (16 x 16, S = 7) of the label-preserving model;
- a ``bound`` report of the standardized spirals at alpha 2, ``bound.json``;
- a 2 x 2 x 2 ``sweep`` (alphas 0 and 1, S 1 and 3, seeds 0 and 1) scored by
  dip prediction at S = 7, into ``sweep/``, and the same sweep resumed into
  ``sweep_resumed/``: first S 1 only, then S 1 and 3, so its two files must
  equal those under ``sweep/``;
- the failure path: a 2 x 2 ``sweep`` (alphas 0 and 1, S 1 and 3, seed 0) of
  the none-mode config at learning rate 1000, ``config_diverged.json``, into
  ``sweep_diverged/``: every cell diverges, so its progress file records four
  ``DivergenceError`` cells and its ``sweep.csv`` holds the header alone. The
  mode ignores S, so the S = 3 cells take the S = 1 cells' errors: two models
  are trained;
- ``predict_batch`` of the shipped perfbench model on the 120 spiral rows,
  raw and dip at S = 1, 7, 500, 5000 and 10000 (Beta(2, 1), the spirals as
  the pool), saved as ``.npy``. Only S = 500 (15 blocks of 8 rows), S = 5000
  and S = 10000 (120 one-row blocks each) score more than one block, so only
  they spread blocks over several threads. A forward takes at most 4096 rows,
  so S = 5000 forwards each row in two pieces (4096 + 904 rows) and S = 10000
  in three (4096 + 4096 + 1808);
- ``train`` called through the library, not the CLI, at the interpreter's
  default BLAS thread count: the label_preserving S = 3 config's [2, 16, 2]
  net for 8 epochs on the standardized spirals, its parameters' bytes saved as
  ``train_library.npy`` and its epoch metrics as ``train_library.out``, so
  the path perfbench's training workloads measure is digested too;
- ``dipmix --help`` and each ``dipmix <cmd> --help``, 80 columns wide, as
  ``help/dipmix.out`` and ``help/<cmd>.out``, so the CLI's flags, defaults and
  help text are digested too;
- the bad invocations of ``BAD``, each in its own directory ``errors/<name>/``
  with a ``config.json`` of the none-mode config, so the files such a run
  writes show in a diff too. Six exit 2; ``eval_missing_model`` exits 1.
  ``sweep_malformed_csv`` names that ``config.json`` as its ``dataset.csv``,
  whose first line is then no CSV header: the sweep exits 2 with the message
  ``train`` gives, once, and writes no ``out/``.

Every invocation runs one way: its standard output is kept as ``<step>.out``,
so ``eval``'s JSON is digested too, and its standard error followed by
``exit <code>`` as ``<step>.err``, so every reworded message and changed exit
code shows in a diff, a successful step's too. A step that does not exit 0
stops the matrix with its standard error. The configs the run writes are
listed as well.
``manifest.json`` and ``sweep_progress.json`` hold the package version, so
they differ between versions that compute the same numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
MODEL = ROOT / "perfbench" / "model" / "mixup_model.json"
MODES = (("none", 0.0), ("label_mixing", 1.0), ("label_preserving", 1.0))
S_VALUES = (1, 7, 500, 5000, 10000)
COMMANDS = ("gen-data", "train", "eval", "bound", "sweep", "grid")
CONFIG = {
    "dataset": {"csv": "spirals.csv", "test_fraction": 0.5, "split_seed": 0,
                "standardize": True},
    "model": {"layer_sizes": [2, 16, 2], "activation": "relu"},
    "optim": {"learning_rate": 0.1, "momentum": 0.9, "schedule": [[5, 0.1]]},
    "epochs": 8,
    "batch_size": 16,
    "predictor": {"mode": "dip", "s_test": 7, "alpha": None},
}
BAD = (  # (name, config overrides, environment, argv), run in errors/<name>/
    ("gen-data_n0", {}, {}, ["gen-data", "--n", "0", "--out", "spirals.csv"]),
    ("train_negative_seed", {"seeds": [-1]}, {}, ["train", "config.json", "--output-dir", "out"]),
    ("eval_s_test0", {}, {}, ["eval", "--model", "../../run/none/model.json", "--data",
                              "../../spirals.csv", "--s-test", "0"]),
    ("sweep_s_values0", {}, {}, ["sweep", "config.json", "--alphas", "0,1", "--s-values", "0,1",
                                 "--seeds", "0", "--output-dir", "out"]),
    ("train_empty_output_dir", {}, {"DIPMIX_OUTPUT_DIR": "out"},
     ["train", "config.json", "--output-dir", ""]),
    ("sweep_malformed_csv", {"dataset": {**CONFIG["dataset"], "csv": "config.json"}}, {},
     ["sweep", "config.json", "--alphas", "0,1", "--s-values", "1", "--seeds", "0",
      "--output-dir", "out"]),
    ("eval_missing_model", {}, {}, ["eval", "--model", "missing.json", "--data",
                                    "../../spirals.csv"]),
)


def run_matrix(model_path: str) -> None:
    """Run the matrix in the working directory with the dipmix on sys.path."""
    import numpy as np

    import dipmix
    from dipmix.cli import main

    def run(name, argv):
        """main(argv)'s exit code; its standard output kept as <name>.out, its
        standard error followed by ``exit <code>`` as <name>.err."""
        err = io.StringIO()
        with (open(f"{name}.out", "w", encoding="utf-8") as out, contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help prints, then exits
                code = exc.code
        Path(f"{name}.err").write_text(f"{err.getvalue()}exit {code}\n", encoding="utf-8")
        return code

    def step(name, argv):
        """run, and stop the matrix unless it exits 0."""
        if run(name, argv) != 0:
            err = Path(f"{name}.err").read_text(encoding="utf-8").rstrip()
            sys.exit(f"dipmix {' '.join(argv)} failed:\n{err}")

    predictor = ["--s-test", "7", "--alpha", "1", "--partner-data", "spirals.csv"]
    step("gen-data", ["gen-data", "--n", "60", "--seed", "3", "--out", "spirals.csv"])
    for mode, alpha in MODES:
        config = f"config_{mode}.json"
        Path(config).write_text(json.dumps({**CONFIG, "mix": {"mode": mode, "alpha": alpha,
                                                               "s": 3}}))
        step(f"train_{mode}", ["train", config, "--output-dir", f"run/{mode}"])
        model = ["--model", f"run/{mode}/model.json", "--stats", f"run/{mode}/standardize.json"]
        step(f"eval_{mode}_raw", ["eval", *model, "--data", "spirals.csv"])
        step(f"eval_{mode}_dip", ["eval", *model, "--data", "spirals.csv", "--mode", "dip",
                                  *predictor])
    unstandardized = json.loads(Path("config_none.json").read_text())
    unstandardized["dataset"]["standardize"] = False
    Path("config_unstandardized.json").write_text(json.dumps(unstandardized))
    step("rerun", ["train", "config_none.json", "--output-dir", "rerun"])
    step("rerun_unstandardized", ["train", "config_unstandardized.json", "--output-dir", "rerun",
                                  "--seed", "1"])
    step("grid", ["grid", "--model", "run/label_preserving/model.json", "--stats",
                  "run/label_preserving/standardize.json", "--res", "16", "--mode", "dip",
                  *predictor, "--out-prefix", "grid"])
    step("bound", ["bound", "--data", "spirals.csv", "--alpha", "2", "--standardize",
                   "--out", "bound.json"])
    sweep = ["sweep", "config_none.json", "--alphas", "0,1", "--seeds", "0,1", "--s-values"]
    step("sweep", [*sweep, "1,3", "--output-dir", "sweep"])
    step("sweep_resumed_s1", [*sweep, "1", "--output-dir", "sweep_resumed"])
    step("sweep_resumed", [*sweep, "1,3", "--output-dir", "sweep_resumed"])
    Path("config_diverged.json").write_text(json.dumps({
        **CONFIG, "mix": {"mode": "none", "alpha": 0.0, "s": 3},
        "optim": {**CONFIG["optim"], "learning_rate": 1000}}))
    step("sweep_diverged", ["sweep", "config_diverged.json", "--alphas", "0,1", "--s-values",
                            "1,3", "--seeds", "0", "--output-dir", "sweep_diverged"])
    Path("help").mkdir()
    step("help/dipmix", ["--help"])
    for command in COMMANDS:
        step(f"help/{command}", [command, "--help"])
    bad_config = {**CONFIG, "dataset": {**CONFIG["dataset"], "csv": "../../spirals.csv"},
                  "mix": {"mode": "none", "alpha": 0.0, "s": 1}}
    for name, overrides, env, argv in BAD:
        Path("errors", name).mkdir(parents=True)
        os.chdir(Path("errors", name))
        Path("config.json").write_text(json.dumps({**bad_config, **overrides}))
        with mock.patch.dict(os.environ, env):
            run(f"../{name}", argv)
        os.chdir("../..")
    train_set, _ = dipmix.standardize(dipmix.load_csv("spirals.csv"))
    params, metrics = dipmix.train(
        dipmix.mlp_init(CONFIG["model"]["layer_sizes"], CONFIG["model"]["activation"], seed=0),
        train_set, dipmix.MixConfig("label_preserving", 1.0, 3),
        dipmix.OptimState(**CONFIG["optim"]), CONFIG["epochs"], CONFIG["batch_size"],
        np.random.default_rng([0, 1]))
    np.save("train_library.npy", params.flat)
    Path("train_library.out").write_text("".join(f"{row!r}\n" for row in metrics))
    params = dipmix.load_model(model_path)
    x = dipmix.load_csv("spirals.csv").features
    np.save("predict_raw.npy", dipmix.predict_batch(params, x, dipmix.PredictorConfig("raw")))
    for s in S_VALUES:
        cfg = dipmix.PredictorConfig("dip", s, dipmix.BetaParams(2.0, 1.0), x, seed=0)
        np.save(f"predict_dip_s{s}.npy", dipmix.predict_batch(params, x, cfg))


def digests(src) -> dict:
    """{relative path: SHA-256} of every file the matrix writes, running the
    package under ``src`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "PYTHONDONTWRITEBYTECODE": "1",
           "COLUMNS": "80"}
    with tempfile.TemporaryDirectory(prefix="dipmix-digests-") as tmp:
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--matrix", str(MODEL)],
                       cwd=tmp, env=env, check=True)
        return {path.relative_to(tmp).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(tmp).rglob("*")) if path.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--src", help="directory holding the dipmix package to run")
    source.add_argument("--matrix", metavar="MODEL", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.matrix:
        run_matrix(args.matrix)
    else:
        print(json.dumps(digests(args.src), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
