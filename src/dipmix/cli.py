"""Command-line interface.

Subcommands: gen-data, train, eval, bound, sweep, grid. Experiments are
described by a single JSON config; flags override file values, and every
training run writes a manifest echoing the fully resolved config and seed,
so any artifact can be reproduced byte-for-byte from its manifest. Output
files are written through ``data.write_file``, which renames a finished temp
file into place. A command that writes several files removes the previous
run's copies just before its first write and writes last the file that
completes the set: train's manifest, grid's PGM, sweep's ``sweep.csv``. Every
command that computes does so through ``objective.train`` or prediction, which
hold one BLAS thread. Exit codes: 0 success, 1 runtime failure (i/o, diverged
training), 2 invalid input (an ``errors.InputError``).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import bound_report
from .data import (StandardizeStats, _check_fraction, _check_spirals, apply_stats, gen_spirals,
                   load_csv, parse_csv, read_json, save_csv, split, standardize, write_file)
from .errors import (ConfigurationError, DivergenceError, InputError, ParseError, check_int,
                     check_real)
from .mixing import MixConfig, lambda_prior
from .nn import OptimState, _check_architecture, load_model, mlp_init, save_model
from .objective import train as train_loop
from .predictor import PREDICT_MODES, PredictorConfig, _check_settings, decision_grid, evaluate

OUTPUT_DIR_ENV = "DIPMIX_OUTPUT_DIR"

DEFAULT_CONFIG = {
    "dataset": {
        "generator": {"n_per_class": 500, "noise_std": 0.05, "turns": 1.25, "seed": 0},
        "csv": None,
        "test_fraction": 0.5,
        "split_seed": 0,
        "standardize": True,
    },
    "model": {"layer_sizes": [2, 64, 64, 2], "activation": "relu"},
    "mix": {"mode": "none", "alpha": 0.0, "s": 1},
    "optim": {"learning_rate": 0.1, "momentum": 0.9, "schedule": [[100, 0.1], [150, 0.1]]},
    "epochs": 200,
    "batch_size": 64,
    "predictor": {"mode": "raw", "s_test": 500, "alpha": None},
    "seeds": [0],
    "output_dir": None,
}


def _merge(base: dict, override: dict, errors: list, path: str = "") -> dict:
    """Defaults overlaid with override; unknown keys and sections that are not
    objects are reported in errors and leave the default in place."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        name = path + key
        if key not in base:
            errors.append(f"unknown config key {name!r}")
        elif not isinstance(base[key], dict):
            out[key] = copy.deepcopy(val)
        elif isinstance(val, dict):
            out[key] = _merge(base[key], val, errors, name + ".")
        else:
            errors.append(f"{name} must be a JSON object")
    return out


def _check_list(name: str, values, check, interval: str) -> list:
    """A nonempty list whose values each pass check(name, value, interval) and
    do not repeat, since a repeat would count one model as two."""
    if not (isinstance(values, list) and values):
        raise ConfigurationError(f"{name} must be a nonempty list, got {values!r}")
    for value in values:
        check(name, value, interval)
    if len(set(values)) != len(values):
        raise ConfigurationError(f"{name} must not repeat a value, got {values!r}")
    return values


def resolve_config(doc: dict) -> dict:
    """Fill defaults and validate, reporting every problem at once.

    Each key that a library function consumes is checked by that owner's rule, whose first
    problem is listed under the key's prefix; this function checks what no owner does.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    errors = []
    cfg = _merge(DEFAULT_CONFIG, doc, errors)
    ds, pred = cfg["dataset"], cfg["predictor"]
    for prefix, owner in (
        # the generator is not used with a csv, nor the split with a null fraction
        ("dataset.generator.", lambda: ds["csv"] or _check_spirals(**ds["generator"])),
        ("dataset.", lambda: ds["test_fraction"] is None or _check_fraction(ds["test_fraction"])),
        ("model: ", lambda: _check_architecture(**cfg["model"])),
        ("mix: ", lambda: MixConfig(**cfg["mix"])),
        ("optim: ", lambda: OptimState(**cfg["optim"])),
        ("", lambda: check_int("epochs", cfg["epochs"], "> 0")),
        ("", lambda: check_int("batch_size", cfg["batch_size"], "> 0")),
        ("predictor: ", lambda: _check_settings(pred["mode"], pred["s_test"])),
        ("predictor.", lambda: pred["alpha"] is None or check_real("alpha", pred["alpha"], ">= 0")),
        ("dataset.", lambda: check_int("split_seed", ds["split_seed"], ">= 0")),
        ("", lambda: _check_list("seeds", cfg["seeds"], check_int, ">= 0")),
    ):
        try:
            owner()
        except ConfigurationError as exc:
            errors.append(prefix + str(exc))
    if not isinstance(ds["standardize"], bool):
        errors.append("dataset.standardize must be true or false")
    for name, path in (("dataset.csv", ds["csv"]), ("output_dir", cfg["output_dir"])):
        if not (path is None or (isinstance(path, str) and path != "")):
            errors.append(f"{name} must be null or a nonempty string")
    if errors:
        raise ConfigurationError("invalid config:\n  " + "\n  ".join(errors))
    return cfg


def load_config(path) -> dict:
    """Read a config file; a train manifest is accepted and unwrapped."""
    doc = read_json(path, "config")
    if isinstance(doc, dict) and "config" in doc and "command" in doc:
        doc = doc["config"]
    return doc


def build_datasets(cfg: dict):
    """Materialize (train, test, stats, csv_sha256) from the dataset section of a resolved
    config; csv_sha256 is the SHA-256 of the CSV bytes parsed, None for the generator."""
    ds_cfg, csv_sha256 = cfg["dataset"], None
    if ds_cfg["csv"]:
        raw = Path(ds_cfg["csv"]).read_bytes()
        full, csv_sha256 = parse_csv(raw, ds_cfg["csv"]), hashlib.sha256(raw).hexdigest()
    else:
        full = gen_spirals(**ds_cfg["generator"])
    train_set, test_set, stats = full, None, None
    if ds_cfg["test_fraction"] is not None:
        train_set, test_set = split(full, ds_cfg["test_fraction"], ds_cfg["split_seed"])
    if ds_cfg["standardize"]:
        train_set, stats = standardize(train_set)
        if test_set is not None:
            test_set = apply_stats(test_set, stats)
    return train_set, test_set, stats, csv_sha256


def _prior(alpha):
    """The ratio prior of prediction and of bound: Beta(alpha+1, alpha), or
    None (no mixing) when alpha is 0."""
    return lambda_prior("label_preserving", float(alpha)) if alpha else None


def run_training(cfg: dict, seed: int, train_set):
    """Train one model on train_set under a resolved config; returns params and metrics."""
    params = mlp_init(cfg["model"]["layer_sizes"], cfg["model"]["activation"], seed=seed)
    rng = np.random.default_rng([seed, 1])
    return train_loop(params, train_set, MixConfig(**cfg["mix"]), OptimState(**cfg["optim"]),
                      cfg["epochs"], cfg["batch_size"], rng)


def _output_dir(cfg: dict, flag_value) -> Path:
    if flag_value == "":
        raise ConfigurationError("--output-dir must be a nonempty string")
    out = flag_value or cfg["output_dir"] or os.environ.get(OUTPUT_DIR_ENV)
    if not out:
        raise ConfigurationError(
            f"no output directory: set output_dir, --output-dir, or ${OUTPUT_DIR_ENV}"
        )
    return Path(out)


def cmd_gen_data(args) -> int:
    ds = gen_spirals(args.n, args.noise, args.turns, args.seed)
    save_csv(ds, args.out)
    counts = ds.labels.sum(axis=0).astype(int)
    per_class = ", ".join(f"class {c}: {n}" for c, n in enumerate(counts))
    print(f"wrote {ds.n} rows to {args.out} ({per_class})")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(load_config(args.config))
    seed = args.seed if args.seed is not None else cfg["seeds"][0]
    out_dir = _output_dir(cfg, args.output_dir)
    cfg["output_dir"] = str(out_dir)
    cfg["seeds"] = [seed]
    train_set, _, stats, _ = build_datasets(cfg)
    params, metrics = run_training(cfg, seed, train_set)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"model": out_dir / "model.json", "metrics": out_dir / "metrics.csv",
             "standardize": out_dir / "standardize.json", "manifest": out_dir / "manifest.json"}
    for path in paths.values():  # an earlier run's files, standardized or not
        path.unlink(missing_ok=True)
    if stats is None:
        del paths["standardize"]
    save_model(params, paths["model"])
    write_file(paths["metrics"], "epoch,train_loss,train_acc,lr\n" + "".join(
        f"{row.epoch},{row.train_loss!r},{row.train_acc!r},{row.lr!r}\n" for row in metrics))
    if "standardize" in paths:
        write_file(paths["standardize"], json.dumps({"mean": stats.mean.tolist(),
                                                     "std": stats.std.tolist()}) + "\n")
    train_prior = lambda_prior(cfg["mix"]["mode"], cfg["mix"]["alpha"])
    manifest = {
        "command": "train",
        "package": f"dipmix {__version__}",
        "seed": seed,
        "config": cfg,
        "training_prior": None if train_prior is None else {"a": train_prior.a, "b": train_prior.b},
        "outputs": {name: str(path) for name, path in paths.items() if name != "manifest"},
    }
    write_file(paths["manifest"], json.dumps(manifest, indent=2) + "\n")
    last = metrics[-1]
    print(f"trained {cfg['epochs']} epochs (mode={cfg['mix']['mode']}); "
          f"final train_loss={last.train_loss:.6f} train_acc={last.train_acc:.4f}")
    print("wrote " + ", ".join(str(path) for path in paths.values()))
    return 0


def _load_stats(path) -> StandardizeStats:
    doc = read_json(path, "stats file")
    fields = {}
    for name in ("mean", "std"):
        try:
            fields[name] = np.asarray(doc[name], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(f"stats file {path} needs a list of numbers "
                                     f"under {name!r}") from None
    return StandardizeStats(**fields)


def _predictor_from_args(args):
    """The --stats moments (or None) and the PredictorConfig of eval and grid.

    The dip mixing pool is the --partner-data features, standardized like the
    scored points.
    """
    stats = _load_stats(args.stats) if args.stats else None
    pool = None
    if args.mode == "dip":
        if not args.partner_data:
            raise ConfigurationError("--mode dip requires --partner-data for the mix pool")
        pool_ds = load_csv(args.partner_data)
        if stats is not None:
            pool_ds = apply_stats(pool_ds, stats)
        pool = pool_ds.features
    return stats, PredictorConfig(args.mode, args.s_test, _prior(args.alpha), pool, args.seed)


def cmd_eval(args) -> int:
    params = load_model(args.model)
    ds = load_csv(args.data)
    stats, cfg = _predictor_from_args(args)
    if stats is not None:
        ds = apply_stats(ds, stats)
    result = evaluate(params, ds, cfg)
    print(json.dumps({
        "accuracy": result.accuracy,
        "misclassification_rate": result.misclassification_rate,
        "mean_loss": result.mean_loss,
        "mode": args.mode,
        "s_test": args.s_test,
        "alpha": args.alpha,
        "seed": args.seed,
        "n": ds.n,
    }, indent=2))
    return 0


def cmd_bound(args) -> int:
    ds = load_csv(args.data)
    if args.standardize:
        ds, _ = standardize(ds)
    report = bound_report(ds.features, _prior(args.alpha), rho=args.rho, c_h=args.c_h,
                          loss_bound=args.loss_bound, delta=args.delta)
    text = report.to_json()
    if args.out:
        write_file(args.out, text + "\n")
    print(text)
    return 0


def _parse_num_list(flag: str, text: str, check, interval: str) -> list:
    """The values of a comma list, under the list rule: integers for check_int,
    else reals, -0 read as 0; a token that does not read as one stays text,
    which check names."""
    cast = int if check is check_int else float
    values = []
    for token in filter(str.strip, text.split(",")):
        try:
            values.append(cast(token) + 0)  # -0.0 + 0 is 0.0
        except ValueError:
            values.append(token)
    return _check_list(flag, values, check, interval)


def _alpha_text(alpha: float) -> str:
    """An alpha as progress keys and sweep.csv name it: short when that reads back exactly."""
    short = f"{alpha:g}"
    return short if float(short) == alpha else repr(alpha)


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _scores(cell: dict) -> dict:
    """A progress cell's scores: every field but its digests."""
    return {k: v for k, v in cell.items() if not k.endswith("_sha256")}


def _sweep_cell(cfg: dict, alpha: float, s: int, seed: int, first, train_set, test_set):
    """Train and score one cell: alpha 0 trains without mixing, any other alpha
    in the config's mixing mode (label_mixing if that is none). Modes none and
    label_mixing ignore S, so such a cell returns ``first``, the sweep's earliest
    cell of its alpha and seed, failed or not, where there is one."""
    base = cfg["mix"]["mode"]
    mode = "none" if alpha == 0 else ("label_mixing" if base == "none" else base)
    if mode != "label_preserving" and first is not None:
        return first
    params, _ = run_training({**cfg, "mix": dict(mode=mode, alpha=alpha, s=s)}, seed, train_set)
    pred = cfg["predictor"]
    prior = _prior(alpha if pred["alpha"] is None else pred["alpha"])
    pred_cfg = PredictorConfig(pred["mode"], pred["s_test"], prior, train_set.features, seed)
    train_eval = evaluate(params, train_set, pred_cfg)
    test_eval = evaluate(params, test_set, pred_cfg)
    return {
        "alpha": float(alpha),
        "S": int(s),
        "mode": mode,
        "seed": int(seed),
        "train_err": train_eval.misclassification_rate,
        "test_err": test_eval.misclassification_rate,
        "gap": test_eval.misclassification_rate - train_eval.misclassification_rate,
    }


def cmd_sweep(args) -> int:
    cfg = resolve_config(load_config(args.config))
    alphas = _parse_num_list("--alphas", args.alphas, check_real, ">= 0")
    s_values = _parse_num_list("--s-values", args.s_values, check_int, "> 0")
    seeds = (cfg["seeds"] if args.seeds is None
             else _parse_num_list("--seeds", args.seeds, check_int, ">= 0"))
    if cfg["dataset"]["test_fraction"] is None:
        raise ConfigurationError("sweep requires dataset.test_fraction to measure a gap")
    out_dir = _output_dir(cfg, args.output_dir)
    train_set, test_set, _, csv_sha256 = build_datasets(cfg)  # every cell trains on these
    # a cell is reused only if this version computed it under this config, on
    # the same CSV bytes, and its scores still match their digest
    record = {"package": __version__, "config": {
        k: v for k, v in cfg.items() if k not in ("output_dir", "seeds")}}
    digest = _sha256({**record, "csv_sha256": csv_sha256} if csv_sha256 else record)
    out_dir.mkdir(parents=True, exist_ok=True)
    progress_path, csv_path = out_dir / "sweep_progress.json", out_dir / "sweep.csv"
    progress = read_json(progress_path, "progress file") if progress_path.exists() else {}
    if not (isinstance(progress, dict) and all(isinstance(c, dict) for c in progress.values())):
        raise ParseError(f"progress file {progress_path} must be a JSON object of cell objects")
    csv_path.unlink(missing_ok=True)  # an earlier sweep's; written last, it completes this one
    table = {}  # this grid's cells in (alpha, S, seed) order; the file's others follow
    for alpha, s, seed in itertools.product(alphas, s_values, seeds):
        key, first = (f"alpha={_alpha_text(alpha)},S={t},seed={seed}" for t in (s, s_values[0]))
        cell = progress.get(key, {})
        if (cell.get("config_sha256") != digest
                or cell.get("scores_sha256") != _sha256(_scores(cell))):
            try:
                cell = _sweep_cell(cfg, alpha, s, seed, table.get(first), train_set, test_set)
                if "error" not in cell:
                    scores = {**_scores(cell), "S": int(s)}
                    cell = {**scores, "config_sha256": digest, "scores_sha256": _sha256(scores)}
            except Exception as exc:  # keep sweeping; record the failure
                cell = {"error": f"{type(exc).__name__}: {exc}"}
            if "error" in cell:
                print(f"cell {key} failed: {cell['error']}", file=sys.stderr)
        table[key] = cell  # written after a reused cell too, so the file ends in grid order
        write_file(progress_path, json.dumps(
            {**table, **{k: c for k, c in progress.items() if k not in table}}, indent=2))
    lines = ["alpha,S,mode,seed,train_err,test_err,gap,train_err_se,test_err_se,gap_se\n"]
    done = (cell for cell in table.values() if "error" not in cell)
    for (alpha, s), group in itertools.groupby(done, lambda cell: (cell["alpha"], cell["S"])):
        rows, name = list(group), _alpha_text(alpha)
        lines += [f"{name},{s},{row['mode']},{row['seed']},{row['train_err']!r},"
                  f"{row['test_err']!r},{row['gap']!r},,,\n" for row in rows]
        means, ses = [], []
        for fld in ("train_err", "test_err", "gap"):
            vals = np.array([r[fld] for r in rows])
            means.append(float(vals.mean()))
            ses.append(float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0)
        lines.append(f"{name},{s},{rows[0]['mode']},mean,"
                     + ",".join(repr(v) for v in means + ses) + "\n")
    write_file(csv_path, "".join(lines))
    failures = sum("error" in cell for cell in table.values())
    print(f"wrote {csv_path} ({len(table)} cells, {failures} failed)")
    return 0


def cmd_grid(args) -> int:
    params = load_model(args.model)
    _, cfg = _predictor_from_args(args)
    xs, ys, classes, max_probs = decision_grid(
        params, cfg, (args.xmin, args.xmax), (args.ymin, args.ymax), args.res
    )
    csv_path, pgm_path = Path(f"{args.out_prefix}.csv"), Path(f"{args.out_prefix}.pgm")
    for path in (csv_path, pgm_path):  # an earlier grid's pair; the PGM, last, completes this one
        path.unlink(missing_ok=True)
    write_file(csv_path, "x,y,class,prob\n" + "".join(
        f"{float(xs[c])!r},{float(ys[r])!r},{int(classes[r, c])},{float(max_probs[r, c])!r}\n"
        for r in range(args.res) for c in range(args.res)))
    maxval = max(1, params.n_outputs - 1)
    write_file(pgm_path, f"P2\n{args.res} {args.res}\n{maxval}\n" + "".join(
        " ".join(str(v) for v in row) + "\n" for row in classes))
    print(f"wrote {csv_path} and {pgm_path}")
    return 0


# The prediction flags eval and grid share; _predictor_from_args reads them.
PREDICTOR_FLAGS = (
    ("--mode", dict(choices=PREDICT_MODES, default="raw")),
    ("--s-test", dict(type=int, default=500)),
    ("--alpha", dict(type=float, default=1.0,
                     help="prediction prior is Beta(alpha+1, alpha); 0 disables mixing")),
    ("--partner-data", dict(help="CSV whose features form the mix pool; required by --mode dip")),
    ("--stats", dict(help="standardize.json from training")),
    ("--seed", dict(type=int, default=0)),
)
BOX_FLAGS = tuple((f"--{name}", dict(type=float, default=value))
                  for name, value in (("xmin", -1.5), ("xmax", 1.5), ("ymin", -1.5), ("ymax", 1.5)))

# Each subcommand as (name, help, flags), handled by cmd_<name> as build_parser
# finds it; each flag is an add_argument (name, keywords) pair, in --help order.
SUBCOMMANDS = (
    ("gen-data", "generate a two-spirals CSV", (
        ("--n", dict(type=int, default=500, help="points per class")),
        ("--noise", dict(type=float, default=0.05)), ("--turns", dict(type=float, default=1.25)),
        ("--seed", dict(type=int, default=0)), ("--out", dict(required=True)))),
    ("train", "train a model from a JSON config (or a manifest)", (
        ("config", {}),
        ("--seed", dict(type=int, help="default: the first of the config's seeds")),
        ("--output-dir", {}))),
    ("eval", "evaluate a model on a CSV dataset", (
        ("--model", dict(required=True)), ("--data", dict(required=True)), *PREDICTOR_FLAGS)),
    ("bound", "complexity bound report for a dataset", (
        ("--data", dict(required=True)),
        ("--alpha", dict(type=float, default=1.0, help="ratio prior is Beta(alpha+1, alpha); "
                                                        "0 disables mixing (C = 1)")),
        ("--rho", dict(type=float, default=1.0)), ("--c-h", dict(type=float, default=1.0)),
        ("--loss-bound", dict(type=float, default=10.0)),
        ("--delta", dict(type=float, default=0.05)),
        ("--standardize", dict(action="store_true")), ("--out", {}))),
    ("sweep", "train/eval over an alpha x S x seed grid", (
        ("config", {}),
        ("--alphas", dict(required=True, help="comma list; 0 means no mixing")),
        ("--s-values", dict(required=True, help="comma list of draw counts")),
        ("--seeds", dict(help="comma list (default: config seeds)")), ("--output-dir", {}))),
    ("grid", "export a decision grid as CSV and PGM", (
        ("--model", dict(required=True)), *BOX_FLAGS, ("--res", dict(type=int, default=128)),
        *PREDICTOR_FLAGS, ("--out-prefix", dict(required=True)))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipmix",
        description="Sample-mix classifiers with marginalized prediction and "
                    "complexity diagnostics on 2-D synthetic data.",
    )
    parser.add_argument("--version", action="version", version=f"dipmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in flags:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            check_int("--seed", args.seed, ">= 0")
        check_real("--alpha", getattr(args, "alpha", 0.0), ">= 0")  # eval, grid and bound
        return args.func(args)
    except (InputError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. numpy refusing a grid --res too large to hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
