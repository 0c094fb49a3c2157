"""Command-line interface.

Subcommands: gen-data, train, eval, bound, sweep, grid. Experiments are
described by a single JSON config; flags override file values, and every
training run writes a manifest echoing the fully resolved config and seed,
so any artifact can be reproduced byte-for-byte from its manifest. Output
files are written through ``data.write_file``, which renames a finished temp
file into place. Exit codes: 0 success, 1 runtime failure (i/o, diverged
training), 2 invalid config or arguments.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import bound_report, generalization_gap
from .data import (StandardizeStats, _check_fraction, _check_spirals, apply_stats,
                   gen_spirals, load_csv, read_json, save_csv, split, standardize, write_file)
from .errors import (ConfigurationError, DivergenceError, DomainError, NumericError, ParseError,
                     ShapeError, is_real, is_seed)
from .mixing import MixConfig, lambda_prior
from .nn import OptimState, _check_architecture, load_model, mlp_init, save_model
from .objective import _check_count, train as train_loop
from .predictor import PREDICT_MODES, PredictorConfig, decision_grid, evaluate

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


def resolve_config(doc: dict) -> dict:
    """Fill defaults and validate, reporting every problem at once.

    Each key that a library function consumes is checked by that owner's rule, whose first
    problem is listed under the key's prefix; this function checks what no owner does.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    errors = []
    cfg = _merge(DEFAULT_CONFIG, doc, errors)

    def check(cond, msg):
        if not cond:
            errors.append(msg)

    ds, pred, seeds = cfg["dataset"], cfg["predictor"], cfg["seeds"]
    for prefix, owner in (
        # the generator is not used with a csv, nor the split with a null fraction
        ("dataset.generator.", lambda: ds["csv"] or _check_spirals(**ds["generator"])),
        ("dataset.", lambda: ds["test_fraction"] is None or _check_fraction(ds["test_fraction"])),
        ("model: ", lambda: _check_architecture(**cfg["model"])),
        ("mix: ", lambda: MixConfig(**cfg["mix"])),
        ("optim: ", lambda: OptimState(**cfg["optim"])),
        ("", lambda: _check_count("epochs", cfg["epochs"])),
        ("", lambda: _check_count("batch_size", cfg["batch_size"])),
        ("predictor: ", lambda: PredictorConfig(s_test=pred["s_test"])),
    ):
        try:
            owner()
        except ConfigurationError as exc:
            errors.append(prefix + str(exc))
    check(is_seed(ds["split_seed"]), "dataset.split_seed must be a nonnegative integer")
    check(isinstance(ds["standardize"], bool), "dataset.standardize must be true or false")
    for name, path in (("dataset.csv", ds["csv"]), ("output_dir", cfg["output_dir"])):
        check(path is None or (isinstance(path, str) and path != ""),
              f"{name} must be null or a nonempty string")
    check(pred["mode"] in PREDICT_MODES, f"predictor.mode must be one of {PREDICT_MODES}")
    check(pred["alpha"] is None or (is_real(pred["alpha"]) and pred["alpha"] >= 0),
          "predictor.alpha must be a finite number >= 0 or null (inherit mix.alpha)")
    check(isinstance(seeds, list) and len(seeds) >= 1 and all(is_seed(s) for s in seeds)
          and len(set(seeds)) == len(seeds),
          "seeds must be a nonempty list of distinct nonnegative integers")
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
    """Materialize (train, test, stats) from the dataset section of a resolved config."""
    ds_cfg = cfg["dataset"]
    if ds_cfg["csv"]:
        full = load_csv(ds_cfg["csv"])
    else:
        gen = ds_cfg["generator"]
        full = gen_spirals(gen["n_per_class"], gen["noise_std"], gen["turns"], gen["seed"])
    if ds_cfg["test_fraction"] is not None:
        train_set, test_set = split(full, ds_cfg["test_fraction"], ds_cfg["split_seed"])
    else:
        train_set, test_set = full, None
    stats = None
    if ds_cfg["standardize"]:
        train_set, stats = standardize(train_set)
        if test_set is not None:
            test_set = apply_stats(test_set, stats)
    return train_set, test_set, stats


def _prior(alpha):
    """The ratio prior of prediction and of bound: Beta(alpha+1, alpha), or
    None (no mixing) when alpha is 0."""
    return lambda_prior("label_preserving", float(alpha)) if alpha else None


def _predictor(mode: str, s_test: int, alpha, pool, seed: int) -> PredictorConfig:
    """The PredictorConfig of eval, grid and sweep; pool is used by dip only."""
    return PredictorConfig(mode=mode, s_test=s_test,
                           prior=_prior(alpha) if mode == "dip" else None,
                           partner_pool=pool if mode == "dip" else None, seed=seed)


def run_training(cfg: dict, seed: int):
    """Train one model under a resolved config; returns params and metrics."""
    train_set, test_set, stats = build_datasets(cfg)
    params = mlp_init(cfg["model"]["layer_sizes"], cfg["model"]["activation"], seed=seed)
    rng = np.random.default_rng([seed, 1])
    params, metrics = train_loop(params, train_set, MixConfig(**cfg["mix"]),
                                 OptimState(**cfg["optim"]), cfg["epochs"], cfg["batch_size"], rng)
    return params, metrics, train_set, test_set, stats


def _output_dir(cfg: dict, flag_value) -> Path:
    out = flag_value or cfg.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV)
    if not out:
        raise ConfigurationError(
            f"no output directory: set output_dir, --output-dir, or ${OUTPUT_DIR_ENV}"
        )
    return Path(out)


def cmd_gen_data(args) -> int:
    ds = gen_spirals(args.n, args.noise, args.turns, args.seed)
    save_csv(ds, args.out)
    counts = ds.labels.sum(axis=0).astype(int)
    names = ds.class_names or [str(i) for i in range(ds.k)]
    per_class = ", ".join(f"class {n}: {c}" for n, c in zip(names, counts))
    print(f"wrote {ds.n} rows to {args.out} ({per_class})")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(load_config(args.config))
    seed = args.seed if args.seed is not None else cfg["seeds"][0]
    out_dir = _output_dir(cfg, args.output_dir)
    cfg["output_dir"] = str(out_dir)
    cfg["seeds"] = [seed]
    params, metrics, train_set, test_set, stats = run_training(cfg, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.json"
    metrics_path = out_dir / "metrics.csv"
    save_model(params, model_path)
    write_file(metrics_path, "epoch,train_loss,train_acc,lr\n" + "".join(
        f"{row.epoch},{row.train_loss!r},{row.train_acc!r},{row.lr!r}\n" for row in metrics))
    outputs = {"model": str(model_path), "metrics": str(metrics_path)}
    if stats is not None:
        stats_path = out_dir / "standardize.json"
        write_file(stats_path, json.dumps({"mean": stats.mean.tolist(),
                                           "std": stats.std.tolist()}) + "\n")
        outputs["standardize"] = str(stats_path)
    train_prior = lambda_prior(cfg["mix"]["mode"], cfg["mix"]["alpha"])
    manifest = {
        "command": "train",
        "package": f"dipmix {__version__}",
        "seed": seed,
        "config": cfg,
        "training_prior": None if train_prior is None else {"a": train_prior.a, "b": train_prior.b},
        "outputs": outputs,
    }
    manifest_path = out_dir / "manifest.json"
    write_file(manifest_path, json.dumps(manifest, indent=2) + "\n")
    last = metrics[-1]
    print(f"trained {cfg['epochs']} epochs (mode={cfg['mix']['mode']}); "
          f"final train_loss={last.train_loss:.6f} train_acc={last.train_acc:.4f}")
    print(f"wrote {model_path}, {metrics_path}, {manifest_path}")
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
    return stats, _predictor(args.mode, args.s_test, args.alpha, pool, args.seed)


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


def _parse_num_list(flag: str, text: str, cast):
    """The values of a comma list; a repeat would count one cell twice."""
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip() != ""]
        ok = all(is_real(v) for v in values) and 0 < len(set(values)) == len(values)
    except ValueError:
        ok = False
    if not ok:
        raise ConfigurationError(f"{flag} must be a nonempty comma-separated list of distinct "
                                 f"finite numbers, got {text!r}")
    return values


def _sweep_cell(cfg: dict, alpha: float, s: int, seed: int, scored: dict):
    """Train and score one cell: alpha 0 trains without mixing, any other
    alpha in the config's mixing mode (label_mixing if that is none).

    Modes none and label_mixing ignore S, so scored, which maps
    (alpha, seed, S or None) to results, holds one model per (alpha, seed).
    """
    base = cfg["mix"]["mode"]
    mode = "none" if alpha == 0 else ("label_mixing" if base == "none" else base)
    cell_cfg = resolve_config({**cfg, "mix": {**cfg["mix"], "mode": mode, "alpha": alpha, "s": s}})
    key = (alpha, seed, s if mode == "label_preserving" else None)
    if key not in scored:
        params, _, train_set, test_set, _ = run_training(cell_cfg, seed)
        pred = cell_cfg["predictor"]
        pred_alpha = alpha if pred["alpha"] is None else pred["alpha"]
        pred_cfg = _predictor(pred["mode"], pred["s_test"], pred_alpha, train_set.features, seed)
        train_eval = evaluate(params, train_set, pred_cfg)
        test_eval = evaluate(params, test_set, pred_cfg)
        scored[key] = {
            "alpha": float(alpha),
            "S": int(s),
            "mode": mode,
            "seed": int(seed),
            "train_err": train_eval.misclassification_rate,
            "test_err": test_eval.misclassification_rate,
            "gap": generalization_gap(train_eval, test_eval),
        }
    return {**scored[key], "S": int(s)}


def cmd_sweep(args) -> int:
    cfg = resolve_config(load_config(args.config))
    alphas = _parse_num_list("--alphas", args.alphas, float)
    s_values = _parse_num_list("--s-values", args.s_values, int)
    seeds = _parse_num_list("--seeds", args.seeds, int) if args.seeds else cfg["seeds"]
    if not all(is_seed(s) for s in seeds):
        raise ConfigurationError(f"--seeds must list nonnegative integers, got {args.seeds!r}")
    if cfg["dataset"]["test_fraction"] is None:
        raise ConfigurationError("sweep requires dataset.test_fraction to measure a gap")
    out_dir = _output_dir(cfg, args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    progress_path = out_dir / "sweep_progress.json"
    # a cell is reused only if it was computed under this config
    digest = hashlib.sha256(json.dumps(
        {k: v for k, v in cfg.items() if k not in ("output_dir", "seeds")}, sort_keys=True
    ).encode()).hexdigest()
    progress = read_json(progress_path, "progress file") if progress_path.exists() else {}
    if not (isinstance(progress, dict) and all(isinstance(c, dict) for c in progress.values())):
        raise ParseError(f"progress file {progress_path} must be a JSON object of cell objects")
    failures = 0
    scored = {}
    lines = ["alpha,S,mode,seed,train_err,test_err,gap,train_err_se,test_err_se,gap_se\n"]
    for alpha in alphas:
        for s in s_values:
            rows = []
            for seed in seeds:
                key = f"alpha={alpha:g},S={s},seed={seed}"
                if progress.get(key, {}).get("config_sha256") != digest:
                    try:
                        progress[key] = {**_sweep_cell(cfg, alpha, s, seed, scored),
                                         "config_sha256": digest}
                    except Exception as exc:  # keep sweeping; record the failure
                        failures += 1
                        progress[key] = {"error": f"{type(exc).__name__}: {exc}"}
                        print(f"cell {key} failed: {exc}", file=sys.stderr)
                    write_file(progress_path, json.dumps(progress, indent=2))
                row = progress[key]
                if "error" not in row:
                    rows.append(row)
                    lines.append(f"{row['alpha']:g},{row['S']},{row['mode']},{row['seed']},"
                                 f"{row['train_err']!r},{row['test_err']!r},{row['gap']!r},,,\n")
            if rows:
                means, ses = [], []
                for fld in ("train_err", "test_err", "gap"):
                    vals = np.array([r[fld] for r in rows])
                    means.append(float(vals.mean()))
                    ses.append(float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1
                               else 0.0)
                lines.append(f"{alpha:g},{s},{rows[0]['mode']},mean,"
                             + ",".join(repr(v) for v in means + ses) + "\n")
    csv_path = out_dir / "sweep.csv"
    write_file(csv_path, "".join(lines))
    print(f"wrote {csv_path} ({len(alphas) * len(s_values) * len(seeds)} cells, "
          f"{failures} failed)")
    return 0


def cmd_grid(args) -> int:
    params = load_model(args.model)
    _, cfg = _predictor_from_args(args)
    xs, ys, classes, max_probs = decision_grid(
        params, cfg, (args.xmin, args.xmax), (args.ymin, args.ymax), args.res
    )
    csv_path = Path(f"{args.out_prefix}.csv")
    pgm_path = Path(f"{args.out_prefix}.pgm")
    write_file(csv_path, "x,y,class,prob\n" + "".join(
        f"{float(xs[c])!r},{float(ys[r])!r},{int(classes[r, c])},{float(max_probs[r, c])!r}\n"
        for r in range(args.res) for c in range(args.res)))
    maxval = max(1, params.n_outputs - 1)
    write_file(pgm_path, f"P2\n{args.res} {args.res}\n{maxval}\n" + "".join(
        " ".join(str(v) for v in row) + "\n" for row in classes))
    print(f"wrote {csv_path} and {pgm_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipmix",
        description="Sample-mix classifiers with marginalized prediction and "
                    "complexity diagnostics on 2-D synthetic data.",
    )
    parser.add_argument("--version", action="version", version=f"dipmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a two-spirals CSV")
    p.add_argument("--n", type=int, default=500, help="points per class")
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--turns", type=float, default=1.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model from a JSON config (or a manifest)")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_train)

    def add_predictor_flags(p):
        """The prediction flags eval and grid share; _predictor_from_args reads them."""
        p.add_argument("--mode", choices=PREDICT_MODES, default="raw")
        p.add_argument("--s-test", type=int, default=500)
        p.add_argument("--alpha", type=float, default=1.0,
                       help="prediction prior is Beta(alpha+1, alpha); 0 disables mixing")
        p.add_argument("--partner-data", default=None,
                       help="CSV whose features form the mix pool; required by --mode dip")
        p.add_argument("--stats", default=None, help="standardize.json from training")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="evaluate a model on a CSV dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    add_predictor_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bound", help="complexity bound report for a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, default=1.0,
                   help="ratio prior is Beta(alpha+1, alpha); 0 disables mixing (C = 1)")
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--c-h", type=float, default=1.0)
    p.add_argument("--loss-bound", type=float, default=10.0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="train/eval over an alpha x S x seed grid")
    p.add_argument("config")
    p.add_argument("--alphas", required=True, help="comma list; 0 means no mixing")
    p.add_argument("--s-values", required=True, help="comma list of draw counts")
    p.add_argument("--seeds", default=None, help="comma list (default: config seeds)")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("grid", help="export a decision grid as CSV and PGM")
    p.add_argument("--model", required=True)
    p.add_argument("--xmin", type=float, default=-1.5)
    p.add_argument("--xmax", type=float, default=1.5)
    p.add_argument("--ymin", type=float, default=-1.5)
    p.add_argument("--ymax", type=float, default=1.5)
    p.add_argument("--res", type=int, default=128)
    add_predictor_flags(p)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_grid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and not is_seed(args.seed):
            raise ConfigurationError(f"--seed must be a nonnegative integer, got {args.seed}")
        return args.func(args)
    except (ConfigurationError, ParseError, DomainError, ShapeError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
