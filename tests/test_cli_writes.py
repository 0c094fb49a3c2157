"""Every file the package writes goes through ``data.write_file``, which
renames a finished temp file into place; a write anywhere else in
src/dipmix fails here. A CLI command that writes several files leaves no
earlier run's file beside a file of its own, even when a write fails."""

import ast
import errno
import json
import os
from pathlib import Path

import pytest

from dipmix import cli, mlp_init, save_model
from dipmix.cli import main
from test_cli import tiny_config

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dipmix"


def _writes(call: ast.Call) -> bool:
    """open(...)/x.open(...) with a mode that is not a read-only literal, or
    write_text/write_bytes."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # builtin open takes the mode second; Path.open takes it first
    modes = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                    and not set(m.value) & set("wax+")) for m in modes)


def test_files_are_written_only_in_write_file():
    writers, stray = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        mine = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "write_file"]
        writers += [f"{path.name}:{node.lineno}" for node in mine]
        inside = {id(node) for writer in mine for node in ast.walk(writer)}
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside and _writes(node)]
    assert len(writers) == 1 and stray == []


def test_interrupted_save_model_keeps_previous_model(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(mlp_init([2, 3, 2], "relu", seed=0), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("simulated interruption")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="simulated"):
        save_model(mlp_init([2, 3, 2], "relu", seed=1), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


# A command that writes several files removes the previous run's copies just
# before its first write and writes last the file that completes the set, so a
# rerun that stops part way never leaves an earlier run's file beside its own.

def fail_at(monkeypatch, name, writes_before=0):
    """Make cli.write_file raise ENOSPC on a file called name, once it has
    written that file writes_before times."""
    real, seen = cli.write_file, []

    def write(path, text):
        if Path(path).name == name:
            seen.append(path)
            if len(seen) > writes_before:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        real(path, text)

    monkeypatch.setattr(cli, "write_file", write)


def listing(directory) -> list:
    return sorted(path.name for path in Path(directory).iterdir())


def test_train_rerun_that_fails_leaves_no_earlier_manifest(tmp_path, monkeypatch, capsys):
    run = tmp_path / "run"
    assert main(["train", str(tiny_config(tmp_path, epochs=3))]) == 0
    assert main(["train", str(tiny_config(tmp_path, epochs=5)),
                 "--output-dir", str(tmp_path / "clean")]) == 0
    with monkeypatch.context() as patch:
        fail_at(patch, "metrics.csv")
        assert main(["train", str(tiny_config(tmp_path, epochs=5))]) == 1
    assert "No space left on device" in capsys.readouterr().err
    # the new model alone: no manifest of the 3-epoch config beside it
    assert listing(run) == ["model.json"]
    assert (run / "model.json").read_bytes() == (tmp_path / "clean" / "model.json").read_bytes()


@pytest.mark.parametrize("standardize", [False, True], ids=["unstandardized", "standardized"])
def test_train_rerun_lists_exactly_its_own_files(tmp_path, capsys, standardize):
    # the run before it took the other setting, so standardize.json comes or goes
    run = tmp_path / "run"
    assert main(["train", str(tiny_config(tmp_path, dataset={"standardize": not standardize}))]) == 0
    capsys.readouterr()
    assert main(["train", str(tiny_config(tmp_path, dataset={"standardize": standardize}))]) == 0
    wrote = capsys.readouterr().out.splitlines()[-1]
    names = ["model.json", "metrics.csv"] + ["standardize.json"] * standardize + ["manifest.json"]
    assert wrote == "wrote " + ", ".join(str(run / name) for name in names)
    assert listing(run) == sorted(names)
    outputs = json.loads((run / "manifest.json").read_text())["outputs"]
    assert sorted(Path(path).name for path in outputs.values()) == sorted(names[:-1])
    assert list(outputs) == ["model", "metrics"] + ["standardize"] * standardize


def test_train_keeps_the_previous_record_until_training_ends(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", str(tiny_config(tmp_path))]) == 0
    before = {name: (run / name).read_bytes() for name in listing(run)}
    assert main(["train", str(tiny_config(tmp_path, optim={"learning_rate": 1000.0}))]) == 1
    assert "training diverged" in capsys.readouterr().err
    assert {name: (run / name).read_bytes() for name in listing(run)} == before


def test_train_from_its_own_manifest_rewrites_the_same_bytes(tmp_path):
    run = tmp_path / "run"
    assert main(["train", str(tiny_config(tmp_path))]) == 0
    before = {name: (run / name).read_bytes() for name in listing(run)}
    assert len(before) == 4
    # the config is read before any file is removed
    assert main(["train", str(run / "manifest.json")]) == 0
    assert {name: (run / name).read_bytes() for name in listing(run)} == before


def test_grid_rerun_that_fails_leaves_no_earlier_pgm(tmp_path, monkeypatch, capsys):
    model = tmp_path / "model.json"
    save_model(mlp_init([2, 3, 2], "relu", seed=0), model)
    grid = ["grid", "--model", str(model), "--out-prefix", str(tmp_path / "g"), "--res"]
    assert main(grid + ["4"]) == 0
    with monkeypatch.context() as patch:
        fail_at(patch, "g.pgm")
        assert main(grid + ["6"]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert listing(tmp_path) == ["g.csv", "model.json"]
    assert len((tmp_path / "g.csv").read_text().splitlines()) == 1 + 36


def test_sweep_rerun_that_fails_leaves_no_earlier_csv(tmp_path, monkeypatch, capsys):
    sweep = tmp_path / "sweep"
    args = ["sweep", str(tiny_config(tmp_path, output_dir=str(sweep), epochs=2)),
            "--s-values", "1", "--seeds", "0,1", "--alphas"]
    assert main(args + ["1"]) == 0
    with monkeypatch.context() as patch:
        fail_at(patch, "sweep_progress.json", writes_before=1)
        assert main(args + ["2"]) == 1
    assert "No space left on device" in capsys.readouterr().err
    # the progress file holds an alpha-2 cell, and no sweep.csv of alpha 1 sits beside it
    assert listing(sweep) == ["sweep_progress.json"]
    progress = json.loads((sweep / "sweep_progress.json").read_text())
    assert list(progress) == ["alpha=2,S=1,seed=0", "alpha=1,S=1,seed=0", "alpha=1,S=1,seed=1"]
