"""Every file the package writes goes through ``data.write_file``, which
renames a finished temp file into place; a write anywhere else in
src/dipmix fails here."""

import ast
import os
from pathlib import Path

import pytest

from dipmix import mlp_init, save_model

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
