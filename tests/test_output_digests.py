"""tools/output_digests.py digests every file of its fixed CLI matrix, so that
comparing two trees' outputs is two runs and a diff. A run that leaves a file
out, or writes one whose bytes depend on the run rather than the code, would
make that comparison say nothing, and fails here."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from dipmix.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def runs():
    """The tool and two runs' digests of this tree's matrix, shared by the module."""
    tool = load_tool()
    return tool, tool.digests(SRC), tool.digests(SRC)


def test_two_runs_digest_every_output_alike(runs):
    tool, first, second = runs
    assert first == second
    expected = {"spirals.csv", "grid.csv", "grid.pgm", "bound.json", "bound.out", "predict_raw.npy",
                "sweep/sweep.csv", "sweep/sweep_progress.json", "sweep_diverged/sweep.csv",
                "sweep_diverged/sweep_progress.json"}
    for mode, _ in tool.MODES:
        expected |= {f"run/{mode}/{name}" for name in
                     ("model.json", "metrics.csv", "standardize.json", "manifest.json")}
        expected |= {f"eval_{mode}_raw.out", f"eval_{mode}_dip.out"}
    # S = 5000 and 10000 forward each row in two and three pieces of at most 4096 rows
    assert tool.S_VALUES == (1, 7, 500, 5000, 10000)
    expected |= {f"predict_dip_s{s}.npy" for s in tool.S_VALUES}
    expected |= {"train_library.npy", "train_library.out"}  # the library's own BLAS rule
    expected |= {f"errors/{name}.err" for name, *_ in tool.BAD}
    # a rerun without standardization removes the earlier run's standardize.json
    expected |= {f"rerun/{name}" for name in ("model.json", "metrics.csv", "manifest.json")}
    assert expected <= set(first)
    assert "rerun/standardize.json" not in first
    assert all(len(digest) == 64 for digest in first.values())
    # a resumed sweep writes what a fresh one writes
    for name in ("sweep.csv", "sweep_progress.json"):
        assert first[f"sweep_resumed/{name}"] == first[f"sweep/{name}"]
    # every CLI step keeps its standard error and exit code beside its standard output;
    # of the successful ones only the diverged sweep prints there, one line per failed cell
    steps = {path[:-len(".out")] for path in first
             if path.endswith(".out") and not path.startswith("errors/")} - {"train_library"}
    assert len(steps) == 25
    for step in steps - {"sweep_diverged"}:
        assert first[f"{step}.err"] == hashlib.sha256(b"exit 0\n").hexdigest(), step
    assert first["sweep_diverged.err"] != hashlib.sha256(b"exit 0\n").hexdigest()
    # no bad invocation prints to standard output or writes a file beside its config
    names = {name for name, *_ in tool.BAD}
    assert len(names) == len(tool.BAD) == 7
    written = [path for path in first if path.startswith("errors/") and path.count("/") > 1]
    assert sorted(written) == sorted(f"errors/{name}/config.json" for name in names)
    for name in names:
        assert first[f"errors/{name}.out"] == hashlib.sha256(b"").hexdigest()


def test_help_of_every_command_is_digested(runs, monkeypatch, capsys):
    """The CLI surface, every flag, default and help string, is part of the
    same-bytes check: each help file holds what ``dipmix <cmd> --help`` prints
    at 80 columns."""
    _, digests, _ = runs
    monkeypatch.setenv("COLUMNS", "80")
    for command in ("dipmix", "gen-data", "train", "eval", "bound", "sweep", "grid"):
        with pytest.raises(SystemExit) as info:
            main(["--help"] if command == "dipmix" else [command, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: dipmix")
        assert digests[f"help/{command}.out"] == hashlib.sha256(text.encode()).hexdigest()
