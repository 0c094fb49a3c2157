"""Every file the CLI writes goes through ``cli._write``, which renames a
finished temp file into place; a write anywhere else in cli.py fails here."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "dipmix" / "cli.py"


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


def test_cli_writes_files_only_in_write():
    tree = ast.parse(CLI.read_text())
    writer = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_write"]
    inside = {id(node) for node in ast.walk(writer[0])} if writer else set()
    stray = [f"line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and id(node) not in inside and _writes(node)]
    assert writer and stray == []
