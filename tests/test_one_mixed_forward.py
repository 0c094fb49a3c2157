"""The "mix -> forward -> average logits" step of the mixed classifier is
written once, in ``predictor.dip_logits``; training and prediction call it. A
function anywhere in the package that calls both ``mix`` and a forward pass
writes that step again and fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dipmix"
FORWARDS = {"forward", "_forward_cached"}
ALLOWED = {"dip_logits"}


def _called(func: ast.FunctionDef) -> set:
    return {node.func.id for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_mixed_forward_only_in_dip_logits():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name not in ALLOWED:
                called = _called(func)
                if "mix" in called and called & FORWARDS:
                    offenders.append(f"{path.name}:{func.name}")
    assert offenders == []
