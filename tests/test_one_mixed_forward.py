"""The "mix -> forward -> average logits" step of the mixed classifier is
written once, in ``predictor.dip_logits``; training, prediction and the Jensen
check call it. A function in objective.py or predictor.py that calls both
``mix`` and a forward pass writes that step again and fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dipmix"
FORWARDS = {"forward", "_forward_cached"}
# prop1_check is the quadrature reference oracle: it integrates the ratio over
# the Gauss-Jacobi nodes of mixing.beta_rule and mixes labels too, so it must
# stay independent of the Monte-Carlo kernel it is used to check.
ALLOWED = {"dip_logits", "prop1_check"}


def _called(func: ast.FunctionDef) -> set:
    return {node.func.id for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_mixed_forward_only_in_dip_logits():
    offenders = []
    for name in ("objective.py", "predictor.py"):
        tree = ast.parse((SRC / name).read_text())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name not in ALLOWED:
                called = _called(func)
                if "mix" in called and called & FORWARDS:
                    offenders.append(f"{name}:{func.name}")
    assert offenders == []
