"""Log-probabilities are computed once, in ``nn.log_softmax``; training's loss,
``predict_batch`` and ``evaluate`` all take them from there. A module in
src/dipmix that takes a numpy log anywhere else (``np.log``, ``numpy.log`` or
``from numpy import log``) derives them a second time, as ``evaluate`` once
did with -log(clip(exp(log_softmax(z)), 1e-300)), which capped every row's
loss at 690.78, and fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dipmix"
NUMPY = {"np", "numpy"}


def _is_numpy_log(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "log" and isinstance(node.value, ast.Name) and node.value.id in NUMPY
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy" and any(a.name == "log" for a in node.names)
    return False


def _offences(tree, home=None) -> list:
    """Line of each numpy log outside the function ``home``."""
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name == home
              for node in ast.walk(func)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if _is_numpy_log(node) and id(node) not in inside)


def test_numpy_log_only_in_log_softmax():
    offenders = [f"{path.name}:{line}"
                 for path in sorted(SRC.glob("*.py"))
                 for line in _offences(ast.parse(path.read_text()),
                                       "log_softmax" if path.name == "nn.py" else None)]
    assert offenders == []


def test_the_check_sees_each_form():
    src = ("from numpy import log\n"
           "import math\n"
           "def log_softmax(z):\n"
           "    return z - np.log(np.exp(z).sum())\n"
           "def loss(p):\n"
           "    return -numpy.log(p), math.log(2.0), np.log1p(p)\n"
           "f = np.log\n")
    assert _offences(ast.parse(src), "log_softmax") == [1, 6, 7]
    assert _offences(ast.parse(src)) == [1, 4, 6, 7]
