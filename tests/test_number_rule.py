"""``errors.is_int`` and ``errors.is_real`` are the one integer rule and the one
real-number rule. A module other than errors.py that reaches for ``numbers``,
tests ``isinstance(value, (int, float))`` or compares with an infinity writes
a rule of its own, one that may let JSON true, NaN or Infinity through, and
fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dipmix"


def _is_infinity(node) -> bool:
    """np.inf, math.inf, numpy.inf or float("inf")."""
    if isinstance(node, ast.Attribute):
        return node.attr == "inf"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).lower().lstrip("+-") in ("inf", "infinity"))


def _offences(tree) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            found.append((node.lineno, "import numbers"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found.append((node.lineno, "from numbers import"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(k, ast.Name) and k.id == "float" for k in kinds):
                found.append((node.lineno, "isinstance(..., float)"))
        elif isinstance(node, ast.Compare) and any(
                _is_infinity(operand) for operand in [node.left, *node.comparators]):
            found.append((node.lineno, "comparison with infinity"))
    return found


def test_number_rule_only_in_errors():
    offenders = [f"{path.name}:{line}: {what}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
                 for line, what in _offences(ast.parse(path.read_text()))]
    assert offenders == []


def test_the_check_sees_each_form():
    src = ("import numbers\n"
           "a = isinstance(v, (int, float))\n"
           "b = 0 < v < np.inf\n"
           "c = v == float('-inf')\n")
    assert [what for _, what in _offences(ast.parse(src))] == [
        "import numbers", "isinstance(..., float)", "comparison with infinity",
        "comparison with infinity"]
