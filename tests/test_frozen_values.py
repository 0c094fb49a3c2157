"""A frozen value type holds what it was built from and nothing more. Its
fields are set through ``__setattr__`` once, in ``nn._pack``, which lays the
parameters out in one vector; a ``__setattr__`` call anywhere else in the
package could give a frozen object hidden state, such as a cache that a later
call rewrites, and fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dipmix"
ALLOWED = {("nn.py", "_pack")}


def _setattr_calls(node) -> list:
    """Every call of an attribute named __setattr__ (object.__setattr__,
    super().__setattr__, ...) under node."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == "__setattr__"]


def test_setattr_only_in_pack():
    offenders, allowed_calls = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(call) for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                   and (path.name, func.name) in ALLOWED for call in _setattr_calls(func)}
        allowed_calls += len(allowed)
        offenders += [f"{path.name}:{call.lineno}" for call in _setattr_calls(tree)
                      if id(call) not in allowed]
    assert offenders == []
    assert allowed_calls == 1  # the check still sees _pack's call
