"""A frozen value type holds what it was built from and nothing more. Its
fields are set through ``__setattr__`` once, in ``nn._pack``, which lays the
parameters out in one vector; a ``__setattr__`` call anywhere else in the
package could give a frozen object hidden state, such as a cache that a later
call rewrites, and fails here.

A dataclass that holds arrays compares by identity (``eq=False``): the
generated ``__eq__`` would compare its arrays and raise on every use, and
``hash`` with it. Only the all-scalar types keep value equality. The two
configs are frozen, so nothing changes them after their checks ran."""

import ast
import copy
import json
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from dipmix import (BetaParams, Dataset, MixConfig, OptimState, PredictorConfig,
                    StandardizeStats, backward, mlp_init, sgd_step)
from dipmix.nn import ModelParams, Workspace, to_dict

SRC = Path(__file__).resolve().parents[1] / "src" / "dipmix"
ALLOWED = {("nn.py", "_pack")}
SCALAR_TYPES = {"BetaParams", "MixConfig", "BoundReport"}  # value equality, scalar fields only
SCALARS = {"float", "int", "str", "bool"}


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


def _dataclasses(tree):
    """(class, keyword arguments of its @dataclass decorator) for every dataclass in tree."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for deco in cls.decorator_list:
            call = deco if isinstance(deco, ast.Call) else ast.Call(deco, [], [])
            if getattr(call.func, "id", getattr(call.func, "attr", None)) == "dataclass":
                yield cls, {k.arg: k.value for k in call.keywords}


def test_only_scalar_dataclasses_compare_by_value():
    offenders, scalar_seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        for cls, keywords in _dataclasses(ast.parse(path.read_text())):
            eq = keywords.get("eq")
            by_identity = isinstance(eq, ast.Constant) and eq.value is False
            if cls.name in SCALAR_TYPES:
                fields = {ast.unparse(s.annotation) for s in cls.body
                          if isinstance(s, ast.AnnAssign)}
                assert fields <= SCALARS and not by_identity, cls.name
                scalar_seen.add(cls.name)
            elif not by_identity:
                offenders.append(f"{path.name}:{cls.lineno} {cls.name}")
    assert offenders == []
    assert scalar_seen == SCALAR_TYPES  # the check still sees every scalar type


def test_models_compare_by_identity():
    a, b = mlp_init([2, 4, 2], seed=0), mlp_init([2, 4, 2], seed=0)
    assert a != b and a == a
    assert len({a, b}) == 2 and a in [a] and a not in [b]


def test_array_holders_compare_by_identity_without_raising():
    params = mlp_init([2, 4, 2], seed=0)
    x, y = np.arange(6.0).reshape(3, 2), np.eye(2)[[0, 1, 0]]
    states = OptimState(0.1, 0.9), OptimState(0.1, 0.9)
    grads = backward(params, x, y)[1]
    for state in states:
        sgd_step(params, grads, state, 0)
    pairs = [
        [Dataset(x.copy(), y.copy()) for _ in range(2)],
        [StandardizeStats(np.zeros(2), np.ones(2)) for _ in range(2)],
        [PredictorConfig("dip", 5, BetaParams(2, 1), x.copy()) for _ in range(2)],
        [Workspace.for_model(params, 3) for _ in range(2)],
        states,
    ]
    for a, b in pairs:
        assert a != b and not a == b and a == a and len({a, b}) == 2, type(a).__name__
    assert np.array_equal(states[0].velocity, states[1].velocity)


def test_scalar_types_keep_value_equality():
    assert BetaParams(2, 1) == BetaParams(2.0, 1.0)
    assert MixConfig("label_mixing", 1.0, 1) == MixConfig("label_mixing", 1.0, 1)
    assert len({MixConfig(), MixConfig()}) == 1


def test_configs_cannot_change_after_validation():
    mix_cfg = MixConfig("label_mixing", 1.0, 1)
    cfg = PredictorConfig("dip", 5, BetaParams(2, 1), np.zeros((3, 2)))
    for obj, name, value in ((mix_cfg, "mode", "label_mixng"), (mix_cfg, "s", 0),
                             (cfg, "s_test", 0), (cfg, "partner_pool", None)):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, value)
    assert (mix_cfg.mode, mix_cfg.s, cfg.s_test) == ("label_mixing", 1, 5)
    assert cfg.partner_pool.shape == (3, 2)


def test_model_keeps_its_own_layer_sizes():
    sizes = [2, 3, 2]
    weights = [np.zeros((2, 3)), np.zeros((3, 2))]
    p = ModelParams(sizes, weights, [np.zeros(3), np.zeros(2)])
    sizes[-1] = 5
    assert p.layer_sizes == (2, 3, 2) and p.n_outputs == 2
    q = mlp_init(sizes, seed=0)
    sizes[0] = 7
    assert q.layer_sizes == (2, 3, 5) and q.n_inputs == 2
    assert copy.deepcopy(p).layer_sizes == (2, 3, 2)
    assert json.loads(json.dumps(to_dict(p)))["layer_sizes"] == [2, 3, 2]
