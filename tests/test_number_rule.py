"""``errors.is_int`` and ``errors.is_real`` are the one integer rule and the one
real-number rule. A module other than errors.py that reaches for ``numbers``,
tests ``isinstance(value, (int, float))`` or compares with an infinity writes
a rule of its own, one that may let JSON true, NaN or Infinity through, and
fails here. A single integer goes through ``errors.check_int(name, value,
interval)``, a count with interval "> 0" and a seed with ">= 0": an integer,
not a bool, with the one message "name must be an integer <interval>, got
<value>". A single real value goes through ``errors.check_real(name, value,
interval)``: finite, not a bool, and inside one of a few named intervals, with
the one message "name must be a finite number <interval>, got <value>". Only a
rule about more than one value may call ``is_int`` or ``is_real`` itself: the
architecture's list of layer sizes calls ``is_int``; the Beta shape pair, a
mode's alpha > 0, the schedule's pairs and the grid's box call ``is_real``. The
CLI's number lists pass each value through its scalar rule. The last three
tests call every function that takes a count, a seed or a single real with
values the rule rejects, and expect that message, naming the argument."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from dipmix import (BetaParams, ConfigurationError, MixConfig, OptimState, PredictorConfig,
                    beta_rule, bound_report, decision_grid, gen_spirals, mlp_init,
                    rademacher_bracket, sample_lambda, sample_partners, split, train)

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


def _callers(tree, function: str) -> set:
    """The qualified names of the functions that call function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                if isinstance(child, ast.Call) and function in (
                        getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                    found.add(".".join(scope))
                visit(child, scope)

    visit(tree, [])
    return found


def _callers_outside_errors(function: str) -> set:
    return {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
            if path.name != "errors.py"
            for name in _callers(ast.parse(path.read_text()), function)}


def test_is_int_only_in_compound_rules():
    assert _callers_outside_errors("is_int") == {"nn._check_architecture"}


def test_is_real_only_in_compound_rules():
    assert _callers_outside_errors("is_real") == {
        "mixing.BetaParams.__post_init__", "mixing.lambda_prior", "nn.OptimState.__post_init__",
        "predictor.decision_grid"}


def test_the_check_sees_each_form():
    src = ("import numbers\n"
           "a = isinstance(v, (int, float))\n"
           "b = 0 < v < np.inf\n"
           "c = v == float('-inf')\n")
    assert [what for _, what in _offences(ast.parse(src))] == [
        "import numbers", "isinstance(..., float)", "comparison with infinity",
        "comparison with infinity"]


DS, NET = gen_spirals(4), mlp_init([2, 3, 2])
RNG = np.random.default_rng
COUNTS = {  # argument name: a call that passes it the value v
    "n_per_class": lambda v: gen_spirals(v),
    "s": lambda v: MixConfig("label_preserving", 1.0, v),
    "s_test": lambda v: PredictorConfig(s_test=v),
    "resolution": lambda v: decision_grid(NET, PredictorConfig(), (-1, 1), (-1, 1), v),
    "epochs": lambda v: train(NET, DS, MixConfig(), OptimState(0.1), v, 4, RNG(0)),
    "batch_size": lambda v: train(NET, DS, MixConfig(), OptimState(0.1), 1, v, RNG(0)),
    "q": lambda v: beta_rule(BetaParams(1, 1), v),
    "size": lambda v: sample_lambda(BetaParams(1, 1), RNG(0), v),
    "m": lambda v: sample_partners(v, RNG(0)),
}
SEEDS = {  # function: a call that passes it the seed v
    "gen_spirals": lambda v: gen_spirals(4, seed=v),
    "split": lambda v: split(DS, 0.5, seed=v),
    "mlp_init": lambda v: mlp_init([2, 3, 2], seed=v),
    "PredictorConfig": lambda v: PredictorConfig(seed=v),
}


REALS = {  # argument name: (a call that passes it the value v, a finite value out of range)
    "noise_std": (lambda v: gen_spirals(4, noise_std=v), -0.1),
    "turns": (lambda v: gen_spirals(4, turns=v), 0),
    "test_fraction": (lambda v: split(DS, v), 1),
    "alpha": (lambda v: MixConfig("none", v), -1),
    "learning_rate": (lambda v: OptimState(v), 0),
    "momentum": (lambda v: OptimState(0.1, v), 1),
    "rho": (lambda v: bound_report(DS.features, None, rho=v), 0),
    "c_h": (lambda v: bound_report(DS.features, None, c_h=v), -1),
    "loss_bound": (lambda v: bound_report(DS.features, None, loss_bound=v), 0),
    "delta": (lambda v: bound_report(DS.features, None, delta=v), 1),
    "c_lambda": (lambda v: rademacher_bracket(DS.features, v), 1.5),
}


@pytest.mark.parametrize("value", [0, True, 1.5])
@pytest.mark.parametrize("name", list(COUNTS))
def test_every_count_is_checked(name, value):
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(name)} must be an integer > 0"):
        COUNTS[name](value)


@pytest.mark.parametrize("value", [-1, True, 2.5])
@pytest.mark.parametrize("function", list(SEEDS))
def test_every_seed_is_checked(function, value):
    with pytest.raises(ConfigurationError, match="^seed must be an integer >= 0, got"):
        SEEDS[function](value)


@pytest.mark.parametrize("value", ["nan", "true", "out of range"])
@pytest.mark.parametrize("name", list(REALS))
def test_every_real_is_checked(name, value):
    call, out_of_range = REALS[name]
    v = {"nan": float("nan"), "true": True, "out of range": out_of_range}[value]
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(name)} must be a finite number"):
        call(v)
