"""Integration against a Beta prior over the mixing ratio is written once, in
``mixing.beta_rule``, the Gauss-Jacobi rule built by Golub-Welsch. A module in
src/dipmix that reaches for Gauss-Legendre nodes (``leggauss`` or anything in
``numpy.polynomial``), writes out a Beta density (``lgamma``), or solves a
symmetric eigenproblem (``eigh``) outside ``beta_rule`` builds a second rule
and fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dipmix"
BANNED = {"leggauss", "polynomial", "lgamma"}


def _names(node) -> set:
    """The identifiers a node spells: a name, an attribute or an import."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        dotted = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
        return {part for name in dotted for part in name.split(".")}
    return set()


def _offences(tree, home=None) -> list:
    """(line, name) of each banned name, and of each eigh outside the function ``home``."""
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name == home
              for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        names = _names(node)
        found += [(node.lineno, name) for name in names & BANNED]
        if "eigh" in names and id(node) not in inside:
            found.append((node.lineno, "eigh"))
    return sorted(found)


def test_beta_integration_only_in_beta_rule():
    offenders = [f"{path.name}:{line}: {what}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, what in _offences(ast.parse(path.read_text()),
                                             "beta_rule" if path.name == "mixing.py" else None)]
    assert offenders == []


def test_the_check_sees_each_form():
    src = ("import numpy.polynomial\n"
           "from math import lgamma\n"
           "a = np.polynomial.legendre.leggauss(8)\n"
           "b = math.lgamma(2.0)\n"
           "def beta_rule(j):\n"
           "    return np.linalg.eigh(j)\n"
           "def other(j):\n"
           "    return np.linalg.eigh(j)\n")
    assert _offences(ast.parse(src), "beta_rule") == [
        (1, "polynomial"), (2, "lgamma"), (3, "leggauss"), (3, "polynomial"), (4, "lgamma"),
        (8, "eigh")]
