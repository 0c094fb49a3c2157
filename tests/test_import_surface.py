import os
import subprocess
import sys
from pathlib import Path

import pytest

import dipmix

SRC = os.path.dirname(os.path.dirname(dipmix.__file__))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_python(args, cwd=None):
    """A fresh interpreter with this dipmix first on its path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          cwd=cwd, capture_output=True, text=True)


def test_import_leaves_cli_argparse_and_hashlib_unloaded():
    """`import dipmix` compiles and loads the library only: the CLI module and
    what only it needs stay out, so an import costs no more than the library."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import dipmix\n"
        "print(' '.join(m for m in ('dipmix.cli', 'argparse', 'hashlib')\n"
        "               if m in sys.modules and m not in before))\n"
    )
    result = run_python(["-c", script])
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def test_python_dash_m_runs_the_cli(tmp_path):
    """`python -m dipmix` is the CLI: it prints the version, and a bad input
    ends in one error line and exit code 2."""
    result = run_python(["-m", "dipmix", "--version"])
    assert (result.returncode, result.stdout) == (0, f"dipmix {dipmix.__version__}\n")
    result = run_python(["-m", "dipmix", "gen-data", "--n", "0", "--out", "x.csv"], cwd=tmp_path)
    assert result.returncode == 2 and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_package_metadata_and_the_module_name_one_version():
    import tomllib

    with PYPROJECT.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == dipmix.__version__
