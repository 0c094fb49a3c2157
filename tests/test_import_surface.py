import os
import subprocess
import sys

import dipmix


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
    src = os.path.dirname(os.path.dirname(dipmix.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == []
