"""``python -m qeckit`` runs the command line from a checkout and exits with its code."""

import os
import subprocess
import sys
from pathlib import Path

from qeckit import __version__

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "qeckit", *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)


def test_version_exits_zero():
    done = _run("--version")
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"qeckit {__version__}\n"


def test_unknown_command_exits_two():
    done = _run("no-such-command")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "invalid choice: 'no-such-command'" in done.stderr
