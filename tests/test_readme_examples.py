"""The README's CLI examples run as written.

Every ``qeckit …`` line of the README's ``sh`` blocks whose arguments are
builtin names, not files, goes through ``cli.main`` and must exit 0, so
the README cannot drift from the CLI.
"""

import re
import shlex
from pathlib import Path

import pytest

from qeckit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
COMMANDS = [shlex.split(line)[1:] for block in BLOCKS for line in block.splitlines() if line.startswith("qeckit ")]
BUILTIN = [argv for argv in COMMANDS if not any(arg.endswith(".json") for arg in argv)]


def test_the_examples_are_found():
    assert len(COMMANDS) == 8 and len(BUILTIN) == 6


@pytest.mark.parametrize("argv", BUILTIN, ids=[" ".join(argv) for argv in BUILTIN])
def test_readme_example_exits_zero(argv, capsys):
    assert main(argv) == 0, capsys.readouterr().err
