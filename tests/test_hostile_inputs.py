"""Inputs that once ended in a traceback, a numpy warning or a non-finite report are refused.

Each runs through ``cli.main`` under every command that reads a channel and
must exit 2 with one ``error:`` line on stderr and nothing on stdout. The
register sizes far above the cap run in one child process under an
address-space limit, so a regression that forms the power fails the test
instead of exhausting the host.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qeckit.cli import main

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (("check", "phase3"), ("synthesize", "phase3"), ("fidelity", "phase3"), ("memory", "phase3"), ("info",))

HUGE = ("1e5", "1e308")

# A register kind through each power the lift forms: tensor_power, e_error_family and uniform_phase_flip's 2**r.
SHORTHANDS = ("decoherence:gamma=0.1,qubits={}", "pauli_unitary_basis:qubits={},max_errors=1", "uniform_phase_flip:p=0.1,qubits={}")

CHILD_AS_LIMIT = 2 * 2**30

_CHILD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from qeckit.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except BaseException as exc:
            rc = repr(exc)[:300]
    results.append([argv, rc, out.getvalue(), err.getvalue()[:300]])
print(json.dumps(results))
"""


def _assert_refused(argv, rc, out, err, word):
    assert rc == 2, (argv, rc, err)
    assert out == "", argv
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
    assert word in lines[0], (argv, lines[0])


def _run_in_process(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:  # printed to stderr outside the test runner
        warnings.simplefilter("always")
        rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


def _write(path, document):
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    return str(path)


def _argvs(channel):
    return [[*command, channel] for command in COMMANDS]


def test_huge_registers_are_refused_before_any_power_is_formed(tmp_path):
    channels = [shorthand.format(q) for shorthand in SHORTHANDS for q in HUGE]
    channels += [
        _write(tmp_path / f"qubits-{q}.json", f'{{"kind": "decoherence", "params": {{"gamma": 0.1, "qubits": {q}}}}}')
        for q in HUGE
    ]
    argvs = [argv for channel in channels for argv in _argvs(channel)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(limit=CHILD_AS_LIMIT), json.dumps(argvs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    results = json.loads(done.stdout)
    assert len(results) == len(argvs)
    for argv, rc, out, err in results:
        _assert_refused(argv, rc, out, err, "exceeds the cap 256")


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_a_parameter_beyond_the_float_range_is_refused_by_name(command, tmp_path, capsys):
    spec = _write(tmp_path / "gamma.json", '{"kind": "decoherence", "params": {"gamma": 1' + "0" * 400 + "}}")
    argv = [*command, spec]
    _assert_refused(argv, *_run_in_process(argv, capsys), "parameter gamma must be a number")


def _dense_family(path):
    ops = np.stack([np.eye(8, dtype=complex), np.zeros((8, 8), dtype=complex)])
    ops[1, 0, 0] = 1e200
    return _write(path, {"dim": 8, "label": "big", "operators": np.stack([ops.real, ops.imag], axis=-1).tolist()})


def _lifted_family(path, qubits, one):
    return _write(path, {"kind": "explicit", "params": {"qubits": qubits}, "operators": [one]})


def _monomial(entry):
    return [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [entry, 0.0]]]


DENSE_ROW = [[[1e50, 0.0], [1e50, 0.0]], [[1e50, 0.0], [1.0, 0.0]]]  # two nonzeros in a row: lifted by _kron_words

FAMILIES = {
    "dense-1e200": _dense_family,
    "lifted-3-1e150": lambda path: _lifted_family(path, 3, _monomial(1e150)),
    "lifted-8-1e50": lambda path: _lifted_family(path, 8, _monomial(1e50)),
    "dense-lift-8-1e50": lambda path: _lifted_family(path, 8, DENSE_ROW),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_a_family_whose_squared_entries_overflow_is_refused(family, command, tmp_path, capsys):
    argv = [*command, FAMILIES[family](tmp_path / "family.json")]
    _assert_refused(argv, *_run_in_process(argv, capsys), "squared magnitudes overflow")
