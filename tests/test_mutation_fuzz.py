"""Seeded mutations of every input document the CLI reads end in a clean verdict.

A code file, a channel spec file, an explicit ensemble and a recovery file
are each mutated ``CASES`` times with numpy's generator: a key is deleted,
a list is cut or grown, or a value is swapped for a hostile one (NaN,
infinities, huge or negative numbers, strings, empty containers). Every
mutant runs under each command that reads that kind of file, all through
``cli.main`` in one child process under an address-space limit. No
exception may escape; exit 2 writes one ``error:`` line and nothing to
stdout; exit 0 writes nothing to stderr, so no numpy warning slips out;
every JSON report parses without NaN or Infinity.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qeckit import ChannelSpec, build_channel, builtin_code, e_error_family, synthesize_recovery, tensor_power
from qeckit.serialize import dumps_canonical, code_to_json, ensemble_to_json, recovery_to_json

ROOT = Path(__file__).resolve().parent.parent

SEED = 2027
CASES = 12
CHILD_AS_LIMIT = 2 * 2**30

CHANNEL = "decoherence_pm_basis:gamma=0.1,qubits=3"
FAMILY = "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1"

HOSTILE = (
    None, True, -1, 0, 3, 2**70, 1e308, -1e308, 5e-324, float("nan"), float("inf"), float("-inf"),
    "", "x", [], {}, [[]], [[1.0, 0.0]], {"kind": "decoherence"},
)

_CHILD = """
import contextlib, io, json, resource, sys, warnings
warnings.simplefilter("always")  # a warning shows on every command that raises it, not only the first
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
    results.append([argv, rc, out.getvalue()[:100000], err.getvalue()[:300]])
print(json.dumps(results))
"""


def _plain(document):
    """The document as the plain JSON values a file holds."""
    return json.loads(dumps_canonical(document))


def _documents():
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.1}))
    code = builtin_code("phase3")
    recovery = synthesize_recovery(code, e_error_family(pm, 3, 1))
    return {
        "code": _plain(code_to_json(code)),
        "spec": {"kind": "decoherence_pm_basis", "params": {"gamma": 0.1, "qubits": 3}},
        "ensemble": _plain(ensemble_to_json(tensor_power(pm, 3))),
        "recovery": _plain(recovery_to_json(recovery)),
    }


def _nodes(value, path=()):
    """Every (path, value) pair of the document tree, the root included."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _nodes(inner, (*path, key))


def _mutate(document, rng):
    """One mutation at a node drawn by depth first, so shallow keys are hit as often as deep numbers."""
    nodes = list(_nodes(document))
    depths = sorted({len(path) for path, _ in nodes})
    depth = depths[rng.integers(len(depths))]
    at_depth = [node for node in nodes if len(node[0]) == depth]
    path, value = at_depth[rng.integers(len(at_depth))]
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    choice = rng.integers(3)
    if choice == 0 and path:  # delete the node
        del parent[path[-1]]
        return document
    if choice == 1 and isinstance(value, list) and value:  # cut or grow the list
        cut = value[: rng.integers(len(value))]
        grown = value + [copy.deepcopy(value[rng.integers(len(value))]) for _ in range(rng.integers(1, 4))]
        value = cut if rng.integers(2) else grown
    else:  # swap in a hostile value
        value = HOSTILE[rng.integers(len(HOSTILE))]
    if not path:
        return value
    parent[path[-1]] = value
    return document


def _argvs(kind, path):
    if kind == "recovery":
        return [
            ["fidelity", "phase3", CHANNEL, "--recovery", path],
            ["memory", "phase3", CHANNEL, "--recovery", path, "--cycles", "2"],
        ]
    if kind == "code":
        commands = [[command, path, FAMILY] for command in ("check", "synthesize")]
        commands += [["fidelity", path, CHANNEL], ["memory", path, CHANNEL, "--cycles", "2"]]
    else:
        commands = [[command, "phase3", path] for command in ("check", "synthesize", "fidelity")]
        commands.append(["memory", "phase3", path, "--cycles", "2"])
    return [*commands, ["info", path]]


def _reject_constant(name):
    raise ValueError(f"report holds {name}")


def test_mutated_documents_end_in_a_clean_verdict(tmp_path):
    rng = np.random.default_rng(SEED)
    argvs = []
    for kind, document in _documents().items():
        for case in range(CASES):
            path = tmp_path / f"{kind}-{case}.json"
            path.write_text(json.dumps(_mutate(document, rng)))
            argvs += _argvs(kind, str(path))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(limit=CHILD_AS_LIMIT), json.dumps(argvs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    results = json.loads(done.stdout)
    assert len(results) == len(argvs)
    for argv, rc, out, err in results:
        assert rc in (0, 1, 2), (argv, rc, err)
        if rc == 2:
            assert out == "", argv
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
            continue
        if rc == 0:
            assert err == "", (argv, err)
        if argv[0] != "memory":
            json.loads(out, parse_constant=_reject_constant)
