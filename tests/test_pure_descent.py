"""The k > 2 pure-state minimum, by Barzilai-Borwein descents on the unit sphere.

``fidelity._minima`` runs fixed-seed restarts of two-point (Barzilai and
Borwein) steps, each stopped on its Riemannian gradient norm, after the
mixed-state solve whose value less its gap is a certified floor; the
restarts stop once one converges within ``_GAP_TOL`` of that floor. The
oracle is the backtracking line-search descent it replaced
(``helpers.line_search_pure_minimum``); both report the value of an
evaluated pure state, so each is an upper bound on the minimum, and the
descent must not stop above the oracle.
"""

import json

import numpy as np
import pytest

from helpers import line_search_pure_minimum
from qeckit import ChannelSpec, build_channel, builtin_code, fidelity, min_fidelity, random_code
from qeckit.cli import main
from qeckit.fidelity import _logical, _minima, _objective
from qeckit.serialize import code_to_json, dumps_canonical

PARAMS = {"decoherence": {"gamma": 0.3}, "amplitude_damping": {"p": 0.2}, "depolarizing_third": {}}


def _compressed(n, k, kind, seed):
    code = random_code(n, k, seed=seed)
    channel = build_channel(ChannelSpec(kind, {**PARAMS[kind], "qubits": n.bit_length() - 1}))
    return _logical(code, channel)


@pytest.mark.parametrize("leak", ["zero", "gram"])
@pytest.mark.parametrize("n, k, kind, seed", [
    (4, 3, "decoherence", 1),
    (4, 4, "amplitude_damping", 2),
    (8, 3, "depolarizing_third", 3),
    (8, 6, "amplitude_damping", 5),
    (16, 3, "amplitude_damping", 6),
    (4, 3, "depolarizing_third", 9),
])
def test_descent_is_no_worse_than_the_line_search(n, k, kind, seed, leak):
    m_ops, gram = _compressed(n, k, kind, seed)
    leak = np.zeros((k, k)) if leak == "zero" else gram
    (c, method, trace), _ = _minima(m_ops, leak)
    assert method == "random_restart"
    assert trace["converged"] and 0 < trace["steps"] < 32 * fidelity._DESCENT_STEPS
    value = _objective(m_ops, leak, np.outer(c, c.conj()))[0]
    assert value == trace["best_restart_value"]  # the reported value is the returned state's
    _, oracle = line_search_pure_minimum(m_ops, leak)
    assert value <= oracle + 1e-12


def test_trivial_code_reaches_its_certified_floor():
    channel = build_channel(ChannelSpec("decoherence", {"gamma": 0.3, "qubits": 4}))
    report = min_fidelity(builtin_code("trivial(16)"), channel)
    assert report.optimizer_trace["converged"]
    assert report.value - report.optimizer_trace["lower_bound"] <= 1e-13


def test_descent_evaluates_the_objective_a_few_thousand_times(monkeypatch):
    m_ops, _ = _compressed(8, 3, "decoherence", 5)
    calls = []
    monkeypatch.setattr(fidelity, "_objective", lambda *args: calls.append(1) or _objective(*args))
    _minima(m_ops, np.zeros((3, 3)))  # the count includes the mixed descent's evaluations
    assert len(calls) <= 5_000


def test_a_restart_stopped_by_the_guard_is_reported(monkeypatch):
    m_ops, _ = _compressed(8, 3, "decoherence", 5)
    monkeypatch.setattr(fidelity, "_DESCENT_STEPS", 3)
    (c, _, trace), _ = _minima(m_ops, np.zeros((3, 3)))
    assert trace["steps"] == 32 * 3 and trace["converged"] is False  # a guard stop never closes the bracket
    assert trace["best_restart_value"] == _objective(m_ops, np.zeros((3, 3)), np.outer(c, c.conj()))[0]


def _fidelity_trace(capsys, code, channel):
    assert main(["fidelity", code, channel]) == 0
    return json.loads(capsys.readouterr().out)["result"]["min_fidelity"]


def test_a_closed_bracket_stops_the_restarts(capsys):
    report = _fidelity_trace(capsys, "trivial:32", "decoherence:gamma=0.3,qubits=5")
    trace = report["optimizer_trace"]
    assert trace["restarts"] == 1 and trace["certificate"] == "closed"
    assert abs(report["value"] - trace["lower_bound"]) <= 1e-12
    code = builtin_code("trivial(32)")
    m_ops, _ = _logical(code, build_channel(ChannelSpec("decoherence", {"gamma": 0.3, "qubits": 5})))
    _, oracle = line_search_pure_minimum(m_ops, np.zeros((code.k, code.k)))
    assert report["value"] <= oracle + 1e-12


def test_an_open_bracket_runs_every_restart(tmp_path, capsys):
    path = tmp_path / "k3.json"
    path.write_text(dumps_canonical(code_to_json(random_code(8, 3, seed=5, shape=(2, 2, 2)))))
    trace = _fidelity_trace(capsys, str(path), "decoherence:gamma=0.3,qubits=3")["optimizer_trace"]
    assert trace["restarts"] == fidelity._RESTARTS == 32 and trace["certificate"] == "open"
