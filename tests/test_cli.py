import json
import math
import time

import numpy as np
import pytest

from qeckit import ChannelSpec, build_channel, builtin_code
from qeckit.cli import main
from qeckit.serialize import channel_spec_to_json, code_to_json, dumps_canonical


@pytest.fixture()
def files(tmp_path):
    code_path = tmp_path / "phase3.json"
    code_path.write_text(dumps_canonical(code_to_json(builtin_code("phase3"))))
    good = tmp_path / "phase_errors.json"
    good.write_text(
        dumps_canonical(
            channel_spec_to_json(
                ChannelSpec("decoherence_pm_basis", {"gamma": 0.1, "qubits": 3, "max_errors": 1})
            )
        )
    )
    bad = tmp_path / "bitflips.json"
    flips = {
        "kind": "explicit",
        "params": {"qubits": 3, "max_errors": 1},
        "operators": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        ],
    }
    bad.write_text(json.dumps(flips))
    return {"code": str(code_path), "good": str(good), "bad": str(bad), "dir": tmp_path}


def test_check_passing(files, capsys):
    assert main(["check", files["code"], files["good"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["passed"] is True
    assert report["tool"] == "qeckit" and "version" in report and "seed" in report


def test_check_failing_prints_witness(files, capsys):
    assert main(["check", files["code"], files["bad"]]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["passed"] is False
    assert report["result"]["witness"] is not None


def test_check_malformed_json_is_input_error(files, capsys):
    broken = files["dir"] / "broken.json"
    broken.write_text("{not json")
    assert main(["check", files["code"], str(broken)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_check_unknown_builtin_is_input_error(capsys):
    assert main(["check", "nosuchcode", "decoherence:gamma=0.1"]) == 2


def test_builtin_shorthand_channels(capsys):
    # shorthand names resolve: a real report comes back (the trivial code
    # does not correct decoherence, so the verdict is a clean failure)
    assert main(["check", "trivial:2", "decoherence:gamma=0.1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["passed"] is False
    assert main(["check", "trivial:2", "explicit"]) == 2  # bad shorthand


def test_synthesize_writes_recovery_file(files, capsys):
    out = str(files["dir"] / "recovery.json")
    assert main(["synthesize", files["code"], files["good"], "--out", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["syndrome_dim"] == 4
    assert report["result"]["complement_dim"] == 0
    assert report["result"]["verification"]["passed"] is True
    with open(out) as fh:
        recovery = json.load(fh)
    assert recovery["syndrome_dim"] == 4
    assert len(recovery["operators"]) == 5


def test_synthesize_failure_exit_code(files, capsys):
    assert main(["synthesize", files["code"], files["bad"]]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["passed"] is False


def test_fidelity_decoherence_value(files, capsys):
    assert main(["fidelity", "trivial:2", "decoherence:gamma=0.1"]) == 0
    report = json.loads(capsys.readouterr().out)
    value = report["result"]["min_fidelity"]["value"]
    assert abs(value - (1 + math.exp(-0.1)) / 2) < 1e-6


def test_fidelity_entangled_depolarizing(files, capsys):
    assert main(["fidelity", "trivial:2", "depolarizing_third", "--entangled"]) == 0
    report = json.loads(capsys.readouterr().out)
    ent = report["result"]["entangled"]
    assert abs(ent["max_entangled_value"]) < 1e-9
    assert ent["bound_check"]["satisfied"] is True
    assert ent["tight"] is True


def test_fidelity_with_recovery_composition(files, capsys, tmp_path):
    recovery_path = str(tmp_path / "rec.json")
    main(["synthesize", files["code"], files["good"], "--out", recovery_path])
    capsys.readouterr()
    full = str(tmp_path / "full.json")
    with open(full, "w") as fh:
        fh.write(dumps_canonical(channel_spec_to_json(
            ChannelSpec("decoherence_pm_basis", {"gamma": 0.1, "qubits": 3})
        )))
    assert main(["fidelity", files["code"], full, "--recovery", recovery_path]) == 0
    report = json.loads(capsys.readouterr().out)
    g = math.exp(-0.1)
    p_minus, p_plus = (1 - g) / 2, (1 + g) / 2
    expected = 1 - (3 * p_minus**2 * p_plus + p_minus**3)
    assert abs(report["result"]["min_fidelity"]["value"] - expected) < 1e-8


def test_memory_compare_csv(files, capsys):
    assert main(["memory", files["code"], "--gamma", "0.05", "--cycles", "5", "--compare"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "cycle,coded_fidelity,uncoded_fidelity,bound"
    assert len(lines) == 7


def test_memory_trajectory_csv(files, capsys, tmp_path):
    flip = str(tmp_path / "flip.json")
    with open(flip, "w") as fh:
        fh.write(dumps_canonical(channel_spec_to_json(
            ChannelSpec("uniform_phase_flip", {"p": 0.1, "qubits": 3})
        )))
    assert main(["memory", files["code"], flip, "--cycles", "0"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "cycle,fidelity,bound"
    assert len(lines) == 2  # header plus cycle 0


def test_memory_capacity_error(files, capsys):
    assert main(["memory", "trivial:2", "decoherence_pm_basis:gamma=0.1,qubits=9", "--cycles", "1"]) == 2


def test_bounds_command(capsys):
    assert main(["bounds", "--r", "4", "--e", "1", "--k", "2", "--p", "0.1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["qubit_lower_bound"] == 5
    assert report["result"]["naive_counting"] == {"satisfied": False, "lhs": 26, "rhs": 16}
    tail = sum(
        math.comb(4, j) * 0.1**j * 0.9 ** (4 - j) for j in range(2, 5)
    )
    assert abs(report["result"]["binomial_fidelity_bound"] - (1 - tail)) < 1e-12


def test_info_code_and_channel(capsys):
    assert main(["info", "pair"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["type"] == "code" and report["result"]["n"] == 4
    assert main(["info", "overlap_example:q=0.25"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["type"] == "channel"
    assert report["result"]["completeness_residual"] < 1e-12


def test_reports_are_byte_identical(files, capsys):
    main(["check", files["code"], files["good"], "--seed", "7"])
    first = capsys.readouterr().out
    main(["check", files["code"], files["good"], "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_text_format(files, capsys):
    assert main(["check", files["code"], files["good"], "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "passed: True" in out


def test_tol_env_and_flag(files, capsys, monkeypatch):
    monkeypatch.setenv("QEC_TOL", "3.0")
    assert main(["check", files["code"], files["bad"]]) == 0  # huge tolerance passes everything
    capsys.readouterr()
    assert main(["check", files["code"], files["bad"], "--tol", "1e-9"]) == 1  # flag wins
    monkeypatch.setenv("QEC_TOL", "not-a-number")
    assert main(["check", files["code"], files["good"]]) == 2


def test_out_file_writing(files, tmp_path, capsys):
    target = str(tmp_path / "report.json")
    assert main(["check", files["code"], files["good"], "--out", target]) == 0
    with open(target) as fh:
        report = json.load(fh)
    assert report["result"]["passed"] is True


@pytest.mark.parametrize("flag", ["nan", "inf"])
def test_non_finite_tol_flag_is_input_error(files, capsys, flag):
    assert main(["check", files["code"], files["good"], "--tol", flag]) == 2
    assert "finite" in capsys.readouterr().err
    # inf would otherwise pass a family the code does not correct
    assert main(["check", "phase3", "pauli_unitary_basis:qubits=3,max_errors=1", "--tol", flag]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tol_env_is_input_error(files, capsys, monkeypatch, value):
    monkeypatch.setenv("QEC_TOL", value)
    assert main(["check", files["code"], files["good"]]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("channel", [
    "decoherence:gamma=0.1,qbits=3",
    "overlap_example:q=0.25,max_errors=1",
    "uniform_phase_flip:p=0.1,qubits=3,max_errors=1",
])
def test_info_rejects_parameters_the_kind_does_not_read(capsys, channel):
    assert main(["info", channel]) == 2
    assert "does not read" in capsys.readouterr().err


def test_info_refuses_a_64_gib_family_before_allocating(capsys):
    start = time.perf_counter()
    assert main(["info", "pauli_unitary_basis:qubits=8"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "64 GiB" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["[1, null]", "[1, \"x\"]", "[0]", "null"])
def test_malformed_recovery_file_exits_2(entry, tmp_path, capsys):
    rec = tmp_path / "rec.json"
    rec.write_text(
        '{"dim": 2, "label": "x", "operators": [[[[1, 0], [0, 0]], [[0, 0], ' + entry + ']]],'
        ' "syndrome_dim": 1, "complement_dim": 0, "syndrome_coefficients": []}'
    )
    for command in ("memory", "fidelity"):
        assert main([command, "trivial:2", "decoherence:gamma=0.1", "--recovery", str(rec)]) == 2
        assert "rec.json" in capsys.readouterr().err


def test_tol_reaches_the_memory_refusals(tmp_path, capsys, monkeypatch):
    # one operator (1 + 5e-9) I: completeness residual 1e-8, between the default and 1e-7
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps({"kind": "explicit", "operators": [[[[1 + 5e-9, 0], [0, 0]], [[0, 0], [1 + 5e-9, 0]]]]}))
    argv = ["memory", "trivial:2", str(loose), "--cycles", "1"]
    assert main(argv) == 2
    assert "trace-preserving" in capsys.readouterr().err
    assert main(argv + ["--tol", "1e-7"]) == 0
    assert capsys.readouterr().out.startswith("cycle,fidelity,bound\n0,1,")
    monkeypatch.setenv("QEC_TOL", "1e-7")
    assert main(argv) == 0


def _identity_recovery_text(dim_field):
    return dumps_canonical({
        "dim": dim_field, "label": "x", "operators": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
        "syndrome_dim": 1, "complement_dim": 0, "syndrome_coefficients": [],
    })


def test_declared_dim_mismatch_exits_2_naming_the_file(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    rec.write_text(_identity_recovery_text(7))
    channel = tmp_path / "channel.json"
    channel.write_text(dumps_canonical({"dim": 7, "label": "", "operators": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}))
    for command in ("fidelity", "memory"):
        assert main([command, "trivial:2", "decoherence:gamma=0.1", "--recovery", str(rec)]) == 2
        err = capsys.readouterr().err
        assert "rec.json" in err and "dim 7" in err
        assert main([command, "trivial:2", str(channel)]) == 2
        err = capsys.readouterr().err
        assert "channel.json" in err and "dim 7" in err
    rec.write_text(_identity_recovery_text(2))
    assert main(["memory", "trivial:2", "decoherence:gamma=0.1", "--recovery", str(rec), "--cycles", "1"]) == 0


def test_recovery_wider_than_the_cap_is_refused_before_parsing(tmp_path, capsys):
    # one 512 x 512 operator: the refusal reads only its first row
    row = "[" + ",".join(["[0.0,0.0]"] * 512) + "]"
    rec = tmp_path / "wide.json"
    rec.write_text(
        '{"complement_dim":0,"dim":512,"label":"","operators":[[' + ",".join([row] * 512) + "]],"
        '"syndrome_coefficients":[],"syndrome_dim":1}\n'
    )
    for command in ("fidelity", "memory"):
        start = time.perf_counter()
        assert main([command, "trivial:2", "decoherence:gamma=0.1", "--recovery", str(rec)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "dimension 512 exceeds the cap 256" in capsys.readouterr().err
    # read as a channel, the refusal names the file, as the ensemble check always has
    assert main(["fidelity", "trivial:2", str(rec)]) == 2
    assert "wide.json: dimension 512 exceeds the cap 256" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["code", "recovery", "channel"])
def test_a_file_over_the_size_cap_is_refused_naming_the_file(tmp_path, capsys, role):
    # a canonical top-level operators block 512 wide, refused by the decoder whatever the file is read as
    row = "[" + ",".join(["[0.0,0.0]"] * 512) + "]"
    wide = tmp_path / "wide_rec.json"
    wide.write_text(
        '{"complement_dim":0,"dim":512,"label":"","operators":[[' + ",".join([row] * 512) + "]],"
        '"syndrome_coefficients":[],"syndrome_dim":1}\n'
    )
    argv = {
        "code": ["check", str(wide), "decoherence:gamma=0.1"],
        "recovery": ["fidelity", "trivial:2", "decoherence:gamma=0.1", "--recovery", str(wide)],
        "channel": ["fidelity", "trivial:2", str(wide)],
    }[role]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {wide}: dimension 512 exceeds the cap 256\n"
