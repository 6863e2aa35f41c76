import contextlib
import json
import math
import mmap
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

from qeckit import ChannelSpec, build_channel, builtin_code, fidelity, random_code, synthesize_recovery
from qeckit.channels import CHANNEL_KINDS
from qeckit import cli, memory, serialize
from qeckit.cli import main
from qeckit.memory import identity_recovery
from qeckit.serialize import channel_spec_to_json, code_to_json, dumps_canonical, recovery_to_json
from test_fast_decode import BASE, MUTATIONS


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


def test_bounds_beyond_the_float_range_are_an_input_error(capsys):
    # C(r, j) first overflows a float at r = 1030 for e = 1, p = 0.1
    assert main(["bounds", "--r", "2000", "--e", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: binomial tail bound overflows a float at r=2000\n"
    assert main(["bounds", "--r", "1030", "--e", "1"]) == 2
    capsys.readouterr()
    assert main(["bounds", "--r", "1029", "--e", "1"]) == 0
    head = sum(math.comb(1029, j) * 0.1**j * 0.9 ** (1029 - j) for j in range(2))
    assert json.loads(capsys.readouterr().out)["result"]["binomial_fidelity_bound"] == head


def test_memory_bound_column_needs_an_all_qubit_shape(files, capsys, monkeypatch, tmp_path):
    shapeless = tmp_path / "phase3_shapeless.json"
    shapeless.write_text(dumps_canonical({**json.loads((files["dir"] / "phase3.json").read_text()), "shape": None}))
    channel = tmp_path / "qutrit_identity.json"
    channel.write_text(dumps_canonical(channel_spec_to_json(ChannelSpec("explicit", {}, (np.eye(3),)))))
    recovery = tmp_path / "qutrit_recovery.json"
    recovery.write_text(dumps_canonical(recovery_to_json(identity_recovery(3))))
    runs = [
        ["memory", str(shapeless), "uniform_phase_flip:p=0.05,qubits=3", "--cycles", "2"],
        ["memory", "trivial:3", str(channel), "--recovery", str(recovery), "--cycles", "2"],
    ]
    for argv in runs:  # without --p both run, with no bound column
        assert main(argv) == 0
        assert capsys.readouterr().out.split("\n")[1].endswith(",")

    def no_cycles(*args, **kwargs):
        raise AssertionError("a memory cycle ran")

    monkeypatch.setattr(cli, "run_memory", no_cycles)
    monkeypatch.setattr(cli, "synthesize_recovery", no_cycles)
    for argv in runs:
        assert main(argv + ["--p", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: memory --p requires a code with an all-qubit register shape, got shape None\n"


@pytest.mark.parametrize("flags, message", [
    (["--e", "5"], "need 0 <= e <= r, got e=5, r=3"),
    (["--p", "1.5"], "p must be in [0, 1], got 1.5"),
])
def test_memory_refuses_a_bad_bound_before_any_channel_or_cycle(flags, message, capsys, monkeypatch):
    def no_cycles(*args, **kwargs):
        raise AssertionError("a channel was read, a recovery synthesized or a cycle ran")

    for name in ("_resolve_channel", "synthesize_recovery", "run_memory"):
        monkeypatch.setattr(cli, name, no_cycles)
    argv = ["memory", "phase3", "uniform_phase_flip:p=0.05,qubits=3", "--cycles", "3", "--p", "0.05", *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["uniform_phase_flip:p=0.05,qubits=3", "--gamma", "0.3"],
     "memory --gamma is the dephasing rate of --compare and is refused without it"),
    (["--compare", "--gamma", "0.05", "--e", "3"], "memory --compare runs a fixed pipeline and takes no --e"),
    (["--compare", "--gamma", "0.05", "--e", "1"], "memory --compare runs a fixed pipeline and takes no --e"),
    (["uniform_phase_flip:p=0.05,qubits=3", "--e", "2"], "memory --e sets the bound column and is refused without --p"),
    (["uniform_phase_flip:p=0.05,qubits=3", "--e", "0"], "memory --e sets the bound column and is refused without --p"),
    (["--compare"], "--compare requires --gamma"),
    ([], "memory requires a channel (or --compare)"),
])
def test_memory_refuses_a_flag_it_would_ignore_before_any_input_is_read(flags, message, capsys, monkeypatch):
    def no_input(*args, **kwargs):
        raise AssertionError("an input was read, a recovery synthesized or a cycle ran")

    for name in ("_resolve_code", "_resolve_channel", "_read_file", "synthesize_recovery", "run_memory", "compare_coded_uncoded"):
        monkeypatch.setattr(cli, name, no_input)
    assert main(["memory", "phase3", *flags, "--cycles", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("flags", [["uniform_phase_flip:p=0.05,qubits=3"], ["--compare", "--gamma", "0.05"]])
def test_memory_takes_no_format(flags, fmt, capsys):
    # memory always writes CSV, so --format is an unknown flag to it, refused by argparse
    with pytest.raises(SystemExit) as exc:
        main(["memory", "phase3", *flags, "--format", fmt, "--cycles", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format" in captured.err


def test_memory_bound_column_defaults_to_one_error(capsys):
    argv = ["memory", "phase3", "uniform_phase_flip:p=0.05,qubits=3", "--cycles", "3", "--p", "0.05"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--e", "1"]) == 0
    assert capsys.readouterr().out == default
    assert main([*argv, "--e", "0"]) == 0
    assert capsys.readouterr().out != default


@pytest.mark.parametrize("argv", [
    ["memory", "phase3", "decoherence_pm_basis:gamma=0.1,qubits=3", "--cycles", "-1"],
    ["memory", "phase3", "decoherence_pm_basis:gamma=0.1,qubits=3", "--recovery", "MISSING", "--cycles", "10001"],
    ["memory", "phase3", "--gamma", "0.05", "--compare", "--cycles", "10001"],
])
def test_memory_refuses_a_bad_cycle_count_before_any_input_is_read(argv, capsys, monkeypatch, tmp_path):
    def no_input(*args, **kwargs):
        raise AssertionError("an input was read, a recovery synthesized or a cycle ran")

    for name in ("_resolve_code", "_resolve_channel", "_read_file", "synthesize_recovery", "run_memory", "compare_coded_uncoded"):
        monkeypatch.setattr(cli, name, no_input)
    argv = [str(tmp_path / "missing.json") if arg == "MISSING" else arg for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --cycles must be in 0..10000, got {argv[argv.index('--cycles') + 1]}\n"


@pytest.mark.parametrize("argv, message", [
    (["memory", "phase3", "decoherence:gamma=0.3", "--compare"], "memory --compare runs a fixed pipeline and takes no channel"),
    (["memory", "phase3", "--compare", "--recovery", "MISSING"], "memory --compare runs a fixed pipeline and takes no --recovery"),
    (["memory", "phase3", "--compare", "--p", "0.3"], "memory --compare runs a fixed pipeline and takes no --p"),
])
def test_memory_compare_refuses_what_its_fixed_pipeline_would_ignore(argv, message, capsys, monkeypatch, tmp_path):
    def no_input(*args, **kwargs):
        raise AssertionError("an input was read or a comparison ran")

    for name in ("_resolve_code", "_resolve_channel", "_read_file", "compare_coded_uncoded"):
        monkeypatch.setattr(cli, name, no_input)
    argv = [str(tmp_path / "missing.json") if arg == "MISSING" else arg for arg in argv]
    assert main([*argv, "--gamma", "0.05", "--cycles", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_info_of_a_lifted_family_keeps_its_peak_small():
    # the stack goes to the writer as one array; lists of its 154 x 64 x 64 pairs traced 100 MiB
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["info", "pauli_unitary_basis:qubits=6,max_errors=2"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize("bound_params, message", [
    ((3, 5, 0.05), "need 0 <= e <= r, got e=5, r=3"),
    ((3, 1, 1.5), "p must be in [0, 1], got 1.5"),
])
def test_bound_trajectory_refuses_a_bad_bound(bound_params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        memory.bound_trajectory(*bound_params, 3)


def test_info_code_and_channel(capsys):
    assert main(["info", "pair"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["type"] == "code" and report["result"]["n"] == 4
    assert main(["info", "overlap_example:q=0.25"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["type"] == "channel"
    assert report["result"]["completeness_residual"] < 1e-12


def test_info_reads_a_code_file_as_a_code(files, capsys):
    assert main(["info", files["code"]]) == 0
    from_file = json.loads(capsys.readouterr().out)["result"]
    assert main(["info", "phase3"]) == 0
    assert from_file == json.loads(capsys.readouterr().out)["result"]


@pytest.mark.parametrize("name, message", [
    ("trivial(0)", "trivial code dimension must be >= 1, got 0"),
    ("phase4", "unknown code name 'phase4'; known: phase3, phase5, phase7, pair, trivial(d)"),
    ("trivial(x)", "trivial code dimension must be an integer, got 'x'"),
])
def test_a_bad_code_name_reports_its_own_error_in_info_and_check(capsys, name, message):
    for argv in (["info", name], ["check", name, "decoherence:gamma=0.1"]):
        assert main(argv) == 2
        # info cannot tell a name of neither catalogue for a code, so it lists both
        expected = unknown_in_info(name) if argv[0] == "info" and name == "phase4" else message
        assert capsys.readouterr().err == f"error: {expected}\n"


def unknown_in_info(name):
    return (
        f"unknown code or channel name {name!r}; known codes: phase3, phase5, phase7, pair, trivial(d); "
        f"known channel kinds: {', '.join(CHANNEL_KINDS)}"
    )


@pytest.mark.parametrize("name", ["nonsense", "decoherance:gamma=0.1", "phase4"])
def test_info_lists_both_catalogues_for_a_name_of_neither(capsys, name):
    assert main(["info", name]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {unknown_in_info(name)}\n"
    assert "decoherence_pm_basis" in err and "trivial(d)" in err


def test_check_and_synthesize_keep_naming_the_slot(capsys):
    assert main(["check", "nonsense", "decoherence:gamma=0.1"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown code name 'nonsense'; known: phase3,")
    assert main(["synthesize", "phase3", "decoherance:gamma=0.1"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown channel kind 'decoherance'; known:")


@pytest.mark.parametrize("argv", [
    ["check", "phase3", "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1"],
    ["synthesize", "phase3", "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1"],
    ["memory", "pair", "overlap_example:q=0.25", "--cycles", "2"],
    ["memory", "phase3", "--compare", "--gamma", "0.05", "--cycles", "2"],
])
def test_an_unwritable_out_path_is_an_input_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {out}: [Errno 2] ") and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


def _never(*args, **kwargs):
    raise AssertionError("work ran although the arguments were refused")


@pytest.mark.parametrize("out_name", ["missing/r.json", "."])
def test_an_unwritable_out_path_is_refused_before_any_work(out_name, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "synthesize_recovery", _never)
    out = tmp_path / out_name
    argv = ["synthesize", "phase7", "decoherence_pm_basis:gamma=0.1,qubits=7,max_errors=3", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {out}: [Errno ") and captured.out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [
    ["check", "phase3", "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1"],
    ["synthesize", "phase3", "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1"],
    ["fidelity", "phase3", "decoherence:gamma=0.1,qubits=3"],
    ["memory", "phase3", "--compare", "--gamma", "0.05", "--cycles", "2"],
    ["bounds"],
    ["info", "phase3"],
])
def test_a_negative_seed_is_refused_before_any_input_is_read(argv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_resolve_code", _never)
    assert main([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be a non-negative integer, got -1\n" and captured.out == ""


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


def _psi_code(tmp_path) -> str:
    path = tmp_path / "psi.json"
    path.write_text(dumps_canonical({**code_to_json(builtin_code("phase3")), "label": "ψ"}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["check", "phase3", "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1"],
    ["check", "phase3", "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1", "--format", "text"],
    ["fidelity", "phase3", "decoherence:gamma=0.1,qubits=3", "--entangled"],
    ["bounds", "--r", "7", "--e", "2"],
    ["info", "pauli_unitary_basis:qubits=3,max_errors=1"],
    ["info", "PSI"],
    ["info", "PSI", "--format", "text"],
    ["memory", "pair", "overlap_example:q=0.25", "--cycles", "3"],
    ["memory", "phase3", "--compare", "--gamma", "0.05", "--cycles", "3"],
])
def test_an_out_file_holds_the_bytes_printed_to_stdout(argv, tmp_path, capsys):
    psi = "PSI" in argv
    argv = [_psi_code(tmp_path) if arg == "PSI" else arg for arg in argv]
    code = main(argv)
    printed = capsys.readouterr().out
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")
    if psi and "text" in argv:
        assert "label: ψ\n" in printed  # not ASCII: the file is UTF-8


def test_a_synthesized_recovery_file_is_its_canonical_text(tmp_path, capsys):
    # every row distinct: the golden digests pin only the phase codes' files, whose rows repeat
    code = random_code(8, 3, seed=5, shape=(2, 2, 2))
    code_path, out = tmp_path / "code.json", tmp_path / "rec.json"
    code_path.write_text(dumps_canonical(code_to_json(code)))
    channel = "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=0"
    assert main(["synthesize", str(code_path), channel, "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    rec = synthesize_recovery(code, build_channel(cli._parse_channel_shorthand(channel)), seed=3)
    assert out.read_bytes() == dumps_canonical(recovery_to_json(rec)).encode("utf-8")


def test_an_out_text_that_utf8_cannot_encode_creates_no_file(tmp_path, capsys, monkeypatch):
    # an undecodable file name reaches argv as a lone surrogate, which the text report echoes
    monkeypatch.chdir(tmp_path)
    code = os.fsdecode(b"code\xff.json")
    (tmp_path / code).write_text(dumps_canonical(code_to_json(builtin_code("phase3"))))
    argv = ["check", code, "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1", "--format", "text", "--out", "r.txt"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: r.txt: 'utf-8' codec can't encode") and captured.err.count("\n") == 1
    assert not (tmp_path / "r.txt").exists()


def test_writing_a_recovery_file_peaks_below_its_size(tmp_path, capsys):
    # phase7's file is 45 MB; the whole text and its whole encoding traced 103 MiB
    out = tmp_path / "rec7.json"
    argv = ["synthesize", "phase7", "decoherence_pm_basis:gamma=0.1,qubits=7,max_errors=3", "--out", str(out)]
    assert main(argv) == 0  # warm-up: first-call allocations are not the writer's
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < out.stat().st_size


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


@pytest.mark.parametrize("channel, message", [
    ("pauli_unitary_basis:qubits=inf", "qubits must be a positive integer, got inf"),
    ("pauli_unitary_basis:qubits=3,max_errors=inf", "max_errors must be an integer in 0..qubits, got inf"),
    ("decoherence:gamma=nan", "parameter gamma must be a number, got nan"),
    ("decoherence:gamma", "bad channel parameter 'gamma'; expected key=value"),
    ("decoherence:gamma=abc", "channel parameter 'gamma' must be numeric, got 'abc'"),
])
def test_non_finite_channel_parameters_exit_2_naming_the_parameter(capsys, channel, message):
    assert main(["info", channel]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gamma_inf_is_full_dephasing(capsys):
    assert main(["info", "decoherence:gamma=inf"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["completeness_residual"] == 0.0


def test_a_code_above_the_cap_is_refused(capsys):
    assert main(["info", "trivial(512)"]) == 2
    assert capsys.readouterr().err == "error: dimension 512 exceeds the cap 256\n"


def test_a_code_file_above_the_cap_is_refused_before_decoding(tmp_path, capsys):
    path = tmp_path / "code512.json"
    path.write_text('{"n": 512, "k": 1, "basis": [null]}')  # the basis would not decode
    assert main(["check", str(path), "decoherence:gamma=0.1"]) == 2
    assert capsys.readouterr().err == f"error: {path}: dimension 512 exceeds the cap 256\n"


def test_entangled_fidelity_of_a_k3_code_ignores_seed(tmp_path, capsys):
    path = tmp_path / "k3.json"
    path.write_text(dumps_canonical(code_to_json(random_code(8, 3, seed=5, shape=(2, 2, 2)))))
    results = []
    for seed in ("0", "7"):
        assert main(["fidelity", str(path), "decoherence:gamma=0.3,qubits=3", "--entangled", "--seed", seed]) == 0
        results.append(json.loads(capsys.readouterr().out)["result"])
    assert results[0]["min_fidelity"]["method"] == "random_restart"
    assert results[0] == results[1]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_fidelity_command_runs_each_solver_once(k, tmp_path, capsys, monkeypatch):
    path = tmp_path / f"k{k}.json"
    path.write_text(dumps_canonical(code_to_json(random_code(8, k, seed=5, shape=(2, 2, 2)))))
    calls = []
    monkeypatch.setattr(fidelity, "_minima", lambda *args, _s=fidelity._minima: calls.append(1) or _s(*args))
    for extra in ([], ["--entangled"]):
        calls.clear()
        assert main(["fidelity", str(path), "amplitude_damping:p=0.2,qubits=3", *extra]) == 0
        assert len(calls) == 1  # one solve returns both the pure and the mixed minimum
    capsys.readouterr()


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


def _tilted_phase3(tmp_path):
    """phase3 with its second codeword turned 1e-8 rad toward the first: an overlap of 1e-8."""
    doc = code_to_json(builtin_code("phase3"))
    zero, one = doc["basis"]
    tilted = math.cos(1e-8) * one + math.sin(1e-8) * zero
    doc["basis"] = np.stack([zero, tilted])
    path = tmp_path / "tilted.json"
    path.write_text(dumps_canonical(doc))
    return str(path)


@pytest.mark.parametrize("command", ["check", "synthesize", "fidelity"])
def test_tol_reaches_code_file_orthonormality(command, tmp_path, capsys, monkeypatch):
    argv = [command, _tilted_phase3(tmp_path), "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1"]
    assert main(argv) == 2
    assert "code basis is not orthonormal (violation 1.000e-08)" in capsys.readouterr().err
    assert main(argv + ["--tol", "1e-6"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-6
    monkeypatch.setenv("QEC_TOL", "1e-6")
    assert main(argv) == 0


def _identity_recovery_text(dim_field):
    zero, identity = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    return dumps_canonical({
        "dim": dim_field, "label": "x", "operators": [zero, identity],
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


def test_a_truncatable_integer_field_exits_2_naming_the_file(tmp_path, capsys):
    code = tmp_path / "code.json"
    code.write_text(dumps_canonical({**code_to_json(builtin_code("phase3")), "k": 2.9}))
    assert main(["info", str(code)]) == 2
    assert capsys.readouterr().err == f"error: {code}: code JSON field 'k' must be an integer, got 2.9\n"
    rec = tmp_path / "rec.json"
    rec.write_text(dumps_canonical({**recovery_to_json(identity_recovery(2)), "syndrome_dim": 1.0}))
    assert main(["fidelity", "trivial:2", "decoherence:gamma=0.1", "--recovery", str(rec)]) == 2
    assert capsys.readouterr().err == f"error: {rec}: recovery JSON field 'syndrome_dim' must be an integer, got 1.0\n"


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


def _read_as(role: str, path) -> list[str]:
    """A command that reads the file at ``path`` as a code, a recovery, a channel or (``info``) whichever it holds."""
    return {
        "code": ["check", str(path), "decoherence:gamma=0.1"],
        "recovery": ["fidelity", "trivial:2", "decoherence:gamma=0.1", "--recovery", str(path)],
        "channel": ["fidelity", "trivial:2", str(path)],
        "info": ["info", str(path)],
    }[role]


@pytest.mark.parametrize("role", ["code", "recovery", "channel"])
def test_a_file_over_the_size_cap_is_refused_naming_the_file(tmp_path, capsys, role):
    # a canonical top-level operators block 512 wide, refused by the decoder whatever the file is read as
    row = "[" + ",".join(["[0.0,0.0]"] * 512) + "]"
    wide = tmp_path / "wide_rec.json"
    wide.write_text(
        '{"complement_dim":0,"dim":512,"label":"","operators":[[' + ",".join([row] * 512) + "]],"
        '"syndrome_coefficients":[],"syndrome_dim":1}\n'
    )
    assert main(_read_as(role, wide)) == 2
    assert capsys.readouterr().err == f"error: {wide}: dimension 512 exceeds the cap 256\n"


BASE_BYTES = BASE.encode()
# Each file's refusal, as a strict UTF-8 text-mode read (CR LF and a lone CR read as LF) gives it.
REFUSED_FILES = {
    "byte-order mark": (b"\xef\xbb\xbf" + BASE_BYTES, "invalid JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "invalid start byte": (b'{"n":\xff}', "'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"),
    "lone CRs": (b'{\r"n":\r2,\r"k":\r}', "invalid JSON at line 5, column 1: Expecting value"),
    "CR LFs": (b'{\r\n"n":\r\n}', "invalid JSON at line 3, column 1: Expecting value"),
    "UTF-16": (BASE.encode("utf-16"), "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "invalid byte inside the block": (BASE_BYTES.replace(b"0.0]", b"0.\xff]", 1), "'utf-8' codec can't decode byte 0xff in position 77: invalid start byte"),
    "invalid byte after the block": (BASE_BYTES.replace(b'"syndrome_coefficients"', b'"syndrome_coefficients\xe9"'),
                                     "'utf-8' codec can't decode byte 0xe9 in position 229: invalid continuation byte"),
    "truncated character at the end": (BASE_BYTES.rstrip(b"\n") + b"\xe2\x82", "'utf-8' codec can't decode bytes in position 251-252: unexpected end of data"),
    "encoded surrogate in a label": (BASE_BYTES.replace(b'"label":"x"', b'"label":"\xed\xa0\x80"'),
                                     "'utf-8' codec can't decode byte 0xed in position 37: invalid continuation byte"),
    "CR in a label": (BASE_BYTES.replace(b'"label":"x"', b'"label":"x\ry"'), "invalid JSON at line 1, column 39: Invalid control character at"),
}
READ_FILES = {
    "CR LF whitespace": BASE_BYTES.replace(b",", b",\r\n"),
    "CR whitespace": BASE_BYTES.replace(b",", b",\r"),
    "CR LF line end": BASE_BYTES.replace(b"\n", b"\r\n"),
    "non-ASCII label": BASE_BYTES.replace(b'"label":"x"', '"label":"φ"'.encode()),
}


@pytest.mark.parametrize("name", REFUSED_FILES)
@pytest.mark.parametrize("role", ["code", "recovery", "channel"])
def test_file_bytes_are_refused_as_a_text_mode_read_refuses_them(name, role, tmp_path, capsys):
    data, message = REFUSED_FILES[name]
    path = tmp_path / "file.json"
    path.write_bytes(data)
    assert main(_read_as(role, path)) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("name", READ_FILES)
def test_file_bytes_read_as_a_text_mode_read_reads_them(name, tmp_path, capsys):
    path = tmp_path / "rec.json"
    runs = []
    for data in (BASE_BYTES, READ_FILES[name]):
        path.write_bytes(data)
        rc = main(["fidelity", "trivial:2", "decoherence:gamma=0.1", "--recovery", str(path)])
        runs.append((rc, capsys.readouterr()))
    assert runs[0][0] == 0 and runs[1] == runs[0]


@pytest.mark.parametrize("role", ["code", "recovery", "channel", "info"])
def test_a_deeply_nested_file_is_an_input_error_naming_it(role, tmp_path, capsys):
    # deeper than the stdlib parser recurses on any interpreter: it raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(_read_as(role, path)) == 2
    assert capsys.readouterr() == ("", f"error: {path}: JSON nested too deeply to read\n")


@pytest.mark.parametrize("role", ["code", "recovery", "channel"])
def test_an_empty_file_which_cannot_be_mapped_is_invalid_json(role, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_bytes(b"")
    assert main(_read_as(role, path)) == 2
    assert capsys.readouterr() == ("", f"error: {path}: invalid JSON at line 1, column 1: Expecting value\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("role", ["code", "recovery", "channel"])
def test_a_fifo_which_cannot_be_mapped_reads_as_a_file_of_its_bytes(role, tmp_path, capsys):
    data = dumps_canonical(code_to_json(builtin_code("trivial:2"))).encode() if role == "code" else BASE_BYTES
    path = tmp_path / "input.json"  # one path for both, as the report names it
    path.write_bytes(data)
    regular = (main(_read_as(role, path)), capsys.readouterr())
    path.unlink()
    os.mkfifo(path)

    def feed():
        with open(path, "wb") as fh:  # blocks until the command opens the pipe
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    piped = (main(_read_as(role, path)), capsys.readouterr())
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert piped == regular
    assert regular[0] == (1 if role == "code" else 0)  # a check of the trivial code against decoherence fails


def _loads_outcome(buffer):
    """What ``serialize.loads`` gives: canonical text and the operators' type, or the type and message it raises."""
    try:
        data = serialize.loads(buffer)
    except Exception as exc:
        return type(exc), str(exc)
    return dumps_canonical(data), type(data.get("operators")) if isinstance(data, dict) else None


BODIES = {
    "canonical": BASE_BYTES,
    **{name: data for name, (data, _) in REFUSED_FILES.items()},
    **READ_FILES,
    **{f"mutation: {name}": text.encode() for name, text in MUTATIONS},
}


@pytest.mark.parametrize("name", BODIES)
def test_loads_of_a_mapped_file_is_loads_of_its_bytes(name, tmp_path):
    path = tmp_path / "file.json"
    path.write_bytes(BODIES[name])
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as buffer:
        assert _loads_outcome(buffer) == _loads_outcome(BODIES[name])


def test_reading_a_recovery_file_maps_it_instead_of_copying_it(tmp_path, capsys):
    # phase7's file is 45 MB and its decoded stack 17 MB; a copy of the file alone would exceed the bound
    path = tmp_path / "rec7.json"
    assert main(["synthesize", "phase7", "decoherence_pm_basis:gamma=0.1,qubits=7,max_errors=3", "--out", str(path)]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        rec = cli._read_file(str(path), serialize.recovery_from_json)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.ensemble.stack.shape == (65, 128, 128)
    assert peak < path.stat().st_size / 2


@pytest.mark.parametrize("edit", [{"syndrome_dim": -3}, {"complement_dim": 999}, {"syndrome_coefficients": [[[1.0, 0.0]]]}])
def test_inconsistent_recovery_metadata_exits_2_naming_the_file(edit, tmp_path, capsys):
    channel = "decoherence_pm_basis:gamma=0.1,qubits=5,max_errors=2"
    rec = tmp_path / "rec.json"
    assert main(["synthesize", "phase5", channel, "--out", str(rec), "--seed", "5"]) == 0
    capsys.readouterr()
    argv = ["fidelity", "phase5", channel, "--recovery", str(rec)]
    assert main(argv) == 0
    capsys.readouterr()
    rec.write_text(dumps_canonical({**json.loads(rec.read_text()), **edit}))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {rec}: recovery JSON ")


@pytest.mark.parametrize("out", [False, True])
def test_memory_reports_a_failed_synthesis_once(out, tmp_path, capsys):
    # the pair the golden synthesize refusal uses: phase3 does not correct full-rate decoherence
    target = tmp_path / "trajectory.csv"
    argv = ["memory", "phase3", "decoherence:gamma=0.3,qubits=3", "--cycles", "2"]
    assert main([*argv, "--out", str(target)] if out else argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not target.exists()


def test_fidelity_refuses_a_recovery_of_another_dimension(tmp_path, capsys):
    rec = tmp_path / "phase5_rec.json"
    assert main(["synthesize", "phase5", "decoherence_pm_basis:gamma=0.1,qubits=5,max_errors=2", "--out", str(rec)]) == 0
    capsys.readouterr()
    assert main(["fidelity", "phase3", "decoherence_pm_basis:gamma=0.1,qubits=3", "--recovery", str(rec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "dimension" in captured.err


def test_a_directory_as_the_code_is_an_input_error_naming_it(tmp_path, capsys):
    assert main(["check", str(tmp_path), "decoherence:gamma=0.1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1
