import re

import numpy as np
import pytest

from qeckit import ChannelSpec, build_channel, builtin_code, entropy_test, repetition_phase_code, synthesize_recovery, tensor_power
from qeckit.catalog import phase_error_family
from qeckit.codes import reduced_dm_check
from qeckit.fidelity import entangled_bound_check
from qeckit.serialize import (
    array_to_json,
    bound_check_to_json,
    channel_spec_from_json,
    channel_spec_to_json,
    code_from_json,
    code_to_json,
    dumps_canonical,
    ensemble_from_json,
    ensemble_to_json,
    entropy_report_to_json,
    loads,
    matrix_from_json,
    recovery_from_json,
    recovery_to_json,
    reduced_dm_report_to_json,
)


def test_matrix_roundtrip_bit_exact():
    rng = np.random.default_rng(97)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    encoded = array_to_json(m)
    import json

    decoded = matrix_from_json(json.loads(json.dumps(encoded)))
    assert np.array_equal(m, decoded)  # exact, not approximate


def test_channel_spec_roundtrip():
    spec = ChannelSpec("decoherence_pm_basis", {"gamma": 0.1, "qubits": 3, "max_errors": 1})
    again = channel_spec_from_json(channel_spec_to_json(spec))
    assert again.kind == spec.kind and again.params == spec.params
    ch1, ch2 = build_channel(spec), build_channel(again)
    for a, b in zip(ch1, ch2):
        assert np.array_equal(a, b)


def test_explicit_channel_spec_roundtrip_bit_exact():
    rng = np.random.default_rng(101)
    ops = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
    spec = ChannelSpec("explicit", {}, explicit_operators=ops)
    again = channel_spec_from_json(channel_spec_to_json(spec))
    for a, b in zip(spec.explicit_operators, again.explicit_operators):
        assert np.array_equal(a, b)


def test_ensemble_roundtrip():
    ch = build_channel(ChannelSpec("overlap_example", {"q": 0.25}))
    again = ensemble_from_json(ensemble_to_json(ch))
    assert again.label == ch.label and len(again) == len(ch)
    for a, b in zip(ch, again):
        assert np.array_equal(a, b)


def test_code_roundtrip_and_validation():
    code = repetition_phase_code(3)
    data = code_to_json(code)
    again = code_from_json(data)
    assert again.n == 8 and again.k == 2 and again.shape == (2, 2, 2)
    assert np.allclose(again.matrix, code.matrix)

    # loader reports the orthonormality violation magnitude
    bad = dict(data)
    bad["basis"] = [data["basis"][0], data["basis"][0]]
    with pytest.raises(ValueError, match="violation"):
        code_from_json(bad)
    with pytest.raises(ValueError, match="'n'"):
        code_from_json({"k": 2, "basis": []})


def test_recovery_roundtrip():
    code = builtin_code("pair")
    ch = build_channel(ChannelSpec("overlap_example", {"q": 0.25}))
    rec = synthesize_recovery(code, ch)
    again = recovery_from_json(recovery_to_json(rec))
    assert again.syndrome_dim == rec.syndrome_dim
    assert again.complement_dim == rec.complement_dim
    for a, b in zip(rec.ensemble, again.ensemble):
        assert np.array_equal(a, b)
    assert np.array_equal(rec.syndrome_coefficients, again.syndrome_coefficients)


def test_canonical_dumps_is_deterministic():
    payload = {"b": 1.0, "a": [1, 2], "c": {"y": 2, "x": 1}}
    assert dumps_canonical(payload) == dumps_canonical(dict(reversed(payload.items())))


def test_channel_spec_requires_kind():
    with pytest.raises(ValueError, match="kind"):
        channel_spec_from_json({"params": {}})


def _pairwise_rows(m):
    """Per-element reference encoding: one [re, im] pair of Python floats per entry."""
    return [[[float(complex(z).real), float(complex(z).imag)] for z in row] for row in np.asarray(m)]


def test_codec_matches_pairwise_reference_bit_exact():
    import json

    from qeckit.serialize import vector_from_json

    rng = np.random.default_rng(211)
    m = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    m[0, 0], m[1, 2] = complex(-0.0, 0.0), complex(0.0, -0.0)
    for a in (m, m.T, m.real, np.zeros((3, 0), dtype=complex), np.eye(2, dtype=int)):
        text = json.dumps(array_to_json(np.asarray(a, dtype=np.complex128)))
        assert text == json.dumps(_pairwise_rows(a))
        back = matrix_from_json(json.loads(text))
        assert back.shape == np.shape(a)
        assert back.tobytes() == np.asarray(a, dtype=np.complex128).tobytes()  # keeps the sign of -0.0
    v = m[:, 0]
    assert array_to_json(v) == _pairwise_rows(v[None])[0]
    assert vector_from_json(array_to_json(v)).tobytes() == v.tobytes()
    assert matrix_from_json([]).shape == (0,) and vector_from_json([]).shape == (0,)
    assert matrix_from_json([[], []]).shape == (2, 0)


@pytest.mark.parametrize(
    "rows",
    [
        [[[1, 2]], []],  # ragged rows
        [[[1, 2, 3]]],  # pair of the wrong length
        [[[1]]],
        [[["a", 1]]],  # non-numeric entries
        [[[None, 1]]],
        [[[float("nan"), 1]]],  # non-finite entries
        [[[1, float("inf")]]],
        [[[{}, 1]]],
        [[1, 2]],  # a vector where a matrix is expected
        [[[[1, 2], [3, 4]]]],
    ],
)
def test_matrix_decode_rejects_malformed(rows):
    with pytest.raises((ValueError, TypeError)):
        matrix_from_json(rows)


def test_recovery_with_empty_coefficients_keeps_shape():
    code = builtin_code("pair")
    rec = synthesize_recovery(code, build_channel(ChannelSpec("overlap_example", {"q": 0.25})))
    data = recovery_to_json(rec)
    for empty in ([], [[]] * rec.syndrome_dim):
        data["syndrome_coefficients"] = empty
        assert recovery_from_json(data).syndrome_coefficients.shape == (rec.syndrome_dim, 0)


@pytest.mark.parametrize("edit, message", [
    ({"syndrome_dim": -3}, "declares syndrome_dim -3, but lists 17 operators"),
    ({"syndrome_dim": 17}, "declares syndrome_dim 17, but lists 17 operators"),
    ({"syndrome_dim": 15}, "declares syndrome_dim 15, but lists 17 operators"),
    ({"complement_dim": 999}, "complement_dim 999, outside 0..32"),
    ({"complement_dim": -1}, "complement_dim -1, outside 0..32"),
    ({"syndrome_coefficients": [[[0.5, 0.0]]]}, "lists 1 rows of syndrome_coefficients, expected syndrome_dim=16"),
    ({"syndrome_coefficients": [[]] * 17}, "lists 17 rows of syndrome_coefficients, expected syndrome_dim=16"),
])
def test_recovery_metadata_must_agree_with_its_operators(edit, message):
    family = ChannelSpec("decoherence_pm_basis", {"gamma": 0.1, "qubits": 5, "max_errors": 2})
    data = recovery_to_json(synthesize_recovery(builtin_code("phase5"), build_channel(family), seed=5))
    assert (data["syndrome_dim"], data["complement_dim"], len(data["operators"])) == (16, 0, 17)
    recovery_from_json(data)
    with pytest.raises(ValueError, match=re.escape(message)):
        recovery_from_json({**data, **edit})
    assert recovery_from_json({**data, "complement_dim": 32}).complement_dim == 32  # the range is inclusive


def test_declared_dim_must_match_the_operators():
    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    data = {"dim": 7, "label": "", "operators": [identity]}
    with pytest.raises(ValueError, match="dim 7"):
        ensemble_from_json(data)
    with pytest.raises(ValueError, match="dim 7"):
        recovery_from_json({**data, "syndrome_dim": 1, "complement_dim": 0, "syndrome_coefficients": []})
    assert ensemble_from_json({**data, "dim": 2}).dim == 2
    assert ensemble_from_json({"operators": [identity]}).dim == 2  # dim is optional


def _phase3_documents():
    """The phase3 code and its recovery as read back from their canonical files."""
    family = ChannelSpec("decoherence_pm_basis", {"gamma": 0.1, "qubits": 3, "max_errors": 1})
    code = builtin_code("phase3")
    rec = synthesize_recovery(code, build_channel(family), seed=3)
    return {"code": loads(dumps_canonical(code_to_json(code))), "recovery": loads(dumps_canonical(recovery_to_json(rec)))}


@pytest.mark.parametrize("decode, document, field, value", [
    *[(code_from_json, "code", field, value) for field, value in [
        ("n", 8.0), ("n", "8"), ("n", True), ("k", 2.9), ("k", 2.0), ("k", "2"), ("k", True),
    ]],
    *[(recovery_from_json, "recovery", field, value) for field, value in [
        ("syndrome_dim", 64.7), ("syndrome_dim", 4.0), ("syndrome_dim", "4"), ("syndrome_dim", True),
        ("complement_dim", True), ("complement_dim", 0.0), ("complement_dim", "0"),
    ]],
    *[(ensemble_from_json, "recovery", "dim", value) for value in (8.0, "8", True)],
    *[(recovery_from_json, "recovery", "dim", value) for value in (8.0, "8", True)],
])
def test_integer_fields_refuse_anything_but_a_json_integer(decode, document, field, value):
    data = _phase3_documents()[document]
    decode(data)  # the unedited file loads
    with pytest.raises(ValueError, match=re.escape(f"JSON field {field!r} must be an integer, got {value!r}")):
        decode({**data, field: value})


@pytest.mark.parametrize("shape", [[2.5, 2, 2], [2.0, 2, 2], [True, 2, 2], ["2", 2, 2]])
def test_code_shape_entries_must_be_json_integers(shape):
    data = _phase3_documents()["code"]
    assert code_from_json(data).shape == (2, 2, 2)
    with pytest.raises(ValueError, match=re.escape(f"code JSON field 'shape' must list integers, got {shape!r}")):
        code_from_json({**data, "shape": shape})


def _round_trips(doc: dict) -> None:
    again = loads(dumps_canonical(doc))
    assert again.keys() == doc.keys()
    for key, value in doc.items():
        assert again[key] == value, key


def test_reduced_dm_report_round_trips():
    doc = reduced_dm_report_to_json(reduced_dm_check(repetition_phase_code(3), 1))
    assert isinstance(doc["passed"], bool)
    _round_trips(doc)


def test_entropy_report_round_trips():
    full = tensor_power(build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.1})), 5)
    doc = entropy_report_to_json(entropy_test(repetition_phase_code(5), full))
    assert doc["difference_bits"] > 0.0
    _round_trips(doc)


def test_bound_check_round_trips():
    full = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.1, "qubits": 3}))
    doc = bound_check_to_json(entangled_bound_check(repetition_phase_code(3), full))
    assert doc["satisfied"] is True
    _round_trips(doc)
