"""``dumps_canonical`` of array-valued documents against the stdlib encoder.

Every numpy array in a document, at any depth, is written by
``serialize._array_text``: its rows (the last two axes) are keyed by their
bytes, each distinct value of the distinct rows goes through
``json.dumps`` once, and the rows are filled in from that table. The
oracle is the stdlib path: ``json.dumps`` of the same document with each
array as nested lists, as ``array_to_json`` builds them. Both must
agree byte for byte, for every value the stdlib writes (NaN, ±Infinity
and -0.0 included), whether the values repeat or not, and an array of two
or more axes must never be handed to ``serialize._stdlib_block_text``
whole, or a silent detour through the stdlib would pass every byte check.
"""

import json

import numpy as np
import pytest

from helpers import random_superoperator
from qeckit import (
    ChannelSpec, build_channel, builtin_code, kl_check, min_fidelity, random_code, serialize, synthesize_recovery,
    verify_recovery,
)
from qeckit.serialize import array_to_json, dumps_canonical, kl_report_to_json, loads, recovery_to_json

# Each edge float sits next to the value on the other side of a repr switch-over or sign.
EDGE_FLOATS = (
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    1e-05, 9.999999999999999e-06, 1e16, 9999999999999998.0, 1.0, -3.0, 2.0**52, 0.1, -123.456e-7,
)


def _phase_recovery(m, seed):
    family = ChannelSpec("decoherence_pm_basis", {"gamma": 0.1, "qubits": m, "max_errors": (m - 1) // 2})
    return synthesize_recovery(builtin_code(f"phase{m}"), build_channel(family), seed=seed)


@pytest.fixture(scope="module")
def phase7_recovery():
    return _phase_recovery(7, 5)


def _pairs(ops):
    """``ops`` as an array, complex entries as a last axis of [re, im] pairs."""
    ops = np.asarray(ops)
    return np.stack([ops.real, ops.imag], axis=-1) if np.iscomplexobj(ops) else ops


def _stdlib(doc):
    """The oracle: the document with every array as nested lists, through ``json.dumps``."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=lambda a: _pairs(a).tolist()) + "\n"


def _dumped(monkeypatch, write):
    """``write()``'s result and the objects it handed to ``json.dumps``, in order."""
    dumped, real_dumps = [], json.dumps

    def counting_dumps(obj, *args, **kwargs):
        dumped.append(obj)
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(serialize.json, "dumps", counting_dumps)
    result = write()
    monkeypatch.undo()
    return result, dumped


def _pooled_block(rng, shape, pool):
    """Complex operators of ``shape`` whose parts are drawn from ``pool``, so that values repeat."""
    parts = np.asarray(pool, dtype=np.float64)[rng.integers(0, len(pool), (*shape, 2))]
    return parts.view(np.complex128)[..., 0]


def _assert_identical(doc):
    text = dumps_canonical(doc)
    assert text == _stdlib(doc)
    return text


def _assert_loads_round_trip(text, ops, fast_decode=True):
    """``loads`` reads the text back bit-identically, and re-encoding what it read gives the same text."""
    decoded = loads(text)
    assert all(isinstance(op, np.ndarray) for op in decoded["operators"]) == fast_decode
    assert np.asarray(decoded["operators"], dtype=np.float64).tobytes() == _pairs(ops).tobytes()
    assert dumps_canonical(decoded) == text


@pytest.mark.parametrize("m, seed", [(3, 0), (3, 5), (3, 23), (5, 0), (5, 5), (5, 23)])
def test_phase_recoveries_encode_as_their_lists_do(m, seed):
    rec = _phase_recovery(m, seed)
    text = dumps_canonical(recovery_to_json(rec))
    assert text == _stdlib(recovery_to_json(rec))
    _assert_loads_round_trip(text, np.stack(rec.ensemble.operators))


def test_phase7_recovery_encodes_as_its_lists_do(phase7_recovery):
    text = dumps_canonical(recovery_to_json(phase7_recovery))
    assert text == _stdlib(recovery_to_json(phase7_recovery))
    _assert_loads_round_trip(text, np.stack(phase7_recovery.ensemble.operators))


@pytest.mark.parametrize("m", [3, 5])
def test_phase_recoveries_are_written_by_rows(m, monkeypatch):
    rec = _phase_recovery(m, 1)
    expected = _stdlib(recovery_to_json(rec))
    monkeypatch.setattr(serialize, "_stdlib_block_text", _refuse)
    assert dumps_canonical(recovery_to_json(rec)) == expected


def test_phase7_recovery_is_written_by_rows(phase7_recovery, monkeypatch):
    monkeypatch.setattr(serialize, "_stdlib_block_text", _refuse)
    assert dumps_canonical(recovery_to_json(phase7_recovery)).startswith('{"complement_dim":')


def _refuse(block):
    raise AssertionError("the whole block went through json.dumps, not row by row")


def test_an_all_distinct_block_is_written_by_rows(monkeypatch):
    ops = random_superoperator(16, 5, np.random.default_rng(11)).operators
    doc = {"dim": 16, "label": "random", "operators": np.stack(ops)}
    monkeypatch.setattr(serialize, "_stdlib_block_text", _refuse)
    assert dumps_canonical(doc) == _stdlib(doc)


def test_each_distinct_value_is_dumped_once(monkeypatch):
    rec = _phase_recovery(5, 5)
    block = _pairs(np.stack(rec.ensemble.operators))
    values = np.unique(block.view(np.uint64))
    assert 4 * values.size < block.size  # the values do repeat
    text, dumped = _dumped(monkeypatch, lambda: dumps_canonical(recovery_to_json(rec)))
    assert text == _stdlib(recovery_to_json(rec))
    # the document with a mark for each array, the mark, then the value tables of the block and of the coefficients
    doc, mark, table, coefficient_table = dumped
    assert isinstance(doc, dict) and mark == serialize._MARK
    assert np.array(table, dtype=np.float64).view(np.uint64).tolist() == values.tolist()  # each once, by bits
    coefficients = np.unique(_pairs(rec.syndrome_coefficients).view(np.uint64))
    assert np.array(coefficient_table, dtype=np.float64).view(np.uint64).tolist() == coefficients.tolist()


def _written(monkeypatch, a):
    """``_array_text(a)`` against the oracle, byte for byte: one ``json.dumps``, of each distinct value once."""
    pieces, dumped = _dumped(monkeypatch, lambda: serialize._array_text(a))
    assert "".join(pieces) == serialize._stdlib_block_text(a)
    (table,) = dumped
    a = _pairs(a)
    assert np.array(table, dtype=a.dtype).tobytes() == np.unique(a.view(f"u{a.itemsize}")).tobytes()


SHAPES = [(8, 9), (3, 4, 6), (2, 3, 4, 5)]


@pytest.mark.parametrize("shape", SHAPES, ids=["2d", "3d", "4d"])
@pytest.mark.parametrize("seed", range(3))
def test_repeating_and_distinct_values_write_the_stdlib_bytes(shape, seed, monkeypatch):
    rng = np.random.default_rng(900 + seed)
    pool = [*EDGE_FLOATS, np.nan, np.inf, -np.inf]
    distinct = rng.standard_normal(shape)
    distinct.flat[rng.choice(distinct.size, len(pool), replace=False)] = pool  # every edge float once
    _written(monkeypatch, np.asarray(pool)[rng.integers(0, len(pool), shape)])
    _written(monkeypatch, distinct)
    _written(monkeypatch, _pooled_block(rng, shape, pool))  # complex: one more axis of pairs
    _written(monkeypatch, distinct + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.bool_])
def test_integer_dtypes_write_the_stdlib_bytes(dtype, monkeypatch):
    rng = np.random.default_rng(17)
    for shape in SHAPES:
        _written(monkeypatch, rng.integers(0, 2, shape).astype(dtype))
        if dtype is not np.bool_:
            size = int(np.prod(shape))
            _written(monkeypatch, (rng.permutation(size) % np.iinfo(dtype).max).astype(dtype).reshape(shape))


@pytest.mark.parametrize("shape", [(0,), (3,), (0, 3), (3, 0), (2, 0, 4), (0, 2, 2), (2, 3, 0, 1), ()])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int64])
def test_empty_and_one_axis_arrays(shape, dtype):
    a = np.asarray(np.arange(int(np.prod(shape)), dtype=dtype).reshape(shape) - 1)
    assert "".join(serialize._array_text(a)) == json.dumps(_pairs(a).tolist(), separators=(",", ":"))
    assert dumps_canonical({"a": a, "b": [a]}) == _stdlib({"a": a, "b": [a]})


def test_arrays_at_any_depth_are_written_by_rows(monkeypatch):
    rng = np.random.default_rng(4)
    doc = {
        "z": _pooled_block(rng, (2, 3, 3), [0.0, -0.0, 1.0]),
        "nested": {"b": [rng.standard_normal((4, 4)), {"c": rng.integers(0, 3, (2, 2, 2))}], "a": 1.5},
        "a": [_pooled_block(rng, (3, 3), EDGE_FLOATS), None],
    }
    expected = _stdlib(doc)
    monkeypatch.setattr(serialize, "_stdlib_block_text", _refuse)
    assert dumps_canonical(doc) == expected


@pytest.mark.parametrize("decoy", [
    serialize._MARK,  # the mark itself
    serialize._MARK * 2,  # the lengthened mark
    '"' + serialize._MARK,  # the mark after an escaped quote
    serialize._MARK + '"',
])
def test_a_string_that_spells_the_mark_is_written_as_it_is(decoy):
    ops = _pooled_block(np.random.default_rng(8), (2, 2, 2), [0.5, -0.5])
    for doc in (
        {"label": decoy, "operators": ops},
        {decoy: ops, "label": [decoy, ops, {decoy: decoy}]},
        {"label": decoy},
        [decoy, ops, decoy],
    ):
        assert dumps_canonical(doc) == _stdlib(doc)


def test_the_kl_report_is_written_as_its_lists_are(monkeypatch):
    code = random_code(8, 2, seed=3, shape=(2, 2, 2))
    channel = build_channel(ChannelSpec("pauli_unitary_basis", {"qubits": 3, "max_errors": 1}))
    report = kl_report_to_json(kl_check(code, channel))
    lists = {**report, "lambda_matrix": array_to_json(report["lambda_matrix"])}
    expected = json.dumps(lists, sort_keys=True, separators=(",", ":")) + "\n"
    floats = report["lambda_matrix"].view(np.uint64)
    assert 2 * np.unique(floats).size <= floats.size  # λ_ab depends on A_a†A_b only up to a phase
    monkeypatch.setattr(serialize, "_stdlib_block_text", _refuse)
    assert dumps_canonical(report) == expected


@pytest.mark.parametrize("seed", range(6))
def test_seeded_random_ensembles_with_repeating_values(seed):
    rng = np.random.default_rng(700 + seed)
    dim, count = int(rng.integers(5, 9)), int(rng.integers(2, 6))  # at least 100 floats from a pool of 19
    pool = [*EDGE_FLOATS, *rng.standard_normal(3)]
    ops = _pooled_block(rng, (count, dim, dim), pool)
    doc = {"dim": dim, "label": f"pooled {seed}", "operators": ops}
    text = _assert_identical(doc)
    _assert_loads_round_trip(text, ops)
    # the list of per-operator float arrays that ``loads`` returns encodes the same way
    assert dumps_canonical({**doc, "operators": list(_pairs(ops))}) == text


@pytest.mark.parametrize("seed", range(3))
def test_seeded_random_ensembles_with_distinct_values(seed):
    rng = np.random.default_rng(800 + seed)
    dim, count = int(rng.integers(2, 9)), int(rng.integers(2, 6))
    ops = np.stack(random_superoperator(dim, count, rng).operators)
    doc = {"dim": dim, "label": "", "operators": ops}
    text = _assert_identical(doc)
    _assert_loads_round_trip(text, ops)


def test_every_edge_float_next_to_its_neighbour():
    values = np.array(EDGE_FLOATS * 8)
    ops = values.view(np.complex128).reshape(4, 4, 4)
    text = _assert_identical({"operators": ops})
    for literal in ("-0.0", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e+308",
                    "1e-05", "9.999999999999999e-06", "1e+16", "9999999999999998.0", "4503599627370496.0"):
        assert f"[{literal}," in text or f",{literal}]" in text
    assert "[-0.0,0.0]" in text
    _assert_loads_round_trip(text, ops)


@pytest.mark.parametrize("ops", [
    np.full((1, 1, 1), 0.5 - 0.0j),  # d = 1, one operator
    np.ones((1, 3, 3), dtype=np.complex128),  # one operator
    np.zeros((3, 1, 1), dtype=np.complex128),  # d = 1
    np.array([[[complex(0.0, 1.0), 0.5], [complex(-0.0, 1.0), 0.5]]]),  # two rows apart only by a zero's sign
], ids=["d1-one-operator", "one-operator", "d1", "signed-zero-rows"])
def test_smallest_blocks(ops):
    doc = {"complement_dim": 0, "dim": ops.shape[1], "label": "", "operators": ops,
           "syndrome_coefficients": [], "syndrome_dim": 1}
    text = _assert_identical(doc)
    _assert_loads_round_trip(text, ops)


@pytest.mark.parametrize("doc", [
    {"label": 'ψ "operators":null ☃', "meta": {"operators": None}, "dim": 2},
    {"operatorz": 1, "operator": 2, "Operators": 3, "operators2": 4},
    {"a": []},
    {"zz": [1.5, None]},
    {},
], ids=["decoy-label", "neighbour-keys", "before-only", "after-only", "block-only"])
def test_the_block_lands_at_its_sorted_key(doc):
    ops = _pooled_block(np.random.default_rng(3), (2, 2, 2), [0.0, -0.0, 1.0, 0.5])
    doc = {**doc, "operators": ops}
    text = _assert_identical(doc)
    # the decoy's nested "operators" key comes first, so ``loads`` reads that file with the stdlib
    _assert_loads_round_trip(text, ops, fast_decode="meta" not in doc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_written_with_the_stdlib_bytes(bad):
    ops = np.zeros((2, 3, 3), dtype=np.complex128)
    ops[1, 2, 0] = complex(bad, 0.0)
    doc = {"dim": 3, "label": "x", "operators": ops}
    text = _assert_identical(doc)
    assert ("NaN" in text) if np.isnan(bad) else ("Infinity" in text)


def test_documents_without_an_array_are_unchanged():
    for doc in ({"operators": [[[[1.0, 0.0]]]], "dim": 1}, {"operators": None}, {"x": 1}, [1, 2], "s", 1.5, None):
        assert dumps_canonical(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_values_json_cannot_write_are_refused_as_by_the_stdlib():
    for value in (np.float32(1.0), np.int64(3), {1, 2}, 1j):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps_canonical({"x": value, "a": np.zeros((2, 2))})


def _same_code(a, b):
    assert (a.n, a.k, a.shape, a.label) == (b.n, b.k, b.shape, b.label)
    assert a.matrix.tobytes() == b.matrix.tobytes()


def _same_ensemble(a, b):
    assert (a.label, a.dim) == (b.label, b.dim)
    assert a.stack.tobytes() == b.stack.tobytes()


def _same_recovery(a, b):
    _same_ensemble(a.ensemble, b.ensemble)
    assert (a.syndrome_dim, a.complement_dim) == (b.syndrome_dim, b.complement_dim)
    assert a.syndrome_coefficients.shape == b.syndrome_coefficients.shape
    assert a.syndrome_coefficients.tobytes() == b.syndrome_coefficients.tobytes()


def _same_spec(a, b):
    assert (a.kind, a.params) == (b.kind, b.params)
    assert [op.tobytes() for op in a.explicit_operators] == [op.tobytes() for op in b.explicit_operators]


def _round_trips(doc, decode, same, source):
    """The document writes the oracle's bytes, and decodes to its source both as built and from its text."""
    text = _assert_identical(doc)
    same(decode(doc), source)
    same(decode(loads(text)), source)


@pytest.mark.parametrize("code", [
    builtin_code("phase3"), builtin_code("phase5"), builtin_code("pair"), random_code(8, 3, seed=2, shape=(2, 2, 2)),
], ids=["phase3", "phase5", "pair", "random-k3"])
def test_code_documents_hold_their_basis_as_one_array(code):
    doc = serialize.code_to_json(code)
    assert isinstance(doc["basis"], np.ndarray) and doc["basis"].shape == (code.k, code.n)
    _round_trips(doc, serialize.code_from_json, _same_code, code)


@pytest.mark.parametrize("spec", [
    ChannelSpec("overlap_example", {"q": 0.25}),
    ChannelSpec("decoherence_pm_basis", {"gamma": 0.1, "qubits": 3}),
    ChannelSpec("pauli_unitary_basis", {"qubits": 4, "max_errors": 2}),
    ChannelSpec("amplitude_damping", {"p": 0.3, "qubits": 3}),
], ids=["dense", "lifted-tensor-power", "lifted-pauli", "lifted-damping"])
def test_ensemble_documents_hold_their_stack(spec):
    ensemble = build_channel(spec)
    doc = serialize.ensemble_to_json(ensemble)
    assert doc["operators"] is ensemble.stack
    _round_trips(doc, serialize.ensemble_from_json, _same_ensemble, ensemble)


@pytest.mark.parametrize("m", [3, 5, 7])
def test_recovery_documents_hold_their_stack(m, phase7_recovery):
    rec = phase7_recovery if m == 7 else _phase_recovery(m, 3)
    doc = recovery_to_json(rec)
    assert doc["operators"] is rec.ensemble.stack
    _round_trips(doc, serialize.recovery_from_json, _same_recovery, rec)


def test_explicit_spec_documents_hold_their_operators():
    ops = tuple(random_superoperator(4, 3, np.random.default_rng(12)).operators)
    spec = ChannelSpec("explicit", {}, explicit_operators=ops)
    doc = serialize.channel_spec_to_json(spec)
    assert all(isinstance(op, np.ndarray) for op in doc["operators"])
    _round_trips(doc, serialize.channel_spec_from_json, _same_spec, spec)


def test_report_documents_write_the_stdlib_bytes():
    code = random_code(8, 3, seed=9, shape=(2, 2, 2))
    channel = random_superoperator(8, 2, np.random.default_rng(73))
    report = min_fidelity(code, channel)
    doc = serialize.fidelity_report_to_json(report)
    amplitudes = report.argmin_state.amplitudes
    assert doc["argmin_state"] is amplitudes
    text = _assert_identical(doc)
    assert serialize.vector_from_json(loads(text)["argmin_state"]).tobytes() == amplitudes.tobytes()
    family = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.1, "qubits": 3, "max_errors": 1}))
    rec = synthesize_recovery(builtin_code("phase3"), family)
    _assert_identical(serialize.verification_report_to_json(verify_recovery(builtin_code("phase3"), family, rec)))
    _assert_identical(kl_report_to_json(kl_check(builtin_code("phase3"), family)))
