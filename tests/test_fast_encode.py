"""``dumps_canonical`` of array-valued ``operators`` blocks against the stdlib encoder.

A top-level ``operators`` block held as an array is written one distinct
row of an operator at a time: each distinct row goes through ``json.dumps``
once, and the operator is joined from those strings. The oracle is the
stdlib path: ``json.dumps`` of the same document with the block as nested
lists, as ``recovery_to_json`` builds it. Both must agree byte for byte,
for every value the stdlib writes (NaN, ±Infinity and -0.0 included), and
a block must never be handed to ``serialize._stdlib_block_text`` whole,
or a silent detour through the stdlib would pass every byte check.
"""

import json

import numpy as np
import pytest

from helpers import random_superoperator
from qeckit import ChannelSpec, build_channel, builtin_code, serialize, synthesize_recovery
from qeckit.serialize import dumps_canonical, loads, recovery_document, recovery_to_json

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
    return serialize._operators_array(np.asarray(ops))


def _stdlib(doc):
    """The oracle: the document with its block as nested lists, through ``json.dumps``."""
    lists = {**doc, "operators": _pairs(doc["operators"]).tolist()}
    return json.dumps(lists, sort_keys=True, separators=(",", ":")) + "\n"


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
    text = dumps_canonical(recovery_document(rec))
    assert text == dumps_canonical(recovery_to_json(rec))
    _assert_loads_round_trip(text, np.stack(rec.ensemble.operators))


def test_phase7_recovery_encodes_as_its_lists_do(phase7_recovery):
    text = dumps_canonical(recovery_document(phase7_recovery))
    assert text == dumps_canonical(recovery_to_json(phase7_recovery))
    _assert_loads_round_trip(text, np.stack(phase7_recovery.ensemble.operators))


@pytest.mark.parametrize("m", [3, 5])
def test_phase_recoveries_are_written_by_rows(m, monkeypatch):
    rec = _phase_recovery(m, 1)
    expected = dumps_canonical(recovery_to_json(rec))
    monkeypatch.setattr(serialize, "_stdlib_block_text", _refuse)
    assert dumps_canonical(recovery_document(rec)) == expected


def test_phase7_recovery_is_written_by_rows(phase7_recovery, monkeypatch):
    monkeypatch.setattr(serialize, "_stdlib_block_text", _refuse)
    assert dumps_canonical(recovery_document(phase7_recovery)).startswith('{"complement_dim":')


def _refuse(block):
    raise AssertionError("the whole block went through json.dumps, not row by row")


def test_an_all_distinct_block_is_written_by_rows(monkeypatch):
    ops = random_superoperator(16, 5, np.random.default_rng(11)).operators
    doc = {"dim": 16, "label": "random", "operators": np.stack(ops)}
    monkeypatch.setattr(serialize, "_stdlib_block_text", _refuse)
    assert dumps_canonical(doc) == _stdlib(doc)


def test_each_distinct_row_is_dumped_once(monkeypatch):
    rec = _phase_recovery(5, 5)
    block = _pairs(np.stack(rec.ensemble.operators))
    expected = [repr(row.tolist()) for op in block for row in {row.tobytes(): row for row in op}.values()]
    assert len(expected) < block.shape[0] * block.shape[1] // 4  # the rows do repeat
    dumped, real_dumps = [], json.dumps

    def counting_dumps(obj, *args, **kwargs):
        dumped.append(obj)
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(serialize.json, "dumps", counting_dumps)
    text = dumps_canonical(recovery_document(rec))
    monkeypatch.undo()
    assert text == dumps_canonical(recovery_to_json(rec))
    *rows, head, tail = dumped  # the block's rows, then the document's keys before and after the block
    assert isinstance(head, dict) and isinstance(tail, dict)
    assert [repr(row) for row in rows] == expected  # one call per distinct row per operator, in order


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


def test_documents_without_an_array_block_are_unchanged():
    for doc in ({"operators": [[[[1.0, 0.0]]]], "dim": 1}, {"operators": None}, {"x": 1}, [1, 2]):
        assert dumps_canonical(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
