"""``serialize.loads`` against the stdlib decoder it stands in for.

Canonical files, as ``dumps_canonical`` writes them, have their dense
``operators`` block read in one forward scan: each distinct row is
checked once, and the numbers of all distinct rows go to one
``json.loads`` call, which gives every number, ``-0`` and integers
included, the stdlib's value. Everything else, and a block holding an
integer no float64 holds, goes through ``json.loads`` whole. The oracle
is the stdlib path itself: ``json.loads`` plus the same decoders, or the
CLI with the fast path switched off. Decoded operators must agree bit
for bit, and a mutated file must give the CLI the same exit code and
output either way.
"""

import json
import re

import numpy as np
import pytest

from helpers import random_superoperator
from qeckit import CapacityError, serialize
from qeckit.cli import main
from qeckit.serialize import dumps_canonical, ensemble_from_json, ensemble_to_json, loads, recovery_from_json

EDGE_FLOATS = (-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-05, -1e-05, 0.1, -123.456e-7)
# JSON integers the encoder never writes, but a hand-written file may hold
EDGE_INTEGERS = (0, 1, -3, 123456789012345678901234567890)


def _stdlib_operators(text):
    return [np.asarray(op, dtype=np.float64) for op in json.loads(text)["operators"]]


def _matrix_or_error(rows):
    try:
        return serialize.matrix_from_json(rows).tobytes()
    except ValueError as exc:
        return str(exc)


def _assert_same_decode(text):
    """``loads`` took the fast path and agrees bit for bit with ``json.loads``."""
    fast, slow = loads(text), json.loads(text)
    assert all(isinstance(op, np.ndarray) and op.dtype == np.float64 for op in fast["operators"])
    assert [op.tobytes() for op in fast["operators"]] == [op.tobytes() for op in _stdlib_operators(text)]
    assert {k: v for k, v in fast.items() if k != "operators"} == {k: v for k, v in slow.items() if k != "operators"}
    return fast, slow


def _with_edge_values(data, rng):
    """Overwrite random entries of the operators block with edge floats and JSON integers."""
    ops = data["operators"]
    shape = (len(ops), len(ops[0]), len(ops[0]), 2)
    values = EDGE_FLOATS + EDGE_INTEGERS
    for value, flat in zip(values, rng.choice(np.prod(shape), size=len(values), replace=False)):
        op, i, j, part = np.unravel_index(flat, shape)
        ops[op][i][j][part] = value
    return data


@pytest.mark.parametrize("seed", range(6))
def test_random_ensembles_decode_bit_identically(seed):
    rng = np.random.default_rng(500 + seed)
    dim, count = int(rng.integers(2, 9)), int(rng.integers(2, 6))
    doc = ensemble_to_json(random_superoperator(dim, count, rng))
    text = dumps_canonical(_with_edge_values({**doc, "operators": serialize.array_to_json(doc["operators"])}, rng))
    assert "5e-324" in text and "1e+16" in text and "123456789012345678901234567890" in text
    fast, slow = _assert_same_decode(text)
    # Both decode routes of ensemble_from_json give the same stack bit for bit ...
    fast_stack = serialize._from_pairs(fast["operators"], 3)
    assert fast_stack.tobytes() == np.stack([serialize.matrix_from_json(rows) for rows in slow["operators"]]).tobytes()
    for doc in (fast, slow):  # ... which 1.7976931348623157e308, squared, overflows, so either family is refused
        with pytest.raises(ValueError, match="squared magnitudes overflow"):
            ensemble_from_json(doc)


@pytest.mark.parametrize("seed", range(3))
def test_synthesized_recoveries_decode_bit_identically(seed, tmp_path):
    out = tmp_path / "rec.json"
    channel = "decoherence_pm_basis:gamma=0.1,qubits=5,max_errors=2"
    assert main(["synthesize", "phase5", channel, "--out", str(out), "--seed", str(seed)]) == 0
    text = out.read_text(encoding="utf-8")
    fast, slow = _assert_same_decode(text)  # files synthesize writes take the fast path
    a, b = recovery_from_json(fast), recovery_from_json(slow)
    assert [x.tobytes() for x in a.ensemble] == [x.tobytes() for x in b.ensemble]
    assert a.syndrome_coefficients.tobytes() == b.syndrome_coefficients.tobytes()
    rng = np.random.default_rng(seed)
    _assert_same_decode(dumps_canonical(_with_edge_values(json.loads(text), rng)))


def test_explicit_channel_spec_files_take_the_fast_path():
    operators = ensemble_to_json(random_superoperator(4, 3, np.random.default_rng(9)))["operators"]
    spec = serialize.channel_spec_to_json(serialize.channel_spec_from_json({"kind": "explicit", "operators": operators}))
    fast, _ = _assert_same_decode(dumps_canonical(spec))
    assert len(serialize.channel_spec_from_json(fast).explicit_operators) == 3


A = "0.7071067811865476"
BASE = (
    '{"complement_dim":0,"dim":2,"label":"x","operators":'
    f"[[[[{A},0.0],[0.0,0.0]],[[0.0,0.0],[{A},0.0]]],[[[{A},0.0],[0.0,0.0]],[[0.0,0.0],[-{A},0.0]]]],"
    '"syndrome_coefficients":[],"syndrome_dim":1}\n'
)

# (name, text): each replaces the first occurrence of one substring of BASE
MUTATIONS = [
    (name, BASE.replace(old, new, 1))
    for name, old, new in [
        ("space after key", '"operators":', '"operators": '),
        ("space in block", "],[", "], ["),
        ("newline in block", "]],[[", "]],\n[["),
        ("leading plus", "0.0]", "+1]"),
        ("leading zero", "0.0]", "01]"),
        ("signed leading zero", "0.0]", "-01]"),
        ("double zero", "0.0]", "00]"),
        ("bare fraction", "0.0]", ".5]"),
        ("bare point", "0.0]", "5.]"),
        ("signed bare fraction", "0.0]", "-.5]"),
        ("empty exponent", "0.0]", "1e]"),
        ("signed empty exponent", "0.0]", "1e-]"),
        ("double point", "0.0]", "1.5.5]"),
        ("double exponent", "0.0]", "1e5e5]"),
        ("fraction after exponent", "0.0]", "1e5.5]"),
        ("double sign", "0.0]", "--1]"),
        ("inner sign", "0.0]", "1-1]"),
        ("hex", "0.0]", "0x10]"),
        ("underscore", "0.0]", "1_0]"),
        ("NaN", "0.0]", "NaN]"),
        ("Infinity", "0.0]", "Infinity]"),
        ("-Infinity", "0.0]", "-Infinity]"),
        ("lowercase inf", "0.0]", "inf]"),
        ("overflow", "0.0]", "1e400]"),
        ("integer beyond float range", "0.0]", "1" + "0" * 400 + "]"),
        ("integer beyond the digit limit", "0.0]", "1" + "0" * 5000 + "]"),
        ("null", "0.0]", "null]"),
        ("string", "0.0]", '"0.0"]'),
        ("fullwidth digit", "0.0]", "\uff10.0]"),
        ("uppercase exponent", "0.0]", "1E-05]"),
        ("exponent with plus and zeros", "0.0]", "2e+007]"),
        ("negative integer zero", "0.0]", "-0]"),
        ("negative integer zero ending a row", "0.0]]", "-0]]"),
        ("negative float zero", "0.0]", "-0.0e0]"),
        ("negative zero exponent", "0.0]", "1e-0]"),
        ("ragged row", "[0.0,0.0],", ""),
        ("ragged first row of the right count", "[0.0,0.0]],[[0.0,0.0],[", "[0.0,0.0],[0.0,0.0]],[["),
        ("ragged later rows of the right count", f"[0.0,0.0]],[[0.0,0.0],[-{A}", f"[0.0,0.0],[0.0,0.0]],[[-{A}"),
        ("ragged first pairs of the right count", f"[{A},0.0],[0.0,0.0]", f"[{A},0.0,0.0],[0.0]"),
        ("ragged later pairs of the right count", f"[[0.0,0.0],[{A},0.0]]]", f"[[0.0,0.0,0.0],[{A}]]]"),
        ("space between operators", "]]],[[[", "]]], [[["),
        ("no comma between operators", "]]],[[[", "]]][[["),
        ("space for the comma between operators", "]]],[[[", "]]] [[["),
        ("one-element pair", "[0.0,0.0]", "[0.0]"),
        ("three-element pair", "[0.0,0.0]", "[0.0,0.0,0.0]"),
        ("trailing comma", "0.0]", "0.0,]"),
        ("empty token", ",0.0]", ",]"),
        ("leading comma", "[0.0,", "[,"),
        ("double comma", "0.0,0.0", "0.0,,0.0"),
        ("empty pair", "[0.0,0.0]", "[]"),
        ("extra nesting", f"[{A},0.0]", f"[[{A},0.0]]"),
        ("unclosed block", "]]]],", "]]],"),
        ("square operators of two sizes", f"[[[{A},0.0],[0.0,0.0]],[[0.0,0.0],[{A},0.0]]],", f"[[[{A},0.0]]],"),
        ("duplicate key, later wins", '"syndrome_coefficients"', '"operators":[[[[1.0,0.0]]]],"syndrome_coefficients"'),
        ("duplicate key, escaped", '"syndrome_coefficients"', '"operator\\u0073":[[[[1.0,0.0]]]],"syndrome_coefficients"'),
        ("key in label", '"label":"x"', '"label":"\\"operators\\":[[[[1.0,0.0]]]]"'),
        ("key in label only", '"label":"x","operators"', '"label":"\\"operators\\":[[[[1.0,0.0]]]]","ops"'),
        ("nested block", '"operators":', '"nested":{"operators":'),
        ("NaN in label", '"label":"x"', '"label":"NaN"'),
        ("NaN after the block", '"syndrome_coefficients":[]', '"syndrome_coefficients":[[[NaN,0.0]]]'),
        ("NaN before the block", '"label":"x"', '"label":"x","weight":NaN'),
        ("non-ASCII label", '"label":"x"', '"label":"φ-rückkopplung"'),
        ("escaped non-ASCII label", '"label":"x"', '"label":"\\u03c6"'),
        ("top-level list", "{", "[{"),
        ("trailing data", "}\n", "} x\n"),
        ("byte-order mark", "{", "\ufeff{"),
    ]
] + [("nested block, valid", BASE.replace('"operators":', '"nested":{"operators":').replace(',"syndrome', '},"syndrome', 1))]


def _assert_decodes_as_through_the_stdlib(text):
    """``loads`` returns what ``json.loads`` does, operators bit for bit, or raises its error."""
    try:
        slow = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or int's digit limit
        with pytest.raises(ValueError) as caught:
            loads(text)
        assert type(caught.value) is type(exc) and str(caught.value) == str(exc)
        return
    fast = loads(text)
    if isinstance(fast, dict) and any(isinstance(op, np.ndarray) for op in fast.get("operators", ())):
        assert [_matrix_or_error(op) for op in fast["operators"]] == [_matrix_or_error(op) for op in slow["operators"]]
        fast = {**fast, "operators": slow["operators"]}
    assert json.dumps(fast) == json.dumps(slow)  # NaN-safe equality


@pytest.mark.parametrize("name, text", MUTATIONS, ids=[name for name, _ in MUTATIONS])
def test_mutated_texts_decode_as_through_the_stdlib(name, text):
    _assert_decodes_as_through_the_stdlib(text)


BLOCK_START, BLOCK_STOP = BASE.index("[[[["), BASE.index("]]]]")
# (first, past-the-end) in BASE of each number of its operators block
NUMBER_SLOTS = [(BLOCK_START + m.start(), BLOCK_START + m.end()) for m in re.finditer(r"[^\[\],]+", BASE[BLOCK_START:BLOCK_STOP])]


@pytest.mark.parametrize("seed", range(3))
def test_random_number_tokens_decode_as_through_the_stdlib(seed):
    rng = np.random.default_rng(700 + seed)
    alphabet = np.array(list("0123456789+-.eE"))
    fast = 0
    for _ in range(3000):
        token = "".join(rng.choice(alphabet, size=rng.integers(1, 9)))
        first, stop = NUMBER_SLOTS[rng.integers(len(NUMBER_SLOTS))]
        text = BASE[:first] + token + BASE[stop:]
        _assert_decodes_as_through_the_stdlib(text)
        fast += serialize._loads_canonical(text) is not None
    assert 300 < fast < 2700  # both the fast path and the stdlib are exercised


def _run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("name, text", MUTATIONS, ids=[name for name, _ in MUTATIONS])
def test_mutated_files_behave_as_through_the_stdlib(name, text, tmp_path, capsys, monkeypatch):
    path = tmp_path / "rec.json"
    path.write_text(text, encoding="utf-8")
    runs = [
        ["fidelity", "trivial:2", "decoherence:gamma=0.1", "--recovery", str(path)],
        ["memory", "trivial:2", "decoherence:gamma=0.1", "--recovery", str(path), "--cycles", "2"],
        ["fidelity", "trivial:2", str(path)],  # the same file as a channel ensemble
    ]
    fast = [_run(argv, capsys) for argv in runs]
    monkeypatch.setattr(serialize, "_loads_canonical", lambda text: None)
    assert fast == [_run(argv, capsys) for argv in runs]


def test_which_files_take_the_fast_path():
    mutated = dict(MUTATIONS)
    for name in ("space after key", "space in block", "duplicate key, later wins", "nested block, valid", "NaN in label",
                 "integer beyond float range", "integer beyond the digit limit"):
        assert serialize._loads_canonical(mutated[name]) is None, name
    # a quote inside a JSON string is escaped, so a label never holds the raw key
    for name in ("key in label", "non-ASCII label", "uppercase exponent", "negative float zero", "overflow",
                 "negative integer zero", "negative integer zero ending a row"):
        assert isinstance(loads(mutated[name])["operators"][0], np.ndarray), name
    for text in (BASE, mutated["key in label"], mutated["non-ASCII label"], mutated["uppercase exponent"],
                 mutated["negative integer zero"], mutated["negative integer zero ending a row"]):
        _assert_same_decode(text)


@pytest.mark.parametrize("bad_pair", ["[0.0,0.0,0.0]", "[0.0]", "[0.0,0.0]]"])
def test_wide_first_row_that_is_not_canonical_falls_back(bad_pair, tmp_path, capsys, monkeypatch):
    row = "[" + ",".join(["[0.0,0.0]"] * 256 + [bad_pair]) + "]"
    path = tmp_path / "wide.json"
    path.write_text('{"complement_dim":0,"operators":[[' + row + ']],"syndrome_coefficients":[],"syndrome_dim":1}')
    argv = ["fidelity", "trivial:2", "decoherence:gamma=0.1", "--recovery", str(path)]
    fast = _run(argv, capsys)
    assert "exceeds the cap" not in fast[2]
    monkeypatch.setattr(serialize, "_loads_canonical", lambda text: None)
    assert fast == _run(argv, capsys)


_JSON_LOADS = json.loads


def _text_only_loads(s, *args, **kwargs):
    """``json.loads`` of the rest of a document, which is text; the block's numbers come as bytes."""
    if isinstance(s, bytes):
        raise AssertionError("a number of the block was parsed")
    return _JSON_LOADS(s, *args, **kwargs)


def test_wide_first_row_is_refused_before_any_operator_is_read(monkeypatch):
    monkeypatch.setattr(serialize.json, "loads", _text_only_loads)
    row = "[" + ",".join(["[0.0,0.0]"] * 257) + "]"
    with pytest.raises(CapacityError, match="dimension 257 exceeds the cap 256"):
        loads('{"dim":257,"operators":[[' + ",".join([row] * 257) + "]]}")
    with pytest.raises(AssertionError):  # at the cap itself the numbers are parsed
        row = "[" + ",".join(["[0.0,0.0]"] * 256) + "]"
        loads('{"dim":256,"operators":[[' + ",".join([row] * 256) + "]]}")


WIDE = "[" + ",".join(["[0.0,0.0]"] * 257) + "]"


@pytest.mark.parametrize("later", [
    WIDE, WIDE.replace(",", ", ", 1), "[" + ",".join(["[0.0,0.0]"] * 256) + "]", "[[0.0,0.0,0.0]]", "[[null,0.0]]",
], ids=["canonical", "space", "ragged", "three-element pair", "null"])
def test_a_wide_block_is_refused_whatever_its_later_rows_hold(later, monkeypatch):
    monkeypatch.setattr(serialize.json, "loads", _text_only_loads)
    # its interior is never read, so even a broken separator between operators is refused by the cap
    for block in (f"[[{WIDE},{later}]]", f"[[{WIDE}],[{later}]]", f"[[{WIDE}], [{later}]]", f"[[{WIDE}]x[{later}]]"):
        with pytest.raises(CapacityError, match="dimension 257 exceeds the cap 256"):
            loads('{"dim":257,"operators":' + block + ',"syndrome_dim":0}')
    monkeypatch.undo()
    with pytest.raises(json.JSONDecodeError):  # the rest of the document is parsed first
        loads('{"dim":257,"operators":[[' + WIDE + "," + later + ']]],"syndrome_dim":0}')
