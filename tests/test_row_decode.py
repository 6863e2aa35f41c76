"""``serialize.loads`` of operators blocks whose rows repeat, against ``json.loads``.

``_loads_canonical`` reads a canonical block in one forward scan. Where
row i of the previous operator repeated its row r, row i is first tested
against row r of this operator; any other row is cut at its ``]]``, and
each distinct row is checked once against the skeleton of a row. The
numbers of all distinct rows go to one ``json.loads``. Recovery elements ``B F†`` repeat a row
wherever the code basis B does, as the phase codes' ±2^(−m/2) bases do.
Every block here must decode bit for bit as ``json.loads`` reads it, or
decline to the stdlib with its error; an edit to one copy of a row is
seen in that copy alone.
"""

import json
import re

import numpy as np
import pytest

from qeckit import ChannelSpec, build_channel, builtin_code, serialize, synthesize_recovery
from qeckit.serialize import dumps_canonical, loads, recovery_to_json
from test_fast_decode import A, BASE, MUTATIONS, _assert_decodes_as_through_the_stdlib, _assert_same_decode


def _document(ops) -> str:
    return dumps_canonical({"dim": ops.shape[-1], "label": "rows", "operators": ops})


def _phase_like(qubits, count, rng):
    """``count`` operators B F_r† with B's rows ±2^(−m/2), so each operator has 2 distinct rows."""
    d = 2**qubits
    basis = np.full((d, 2), 2 ** (-qubits / 2))
    basis[1::2, 1] *= -1
    frames = rng.normal(size=(count, d, 2)) + 1j * rng.normal(size=(count, d, 2))
    return basis @ frames.conj().transpose(0, 2, 1)


def _distinct(d, count, rng):
    return rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))


def _distinct_rows(op) -> int:
    return len({row.tobytes() for row in op})


@pytest.mark.parametrize("qubits", [1, 2, 3, 5])
def test_phase_like_blocks_decode_bit_identically(qubits):
    ops = _phase_like(qubits, 3, np.random.default_rng(qubits))
    assert all(_distinct_rows(op) == 2 for op in ops)
    fast, _ = _assert_same_decode(_document(ops))
    assert [op.tobytes() for op in fast["operators"]] == [op.tobytes() for op in serialize._pair_array(ops)]


@pytest.mark.parametrize("d", [2, 5, 16])
def test_blocks_with_every_row_distinct_decode_bit_identically(d):
    ops = _distinct(d, 3, np.random.default_rng(d))
    assert all(_distinct_rows(op) == d for op in ops)
    _assert_same_decode(_document(ops))


def test_a_block_mixing_repeated_and_distinct_operators_decodes_bit_identically():
    rng = np.random.default_rng(11)
    ops = np.concatenate([_phase_like(3, 2, rng), _distinct(8, 1, rng), _phase_like(3, 1, rng)])
    ops[3, 5] = ops[3, 4] * 0.5  # a third distinct row, between two copies of the others
    assert [_distinct_rows(op) for op in ops] == [2, 2, 8, 3]
    _assert_same_decode(_document(ops))


@pytest.mark.parametrize("values", [[[1.0]], [[-0.0]], [[0.5 - 2j]], [[0.1], [0.1]], [[1e16], [-5e-324], [1e16]]])
def test_one_dimensional_operators_decode_bit_identically(values):
    _assert_same_decode(_document(np.asarray(values, dtype=np.complex128)[..., None]))


# BASE's first row, where most of MUTATIONS' number and bracket edits land
ROW = f"[[{A},0.0],[0.0,0.0]]"
ROW_START = BASE.index("[[[[") + 2
ROW_STOP = ROW_START + len(ROW)
OTHER = "[[0.5,0.0],[0.0,-0.5]]"


def _mutated_row(text):
    """BASE's first row as ``text`` has it, or None when ``text`` edits BASE elsewhere."""
    prefix = 0
    while prefix < min(len(text), len(BASE)) and text[prefix] == BASE[prefix]:
        prefix += 1
    suffix = 0
    while suffix < min(len(text), len(BASE)) - prefix and text[-1 - suffix] == BASE[-1 - suffix]:
        suffix += 1
    if prefix < ROW_START or len(BASE) - suffix > ROW_STOP:
        return None
    return text[ROW_START : len(text) - (len(BASE) - ROW_STOP)]


ROW_MUTATIONS = [(name, row) for name, text in MUTATIONS if (row := _mutated_row(text)) is not None]


def _block_text(ops) -> str:
    """BASE with its operators block replaced by ``ops``, each a list of row texts."""
    block = "[" + ",".join("[" + ",".join(rows) + "]" for rows in ops) + "]"
    return BASE[: BASE.index("[[[[")] + block + BASE[BASE.index("]]]]") + 4 :]


def test_the_row_mutations_cover_numbers_and_brackets():
    names = {name for name, _ in ROW_MUTATIONS}
    assert {"leading plus", "overflow", "negative integer zero ending a row", "fullwidth digit", "space in block",
            "extra nesting", "one-element pair", "ragged first pairs of the right count"} <= names
    assert len(ROW_MUTATIONS) > 40


@pytest.mark.parametrize("name, row", ROW_MUTATIONS, ids=[name for name, _ in ROW_MUTATIONS])
def test_a_mutated_copy_of_a_repeated_row_decodes_as_through_the_stdlib(name, row):
    text = _block_text([[ROW, ROW], [row, ROW]])
    _assert_decodes_as_through_the_stdlib(text)
    # the copy is checked on its own: it declines exactly where the same edit to BASE does
    assert (serialize._loads_canonical(text) is None) == (serialize._loads_canonical(dict(MUTATIONS)[name]) is None)


@pytest.mark.parametrize("name, row", ROW_MUTATIONS, ids=[name for name, _ in ROW_MUTATIONS])
def test_a_mutated_last_row_decodes_as_through_the_stdlib(name, row):
    text = _block_text([[ROW, OTHER], [OTHER, row]])
    _assert_decodes_as_through_the_stdlib(text)
    assert (serialize._loads_canonical(text) is None) == (serialize._loads_canonical(dict(MUTATIONS)[name]) is None)


@pytest.mark.parametrize("ops", [
    [[ROW, ROW], [f"[[{A},0.0]],[[0.0,0.0]]", ROW]],  # a row split in two: d + 1 rows
    [[ROW, ROW], [f"[[{A},0.0]],[[0.0,0.0],[0.0,0.0]]"]],  # d rows by count, ragged ones
    [[ROW, ROW], [ROW, f"[[{A},0.0]],[[0.0,0.0]]"]],
    [[ROW, ROW], [ROW]],
    [[ROW, ROW], [ROW, ROW, ROW]],
    [[ROW, OTHER], [OTHER]],
    [[ROW, OTHER], [OTHER, OTHER, OTHER]],
    [[ROW, OTHER], [ROW, OTHER], [ROW]],
    [[ROW, OTHER], [ROW, OTHER], [ROW, OTHER, ROW]],
], ids=["split copy", "split and merged", "split last row", "d-1 copies", "d+1 copies", "d-1 rows", "d+1 rows",
        "d-1 predicted rows", "d+1 predicted rows"])
def test_operators_with_the_wrong_row_count_decline(ops):
    text = _block_text(ops)
    assert serialize._loads_canonical(text) is None
    _assert_decodes_as_through_the_stdlib(text)


@pytest.mark.parametrize("opening", ["[[-", "[[1", "[,[", "[ [", " [["])
def test_an_operator_opening_with_other_than_three_brackets_declines(opening):
    text = BASE.replace("]]],[[[", "]]]," + opening, 1)  # the rows after the opening are canonical
    assert serialize._loads_canonical(text) is None
    _assert_decodes_as_through_the_stdlib(text)


def test_a_bare_negative_zero_in_one_copy_of_a_row_decodes_bit_identically():
    copy = ROW.replace("0.0]]", "-0]]")  # the integer 0, so the copy reads as the same bits as ROW
    same = [op.tobytes() for op in loads(_block_text([[ROW, ROW], [ROW, ROW]]))["operators"]]
    for ops in ([[ROW, ROW], [copy, ROW]], [[ROW, ROW], [ROW, copy]], [[ROW, copy], [ROW, ROW]]):
        fast, _ = _assert_same_decode(_block_text(ops))
        assert [op.tobytes() for op in fast["operators"]] == same
    _assert_same_decode(_block_text([[ROW, ROW], [ROW.replace("0.0]]", "-0.0]]"), ROW]]))


def _loads_and_parses(text, monkeypatch):
    """``loads(text)``, and every text ``json.loads`` received while it ran."""
    parsed = []
    real_loads = json.loads

    def counting_loads(s, *args, **kwargs):
        parsed.append(s)
        return real_loads(s, *args, **kwargs)

    monkeypatch.setattr(serialize.json, "loads", counting_loads)
    data = loads(text)
    monkeypatch.undo()
    return data, parsed


def test_each_distinct_row_is_parsed_once(monkeypatch):
    family = ChannelSpec("decoherence_pm_basis", {"gamma": 0.1, "qubits": 5, "max_errors": 2})
    rec = synthesize_recovery(builtin_code("phase5"), build_channel(family), seed=3)
    text = dumps_canonical(recovery_to_json(rec))
    rows = list(dict.fromkeys(json.dumps(row, separators=(",", ":")) for op in json.loads(text)["operators"] for row in op))
    expected = b"[" + ",".join(re.findall(r"[^\[\],]+", ",".join(rows))).encode() + b"]"
    assert len(expected) < len(text) // 4  # the rows do repeat

    data, parsed = _loads_and_parses(text.encode(), monkeypatch)
    assert [op.tobytes() for op in data["operators"]] == [op.tobytes() for op in serialize._pair_array(np.stack(rec.ensemble.operators))]
    start = text.index('"operators":') + len('"operators":')
    # the file without its block, then one call with the distinct rows' numbers, in order of first appearance
    assert parsed == [text[:start] + "NaN" + text[text.index("]]]]", start) + 4 :], expected]


def test_a_pattern_that_changes_between_operators_decodes_bit_identically(monkeypatch):
    # as in phase7's recovery: an all-distinct complement element, then operators of 2 distinct rows each
    rng = np.random.default_rng(21)
    ops = np.concatenate([_distinct(16, 1, rng), _phase_like(4, 3, rng), _distinct(16, 1, rng), _phase_like(4, 2, rng)])
    text = _document(ops)
    _assert_same_decode(text)
    data, (_, numbers) = _loads_and_parses(text, monkeypatch)
    assert [op.tobytes() for op in data["operators"]] == [op.tobytes() for op in serialize._pair_array(ops)]
    assert len(json.loads(numbers)) == (16 + 3 * 2 + 16 + 2 * 2) * 16 * 2  # each distinct row's numbers once


@pytest.mark.parametrize("first, second", [
    ("[[0.5,0.0],[0.0,1.0]]", "[[0.5,0.0],[0.0,1.05]]"),  # the predicted row is a proper prefix of the row
    ("[[0.5,0.0],[0.0,1.05]]", "[[0.5,0.0],[0.0,1.0]]"),  # the row is a proper prefix of the predicted one
    ("[[0.5,0.0],[0.0,1.0]]", "[[0.5,0.0],[0.0,1.0e5]]"),
])
def test_a_row_that_extends_or_cuts_the_predicted_one_decodes_bit_identically(first, second):
    _assert_same_decode(_block_text([[first, first], [first, second]]))  # row 1 of the second operator is predicted
    _assert_same_decode(_block_text([[first, first], [second, first]]))


@pytest.mark.parametrize("second", [
    "[[0.5,0.0],[0.0,1.0,2.0]]", "[[0.5,0.0],[0.0,1.0],[2.0,3.0]]", "[[0.5,0.0],[0.0,1.0]],[[2.0,3.0]]",
    "[[0.5,0.0],[0.0,1.0]] ", "[[0.5,0.0],[0.0,1.0]", "[[0.5,0.0],[0.0,1.0]]]",
])
def test_a_predicted_row_followed_by_other_bytes_decodes_as_through_the_stdlib(second):
    first = "[[0.5,0.0],[0.0,1.0]]"
    for ops in ([[first, first], [first, second]], [[first, first], [second, first]]):
        _assert_decodes_as_through_the_stdlib(_block_text(ops))


ROW3 = "[[0.5,0.0],[0.0,0.0],[1.0,-1.0]]"
OTHER3 = "[[0.25,0.0],[0.0,0.5],[-1.0,1.0]]"


@pytest.mark.parametrize("separator", ["]] [[", "]]:[[", "]],[ ", "]],,[", "]]],[", "]],]]", "]]][["])
@pytest.mark.parametrize("ops", [[[ROW3, ROW3, ROW3], [ROW3, ROW3, ROW3]], [[ROW3, OTHER3, ROW3], [OTHER3, ROW3, OTHER3]]],
                         ids=["after a predicted row", "after a new row"])
def test_a_row_separator_of_the_right_length_with_other_bytes_declines(separator, ops):
    good = _block_text(ops)
    _assert_same_decode(good)
    cut = good.rindex("]],[[")  # between rows 1 and 2 of the last operator
    text = good[:cut] + separator + good[cut + 5 :]
    assert serialize._loads_canonical(text) is None
    _assert_decodes_as_through_the_stdlib(text)


@pytest.mark.parametrize("where", [0, 5, -1])
def test_a_one_digit_edit_to_one_copy_in_the_last_operator_is_read_in_that_copy(where):
    rng = np.random.default_rng(31)
    ops = _phase_like(3, 4, rng)
    text = _document(ops)
    rows = text.split("]],[[")  # at every row boundary, those between operators included
    last = len(rows) - 8 + where % 8  # a row of the last operator
    digit = re.search(r"[1-9]", rows[last])
    rows[last] = rows[last][: digit.start()] + str(int(digit.group()) % 9 + 1) + rows[last][digit.end() :]
    fast, _ = _assert_same_decode("]],[[".join(rows))
    changed = [(o, i) for o, op in enumerate(fast["operators"]) for i in range(8)
               if op[i].tobytes() != serialize._pair_array(ops[o, i]).tobytes()]
    assert changed == [(3, where % 8)]


@pytest.mark.parametrize("d", [4, 32])
def test_a_block_of_one_operator_decodes_bit_identically(d):
    rng = np.random.default_rng(40 + d)
    _assert_same_decode(_document(_distinct(d, 1, rng)))
    _assert_same_decode(_document(_phase_like(d.bit_length() - 1, 1, rng)))
