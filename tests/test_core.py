"""Geometry predicates, instance statistics, grid normalization, file IO."""

import copy
import json
import pickle
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import interval_decode_lines, interval_loads_jsonl
from revsel import _engine
from revsel.adversary import gen_random_instance
from revsel.algorithms import ThresholdPolicyTables
from revsel.core import (
    _CHUNK_LINES,
    ArrivalSequence,
    EmptyInstanceError,
    Interval,
    UnknownIntervalError,
    _decode_chunk,
    _loads_chunks,
    call_control_point_bound,
    conflicts,
    contains_properly,
    dumps_jsonl,
    instance_stats,
    loads_jsonl,
    normalize_to_grid,
    overlap_amount,
    scale_rational_endpoints,
    validate_solution,
)


@pytest.fixture(params=["kernel", "loop"] if _engine.COMPILED else ["loop"])
def reader(request, monkeypatch):
    """Runs a loader test as loaded and, with the kernel, again with the
    kernel reader declining every text, so that the chunk loop reads the
    canonical texts too."""
    if request.param == "loop":
        monkeypatch.setattr(_engine, "jsonl_columns", lambda text: None)


both_readers = pytest.mark.usefixtures("reader")
# The reader fixture patches the same function for every example.
FIXTURE = HealthCheck.function_scoped_fixture


def iv(i, s, e, w=1):
    return Interval(i, s, e, Fraction(w))


def seq(*coords):
    return ArrivalSequence(Interval(i, s, e) for i, (s, e) in enumerate(coords))


# -- interval validity -------------------------------------------------------


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        Interval(0, 3, 3)
    with pytest.raises(ValueError):
        Interval(0, 5, 2)
    with pytest.raises(ValueError):
        Interval(0, 0, 1, Fraction(-1))
    with pytest.raises(TypeError):
        Interval(0, 0.0, 1.0)


def test_sequence_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        ArrivalSequence([iv(0, 0, 1), iv(0, 2, 3)])


def test_duplicate_id_message_names_the_first_repeat():
    # 5 arrives first, but 7 is the first id to arrive a second time.
    with pytest.raises(ValueError) as info:
        ArrivalSequence([iv(5, 0, 1), iv(7, 1, 2), iv(7, 2, 3), iv(5, 3, 4)])
    assert str(info.value) == "duplicate interval id 7"
    with pytest.raises(ValueError) as info:
        ArrivalSequence([iv(3, 0, 1), iv(3, 0, 1)])
    assert str(info.value) == "duplicate interval id 3"


# -- conflicts / containment / overlap ---------------------------------------


def test_conflicts_half_open():
    assert not conflicts(iv(0, 0, 2), iv(1, 2, 4))
    assert conflicts(iv(0, 0, 4), iv(1, 1, 3))
    assert conflicts(iv(0, 0, 3), iv(1, 0, 3))


def test_contains_properly():
    assert contains_properly(iv(0, 0, 10), iv(1, 2, 5))
    assert not contains_properly(iv(0, 0, 3), iv(1, 0, 3))
    assert not contains_properly(iv(0, 0, 4), iv(1, 2, 6))
    # sharing one endpoint still counts
    assert contains_properly(iv(0, 0, 10), iv(1, 0, 4))
    assert contains_properly(iv(0, 0, 10), iv(1, 6, 10))


def test_overlap_amount():
    assert overlap_amount(iv(0, 0, 6), iv(1, 4, 10)) == 2
    assert overlap_amount(iv(0, 0, 6), iv(1, 6, 12)) == 0
    assert overlap_amount(iv(0, 0, 10), iv(1, 2, 5)) == 3


intervals_st = st.builds(
    lambda a, b, i: Interval(i, min(a, b), max(a, b) + 1),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(0, 1),
)


@given(intervals_st, intervals_st)
@settings(max_examples=200)
def test_conflict_predicate_properties(a, b):
    assert conflicts(a, b) == conflicts(b, a)
    assert (overlap_amount(a, b) > 0) == conflicts(a, b)
    if contains_properly(a, b):
        assert conflicts(a, b)
        assert not contains_properly(b, a)
    assert not contains_properly(a, a)


# -- instance stats -----------------------------------------------------------


def test_stats_on_two_length_tight_instance():
    s = seq((-10, 10), (-14, -8), (8, 14), (-3, 3), (-8, -2), (2, 8))
    stats = instance_stats(s)
    assert stats.k == 2
    assert stats.d == 1


def test_stats_chain_and_single():
    chain = seq((0, 6), (4, 10), (8, 14), (12, 18), (16, 22))
    stats = instance_stats(chain)
    assert stats.k == 1
    assert stats.d == 0
    single = seq((3, 9))
    assert instance_stats(single).k == 1
    assert instance_stats(single).d == 0


def test_stats_nesting_depth_uses_chains_not_container_counts():
    # two overlapping same-length containers of one small interval: depth 1
    s = seq((0, 10), (2, 12), (3, 8))
    stats = instance_stats(s)
    assert stats.k == 2
    assert stats.d == 1


def test_stats_empty_errors():
    with pytest.raises(EmptyInstanceError):
        instance_stats(ArrivalSequence([]))


@given(st.lists(intervals_st.map(lambda i: (i.start, i.end)), min_size=1, max_size=12))
@settings(max_examples=150)
def test_nesting_depth_bounded_by_k_minus_one(coords):
    s = seq(*coords)
    stats = instance_stats(s)  # d <= k-1 asserted internally
    assert stats.d <= stats.k - 1


# -- grid normalization -------------------------------------------------------


def test_normalize_examples():
    scaled, n = normalize_to_grid(seq((0, 2), (2, 4)))
    assert [(i.start, i.end) for i in scaled] == [(0, 1), (1, 2)]
    assert n == 3

    scaled, n = normalize_to_grid(seq((0, 3), (1, 4)))
    assert [(i.start, i.end) for i in scaled] == [(0, 3), (1, 4)]
    assert n == 5

    scaled, n = normalize_to_grid(seq((10, 20), (14, 22)))
    assert [(i.start, i.end) for i in scaled] == [(0, 5), (2, 6)]
    assert n == 7


@given(st.lists(intervals_st.map(lambda i: (i.start * 3, i.end * 3)), min_size=1, max_size=10))
@settings(max_examples=150)
def test_normalize_preserves_conflicts_and_length_order(coords):
    s = seq(*coords)
    scaled, n = normalize_to_grid(s)
    assert n >= 2
    for a, b in [(a, b) for a in s for b in s if a.id < b.id]:
        sa, sb = scaled.by_id(a.id), scaled.by_id(b.id)
        assert conflicts(a, b) == conflicts(sa, sb)
        assert (a.length < b.length) == (sa.length < sb.length)
        assert (a.length == b.length) == (sa.length == sb.length)


# -- point bound --------------------------------------------------------------


def test_call_control_point_bound():
    assert call_control_point_bound(1) == 8
    assert call_control_point_bound(2) == 32
    assert call_control_point_bound(3) == 128
    assert call_control_point_bound(40) == 2**81  # wide integers, no overflow
    with pytest.raises(ValueError):
        call_control_point_bound(0)


# -- solutions ----------------------------------------------------------------


def test_validate_solution():
    s = seq((0, 2), (2, 4))
    assert validate_solution(s, {0, 1})
    t = seq((0, 4), (1, 3))
    assert not validate_solution(t, {0, 1})
    assert validate_solution(t, set())
    with pytest.raises(KeyError):
        validate_solution(t, {9})


# -- rational ingest and jsonl ------------------------------------------------


def test_scale_rational_endpoints():
    s = scale_rational_endpoints(
        [(Fraction(1, 2), Fraction(3, 2), 1), (Fraction(3, 2), 2, 1)]
    )
    assert [(i.start, i.end) for i in s] == [(1, 3), (3, 4)]
    assert not conflicts(s[0], s[1])


@both_readers
def test_jsonl_round_trip():
    s = ArrivalSequence(
        [iv(0, 0, 5), iv(1, 2, 9, Fraction(3, 2)), iv(2, -4, -1, 7)]
    )
    text = dumps_jsonl(s)
    assert loads_jsonl(text) == s
    assert '"weight": "3/2"' in text
    assert text == dumps_jsonl(loads_jsonl(text))


class _Loud(int):
    """An int that formats and prints itself unlike its value."""

    def __format__(self, spec):
        return f"loud {int(self)}"

    def __str__(self):
        return "loud"


@both_readers
def test_jsonl_writer_writes_int_subclasses_as_json_dumps_does():
    s = ArrivalSequence([
        iv(0, _Loud(-3), _Loud(4)), iv(1, 5, _Loud(9), Fraction(3, 2)), iv(2, _Loud(10), 12, 7),
    ])
    records = []
    for i in s:
        row = {"id": i.id, "start": i.start, "end": i.end}
        if i.weight != 1:
            w = i.weight
            row["weight"] = w.numerator if w.denominator == 1 else f"{w.numerator}/{w.denominator}"
        records.append(json.dumps(row, sort_keys=True))
    text = dumps_jsonl(s)
    assert text.splitlines() == records
    assert loads_jsonl(text) == s
    assert dumps_jsonl(loads_jsonl(text)) == text


def test_jsonl_writer_requires_sequential_ids():
    with pytest.raises(ValueError):
        dumps_jsonl(ArrivalSequence([iv(1, 0, 5)]))


@both_readers
def test_jsonl_rejects_garbage():
    with pytest.raises(ValueError):
        loads_jsonl('{"id": 0, "start": 1}\n')
    with pytest.raises(ValueError):
        loads_jsonl('{"id": 0, "start": 3, "end": 3}\n')


@both_readers
@pytest.mark.parametrize("field", ["id", "start", "end"])
@pytest.mark.parametrize("value", ["1.0", "0.9", "true", "false", '"1"', "null"])
def test_jsonl_rejects_non_integer_ids_and_coordinates(field, value):
    # With the integer 1 in place of `value`, the second record is valid.
    fields = {"id": "1", "start": "1", "end": "4"}
    fields[field] = value
    bad = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    with pytest.raises(ValueError, match=r"^line 2: .*JSON integers"):
        loads_jsonl('{"id": 0, "start": 5, "end": 8}\n' + bad + "\n")


@pytest.mark.parametrize("text", [
    '{"left": {"3": true}}',
    '{"left": {"3": 0.7}}',
    '{"right": {"3": 1.0}}',
    '{"left_default": true}',
    '{"right_default": 0.0}',
    '{"left": {"0.7": 1}}',
    '{"right": {"x": 1}}',
    '{"left": {" 3": 1}}',
    '{"left": [1]}',
    '[1, 0]',
])
def test_threshold_tables_reject_non_integer_keys_and_bits(text):
    with pytest.raises(ValueError):
        ThresholdPolicyTables.from_json(text)


def test_threshold_tables_read_integer_keys_and_bits():
    tables = ThresholdPolicyTables.from_json(
        '{"left": {"6": 0, "-2": 1}, "left_default": 1, "right": {"3": 1}}'
    )
    assert tables == ThresholdPolicyTables(
        left={6: 0, -2: 1}, right={3: 1}, left_default=1, right_default=0
    )


@both_readers
def test_jsonl_integer_fields_stay_exact():
    (only,) = loads_jsonl('{"id": 0, "start": -9007199254740993, "end": 2}\n')
    assert only.start == -9007199254740993 and type(only.start) is int


@both_readers
def test_jsonl_reader_requires_ids_in_file_order():
    def text(*ids):  # one record per id; None is a blank line
        return "\n".join(
            "" if i is None else f'{{"id": {i}, "start": {3 * k}, "end": {3 * k + 1}}}'
            for k, i in enumerate(ids)
        )

    assert [i.id for i in loads_jsonl(text(0, None, 1))] == [0, 1]
    for ids, line in (((1, 0), 1), ((0, None, 2), 3), ((0, 0), 2), ((0, -1), 2)):
        with pytest.raises(ValueError, match=rf"^line {line}: expected id"):
            loads_jsonl(text(*ids))


@both_readers
def test_jsonl_weight_with_zero_denominator_names_its_line():
    text = '{"id": 0, "start": 0, "end": 2}\n{"id": 1, "start": 0, "end": 2, "weight": "1/0"}\n'
    with pytest.raises(
        ValueError, match=r"^line 2: invalid interval record: weight '1/0' has a zero denominator$"
    ):
        loads_jsonl(text)


@both_readers
@pytest.mark.parametrize("weight", [
    "0.5", "1e3", " 3 ", "3 ", "+3", "3/-2", "-3/-2", "1/2/3", "/2", "3/", "", "nan",
    "inf", "0x10", "1_000", "\u0663", "3\n",
])
def test_jsonl_rejects_string_weights_outside_the_grammar(weight):
    record = json.dumps({"id": 0, "start": 0, "end": 2, "weight": weight})
    with pytest.raises(ValueError, match=r"^line 1: invalid interval record: weight must be"):
        loads_jsonl(record + "\n")


@both_readers
@pytest.mark.parametrize("weight, value", [
    ("3", 3), ("007", 7), ("-0", 0), ("0/5", 0), ("10/4", Fraction(5, 2)), (4, 4),
])
def test_jsonl_reads_string_weights_in_the_grammar(weight, value):
    record = json.dumps({"id": 0, "start": 0, "end": 2, "weight": weight})
    (only,) = loads_jsonl(record + "\n")
    assert only.weight == value


@both_readers
def test_negative_string_weight_is_rejected_by_the_interval():
    with pytest.raises(ValueError, match=r"^line 1: .*weight must be non-negative"):
        loads_jsonl('{"id": 0, "start": 0, "end": 2, "weight": "-1/2"}\n')


# -- the chunked reader against the per-line loop ---------------------------------


def _per_line(text):
    """The per-line loop alone: an ArrivalSequence or the error message."""
    try:
        return ArrivalSequence(interval_decode_lines(text.splitlines()))
    except ValueError as exc:
        return str(exc)


def _chunks(text):
    """The non-blank lines of `text` in the reader's chunks."""
    records = [line for line in text.splitlines() if line.strip()]
    return [records[lo:lo + _CHUNK_LINES] for lo in range(0, len(records), _CHUNK_LINES)]


def _read(text, load=loads_jsonl):
    try:
        return load(text)
    except ValueError as exc:
        return str(exc)


def _assert_readers_agree(text):
    """The reader and the per-line loop give the same sequence or error.
    True when every chunk was decoded in one call."""
    assert _read(text) == _per_line(text)
    _assert_matches_the_interval_loader(text)
    whole = True
    for chunk in _chunks(text):
        rows = _decode_chunk(chunk)
        # The one call may decline a chunk; what it decodes, it decodes as
        # each line alone (repr tells NaN, 1, 1.0 and true apart).
        if rows is None:
            whole = False
        else:
            assert repr(rows) == repr([json.loads(line.strip()) for line in chunk])
    return whole


def _assert_matches_the_interval_loader(text):
    """loads_jsonl reads `text` as the loader that built one Interval per
    record read it: the same columns, intervals, ids, equality and hash, or
    the same error."""
    got, want = _read(text), _read(text, interval_loads_jsonl)
    if isinstance(want, str):
        assert got == want
        return
    assert "_intervals" not in vars(got)  # the reader fills columns alone
    assert got.columns == want.columns
    assert got == want and hash(got) == hash(want)
    assert list(got) == list(want)
    assert [got.by_id(i) for i in reversed(want.columns.ids)] == list(reversed(want))


# One example of each kind of line the per-line loop rejects, or that it
# reads while the chunked path declines it; `{i}` is the id expected there.
ODD_LINES = [
    "not json",
    "[1, 2]",
    "[]",
    "7",
    '"text"',
    "null",
    "{}",
    '{"id": {i}, "start": 0}',
    '{"id": {i}, "start": 0.5, "end": 3}',
    '{"id": {i}, "start": true, "end": 3}',
    '{"id": "{i}", "start": 0, "end": 3}',
    '{"id": {i}, "start": 0, "end": null}',
    '{"id": 99999, "start": 0, "end": 3}',
    '{"id": {i}, "start": 3, "end": 3}',
    '{"id": {i}, "start": 0, "end": 3, "weight": -1}',
    '{"id": {i}, "start": 0, "end": 3, "weight": 1.5}',
    '{"id": {i}, "start": 0, "end": 3, "weight": true}',
    '{"id": {i}, "start": 0, "end": 3, "weight": null}',
    '{"id": {i}, "start": 0, "end": 3, "weight": [1]}',
    '{"id": {i}, "start": 0, "end": 3, "weight": "0.5"}',
    '{"id": {i}, "start": 0, "end": 3, "weight": "1/0"}',
    '{"id": {i}, "start": 0, "end": 3}, {"id": 0, "start": 0, "end": 3}',
    '{"id": {i}, "start": 0, "end": 3, "x": {"a": 1',
    '{"id": {i}, "start": 0, "end": 3, "x": "a',
    '"b": 2}}',
    'b"}',
    '{"id": {i}, "start": 0, "end": 3}]',
    '[{"id": {i}, "start": 0, "end": 3}',
    '{"id": {i}, "start": 0, "end": 3, "x": "a],[b"}',
    '{"id": {i}, "start": 0, "end": 3, "tags": [1, 2]}',
    '{"id": {i}, "start": 0, "end": 3, "id": {i}}',
    '{"id": -1, "id": {i}, "start": 0, "end": 3}',
    '\x1f{"id": {i}, "start": 0, "end": 3}\xa0',
    '\ufeff{"id": {i}, "start": 0, "end": 3}',
    '{"id": {i}, "start": 0, "end": 3, "weight": NaN}',
    # Two faults, one line for each pair of neighbouring checks: the keys,
    # the integer types, the weight's parse, start < end, the weight's sign
    # and the id order. The earlier check names the line.
    '{"id": 0.5, "start": 0}',
    '{"id": {i}, "start": 0.5, "end": 3, "weight": "x"}',
    '{"id": {i}, "start": 3, "end": 3, "weight": "x"}',
    '{"id": {i}, "start": 3, "end": 3, "weight": -1}',
    '{"id": 99999, "start": 0, "end": 3, "weight": -1}',
]


def _record(i, style):
    s, e = (7 * i) % 23 - 4, (7 * i) % 23 - 4 + 1 + i % 5
    return [
        f'{{"id": {i}, "start": {s}, "end": {e}}}',
        f'{{"end":{e},"start":{s},"id":{i}, "weight": "{i % 4}/3"}}',
        f'\t{{ "start" : {s} , "id" : {i} , "end" : {e} , "weight" : {i % 3} , "note": "\\u00e9" }}  ',
    ][style]


@both_readers
@given(
    st.integers(0, 600),
    st.lists(st.tuples(st.integers(0, 600), st.sampled_from(range(len(ODD_LINES) + 3))),
             max_size=3),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.integers(0, 2),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[FIXTURE])
def test_chunked_reader_matches_the_per_line_loop(n, edits, newline, style):
    """Valid files (a mix of key orders, spacing and weights), and the same
    with blank lines, whitespace lines or odd records put in anywhere, also
    past the first chunk. Both paths give the same sequence or the same
    error."""
    lines = [_record(i, (i * style) % 3) for i in range(n)]
    for pos, kind in sorted(edits, reverse=True):
        pos = min(pos, len(lines))
        if kind < len(ODD_LINES):
            lines[pos:pos + 1] = [ODD_LINES[kind].replace("{i}", str(pos))]
        else:
            lines.insert(pos, ["", "   ", "\t \x0c"][kind - len(ODD_LINES)])
    text = newline.join(lines) + (newline if n % 2 else "")
    whole = _assert_readers_agree(text)
    if not edits:
        assert whole  # a plain valid file is decoded a chunk at a time


@both_readers
@pytest.mark.parametrize("odd", ODD_LINES)
@pytest.mark.parametrize("pos", [1, 290])
def test_each_odd_line_reads_as_the_per_line_loop_reads_it(odd, pos):
    """Each odd line after unit records, in the first chunk and in a later one."""
    lines = [f'{{"id": {i}, "start": {i}, "end": {i + 2}}}' for i in range(300)]
    lines[pos] = odd.replace("{i}", str(pos))
    _assert_readers_agree("\n".join(lines) + "\n")


@both_readers
@pytest.mark.parametrize("lines, bad_line", [
    # Joined with commas alone, each of these decodes to three valid records.
    (['{"id": 0, "start": 0, "end": 1}, {"id": 1, "start": 2, "end": 3}',
      '{"id": 2, "start": 5, "end": 9, "x": {"a": 1', '"b": 2}}'], 1),
    (['{"id": 0, "start": 0, "end": 1, "x": "a', 'b"}',
      '{"id": 1, "start": 2, "end": 3}, {"id": 2, "start": 5, "end": 9}'], 1),
    # Each line in its own brackets: a string swallows one separator and a
    # line adds one, so three lines still decode to three lists of one.
    (['{"id": 0, "start": 0, "end": 1, "x": "a', 'b"}',
      '{"id": 1, "start": 2, "end": 3}],[{"id": 2, "start": 5, "end": 9}'], 1),
    # A string that swallows a separator, in a later chunk.
    ([f'{{"id": {i}, "start": 0, "end": 1}}' for i in range(300)]
     + ['{"id": 300, "start": 0, "end": 1, "x": "a', 'b"}'], 301),
])
def test_chunked_reader_keeps_line_boundaries(lines, bad_line):
    text = "\n".join(lines) + "\n"
    assert None in map(_decode_chunk, _chunks(text))
    with pytest.raises(ValueError, match=rf"^line {bad_line}: "):
        loads_jsonl(text)
    _assert_readers_agree(text)


# JSON weights in the grammar, with equal values spelled apart, and two
# (negative, zero denominator) that the reader refuses.
WEIGHTS = [None, 1, 0, 7, 12, "3", "007", "-0", "0/5", "10/4", "5/2", "1/3", "2/6", "7/12",
           "-1/2", "1/0"]


@both_readers
@given(
    st.lists(st.tuples(st.sampled_from(WEIGHTS), st.integers(1, 9), st.booleans()),
             max_size=600),
    st.sampled_from(["\n", "\r\n"]),
)
@settings(max_examples=120, deadline=None, suppress_health_check=[FIXTURE])
def test_loader_matches_the_interval_loader_on_any_weights(rows, newline):
    """Rational, string and repeated weights, blank lines, CRLF and files
    past one chunk, against the loader that built an Interval per record."""
    lines = []
    for i, (weight, length, blank_after) in enumerate(rows):
        record = {"id": i, "start": i - 300, "end": i - 300 + length}
        if weight is not None:
            record["weight"] = weight
        lines.append(json.dumps(record))
        if blank_after:
            lines.append(" " * length)
    text = newline.join(lines) + newline
    # Every line is plain JSON, so even a refused weight is checked in a
    # chunk that was decoded in one call.
    assert _assert_readers_agree(text)


@both_readers
def test_only_the_chunk_holding_an_odd_line_is_decoded_line_by_line(monkeypatch):
    """A valid line the one call declines costs its own chunk a per-line
    decode; the chunks around it are each decoded in one call."""
    lines = [f'{{"id": {i}, "start": {i}, "end": {i + 2}}}' for i in range(600)]
    lines[300] = '{"id": 300, "start": 0, "end": 3, "tags": [1, 2]}'
    decode, calls = json.loads, []
    monkeypatch.setattr(json, "loads", lambda text: calls.append(text) or decode(text))
    seq = loads_jsonl("\n".join(lines))
    monkeypatch.undo()
    assert seq == interval_loads_jsonl("\n".join(lines))
    assert "_intervals" not in vars(seq)
    assert calls[1:-1] == lines[256:512]
    assert [len(decode(c)) for c in (calls[0], calls[-1])] == [256, 88]


def _decoded(*intervals):
    """The sequence of `intervals` as the loader reads it from a file."""
    return loads_jsonl(dumps_jsonl(ArrivalSequence(intervals)))


DECODED_CASES = [
    (),
    (iv(0, 0, 5),),
    (iv(0, 0, 5), iv(1, 2, 9, Fraction(3, 2)), iv(2, -4, -1, 7), iv(3, 1, 2, 0)),
    (iv(0, _Loud(-3), _Loud(4)), iv(1, 5, _Loud(9), Fraction(3, 2)), iv(2, _Loud(10), 12, 7)),
    tuple(iv(i, i, i + 1 + i % 3, Fraction(i % 5, 1 + i % 4)) for i in range(300)),
]


@both_readers
@pytest.mark.parametrize("intervals", DECODED_CASES)
def test_a_decoded_sequence_equals_the_interval_built_one(intervals):
    built = ArrivalSequence(intervals)
    decoded = _decoded(*intervals)
    assert decoded == built and built == decoded
    assert hash(decoded) == hash(built)
    assert decoded.columns == built.columns
    assert list(decoded) == list(built)
    assert all(type(x.weight) is Fraction for x in decoded)
    if intervals:
        assert decoded[0] is decoded[0] and decoded.by_id(0) is decoded[0]
        assert decoded != _decoded(*intervals[:-1])


@both_readers
@pytest.mark.parametrize("built_intervals", [False, True])
def test_a_decoded_sequence_round_trips_through_pickle_and_deepcopy(built_intervals):
    decoded = _decoded(*DECODED_CASES[2])
    if built_intervals:
        decoded[0]
    for twin in (pickle.loads(pickle.dumps(decoded)), copy.deepcopy(decoded)):
        assert twin == decoded and hash(twin) == hash(decoded)
        assert list(twin) == list(decoded)
        assert twin.position(3) == 3 and len(twin) == 4


def _position_outcome(seq, key):
    """The position with its type (True == 1, but a position is an int), or
    the refusal."""
    try:
        p = seq.position(key)
        return type(p), p
    except UnknownIntervalError as exc:
        return "unknown", exc.args


def _read_and_built(n):
    """A sequence of n intervals read from its file, which keeps no id map
    since its ids are 0..n-1, and the same built from its intervals, which
    keeps one."""
    built = ArrivalSequence(Interval(i, i, i + 1) for i in range(n))
    read = loads_jsonl(dumps_jsonl(built))
    assert read._pos is None and built._pos is not None
    return read, built


# Keys that an int id map finds or misses: ints around 0..n-1, ints whose
# hash is small (2**61 - 1 hashes to 0), bools, floats, fractions, strs and
# None.
position_keys = st.one_of(
    st.integers(-3, 24), st.integers(), st.booleans(), st.floats(), st.fractions(),
    st.sampled_from([2**61 - 1, 2**61, 2**61 + 3, -(2**61) + 1, 2**64 + 2, -1, -2]),
    st.text(max_size=2), st.none(),
)


@given(st.integers(0, 20), st.lists(position_keys, max_size=10))
@settings(max_examples=300, deadline=None)
def test_a_read_sequence_finds_positions_as_an_id_map_does(n, keys):
    read, built = _read_and_built(n)
    for key in keys:
        assert _position_outcome(read, key) == _position_outcome(built, key), key


@pytest.mark.parametrize("key, expected", [(True, 1), (1.0, 1), (Fraction(2), 2), (0, 0), (3, 3)])
def test_a_read_sequence_finds_hash_equal_keys(key, expected):
    read, built = _read_and_built(4)
    assert _position_outcome(read, key) == _position_outcome(built, key) == (int, expected)


@pytest.mark.parametrize("key", [-1, 4, 0.5, "1", None, 2**61 - 1, 2**64])
def test_a_read_sequence_refuses_unknown_ids(key):
    read, _ = _read_and_built(4)
    with pytest.raises(UnknownIntervalError):
        read.position(key)


def _reference_jsonl(seq):
    """The writer as one json.dumps call per record."""
    rows = []
    for iv in seq:
        row = {"id": iv.id, "start": iv.start, "end": iv.end}
        if iv.weight != 1:
            w = iv.weight
            row["weight"] = w.numerator if w.denominator == 1 else f"{w.numerator}/{w.denominator}"
        rows.append(json.dumps(row, sort_keys=True) + "\n")
    return "".join(rows)


@both_readers
@given(st.lists(st.tuples(
    st.integers(-2**70, 2**70), st.integers(1, 2**66),
    st.one_of(st.just(Fraction(1)), st.fractions(min_value=0, max_denominator=10**20)),
), max_size=30))
@settings(max_examples=200, deadline=None, suppress_health_check=[FIXTURE])
def test_jsonl_writer_matches_json_dumps_per_record(rows):
    s = ArrivalSequence(Interval(i, a, a + ln, w) for i, (a, ln, w) in enumerate(rows))
    text = dumps_jsonl(s)
    assert text == _reference_jsonl(s)
    assert loads_jsonl(text) == s


@both_readers
@pytest.mark.parametrize("start, end", [(False, True), (0, True), (False, 1)])
def test_bool_coordinates_are_rejected_so_every_interval_round_trips(start, end):
    """The writer would write a bool as true/false, which the reader
    rejects; so the interval refuses it, and the ints it stands for
    round-trip."""
    with pytest.raises(TypeError, match="interval endpoints must be exact integers"):
        Interval(0, start, end, Fraction(3, 2))
    s = ArrivalSequence([Interval(0, int(start), int(end), Fraction(3, 2)), iv(1, 0, 4)])
    text = dumps_jsonl(s)
    assert text == _reference_jsonl(s)
    assert loads_jsonl(text) == s


@both_readers
def test_jsonl_nesting_beyond_the_recursion_limit_names_its_line():
    deep = '{"a": ' * 5000 + "1" + "}" * 5000
    text = '{"id": 0, "start": 0, "end": 2}\n{"id": 1, "start": 0, "end": 2, "x": ' + deep + "}\n"
    with pytest.raises(
        ValueError, match=r"^line 2: invalid interval record: maximum recursion depth exceeded"
    ):
        loads_jsonl(text)


# -- the kernel reader against the chunk loop ---------------------------------------

compiled = pytest.mark.skipif(not _engine.COMPILED, reason="compiled engine not built")

# The widest coordinate the kernel reader takes: 18 digits.
WIDEST = 10**18 - 1
COORDINATES = st.one_of(st.integers(-5, 5), st.integers(-WIDEST, WIDEST - 1))
# Unit, integer and rational weights; a rational's reduced terms keep at
# most 18 digits each.
WEIGHT_MODES = {
    "unit": st.just(Fraction(1)),
    "int": st.one_of(st.integers(0, 3), st.integers(0, WIDEST)).map(Fraction),
    "rational": st.builds(Fraction, st.integers(0, WIDEST), st.integers(1, WIDEST)),
}


@st.composite
def canonical_sequences(draw, min_size=0):
    weights = WEIGHT_MODES[draw(st.sampled_from(sorted(WEIGHT_MODES)))]
    rows = draw(st.lists(st.tuples(COORDINATES, COORDINATES, weights),
                         min_size=min_size, max_size=30))
    # start < end <= WIDEST
    return ArrivalSequence(
        Interval(i, min(a, b), max(a, b) + (a == b), w) for i, (a, b, w) in enumerate(rows)
    )


@given(canonical_sequences())
@settings(max_examples=200, deadline=None)
def test_kernel_reader_reads_the_writers_texts_as_the_chunk_loop(seq):
    """Every text dumps_jsonl writes, with or without its final newline,
    reads to the chunk loop's columns, and the kernel takes it with each
    record's raw JSON weight."""
    text = dumps_jsonl(seq)
    for variant in (text, text[:-1]):
        got = loads_jsonl(variant)
        assert got.columns == _loads_chunks(variant).columns == seq.columns
        assert "_intervals" not in vars(got)
        if _engine.COMPILED:
            rows = [json.loads(line) for line in text.splitlines()]
            starts, ends, weights = _engine.jsonl_columns(variant)
            assert starts == tuple(row["start"] for row in rows)
            assert ends == tuple(row["end"] for row in rows)
            # repr tells the int 3 from the str "3"
            assert repr(weights) == repr(tuple(row.get("weight", 1) for row in rows))


def _with_weight(line, weight):
    return re.sub(r'(, "weight": [^}]*)?\}$', f', "weight": {weight}}}', line)


# One edit of a canonical line each, which the kernel reader declines; the
# chunk loop reads some of the results and refuses the others.
MUTANTS = {
    "blank line": lambda line: line + "\n",
    "crlf": lambda line: line + "\r",
    "minus zero": lambda line: re.sub(r'"start": -?[0-9]+', '"start": -0', line),
    "leading zero": lambda line: line.replace('"id": ', '"id": 0'),
    "19 digits": lambda line: re.sub(r'"end": -?[0-9]+', '"end": 1' + "0" * 18, line),
    "swapped keys": lambda line: re.sub(r'"end": (-?[0-9]+), "id": ([0-9]+)',
                                        r'"id": \2, "end": \1', line),
    "extra space": lambda line: line.replace('"start": ', '"start":  '),
    "zero denominator": lambda line: _with_weight(line, '"3/0"'),
    "negative rational": lambda line: _with_weight(line, '"-1/2"'),
    "non-ascii": lambda line: line.replace('"id"', '"ïd"'),
    "skipped id": lambda line: re.sub(r'"id": ([0-9]+)', lambda m: f'"id": {int(m[1]) + 1}',
                                      line),
    "start == end": lambda line: re.sub(r'^(\{"end": (-?[0-9]+), "id": [0-9]+, "start": )-?[0-9]+',
                                        r"\g<1>\2", line),
}


@given(canonical_sequences(min_size=1), st.sampled_from(sorted(MUTANTS)), st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_reader_declines_edited_texts(seq, mutant, data):
    """An edited line anywhere declines the whole text, which then reads to
    the chunk loop's columns or fails with its exact error and line."""
    lines = dumps_jsonl(seq).splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at] = MUTANTS[mutant](lines[at])
    text = "\n".join(lines) + "\n"
    assert text != dumps_jsonl(seq)
    assert _engine.jsonl_columns(text) is None
    assert _read(text) == _read(text, _loads_chunks)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_edit_declines_on_the_last_line(mutant):
    """Each edit made on the last of 300 lines: the kernel reader declines
    only after checking every line before it."""
    seq = gen_random_instance(300, 3, "rational", 1)
    lines = dumps_jsonl(seq).splitlines()
    lines[-1] = MUTANTS[mutant](lines[-1])
    text = "\n".join(lines) + "\n"
    assert _engine.jsonl_columns(text) is None
    assert _read(text) == _read(text, _loads_chunks)


@pytest.mark.parametrize("text, accepted", [
    ("", True),
    ("\n", False),
    ("\n\n", False),
    (" ", False),
    ('{"end": 1, "id": 0, "start": 0}\n\n', False),
    ('{"end": 1, "id": 0, "start": 0}\n{"end": 1, "id": 1, "start": 0}\n\n', False),
    ('{"end": 1, "id": 0, "start": 0}\n{"end": 1, "id": 1, "start": 0', False),
    ('{"end": 1, "id": 0, "start": 0}\n{"end": 1, "id": 1, "sta', False),
    ('{"end": 1, "id": 0, "start": 0, "weight": "1/01"}\n', True),
    ('{"end": 1, "id": 0, "start": 0, "weight": "1/00"}\n', False),
    ('{"end": 1, "id": 0, "start": 0, "weight": "00/1"}\n', True),
    ('{"end": 1, "id": 0, "start": 0, "weight": 0}\n', True),
    ('{"end": 1, "id": 0, "start": 0, "weight": 00}\n', False),
    ('{"end": 1, "id": 0, "start": 0, "weight": -1}\n', False),
    ('{"end": 1, "id": 0, "start": 0, "weight": "3"}\n', False),
    ('{"end": 1, "id": 0, "start": 0, "weight": "1/2/3"}\n', False),
    ('{"end": 1, "id": 0, "start": 0, "weight": 1}\n', True),
    ('{"end": 1, "id": 0, "start": -0}\n', False),
    (f'{{"end": {WIDEST}, "id": 0, "start": {-WIDEST}}}\n', True),
    (f'{{"end": {WIDEST + 1}, "id": 0, "start": {-WIDEST}}}\n', False),
    (f'{{"end": 1, "id": 0, "start": {-WIDEST - 1}}}\n', False),
    (f'{{"end": 1, "id": 0, "start": 0, "weight": "{WIDEST}/{WIDEST}"}}\n', True),
    (f'{{"end": 1, "id": 0, "start": 0, "weight": "{WIDEST + 1}/3"}}\n', False),
    ('{"end": 1, "id": 0, "start": 0}\x00', False),
    ('{"end": 1, "id": 0, "start": 0}}\n', False),
])
def test_edge_texts_read_as_the_chunk_loop_reads_them(text, accepted):
    """The kernel takes exactly the texts in the writer's form, and every
    text reads to the chunk loop's columns or fails with its error."""
    assert (_engine.jsonl_columns(text) is not None) == (accepted and _engine.COMPILED)
    assert _read(text) == _read(text, _loads_chunks)


def test_kernel_reader_declines_bytes():
    assert _engine.jsonl_columns(b'{"end": 1, "id": 0, "start": 0}\n') is None


@compiled
def test_kernel_reader_peaks_at_half_the_chunk_loop():
    """One load of the 2,000-line rational file through the kernel reader
    keeps no lines, records or decoded rows: its tracemalloc peak is at
    most half of the chunk loop's on the same text."""
    text = dumps_jsonl(gen_random_instance(2000, 3, "rational", 1))
    peaks = {}
    for load in (loads_jsonl, _loads_chunks):
        load(text)  # anything built once per process is built before tracing
        tracemalloc.start()
        try:
            load(text)
            peaks[load] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert _engine.jsonl_columns(text) is not None
    assert peaks[loads_jsonl] <= peaks[_loads_chunks] / 2
