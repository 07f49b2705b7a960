"""Geometry predicates, instance statistics, grid normalization, file IO."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revsel.algorithms import ThresholdPolicyTables
from revsel.core import (
    ArrivalSequence,
    EmptyInstanceError,
    _decode_chunks,
    _decode_lines,
    Interval,
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


def test_jsonl_round_trip():
    s = ArrivalSequence(
        [iv(0, 0, 5), iv(1, 2, 9, Fraction(3, 2)), iv(2, -4, -1, 7)]
    )
    text = dumps_jsonl(s)
    assert loads_jsonl(text) == s
    assert '"weight": "3/2"' in text
    assert text == dumps_jsonl(loads_jsonl(text))


def test_jsonl_writer_requires_sequential_ids():
    with pytest.raises(ValueError):
        dumps_jsonl(ArrivalSequence([iv(1, 0, 5)]))


def test_jsonl_rejects_garbage():
    with pytest.raises(ValueError):
        loads_jsonl('{"id": 0, "start": 1}\n')
    with pytest.raises(ValueError):
        loads_jsonl('{"id": 0, "start": 3, "end": 3}\n')


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


def test_jsonl_integer_fields_stay_exact():
    (only,) = loads_jsonl('{"id": 0, "start": -9007199254740993, "end": 2}\n')
    assert only.start == -9007199254740993 and type(only.start) is int


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


def test_jsonl_weight_with_zero_denominator_names_its_line():
    text = '{"id": 0, "start": 0, "end": 2}\n{"id": 1, "start": 0, "end": 2, "weight": "1/0"}\n'
    with pytest.raises(
        ValueError, match=r"^line 2: invalid interval record: weight '1/0' has a zero denominator$"
    ):
        loads_jsonl(text)


@pytest.mark.parametrize("weight", [
    "0.5", "1e3", " 3 ", "3 ", "+3", "3/-2", "-3/-2", "1/2/3", "/2", "3/", "", "nan",
    "inf", "0x10", "1_000", "\u0663", "3\n",
])
def test_jsonl_rejects_string_weights_outside_the_grammar(weight):
    record = json.dumps({"id": 0, "start": 0, "end": 2, "weight": weight})
    with pytest.raises(ValueError, match=r"^line 1: invalid interval record: weight must be"):
        loads_jsonl(record + "\n")


@pytest.mark.parametrize("weight, value", [
    ("3", 3), ("007", 7), ("-0", 0), ("0/5", 0), ("10/4", Fraction(5, 2)), (4, 4),
])
def test_jsonl_reads_string_weights_in_the_grammar(weight, value):
    record = json.dumps({"id": 0, "start": 0, "end": 2, "weight": weight})
    (only,) = loads_jsonl(record + "\n")
    assert only.weight == value


def test_negative_string_weight_is_rejected_by_the_interval():
    with pytest.raises(ValueError, match=r"^line 1: .*weight must be non-negative"):
        loads_jsonl('{"id": 0, "start": 0, "end": 2, "weight": "-1/2"}\n')


# -- the chunked reader against the per-line loop ---------------------------------


def _per_line(text):
    """The per-line loop alone: an ArrivalSequence or the error message."""
    try:
        return ArrivalSequence(_decode_lines(text.splitlines()))
    except ValueError as exc:
        return str(exc)


def _read(text):
    try:
        return loads_jsonl(text)
    except ValueError as exc:
        return str(exc)


def _assert_readers_agree(text):
    lines = text.splitlines()
    expected = _per_line(text)
    assert _read(text) == expected
    fast = _decode_chunks(lines)
    # The chunked path may decline a valid file; it never accepts a bad one.
    if fast is not None:
        assert ArrivalSequence(fast) == expected
    return fast


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
]


def _record(i, style):
    s, e = (7 * i) % 23 - 4, (7 * i) % 23 - 4 + 1 + i % 5
    return [
        f'{{"id": {i}, "start": {s}, "end": {e}}}',
        f'{{"end":{e},"start":{s},"id":{i}, "weight": "{i % 4}/3"}}',
        f'\t{{ "start" : {s} , "id" : {i} , "end" : {e} , "weight" : {i % 3} , "note": "\\u00e9" }}  ',
    ][style]


@given(
    st.integers(0, 600),
    st.lists(st.tuples(st.integers(0, 600), st.sampled_from(range(len(ODD_LINES) + 3))),
             max_size=3),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.integers(0, 2),
)
@settings(max_examples=150, deadline=None)
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
    fast = _assert_readers_agree(text)
    if not edits:
        assert fast is not None  # a plain valid file takes the chunked path


@pytest.mark.parametrize("odd", ODD_LINES)
@pytest.mark.parametrize("pos", [1, 290])
def test_each_odd_line_reads_as_the_per_line_loop_reads_it(odd, pos):
    """Each odd line after unit records, in the first chunk and in a later one."""
    lines = [f'{{"id": {i}, "start": {i}, "end": {i + 2}}}' for i in range(300)]
    lines[pos] = odd.replace("{i}", str(pos))
    _assert_readers_agree("\n".join(lines) + "\n")


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
    assert _decode_chunks(text.splitlines()) is None
    with pytest.raises(ValueError, match=rf"^line {bad_line}: "):
        loads_jsonl(text)
    _assert_readers_agree(text)


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


@given(st.lists(st.tuples(
    st.integers(-2**70, 2**70), st.integers(1, 2**66),
    st.one_of(st.just(Fraction(1)), st.fractions(min_value=0, max_denominator=10**20)),
), max_size=30))
@settings(max_examples=200, deadline=None)
def test_jsonl_writer_matches_json_dumps_per_record(rows):
    s = ArrivalSequence(Interval(i, a, a + ln, w) for i, (a, ln, w) in enumerate(rows))
    text = dumps_jsonl(s)
    assert text == _reference_jsonl(s)
    assert loads_jsonl(text) == s


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


def test_jsonl_nesting_beyond_the_recursion_limit_names_its_line():
    deep = '{"a": ' * 5000 + "1" + "}" * 5000
    text = '{"id": 0, "start": 0, "end": 2}\n{"id": 1, "start": 0, "end": 2, "x": ' + deep + "}\n"
    with pytest.raises(
        ValueError, match=r"^line 2: invalid interval record: maximum recursion depth exceeded"
    ):
        loads_jsonl(text)
