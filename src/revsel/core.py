"""Interval geometry, instances, feasibility, and grid normalization.

Coordinates are exact integers. Instances whose natural endpoints are
rationals must be scaled through :func:`scale_rational_endpoints` before an
:class:`Interval` is built; all length comparisons downstream rely on exact
arithmetic (a float coordinate would corrupt the half-length replacement
rule). Weights are exact ``Fraction`` values.

Conflict semantics are half-open: ``[s, f)`` touching ``[f, g)`` does not
conflict. This convention is fixed once here and used by every module.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from operator import sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import _engine


class EmptyInstanceError(ValueError):
    """Raised by operations that need at least one interval."""


class UnknownIntervalError(KeyError):
    """Raised when a solution references an id absent from the instance."""


@dataclass(frozen=True, slots=True)
class Interval:
    """A half-open segment ``[start, end)`` with an identity and a weight."""

    id: int
    start: int
    end: int
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        start, end = self.start, self.end
        # bool is an int that the JSONL writer would write as true/false,
        # which the reader rejects.
        if (not isinstance(start, int) or not isinstance(end, int)
                or type(start) is bool or type(end) is bool):
            raise TypeError("interval endpoints must be exact integers")
        if start >= end:
            raise ValueError(f"interval {self.id}: start must be < end")
        w = self.weight
        if not isinstance(w, Fraction):
            w = Fraction(w)
            object.__setattr__(self, "weight", w)
        if w.numerator < 0:  # the denominator is positive; cheaper than w < 0
            raise ValueError(f"interval {self.id}: weight must be non-negative")

    @property
    def length(self) -> int:
        return self.end - self.start


def conflicts(a: Interval, b: Interval) -> bool:
    """True iff the two intervals overlap (half-open: touching is fine)."""
    return max(a.start, b.start) < min(a.end, b.end)


def contains_properly(outer: Interval, inner: Interval) -> bool:
    """True iff `inner` lies inside `outer` and they are not identical.

    Sharing one endpoint still counts as proper containment; sharing both
    (equal geometry) does not.
    """
    return (
        outer.start <= inner.start
        and inner.end <= outer.end
        and (outer.start, outer.end) != (inner.start, inner.end)
    )


def overlap_amount(a: Interval, b: Interval) -> int:
    """Length of the common part of the two intervals (0 when disjoint)."""
    return max(0, min(a.end, b.end) - max(a.start, b.start))


class Columns(NamedTuple):
    """An instance's one integer form, in arrival order: the ids, the
    endpoints, and each weight times `scale`, the lcm of the weights'
    denominators, so that a weight total is ``Fraction(total, scale)``."""

    ids: tuple[int, ...]
    starts: tuple[int, ...]
    ends: tuple[int, ...]
    weights: tuple[int, ...]
    scale: int


class ArrivalSequence(Sequence[Interval]):
    """An instance: intervals in online arrival order, with distinct ids.

    It holds its :class:`Columns` or its ``Interval`` tuple and builds the
    other once, on first use; every sequence :func:`loads_jsonl` reads starts
    from the columns. ``==`` and ``hash`` compare the columns, which are equal
    exactly when the interval tuples are, since the weights fix the scale.
    """

    def __init__(self, intervals: Iterable[Interval]):
        self._intervals = tuple(intervals)
        self._n = len(self._intervals)
        self._pos = {iv.id: p for p, iv in enumerate(self._intervals)}
        if len(self._pos) != len(self._intervals):
            seen = set()
            for iv in self._intervals:
                if iv.id in seen:
                    raise ValueError(f"duplicate interval id {iv.id}")
                seen.add(iv.id)

    @classmethod
    def _from_columns(cls, columns: Columns) -> ArrivalSequence:
        """A sequence over checked columns whose ids are 0..n-1 in order, so
        that each id is its own position and no id map is kept."""
        seq = cls.__new__(cls)
        seq.columns = columns
        seq._n = len(columns.ids)
        seq._pos = None
        return seq

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __getitem__(self, i):
        return self._intervals[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, ArrivalSequence) and self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def position(self, interval_id: int) -> int:
        """The arrival position of the interval with this id. Without an id
        map (ids 0..n-1) an exact int is its own position, and any other key
        is found as a dict of the ids would find it: the one id whose hash is
        the key's (an int's hash is itself below n), if it compares equal, so
        True and 1.0 find 1."""
        if self._pos is None:
            if type(interval_id) is int and 0 <= interval_id < self._n:
                return interval_id
            p = hash(interval_id)
            if 0 <= p < self._n and p == interval_id:
                return p
            raise UnknownIntervalError(interval_id)
        try:
            return self._pos[interval_id]
        except KeyError:
            raise UnknownIntervalError(interval_id) from None

    def by_id(self, interval_id: int) -> Interval:
        return self._intervals[self.position(interval_id)]

    def lengths(self) -> frozenset[int]:
        return frozenset(map(sub, self.columns.ends, self.columns.starts))

    def is_unweighted(self) -> bool:
        return self.columns.scale == 1 and set(self.columns.weights) <= {1}

    @cached_property
    def columns(self) -> Columns:
        """The instance's :class:`Columns`, shared by every reader."""
        ivs = self._intervals
        # Keyed by (numerator, denominator): a pair hashes faster than a Fraction.
        keys = [iv.weight.as_integer_ratio() for iv in ivs]
        return _columns(
            tuple(self._pos),
            tuple(iv.start for iv in ivs),
            tuple(iv.end for iv in ivs),
            keys,
            {k: Fraction(*k) for k in set(keys)},
        )

    @cached_property
    def _intervals(self) -> tuple[Interval, ...]:
        """The intervals of a sequence that started from its columns."""
        ids, starts, ends, weights, scale = self.columns
        exact = {w: Fraction(w, scale) for w in set(weights)}
        return tuple(map(Interval, ids, starts, ends, map(exact.__getitem__, weights)))


def _columns(ids, starts, ends, keys: list, weight_of: dict) -> Columns:
    """The columns of an instance whose i-th weight is ``weight_of[keys[i]]``,
    a ``Fraction``; each distinct key's weight is scaled once."""
    scale = lcm(*{w.denominator for w in weight_of.values()})
    scaled = {k: w.numerator * (scale // w.denominator) for k, w in weight_of.items()}
    return Columns(ids, starts, ends, tuple(map(scaled.__getitem__, keys)), scale)


@dataclass(frozen=True)
class InstanceStats:
    """Shape statistics of an instance.

    k: the number of distinct interval lengths.
    d: the nesting depth, the longest proper-containment chain minus one.
    grid_points: points on the minimal equally spaced grid covering all
        endpoints, used by the call-control correspondence.
    """

    k: int
    d: int
    grid_points: int


def instance_stats(seq: ArrivalSequence) -> InstanceStats:
    """Compute (k, d, grid points) for a non-empty instance.

    The nesting depth counts containers along a single containment chain;
    proper containment forces strictly decreasing lengths, hence d <= k - 1,
    which is asserted.
    """
    if len(seq) == 0:
        raise EmptyInstanceError("instance_stats requires a non-empty instance")
    k = len(seq.lengths())

    d = _nesting_depth(seq)
    assert d <= k - 1, f"nesting depth {d} exceeds k-1={k - 1}"

    _, _, n_points = _grid(seq)
    return InstanceStats(k=k, d=d, grid_points=n_points)


def _nesting_depth(seq: ArrivalSequence) -> int:
    """Longest proper-containment chain minus one, level by level.

    An interval has depth >= j+1 iff it lies properly inside some interval
    of depth >= j. With a level sorted by start and a running max of its
    ends, that test is two bisections per interval: a container either
    starts strictly earlier and ends no earlier, or starts at the same point
    and ends strictly later. Each level is a start-sorted subsequence of the
    one before, and proper containment strictly shortens, so there are at
    most k levels: O(k n log n) in all.
    """
    _, starts, ends, _, _ = seq.columns
    level = sorted(range(len(seq)), key=starts.__getitem__)
    depth = -1
    while level:
        depth += 1
        level_starts = list(map(starts.__getitem__, level))
        reach = list(accumulate(map(ends.__getitem__, level), max))
        inner = []
        for p in level:
            before = bisect_left(level_starts, starts[p])
            upto = bisect_right(level_starts, starts[p], before)
            if (before and reach[before - 1] >= ends[p]) or reach[upto - 1] > ends[p]:
                inner.append(p)
        level = inner
    return depth


def _grid(seq: ArrivalSequence) -> tuple[int, int, int]:
    """(lo, g, n_points) for a non-empty instance: the leftmost coordinate,
    the gcd of every coordinate's distance from it, and the number of grid
    points between the leftmost start and the rightmost end, inclusive.
    Some end lies right of lo (start < end), so g >= 1."""
    _, starts, ends, _, _ = seq.columns
    lo, hi = min(starts), max(ends)
    g = gcd(*{c - lo for column in (starts, ends) for c in column})
    return lo, g, (hi - lo) // g + 1


def normalize_to_grid(seq: ArrivalSequence) -> tuple[ArrivalSequence, int]:
    """Translate and rescale endpoints onto the minimal equally spaced grid.

    Divides all coordinates (after translating the minimum to zero) by the
    gcd of their pairwise differences. Conflict relations and the relative
    order of lengths are preserved exactly. Returns the scaled sequence and
    the number of grid points between the leftmost start and rightmost end,
    inclusive.
    """
    if len(seq) == 0:
        raise EmptyInstanceError("cannot normalize an empty instance")
    lo, g, n_points = _grid(seq)
    scaled = ArrivalSequence(
        Interval(iv.id, (iv.start - lo) // g, (iv.end - lo) // g, iv.weight)
        for iv in seq
    )
    return scaled, n_points


def call_control_point_bound(k: int) -> int:
    """Minimum grid size 2**(2k+1) forcing the adaptive bound onto a path graph."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1 << (2 * k + 1)


def positions_disjoint(starts, ends, positions: Iterable[int]) -> bool:
    """True iff the intervals at these arrival positions are pairwise
    non-conflicting; a position given twice conflicts with itself."""
    chosen = sorted(positions, key=starts.__getitem__)
    # In start order, half-open intervals are disjoint iff each ends by the next's start.
    return all(ends[a] <= starts[b] for a, b in zip(chosen, chosen[1:]))


def validate_solution(seq: ArrivalSequence, members: Iterable[int]) -> bool:
    """True iff the referenced intervals are pairwise non-conflicting."""
    return positions_disjoint(*seq.columns[1:3], map(seq.position, members))


def scaled_weight(seq: ArrivalSequence, members: Iterable[int]) -> int:
    """The total weight of the intervals with ids `members`, times ``seq.columns.scale``."""
    weights = seq.columns.weights
    return sum(weights[seq.position(i)] for i in members)


def solution_weight(seq: ArrivalSequence, members: Iterable[int]) -> Fraction:
    """The total weight of the intervals with ids `members`, exactly."""
    return Fraction(scaled_weight(seq, members), seq.columns.scale)


def scale_rational_endpoints(
    triples: Iterable[tuple[Fraction | int, Fraction | int, Fraction | int]],
) -> ArrivalSequence:
    """Build a sequence from (start, end, weight) triples with rational endpoints.

    All endpoints are multiplied by the least common denominator so the
    resulting instance has integer coordinates; conflict structure and length
    ratios are unchanged. Ids are assigned 0..n-1 in order.
    """
    rows = [(Fraction(s), Fraction(e), Fraction(w)) for s, e, w in triples]
    denom = lcm(*(x.denominator for s, e, _ in rows for x in (s, e)))
    return ArrivalSequence(
        Interval(i, int(s * denom), int(e * denom), w)
        for i, (s, e, w) in enumerate(rows)
    )


# ---------------------------------------------------------------------------
# Instance file format: JSON Lines, one interval per line, line order is the
# arrival order. {"id": int, "start": int, "end": int, "weight": int or "p/q"}
# with weight optional (default 1). Writers emit ids 0..n-1 in file order.
# ---------------------------------------------------------------------------


# A string weight in ASCII digits: an integer or a fraction "p/q".
_WEIGHT_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")

# Lines that loads_jsonl hands to one json.loads call; a bound keeps the
# joined text and the decoded rows of a large file from all being held at once.
_CHUNK_LINES = 256


def _weight_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError("weight must be an integer or a 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _WEIGHT_STRING.fullmatch(value):
            raise ValueError(f"weight must be an integer or a 'p/q' string, got {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"weight {value!r} has a zero denominator") from None
    raise ValueError(f"unsupported weight value: {value!r}")


def dumps_jsonl(seq: ArrivalSequence) -> str:
    """One line per interval, keys sorted as ``json.dumps(sort_keys=True)``
    writes them; the weight is left out when it is 1."""
    lines = []
    for pos, iv in enumerate(seq):
        if iv.id != pos:
            raise ValueError("writers must emit ids 0..n-1 in file order")
        start, end, w = iv.start, iv.end, iv.weight
        if type(start) is not int or type(end) is not int:
            # An int subclass may format itself otherwise; json.dumps
            # writes its int value.
            start, end = int(start), int(end)
        if w.denominator != 1:
            tail = f', "weight": "{w.numerator}/{w.denominator}"}}'
        elif w.numerator != 1:
            tail = f', "weight": {w.numerator}}}'
        else:
            tail = "}"
        lines.append(f'{{"end": {end}, "id": {pos}, "start": {start}{tail}')
    return "\n".join(lines) + ("\n" if lines else "")


def loads_jsonl(text: str) -> ArrivalSequence:
    """Parse an instance file; ids must be 0..n-1 in file order (blank lines
    are skipped). A bad record raises ``ValueError`` naming its line.

    A text as :func:`dumps_jsonl` writes it, with integers of at most 18
    digits, goes straight into columns in the engine's kernel
    (``_engine.jsonl_columns``). The kernel declines every other text before
    it keeps a record, and without a kernel there is none to ask; the chunk
    loop, :func:`_loads_chunks`, then reads the text, and every error and
    line number is its own. Either way each distinct JSON weight is parsed
    once, and the sequence holds its columns and builds ``Interval``s only
    when asked.
    """
    columns = _kernel_columns(text)
    if columns is None:
        return _loads_chunks(text)
    return ArrivalSequence._from_columns(columns)


def _kernel_columns(text: str) -> Columns | None:
    """The columns the kernel reads from `text`, or None where it declines;
    each distinct raw weight is parsed once."""
    read = _engine.jsonl_columns(text)
    if read is None:
        return None
    starts, ends, raw = read
    weights = {w: _weight_from_json(w) for w in set(raw)}
    return _columns(tuple(range(len(starts))), starts, ends, raw, weights)


def _loads_chunks(text: str) -> ArrivalSequence:
    """:func:`loads_jsonl`'s pure-Python reader, for any text. Each chunk of
    records is decoded in one call (:func:`_decode_chunk`) or, where that
    declines, line by line; either way each record gets one check, in
    ``Interval``'s order.
    """
    lines = text.splitlines()
    records = [line for line in lines if line and not line.isspace()]
    starts: list[int] = []
    ends: list[int] = []
    raw: list = []  # each record's JSON weight value
    weights: dict = {}  # JSON weight value -> Fraction, each parsed once
    for lo in range(0, len(records), _CHUNK_LINES):
        chunk = records[lo:lo + _CHUNK_LINES]
        rows = _decode_chunk(chunk)
        if rows is None:  # decoded lazily, so that a bad line raises in the loop
            rows = map(json.loads, map(str.strip, chunk))
        try:
            for row in rows:
                ident, start, end = row["id"], row["start"], row["end"]
                # A JSON float or bool must not pass as an int.
                if type(ident) is not int or type(start) is not int or type(end) is not int:
                    raise TypeError(
                        f"id, start and end must be JSON integers, got {ident!r}, {start!r}, {end!r}"
                    )
                w = row.get("weight", 1)
                # true == 1, so only an int or str may look up the cache.
                fresh = (type(w) is not int and type(w) is not str) or w not in weights
                if fresh:
                    weights[w] = _weight_from_json(w)
                if start >= end:
                    raise ValueError(f"interval {ident}: start must be < end")
                if fresh and weights[w].numerator < 0:
                    raise ValueError(f"interval {ident}: weight must be non-negative")
                if ident != len(starts):
                    break  # raised below, without the record-error prefix
                starts.append(start)
                ends.append(end)
                raw.append(w)
            else:
                continue
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise ValueError(
                f"line {_line_number(lines, len(starts))}: invalid interval record: {exc}"
            ) from exc
        raise ValueError(
            f"line {_line_number(lines, len(starts))}: expected id {len(starts)}, got {ident} "
            "(ids are 0..n-1 in file order)"
        )
    return ArrivalSequence._from_columns(
        _columns(tuple(range(len(starts))), tuple(starts), tuple(ends), raw, weights)
    )


def _decode_chunk(lines: list[str]) -> list | None:
    """The JSON values of `lines`, one per line, from one C decoder call; None
    unless each line provably decoded as ``json.loads`` decodes it alone.

    The chunk is decoded as ``[[line],[line],...]``: the lines must hold no
    bracket of their own, and the chunk must decode to one list per line,
    each holding one value. Every bracket is then structural (none lies in
    a string), so each line sits alone between its own pair and is one JSON
    value. A line that runs into the next, holds two values or leaves a
    string open is declined, and so is nesting deep enough to hit the
    recursion limit.
    """
    body = "[[" + "],[".join(lines) + "]]"
    if body.count("[") != len(lines) + 1 or body.count("]") != len(lines) + 1:
        return None
    try:
        rows = json.loads(body)
        if len(rows) == len(lines):
            return [row for (row,) in rows]
    except (ValueError, RecursionError):
        pass
    return None


def _line_number(lines: list[str], index: int) -> int:
    """The number of the line holding the record at `index`, from 0."""
    return [n for n, line in enumerate(lines, 1) if line and not line.isspace()][index]


def write_jsonl(seq: ArrivalSequence, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_jsonl(seq))


def read_jsonl(path) -> ArrivalSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_jsonl(fh.read())
