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
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence


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


def partial_conflict(a: Interval, b: Interval) -> bool:
    """Overlap with neither side containing the other (coincidence excluded)."""
    return (
        conflicts(a, b)
        and not contains_properly(a, b)
        and not contains_properly(b, a)
        and (a.start, a.end) != (b.start, b.end)
    )


class ArrivalSequence(Sequence[Interval]):
    """An instance: intervals in online arrival order, with distinct ids."""

    def __init__(self, intervals: Iterable[Interval]):
        self._intervals = tuple(intervals)
        seen = set()
        for iv in self._intervals:
            if iv.id in seen:
                raise ValueError(f"duplicate interval id {iv.id}")
            seen.add(iv.id)
        self._by_id = {iv.id: iv for iv in self._intervals}
        self._scaled = None  # see integer_weights

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __getitem__(self, i):
        return self._intervals[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ArrivalSequence)
            and self._intervals == other._intervals
        )

    def __hash__(self):
        return hash(self._intervals)

    def by_id(self, interval_id: int) -> Interval:
        try:
            return self._by_id[interval_id]
        except KeyError:
            raise UnknownIntervalError(interval_id) from None

    @property
    def ids(self) -> frozenset[int]:
        return frozenset(self._by_id)

    def lengths(self) -> frozenset[int]:
        return frozenset(iv.length for iv in self._intervals)

    def is_single_length(self) -> bool:
        return len(self.lengths()) <= 1

    def is_unweighted(self) -> bool:
        scale, weight_of = self.integer_weights()
        return scale == 1 and set(weight_of.values()) <= {1}

    def integer_weights(self) -> tuple[int, dict[int, int]]:
        """(scale, weight by id): every weight as an integer over one
        scale, the lcm of their denominators, keyed by id in arrival order.
        Built once, on first use (the intervals never change), and shared
        by every caller, which must not mutate it."""
        if self._scaled is None:
            weights = [iv.weight for iv in self._intervals]
            scale = lcm(*{w.denominator for w in weights})
            scaled = (w.numerator * (scale // w.denominator) for w in weights)
            self._scaled = (scale, dict(zip(self._by_id, scaled)))
        return self._scaled

    def permuted(self, order: Sequence[int]) -> "ArrivalSequence":
        """Same intervals, re-ordered by positional indices `order`."""
        return ArrivalSequence(self._intervals[i] for i in order)


@dataclass(frozen=True)
class InstanceStats:
    """Shape statistics of an instance.

    distinct_lengths: number of different interval lengths (k).
    nesting_depth: longest proper-containment chain minus one (d).
    grid_points: points on the minimal equally spaced grid covering all
        endpoints, used by the call-control correspondence.
    """

    distinct_lengths: int
    nesting_depth: int
    grid_points: int

    @property
    def k(self) -> int:
        return self.distinct_lengths

    @property
    def d(self) -> int:
        return self.nesting_depth


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
    return InstanceStats(distinct_lengths=k, nesting_depth=d, grid_points=n_points)


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
    level = sorted(seq, key=lambda iv: iv.start)
    depth = -1
    while level:
        depth += 1
        starts = [iv.start for iv in level]
        reach = list(accumulate((iv.end for iv in level), max))
        inner = []
        for iv in level:
            before = bisect_left(starts, iv.start)
            upto = bisect_right(starts, iv.start, before)
            if (before and reach[before - 1] >= iv.end) or reach[upto - 1] > iv.end:
                inner.append(iv)
        level = inner
    return depth


def _grid(seq: ArrivalSequence) -> tuple[int, int, int]:
    """(lo, g, n_points) for a non-empty instance: the leftmost coordinate,
    the gcd of every coordinate's distance from it, and the number of grid
    points between the leftmost start and the rightmost end, inclusive.
    Some end lies right of lo (start < end), so g >= 1."""
    lo = min(iv.start for iv in seq)
    hi = max(iv.end for iv in seq)
    g = gcd(*{c - lo for iv in seq for c in (iv.start, iv.end)})
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


def validate_solution(seq: ArrivalSequence, members: Iterable[int]) -> bool:
    """True iff the referenced intervals are pairwise non-conflicting."""
    chosen = [seq.by_id(i) for i in members]
    chosen.sort(key=lambda iv: iv.start)
    for a, b in zip(chosen, chosen[1:]):
        if conflicts(a, b):
            return False
    return True


def solution_weight(seq: ArrivalSequence, members: Iterable[int]) -> Fraction:
    """The total weight of the intervals with ids `members`, exactly."""
    scale, weight_of = seq.integer_weights()
    try:
        total = sum(map(weight_of.__getitem__, members))
    except KeyError as exc:
        raise UnknownIntervalError(exc.args[0]) from None
    return Fraction(total, scale)


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
    are skipped). A bad record raises ``ValueError`` naming its line."""
    lines = text.splitlines()
    intervals = _decode_chunks(lines)
    if intervals is None:
        intervals = _decode_lines(lines)
    return ArrivalSequence(intervals)


def _decode_chunks(lines: list[str]) -> list[Interval] | None:
    """The records of `lines`, decoded by the C decoder a chunk at a time,
    or None when a line is not a valid record; :func:`_decode_lines` then
    names it.

    A chunk is decoded as ``[[line],[line],...]``: the lines must hold no
    bracket of their own, and the chunk must decode to one list per line,
    each holding one object. Every bracket is then structural (none lies in
    a string), so each line sits alone between its own pair and is one JSON
    value, decoded as ``json.loads`` decodes that line alone. A line that
    runs into the next, holds two values or leaves a string open ends the
    fast path, and so does nesting deep enough to hit the recursion limit.
    """
    records = [line for line in lines if line and not line.isspace()]
    intervals: list[Interval] = []
    weights: dict = {}  # JSON weight value -> Fraction, each parsed once
    for lo in range(0, len(records), _CHUNK_LINES):
        chunk = records[lo:lo + _CHUNK_LINES]
        body = "[[" + "],[".join(chunk) + "]]"
        if body.count("[") != len(chunk) + 1 or body.count("]") != len(chunk) + 1:
            return None
        try:
            rows = json.loads(body)
            if len(rows) != len(chunk):
                return None
            for (row,) in rows:
                if type(row) is not dict:
                    return None
                ident, start, end = row["id"], row["start"], row["end"]
                if (type(ident) is not int or type(start) is not int
                        or type(end) is not int or ident != len(intervals)):
                    return None
                w = row.get("weight", 1)
                if type(w) is not int and type(w) is not str:
                    return None
                weight = weights.get(w)
                if weight is None:
                    weight = weights[w] = _weight_from_json(w)
                intervals.append(Interval(ident, start, end, weight))
        except (KeyError, ValueError, TypeError, RecursionError):
            return None
    return intervals


def _decode_lines(lines: list[str]) -> list[Interval]:
    """The records of `lines` one line at a time; the only reader that
    raises, with the number of the first bad line."""
    intervals = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
            ident, start, end = row["id"], row["start"], row["end"]
            # A JSON float or bool must not pass as an int.
            if type(ident) is not int or type(start) is not int or type(end) is not int:
                raise TypeError(
                    f"id, start and end must be JSON integers, got {ident!r}, {start!r}, {end!r}"
                )
            iv = Interval(
                id=ident,
                start=start,
                end=end,
                weight=_weight_from_json(row.get("weight", 1)),
            )
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise ValueError(f"line {lineno}: invalid interval record: {exc}") from exc
        if iv.id != len(intervals):
            raise ValueError(
                f"line {lineno}: expected id {len(intervals)}, got {iv.id} "
                "(ids are 0..n-1 in file order)"
            )
        intervals.append(iv)
    return intervals


def write_jsonl(seq: ArrivalSequence, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_jsonl(seq))


def read_jsonl(path) -> ArrivalSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_jsonl(fh.read())
