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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import Iterable, Iterator, Sequence


class EmptyInstanceError(ValueError):
    """Raised by operations that need at least one interval."""


class UnknownIntervalError(KeyError):
    """Raised when a solution references an id absent from the instance."""


@dataclass(frozen=True)
class Interval:
    """A half-open segment ``[start, end)`` with an identity and a weight."""

    id: int
    start: int
    end: int
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        if not isinstance(self.start, int) or not isinstance(self.end, int):
            raise TypeError("interval endpoints must be exact integers")
        if self.start >= self.end:
            raise ValueError(f"interval {self.id}: start must be < end")
        w = self.weight
        if not isinstance(w, Fraction):
            w = Fraction(w)
            object.__setattr__(self, "weight", w)
        if w < 0:
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
        return all(iv.weight == 1 for iv in self._intervals)

    def permuted(self, order: Sequence[int]) -> "ArrivalSequence":
        """Same intervals, re-ordered by positional indices `order`."""
        return ArrivalSequence(self._intervals[i] for i in order)

    def total_weight(self) -> Fraction:
        return sum((iv.weight for iv in self._intervals), Fraction(0))


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

    _, n_points = normalize_to_grid(seq)
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
    coords = sorted({c for iv in seq for c in (iv.start, iv.end)})
    lo = coords[0]
    g = 0
    for c in coords[1:]:
        g = gcd(g, c - lo)
    if g == 0:  # single interval of zero spread cannot happen (start < end)
        g = 1
    scaled = ArrivalSequence(
        Interval(iv.id, (iv.start - lo) // g, (iv.end - lo) // g, iv.weight)
        for iv in seq
    )
    n_points = (coords[-1] - lo) // g + 1
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
    return sum((seq.by_id(i).weight for i in members), Fraction(0))


def scale_rational_endpoints(
    triples: Iterable[tuple[Fraction | int, Fraction | int, Fraction | int]],
) -> ArrivalSequence:
    """Build a sequence from (start, end, weight) triples with rational endpoints.

    All endpoints are multiplied by the least common denominator so the
    resulting instance has integer coordinates; conflict structure and length
    ratios are unchanged. Ids are assigned 0..n-1 in order.
    """
    rows = [(Fraction(s), Fraction(e), Fraction(w)) for s, e, w in triples]
    denom = 1
    for s, e, _ in rows:
        denom = denom * s.denominator // gcd(denom, s.denominator)
        denom = denom * e.denominator // gcd(denom, e.denominator)
    return ArrivalSequence(
        Interval(i, int(s * denom), int(e * denom), w)
        for i, (s, e, w) in enumerate(rows)
    )


# ---------------------------------------------------------------------------
# Instance file format: JSON Lines, one interval per line, line order is the
# arrival order. {"id": int, "start": int, "end": int, "weight": int or "p/q"}
# with weight optional (default 1). Writers emit ids 0..n-1 in file order.
# ---------------------------------------------------------------------------


def _weight_to_json(w: Fraction):
    if w.denominator == 1:
        return int(w)
    return f"{w.numerator}/{w.denominator}"


def _weight_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError("weight must be an integer or a 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"unsupported weight value: {value!r}")


def dumps_jsonl(seq: ArrivalSequence) -> str:
    lines = []
    for pos, iv in enumerate(seq):
        if iv.id != pos:
            raise ValueError("writers must emit ids 0..n-1 in file order")
        row = {"id": iv.id, "start": iv.start, "end": iv.end}
        if iv.weight != 1:
            row["weight"] = _weight_to_json(iv.weight)
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def loads_jsonl(text: str) -> ArrivalSequence:
    intervals = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
            intervals.append(
                Interval(
                    id=int(row["id"]),
                    start=int(row["start"]),
                    end=int(row["end"]),
                    weight=_weight_from_json(row.get("weight", 1)),
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"line {lineno}: invalid interval record: {exc}") from exc
    return ArrivalSequence(intervals)


def write_jsonl(seq: ArrivalSequence, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_jsonl(seq))


def read_jsonl(path) -> ArrivalSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_jsonl(fh.read())
