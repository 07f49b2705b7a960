"""Exact offline optima and the mechanized charging audit.

Three independent routes to the offline optimum: earliest-finish-time greedy
(unweighted), dynamic programming over end times (weighted), and exhaustive
subset enumeration (the oracle for the oracles, capped at 20 intervals).
Values are exact rationals throughout.

``verify_charging`` replays a greedy-subsume run and rebuilds the accounting
that maps every optimal interval onto a held interval, checking the
per-interval bounds (at most 2 direct charges and at most 2k-2 transferred
ones, so 2k in all) and that the optimum is charged exactly once each. Each
action of the run is applied through the harness's ``apply_action``, so a
transcript the harness would refuse raises ``InfeasibleActionError``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import Iterable

from . import _engine
from .algorithms import PolicyState
from .core import (
    ArrivalSequence,
    EmptyInstanceError,
    Interval,
    contains_properly,
    solution_weight,
    validate_solution,
)


@dataclass(frozen=True)
class OptCertificate:
    """A feasible solution together with its exact value and provenance."""

    members: frozenset[int]
    value: Fraction
    method: str

    def __post_init__(self):
        assert self.method in ("greedy", "dp", "brute")


def _certify(seq: ArrivalSequence, members: Iterable[int], method: str) -> OptCertificate:
    members = frozenset(members)
    assert validate_solution(seq, members), "oracle produced an infeasible set"
    return OptCertificate(members=members, value=solution_weight(seq, members), method=method)


def _end_order(seq: ArrivalSequence, longer_first: bool) -> list[int]:
    """The arrival positions sorted by end, then by start (descending when
    `longer_first`), then by id: one stable sort per key, last key first."""
    cols = seq.columns
    order = sorted(range(len(seq)), key=cols.ids.__getitem__)
    order.sort(key=cols.starts.__getitem__, reverse=longer_first)
    order.sort(key=cols.ends.__getitem__)
    return order


def opt_unweighted(seq: ArrivalSequence) -> OptCertificate:
    """Maximum-cardinality disjoint subset via earliest-finish-time greedy.

    Ties on end time are broken toward the longer interval last, so a chosen
    set never includes an interval that strictly contains another instance
    interval (its content would have been chosen first).
    """
    if len(seq) == 0:
        raise EmptyInstanceError("opt_unweighted requires a non-empty instance")
    ids, starts, ends, _, _ = seq.columns
    chosen = []
    frontier = None
    for p in _end_order(seq, longer_first=True):
        if frontier is None or starts[p] >= frontier:
            chosen.append(ids[p])
            frontier = ends[p]
    return _certify(seq, chosen, "greedy")


def opt_weighted(seq: ArrivalSequence) -> OptCertificate:
    """Maximum-weight disjoint subset via end-time dynamic programming.

    Half-open compatibility: an interval may start exactly where the previous
    one ends. The DP adds the integer weights of
    :attr:`~revsel.core.ArrivalSequence.columns`, all over one scale, which
    keeps every comparison of the exact weights.
    """
    if len(seq) == 0:
        raise EmptyInstanceError("opt_weighted requires a non-empty instance")
    ids, starts, ends, weights, _ = seq.columns
    order = _end_order(seq, longer_first=False)
    order_ends = [ends[p] for p in order]
    # prev[j]: rightmost index i < j with order[i] ending by order[j]'s start
    prev = [bisect.bisect_right(order_ends, starts[p]) - 1 for p in order]
    best = [0] * (len(order) + 1)
    for j, p in enumerate(order):
        best[j + 1] = max(best[j], weights[p] + best[prev[j] + 1])
    members = []
    j = len(order)
    while j > 0:
        if best[j] == best[j - 1]:
            j -= 1
        else:
            members.append(ids[order[j - 1]])
            j = prev[j - 1] + 1
    return _certify(seq, members, "dp")


BRUTE_FORCE_LIMIT = 20


def opt_bruteforce(seq: ArrivalSequence) -> OptCertificate:
    """Exhaustive search over all subsets; exact, for n <= 20.

    Weights are scaled to integers for the enumeration kernel; the certified
    value is recomputed from the winning subset with exact rationals, so the
    kernel only ever picks the argmax.
    """
    n = len(seq)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_LIMIT} intervals, got {n}")
    if n == 0:
        return OptCertificate(frozenset(), Fraction(0), "brute")
    ids, starts, ends, weights, _ = seq.columns
    _, mask = _engine.best_subset_scaled(starts, ends, weights)
    members = [ids[i] for i in range(n) if mask >> i & 1]
    return _certify(seq, members, "brute")


# ---------------------------------------------------------------------------
# Charging audit for greedy-subsume runs
# ---------------------------------------------------------------------------


class ChargeBoundViolation(AssertionError):
    """The rebuilt charge accounting exceeded a bound; carries the evidence."""

    def __init__(self, message: str, ledger: "ChargeLedger"):
        super().__init__(message)
        self.ledger = ledger


@dataclass(slots=True)
class ChargeRecord:
    """Lifetime charge bookkeeping for one interval the run ever held.

    ``direct_ids`` and ``transferred_ids`` are never cleared (the bounds are
    over an interval's whole lifetime); ``current`` holds the charges that
    sit here right now and is what a displacement hands over.
    """

    direct_ids: list[int] = field(default_factory=list)
    transferred_ids: list[int] = field(default_factory=list)
    current: list[int] = field(default_factory=list)


def _sorted_ids(ids: list[int]) -> list[int]:
    """`ids` in ascending order. Most charge lists hold one id or none: such
    a list is sorted already and is returned itself, since a copy costs
    what the sort would."""
    return ids if len(ids) < 2 else sorted(ids)


@dataclass
class ChargeLedger:
    """Outcome of replaying the charge mapping for one greedy-subsume run.

    ``records`` holds the intervals the run accepted: every charge lands on
    one of them, so an interval without a record was never charged.
    """

    k: int
    normalized_opt: frozenset[int]
    records: dict[int, ChargeRecord]
    events: list[tuple]
    final_members: frozenset[int]
    coincidence_swaps: list[tuple[int, int]]

    @property
    def max_total(self) -> int:
        finals = [self.records[i] for i in self.final_members]
        return max((len(r.direct_ids) + len(r.transferred_ids) for r in finals), default=0)

    def charges_on_final(self) -> int:
        return sum(len(self.records[i].current) for i in self.final_members)

    def to_json_dict(self) -> dict:
        """The ledger as JSON data, for encoding: a charge list of fewer
        than two ids is the record's own list."""
        return {
            "k": self.k,
            "bound": 2 * self.k,
            "max_total_charge": self.max_total,
            "normalized_opt": sorted(self.normalized_opt),
            "final_members": sorted(self.final_members),
            "coincidence_swaps": [list(p) for p in self.coincidence_swaps],
            "per_interval": {
                str(i): {
                    "direct": _sorted_ids(rec.direct_ids),
                    "transferred": _sorted_ids(rec.transferred_ids),
                }
                for i, rec in sorted(self.records.items())
                if rec.direct_ids or rec.transferred_ids
            },
            "events": [list(e) for e in self.events],
        }


def normalize_certificate(
    seq: ArrivalSequence, opt_members: frozenset[int], ever_accepted: Iterable[int]
) -> tuple[frozenset[int], list[tuple[int, int]]]:
    """Rewrite an optimal set so no member strictly contains anything the run
    ever accepted; exact coincidences are resolved toward the accepted copy.

    Each swap keeps cardinality and feasibility (the replacement sits inside
    the member it replaces, so it conflicts nothing else in the set). The
    members are disjoint, so no swap changes what another member may swap
    to, and the swapped-in interval has nothing left to swap: one pass over
    the members in ascending id order makes every swap. A member's
    candidates are the accepted intervals starting inside it; these windows
    are disjoint, so each accepted interval is looked at once at most.
    Returns the rewritten set and the list of coincidence id swaps.
    """
    ids, starts, ends, _, _ = seq.columns
    accepted = set(ever_accepted)
    pool = sorted(map(seq.position, accepted), key=starts.__getitem__)
    pool_starts = [starts[p] for p in pool]
    opt = set(opt_members)
    swaps: list[tuple[int, int]] = []
    for outer in sorted(map(seq.position, opt_members), key=ids.__getitem__):
        opt_id, s, e = ids[outer], starts[outer], ends[outer]
        lo = bisect.bisect_left(pool_starts, s)
        hi = bisect.bisect_left(pool_starts, e, lo)
        window = [p for p in pool[lo:hi] if ids[p] not in opt]
        # Each starts in [s, e): it lies properly inside unless it ends past e or is a copy.
        candidates = [p for p in window if ends[p] <= e and (starts[p], ends[p]) != (s, e)]
        if candidates:
            inner = min(candidates, key=lambda p: (ends[p] - starts[p], starts[p], ids[p]))
            opt.remove(opt_id)
            opt.add(ids[inner])
            continue
        if opt_id in accepted:
            continue
        twins = [ids[p] for p in window if (starts[p], ends[p]) == (s, e)]
        if twins:
            twin = min(twins)
            opt.remove(opt_id)
            opt.add(twin)
            swaps.append((opt_id, twin))
    assert len(opt) == len(opt_members), "normalization changed |OPT|"
    assert validate_solution(seq, opt), "normalization broke feasibility"
    return frozenset(opt), swaps


def _charge_direct(records, events, held, arrival: Interval) -> None:
    """Charge a rejected optimal arrival to the held interval it conflicts
    with; with two partial conflicts, always the one on the right."""
    hits = held.conflicting(arrival)
    assert hits, "rejected optimal arrival conflicts nothing held"
    assert len(hits) <= 2, "an arrival cannot partially conflict 3+ disjoint members"
    for m in hits:
        assert not contains_properly(arrival, m), (
            "normalization left an optimal interval containing a held one"
        )
        assert not contains_properly(m, arrival), (
            "the run rejected an arrival properly inside a member"
        )
    target = hits[-1]  # hits come in start order
    rec = records[target.id]
    rec.direct_ids.append(arrival.id)
    rec.current.append(arrival.id)
    events.append(("direct", arrival.id, target.id))


def _check_bounds(ledger: ChargeLedger) -> ChargeLedger:
    """Every charge lands on a record, so at most 2 direct charges per record
    and 2k - 2 transferred ones per final member leave no final member more
    than 2k in all: that total needs no check of its own."""
    k = ledger.k
    opt_norm = ledger.normalized_opt
    live = [
        i for m in ledger.final_members for i in ledger.records[m].current
    ]
    if sorted(live) != sorted(opt_norm):
        raise ChargeBoundViolation(
            "normalized optimum is not charged exactly once onto the final solution",
            ledger,
        )
    for i, rec in ledger.records.items():
        if len(rec.direct_ids) > 2:
            raise ChargeBoundViolation(
                f"interval {i} took {len(rec.direct_ids)} direct charges (> 2)", ledger
            )
    for m in ledger.final_members:
        rec = ledger.records[m]
        if len(rec.transferred_ids) > 2 * k - 2:
            raise ChargeBoundViolation(
                f"interval {m} received {len(rec.transferred_ids)} transferred charges (> 2k-2)",
                ledger,
            )
    return ledger


def verify_charging(
    seq: ArrivalSequence,
    transcript,
    opt: OptCertificate,
    k: int,
) -> ChargeLedger:
    """Rebuild the direct/transfer charge mapping for a greedy-subsume run.

    The certificate is first normalized (eagerly, against everything the run
    ever accepted), then the arrivals are replayed: an optimal arrival that
    the run accepted charges itself, a rejected one charges the conflicting
    held interval (the right one when there are two), and every displacement
    hands the displaced interval's charges to its replacement. Raises
    ``InfeasibleActionError`` at the first action ``apply_action`` refuses,
    and :class:`ChargeBoundViolation` if any bound fails.
    """
    from .harness import apply_action

    ever_accepted = compress(transcript.ids, transcript.kinds)
    opt_norm, swaps = normalize_certificate(seq, opt.members, ever_accepted)

    records: dict[int, ChargeRecord] = {}
    events: list[tuple] = []
    held = PolicyState()
    retired: set[int] = set()

    for arrival_id, action in transcript.actions():
        arrival = seq.by_id(arrival_id)
        # Validate before the bookkeeping reads the action. A reject leaves
        # the held set as it was, so _charge_direct still sees what the
        # arrival met; an accept's bookkeeping reads only the records.
        apply_action(held, arrival, action, retired)
        if action.accepted:
            rec = records[arrival.id] = ChargeRecord()
            if arrival.id in opt_norm:
                rec.direct_ids.append(arrival.id)
                rec.current.append(arrival.id)
                events.append(("direct-self", arrival.id, arrival.id))
            for gone in action.displaced:  # its charges move to the arrival
                moved = records[gone].current
                if moved:
                    rec.transferred_ids.extend(moved)
                    rec.current.extend(moved)
                    records[gone].current = []
                    events.append(("transfer", gone, arrival.id, len(moved)))
        elif arrival.id in opt_norm:
            _charge_direct(records, events, held, arrival)

    ledger = ChargeLedger(
        k=k,
        normalized_opt=opt_norm,
        records=records,
        events=events,
        final_members=held.ids,
        coincidence_swaps=swaps,
    )
    return _check_bounds(ledger)
