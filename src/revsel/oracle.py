"""Exact offline optima and the mechanized charging audit.

Three independent routes to the offline optimum: earliest-finish-time greedy
(unweighted), dynamic programming over end times (weighted), and exhaustive
subset enumeration (the oracle for the oracles, capped at 20 intervals).
Values are exact rationals throughout.

``verify_charging`` replays a greedy-subsume run and rebuilds the accounting
that maps every optimal interval onto a held interval, checking the
per-interval bounds (at most 2 direct charges, at most 2k-2 transferred
ones, 2k total) and that the optimum is charged exactly once each. Each
action of the run is applied through the harness's ``apply_action``, so a
transcript the harness would refuse raises ``InfeasibleActionError``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from . import _engine
from .algorithms import PolicyState
from .core import (
    ArrivalSequence,
    EmptyInstanceError,
    Interval,
    contains_properly,
    scaled_weights,
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


def opt_unweighted(seq: ArrivalSequence) -> OptCertificate:
    """Maximum-cardinality disjoint subset via earliest-finish-time greedy.

    Ties on end time are broken toward the longer interval last, so a chosen
    set never includes an interval that strictly contains another instance
    interval (its content would have been chosen first).
    """
    if len(seq) == 0:
        raise EmptyInstanceError("opt_unweighted requires a non-empty instance")
    chosen = []
    frontier = None
    for iv in sorted(seq, key=lambda x: (x.end, -x.start, x.id)):
        if frontier is None or iv.start >= frontier:
            chosen.append(iv.id)
            frontier = iv.end
    return _certify(seq, chosen, "greedy")


def opt_weighted(seq: ArrivalSequence) -> OptCertificate:
    """Maximum-weight disjoint subset via end-time dynamic programming.

    Half-open compatibility: an interval may start exactly where the previous
    one ends. The DP adds the weights as integers over one common scale
    (see :func:`~revsel.core.scaled_weights`), which keeps every comparison
    of the exact weights.
    """
    if len(seq) == 0:
        raise EmptyInstanceError("opt_weighted requires a non-empty instance")
    order = sorted(seq, key=lambda x: (x.end, x.start, x.id))
    ends = [iv.end for iv in order]
    n = len(order)
    # prev[j]: rightmost index i < j with order[i].end <= order[j].start
    prev = [bisect.bisect_right(ends, order[j].start) - 1 for j in range(n)]
    _, weight_of = seq.integer_weights()
    best = [0] * (n + 1)
    for j in range(n):
        take = weight_of[order[j].id] + best[prev[j] + 1]
        best[j + 1] = max(best[j], take)
    members = []
    j = n
    while j > 0:
        if best[j] == best[j - 1]:
            j -= 1
        else:
            members.append(order[j - 1].id)
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
    scaled, _ = scaled_weights(seq)
    starts = [iv.start for iv in seq]
    ends = [iv.end for iv in seq]
    _, mask = _engine.best_subset_scaled(starts, ends, scaled)
    members = [seq[i].id for i in range(n) if mask >> i & 1]
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

    @property
    def direct_count(self) -> int:
        return len(self.direct_ids)

    @property
    def transfer_count(self) -> int:
        return len(self.transferred_ids)

    @property
    def total(self) -> int:
        return self.direct_count + self.transfer_count


@dataclass
class ChargeLedger:
    """Outcome of replaying the charge mapping for one greedy-subsume run."""

    k: int
    normalized_opt: frozenset[int]
    records: dict[int, ChargeRecord]
    events: list[tuple]
    final_members: frozenset[int]
    coincidence_swaps: list[tuple[int, int]]

    @property
    def max_total(self) -> int:
        finals = [self.records[i].total for i in self.final_members]
        return max(finals) if finals else 0

    def charges_on_final(self) -> int:
        return sum(len(self.records[i].current) for i in self.final_members)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "bound": 2 * self.k,
            "max_total_charge": self.max_total,
            "normalized_opt": sorted(self.normalized_opt),
            "final_members": sorted(self.final_members),
            "coincidence_swaps": [list(p) for p in self.coincidence_swaps],
            "per_interval": {
                str(i): {
                    "direct": sorted(rec.direct_ids),
                    "transferred": sorted(rec.transferred_ids),
                }
                for i, rec in sorted(self.records.items())
                if rec.total
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
    accepted = set(ever_accepted)
    pool = sorted((seq.by_id(a) for a in accepted), key=lambda iv: iv.start)
    starts = [iv.start for iv in pool]
    opt = set(opt_members)
    swaps: list[tuple[int, int]] = []
    for opt_id in sorted(opt_members):
        outer = seq.by_id(opt_id)
        lo = bisect.bisect_left(starts, outer.start)
        hi = bisect.bisect_left(starts, outer.end, lo)
        window = [iv for iv in pool[lo:hi] if iv.id not in opt]
        candidates = [iv for iv in window if contains_properly(outer, iv)]
        if candidates:
            inner = min(candidates, key=lambda iv: (iv.length, iv.start, iv.id))
            opt.remove(opt_id)
            opt.add(inner.id)
            continue
        if opt_id in accepted:
            continue
        twins = [iv.id for iv in window if (iv.start, iv.end) == (outer.start, outer.end)]
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


def _transfer(records, events, arrival: Interval, displaced) -> None:
    """Hand each displaced interval's charges to the accepted arrival."""
    for gone in displaced:
        moved = records[gone].current
        if moved:
            records[arrival.id].transferred_ids.extend(moved)
            records[arrival.id].current.extend(moved)
            records[gone].current = []
            events.append(("transfer", gone, arrival.id, len(moved)))


def _check_bounds(seq: ArrivalSequence, ledger: ChargeLedger) -> ChargeLedger:
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
    for iv in seq:
        rec = ledger.records[iv.id]
        if rec.direct_count > 2:
            raise ChargeBoundViolation(
                f"interval {iv.id} took {rec.direct_count} direct charges (> 2)", ledger
            )
    for m in ledger.final_members:
        rec = ledger.records[m]
        if rec.transfer_count > 2 * k - 2:
            raise ChargeBoundViolation(
                f"interval {m} received {rec.transfer_count} transferred charges (> 2k-2)",
                ledger,
            )
        if rec.total > 2 * k:
            raise ChargeBoundViolation(f"interval {m} holds {rec.total} charges (> 2k)", ledger)
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
    hands the displaced interval's charges to its replacement. Each action is
    applied through the harness's ``apply_action``, which raises
    :class:`~revsel.harness.InfeasibleActionError` at the first entry it
    refuses. Raises :class:`ChargeBoundViolation` if any bound fails.
    """
    from .harness import apply_action

    ever_accepted = [e.arrival_id for e in transcript.entries if e.action.accepted]
    opt_norm, swaps = normalize_certificate(seq, opt.members, ever_accepted)

    records = {iv.id: ChargeRecord() for iv in seq}
    events: list[tuple] = []
    held = PolicyState()
    retired: set[int] = set()

    for entry in transcript.entries:
        arrival = seq.by_id(entry.arrival_id)
        # Validate before the bookkeeping reads the entry. A reject leaves
        # the held set as it was, so _charge_direct still sees what the
        # arrival met; an accept's bookkeeping reads only the records.
        apply_action(held, arrival, entry.action, retired)
        if arrival.id in opt_norm:
            if entry.action.accepted:
                rec = records[arrival.id]
                rec.direct_ids.append(arrival.id)
                rec.current.append(arrival.id)
                events.append(("direct-self", arrival.id, arrival.id))
            else:
                _charge_direct(records, events, held, arrival)
        if entry.action.accepted:
            _transfer(records, events, arrival, entry.action.displaced)

    ledger = ChargeLedger(
        k=k,
        normalized_opt=opt_norm,
        records=records,
        events=events,
        final_members=held.ids,
        coincidence_swaps=swaps,
    )
    return _check_bounds(seq, ledger)
