"""Naive reference implementations, kept for differential tests only.

Each mirrors an earlier, simpler version of a fast path in revsel: a held
set that re-sorts and scans all members on every query, the harness step
that scans it, the pairwise nesting-depth DP, and the restart-loop
certificate normalization. They are quadratic or worse and exist so that
random inputs can be checked against them.
"""

from __future__ import annotations

from typing import Iterable

from revsel.algorithms import Action
from revsel.core import ArrivalSequence, Interval, conflicts, contains_properly, validate_solution
from revsel.harness import InfeasibleActionError, RunTranscript, TranscriptEntry


class ScanningPolicyState:
    """Held set as an id map; every query sorts and scans all members."""

    def __init__(self, members: Iterable[Interval] = ()):
        self._members: dict[int, Interval] = {iv.id: iv for iv in members}

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, interval_id: int) -> bool:
        return interval_id in self._members

    @property
    def ids(self) -> frozenset[int]:
        return frozenset(self._members)

    def members(self) -> tuple[Interval, ...]:
        return tuple(
            sorted(self._members.values(), key=lambda iv: (iv.start, iv.end, iv.id))
        )

    def conflicting(self, arrival: Interval) -> tuple[Interval, ...]:
        return tuple(iv for iv in self.members() if conflicts(iv, arrival))

    def _add(self, iv: Interval) -> None:
        self._members[iv.id] = iv

    def _remove(self, interval_id: int) -> None:
        del self._members[interval_id]


def scanning_apply_action(state, arrival, action: Action, retired: set[int]) -> None:
    if arrival.id in retired or arrival.id in state:
        raise InfeasibleActionError(f"interval {arrival.id} appeared twice")
    if not action.accepted:
        retired.add(arrival.id)
        return
    for gone in action.displaced:
        if gone not in state:
            raise InfeasibleActionError(f"displaced id {gone} is not currently held")
    if action.discard_rest:
        if action.displaced != state.ids:
            raise InfeasibleActionError("a discarding accept must displace the whole solution")
    else:
        for gone in action.displaced:
            member = next(m for m in state.members() if m.id == gone)
            if not conflicts(member, arrival):
                raise InfeasibleActionError(
                    f"displaced id {gone} does not conflict with arrival {arrival.id}"
                )
    for gone in action.displaced:
        state._remove(gone)
        retired.add(gone)
    for member in state.members():
        if conflicts(member, arrival):
            raise InfeasibleActionError(
                f"accepting {arrival.id} leaves a conflict with held {member.id}"
            )
    state._add(arrival)


def scanning_run_policy(policy, seq: ArrivalSequence, rng=None):
    """``harness.run_policy`` over the scanning held set."""
    live = policy.fresh()
    state = ScanningPolicyState()
    retired: set[int] = set()
    entries = []
    for arrival in seq:
        action = live.decide(state, arrival, rng)
        scanning_apply_action(state, arrival, action, retired)
        entries.append(TranscriptEntry(arrival.id, action))
    return state, RunTranscript(policy=live.name, entries=tuple(entries))


def pairwise_nesting_depth(seq: ArrivalSequence) -> int:
    """Longest containment chain by a DP over all pairs, in decreasing
    length order so every container is final before its contents."""
    order = sorted(seq, key=lambda iv: (-iv.length, iv.start, iv.id))
    depth: dict[int, int] = {}
    for iv in order:
        d_iv = 0
        for other_id, d_other in depth.items():
            if contains_properly(seq.by_id(other_id), iv):
                d_iv = max(d_iv, d_other + 1)
        depth[iv.id] = d_iv
    return max(depth.values())


def restart_normalize_certificate(
    seq: ArrivalSequence, opt_members: frozenset[int], ever_accepted: Iterable[int]
) -> tuple[frozenset[int], list[tuple[int, int]]]:
    """Certificate normalization that restarts its scan after every swap."""

    def swap_candidates(outer, accepted, opt):
        return [
            seq.by_id(a)
            for a in accepted
            if a not in opt and contains_properly(outer, seq.by_id(a))
        ]

    accepted = set(ever_accepted)
    opt = set(opt_members)
    swaps: list[tuple[int, int]] = []
    for _ in range(len(seq) + len(opt) * len(seq)):
        for opt_id in sorted(opt):
            outer = seq.by_id(opt_id)
            candidates = swap_candidates(outer, accepted, opt)
            if candidates:
                inner = min(candidates, key=lambda iv: (iv.length, iv.start, iv.id))
                opt.remove(opt_id)
                opt.add(inner.id)
                break
            if opt_id in accepted:
                continue
            twins = [
                a
                for a in accepted
                if a not in opt
                and (seq.by_id(a).start, seq.by_id(a).end) == (outer.start, outer.end)
            ]
            if twins:
                twin = min(twins)
                opt.remove(opt_id)
                opt.add(twin)
                swaps.append((opt_id, twin))
                break
        else:
            break
    else:
        raise AssertionError("normalization did not terminate")
    assert len(opt) == len(opt_members)
    assert validate_solution(seq, opt)
    return frozenset(opt), swaps
