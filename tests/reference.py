"""Naive reference implementations, kept for differential tests only.

Each mirrors an earlier, simpler version of a fast path in revsel: a held
set that re-sorts and scans all members on every query, the harness step
that scans it, the pairwise nesting-depth DP, the restart-loop certificate
normalization, the charging audit that normalizes during its own unvalidated
replay, the trial kernel that scans its held set with its own splitmix64
copy, the trial statistics that keep one Fraction per trial, the CSV rows
written with one f-string each, the classify-by-length trials replayed one
decision at a time and their length draws made inline, the weight helpers
and weighted DP that add Fractions, the transcript kept as one Action and
one entry object per arrival, and the oracles, certificate normalization
and feasibility check that sorted Interval objects by tuple keys, and the
JSONL loader that built and checked one Interval per record. They are quadratic or worse, or slow
per trial, per key or per record, and exist so that random inputs can be
checked against them. Beside them is the 64-bit guard that the engine's
dispatchers once applied in Python, now the kernel's own.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from revsel import _engine
from revsel.algorithms import Action, ArbPolicy, PolicyState
from revsel.core import (
    _CHUNK_LINES,
    ArrivalSequence,
    EmptyInstanceError,
    Interval,
    _weight_from_json,
    conflicts,
    contains_properly,
    validate_solution,
)
from revsel.harness import (
    InfeasibleActionError,
    RunTranscript,
    apply_action,
    exact_ratio,
    format_value,
    opt_for,
    replay_actions,
)
from revsel.oracle import (
    ChargeLedger,
    ChargeRecord,
    OptCertificate,
    _charge_direct,
    _check_bounds,
)
from revsel.rng import Stream


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
    for member in state.members():
        if member.id not in action.displaced and conflicts(member, arrival):
            raise InfeasibleActionError(
                f"accepting {arrival.id} leaves a conflict with held {member.id}"
            )
    for gone in action.displaced:
        state._remove(gone)
        retired.add(gone)
    state._add(arrival)


def scanning_run_policy(policy, seq: ArrivalSequence, rng=None):
    """``harness.run_policy`` over the scanning held set."""
    live = policy.fresh()
    state = ScanningPolicyState()
    retired: set[int] = set()
    transcript = RunTranscript(live.name)
    for arrival in seq:
        action = live.decide(state, arrival, rng)
        scanning_apply_action(state, arrival, action, retired)
        transcript.append(arrival.id, action)
    return state, transcript


@dataclass(frozen=True, slots=True)
class TranscriptEntry:
    arrival_id: int
    action: Action


@dataclass(frozen=True)
class EntryTranscript:
    """A run's transcript as one entry object per arrival, the form
    ``harness.RunTranscript`` had before it became columns."""

    policy: str
    entries: tuple[TranscriptEntry, ...]

    def to_json_list(self) -> list:
        rows = []
        for e in self.entries:
            action = e.action
            displaced = action.displaced
            row = {
                "id": e.arrival_id,
                "action": "accept" if action.accepted else "reject",
                "displaced": sorted(displaced) if displaced else [],
            }
            if action.discard_rest:
                row["discard_rest"] = True
            rows.append(row)
        return rows


def entry_run_policy(policy, seq: Iterable[Interval], rng=None):
    """``harness.run_policy`` writing one entry per arrival."""
    live = policy.fresh()
    state = PolicyState()
    retired: set[int] = set()
    entries = []
    for arrival in seq:
        action = live.decide(state, arrival, rng)
        apply_action(state, arrival, action, retired)
        entries.append(TranscriptEntry(arrival.id, action))
    return state, EntryTranscript(policy=live.name, entries=tuple(entries))


def entry_file_order(policy, seq: ArrivalSequence, seed: Optional[int] = None):
    """``harness.run_file_order`` building one Action and one entry per
    arrival from the kernel's record, or replaying through
    :func:`entry_run_policy` where the kernel answers None."""
    ids, starts, ends, _, _ = seq.columns
    raw = _engine.run_file_order(starts, ends, policy.kernel_spec(), seed)
    if raw is not None:
        accepted, offsets, displaced, final = raw
        id_at = ids.__getitem__
        actions = [Action.accept() if flag else Action.reject() for flag in accepted]
        for p, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            if lo < hi:
                actions[p] = Action(True, frozenset(map(id_at, displaced[lo:hi])))
        entries = tuple(map(TranscriptEntry, ids, actions))
        return frozenset(map(id_at, final)), EntryTranscript(policy.name, entries)
    rng = Stream.for_trial(seed, 0) if seed is not None else None
    state, transcript = entry_run_policy(policy, seq, rng)
    return state.ids, transcript


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


def _swap_candidates(seq, outer, accepted, opt):
    return [
        seq.by_id(a)
        for a in accepted
        if a not in opt and contains_properly(outer, seq.by_id(a))
    ]


def _apply_accept(records, events, held, arrival, displaced) -> None:
    """Transfer the displaced intervals' charges to the arrival, then swap
    them in the held set through its mutator, without the harness's checks
    on repeated ids."""
    for gone in displaced:
        moved = records[gone].current
        if moved:
            records[arrival.id].transferred_ids.extend(moved)
            records[arrival.id].current.extend(moved)
            records[gone].current = []
            events.append(("transfer", gone, arrival.id, len(moved)))
    held._accept(arrival, displaced)


def verify_charging_lazy(
    seq: ArrivalSequence,
    transcript,
    opt: OptCertificate,
    k: int,
) -> ChargeLedger:
    """Variant that normalizes during the replay instead of up front.

    When an optimal interval arrives and strictly contains something the run
    has accepted so far, the certificate is rewritten on the spot and the
    swapped-in interval self-charges retroactively. A cross-check of the
    eager normalization in ``oracle.verify_charging``; on certificates
    produced by ``opt_unweighted`` the two build identical ledgers.
    """
    accepted_so_far: set[int] = set()
    opt_current = set(opt.members)
    swaps: list[tuple[int, int]] = []
    records = {iv.id: ChargeRecord() for iv in seq}
    events: list[tuple] = []
    held = PolicyState()

    # Coincidences have no arrival-time trigger; resolve them up front.
    actions = list(transcript.actions())
    all_accepted = {i for i, action in actions if action.accepted}
    for opt_id in sorted(opt_current):
        outer = seq.by_id(opt_id)
        if opt_id in all_accepted:
            continue
        twins = [
            a
            for a in all_accepted
            if a not in opt_current
            and (seq.by_id(a).start, seq.by_id(a).end) == (outer.start, outer.end)
        ]
        if twins:
            twin = min(twins)
            opt_current.discard(opt_id)
            opt_current.add(twin)
            swaps.append((opt_id, twin))

    for arrival_id, action in actions:
        arrival = seq.by_id(arrival_id)
        if arrival.id in opt_current:
            current = arrival
            swapped = False
            while True:
                candidates = _swap_candidates(seq, current, accepted_so_far, opt_current)
                if not candidates:
                    break
                inner = min(candidates, key=lambda iv: (iv.length, iv.start, iv.id))
                opt_current.discard(current.id)
                opt_current.add(inner.id)
                current = inner
                swapped = True
            if swapped:
                rec = records[current.id]
                rec.direct_ids.append(current.id)
                rec.current.append(current.id)
                events.append(("direct-self-retro", current.id, current.id))
            elif action.accepted:
                rec = records[arrival.id]
                rec.direct_ids.append(arrival.id)
                rec.current.append(arrival.id)
                events.append(("direct-self", arrival.id, arrival.id))
            else:
                _charge_direct(records, events, held, arrival)
        if action.accepted:
            accepted_so_far.add(arrival.id)
            _apply_accept(records, events, held, arrival, action.displaced)

    final_members = held.ids
    assert final_members == replay_actions(seq, transcript)
    ledger = ChargeLedger(
        k=k,
        normalized_opt=frozenset(opt_current),
        records=records,
        events=events,
        final_members=final_members,
        coincidence_swaps=swaps,
    )
    return _check_bounds(ledger)


# -- the random-order trial path, before the bisecting kernel -----------------

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _substream(seed: int, index: int) -> int:
    return _mix64((seed & _MASK) ^ _mix64((index + 1) * _GOLDEN))


def _next_u64(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK
    return state, _mix64(state)


def _randbelow(state: int, n: int) -> tuple[int, int]:
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        state, z = _next_u64(state)
        if z < limit:
            return state, z % n


def permutation_raw(n: int, seed: int, trial: int) -> list[int]:
    """Trial permutation from a private splitmix64 copy, one call per draw."""
    idx = list(range(n))
    state = _substream(seed, trial)
    for i in range(n - 1, 0, -1):
        state, j = _randbelow(state, i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def scanning_single_length_trials_raw(
    starts, ends, mode, fl_keys, fl_vals, fl_default, fr_keys, fr_vals, fr_default,
    trials, seed,
) -> list[int]:
    """The trial kernel that scans its whole held set for every arrival."""
    n = len(starts)
    fl = dict(zip(fl_keys, fl_vals))
    fr = dict(zip(fr_keys, fr_vals))
    out = []
    for t in range(trials):
        perm = permutation_raw(n, seed, t)
        sol_s: list[int] = []
        sol_e: list[int] = []
        for idx in perm:
            s, e = starts[idx], ends[idx]
            hits = [
                i for i in range(len(sol_s)) if max(sol_s[i], s) < min(sol_e[i], e)
            ]
            if not hits:
                sol_s.append(s)
                sol_e.append(e)
                continue
            if mode == 2:
                continue
            if mode == 1:
                for i in reversed(hits):
                    del sol_s[i], sol_e[i]
                sol_s.append(s)
                sol_e.append(e)
                continue
            if len(hits) >= 2:
                continue
            i = hits[0]
            ms, me = sol_s[i], sol_e[i]
            if (ms <= s and e <= me and (ms, me) != (s, e)) or (
                s <= ms and me <= e and (ms, me) != (s, e)
            ):
                continue
            v = min(e, me) - max(s, ms)
            if s < ms:
                bit = fl.get(v, fl_default)
            else:
                bit = fr.get(v, fr_default)
            if bit:
                del sol_s[i], sol_e[i]
                sol_s.append(s)
                sol_e.append(e)
        out.append(len(sol_s))
    return out


@dataclass
class ListTrialStats:
    """Trial statistics over one list of Fractions per trial."""

    trials: int
    seed: int
    ratio_samples: list[Optional[Fraction]]
    alg_samples: list[Fraction]
    opt_value: Fraction

    @property
    def mean_ratio(self) -> Fraction:
        if any(r is None for r in self.ratio_samples):
            raise ValueError("mean undefined: some trials had an empty solution")
        return sum(self.ratio_samples, Fraction(0)) / self.trials

    @property
    def mean_alg(self) -> Fraction:
        return sum(self.alg_samples, Fraction(0)) / self.trials

    def fraction_with_ratio_at_least(self, threshold: Fraction) -> Fraction:
        hits = sum(1 for r in self.ratio_samples if r is None or r >= threshold)
        return Fraction(hits, self.trials)

    def fraction_with_ratio_exactly(self, value: Fraction) -> Fraction:
        hits = sum(1 for r in self.ratio_samples if r == value)
        return Fraction(hits, self.trials)

    def quantile(self, q: Fraction) -> Optional[Fraction]:
        order = sorted(
            self.ratio_samples,
            key=lambda r: (r is None, r if r is not None else Fraction(0)),
        )
        rank = min(self.trials, max(1, math.ceil(Fraction(q) * self.trials)))
        return order[rank - 1]

    def alg_std(self) -> float:
        n = len(self.alg_samples)
        if n < 2:
            return 0.0
        mean = self.mean_alg
        var = sum((float(a - mean)) ** 2 for a in self.alg_samples) / (n - 1)
        return var**0.5

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["trial", "seed", "alg", "opt", "ratio"])
        for t, (alg, ratio) in enumerate(zip(self.alg_samples, self.ratio_samples)):
            writer.writerow(
                [t, self.seed, format_value(alg), format_value(self.opt_value), format_value(ratio)]
            )
        return buf.getvalue()


def fstring_csv_rows(lo: int, raws: list, seed: int, opt: Fraction, scale: int = 1) -> str:
    """The CSV rows of trials lo, lo + 1, ... with raw ALG values `raws`
    (the exact ALG times `scale`), one f-string per row after a tail per
    distinct value, as TrialStats wrote them before its block table."""
    tails = {}
    for raw in set(raws):
        alg = Fraction(raw, scale)
        tails[raw] = (
            f",{seed},{format_value(alg)},{format_value(opt)},"
            f"{format_value(exact_ratio(opt, alg))}\r\n"
        )
    return "".join([f"{t}{tails[raw]}" for t, raw in enumerate(raws, lo)])


def replay_arb_expectation(policy: ArbPolicy, seq: ArrivalSequence, trials: int, seed: int):
    """Classify-by-length trials replayed one decision at a time: trial t
    runs a fresh wrapper over the arrivals in file order, drawing from
    substream t. Returns (stats, length_choices, distinct_lengths)."""
    opt = opt_for(seq).value
    algs: list[Fraction] = []
    choices: dict[int, int] = {}
    for t in range(trials):
        live = policy.fresh()
        rng = Stream.for_trial(seed, t)
        state, retired = PolicyState(), set()
        for arrival in seq:
            apply_action(state, arrival, live.decide(state, arrival, rng), retired)
        algs.append(sum((m.weight for m in state.members()), Fraction(0)))
        choices[live.chosen_length] = choices.get(live.chosen_length, 0) + 1
    stats = ListTrialStats(
        trials=trials,
        seed=seed,
        ratio_samples=[exact_ratio(opt, a) for a in algs],
        alg_samples=algs,
        opt_value=opt,
    )
    return stats, choices, len(seq.lengths())


def arb_length_draws(lengths: list[int], seed: int, trial: int) -> list[tuple[int, int]]:
    """The classify-by-length wrapper's draws in trial `trial`, as
    ``run_arb_expectation`` once made them inline, on the private
    splitmix64 copy: over the lengths in first-arrival order, the first is
    chosen with no draw, and the i-th (i >= 2) takes over iff its
    ``randbelow(i)`` draw comes up 0. One (chosen length, stream state)
    pair per length, taken after its draw."""
    state = _substream(seed, trial)
    chosen = lengths[0]
    out = [(chosen, state)]
    for i in range(2, len(lengths) + 1):
        state, r = _randbelow(state, i)
        if r == 0:
            chosen = lengths[i - 1]
        out.append((chosen, state))
    return out


# -- the kernel's 64-bit guard ----------------------------------------------


GUARD = 1 << 62


def guard_takes(columns, weights=(), values=()) -> bool:
    """Whether a numeric kernel entry takes its inputs: `columns` exact lists
    or tuples of one length; `weights` an exact list or tuple, empty or of
    that length too; and every item of them and of `values` (the table keys
    and the acceptance numerator and denominator) an exact int strictly
    inside +-2**62, with the weights' absolute values summing below 2**62.
    The dispatchers' rule before the kernel took it over, plus exact ints
    and equal lengths."""
    n = len(columns[0])
    if any(type(c) not in (list, tuple) or len(c) != n for c in columns):
        return False
    if type(weights) not in (list, tuple) or len(weights) not in (0, n):
        return False
    items = [v for column in (*columns, weights, values) for v in column]
    return (all(type(v) is int and -GUARD < v < GUARD for v in items)
            and sum(map(abs, weights)) < GUARD)


# -- weights as Fractions ---------------------------------------------------


def fraction_solution_weight(seq: ArrivalSequence, members: Iterable[int]) -> Fraction:
    """The held weight as a Fraction sum; raises UnknownIntervalError via
    ``seq.by_id`` on an unknown id."""
    return sum((seq.by_id(i).weight for i in members), Fraction(0))


def fraction_is_unweighted(seq: ArrivalSequence) -> bool:
    return all(iv.weight == 1 for iv in seq)


def fraction_scaled_weights(seq: ArrivalSequence) -> tuple[list[int], int]:
    """The weights times the lcm of their denominators, one Fraction
    product each."""
    scale = 1
    for iv in seq:
        d = iv.weight.denominator
        scale = scale // math.gcd(scale, d) * d
    return [int(iv.weight * scale) for iv in seq], scale


def fraction_opt_weighted(seq: ArrivalSequence) -> OptCertificate:
    """The end-time DP with a Fraction per table entry."""
    if len(seq) == 0:
        raise EmptyInstanceError("opt_weighted requires a non-empty instance")
    order = sorted(seq, key=lambda x: (x.end, x.start, x.id))
    ends = [iv.end for iv in order]
    n = len(order)
    prev = [bisect.bisect_right(ends, order[j].start) - 1 for j in range(n)]
    best = [Fraction(0)] * (n + 1)
    for j in range(n):
        take = order[j].weight + best[prev[j] + 1]
        best[j + 1] = max(best[j], take)
    members = []
    j = n
    while j > 0:
        if best[j] == best[j - 1]:
            j -= 1
        else:
            members.append(order[j - 1].id)
            j = prev[j - 1] + 1
    members = frozenset(members)
    assert validate_solution(seq, members)
    return OptCertificate(members, fraction_solution_weight(seq, members), "dp")


# -- the oracles over Interval objects, before the integer columns -------------
#
# Copies of the oracles, the certificate normalization and the feasibility
# check as they read Interval objects and sorted them by tuple keys, before
# ArrivalSequence.columns. The only edits: the names, integer_weights as a
# function of the sequence, and a certificate whose checks are these copies'
# and whose value is the Fraction sum.


def integer_weights(seq: ArrivalSequence) -> tuple[int, dict[int, int]]:
    """(scale, weight by id): every weight as an integer over one scale, the
    lcm of their denominators, keyed by id in arrival order."""
    weights = [iv.weight for iv in seq]
    scale = math.lcm(*{w.denominator for w in weights})
    scaled = (w.numerator * (scale // w.denominator) for w in weights)
    return scale, dict(zip((iv.id for iv in seq), scaled))


def object_validate_solution(seq: ArrivalSequence, members: Iterable[int]) -> bool:
    """True iff the referenced intervals are pairwise non-conflicting."""
    chosen = [seq.by_id(i) for i in members]
    chosen.sort(key=lambda iv: iv.start)
    for a, b in zip(chosen, chosen[1:]):
        if conflicts(a, b):
            return False
    return True


def object_certify(seq: ArrivalSequence, members: Iterable[int], method: str) -> OptCertificate:
    members = frozenset(members)
    assert object_validate_solution(seq, members), "oracle produced an infeasible set"
    value = fraction_solution_weight(seq, members)
    return OptCertificate(members=members, value=value, method=method)


def object_opt_unweighted(seq: ArrivalSequence) -> OptCertificate:
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
    return object_certify(seq, chosen, "greedy")


def object_opt_weighted(seq: ArrivalSequence) -> OptCertificate:
    """Maximum-weight disjoint subset via end-time dynamic programming.

    Half-open compatibility: an interval may start exactly where the previous
    one ends. The DP adds the weights as integers over one common scale
    (see :func:`integer_weights`), which keeps every comparison of the exact
    weights.
    """
    if len(seq) == 0:
        raise EmptyInstanceError("opt_weighted requires a non-empty instance")
    order = sorted(seq, key=lambda x: (x.end, x.start, x.id))
    ends = [iv.end for iv in order]
    n = len(order)
    # prev[j]: rightmost index i < j with order[i].end <= order[j].start
    prev = [bisect.bisect_right(ends, order[j].start) - 1 for j in range(n)]
    _, weight_of = integer_weights(seq)
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
    return object_certify(seq, members, "dp")


def object_normalize_certificate(
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
    assert object_validate_solution(seq, opt), "normalization broke feasibility"
    return frozenset(opt), swaps


# -- the JSONL loader that built one Interval per record ----------------------


def interval_decode_chunks(lines: list[str]) -> list[Interval] | None:
    """The chunked decoder as it was before it filled columns: one Interval
    per record, which checks the record; None where it declines."""
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


def interval_decode_lines(lines: list[str]) -> list[Interval]:
    """The records of `lines` one line at a time, one Interval each; the
    only reader here that raises, with the number of the first bad line."""
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


def interval_loads_jsonl(text: str) -> ArrivalSequence:
    """The loader over :func:`interval_decode_chunks`, falling back for the
    whole file to :func:`interval_decode_lines`, then
    ``ArrivalSequence(intervals)``."""
    lines = text.splitlines()
    intervals = interval_decode_chunks(lines)
    if intervals is None:
        intervals = interval_decode_lines(lines)
    return ArrivalSequence(intervals)
