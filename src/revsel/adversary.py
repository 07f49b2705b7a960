"""Nemesis instance generators and the adaptive lower-bound driver.

Static generators build the hard instances with fixed integer geometry so
every run is reproducible; the adaptive driver plays the interactive game
that forces any deterministic revoking policy down to one held interval
while growing a disjoint certificate of size 2k (two fresh intervals per
length level). Randomized memoryless policies are handled by re-emitting
identical copies of an interval until the policy takes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algorithms import Policy, PolicyState
from .core import ArrivalSequence, Interval, validate_solution
from .harness import RunTranscript, TranscriptEntry, apply_action, exact_ratio, run_policy
from .rng import Stream


class DriverError(RuntimeError):
    """The adaptive game could not proceed (infeasible action, divergent
    replies, or a policy whose answers depend on absolute position)."""


class GeneratorParameterError(ValueError):
    """Infeasible generator parameters."""


# ---------------------------------------------------------------------------
# Static generators
# ---------------------------------------------------------------------------


def gen_two_length(K: int) -> ArrivalSequence:
    """One interval of length K, then K unit intervals tiling it exactly.

    Irrevocable policies are stuck with the long interval; revoking ones
    recover everything.
    """
    if K < 2:
        raise GeneratorParameterError("K must be >= 2")
    intervals = [Interval(0, 0, K)]
    intervals += [Interval(i, i - 1, i) for i in range(1, K + 1)]
    return ArrivalSequence(intervals)


def gen_greedy_tight() -> ArrivalSequence:
    """Six intervals (two lengths) on which greedy-subsume keeps exactly one
    interval while four disjoint ones exist: the long interval absorbs two
    side charges, hands them to the small centered replacement, which absorbs
    two more. Ratio exactly 4."""
    geometry = [(-10, 10), (-14, -8), (8, 14), (-3, 3), (-8, -2), (2, 8)]
    return ArrivalSequence(Interval(i, s, e) for i, (s, e) in enumerate(geometry))


def gen_chain(count: int, L: int, v: int) -> ArrivalSequence:
    """A chain: equal-length intervals at starts 0, L-v, 2(L-v), ... where
    adjacent pairs overlap by exactly v."""
    if count < 2:
        raise GeneratorParameterError("count must be >= 2")
    if not 0 < v < L:
        raise GeneratorParameterError("need 0 < v < L")
    step = L - v
    return ArrivalSequence(Interval(i, i * step, i * step + L) for i in range(count))


def gen_call_control_bad(k: int) -> ArrivalSequence:
    """Two chain ladders meeting in the middle, then a short bridge.

    The half-length rule follows each ladder downward and ends up holding
    only the bridge; greedy-subsume keeps the ladder tops and the primed
    copies, a solution of size 2k-2. Lengths shrink by 3 per rung
    (|L_i| > 2|L_{i+1}|) and the bridge has length 2k-2 with
    2*|bridge| < |L_{k-1}|.
    """
    if k < 2:
        raise GeneratorParameterError("k must be >= 2")
    base = 4 * k
    size = {i: base * 3 ** (k - 1 - i) for i in range(1, k)}

    left: dict[int, tuple[int, int]] = {1: (0, size[1])}
    left_primed: dict[int, tuple[int, int]] = {}
    for i in range(2, k):
        prev_end = left[i - 1][1]
        left[i] = (prev_end - 1, prev_end - 1 + size[i])
        anchor = left[1][1] if i == 2 else left_primed[i - 1][1]
        left_primed[i] = (anchor, anchor + size[i])

    mid = left[k - 1][1]
    gap = 2 * (k - 2)
    right: dict[int, tuple[int, int]] = {k - 1: (mid + gap, mid + gap + size[k - 1])}
    for i in range(k - 2, 0, -1):
        nxt_end = right[i + 1][1]
        right[i] = (nxt_end - 1, nxt_end - 1 + size[i])
    right_primed: dict[int, tuple[int, int]] = {}
    for i in range(2, k):
        anchor = right[1][0] if i == 2 else right_primed[i - 1][0]
        right_primed[i] = (anchor - size[i], anchor)

    bridge = (mid - 1, mid - 1 + (2 * k - 2))

    coords = [left[1], right[1]]
    for i in range(2, k):
        coords += [left[i], right[i], left_primed[i], right_primed[i]]
    coords.append(bridge)
    return ArrivalSequence(Interval(i, s, e) for i, (s, e) in enumerate(coords))


def gen_greedy_bad(k: int) -> ArrivalSequence:
    """Nested pivots, each flanked by two short straddlers of its endpoints.

    Greedy-subsume replaces its way down the nest and finishes with the
    innermost pivot against 2k disjoint straddlers; the half-length rule
    instead collects every straddler (each one evicts the pivot it
    straddles) and finishes optimal. Pivot lengths shrink by 4; straddlers
    have length 2, giving k+1 distinct lengths for k pivot levels.
    """
    if k < 2:
        raise GeneratorParameterError("k must be >= 2")
    widths = [8 * 4 ** (k - i) for i in range(1, k + 1)]
    coords = []
    start = 0
    for level, w in enumerate(widths):
        if level > 0:
            start = start + (widths[level - 1] - w) // 2
        end = start + w
        coords += [(start, end), (start - 1, start + 1), (end - 1, end + 1)]
    return ArrivalSequence(Interval(i, s, e) for i, (s, e) in enumerate(coords))


def gen_random_order_bad(alpha: int, beta: int, m: int, L: int) -> ArrivalSequence:
    """m identical copies of a base interval plus one interval overlapping
    its left end by alpha and one overlapping its right end by beta, both
    under half the length. The optimum is the two flankers."""
    if not (0 < alpha and 2 * alpha < L and 0 < beta and 2 * beta < L):
        raise GeneratorParameterError("need 0 < alpha, beta < L/2")
    if m < 1:
        raise GeneratorParameterError("m must be >= 1")
    intervals = [Interval(i, 0, L) for i in range(m)]
    intervals.append(Interval(m, alpha - L, alpha))
    intervals.append(Interval(m + 1, L - beta, 2 * L - beta))
    return ArrivalSequence(intervals)


def gen_random_order_bad_wide(alpha: int, gamma: int, m: int, L: int) -> ArrivalSequence:
    """Like :func:`gen_random_order_bad` but the left flanker overlaps by
    gamma > L/2 (the right one by alpha < L/2). Requires alpha + gamma < L
    so the flankers stay disjoint."""
    if not (0 < alpha and 2 * alpha < L):
        raise GeneratorParameterError("need 0 < alpha < L/2")
    if not (2 * gamma > L and gamma < L):
        raise GeneratorParameterError("need L/2 < gamma < L")
    if alpha + gamma >= L:
        raise GeneratorParameterError("need alpha + gamma < L for disjoint flankers")
    if m < 1:
        raise GeneratorParameterError("m must be >= 1")
    intervals = [Interval(i, 0, L) for i in range(m)]
    intervals.append(Interval(m, gamma - L, gamma))
    intervals.append(Interval(m + 1, L - alpha, 2 * L - alpha))
    return ArrivalSequence(intervals)


def gen_fork_pair() -> tuple[ArrivalSequence, ArrivalSequence, tuple[Fraction, Fraction]]:
    """Two equal-length sequences sharing their first two (partially
    conflicting) intervals; the third interval extends the chain rightward in
    one sequence and leftward in the other, so no proper inclusions occur.
    Served with the 1/2-1/2 lottery used by distributional runs."""
    s1 = ArrivalSequence(
        [Interval(0, 0, 4), Interval(1, 2, 6), Interval(2, 4, 8)]
    )
    s2 = ArrivalSequence(
        [Interval(0, 0, 4), Interval(1, 2, 6), Interval(2, -2, 2)]
    )
    return s1, s2, (Fraction(1, 2), Fraction(1, 2))


WEIGHT_MODES = ("unit", "int", "rational")


def gen_random_instance(
    n: int, k_target: int, weight_mode: str = "unit", seed: int = 0
) -> ArrivalSequence:
    """Reproducible pseudo-random instance with at most k_target distinct
    lengths; identical bytes for identical parameters."""
    if n < 1:
        raise GeneratorParameterError("n must be >= 1")
    if k_target < 1:
        raise GeneratorParameterError("k_target must be >= 1")
    if weight_mode not in WEIGHT_MODES:
        raise GeneratorParameterError(f"weight_mode must be one of {WEIGHT_MODES}")
    stream = Stream.for_trial(seed, 0)
    pool = list(range(1, 3 * k_target + 1))
    stream.shuffle(pool)
    lengths = pool[:k_target]
    span = 3 * n + max(lengths)
    intervals = []
    for i in range(n):
        length = lengths[stream.randbelow(k_target)]
        start = stream.randbelow(span)
        if weight_mode == "unit":
            w = Fraction(1)
        elif weight_mode == "int":
            w = Fraction(1 + stream.randbelow(9))
        else:
            w = Fraction(1 + stream.randbelow(12), 1 + stream.randbelow(4))
        intervals.append(Interval(i, start, start + length, w))
    return ArrivalSequence(intervals)


# ---------------------------------------------------------------------------
# Adaptive driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelRecord:
    index: int
    length: int
    overlap: int
    base_start: int
    branch: str
    stop_reason: str
    pivot_id: int
    flank_ids: tuple[int, ...]
    span: int

    def to_json_dict(self) -> dict:
        return {
            "level": self.index,
            "length": self.length,
            "overlap": self.overlap,
            "base_start": self.base_start,
            "branch": self.branch,
            "stop_reason": self.stop_reason,
            "pivot": self.pivot_id,
            "flanks": list(self.flank_ids),
            "span": self.span,
        }


@dataclass(frozen=True)
class AdaptiveTranscript:
    """Everything the adaptive game produced: the arrivals as emitted, the
    policy's actions, the adversary's disjoint certificate, and the
    per-level records."""

    policy: str
    arrivals: ArrivalSequence
    transcript: RunTranscript
    opt_certificate: frozenset[int]
    levels: tuple[LevelRecord, ...]
    final_solution: frozenset[int]
    copies: int
    seed: Optional[int]

    @property
    def ratio(self) -> Optional[Fraction]:
        """|certificate| / |final solution|, None when the policy holds
        nothing (infinite)."""
        return exact_ratio(Fraction(len(self.opt_certificate)), Fraction(len(self.final_solution)))

    def ratio_at_least(self, bound: Fraction) -> bool:
        r = self.ratio
        return r is None or r >= bound

    def to_json_dict(self) -> dict:
        return {
            "policy": self.policy,
            "copies": self.copies,
            "seed": self.seed,
            "arrivals": [
                {"id": iv.id, "start": iv.start, "end": iv.end} for iv in self.arrivals
            ],
            "actions": self.transcript.to_json_list(),
            "opt_certificate": sorted(self.opt_certificate),
            "final_solution": sorted(self.final_solution),
            "levels": [rec.to_json_dict() for rec in self.levels],
        }


def level_schedule(k: int, base: int = 10) -> list[tuple[int, int]]:
    """(length, overlap) per level: lengths shrink by 5, overlap is a tenth.

    The schedule satisfies both recursion constraints: the next length is at
    most (L+v)/4, and a four-interval chain (span 4L-3v) fits inside the
    surviving interval's free core of size L-2v.
    """
    out = []
    for j in range(1, k + 1):
        L = base * 5 ** (k - j)
        v = L // 10
        out.append((L, v))
    return out


@dataclass
class _LevelOutcome:
    pivot: Interval
    flanks: tuple[Interval, ...]
    branch: str
    stop_reason: str


class _Session:
    """Owns the live policy, its harness-side solution, and the emission log."""

    def __init__(self, policy: Policy, rng: Optional[Stream], copies: int):
        self.policy = policy
        self.rng = rng
        self.copies = copies
        self.state = PolicyState()
        self.retired: set[int] = set()
        self.arrivals: list[Interval] = []
        self.entries: list[TranscriptEntry] = []

    def emit(self, start: int, length: int) -> tuple[Interval, bool]:
        """Emit the interval (up to `copies` identical tries for randomized
        policies) and report whether the policy now holds it."""
        iv = None
        for _ in range(self.copies):
            iv = Interval(len(self.arrivals), start, start + length)
            self.arrivals.append(iv)
            try:
                action = self.policy.decide(self.state, iv, self.rng)
                apply_action(self.state, iv, action, self.retired)
            except Exception as exc:
                raise DriverError(f"policy failed on arrival {iv.id}: {exc}") from exc
            self.entries.append(TranscriptEntry(iv.id, action))
            if iv.id in self.state:
                return iv, True
        return iv, False

    def holds(self, iv: Interval) -> bool:
        return iv.id in self.state


def _play_level(
    session: _Session, L: int, v: int, s0: int, left_slots: int, right_slots: int, strict: bool
) -> _LevelOutcome:
    """Play one same-length level of the chain game.

    Chain position i sits at s0 + i*(L-v). Growth follows the policy's
    replacements until it declines or four intervals are on the board; the
    returned flanks are disjoint, conflict the pivot's neighborhood only
    outside its free core, and avoid the policy's held interval.
    """
    step = L - v
    ivs: dict[int, Interval] = {}

    def emit(i: int) -> bool:
        iv, taken = session.emit(s0 + i * step, L)
        ivs[i] = iv
        return taken

    emit(0)
    took_right = emit(1)
    if took_right:
        if right_slots < 2:
            raise DriverError("no room to grow the chain rightward")
        if not emit(2):
            return _LevelOutcome(ivs[1], (ivs[0], ivs[2]), "right", "declined")
        if not emit(3):
            return _LevelOutcome(ivs[2], (ivs[1], ivs[3]), "right", "declined")
        return _LevelOutcome(ivs[3], (ivs[0], ivs[2]), "right", "cap")
    if session.holds(ivs[0]):
        if left_slots < 1:
            if strict:
                raise DriverError("no room to grow the chain leftward")
            return _LevelOutcome(ivs[0], (ivs[1],), "left", "unfit")
        if not emit(-1):
            return _LevelOutcome(ivs[0], (ivs[-1], ivs[1]), "left", "declined")
        if left_slots < 2:
            if strict:
                raise DriverError("no room to grow the chain leftward")
            return _LevelOutcome(ivs[-1], (ivs[0],), "left", "unfit")
        if not emit(-2):
            return _LevelOutcome(ivs[-1], (ivs[-2], ivs[0]), "left", "declined")
        return _LevelOutcome(ivs[-2], (ivs[-1], ivs[1]), "left", "cap")
    # Nothing taken yet: one more chance on the right.
    if right_slots < 2:
        raise DriverError("no room to probe the chain rightward")
    if emit(2):
        if not emit(3):
            return _LevelOutcome(ivs[2], (ivs[1], ivs[3]), "right", "declined")
        return _LevelOutcome(ivs[3], (ivs[0], ivs[2]), "right", "cap")
    return _LevelOutcome(ivs[1], (ivs[0], ivs[2]), "none", "no-take")


def _probe_branch(policy: Policy, history: list[Interval], lo: int, L: int, v: int) -> str:
    """Replay the history on a fresh copy of a deterministic policy, then ask
    how it answers the first two chain intervals placed flush left.

    Deterministic policies are fully predictable from their code, so the
    adversary may legitimately rehearse before committing real positions.
    """
    next_id = history[-1].id + 1 if history else 0
    p1 = Interval(next_id, lo, lo + L)
    p2 = Interval(next_id + 1, lo + (L - v), lo + (2 * L - v))
    state, _ = run_policy(policy, ArrivalSequence([*history, p1, p2]), record=False)
    if p2.id in state:
        return "right"
    # A rejected or displaced p1 is retired, so it is held now only if it
    # was held when p2 arrived.
    if p1.id in state:
        return "left"
    return "no-take"


def adaptive_lower_bound_driver(
    k: int,
    policy: Policy,
    copies: int = 1,
    seed: Optional[int] = None,
    base: int = 10,
) -> AdaptiveTranscript:
    """Drive a revoking policy through k nested same-length chain games.

    Each level leaves the policy with at most the level's pivot while two
    disjoint emitted intervals join the certificate; the next level nests
    strictly inside the pivot's free core. Deterministic policies are probed
    (rehearsed on a fresh copy) to decide which side of the chain has room;
    randomized memoryless ones are pushed with up to `copies` identical
    re-emissions per chain step.

    Raises :class:`DriverError` on infeasible actions, divergence between
    rehearsal and play (a non-deterministic or position-sensitive policy),
    or exhausted geometry.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    deterministic = policy.deterministic
    if deterministic:
        copies = 1
        rng = None
    else:
        if seed is None:
            raise ValueError("randomized policies need a seed")
        if copies < 1:
            raise ValueError("copies must be >= 1")
        rng = Stream.for_trial(seed, 0)

    session = _Session(policy.fresh(), rng, copies)
    schedule = level_schedule(k, base)
    region: Optional[tuple[int, int]] = None
    cert: list[Interval] = []
    levels: list[LevelRecord] = []

    for j, (L, v) in enumerate(schedule, start=1):
        if j > 1:
            L_prev, v_prev = schedule[j - 2]
            assert 4 * L <= L_prev + v_prev, "level length recursion violated"
        if region is None:
            s0, left_slots, right_slots = 0, 2, 2
        else:
            lo, hi = region
            assert hi - lo >= 4 * L - 3 * v, "free core cannot host the next level"
            if deterministic:
                branch_hint = _probe_branch(policy, session.arrivals, lo, L, v)
            else:
                branch_hint = "right"
            if branch_hint == "left":
                s0, left_slots, right_slots = hi - (2 * L - v), 2, 0
            else:
                s0, left_slots, right_slots = lo, 0, 2

        first_emitted = len(session.arrivals)
        outcome = _play_level(session, L, v, s0, left_slots, right_slots, strict=deterministic)
        emitted = session.arrivals[first_emitted:]
        span = max(iv.end for iv in emitted) - min(iv.start for iv in emitted)
        assert span <= 4 * L - 3 * v, "level occupies more than its chain budget"
        if region is not None:
            lo, hi = region
            if min(iv.start for iv in emitted) < lo or max(iv.end for iv in emitted) > hi:
                raise DriverError("level escaped the free core (position-sensitive policy?)")

        cert.extend(outcome.flanks)
        levels.append(
            LevelRecord(
                index=j,
                length=L,
                overlap=v,
                base_start=s0,
                branch=outcome.branch,
                stop_reason=outcome.stop_reason,
                pivot_id=outcome.pivot.id,
                flank_ids=tuple(iv.id for iv in outcome.flanks),
                span=span,
            )
        )
        region = (outcome.pivot.start + v, outcome.pivot.end - v)

    arrivals = ArrivalSequence(session.arrivals)
    cert_ids = frozenset(iv.id for iv in cert)
    if len(cert_ids) != len(cert) or not validate_solution(arrivals, cert_ids):
        raise DriverError("certificate is not a feasible disjoint set")

    transcript = RunTranscript(policy=session.policy.name, entries=tuple(session.entries))
    if deterministic:
        _check_replay(policy, arrivals, transcript)
    return AdaptiveTranscript(
        policy=session.policy.name,
        arrivals=arrivals,
        transcript=transcript,
        opt_certificate=cert_ids,
        levels=tuple(levels),
        final_solution=session.state.ids,
        copies=copies,
        seed=seed,
    )


def _check_replay(policy: Policy, arrivals: ArrivalSequence, transcript: RunTranscript) -> None:
    """Feed the emitted arrivals to a fresh copy; differing actions expose a
    policy that is not actually deterministic."""
    fresh = policy.fresh()
    state = PolicyState()
    retired: set[int] = set()
    for entry in transcript.entries:
        iv = arrivals.by_id(entry.arrival_id)
        action = fresh.decide(state, iv, None)
        if action != entry.action:
            raise DriverError(
                f"non-deterministic policy detected: replay diverged at arrival {iv.id}"
            )
        apply_action(state, iv, action, retired)
