"""Online policies with revocable acceptances.

A policy looks at one arrival plus the solution it currently holds and
answers with an :class:`Action`. The harness (never the policy) applies the
action and enforces feasibility, so the feasibility invariant is policy
independent. Discarded intervals are gone for good.

Built-in policies:

* ``greedy-subsume``   take a conflicting arrival only when it sits properly
                       inside an existing member (displacing that member).
* ``call-control``     greedy-subsume plus the half-length replacement rule:
                       an arrival shorter than half of every conflicting
                       member displaces them all.
* ``always-replace`` / ``never-replace``  the two extremes.
* ``one-dir-left`` / ``one-dir-right``    single-length threshold policies
                       replacing on one side only.
* ``threshold:<file>`` table-driven single-length policy (maps overlap to a
                       replace/keep bit per side).
* ``rand-memoryless:p=<frac>``  the constant case of the memoryless policy:
                       accept with probability p, displacing all conflicts.
* ``arb:<subroutine>`` classify-by-length wrapper that keeps one randomly
                       chosen length and delegates to a per-length subroutine.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .core import Interval, conflicts, contains_properly, overlap_amount
from .rng import Stream


class PolicyDomainError(ValueError):
    """A policy was fed an instance outside its model (e.g. mixed lengths)."""


@dataclass(frozen=True, slots=True)
class Action:
    """One online decision: accept (with displacements) or reject.

    When accepting, every displaced id must currently be held and conflict
    with the arrival. ``discard_rest`` marks a classify-and-restart accept:
    the policy abandons its whole solution (members need not conflict the
    arrival) and starts over from the new interval.

    Actions are frozen, so :meth:`accept` with nothing displaced and
    :meth:`reject` hand out one shared instance each.
    """

    accepted: bool
    displaced: frozenset[int] = frozenset()
    discard_rest: bool = False

    def __post_init__(self):
        if not self.accepted and (self.displaced or self.discard_rest):
            raise ValueError("a reject cannot displace or discard")

    @staticmethod
    def accept(displaced: Iterable[int] = (), discard_rest: bool = False) -> "Action":
        if not displaced and not discard_rest:
            return _ACCEPT
        return Action(True, frozenset(displaced), discard_rest)

    @staticmethod
    def reject() -> "Action":
        return _REJECT


_ACCEPT = Action(True)
_REJECT = Action(False)


class PolicyState:
    """The feasible solution a policy currently holds (full records).

    Members are pairwise disjoint at all times: the one mutator,
    :meth:`_accept`, refuses any action that would leave an overlap. Disjoint
    members have distinct starts, and sorting them by start also sorts their
    ends, so the members are kept in start-sorted parallel lists (records,
    starts, ends). The members that conflict with an arrival then form one
    contiguous run of those lists, which :meth:`conflicting` finds with two
    bisections: O(log n) comparisons plus the length of the run. An accept
    puts the arrival in that run's place, so replacing one member moves
    nothing, but a conflict-free accept still inserts, moving O(n)
    references (ROADMAP item 1).
    """

    def __init__(self, members: Iterable[Interval] = ()):
        self._by_id: dict[int, Interval] = {}
        self._members: list[Interval] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        for iv in members:
            self._accept(iv)

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, interval_id: int) -> bool:
        return interval_id in self._by_id

    @property
    def ids(self) -> frozenset[int]:
        return frozenset(self._by_id)

    def by_id(self, interval_id: int) -> Interval:
        return self._by_id[interval_id]

    def members(self) -> tuple[Interval, ...]:
        """Members in ascending start order (deterministic iteration)."""
        return tuple(self._members)

    def conflicting(self, arrival: Interval) -> tuple[Interval, ...]:
        """Members overlapping the arrival, in ascending start order."""
        lo = bisect_right(self._ends, arrival.start)
        hi = bisect_left(self._starts, arrival.end, lo)
        return tuple(self._members[lo:hi])

    # The one mutator, reserved for the constructor and the harness's
    # apply_action, whose validation it is. The arrival takes the place of
    # the displaced members, which must be exactly the members it conflicts
    # with, or every member when it discards the rest. On any other action
    # it raises ValueError before it changes anything.
    def _accept(self, arrival: Interval, displaced=frozenset(), discard_rest=False) -> None:
        by_id, members, starts, ends = self._by_id, self._members, self._starts, self._ends
        if arrival.id in by_id:
            raise ValueError(f"interval {arrival.id} is already held")
        for gone in displaced:
            if gone not in by_id:
                raise ValueError(f"displaced id {gone} is not currently held")
        if discard_rest:
            if len(displaced) != len(by_id):
                raise ValueError("a discarding accept must displace the whole solution")
            lo, hi = 0, len(members)
        else:
            for gone in displaced:
                if not conflicts(by_id[gone], arrival):
                    raise ValueError(
                        f"displaced id {gone} does not conflict with arrival {arrival.id}"
                    )
            # The conflicting run; a conflict-free arrival bisects once.
            lo = hi = bisect_right(ends, arrival.start)
            if lo < len(starts) and starts[lo] < arrival.end:
                hi = bisect_left(starts, arrival.end, lo)
            # The displaced members lie in the run: equal sizes make them the run.
            if hi - lo != len(displaced):
                clash = next(m for m in members[lo:hi] if m.id not in displaced)
                raise ValueError(f"accepting {arrival.id} leaves a conflict with held {clash.id}")
        for gone in displaced:
            del by_id[gone]
        by_id[arrival.id] = arrival
        members[lo:hi] = (arrival,)
        starts[lo:hi] = (arrival.start,)
        ends[lo:hi] = (arrival.end,)


class Policy:
    """Base class; subclasses implement :meth:`decide`."""

    name: str = "policy"
    deterministic: bool = True

    def decide(self, state: PolicyState, arrival: Interval, rng: Optional[Stream] = None) -> Action:
        raise NotImplementedError

    def fresh(self) -> "Policy":
        """The policy with pristine per-run state: itself, since a policy
        keeps none. A subclass that keeps per-run state must override this
        to return a new instance."""
        return self

    def kernel_spec(self) -> Optional[dict]:
        """The policy's mode, and its tables or acceptance probability, for
        the engine kernel's policy loop; None if no kernel mode plays it.
        The engine (:mod:`revsel._engine`) decides from it, the inputs and
        the loaded kernel whether the kernel stands in for :meth:`decide`."""
        return None


# ---------------------------------------------------------------------------
# Deterministic policies
# ---------------------------------------------------------------------------


def greedy_subsume_step(state: PolicyState, arrival: Interval) -> Action:
    """Take a non-conflicting arrival; otherwise take it only if properly
    contained in an existing member, displacing that member."""
    conflicting = state.conflicting(arrival)
    if not conflicting:
        return Action.accept()
    for member in conflicting:
        if contains_properly(member, arrival):
            # Feasibility makes the container the unique conflicting member.
            return Action.accept({member.id})
    return Action.reject()


def call_control_unweighted_step(state: PolicyState, arrival: Interval) -> Action:
    """Greedy-subsume plus the half-length rule: an arrival shorter than half
    of every conflicting member displaces all of them."""
    conflicting = state.conflicting(arrival)
    if not conflicting:
        return Action.accept()
    contained = any(contains_properly(m, arrival) for m in conflicting)
    short_enough = 2 * arrival.length < min(m.length for m in conflicting)
    if contained or short_enough:
        return Action.accept({m.id for m in conflicting})
    return Action.reject()


def always_replace_step(state: PolicyState, arrival: Interval) -> Action:
    return Action.accept({m.id for m in state.conflicting(arrival)})


def never_replace_step(state: PolicyState, arrival: Interval) -> Action:
    if state.conflicting(arrival):
        return Action.reject()
    return Action.accept()


# A threshold table key: JSON object keys are strings, and an overlap is an
# integer.
_INTEGER_KEY = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class ThresholdPolicyTables:
    """Replace/keep bits per overlap amount, one table per conflict side.

    ``left`` is consulted when the arrival extends past the member's left
    edge (arrival.start < member.start); ``right`` otherwise, which includes
    the coincident case. Unmapped overlaps fall back to the side's default.
    """

    left: dict[int, int] = field(default_factory=dict)
    right: dict[int, int] = field(default_factory=dict)
    left_default: int = 0
    right_default: int = 0

    def __post_init__(self):
        for table in (self.left, self.right):
            for v, bit in table.items():
                if bit not in (0, 1):
                    raise ValueError(f"table value for overlap {v} must be 0 or 1")
        if self.left_default not in (0, 1) or self.right_default not in (0, 1):
            raise ValueError("defaults must be 0 or 1")

    def replaces(self, side: str, overlap: int) -> bool:
        if side == "left":
            return bool(self.left.get(overlap, self.left_default))
        return bool(self.right.get(overlap, self.right_default))

    @staticmethod
    def from_json(text: str) -> "ThresholdPolicyTables":
        """Parse a table file. Overlap keys must be integer literals and
        bits JSON integers: a bool or a float raises ``ValueError``."""
        try:
            raw = json.loads(text)
        except RecursionError:
            raise ValueError("threshold tables are nested too deeply") from None
        if not isinstance(raw, dict):
            raise ValueError("threshold tables must be a JSON object")

        def bit(name: str, value):
            if type(value) is not int:
                raise ValueError(f"threshold {name} must be a JSON integer, got {value!r}")
            return value

        def table(side: str) -> dict[int, int]:
            entries = raw.get(side, {})
            if not isinstance(entries, dict):
                raise ValueError(f"threshold table {side!r} must be a JSON object")
            out = {}
            for key, value in entries.items():
                if not _INTEGER_KEY.fullmatch(key):
                    raise ValueError(f"threshold {side} key {key!r} is not an integer")
                out[int(key)] = bit(f"{side}[{key}]", value)
            return out

        return ThresholdPolicyTables(
            left=table("left"),
            right=table("right"),
            left_default=bit("left_default", raw.get("left_default", 0)),
            right_default=bit("right_default", raw.get("right_default", 0)),
        )


def threshold_memoryless_step(
    tables: ThresholdPolicyTables, state: PolicyState, arrival: Interval
) -> Action:
    """Single-length memoryless policy driven by overlap lookup tables.

    A conflict with two or more members is never taken. Containment conflicts
    (possible only when a longer interval is held) are rejected: the table
    model is defined for partial overlaps between equal-length intervals, and
    a partial conflict between different lengths raises
    :class:`PolicyDomainError`.
    """
    conflicting = state.conflicting(arrival)
    if not conflicting:
        return Action.accept()
    if len(conflicting) >= 2:
        return Action.reject()
    member = conflicting[0]
    if contains_properly(member, arrival) or contains_properly(arrival, member):
        return Action.reject()
    if member.length != arrival.length:
        raise PolicyDomainError(
            "threshold policies are defined for single-length instances; "
            f"saw a partial conflict between lengths {arrival.length} and {member.length}"
        )
    v = overlap_amount(arrival, member)
    side = "left" if arrival.start < member.start else "right"
    if tables.replaces(side, v):
        return Action.accept({member.id})
    return Action.reject()


_ONE_DIR_TABLES = {
    "one-dir-left": ThresholdPolicyTables(left_default=1, right_default=0),
    "one-dir-right": ThresholdPolicyTables(left_default=0, right_default=1),
}


class StepPolicy(Policy):
    """A deterministic policy that is one step function, replayed in the
    engine kernel by `mode` (see :data:`_STEP_POLICIES`)."""

    def __init__(self, name: str, step: Callable[[PolicyState, Interval], Action], mode: str):
        self.name = name
        self.step = step
        self.mode = mode

    def decide(self, state, arrival, rng=None):
        return self.step(state, arrival)

    def kernel_spec(self):
        return {"mode": self.mode}


# CLI identifier -> (step function, kernel mode) of each step policy.
_STEP_POLICIES = {
    "greedy-subsume": (greedy_subsume_step, "greedy-subsume"),
    "call-control": (call_control_unweighted_step, "call-control"),
    "always-replace": (always_replace_step, "always"),
    "never-replace": (never_replace_step, "never"),
}


class ThresholdPolicy(Policy):
    def __init__(self, tables: ThresholdPolicyTables, name: str = "threshold"):
        self.tables = tables
        self.name = name

    def decide(self, state, arrival, rng=None):
        return threshold_memoryless_step(self.tables, state, arrival)

    def kernel_spec(self):
        return {"mode": "threshold", "tables": self.tables}


# ---------------------------------------------------------------------------
# Randomized policies
# ---------------------------------------------------------------------------


def memoryless_randomized_step(
    acceptance: Callable[[Interval, PolicyState], Fraction],
    state: PolicyState,
    arrival: Interval,
    rng: Stream,
) -> Action:
    """Accept (displacing every conflicting member) with the probability the
    acceptance function assigns to (arrival, current solution)."""
    p = Fraction(acceptance(arrival, state))
    if p < 0 or p > 1:
        raise ValueError(f"acceptance probability {p} out of [0, 1]")
    if rng.bernoulli(p):
        return Action.accept({m.id for m in state.conflicting(arrival)})
    return Action.reject()


class FunctionMemorylessPolicy(Policy):
    """Memoryless randomized policy with an arbitrary acceptance function."""

    deterministic = False

    def __init__(self, acceptance: Callable[[Interval, PolicyState], Fraction], name: str = "rand-memoryless"):
        self.acceptance = acceptance
        self.name = name

    def decide(self, state, arrival, rng=None):
        if rng is None:
            raise ValueError(f"{self.name} needs an rng stream")
        return memoryless_randomized_step(self.acceptance, state, arrival, rng)


class RandMemorylessPolicy(FunctionMemorylessPolicy):
    """The constant case of the memoryless policy: accept with probability
    p, whatever the arrival and the held solution."""

    def __init__(self, p: Fraction):
        p = Fraction(p)
        if p < 0 or p > 1:
            raise ValueError("p must lie in [0, 1]")
        if p.denominator > 1 << 64:  # Stream.bernoulli draws below it
            raise ValueError(f"p={p} has a denominator above 2**64")
        super().__init__(lambda _iv, _st: p, name=f"rand-memoryless:p={p}")
        self.p = p

    def kernel_spec(self):
        return {"mode": "memoryless", "p": self.p}


# ---------------------------------------------------------------------------
# Classify-by-length wrapper
# ---------------------------------------------------------------------------


def heavier_replace_step(state: PolicyState, arrival: Interval) -> Action:
    """Accept displacing the conflicting members iff the arrival outweighs
    them. A labeled heuristic stand-in for a proper weighted per-length
    algorithm; no performance guarantee is claimed for it."""
    conflicting = state.conflicting(arrival)
    if not conflicting:
        return Action.accept()
    if arrival.weight > sum((m.weight for m in conflicting), Fraction(0)):
        return Action.accept({m.id for m in conflicting})
    return Action.reject()


ARB_SUBROUTINES: dict[str, Callable[[PolicyState, Interval], Action]] = {
    "greedy-disjoint": never_replace_step,
    "heavier-replace": heavier_replace_step,
}


def takes_over(i: int, rng: Stream) -> bool:
    """Whether the i-th distinct length (i >= 1) becomes the chosen one:
    the first always, with no draw; the i-th for i >= 2 iff one
    ``randbelow(i)`` draw comes up 0, which has probability exactly 1/i."""
    return i == 1 or rng.randbelow(i) == 0


class ArbPolicy(Policy):
    """Keep one length, chosen online uniformly at random, delegate the rest.

    The i-th distinct length observed becomes the chosen one by
    :func:`takes_over`. A switch discards the whole held solution and
    restarts the subroutine, which accepts any arrival into an empty one.
    Arrivals whose length differs from the chosen one are rejected outright.
    """

    deterministic = False

    def __init__(self, subroutine: str = "greedy-disjoint"):
        if subroutine not in ARB_SUBROUTINES:
            raise ValueError(f"unknown subroutine {subroutine!r}")
        self.subroutine = subroutine
        self.name = f"arb:{subroutine}"
        self.chosen_length: Optional[int] = None
        self.lengths_seen: dict[int, None] = {}  # in first-seen order

    def observe(self, arrival: Interval, rng: Stream) -> bool:
        """Update the length choice for this arrival; True if a restart
        happened (the held solution must be discarded)."""
        if arrival.length in self.lengths_seen:
            return False
        self.lengths_seen[arrival.length] = None
        i = len(self.lengths_seen)
        if takes_over(i, rng):
            self.chosen_length = arrival.length
            return i > 1
        return False

    def decide(self, state, arrival, rng=None):
        if rng is None:
            raise ValueError(f"{self.name} needs an rng stream")
        restarted = self.observe(arrival, rng)
        if arrival.length != self.chosen_length:
            # A restart always switches to the arrival's own length, so a
            # mismatch implies no restart happened.
            return Action.reject()
        if restarted:
            return Action.accept(state.ids, discard_rest=True)
        return ARB_SUBROUTINES[self.subroutine](state, arrival)

    def fresh(self):
        """A new wrapper: the length choice is per-run state, which no
        other built-in policy keeps."""
        return ArbPolicy(self.subroutine)


# ---------------------------------------------------------------------------
# Policy registry (CLI identifiers)
# ---------------------------------------------------------------------------


def make_policy(identifier: str) -> Policy:
    """Build a policy from its CLI identifier."""
    if identifier in _STEP_POLICIES:
        return StepPolicy(identifier, *_STEP_POLICIES[identifier])
    if identifier in _ONE_DIR_TABLES:
        return ThresholdPolicy(_ONE_DIR_TABLES[identifier], name=identifier)
    if identifier.startswith("threshold:"):
        path = identifier.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            return ThresholdPolicy(ThresholdPolicyTables.from_json(fh.read()))
    if identifier.startswith("arb:"):
        return ArbPolicy(identifier.split(":", 1)[1])
    if identifier.startswith("rand-memoryless:"):
        spec = identifier.split(":", 1)[1]
        if not spec.startswith("p="):
            raise ValueError("rand-memoryless spec must look like p=1/2")
        try:
            return RandMemorylessPolicy(Fraction(spec[2:]))
        except ZeroDivisionError:
            raise ValueError(f"rand-memoryless p {spec[2:]!r} has a zero denominator") from None
    raise ValueError(f"unknown policy identifier {identifier!r}")

