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
* ``rand-memoryless:p=<frac>``  accept with fixed probability p, displacing
                       all conflicting members.
* ``arb:<subroutine>`` classify-by-length wrapper that keeps one randomly
                       chosen length and delegates to a per-length subroutine.
"""

from __future__ import annotations

import copy
import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .core import Interval, contains_properly, overlap_amount
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

    @property
    def kind(self) -> str:
        return "accept" if self.accepted else "reject"

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

    Members are pairwise disjoint at all times: the constructor and
    :meth:`_add` raise ``ValueError`` on an overlapping member, and the
    harness refuses any action that would create one. Disjoint members have
    distinct starts, and sorting them by start also sorts their ends, so the
    members are kept in start-sorted parallel lists (records, starts, ends).
    The members that conflict with an arrival then form one contiguous run
    of those lists, which :meth:`conflicting` finds with two bisections:
    O(log n) comparisons plus the length of the run. :meth:`_add` and
    :meth:`_remove` also bisect, but their list inserts and deletes still
    move O(n) references each (ROADMAP item 1).
    """

    def __init__(self, members: Iterable[Interval] = ()):
        self._by_id: dict[int, Interval] = {}
        self._members: list[Interval] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        for iv in members:
            self._add(iv)

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

    # Mutation is reserved for the constructor and the harness's
    # apply_action, which validates every action before it applies it.
    # _add's overlap check is apply_action's feasibility check: it must
    # raise ValueError on any overlap before it changes anything.
    def _add(self, iv: Interval) -> None:
        if iv.id in self._by_id:
            raise ValueError(f"interval {iv.id} is already held")
        i = bisect_right(self._ends, iv.start)
        if i < len(self._starts) and self._starts[i] < iv.end:
            raise ValueError(f"interval {iv.id} overlaps held {self._members[i].id}")
        self._by_id[iv.id] = iv
        self._members.insert(i, iv)
        self._starts.insert(i, iv.start)
        self._ends.insert(i, iv.end)

    def _remove(self, interval_id: int) -> None:
        iv = self._by_id.pop(interval_id)
        i = bisect_left(self._starts, iv.start)
        del self._members[i], self._starts[i], self._ends[i]


class Policy:
    """Base class; subclasses implement :meth:`decide`."""

    name: str = "policy"
    deterministic: bool = True

    def decide(self, state: PolicyState, arrival: Interval, rng: Optional[Stream] = None) -> Action:
        raise NotImplementedError

    def fresh(self) -> "Policy":
        """A new policy instance with pristine internal state."""
        return copy.deepcopy(self)

    def kernel_spec(self) -> Optional[dict]:
        """Descriptor for the engine's trial loop (see :mod:`revsel._engine`),
        or None if not supported."""
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


def one_directional_step(direction: str, state: PolicyState, arrival: Interval) -> Action:
    """Replace on one side only, regardless of overlap amount."""
    tables = _ONE_DIR_TABLES[direction]
    return threshold_memoryless_step(tables, state, arrival)


_ONE_DIR_TABLES = {
    "left": ThresholdPolicyTables(left_default=1, right_default=0),
    "right": ThresholdPolicyTables(left_default=0, right_default=1),
}


class GreedySubsumePolicy(Policy):
    name = "greedy-subsume"

    def decide(self, state, arrival, rng=None):
        return greedy_subsume_step(state, arrival)

    def kernel_spec(self):
        return {"mode": "greedy-subsume"}


class CallControlPolicy(Policy):
    name = "call-control"

    def decide(self, state, arrival, rng=None):
        return call_control_unweighted_step(state, arrival)

    def kernel_spec(self):
        return {"mode": "call-control"}


class AlwaysReplacePolicy(Policy):
    name = "always-replace"

    def decide(self, state, arrival, rng=None):
        return always_replace_step(state, arrival)

    def kernel_spec(self):
        return {"mode": "always"}


class NeverReplacePolicy(Policy):
    name = "never-replace"

    def decide(self, state, arrival, rng=None):
        return never_replace_step(state, arrival)

    def kernel_spec(self):
        return {"mode": "never"}


class ThresholdPolicy(Policy):
    def __init__(self, tables: ThresholdPolicyTables, name: str = "threshold"):
        self.tables = tables
        self.name = name

    def decide(self, state, arrival, rng=None):
        return threshold_memoryless_step(self.tables, state, arrival)

    def kernel_spec(self):
        return {"mode": "threshold", "tables": self.tables}


class OneDirectionalPolicy(ThresholdPolicy):
    def __init__(self, direction: str):
        if direction not in ("left", "right"):
            raise ValueError("direction must be 'left' or 'right'")
        super().__init__(_ONE_DIR_TABLES[direction], name=f"one-dir-{direction}")


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


class RandMemorylessPolicy(Policy):
    """Memoryless randomized policy with a constant acceptance probability."""

    deterministic = False

    def __init__(self, p: Fraction):
        p = Fraction(p)
        if p < 0 or p > 1:
            raise ValueError("p must lie in [0, 1]")
        self.p = p
        self.name = f"rand-memoryless:p={p}"

    def decide(self, state, arrival, rng=None):
        if rng is None:
            raise ValueError(f"{self.name} needs an rng stream")
        return memoryless_randomized_step(lambda _iv, _st: self.p, state, arrival, rng)

    def kernel_spec(self):
        return {"mode": "memoryless", "p": self.p}


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


class ArbPolicy(Policy):
    """Keep one length, chosen online uniformly at random, delegate the rest.

    The i-th distinct length observed becomes the chosen one with probability
    1/i; on a switch the whole held solution is discarded and the subroutine
    restarts from scratch. Arrivals whose length differs from the chosen one
    are rejected outright.
    """

    deterministic = False

    def __init__(self, subroutine: str = "greedy-disjoint"):
        if subroutine not in ARB_SUBROUTINES:
            raise ValueError(f"unknown subroutine {subroutine!r}")
        self.subroutine = subroutine
        self.name = f"arb:{subroutine}"
        self.chosen_length: Optional[int] = None
        self.lengths_seen: list[int] = []

    def observe(self, arrival: Interval, rng: Stream) -> bool:
        """Update the length choice for this arrival; True if a restart
        happened (the held solution must be discarded)."""
        if arrival.length in self.lengths_seen:
            return False
        self.lengths_seen.append(arrival.length)
        i = len(self.lengths_seen)
        if i == 1 or rng.randbelow(i) == 0:  # probability exactly 1/i
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
        step = ARB_SUBROUTINES[self.subroutine]
        if restarted:
            inner = step(PolicyState(), arrival)
            if not inner.accepted:  # empty solution: both subroutines accept
                raise AssertionError("subroutine rejected on an empty solution")
            return Action.accept(state.ids, discard_rest=True)
        return step(state, arrival)

    def fresh(self):
        return ArbPolicy(self.subroutine)


# ---------------------------------------------------------------------------
# Policy registry (CLI identifiers)
# ---------------------------------------------------------------------------


def make_policy(identifier: str) -> Policy:
    """Build a policy from its CLI identifier."""
    if identifier == "greedy-subsume":
        return GreedySubsumePolicy()
    if identifier == "call-control":
        return CallControlPolicy()
    if identifier == "always-replace":
        return AlwaysReplacePolicy()
    if identifier == "never-replace":
        return NeverReplacePolicy()
    if identifier == "one-dir-left":
        return OneDirectionalPolicy("left")
    if identifier == "one-dir-right":
        return OneDirectionalPolicy("right")
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

