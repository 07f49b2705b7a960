"""Run policies against instances and distributions, with exact accounting.

The harness owns the solution: it applies every :class:`Action` after
validating it (displaced members must be held and in conflict, the result
must stay feasible, discarded ids never return). Ratios are exact rationals;
an empty algorithm solution against a non-empty optimum is reported with an
infinity sentinel rather than a division error.

A run over the arrivals in file order (``run``, and the greedy-subsume run
that ``verify`` audits) goes through :func:`run_file_order`, and
random-order trials through :func:`run_random_order`. Each hands the
policy's kernel spec to the engine kernel (:mod:`revsel._engine`), which
alone decides whether it stands in, and falls back when it answers None to
:func:`run_policy`, which validates each action as it applies it, or to
:func:`_trials`, the one Python trial loop. A run's one record is its
:class:`RunTranscript`: the kernel's record becomes its columns, and the
charging audit replays it through :func:`apply_action` whichever path made it.

Random-order trials draw their permutations from per-trial substreams, so
growing the trial count never changes earlier trials, and the
classify-by-length wrapper needs no trial replay at all (see
:func:`run_arb_expectation`). Every path gives each trial's ALG as the same
integer over the instance's weight scale, and folds its trials into
:class:`TrialStats` a chunk at a time, writing a chunk's CSV rows before the
next one runs, so memory does not grow with the trial count.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

from . import _engine
from .algorithms import Action, ArbPolicy, Policy, PolicyState, takes_over
from .core import (
    ArrivalSequence,
    EmptyInstanceError,
    Interval,
    scaled_weight,
    solution_weight,
)
from .oracle import OptCertificate, opt_unweighted, opt_weighted
from .rng import Stream, permutation, substream_seed


class InfeasibleActionError(RuntimeError):
    """A policy emitted an action the harness refuses to apply."""


REJECT, ACCEPT, DISCARD = 0, 1, 2  # an arrival's kind in a transcript


@dataclass(slots=True)
class RunTranscript:
    """The one record of a run, as columns: the arrival ids in play order,
    one kind per arrival (DISCARD accepts and discards the rest), and the
    ids arrival p displaced, ``displaced[offsets[p]:offsets[p + 1]]``,
    ascending so that equal runs compare equal."""

    policy: str
    ids: list[int] = field(default_factory=list)
    kinds: bytearray = field(default_factory=bytearray)
    offsets: list[int] = field(default_factory=lambda: [0])
    displaced: list[int] = field(default_factory=list)

    def append(self, arrival_id: int, action: Action) -> None:
        """The one writer: record the arrival's action."""
        self.ids.append(arrival_id)
        self.kinds.append(DISCARD if action.discard_rest else action.accepted)
        self.displaced.extend(sorted(action.displaced))
        self.offsets.append(len(self.displaced))

    def actions(self) -> Iterator[tuple[int, Action]]:
        """The one reader: (arrival id, action) per arrival, in play order."""
        accept, reject, d = Action.accept(), Action.reject(), self.displaced
        for i, kind, lo, hi in zip(self.ids, self.kinds, self.offsets, self.offsets[1:]):
            if lo < hi or kind == DISCARD:
                yield i, Action(kind != REJECT, frozenset(d[lo:hi]), kind == DISCARD)
            else:
                yield i, accept if kind else reject

    def to_json_list(self) -> list:
        """One row per arrival, written straight from the columns."""
        rows, d = [], self.displaced
        for i, kind, lo, hi in zip(self.ids, self.kinds, self.offsets, self.offsets[1:]):
            gone = d[lo:hi] if lo < hi else []
            row = {"id": i, "action": "accept" if kind else "reject", "displaced": gone}
            if kind == DISCARD:
                row["discard_rest"] = True
            rows.append(row)
        return rows


def apply_action(state: PolicyState, arrival, action: Action, retired: set[int]) -> None:
    """Validate and apply one action; mutates `state` and `retired`, or raises
    :class:`InfeasibleActionError` and changes neither. An accept's checks
    are those of the held set's one mutator, ``PolicyState._accept``."""
    if arrival.id in retired or arrival.id in state:
        raise InfeasibleActionError(f"interval {arrival.id} appeared twice")
    if not action.accepted:
        retired.add(arrival.id)
        return
    try:
        state._accept(arrival, action.displaced, action.discard_rest)
    except ValueError as exc:
        raise InfeasibleActionError(str(exc)) from None
    retired.update(action.displaced)


def run_policy(
    policy: Policy,
    seq: Iterable[Interval],
    rng: Optional[Stream] = None,
    record: bool = True,
) -> tuple[PolicyState, RunTranscript]:
    """Feed the arrivals to a fresh copy of the policy and return (final
    state, transcript). With ``record=False`` the transcript stays empty,
    which saves its cost in trials that need only the final state."""
    live = policy.fresh()
    state = PolicyState()
    retired: set[int] = set()
    transcript = RunTranscript(live.name)
    for arrival in seq:
        action = live.decide(state, arrival, rng)
        apply_action(state, arrival, action, retired)
        if record:
            transcript.append(arrival.id, action)
    return state, transcript


def replay_actions(seq: ArrivalSequence, transcript: RunTranscript) -> frozenset[int]:
    """Apply a recorded transcript to a fresh solution; returns final ids."""
    state = PolicyState()
    retired: set[int] = set()
    for arrival_id, action in transcript.actions():
        apply_action(state, seq.by_id(arrival_id), action, retired)
    return state.ids


def opt_for(seq: ArrivalSequence) -> OptCertificate:
    return opt_unweighted(seq) if seq.is_unweighted() else opt_weighted(seq)


INFINITE_RATIO = "inf"


def exact_ratio(opt_value: Fraction, alg_value: Fraction) -> Optional[Fraction]:
    """OPT/ALG as an exact rational; None encodes the infinity sentinel."""
    if alg_value == 0:
        return None if opt_value > 0 else Fraction(1)
    return Fraction(opt_value, 1) / alg_value


def format_value(value: Optional[Fraction]) -> str:
    if value is None:
        return INFINITE_RATIO
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class RunResult:
    """One adversarial-order run, fully reproducible from (policy, instance)."""

    final_solution: frozenset[int]
    alg_value: Fraction
    opt_value: Fraction
    ratio: Optional[Fraction]  # None means infinite
    transcript: RunTranscript
    seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "policy": self.transcript.policy,
            "final_solution": sorted(self.final_solution),
            "alg_value": format_value(self.alg_value),
            "opt_value": format_value(self.opt_value),
            "ratio": format_value(self.ratio),
            "transcript": self.transcript.to_json_list(),
            "seed": self.seed,
        }


def run_file_order(
    policy: Policy, seq: ArrivalSequence, seed: Optional[int] = None
) -> tuple[frozenset[int], RunTranscript]:
    """The final ids and the transcript of the policy's run over the
    arrivals in file order, drawing from ``Stream.for_trial(seed, 0)`` when
    a seed is given. The engine kernel plays the run, or answers None and
    :func:`run_policy` plays it. The kernel's record is the transcript once
    positions become ids; no kernel policy discards, so its accept flags are
    the kinds. The tests, not this function, check the kernel's feasibility."""
    ids, starts, ends, _, _ = seq.columns
    raw = _engine.run_file_order(starts, ends, policy.kernel_spec(), seed)
    if raw is not None:
        accepted, offsets, positions, final = raw
        displaced = list(map(ids.__getitem__, positions))
        for lo, hi in zip(offsets, offsets[1:]):
            if hi - lo > 1:
                displaced[lo:hi] = sorted(displaced[lo:hi])
        transcript = RunTranscript(policy.name, list(ids), bytearray(accepted), offsets, displaced)
        return frozenset(map(ids.__getitem__, final)), transcript
    rng = Stream.for_trial(seed, 0) if seed is not None else None
    state, transcript = run_policy(policy, seq, rng)
    return state.ids, transcript


def run_adversarial(
    policy: Policy, seq: ArrivalSequence, seed: Optional[int] = None
) -> RunResult:
    """Run the policy on the arrivals in file order; exact ratio vs optimum."""
    if len(seq) == 0:
        raise EmptyInstanceError("cannot run a policy on an empty instance")
    if not policy.deterministic and seed is None:
        raise ValueError(f"policy {policy.name} needs a seed")
    final, transcript = run_file_order(policy, seq, seed)
    alg_value = solution_weight(seq, final)
    opt = opt_for(seq)
    return RunResult(
        final_solution=final,
        alg_value=alg_value,
        opt_value=opt.value,
        ratio=exact_ratio(opt.value, alg_value),
        transcript=transcript,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Random-order trials
# ---------------------------------------------------------------------------

_CSV_CHUNK_ROWS = 4096
_CSV_HEADER = "trial,seed,alg,opt,ratio\r\n"


@functools.cache
def _trial_digits() -> tuple[list[str], list[str]]:
    """The low three digits of CSV trial numbers, r = 0..999: as trials
    0..999 write them (plain) and as every later thousand does (padded).
    Built on first use, which keeps their cost out of import."""
    return [str(r) for r in range(1000)], [f"{r:03d}" for r in range(1000)]


def _csv_rows(lo: int, raws: list, tails: dict) -> str:
    """The CSV rows of trials lo, lo + 1, ...: each trial number, then the
    tail of its raw ALG in `raws`. Trial 1000q + r is written as str(q)
    and r in three digits, r alone when q is 0; so each run of rows within
    one thousand takes three slice assignments, and no Python code runs per
    row."""
    plain, padded = _trial_digits()
    n = len(raws)
    pieces = [""] * (3 * n)
    pieces[2::3] = map(tails.__getitem__, raws)
    i = 0
    while i < n:
        q, r = divmod(lo + i, 1000)
        k = min(1000 - r, n - i)
        if q:
            pieces[3 * i : 3 * (i + k) : 3] = [str(q)] * k
            pieces[3 * i + 1 : 3 * (i + k) : 3] = padded[r : r + k]
        else:
            pieces[3 * i + 1 : 3 * (i + k) : 3] = plain[r : r + k]
        i += k
    return "".join(pieces)


class TrialStats:
    """Exact aggregates over seeded trials, folded a chunk at a time into a
    histogram of raw ALG values; nothing is kept per trial.

    A raw ALG is the exact ALG times `scale`, the instance's
    ``columns.scale``: an int on every trial path. Equal values share one
    histogram entry, and the exact ALG ``Fraction(raw, scale)``, its ratio
    and its CSV row tail are built once per entry, the first time the value
    appears. ALG takes few distinct values, so the aggregates below stay
    exact and cheap.
    """

    def __init__(self, seed: int, opt_value: Fraction, scale: int = 1):
        self.seed = seed
        self.opt_value = opt_value
        self.scale = scale
        self.trials = 0
        self.histogram = Counter()
        # raw ALG -> (exact ALG, exact ratio or None for infinity)
        self._exact = {}
        # raw ALG -> its CSV row after the trial number
        self._tails = {}

    def add(self, raws: list) -> None:
        """Fold the raw ALG values of the next trials into the histogram."""
        histogram, exact = self.histogram, self._exact
        histogram.update(raws)
        self.trials += len(raws)
        if len(histogram) > len(exact):
            opt_cell = format_value(self.opt_value)
            for raw in histogram:
                if raw not in exact:
                    alg = Fraction(raw, self.scale)
                    ratio = exact_ratio(self.opt_value, alg)
                    exact[raw] = (alg, ratio)
                    self._tails[raw] = (
                        f",{self.seed},{format_value(alg)},{opt_cell},{format_value(ratio)}\r\n"
                    )

    def to_csv(self, out: TextIO, lo: int, raws: list) -> None:
        """Write to `out` one ``trial,seed,alg,opt,ratio`` row per trial lo,
        lo + 1, ... of `raws` (values already added), after that header when
        lo is 0. Each row ends in ``\\r\\n`` with no cell quoted (no cell
        holds a comma or a quote): the bytes ``csv.writer`` writes."""
        if lo == 0:
            out.write(_CSV_HEADER)
        out.write(_csv_rows(lo, raws, self._tails))

    def _ratio_counts(self) -> list[tuple[Optional[Fraction], int]]:
        return [(self._exact[raw][1], count) for raw, count in self.histogram.items()]

    @property
    def mean_ratio(self) -> Fraction:
        counts = self._ratio_counts()
        if any(r is None for r, _ in counts):
            raise ValueError("mean undefined: some trials had an empty solution")
        return sum((r * c for r, c in counts), Fraction(0)) / self.trials

    @property
    def mean_alg(self) -> Fraction:
        exact = self._exact
        total = sum((exact[raw][0] * c for raw, c in self.histogram.items()), Fraction(0))
        return total / self.trials

    def fraction_with_ratio_at_least(self, threshold: Fraction) -> Fraction:
        hits = sum(c for r, c in self._ratio_counts() if r is None or r >= threshold)
        return Fraction(hits, self.trials)

    def fraction_with_ratio_exactly(self, value: Fraction) -> Fraction:
        hits = sum(c for r, c in self._ratio_counts() if r == value)
        return Fraction(hits, self.trials)

    def quantile(self, q: Fraction) -> Optional[Fraction]:
        """Nearest-rank quantile of the trials' ratios (infinities sort last)."""
        order = sorted(
            self._ratio_counts(),
            key=lambda rc: (rc[0] is None, rc[0] if rc[0] is not None else Fraction(0)),
        )
        rank = min(self.trials, max(1, math.ceil(Fraction(q) * self.trials)))
        cumulative = list(accumulate(c for _, c in order))
        return order[bisect_left(cumulative, rank)][0]

    def alg_std(self) -> float:
        """Sample standard deviation of ALG values (float; reporting only).
        The variance is exact; only its square root is a float."""
        if self.trials < 2:
            return 0.0
        mean = self.mean_alg
        exact = self._exact
        squares = sum(
            ((exact[raw][0] - mean) ** 2 * c for raw, c in self.histogram.items()),
            Fraction(0),
        )
        return math.sqrt(squares / (self.trials - 1))


def _fold(
    stats: TrialStats, trials: int, run: Callable[[int, int], list[int]], out: Optional[TextIO]
) -> TrialStats:
    """The one chunk loop of every random-order path: fold trials 0 ..
    trials - 1 into `stats`, at most _CSV_CHUNK_ROWS at a time, where
    ``run(lo, count)`` returns the raw ALG values of `count` trials from
    trial lo. Each chunk is folded and its CSV rows written to `out` (when
    given) before the next one runs, so memory stays constant in the trial
    count."""
    for lo in range(0, trials, _CSV_CHUNK_ROWS):
        raws = run(lo, min(_CSV_CHUNK_ROWS, trials - lo))
        stats.add(raws)
        if out is not None:
            stats.to_csv(out, lo, raws)
    return stats


def _trials(
    policy: Policy, seq: ArrivalSequence, seed: int, count: int, lo: int = 0
) -> list[int]:
    """The Python trial loop: the raw ALG (see :func:`scaled_weight`) of a
    fresh run per trial t in lo .. lo + count - 1, playing the arrivals in
    ``permutation(n, seed, t)`` order and drawing decisions from substream
    2**32 + t, clear of the permutation substreams. The engine kernel plays
    the same draws and stands for this loop where it can."""
    algs = []
    for t in range(lo, lo + count):
        order = map(seq.__getitem__, permutation(len(seq), seed, t))
        rng = Stream.for_trial(seed, (1 << 32) + t)
        state, _ = run_policy(policy, order, rng, record=False)
        algs.append(scaled_weight(seq, state.ids))
    return algs


def _trial_runner(
    policy: Policy, seq: ArrivalSequence, seed: int
) -> Callable[[int, int], list[int]]:
    """``run(lo, count)``: the raw ALG values of `policy`'s random-order
    trials lo .. lo + count - 1. Each chunk asks the engine kernel first and
    replays in the Python loop when the kernel answers None; the kernel's
    answer depends only on the instance, the spec and whether a kernel is
    loaded, so every chunk of a run takes one path."""
    spec = policy.kernel_spec()
    _, starts, ends, weights, _ = seq.columns

    def run(lo: int, count: int) -> list[int]:
        raws = _engine.run_single_length_trials(starts, ends, spec, count, seed, weights, lo)
        return _trials(policy, seq, seed, count, lo) if raws is None else raws

    return run


def run_random_order(
    policy: Policy,
    seq: ArrivalSequence,
    trials: int,
    seed: int,
    out: Optional[TextIO] = None,
) -> TrialStats:
    """Uniformly permute the arrivals per trial (seeded) and aggregate exact
    ratios. The trials run in the engine kernel where it can stand in for
    the policy, and replay in Python otherwise. With a text sink `out`,
    the trials' CSV goes to it a chunk at a time (see
    :meth:`TrialStats.to_csv`)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(seq) == 0:
        raise EmptyInstanceError("cannot benchmark an empty instance")
    opt = opt_for(seq)
    stats = TrialStats(seed, opt.value, seq.columns.scale)
    return _fold(stats, trials, _trial_runner(policy, seq, seed), out)


# ---------------------------------------------------------------------------
# Distributions over sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionalReport:
    """Exact expectation of a deterministic policy over a sequence lottery."""

    expected_alg: Fraction
    opt_values: tuple[Fraction, ...]
    common_opt: Optional[Fraction]
    ratio: Optional[Fraction]
    branch_algs: tuple[Fraction, ...]


def run_distributional(
    policy: Policy, branches: Sequence[tuple[ArrivalSequence, Fraction]]
) -> DistributionalReport:
    """Play each branch once (the policy is deterministic) and combine the
    exact values with the branch probabilities."""
    if not policy.deterministic:
        raise ValueError("run_distributional needs a deterministic policy")
    probs = [Fraction(p) for _, p in branches]
    if not all(0 <= p <= 1 for p in probs):
        raise ValueError("branch probabilities must lie in [0, 1]")
    if sum(probs) != 1:
        raise ValueError("branch probabilities must sum to 1")
    algs = []
    opts = []
    for seq, _ in branches:
        state, _ = run_policy(policy, seq, record=False)
        algs.append(solution_weight(seq, state.ids))
        opts.append(opt_for(seq).value)
    expected = sum((a * p for a, p in zip(algs, probs)), Fraction(0))
    common = opts[0] if all(o == opts[0] for o in opts) else None
    ratio = exact_ratio(common, expected) if common is not None else None
    return DistributionalReport(
        expected_alg=expected,
        opt_values=tuple(opts),
        common_opt=common,
        ratio=ratio,
        branch_algs=tuple(algs),
    )


# ---------------------------------------------------------------------------
# Classify-by-length expectation runs
# ---------------------------------------------------------------------------


@dataclass
class ArbTrialStats:
    stats: TrialStats
    length_choices: dict[int, int]
    distinct_lengths: int

    def choice_frequency(self, length: int) -> Fraction:
        return Fraction(self.length_choices.get(length, 0), self.stats.trials)


def run_arb_expectation(
    policy: ArbPolicy,
    seq: ArrivalSequence,
    trials: int,
    seed: int,
    out: Optional[TextIO] = None,
) -> ArbTrialStats:
    """Repeated seeded runs of the classify-by-length wrapper in arrival
    order; reports mean ALG and the final-length-choice counts.

    No trial is replayed. The wrapper switches only at the first arrival of
    a new length, to that length, and a switch empties the held set; so a
    trial that ends on length L holds what the subroutine holds after a run
    from an empty set over the arrivals of length L in file order. That run
    is made once per length, through :func:`run_policy`, which validates
    every action. Trial t then makes only the wrapper's length draws from
    substream t: over the lengths in first-arrival order, the i-th takes over
    when :func:`takes_over` says so. With a text sink `out`, the trials' CSV
    goes to it a chunk at a time, as in :func:`run_random_order`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(seq) == 0:
        raise EmptyInstanceError("cannot benchmark an empty instance")
    opt = opt_for(seq)
    by_length: dict[int, list] = {}
    for iv in seq:
        by_length.setdefault(iv.length, []).append(iv)
    alg_of = {}
    for length, arrivals in by_length.items():
        # A single-length run makes no length draw, so the stream is unused.
        state, _ = run_policy(policy, arrivals, Stream(0), record=False)
        alg_of[length] = scaled_weight(seq, state.ids)
    lengths = list(by_length)
    choices: dict[int, int] = {}
    rng = Stream(0)  # reseeded per trial

    def draws(lo: int, count: int) -> list[int]:
        algs = []
        for t in range(lo, lo + count):
            rng.state = substream_seed(seed, t)
            for i, length in enumerate(lengths, 1):
                if takes_over(i, rng):
                    chosen = length
            algs.append(alg_of[chosen])
            choices[chosen] = choices.get(chosen, 0) + 1
        return algs

    stats = _fold(TrialStats(seed, opt.value, seq.columns.scale), trials, draws, out)
    return ArbTrialStats(stats=stats, length_choices=choices, distinct_lengths=len(lengths))
