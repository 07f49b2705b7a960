"""Run policies against instances and distributions, with exact accounting.

The harness owns the solution: it applies every :class:`Action` after
validating it (displaced members must be held and in conflict, the result
must stay feasible, discarded ids never return). Ratios are exact rationals;
an empty algorithm solution against a non-empty optimum is reported with an
infinity sentinel rather than a division error.

Random-order trials draw their permutations from per-trial substreams, so
growing the trial count never changes earlier trials. Every built-in policy
runs its trials in the compiled engine kernel (:mod:`revsel._engine`) when
one is loaded and the inputs fit its 64-bit guard, and the
classify-by-length wrapper needs no trial replay at all (see
:func:`run_arb_expectation`). Everything else, including every policy when
no kernel is loaded, replays each trial through :func:`run_policy` in
:func:`_trials`, the one Python trial loop; both give the same bits.
Every path runs its trials a chunk at a time: each chunk is folded into the
histogram of :class:`TrialStats` and its CSV rows are written before the
next one runs, so memory does not grow with the trial count.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Callable, Iterator, Optional, Sequence, TextIO

from . import _engine
from .algorithms import Action, ArbPolicy, Policy, PolicyState
from .core import (
    ArrivalSequence,
    EmptyInstanceError,
    conflicts,
    scaled_weights,
    solution_weight,
)
from .oracle import OptCertificate, opt_unweighted, opt_weighted
from .rng import Stream, permutation


class InfeasibleActionError(RuntimeError):
    """A policy emitted an action the harness refuses to apply."""


@dataclass(frozen=True, slots=True)
class TranscriptEntry:
    arrival_id: int
    action: Action


@dataclass(frozen=True)
class RunTranscript:
    """The full replayable history of one run."""

    policy: str
    entries: tuple[TranscriptEntry, ...]

    def to_json_list(self) -> list:
        rows = []
        for e in self.entries:
            action = e.action
            row = {"id": e.arrival_id, "action": action.kind, "displaced": sorted(action.displaced)}
            if action.discard_rest:
                row["discard_rest"] = True
            rows.append(row)
        return rows


def apply_action(state: PolicyState, arrival, action: Action, retired: set[int]) -> None:
    """Validate and apply one action; mutates `state` and `retired`."""
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
            if not conflicts(state.by_id(gone), arrival):
                raise InfeasibleActionError(
                    f"displaced id {gone} does not conflict with arrival {arrival.id}"
                )
    for gone in action.displaced:
        state._remove(gone)
        retired.add(gone)
    # The arrival is not held (checked above), so _add raises only on an
    # overlap; its own bisection is the feasibility check.
    try:
        state._add(arrival)
    except ValueError:
        clash = state.conflicting(arrival)
        raise InfeasibleActionError(
            f"accepting {arrival.id} leaves a conflict with held {clash[0].id}"
        ) from None


def run_policy(
    policy: Policy,
    seq: ArrivalSequence,
    rng: Optional[Stream] = None,
    record: bool = True,
) -> tuple[PolicyState, RunTranscript]:
    """Feed the arrivals to a fresh copy of the policy and return (final
    state, transcript). With ``record=False`` the transcript has no entries,
    which saves its cost in trials that need only the final state."""
    live = policy.fresh()
    state = PolicyState()
    retired: set[int] = set()
    entries = []
    for arrival in seq:
        action = live.decide(state, arrival, rng)
        apply_action(state, arrival, action, retired)
        if record:
            entries.append(TranscriptEntry(arrival.id, action))
    return state, RunTranscript(policy=live.name, entries=tuple(entries))


def replay_actions(seq: ArrivalSequence, transcript: RunTranscript) -> frozenset[int]:
    """Apply a recorded transcript to a fresh solution; returns final ids."""
    state = PolicyState()
    retired: set[int] = set()
    for entry in transcript.entries:
        apply_action(state, seq.by_id(entry.arrival_id), entry.action, retired)
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

    policy: str
    final_solution: frozenset[int]
    alg_value: Fraction
    opt_value: Fraction
    ratio: Optional[Fraction]  # None means infinite
    transcript: RunTranscript
    seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "policy": self.policy,
            "final_solution": sorted(self.final_solution),
            "alg_value": format_value(self.alg_value),
            "opt_value": format_value(self.opt_value),
            "ratio": format_value(self.ratio),
            "transcript": self.transcript.to_json_list(),
            "seed": self.seed,
        }


def run_adversarial(
    policy: Policy, seq: ArrivalSequence, seed: Optional[int] = None
) -> RunResult:
    """Run the policy on the arrivals in file order; exact ratio vs optimum."""
    if len(seq) == 0:
        raise EmptyInstanceError("cannot run a policy on an empty instance")
    rng = Stream.for_trial(seed, 0) if seed is not None else None
    if not policy.deterministic and rng is None:
        raise ValueError(f"policy {policy.name} needs a seed")
    state, transcript = run_policy(policy, seq, rng)
    alg_value = solution_weight(seq, state.ids)
    opt = opt_for(seq)
    return RunResult(
        policy=policy.name,
        final_solution=state.ids,
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

    A raw ALG is what the trial loop made: an int from the engine kernel,
    which is the exact ALG times `scale`, or a Fraction. Equal values share
    one histogram entry, and the exact ALG ``Fraction(raw, scale)``, its
    ratio and its CSV row tail are built once per entry, the first time the
    value appears. ALG takes few distinct values, so the aggregates below
    stay exact and cheap.
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
            for raw in histogram:
                if raw not in exact:
                    alg = Fraction(raw, self.scale)
                    exact[raw] = (alg, exact_ratio(self.opt_value, alg))

    def to_csv(self, out: TextIO, lo: int, raws: list) -> None:
        """Write to `out` one ``trial,seed,alg,opt,ratio`` row per trial lo,
        lo + 1, ... of `raws` (values already added), after that header when
        lo is 0. Each row ends in ``\\r\\n`` with no cell quoted (no cell
        holds a comma or a quote): the bytes ``csv.writer`` writes."""
        tails = self._tails
        if len(tails) < len(self._exact):
            opt_cell = format_value(self.opt_value)
            for raw, (alg, ratio) in self._exact.items():
                if raw not in tails:
                    tails[raw] = (
                        f",{self.seed},{format_value(alg)},{opt_cell},{format_value(ratio)}\r\n"
                    )
        if lo == 0:
            out.write(_CSV_HEADER)
        out.write(_csv_rows(lo, raws, tails))

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


def _trial_chunks(trials: int, run: Callable[[int, int], list]) -> Iterator[tuple[int, list]]:
    """The one chunk source of every random-order path: (lo, raws) for
    trials lo, lo + 1, ..., at most _CSV_CHUNK_ROWS at a time, where
    ``run(lo, count)`` returns the raw ALG values of `count` trials from
    trial lo. A chunk is folded and written before the next one runs, so
    memory stays constant in the trial count."""
    for lo in range(0, trials, _CSV_CHUNK_ROWS):
        yield lo, run(lo, min(_CSV_CHUNK_ROWS, trials - lo))


def _fold(
    stats: TrialStats, chunks: Iterator[tuple[int, list]], out: Optional[TextIO]
) -> TrialStats:
    """Fold `chunks` into `stats`, writing each chunk's CSV rows to `out`
    (when given) before the next chunk runs."""
    for lo, raws in chunks:
        stats.add(raws)
        if out is not None:
            stats.to_csv(out, lo, raws)
    return stats


def _trials(
    policy: Policy, seq: ArrivalSequence, seed: int, count: int, lo: int = 0
) -> list[Fraction]:
    """The Python trial loop: ALG of a fresh run per trial t in lo .. lo +
    count - 1, playing the arrivals in ``permutation(n, seed, t)`` order and
    drawing decisions from substream 2**32 + t, clear of the permutation
    substreams. The engine kernel plays the same draws and stands for this
    loop where it can."""
    algs = []
    for t in range(lo, lo + count):
        order = seq.permuted(permutation(len(seq), seed, t))
        rng = Stream.for_trial(seed, (1 << 32) + t)
        state, _ = run_policy(policy, order, rng, record=False)
        algs.append(solution_weight(seq, state.ids))
    return algs


def _kernel_eligible(policy: Policy, seq: ArrivalSequence) -> Optional[dict]:
    """The policy's kernel spec if the engine can run it on `seq`: threshold
    tables need a single length (on mixed lengths the Python path raises
    PolicyDomainError); every other mode takes any instance."""
    spec = policy.kernel_spec()
    if spec is None:
        return None
    if spec["mode"] == "threshold" and not seq.is_single_length():
        return None
    return spec


def kernel_weights(seq: ArrivalSequence) -> tuple[list[int], int]:
    """The engine's weights argument and the scale of its sums: no weights
    (a trial's ALG is its held count) on unit weights, else the weights as
    integers over the lcm of their denominators."""
    return ([], 1) if seq.is_unweighted() else scaled_weights(seq)


def _random_order_chunks(
    policy: Policy, seq: ArrivalSequence, trials: int, seed: int
) -> tuple[Iterator[tuple[int, list]], int]:
    """The chunks of `policy`'s random-order trials and the scale of their
    raw ALG values. Policies with a kernel spec run in the engine kernel
    when its first chunk comes back (it returns None for inputs it cannot
    take, and then for every chunk); the rest replay in the Python loop."""
    spec = _kernel_eligible(policy, seq)
    if spec is not None:
        weights, scale = kernel_weights(seq)
        starts = [iv.start for iv in seq]
        ends = [iv.end for iv in seq]
        chunks = _trial_chunks(
            trials,
            lambda lo, count: _engine.run_single_length_trials(
                starts, ends, spec, count, seed, weights, lo
            ),
        )
        first = next(chunks)
        if first[1] is not None:
            return chain([first], chunks), scale
    return _trial_chunks(trials, lambda lo, count: _trials(policy, seq, seed, count, lo)), 1


def run_random_order(
    policy: Policy,
    seq: ArrivalSequence,
    trials: int,
    seed: int,
    out: Optional[TextIO] = None,
) -> TrialStats:
    """Uniformly permute the arrivals per trial (seeded) and aggregate exact
    ratios. Policies with a kernel spec run through the engine kernel
    (threshold tables on single-length instances only) when it can take the
    inputs; the rest replay each trial in Python. With a text sink `out`,
    the trials' CSV goes to it a chunk at a time (see
    :meth:`TrialStats.to_csv`)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(seq) == 0:
        raise EmptyInstanceError("cannot benchmark an empty instance")
    opt = opt_for(seq)
    chunks, scale = _random_order_chunks(policy, seq, trials, seed)
    return _fold(TrialStats(seed, opt.value, scale), chunks, out)


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
    if sum(probs) != 1:
        raise ValueError("branch probabilities must sum to 1")
    algs = []
    opts = []
    for seq, _ in branches:
        state, _tr = run_policy(policy, seq)
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
    substream t: over the lengths in first-arrival order, the i-th (i >= 2)
    takes over when ``randbelow(i) == 0``. With a text sink `out`, the
    trials' CSV goes to it a chunk at a time, as in :func:`run_random_order`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    opt = opt_for(seq)
    by_length: dict[int, list] = {}
    for iv in seq:
        by_length.setdefault(iv.length, []).append(iv)
    alg_of = {}
    for length, arrivals in by_length.items():
        # A single-length run makes no length draw, so the stream is unused.
        state, _ = run_policy(policy, ArrivalSequence(arrivals), Stream(0), record=False)
        alg_of[length] = solution_weight(seq, state.ids)
    lengths = list(by_length)
    choices: dict[int, int] = {}

    def draws(lo: int, count: int) -> list[Fraction]:
        algs = []
        for t in range(lo, lo + count):
            rng = Stream.for_trial(seed, t)
            chosen = lengths[0]
            for i in range(2, len(lengths) + 1):
                if rng.randbelow(i) == 0:
                    chosen = lengths[i - 1]
            algs.append(alg_of[chosen])
            choices[chosen] = choices.get(chosen, 0) + 1
        return algs

    stats = _fold(TrialStats(seed, opt.value), _trial_chunks(trials, draws), out)
    return ArbTrialStats(stats=stats, length_choices=choices, distinct_lengths=len(lengths))
