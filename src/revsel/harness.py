"""Run policies against instances and distributions, with exact accounting.

The harness owns the solution: it applies every :class:`Action` after
validating it (displaced members must be held and in conflict, the result
must stay feasible, discarded ids never return). Ratios are exact rationals;
an empty algorithm solution against a non-empty optimum is reported with an
infinity sentinel rather than a division error.

Random-order trials draw their permutations from per-trial substreams, so
growing the trial count never changes earlier trials, and trials can be
executed in parallel and folded back in index order.
"""

from __future__ import annotations

import io
import math
import os
from bisect import bisect_left
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence, TextIO

from . import _engine
from .algorithms import Action, ArbPolicy, Policy, PolicyState
from .core import ArrivalSequence, EmptyInstanceError, conflicts
from .oracle import OptCertificate, opt_unweighted, opt_weighted
from .rng import Stream, permutation


class InfeasibleActionError(RuntimeError):
    """A policy emitted an action the harness refuses to apply."""


@dataclass(frozen=True)
class TranscriptEntry:
    arrival_id: int
    action: Action


@dataclass(frozen=True)
class RunTranscript:
    """The full replayable history of one run."""

    policy: str
    entries: tuple[TranscriptEntry, ...]

    def to_json_list(self) -> list:
        return [
            {
                "id": e.arrival_id,
                "action": e.action.kind,
                "displaced": sorted(e.action.displaced),
                **({"discard_rest": True} if e.action.discard_rest else {}),
            }
            for e in self.entries
        ]


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
    clash = state.conflicting(arrival)
    if clash:
        raise InfeasibleActionError(
            f"accepting {arrival.id} leaves a conflict with held {clash[0].id}"
        )
    state._add(arrival)


def run_policy(
    policy: Policy,
    seq: ArrivalSequence,
    rng: Optional[Stream] = None,
    fresh: bool = True,
    record: bool = True,
) -> tuple[PolicyState, RunTranscript]:
    """Feed the arrivals to a policy and return (final state, transcript).
    With ``record=False`` the transcript has no entries, which saves its
    cost in trials that need only the final state."""
    live = policy.fresh() if fresh else policy
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
    alg_value = sum((m.weight for m in state.members()), Fraction(0))
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


class TrialStats:
    """Exact aggregates over seeded trials, computed from a histogram of ALG.

    ``algs`` holds each trial's ALG in trial order as the trial loop made it:
    an int from the engine kernel or a Fraction from the Python loop. Equal
    values share one histogram entry, and the exact ALG, its ratio and its
    CSV cells are built once per entry, so the per-trial cost is a lookup.
    ALG takes few distinct values, so the aggregates below stay exact and
    cheap; the per-trial sequence is kept because the CSV lists every trial.
    """

    def __init__(self, seed: int, opt_value: Fraction, algs: list):
        self.trials = len(algs)
        self.seed = seed
        self.opt_value = opt_value
        self._algs = algs
        self.histogram = Counter(algs)
        # raw ALG -> (exact ALG, exact ratio or None for infinity)
        self._exact = {}
        for raw in self.histogram:
            alg = Fraction(raw)
            self._exact[raw] = (alg, exact_ratio(opt_value, alg))

    @property
    def alg_samples(self) -> list[Fraction]:
        exact = self._exact
        return [exact[raw][0] for raw in self._algs]

    @property
    def ratio_samples(self) -> list[Optional[Fraction]]:
        exact = self._exact
        return [exact[raw][1] for raw in self._algs]

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
        """Nearest-rank quantile of the ratio samples (infinities sort last)."""
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

    def to_csv(self, out: Optional[TextIO] = None) -> Optional[str]:
        """One ``trial,seed,alg,opt,ratio`` row per trial after that header,
        each ending in ``\\r\\n`` with no cell quoted (no cell holds a comma
        or a quote): the bytes ``csv.writer`` writes. Rows go to `out` a
        chunk at a time; with no `out`, the text is returned instead."""
        target = io.StringIO() if out is None else out
        opt_cell = format_value(self.opt_value)
        tails = {
            raw: f",{self.seed},{format_value(alg)},{opt_cell},{format_value(ratio)}\r\n"
            for raw, (alg, ratio) in self._exact.items()
        }
        target.write("trial,seed,alg,opt,ratio\r\n")
        algs = self._algs
        for lo in range(0, len(algs), _CSV_CHUNK_ROWS):
            chunk = algs[lo : lo + _CSV_CHUNK_ROWS]
            target.write("".join([f"{t}{tails[raw]}" for t, raw in enumerate(chunk, lo)]))
        return target.getvalue() if out is None else None


def _trials(policy: Policy, seq: ArrivalSequence, seed: int, trial_range: range, permuted: bool):
    """The one trial loop: a fresh run of `policy` per trial t in
    `trial_range`; yields (ALG, the policy instance that ran).

    A permuted trial plays the arrivals in ``permutation(n, seed, t)`` order
    and draws its decisions from substream 2**32 + t, clear of the
    permutation substreams; otherwise the arrivals come in file order and
    the decisions from substream t.
    """
    offset = (1 << 32) if permuted else 0
    for t in trial_range:
        order = seq.permuted(permutation(len(seq), seed, t)) if permuted else seq
        live = policy.fresh()
        rng = Stream.for_trial(seed, offset + t)
        state, _ = run_policy(live, order, rng, fresh=False, record=False)
        yield sum((m.weight for m in state.members()), Fraction(0)), live


def _kernel_eligible(policy: Policy, seq: ArrivalSequence) -> Optional[dict]:
    """The policy's kernel spec if the engine can run it on `seq`: every
    mode needs unit weights, and threshold tables a single length (on mixed
    lengths the Python path raises PolicyDomainError)."""
    spec = policy.kernel_spec()
    if spec is None or not seq.is_unweighted():
        return None
    if spec["mode"] == "threshold" and not seq.is_single_length():
        return None
    return spec


def pool_size(jobs: int, chunks: int) -> int:
    """Worker processes for a trial pool: never more than the CPUs or the
    chunks. Under fork the pool starts all its workers up front, so an
    unclamped --jobs 5000 would fork 5000 processes."""
    return max(1, min(jobs, os.cpu_count() or 1, chunks))


def _worker_chunk(args) -> list[Fraction]:
    """Pool task: ALG of the permuted trials lo..hi-1."""
    policy, seq, seed, lo, hi = args
    return [alg for alg, _ in _trials(policy, seq, seed, range(lo, hi), permuted=True)]


def run_random_order(
    policy: Policy,
    seq: ArrivalSequence,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> TrialStats:
    """Uniformly permute the arrivals per trial (seeded) and aggregate exact
    ratios. Policies with a kernel spec run through the engine kernel on
    unweighted instances (threshold tables on single-length ones only), and
    `jobs` then starts no pool; results are identical either way."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if len(seq) == 0:
        raise EmptyInstanceError("cannot benchmark an empty instance")
    opt = opt_for(seq)
    spec = _kernel_eligible(policy, seq)
    if spec is not None:
        algs = _engine.run_single_length_trials(
            [iv.start for iv in seq],
            [iv.end for iv in seq],
            spec,
            trials,
            seed,
        )
    elif jobs > 1:
        chunk = -(-trials // jobs)
        ranges = [(lo, min(trials, lo + chunk)) for lo in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=pool_size(jobs, len(ranges))) as pool:
            parts = list(
                pool.map(_worker_chunk, [(policy, seq, seed, lo, hi) for lo, hi in ranges])
            )
        algs = [a for part in parts for a in part]
    else:
        algs = [alg for alg, _ in _trials(policy, seq, seed, range(trials), permuted=True)]
    return TrialStats(seed, opt.value, algs)


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
        algs.append(sum((m.weight for m in state.members()), Fraction(0)))
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
    policy: ArbPolicy, seq: ArrivalSequence, trials: int, seed: int
) -> ArbTrialStats:
    """Repeated seeded runs of the classify-by-length wrapper in arrival
    order; reports mean ALG and the final-length-choice counts."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    opt = opt_for(seq)
    algs = []
    choices: dict[int, int] = {}
    for alg, live in _trials(policy, seq, seed, range(trials), permuted=False):
        algs.append(alg)
        choices[live.chosen_length] = choices.get(live.chosen_length, 0) + 1
    return ArbTrialStats(
        stats=TrialStats(seed, opt.value, algs),
        length_choices=choices,
        distinct_lengths=len(seq.lengths()),
    )
