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

import csv
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
) -> tuple[PolicyState, RunTranscript]:
    """Feed the arrivals to a policy and return (final state, transcript)."""
    live = policy.fresh() if fresh else policy
    state = PolicyState()
    retired: set[int] = set()
    entries = []
    for arrival in seq:
        action = live.decide(state, arrival, rng)
        apply_action(state, arrival, action, retired)
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


@dataclass
class TrialStats:
    """Aggregated exact ratios over seeded permutation trials."""

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
        """Nearest-rank quantile of the ratio samples (infinities sort last)."""
        order = sorted(
            self.ratio_samples,
            key=lambda r: (r is None, r if r is not None else Fraction(0)),
        )
        rank = min(self.trials, max(1, math.ceil(Fraction(q) * self.trials)))
        return order[rank - 1]

    def alg_std(self) -> float:
        """Sample standard deviation of ALG values (float; reporting only)."""
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


def _python_trials(policy, seq, trials, seed, trial_range=None) -> list[Fraction]:
    n = len(seq)
    out = []
    for t in trial_range if trial_range is not None else range(trials):
        perm = permutation(n, seed, t)
        rng = Stream.for_trial(seed, (1 << 32) + t)  # separate stream for decisions
        state, _ = run_policy(policy, seq.permuted(perm), rng)
        out.append(sum((m.weight for m in state.members()), Fraction(0)))
    return out


def _kernel_eligible(policy: Policy, seq: ArrivalSequence) -> Optional[dict]:
    spec = policy.kernel_spec()
    if spec is None:
        return None
    if not seq.is_unweighted() or not seq.is_single_length():
        return None
    bound = 1 << 62
    if any(abs(iv.start) >= bound or abs(iv.end) >= bound for iv in seq):
        return None
    return spec


def pool_size(jobs: int, chunks: int) -> int:
    """Worker processes for a trial pool: never more than the CPUs or the
    chunks. Under fork the pool starts all its workers up front, so an
    unclamped --jobs 5000 would fork 5000 processes."""
    return max(1, min(jobs, os.cpu_count() or 1, chunks))


def _worker_chunk(args):
    policy, seq, trials, seed, lo, hi = args
    return _python_trials(policy, seq, trials, seed, range(lo, hi))


def run_random_order(
    policy: Policy,
    seq: ArrivalSequence,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> TrialStats:
    """Uniformly permute the arrivals per trial (seeded) and aggregate exact
    ratios. Single-length table policies run through the compiled engine when
    available; results are identical either way."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if len(seq) == 0:
        raise EmptyInstanceError("cannot benchmark an empty instance")
    opt = opt_for(seq)
    spec = _kernel_eligible(policy, seq)
    if spec is not None:
        algs_int = _engine.run_single_length_trials(
            [iv.start for iv in seq],
            [iv.end for iv in seq],
            spec,
            trials,
            seed,
        )
        algs = [Fraction(a) for a in algs_int]
    elif jobs > 1:
        chunk = -(-trials // jobs)
        ranges = [(lo, min(trials, lo + chunk)) for lo in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=pool_size(jobs, len(ranges))) as pool:
            parts = list(
                pool.map(
                    _worker_chunk,
                    [(policy, seq, trials, seed, lo, hi) for lo, hi in ranges],
                )
            )
        algs = [a for part in parts for a in part]
    else:
        algs = _python_trials(policy, seq, trials, seed)
    ratios = [exact_ratio(opt.value, a) for a in algs]
    return TrialStats(
        trials=trials, seed=seed, ratio_samples=ratios, alg_samples=algs, opt_value=opt.value
    )


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
    for t in range(trials):
        rng = Stream.for_trial(seed, t)
        live = policy.fresh()
        state = PolicyState()
        retired: set[int] = set()
        for arrival in seq:
            action = live.decide(state, arrival, rng)
            apply_action(state, arrival, action, retired)
        algs.append(sum((m.weight for m in state.members()), Fraction(0)))
        choices[live.chosen_length] = choices.get(live.chosen_length, 0) + 1
    ratios = [exact_ratio(opt.value, a) for a in algs]
    stats = TrialStats(
        trials=trials, seed=seed, ratio_samples=ratios, alg_samples=algs, opt_value=opt.value
    )
    return ArbTrialStats(
        stats=stats, length_choices=choices, distinct_lengths=len(seq.lengths())
    )
