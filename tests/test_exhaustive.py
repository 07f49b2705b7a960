"""Every small instance, checked exhaustively rather than sampled.

The 15 intervals of length 1, 2 or 3 on the grid 0..6 hold touching
endpoints, exact copies and proper containment, which decide most of the
policies' branches. Every ordered sequence of one to three of them, copies
included, is run through each step policy by ``run_policy`` and diffed
against the scanning held set of ``reference.py``, and against the kernel's
file-order run (which is ``run_policy`` when no kernel is loaded). The
kernel's other modes, one-dir tables on the single-length instances and
``rand-memoryless`` under two seeds, are diffed against ``run_policy`` too,
and the classify-by-length wrapper, which discards on a restart, against
the scanning held set. Every instance's three oracles agree on the optimum,
the kernel's greedy and DP give their fallback twins' certificates, members
and all, under three weightings, and the greedy-subsume run passes the
charging audit at 2k. The JSON payload of every kernel policy's run on
every instance, and of every duel with k <= 3, is written by the kernel
byte for byte as json.dumps writes it through the transcript's
``to_json_list``. The step
policies never discard and never displace part of a run, so the module also
applies every action to every disjoint held set of grid intervals through
``apply_action``, diffed against ``scanning_apply_action``.
"""

import json
from fractions import Fraction
from itertools import combinations, product

import pytest
from reference import ScanningPolicyState, scanning_apply_action, scanning_run_policy

from revsel import _engine
from revsel.adversary import adaptive_lower_bound_driver
from revsel.algorithms import ARB_SUBROUTINES, Action, PolicyState, make_policy
from revsel.core import ArrivalSequence, Interval
from revsel.harness import (
    InfeasibleActionError,
    RunTranscript,
    apply_action,
    format_value,
    run_adversarial,
    run_file_order,
    run_policy,
)
from revsel.oracle import opt_bruteforce, opt_unweighted, opt_weighted, verify_charging
from revsel.rng import Stream

compiled = pytest.mark.skipif(not _engine.COMPILED, reason="compiled engine not built")
STEP_POLICIES = ["greedy-subsume", "call-control", "always-replace", "never-replace"]
# Every policy that the kernel's file-order run plays.
KERNEL_POLICIES = STEP_POLICIES + ["one-dir-left", "one-dir-right", "rand-memoryless:p=1/3"]
GRID = [(s, s + length) for length in (1, 2, 3) for s in range(7 - length)]


def small_instances(max_n=3):
    for n in range(1, max_n + 1):
        for spans in product(GRID, repeat=n):
            yield ArrivalSequence(Interval(i, s, e) for i, (s, e) in enumerate(spans))


@pytest.mark.parametrize("pid", STEP_POLICIES)
def test_every_small_instance_runs_as_the_references_do(pid):
    policy = make_policy(pid)
    runs = 0
    for seq in small_instances():
        state, transcript = run_policy(policy, seq)
        ref_state, ref_transcript = scanning_run_policy(policy, seq)
        assert transcript == ref_transcript, list(seq)
        assert state.members() == ref_state.members(), list(seq)
        assert run_file_order(policy, seq) == (state.ids, transcript), list(seq)
        runs += 1
    assert len(GRID) == 15 and runs == 15 + 15**2 + 15**3
    cols = seq.columns
    raw = _engine.run_file_order(cols.starts, cols.ends, policy.kernel_spec(), None)
    assert (raw is not None) == _engine.COMPILED


@pytest.mark.parametrize("pid, seed", [("one-dir-left", None), ("one-dir-right", None),
                                       ("rand-memoryless:p=1/3", 1),
                                       ("rand-memoryless:p=1/3", 2)])
def test_every_small_instance_runs_in_the_kernel_as_in_python(pid, seed):
    """The kernel runs a threshold table only on a single length, so the
    one-dir policies take the single-length instances."""
    policy = make_policy(pid)
    runs = 0
    for seq in small_instances():
        if policy.deterministic and len(seq.lengths()) > 1:
            continue
        rng = None if seed is None else Stream.for_trial(seed, 0)
        state, transcript = run_policy(policy, seq, rng)
        assert run_file_order(policy, seq, seed) == (state.ids, transcript), list(seq)
        runs += 1
    per_length = sum(c + c**2 + c**3 for c in (6, 5, 4))  # grid intervals of length 1, 2, 3
    assert runs == (per_length if seed is None else 15 + 15**2 + 15**3)


@pytest.mark.parametrize("pid", ["arb:greedy-disjoint", "arb:heavier-replace"])
def test_every_small_instance_runs_arb_as_the_scan_does(pid):
    """Under two seeds each. Arrival i weighs i + 1, so that heavier-replace
    both takes and refuses a replacement: on unit weights it never does."""
    policy = make_policy(pid)
    for seq in small_instances():
        seq = ArrivalSequence(Interval(iv.id, iv.start, iv.end, Fraction(iv.id + 1))
                              for iv in seq)
        for seed in (1, 2):
            state, transcript = run_policy(policy, seq, Stream.for_trial(seed, 0))
            ref_state, ref_transcript = scanning_run_policy(policy, seq, Stream.for_trial(seed, 0))
            assert transcript == ref_transcript, (seed, list(seq))
            assert state.members() == ref_state.members(), (seed, list(seq))


def test_every_arb_subroutine_accepts_any_interval_into_an_empty_solution():
    """ArbPolicy's restart accepts the arrival without asking its
    subroutine, which relies on this."""
    for name, step in ARB_SUBROUTINES.items():
        for s, e in GRID:
            assert step(PolicyState(), Interval(0, s, e)) == Action.accept(), (name, s, e)


def test_every_small_instance_has_one_optimum_and_passes_the_audit():
    greedy = make_policy("greedy-subsume")
    for seq in small_instances():
        opt = opt_unweighted(seq)
        assert opt.value == opt_weighted(seq).value == opt_bruteforce(seq).value, list(seq)
        k = len(seq.lengths())
        _, transcript = run_file_order(greedy, seq)
        assert verify_charging(seq, transcript, opt, k).max_total <= 2 * k, list(seq)


# Arrival i's weight: all equal, so that the DP meets the most ties; all
# distinct; and zero for every third arrival, which the DP may take or leave.
WEIGHTINGS = [lambda i: 1, lambda i: i + 1, lambda i: i % 3]


@compiled
def test_every_small_instance_has_the_twins_certificates(monkeypatch):
    """The kernel takes every instance's columns, and its certificates equal
    those of the fallback twin, which answers when no kernel is loaded."""
    instances = [ArrivalSequence(Interval(iv.id, iv.start, iv.end, Fraction(weight(iv.id)))
                                 for iv in seq)
                 for seq in small_instances() for weight in WEIGHTINGS]
    for seq in instances:
        ids, starts, ends, weights, _ = seq.columns
        for w in ((), weights):
            assert _engine._impl.opt_members(ids, starts, ends, w) is not None, list(seq)
    kernel = [(opt_unweighted(seq), opt_weighted(seq)) for seq in instances]
    monkeypatch.setattr(_engine, "_impl", None)
    for seq, certificates in zip(instances, kernel):
        assert certificates == (opt_unweighted(seq), opt_weighted(seq)), list(seq)


def _kernel_text(payload):
    text = _engine._impl.dumps_json(payload, RunTranscript)
    assert text is not None
    return text


def _dumps_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True, default=_engine.json_default)


@compiled
@pytest.mark.parametrize("pid", KERNEL_POLICIES)
def test_every_small_run_payload_is_written_as_json_dumps_writes_it(pid):
    """The threshold policies take the single-length instances only."""
    policy = make_policy(pid)
    for seq in small_instances():
        if pid.startswith("one-dir") and len(seq.lengths()) > 1:
            continue
        payload = run_adversarial(policy, seq, None if policy.deterministic else 1).to_json_dict()
        assert _kernel_text(payload) == _dumps_text(payload), list(seq)


@compiled
@pytest.mark.parametrize("pid", KERNEL_POLICIES)
def test_every_small_duel_payload_is_written_as_json_dumps_writes_it(pid):
    """The payload `duel` prints, for k <= 3; the randomized policy plays
    one and three copies under two seeds."""
    policy = make_policy(pid)
    plays = [(1, None)] if policy.deterministic else list(product((1, 3), (1, 2)))
    for k in (1, 2, 3):
        for copies, seed in plays:
            game = adaptive_lower_bound_driver(k, policy, copies=copies, seed=seed)
            payload = game.to_json_dict()
            payload["ratio"] = format_value(game.ratio)
            payload["bound"] = format_value(Fraction(2 * k))
            payload["bound_met"] = game.ratio_at_least(Fraction(2 * k))
            assert _kernel_text(payload) == _dumps_text(payload), (k, copies, seed)


def disjoint_sets(chosen=(), free_from=0):
    """Every set of pairwise disjoint grid intervals, as GRID positions in
    start order, the empty set included; each is made once, since a member
    may only start where the one before it ends or later."""
    yield chosen
    for i, (s, e) in enumerate(GRID):
        if s >= free_from:
            yield from disjoint_sets(chosen + (i,), e)


def _outcome(apply, state, arrival, action, retired):
    """The text of the refusal `apply` raises, or None."""
    try:
        apply(state, arrival, action, retired)
    except InfeasibleActionError as exc:
        return str(exc)
    return None


def test_every_action_on_every_small_held_set_applies_as_the_scan_does():
    """Every disjoint held set of grid intervals, every grid interval as the
    arrival, and every action: a reject, or an accept displacing any subset
    of the held set, with and without discard_rest. apply_action and the
    scanning reference reach the same held set and retired ids, or refuse
    with the same text and change nothing."""
    arrivals = [Interval(len(GRID), s, e) for s, e in GRID]
    triples = 0
    for held in disjoint_sets():
        members = [Interval(i, *GRID[i]) for i in held]
        subsets = [frozenset(c) for r in range(len(held) + 1) for c in combinations(held, r)]
        actions = [Action.reject()] + [Action.accept(d, discard) for d in subsets
                                       for discard in (False, True)]
        for arrival in arrivals:
            for action in actions:
                state, reference, retired, ref_retired = (
                    PolicyState(members), ScanningPolicyState(members), set(), set())
                outcome = _outcome(apply_action, state, arrival, action, retired)
                assert outcome == _outcome(scanning_apply_action, reference, arrival, action,
                                           ref_retired), (held, arrival, action)
                assert state.members() == reference.members() and retired == ref_retired
                if outcome is not None:  # a refused action changes nothing
                    assert state.members() == tuple(members) and retired == set()
                triples += 1
    assert triples == 64_860
