"""Every small instance, checked exhaustively rather than sampled.

The 15 intervals of length 1, 2 or 3 on the grid 0..6 hold touching
endpoints, exact copies and proper containment, which decide most of the
step policies' branches. Every ordered sequence of one to three of them,
copies included, is run through each step policy by ``run_policy`` and
diffed against the scanning held set of ``reference.py``, and against the
kernel's file-order run (which is ``run_policy`` when no kernel is loaded).
The step policies never discard and never displace part of a run, so the
module also applies every action to every disjoint held set of grid
intervals through ``apply_action``, diffed against ``scanning_apply_action``.
"""

from itertools import combinations, product

import pytest
from reference import ScanningPolicyState, scanning_apply_action, scanning_run_policy

from revsel import _engine
from revsel.algorithms import Action, PolicyState, make_policy
from revsel.core import ArrivalSequence, Interval
from revsel.harness import InfeasibleActionError, apply_action, run_file_order, run_policy

STEP_POLICIES = ["greedy-subsume", "call-control", "always-replace", "never-replace"]
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
