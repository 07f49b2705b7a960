"""Every small instance, checked exhaustively rather than sampled.

The 15 intervals of length 1, 2 or 3 on the grid 0..6 hold touching
endpoints, exact copies and proper containment, which decide most of the
step policies' branches. Every ordered sequence of one to three of them,
copies included, is run through each step policy by ``run_policy`` and
diffed against the scanning held set of ``reference.py``, and against the
kernel's file-order run (which is ``run_policy`` when no kernel is loaded).
"""

from itertools import product

import pytest
from reference import scanning_run_policy

from revsel import _engine
from revsel.algorithms import make_policy
from revsel.core import ArrivalSequence, Interval
from revsel.harness import run_file_order, run_policy

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
