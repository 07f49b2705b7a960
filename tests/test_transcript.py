"""The columnar run transcript, diffed against the entry form it replaced.

``harness.RunTranscript`` holds a run as columns: arrival ids, one kind per
arrival and the displaced ids as a flat list plus offsets. The kernel's
file-order record fills them directly, and ``run_policy`` and the adaptive
driver call ``RunTranscript.append``. ``tests/reference.py`` keeps the
earlier form, one ``Action`` and one entry object per arrival; these tests
diff the two forms' JSON rows and the actions the one reader hands back,
on every kernel mode, the Python-only policies and ``duel``.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (
    EntryTranscript,
    TranscriptEntry,
    entry_file_order,
    entry_run_policy,
)
from test_file_order import POLICIES, instances
from test_trials import SEEDS

from revsel.adversary import DriverError, adaptive_lower_bound_driver
from revsel.algorithms import Action, FunctionMemorylessPolicy, make_policy
from revsel.harness import (
    RunTranscript,
    replay_actions,
    run_file_order,
    run_policy,
)
from revsel.rng import Stream


def assert_same_transcript(columns, entries):
    """Equal rows, and the reader's actions are the entries' actions."""
    assert columns.policy == entries.policy
    assert columns.to_json_list() == entries.to_json_list()
    assert list(columns.actions()) == [(e.arrival_id, e.action) for e in entries.entries]


@pytest.mark.parametrize("mode", sorted(POLICIES))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_kernel_transcript_matches_the_entry_form(mode, data):
    """Each kernel mode's record, mapped to ids, against the entries the
    harness used to build from the same record; run_policy's columns equal
    the kernel's with ==."""
    policy = data.draw(POLICIES[mode])
    seq = data.draw(instances(max_lengths=1 if mode == "threshold" else 3))
    seed = data.draw(SEEDS)
    final, transcript = run_file_order(policy, seq, seed)
    ref_final, entries = entry_file_order(policy, seq, seed)
    assert final == ref_final == replay_actions(seq, transcript)
    assert_same_transcript(transcript, entries)
    _, played = run_policy(policy, seq, Stream.for_trial(seed, 0))
    assert played == transcript


def _half_if_free(arrival, state):
    """Accept an arrival that conflicts nothing with probability 1/2, and
    any other with probability 1/3."""
    return Fraction(1, 3) if state.conflicting(arrival) else Fraction(1, 2)


PYTHON_ONLY = [
    make_policy("arb:greedy-disjoint"),
    make_policy("arb:heavier-replace"),
    FunctionMemorylessPolicy(_half_if_free, name="half-if-free"),
]


@pytest.mark.parametrize("policy", PYTHON_ONLY, ids=lambda p: p.name)
@given(seq=instances(), seed=SEEDS)
@settings(max_examples=80, deadline=None)
def test_python_only_transcripts_match_the_entry_form(policy, seq, seed):
    """Policies with no kernel spec, among them the classify-by-length
    wrapper, whose discarding accepts are the third kind."""
    state, transcript = run_policy(policy, seq, Stream.for_trial(seed, 0))
    ref_state, entries = entry_run_policy(policy, seq, Stream.for_trial(seed, 0))
    assert state.ids == ref_state.ids == replay_actions(seq, transcript)
    assert_same_transcript(transcript, entries)
    assert run_file_order(policy, seq, seed) == (state.ids, transcript)


def test_the_writer_and_the_reader_round_trip_every_kind():
    """Each kind, a discarding accept with nothing to discard included, and
    displaced ids written ascending whatever order they came in."""
    actions = [
        (7, Action.reject()),
        (3, Action.accept()),
        (9, Action.accept({3})),
        (4, Action.accept((), discard_rest=True)),
        (1, Action.accept({9, 4, 2}, discard_rest=True)),
        (2, Action.accept({1, 8})),
    ]
    transcript = RunTranscript("p")
    for arrival_id, action in actions:
        transcript.append(arrival_id, action)
    assert transcript == RunTranscript(
        "p", [7, 3, 9, 4, 1, 2], bytearray([0, 1, 1, 2, 2, 1]), [0, 0, 0, 1, 1, 4, 6],
        [3, 2, 4, 9, 1, 8],
    )
    assert list(transcript.actions()) == actions
    entries = EntryTranscript("p", tuple(TranscriptEntry(i, a) for i, a in actions))
    assert transcript.to_json_list() == entries.to_json_list()
    assert not hasattr(transcript, "__dict__")
    for twin in (pickle.loads(pickle.dumps(transcript)), copy.deepcopy(transcript)):
        assert twin == transcript and type(twin) is RunTranscript


DUELS = [
    *((pid, 1, None) for pid in ("greedy-subsume", "always-replace", "call-control",
                                 "never-replace", "one-dir-left", "one-dir-right")),
    ("rand-memoryless:p=1/2", 4, 1),
    ("rand-memoryless:p=1/4", 1, 5),
    ("rand-memoryless:p=1", 3, 2),
]


@pytest.mark.parametrize("pid, copies, seed", DUELS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_duel_transcript_matches_the_entry_form(pid, copies, seed, k):
    """The adaptive driver appends as it emits; a replay over the emitted
    arrivals on the same stream builds the entry form."""
    policy = make_policy(pid)
    t = adaptive_lower_bound_driver(k, policy, copies=copies, seed=seed)
    rng = None if seed is None else Stream.for_trial(seed, 0)
    state, entries = entry_run_policy(policy, t.arrivals, rng)
    assert state.ids == t.final_solution == replay_actions(t.arrivals, t.transcript)
    assert_same_transcript(t.transcript, entries)


@given(k=st.integers(1, 3), copies=st.integers(1, 6), seed=st.integers(0, 2**20))
@settings(max_examples=40, deadline=None)
def test_randomized_duel_transcripts_match_the_entry_form(k, copies, seed):
    policy = FunctionMemorylessPolicy(_half_if_free, name="half-if-free")
    try:
        t = adaptive_lower_bound_driver(k, policy, copies=copies, seed=seed)
    except DriverError:
        assume(False)
    _, entries = entry_run_policy(policy, t.arrivals, Stream.for_trial(seed, 0))
    assert_same_transcript(t.transcript, entries)
