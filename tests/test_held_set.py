"""The sorted held set and the fast paths built on it, diffed against the
naive references in ``reference.py`` on random inputs with touching
endpoints, exact duplicates and nested chains."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    ScanningPolicyState,
    pairwise_nesting_depth,
    restart_normalize_certificate,
    scanning_apply_action,
    scanning_run_policy,
    verify_charging_lazy,
)

from revsel.algorithms import Action, PolicyState, make_policy
from revsel.core import (
    ArrivalSequence,
    InstanceStats,
    Interval,
    instance_stats,
    normalize_to_grid,
)
from revsel.harness import apply_action, replay_actions, run_policy
from revsel.oracle import normalize_certificate, opt_unweighted, opt_weighted, verify_charging
from revsel.rng import Stream


def iv(i, s, e, w=1):
    return Interval(i, s, e, Fraction(w))


# Small coordinates make touching endpoints and exact duplicates common;
# nested chains add deep containment that random placement rarely reaches.
_loose = st.tuples(st.integers(0, 16), st.integers(1, 6), st.integers(1, 3))


@st.composite
def _chain(draw):
    """Properly nested intervals around one point, sharing an end or not."""
    c = draw(st.integers(6, 12))
    halves = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5, unique=True))
    anchor = draw(st.sampled_from(["centered", "left", "right"]))
    spans = {"centered": lambda h: (c - h, c + h), "left": lambda h: (c, c + h),
             "right": lambda h: (c - h, c)}[anchor]
    return [(spans(h)[0], spans(h)[1] - spans(h)[0], 1) for h in halves]


@st.composite
def instances(draw, single_length=False):
    if single_length:
        L = draw(st.integers(1, 5))
        rows = draw(st.lists(st.tuples(st.integers(0, 16), st.just(L), st.integers(1, 3)),
                             min_size=1, max_size=24))
    else:
        rows = draw(st.lists(_loose, min_size=0, max_size=16))
        for chain in draw(st.lists(_chain(), max_size=2)):
            rows.extend(chain)
        if not rows:
            rows.append(draw(_loose))
        rows.extend(draw(st.lists(st.sampled_from(rows), max_size=4)))  # exact copies
        rows = draw(st.permutations(rows))
    return ArrivalSequence(
        Interval(i, s, s + length, Fraction(w)) for i, (s, length, w) in enumerate(rows)
    )


EACH_LENGTH = ["greedy-subsume", "call-control", "always-replace", "never-replace"]
RANDOMIZED = ["rand-memoryless:p=1/2", "arb:greedy-disjoint", "arb:heavier-replace"]
SINGLE_LENGTH = ["one-dir-left", "one-dir-right"]


def _same_run(pid, seq, seed=None):
    def rng():
        return Stream.for_trial(seed, 1) if seed is not None else None

    state, transcript = run_policy(make_policy(pid), seq, rng())
    ref_state, ref_transcript = scanning_run_policy(make_policy(pid), seq, rng())
    assert transcript == ref_transcript, pid
    assert state.members() == ref_state.members(), pid


@given(instances(), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_policy_runs_match_scanning_reference(seq, seed):
    for pid in EACH_LENGTH:
        _same_run(pid, seq)
    for pid in RANDOMIZED:
        _same_run(pid, seq, seed)


@given(instances(single_length=True))
@settings(max_examples=100, deadline=None)
def test_single_length_policy_runs_match_scanning_reference(seq):
    for pid in SINGLE_LENGTH:
        _same_run(pid, seq)


@given(instances(), st.lists(_loose, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_conflicting_matches_scan(seq, queries):
    state, reference = PolicyState(), ScanningPolicyState()
    for interval in seq:  # keep the disjoint ones, as a held set must
        if not reference.conflicting(interval):
            state._add(interval)
            reference._add(interval)
    assert state.members() == reference.members()
    for s, length, _ in queries:
        arrival = iv(10_000, s, s + length)
        assert state.conflicting(arrival) == reference.conflicting(arrival)
    for member in reference.members()[::2]:
        state._remove(member.id)
        reference._remove(member.id)
    assert state.members() == reference.members()
    assert state.ids == reference.ids and len(state) == len(reference)


def _outcome(apply, state, arrival, action, retired):
    """The error `apply` raises, as (type, message), or None."""
    try:
        apply(state, arrival, action, retired)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@st.composite
def _any_action(draw, seq, held, clash):
    """A reject, or an accept displacing: all or part of the conflicting run
    (part of it still clashes); held ids, conflicting or not; any ids,
    including ones never held, already retired or outside the instance; or,
    discarding, all or part of the held set."""
    def some(ids):
        return draw(st.one_of(st.just(ids), st.sets(st.sampled_from(ids)))) if ids else ()

    kind = draw(st.sampled_from(["reject", "clash", "held", "any", "discard"]))
    if kind == "reject":
        return Action.reject()
    if kind == "clash":
        return Action.accept(some(clash))
    if kind == "held":
        return Action.accept(draw(st.sets(st.sampled_from(held), max_size=2)) if held else ())
    if kind == "any":
        ids = sorted(seq.ids) + [len(seq)]
        return Action.accept(draw(st.sets(st.sampled_from(ids), max_size=3)))
    return Action.accept(some(held), discard_rest=True)


@given(instances(), st.data())
@settings(max_examples=200, deadline=None)
def test_apply_action_matches_scanning_reference_on_any_action(seq, data):
    # Arrivals not yet seen are drawn first, then any arrival again. After
    # every action, refused or not, both sides hold and have retired the
    # same ids.
    state, retired = PolicyState(), set()
    reference, ref_retired = ScanningPolicyState(), set()
    order = data.draw(st.permutations(list(seq)))
    order += data.draw(st.lists(st.sampled_from(order), max_size=4))
    for arrival in order:
        clash = [m.id for m in reference.conflicting(arrival)]
        action = data.draw(_any_action(seq, sorted(reference.ids), clash))
        assert _outcome(apply_action, state, arrival, action, retired) == _outcome(
            scanning_apply_action, reference, arrival, action, ref_retired
        )
        assert state.members() == reference.members()
        assert retired == ref_retired


@given(instances())
@settings(max_examples=200, deadline=None)
def test_instance_stats_match_pairwise_depth(seq):
    k = len(seq.lengths())
    _, grid_points = normalize_to_grid(seq)
    assert instance_stats(seq) == InstanceStats(k, pairwise_nesting_depth(seq), grid_points)


def test_nesting_depth_with_partial_overlap_inside_a_chain():
    # C lies in A lies in E; B overlaps A partially, which a (start, -end)
    # stack sweep mistakes for the end of A's chain.
    seq = ArrivalSequence([iv(0, -1, 11), iv(1, 0, 10), iv(2, 2, 12), iv(3, 3, 9)])
    assert pairwise_nesting_depth(seq) == 2
    assert instance_stats(seq).d == 2


def _accepted_of(transcript):
    return [e.arrival_id for e in transcript.entries if e.action.accepted]


@given(instances(), st.data())
@settings(max_examples=200, deadline=None)
def test_normalize_certificate_matches_restart_loop(seq, data):
    accepted_sets = [
        _accepted_of(run_policy(make_policy("greedy-subsume"), seq)[1]),
        data.draw(st.lists(st.sampled_from(sorted(seq.ids)), unique=True)),
    ]
    for opt in (opt_unweighted(seq), opt_weighted(seq)):
        for accepted in accepted_sets:
            assert normalize_certificate(seq, opt.members, accepted) == (
                restart_normalize_certificate(seq, opt.members, accepted)
            )


@given(instances())
@settings(max_examples=200, deadline=None)
def test_charging_audit_ends_where_the_harness_ends(seq):
    # The audit applies each action through apply_action; its final set must
    # still match a separate replay and the live run, and its ledger the
    # reference audit's, which swaps the held set without validation.
    unit = ArrivalSequence(Interval(x.id, x.start, x.end) for x in seq)
    state, transcript = run_policy(make_policy("greedy-subsume"), unit)
    opt, k = opt_unweighted(unit), len(unit.lengths())
    ledger = verify_charging(unit, transcript, opt, k)
    assert ledger.final_members == replay_actions(unit, transcript) == state.ids
    assert ledger.to_json_dict() == verify_charging_lazy(unit, transcript, opt, k).to_json_dict()


def test_policy_state_rejects_overlapping_members():
    with pytest.raises(ValueError):
        PolicyState([iv(0, 0, 5), iv(1, 4, 8)])
    with pytest.raises(ValueError):
        PolicyState([iv(0, 0, 5), iv(1, 0, 5)])  # exact duplicate geometry
    with pytest.raises(ValueError):
        PolicyState([iv(0, 0, 9), iv(1, 3, 4)])  # nested
    state = PolicyState([iv(0, 5, 8), iv(1, 0, 5)])  # touching is disjoint
    assert [m.id for m in state.members()] == [1, 0]
    with pytest.raises(ValueError):
        state._add(iv(2, 7, 12))
    with pytest.raises(ValueError):
        state._add(iv(0, 20, 21))  # id already held
    assert [m.id for m in state.members()] == [1, 0]
