"""Policy decision rules, the action contract, and policy invariants."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import arb_length_draws

from revsel import _engine
from revsel.algorithms import (
    Action,
    ArbPolicy,
    FunctionMemorylessPolicy,
    PolicyDomainError,
    PolicyState,
    ThresholdPolicyTables,
    always_replace_step,
    call_control_unweighted_step,
    greedy_subsume_step,
    make_policy,
    memoryless_randomized_step,
    never_replace_step,
    takes_over,
    threshold_memoryless_step,
)
from revsel.adversary import gen_random_instance, gen_two_length
from revsel.core import Interval, validate_solution
from revsel.harness import apply_action, run_policy
from revsel.rng import Stream


def iv(i, s, e, w=1):
    return Interval(i, s, e, Fraction(w))


def state_of(*intervals):
    return PolicyState(intervals)


# -- greedy subsume -----------------------------------------------------------


def test_greedy_subsume_examples():
    st_ = state_of(iv(0, -10, 10))
    act = greedy_subsume_step(st_, iv(1, -3, 3))
    assert act.accepted and act.displaced == {0}

    act = greedy_subsume_step(st_, iv(2, -14, -8))
    assert not act.accepted

    act = greedy_subsume_step(state_of(), iv(3, 0, 5))
    assert act.accepted and act.displaced == frozenset()


def test_greedy_subsume_discards_exact_duplicate():
    st_ = state_of(iv(0, 0, 5))
    assert not greedy_subsume_step(st_, iv(1, 0, 5)).accepted


# -- call control -------------------------------------------------------------


def test_call_control_half_length_rule():
    # length 3 arrival vs held length 8: 2*3 < 8, displace
    act = call_control_unweighted_step(state_of(iv(0, 0, 8)), iv(1, 6, 9))
    assert act.accepted and act.displaced == {0}

    # neither containment nor half-length fires
    act = call_control_unweighted_step(
        state_of(iv(0, 0, 4), iv(1, 6, 10)), iv(2, 3, 7)
    )
    assert not act.accepted

    # short middle interval displaces both neighbors at once
    act = call_control_unweighted_step(
        state_of(iv(0, 0, 10), iv(1, 12, 22)), iv(2, 9, 13)
    )
    assert act.accepted and act.displaced == {0, 1}


def test_call_control_containment_still_works():
    act = call_control_unweighted_step(state_of(iv(0, 0, 10)), iv(1, 2, 8))
    assert act.accepted and act.displaced == {0}


# -- always / never -----------------------------------------------------------


def test_always_and_never():
    held = state_of(iv(0, 0, 6))
    act = always_replace_step(held, iv(1, 4, 10))
    assert act.accepted and act.displaced == {0}
    assert not never_replace_step(held, iv(1, 4, 10)).accepted
    assert always_replace_step(state_of(), iv(2, 0, 1)).accepted
    assert never_replace_step(state_of(), iv(2, 0, 1)).accepted


# -- threshold / one-directional ----------------------------------------------


def test_threshold_left_right_dispatch():
    all_left = ThresholdPolicyTables(left_default=1, right_default=0)
    # arrival extends left past the member: left table
    act = threshold_memoryless_step(all_left, state_of(iv(0, 4, 10)), iv(1, 0, 6))
    assert act.accepted and act.displaced == {0}
    # right conflict: right table says keep
    act = threshold_memoryless_step(all_left, state_of(iv(0, 0, 6)), iv(1, 4, 10))
    assert not act.accepted


def test_threshold_rejects_double_conflict():
    tables = ThresholdPolicyTables(left_default=1, right_default=1)
    st_ = state_of(iv(0, 0, 6), iv(1, 8, 14))
    act = threshold_memoryless_step(tables, st_, iv(2, 4, 10))
    assert not act.accepted


def test_threshold_coincident_copy_uses_right_table():
    tables = ThresholdPolicyTables(left_default=1, right_default=0)
    act = threshold_memoryless_step(tables, state_of(iv(0, 0, 6)), iv(1, 0, 6))
    assert not act.accepted
    tables = ThresholdPolicyTables(right={6: 1})
    act = threshold_memoryless_step(tables, state_of(iv(0, 0, 6)), iv(1, 0, 6))
    assert act.accepted


def test_threshold_guards_cross_length_partial_conflicts():
    tables = ThresholdPolicyTables(left_default=1, right_default=1)
    with pytest.raises(PolicyDomainError):
        threshold_memoryless_step(tables, state_of(iv(0, 0, 6)), iv(1, 4, 14))


def test_threshold_rejects_containment_conflicts_silently():
    # multi-length nesting appears in adversary duels: reject, don't raise
    tables = ThresholdPolicyTables(left_default=1, right_default=1)
    act = threshold_memoryless_step(tables, state_of(iv(0, 0, 20)), iv(1, 5, 10))
    assert not act.accepted


def test_one_directional():
    left, right = make_policy("one-dir-left"), make_policy("one-dir-right")
    act = left.decide(state_of(iv(0, 4, 10)), iv(1, 0, 6))
    assert act.accepted
    assert not left.decide(state_of(iv(0, 0, 6)), iv(1, 4, 10)).accepted
    assert right.decide(state_of(iv(0, 0, 6)), iv(1, 4, 10)).accepted


def test_threshold_depends_only_on_state_and_arrival():
    # same held solution reached through different histories: same action
    tables = ThresholdPolicyTables(left={2: 1}, right={2: 0})
    arrival = iv(9, 0, 6)
    a = threshold_memoryless_step(tables, state_of(iv(0, 4, 10)), arrival)
    b = threshold_memoryless_step(tables, state_of(iv(7, 4, 10)), arrival)
    assert a.accepted == b.accepted


# -- memoryless randomized ----------------------------------------------------


def test_randomized_extremes_match_deterministic():
    rng = Stream.for_trial(1, 0)
    held = state_of(iv(0, 0, 6))
    arrival = iv(1, 4, 10)
    act = memoryless_randomized_step(lambda _i, _s: Fraction(1), held, arrival, rng)
    assert act.accepted and act.displaced == {0}
    act = memoryless_randomized_step(lambda _i, _s: Fraction(0), held, arrival, rng)
    assert not act.accepted


def test_randomized_probability_out_of_range():
    rng = Stream.for_trial(1, 0)
    with pytest.raises(ValueError):
        memoryless_randomized_step(
            lambda _i, _s: Fraction(3, 2), state_of(), iv(0, 0, 1), rng
        )


def test_repeated_copies_displace_with_high_probability():
    # m identical conflicting arrivals at p=1/2: displaced w.p. 1 - 2^-m
    m, runs = 3, 4000
    displaced = 0
    for r in range(runs):
        rng = Stream.for_trial(17, r)
        state = state_of(iv(0, 0, 6))
        retired = set()
        for c in range(m):
            arrival = iv(1 + c, 4, 10)
            act = memoryless_randomized_step(
                lambda _i, _s: Fraction(1, 2), state, arrival, rng
            )
            apply_action(state, arrival, act, retired)
        if 0 not in state.ids:
            displaced += 1
    expected = 1 - 2**-m
    assert abs(displaced / runs - expected) < 0.03


# -- classify-by-length wrapper -------------------------------------------------


def test_arb_first_length_always_chosen():
    arb = ArbPolicy("greedy-disjoint")
    rng = Stream.for_trial(5, 0)
    assert not arb.observe(iv(0, 0, 4), rng)  # no restart on the first length
    assert arb.chosen_length == 4


def test_arb_second_length_switches_half_the_time():
    switches = 0
    runs = 4000
    for r in range(runs):
        arb = ArbPolicy("greedy-disjoint")
        rng = Stream.for_trial(11, r)
        arb.observe(iv(0, 0, 4), rng)
        if arb.observe(iv(1, 10, 12), rng):
            switches += 1
    assert abs(switches / runs - 0.5) < 0.03


def test_arb_rejects_other_lengths_and_discards_on_switch():
    arb = ArbPolicy("greedy-disjoint")
    state = state_of()
    retired = set()
    # find a seed where the second length wins the 1/2 draw
    for seed in range(50):
        probe = ArbPolicy("greedy-disjoint")
        rng = Stream.for_trial(seed, 0)
        probe.observe(iv(0, 0, 4), rng)
        if probe.observe(iv(1, 10, 12), rng):
            break
    rng = Stream.for_trial(seed, 0)
    a0 = arb.decide(state, iv(0, 0, 4), rng)
    apply_action(state, iv(0, 0, 4), a0, retired)
    assert state.ids == {0}
    a1 = arb.decide(state, iv(1, 10, 12), rng)
    assert a1.accepted and a1.discard_rest and a1.displaced == {0}
    apply_action(state, iv(1, 10, 12), a1, retired)
    assert state.ids == {1}
    # back to the abandoned length: rejected outright
    a2 = arb.decide(state, iv(2, 20, 24), rng)
    assert not a2.accepted


def test_takes_over_draws_as_the_reference_does():
    """The length-choice rule, called for the 1st to 40th length, against
    its restatement in reference.py: the same chosen length and the same
    stream state after every call, for seeds 0-99."""
    lengths = list(range(1, 41))
    for seed in range(100):
        rng, chosen = Stream.for_trial(seed, 0), None
        for i, expected in enumerate(arb_length_draws(lengths, seed, 0), 1):
            if takes_over(i, rng):
                chosen = lengths[i - 1]
            assert (chosen, rng.state) == expected, (seed, i)


def test_arb_heavier_replace_subroutine():
    arb = ArbPolicy("heavier-replace")
    rng = Stream.for_trial(2, 0)
    state = state_of()
    retired = set()
    first = iv(0, 0, 6, 1)
    apply_action(state, first, arb.decide(state, first, rng), retired)
    heavy = iv(1, 4, 10, 3)
    act = arb.decide(state, heavy, rng)
    assert act.accepted and act.displaced == {0}


def test_fresh_shares_stateless_policies_and_renews_arb(tmp_path):
    table = tmp_path / "tables.json"
    table.write_text('{"left_default": 1}')
    for pid in ("greedy-subsume", "call-control", "always-replace", "never-replace",
                "one-dir-left", "one-dir-right", f"threshold:{table}", "rand-memoryless:p=1/2"):
        policy = make_policy(pid)
        assert policy.fresh() is policy, pid
    # A run drives the wrapper's own length choice; fresh() starts a new one.
    arb = make_policy("arb:heavier-replace")
    state, retired, rng = state_of(), set(), Stream.for_trial(3, 0)
    for arrival in gen_two_length(4):
        apply_action(state, arrival, arb.decide(state, arrival, rng), retired)
    assert arb.chosen_length is not None and list(arb.lengths_seen) == [4, 1]
    renewed = arb.fresh()
    assert renewed is not arb and isinstance(renewed, ArbPolicy)
    assert renewed.name == "arb:heavier-replace"
    assert renewed.chosen_length is None and not renewed.lengths_seen


# -- action contract ------------------------------------------------------------


def test_action_reject_cannot_displace():
    with pytest.raises(ValueError):
        Action(False, frozenset({1}))


def test_argument_free_actions_are_shared_and_frozen():
    for shared, fresh in (
        (Action.accept(), Action(True)),
        (Action.accept(()), Action(True)),
        (Action.reject(), Action(False)),
    ):
        assert shared == fresh and hash(shared) == hash(fresh)
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.accepted = not shared.accepted
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.displaced = frozenset({1})
    assert Action.accept() is Action.accept(()) is Action.accept(set())
    assert Action.reject() is Action.reject()
    # Anything displaced or discarded still builds its own action.
    assert Action.accept({1}) == Action(True, frozenset({1}))
    assert Action.accept((), discard_rest=True) == Action(True, frozenset(), True)
    assert Action.accept(iter(())) == Action(True)


@pytest.mark.parametrize(
    "record",
    [
        Interval(3, -2, 5, Fraction(2, 3)),
        Action.accept(),
        Action.reject(),
        Action.accept({4, 1}),
        Action.accept({7}, discard_rest=True),
    ],
)
def test_records_are_slotted_and_round_trip(record):
    assert not hasattr(record, "__dict__")
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin == record and hash(twin) == hash(record)
        assert type(twin) is type(record)


def test_interval_validation_survives_slots():
    interval = iv(0, 2, 9, Fraction(1, 2))
    with pytest.raises(ValueError):
        dataclasses.replace(interval, start=interval.end)
    with pytest.raises(ValueError):
        dataclasses.replace(interval, weight=Fraction(-1))
    with pytest.raises(TypeError):
        dataclasses.replace(interval, end=True)
    assert dataclasses.replace(interval, weight=3).weight == Fraction(3)


def test_make_policy_identifiers():
    # identifier -> (deterministic, kernel mode or None)
    table = {
        "greedy-subsume": (True, "greedy-subsume"),
        "call-control": (True, "call-control"),
        "one-dir-left": (True, "threshold"),
        "one-dir-right": (True, "threshold"),
        "always-replace": (True, "always"),
        "never-replace": (True, "never"),
        "rand-memoryless:p=1/2": (False, "memoryless"),
        "arb:greedy-disjoint": (False, None),
        "arb:heavier-replace": (False, None),
    }
    for pid, (deterministic, mode) in table.items():
        policy = make_policy(pid)
        assert policy.name == pid
        assert policy.deterministic is deterministic
        spec = policy.kernel_spec()
        assert (None if spec is None else spec["mode"]) == mode
        assert spec is None or spec["mode"] in _engine._MODES
    # rand-memoryless is the memoryless policy's constant case.
    assert isinstance(make_policy("rand-memoryless:p=1/3"), FunctionMemorylessPolicy)
    for pid in ("nope", "rand-memoryless:q=1", "one-dir-up", "greedy"):
        with pytest.raises(ValueError):
            make_policy(pid)


# -- feasibility invariant across policies ---------------------------------------


DETERMINISTIC_IDS = [
    "greedy-subsume",
    "call-control",
    "always-replace",
    "never-replace",
]
SINGLE_LENGTH_IDS = ["one-dir-left", "one-dir-right"]


@given(st.integers(0, 10_000), st.integers(1, 25))
@settings(max_examples=60, deadline=None)
def test_every_policy_keeps_a_feasible_solution(seed, n):
    seq = gen_random_instance(n, 1 + seed % 5, "unit", seed)
    for pid in DETERMINISTIC_IDS:
        state, transcript = run_policy(make_policy(pid), seq)
        assert validate_solution(seq, state.ids)
        actions = list(transcript.actions())
        accepted = [i for i, action in actions if action.accepted]
        assert len(accepted) == len(set(accepted))
        displaced = {d for _, action in actions for d in action.displaced}
        later_accepts = set(accepted)
        assert state.ids <= later_accepts
        assert not (state.ids & displaced) or all(
            d not in state.ids for d in displaced
        )
    single = gen_random_instance(n, 1, "unit", seed)
    for pid in SINGLE_LENGTH_IDS:
        state, _ = run_policy(make_policy(pid), single)
        assert validate_solution(single, state.ids)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_randomized_policies_keep_feasible_solutions(seed):
    seq = gen_random_instance(20, 3, "unit", seed)
    for pid in ("rand-memoryless:p=1/3", "arb:greedy-disjoint", "arb:heavier-replace"):
        state, _ = run_policy(make_policy(pid), seq, rng=Stream.for_trial(seed, 1))
        assert validate_solution(seq, state.ids)


def test_greedy_subsume_never_displaces_more_than_one():
    for seed in range(200):
        seq = gen_random_instance(30, 4, "unit", seed)
        _, transcript = run_policy(make_policy("greedy-subsume"), seq)
        for _, action in transcript.actions():
            assert len(action.displaced) <= 1
