"""Generator geometry and the adaptive driver's guarantees."""

from fractions import Fraction

import pytest

from revsel.adversary import (
    DriverError,
    GeneratorParameterError,
    adaptive_lower_bound_driver,
    gen_call_control_bad,
    gen_chain,
    gen_fork_pair,
    gen_greedy_bad,
    gen_greedy_tight,
    gen_random_instance,
    gen_random_order_bad,
    gen_random_order_bad_wide,
    gen_two_length,
    level_schedule,
)
from revsel.algorithms import (
    Action,
    FunctionMemorylessPolicy,
    Policy,
    greedy_subsume_step,
    make_policy,
)
from revsel.core import (
    conflicts,
    contains_properly,
    dumps_jsonl,
    instance_stats,
    overlap_amount,
    validate_solution,
)
from revsel.harness import run_adversarial
from revsel.oracle import opt_bruteforce, opt_unweighted

CATALOG = [
    "greedy-subsume",
    "always-replace",
    "never-replace",
    "call-control",
    "one-dir-left",
    "one-dir-right",
]


def test_two_length_tiles_exactly():
    s = gen_two_length(3)
    assert [(i.start, i.end) for i in s] == [(0, 3), (0, 1), (1, 2), (2, 3)]
    units = list(s)[1:]
    assert sum(u.length for u in units) == s[0].length
    assert all(not conflicts(a, b) for a in units for b in units if a.id < b.id)
    with pytest.raises(GeneratorParameterError):
        gen_two_length(1)


def test_two_length_ratios():
    assert run_adversarial(make_policy("never-replace"), gen_two_length(5)).ratio == 5
    assert run_adversarial(make_policy("greedy-subsume"), gen_two_length(5)).ratio == 1


def test_greedy_tight_structure():
    s = gen_greedy_tight()
    assert instance_stats(s).k == 2
    assert opt_bruteforce(s).value == 4
    result = run_adversarial(make_policy("greedy-subsume"), s)
    assert result.final_solution == {3}
    assert result.ratio == 4


def test_chain_structure():
    s = gen_chain(2, 6, 2)
    assert [(i.start, i.end) for i in s] == [(0, 6), (4, 10)]
    five = gen_chain(5, 6, 2)
    for member in five:
        neighbors = [o for o in five if o.id != member.id and conflicts(member, o)]
        expected = 1 if member.id in (0, 4) else 2
        assert len(neighbors) == expected
        # One length, so no neighbour contains another: each overlap is partial.
        assert all(overlap_amount(member, o) == 2 for o in neighbors)
    assert five.lengths() == {6}
    assert opt_bruteforce(five).value == 3


def test_call_control_bad_structure_and_runs():
    for k in (2, 3, 4):
        s = gen_call_control_bad(k)
        lengths = sorted(s.lengths(), reverse=True)
        assert len(lengths) == k
        for a, b in zip(lengths, lengths[1:]):
            assert a > 2 * b
        bridge = s[len(s) - 1]
        assert 2 * bridge.length < min(l for l in lengths if l != bridge.length)

        cc = run_adversarial(make_policy("call-control"), s)
        assert cc.final_solution == {bridge.id}
        greedy = run_adversarial(make_policy("greedy-subsume"), s)
        assert len(greedy.final_solution) == 2 * k - 2
        assert validate_solution(s, greedy.final_solution)


def test_greedy_bad_structure_and_runs():
    for k in (2, 3):
        s = gen_greedy_bad(k)
        greedy = run_adversarial(make_policy("greedy-subsume"), s)
        assert greedy.ratio == 2 * k
        assert len(greedy.final_solution) == 1
        cc = run_adversarial(make_policy("call-control"), s)
        assert cc.ratio == 1
        assert opt_bruteforce(s).value == 2 * k
        # nested pivots: each pivot properly contains the next
        pivots = [iv for iv in s if iv.id % 3 == 0]
        for outer, inner in zip(pivots, pivots[1:]):
            assert contains_properly(outer, inner)


def test_random_order_bad_structure():
    s = gen_random_order_bad(3, 4, 10, 10)
    assert opt_unweighted(s).value == 2
    copies = [iv for iv in s if iv.length == 10 and iv.start == 0]
    assert len(copies) == 10
    flank_l, flank_r = s.by_id(10), s.by_id(11)
    assert not conflicts(flank_l, flank_r)
    assert all(conflicts(c, flank_l) and conflicts(c, flank_r) for c in copies)
    with pytest.raises(GeneratorParameterError):
        gen_random_order_bad(5, 4, 10, 10)


def test_random_order_bad_wide_structure():
    s = gen_random_order_bad_wide(3, 6, 10, 10)
    assert opt_unweighted(s).value == 2
    assert not conflicts(s.by_id(10), s.by_id(11))
    with pytest.raises(GeneratorParameterError):
        gen_random_order_bad_wide(4, 6, 10, 10)  # alpha + gamma == L
    with pytest.raises(GeneratorParameterError):
        gen_random_order_bad_wide(3, 5, 10, 10)  # gamma not > L/2


def test_fork_pair_structure():
    s1, s2, probs = gen_fork_pair()
    assert sum(probs) == 1
    for s in (s1, s2):
        assert opt_bruteforce(s).value == 2
        assert len(s.lengths()) == 1
        for a in s:
            for b in s:
                assert not contains_properly(a, b)
    # shared prefix, opposite forks
    assert s1[0] == s2[0] and s1[1] == s2[1]
    assert s1[1].end > s1[0].end
    assert conflicts(s1[2], s1[1]) and not conflicts(s1[2], s1[0])
    assert conflicts(s2[2], s2[0]) and not conflicts(s2[2], s2[1])


def test_every_generator_emits_valid_writable_instances():
    from revsel.core import loads_jsonl

    outputs = [
        gen_two_length(5),
        gen_greedy_tight(),
        gen_chain(5, 6, 2),
        gen_call_control_bad(3),
        gen_greedy_bad(3),
        gen_random_order_bad(3, 4, 10, 10),
        gen_random_order_bad_wide(3, 6, 10, 10),
        gen_fork_pair()[0],
        gen_fork_pair()[1],
        gen_random_instance(25, 4, "rational", 11),
    ]
    for s in outputs:
        assert [iv.id for iv in s] == list(range(len(s)))
        assert loads_jsonl(dumps_jsonl(s)) == s
        instance_stats(s)  # asserts d <= k-1 internally


def test_random_instance_reproducible_and_bounded():
    a = gen_random_instance(40, 4, "rational", 123)
    b = gen_random_instance(40, 4, "rational", 123)
    assert dumps_jsonl(a) == dumps_jsonl(b)
    assert dumps_jsonl(a) != dumps_jsonl(gen_random_instance(40, 4, "rational", 124))
    assert len(a.lengths()) <= 4
    assert len(gen_random_instance(30, 1, "unit", 7).lengths()) == 1
    with pytest.raises(GeneratorParameterError):
        gen_random_instance(0, 3)
    with pytest.raises(GeneratorParameterError):
        gen_random_instance(5, 3, "bogus", 1)


# -- adaptive driver -----------------------------------------------------------


def test_level_schedule_constraints():
    for k in range(1, 6):
        sched = level_schedule(k)
        for (L, v), (L2, v2) in zip(sched, sched[1:]):
            assert 4 * L2 <= L + v
            assert 4 * L2 - 3 * v2 <= L - 2 * v
        assert all(v * 10 == L for L, v in sched)


@pytest.mark.parametrize("policy_id", CATALOG)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_driver_beats_every_deterministic_policy(policy_id, k):
    transcript = adaptive_lower_bound_driver(k, make_policy(policy_id))
    assert len(transcript.final_solution) <= 1
    assert len(transcript.opt_certificate) >= 2 * k
    assert validate_solution(transcript.arrivals, transcript.opt_certificate)
    assert transcript.ratio_at_least(Fraction(2 * k))
    for rec in transcript.levels:
        assert rec.span <= 4 * rec.length - 3 * rec.overlap
    # certificate avoids whatever the policy still holds
    assert not (transcript.opt_certificate & transcript.final_solution)


def test_driver_caps_policies_that_never_stop_replacing():
    t = adaptive_lower_bound_driver(3, make_policy("always-replace"))
    assert all(rec.stop_reason == "cap" for rec in t.levels)
    assert all(rec.branch == "right" for rec in t.levels)
    assert len(t.opt_certificate) >= 6


def test_call_control_bad_greedy_keeps_tops_and_primed_copies():
    # k=3 arrival order: L1 R1 L2 R2 L'2 R'2 M -> survivors L1 R1 L'2 R'2
    seq = gen_call_control_bad(3)
    result = run_adversarial(make_policy("greedy-subsume"), seq)
    assert result.final_solution == {0, 1, 4, 5}


def test_driver_deterministic_transcripts_replay():
    t1 = adaptive_lower_bound_driver(3, make_policy("greedy-subsume"))
    t2 = adaptive_lower_bound_driver(3, make_policy("greedy-subsume"))
    assert t1.to_json_dict() == t2.to_json_dict()


def test_driver_levels_nest():
    t = adaptive_lower_bound_driver(3, make_policy("always-replace"))
    pivots = [t.arrivals.by_id(rec.pivot_id) for rec in t.levels]
    for outer, rec, inner in zip(pivots, t.levels[1:], pivots[1:]):
        assert contains_properly(outer, inner)
        assert inner.start >= outer.start + rec.overlap or True
        # strictly inside the free core of the surviving interval
        prev = t.levels[t.levels.index(rec) - 1]
        assert inner.start >= outer.start + prev.overlap
        assert inner.end <= outer.end - prev.overlap


def test_driver_scales_past_desk_size():
    t = adaptive_lower_bound_driver(6, make_policy("greedy-subsume"))
    assert len(t.opt_certificate) >= 12
    assert len(t.final_solution) <= 1
    assert validate_solution(t.arrivals, t.opt_certificate)


def test_driver_rejects_randomized_without_seed():
    with pytest.raises(ValueError):
        adaptive_lower_bound_driver(2, make_policy("rand-memoryless:p=1/2"))


def test_driver_flags_nondeterministic_liars():
    calls = {"n": 0}

    def flaky(_iv, _state):
        calls["n"] += 1
        return Fraction(1) if calls["n"] % 3 else Fraction(0)

    policy = FunctionMemorylessPolicy(flaky, name="liar")
    policy.deterministic = True  # lies about itself
    with pytest.raises((DriverError, ValueError)):
        adaptive_lower_bound_driver(2, policy)


class _LiesOnCopy(Policy):
    """Greedy-subsume that claims to be deterministic, but whose `lie_on`-th
    fresh copy rejects arrival `target`; every copy shares one counter."""

    name = "greedy-subsume"

    def __init__(self, lie_on, target, made):
        self.lie_on, self.target, self.made = lie_on, target, made
        self.lying = False

    def fresh(self):
        self.made.append(None)
        copy = _LiesOnCopy(self.lie_on, self.target, self.made)
        copy.lying = len(self.made) == self.lie_on
        return copy

    def decide(self, state, arrival, rng=None):
        if self.lying and arrival.id == self.target:
            return Action.reject()
        return greedy_subsume_step(state, arrival)


def test_driver_flags_a_policy_that_diverges_on_the_final_replay():
    # An honest run counts the fresh copies; the last is the final replay.
    made = []
    honest = adaptive_lower_bound_driver(3, _LiesOnCopy(0, None, made))
    accepted = [i for i, action in honest.transcript.actions() if action.accepted]
    target = accepted[-1]
    assert target > 0
    liar = _LiesOnCopy(len(made), target, [])
    with pytest.raises(DriverError, match=f"replay diverged at arrival {target}$"):
        adaptive_lower_bound_driver(3, liar)


def test_amplified_driver_against_coin_flip_policy():
    t = adaptive_lower_bound_driver(2, make_policy("rand-memoryless:p=1/2"), copies=20, seed=7)
    assert len(t.final_solution) <= 1
    assert len(t.opt_certificate) >= 4
    assert validate_solution(t.arrivals, t.opt_certificate)
    assert t.ratio_at_least(Fraction(4))


def test_amplified_driver_with_certain_acceptance_matches_deterministic():
    always = adaptive_lower_bound_driver(2, make_policy("always-replace"))
    amplified = adaptive_lower_bound_driver(2, make_policy("rand-memoryless:p=1"), copies=5, seed=1)
    assert [
        (iv.start, iv.end) for iv in amplified.arrivals
    ] == [(iv.start, iv.end) for iv in always.arrivals]
    assert amplified.opt_certificate == always.opt_certificate


def test_amplified_driver_reject_on_conflict_policy():
    def cautious(arrival, state):
        return Fraction(0) if state.conflicting(arrival) else Fraction(1)

    policy = FunctionMemorylessPolicy(cautious, name="take-if-free")
    for k in (1, 2, 3):
        t = adaptive_lower_bound_driver(k, policy, copies=6, seed=3)
        assert len(t.opt_certificate) >= 2 * k
        assert len(t.final_solution) <= 1
        assert t.ratio_at_least(Fraction(2 * k))


def test_amplified_driver_stops_unfit_when_the_left_has_no_room():
    # A randomized policy is played rightward from the free core's left
    # edge; a level whose first interval is still held after the second has
    # no room to grow leftward, and it keeps that interval's one flank.
    t = adaptive_lower_bound_driver(3, make_policy("rand-memoryless:p=1/4"), copies=1, seed=5)
    assert [level.stop_reason for level in t.levels] == ["declined", "no-take", "unfit"]
    unfit = t.levels[2]
    assert unfit.branch == "left" and len(unfit.flank_ids) == 1
    assert validate_solution(t.arrivals, t.opt_certificate)
