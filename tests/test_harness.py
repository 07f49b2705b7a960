"""Runners: exact ratios, reproducibility, trial statistics, action safety."""

import io
from fractions import Fraction

import pytest
from test_trials import trial_samples

from revsel import _engine, algorithms
from revsel.adversary import (
    gen_random_order_bad_wide,
    gen_fork_pair,
    gen_greedy_tight,
    gen_random_instance,
    gen_random_order_bad,
    gen_two_length,
)
from revsel.algorithms import (
    Action,
    ArbPolicy,
    Policy,
    PolicyDomainError,
    PolicyState,
    ThresholdPolicy,
    ThresholdPolicyTables,
    make_policy,
)
from revsel.core import ArrivalSequence, EmptyInstanceError, Interval
from revsel.harness import (
    InfeasibleActionError,
    apply_action,
    exact_ratio,
    format_value,
    replay_actions,
    run_adversarial,
    run_arb_expectation,
    run_distributional,
    run_policy,
    run_random_order,
)


def test_run_adversarial_examples():
    assert run_adversarial(make_policy("greedy-subsume"), gen_greedy_tight()).ratio == 4
    assert run_adversarial(make_policy("never-replace"), gen_two_length(5)).ratio == 5
    single = ArrivalSequence([Interval(0, 0, 7)])
    assert run_adversarial(make_policy("greedy-subsume"), single).ratio == 1


def test_run_result_serialization_is_stable():
    r1 = run_adversarial(make_policy("greedy-subsume"), gen_greedy_tight())
    r2 = run_adversarial(make_policy("greedy-subsume"), gen_greedy_tight())
    assert _engine.dumps_json(r1.to_json_dict()) == _engine.dumps_json(r2.to_json_dict())
    assert r1.to_json_dict()["ratio"] == "4/1"


def test_exact_ratio_sentinel():
    assert exact_ratio(Fraction(3), Fraction(0)) is None
    assert format_value(None) == "inf"
    assert exact_ratio(Fraction(0), Fraction(0)) == 1


class _RejectEverything(Policy):
    name = "reject-everything"

    def decide(self, state, arrival, rng=None):
        return Action.reject()


def test_empty_solution_reports_infinite_ratio():
    result = run_adversarial(_RejectEverything(), gen_two_length(3))
    assert result.ratio is None
    assert result.to_json_dict()["ratio"] == "inf"


class _Saboteur(Policy):
    """Displaces a non-conflicting member: the harness must refuse."""

    name = "saboteur"

    def decide(self, state, arrival, rng=None):
        members = state.members()
        if members and not state.conflicting(arrival):
            return Action.accept({members[0].id})
        return Action.accept({m.id for m in state.conflicting(arrival)})


def test_harness_rejects_infeasible_displacement():
    seq = ArrivalSequence([Interval(0, 0, 2), Interval(1, 10, 12)])
    with pytest.raises(InfeasibleActionError):
        run_policy(_Saboteur(), seq)


class _Hoarder(Policy):
    """Accepts everything without displacing: feasibility check must fire."""

    name = "hoarder"

    def decide(self, state, arrival, rng=None):
        return Action.accept()


def test_harness_rejects_conflicting_accept():
    seq = ArrivalSequence([Interval(0, 0, 10), Interval(1, 5, 15)])
    with pytest.raises(InfeasibleActionError):
        run_policy(_Hoarder(), seq)


def test_every_accept_searches_the_held_set_once(monkeypatch):
    """apply_action's checks are PolicyState._accept's: an accept, feasible
    or refused, finds its conflicting run with one bisection pair (one
    bisect_right alone when nothing conflicts) and never calls
    conflicting(); a reject and a discarding accept search not at all."""
    calls, searches = [], []
    search = PolicyState.conflicting

    def counted(self, arrival):
        calls.append(arrival.id)
        return search(self, arrival)

    def counting(name):
        bisect = getattr(algorithms, name)

        def counted_bisect(*args):
            searches.append(name)
            return bisect(*args)
        return counted_bisect

    def searched(arrival, action):
        searches.clear()
        apply_action(state, arrival, action, retired)
        return searches

    monkeypatch.setattr(PolicyState, "conflicting", counted)
    for name in ("bisect_left", "bisect_right"):
        monkeypatch.setattr(algorithms, name, counting(name))
    state, retired = PolicyState([Interval(0, 0, 10), Interval(1, 20, 30)]), set()
    pair = ["bisect_right", "bisect_left"]
    assert searched(Interval(2, 10, 20), Action.accept()) == ["bisect_right"]  # touches both
    assert searched(Interval(3, 22, 25), Action.accept({1})) == pair
    assert searched(Interval(4, 5, 7), Action.reject()) == []
    assert searched(Interval(5, 3, 40), Action.accept({0, 2, 3})) == pair
    assert [m.id for m in state.members()] == [5] and retired == {0, 1, 2, 3, 4}
    with pytest.raises(InfeasibleActionError, match="^accepting 6 leaves a conflict with held 5$"):
        searched(Interval(6, 39, 41), Action.accept())
    assert searches == pair
    assert searched(Interval(7, 50, 60), Action.accept({5}, discard_rest=True)) == []
    assert [m.id for m in state.members()] == [7] and calls == []


_HELD = (Interval(0, 0, 10), Interval(1, 20, 30))

# One case per refusal: (arrival, action, retired before, message).
_REFUSALS = [
    (Interval(0, 40, 50), Action.accept(), {9}, "interval 0 appeared twice"),
    (Interval(9, 40, 50), Action.reject(), {9}, "interval 9 appeared twice"),
    (Interval(2, 5, 25), Action.accept({0, 7}), set(), "displaced id 7 is not currently held"),
    (Interval(2, 5, 8), Action.accept({0}, discard_rest=True), set(),
     "a discarding accept must displace the whole solution"),
    (Interval(2, 5, 8), Action.accept({0, 1}), set(),
     "displaced id 1 does not conflict with arrival 2"),
    (Interval(2, 5, 25), Action.accept({0}), set(), "accepting 2 leaves a conflict with held 1"),
    (Interval(2, 5, 25), Action.accept({1}), set(), "accepting 2 leaves a conflict with held 0"),
    (Interval(2, 10, 20), Action.accept({1}), set(),
     "displaced id 1 does not conflict with arrival 2"),  # touching is no conflict
    (Interval(2, 12, 14), Action.accept({0, 1}), set(),
     "displaced id 0 does not conflict with arrival 2"),
]


@pytest.mark.parametrize(
    "arrival, action, retired, message",
    _REFUSALS,
    ids=["held-twice", "retired-twice", "not-held", "part-discard", "no-conflict", "clash-right",
         "clash-left", "touching", "no-conflict-first"],
)
def test_a_refused_action_changes_nothing(arrival, action, retired, message):
    state = PolicyState(_HELD)
    before = state.members(), state.ids, set(retired)
    with pytest.raises(InfeasibleActionError, match=f"^{message}$"):
        apply_action(state, arrival, action, retired)
    assert (state.members(), state.ids, retired) == before
    assert len(state) == 2 and all(state.by_id(m.id) is m for m in _HELD)


def test_replay_matches_live_run():
    for seed in range(30):
        seq = gen_random_instance(25, 3, "unit", seed)
        state, transcript = run_policy(make_policy("call-control"), seq)
        assert replay_actions(seq, transcript) == state.ids


def test_transcript_reproducible_bit_for_bit():
    seq = gen_random_order_bad(3, 4, 20, 10)
    policy = make_policy("rand-memoryless:p=1/3")
    a = run_adversarial(policy, seq, seed=99)
    b = run_adversarial(policy, seq, seed=99)
    assert _engine.dumps_json(a.to_json_dict()) == _engine.dumps_json(b.to_json_dict())
    c = run_adversarial(policy, seq, seed=100)
    assert a.to_json_dict() != c.to_json_dict()


# -- random order ---------------------------------------------------------------


def test_random_order_stats_reproducible_and_extendable():
    seq = gen_random_order_bad(3, 4, 30, 10)
    policy = make_policy("never-replace")
    s1 = trial_samples(policy, seq, 50, seed=5)
    s2 = trial_samples(policy, seq, 50, seed=5)
    assert s1 == s2
    s3 = trial_samples(policy, seq, 80, seed=5)
    assert s3[:50] == s1  # substreams per trial


def test_random_order_kernel_and_python_paths_agree():
    seq = gen_random_order_bad(3, 4, 25, 10)
    policy = make_policy("always-replace")

    class NoKernel(type(policy)):
        def kernel_spec(self):
            return None

    plain = trial_samples(policy, seq, 60, seed=11)
    forced = trial_samples(NoKernel(policy.name, policy.step, policy.mode), seq, 60, seed=11)
    assert plain == forced


def test_random_order_threshold_policy_paths_agree():
    seq = gen_random_order_bad(3, 4, 25, 10)
    tables = ThresholdPolicyTables(left={3: 1}, right={4: 1}, left_default=0, right_default=0)
    policy = ThresholdPolicy(tables)

    class NoKernel(ThresholdPolicy):
        def kernel_spec(self):
            return None

    plain = trial_samples(policy, seq, 60, seed=2)
    forced = trial_samples(NoKernel(tables), seq, 60, seed=2)
    assert plain == forced


def test_random_order_whp_ratios():
    seq = gen_random_order_bad(3, 4, 100, 10)
    for pid in ("never-replace", "always-replace"):
        stats = run_random_order(make_policy(pid), seq, 1000, seed=21)
        assert stats.fraction_with_ratio_exactly(Fraction(2)) >= Fraction(95, 100)


def test_random_order_one_directional_beats_two():
    seq = gen_random_order_bad(3, 4, 100, 10)
    stats = run_random_order(make_policy("one-dir-left"), seq, 1000, seed=4)
    assert stats.mean_ratio < 2


def test_random_order_one_directional_beats_two_on_wide_overlap():
    # replaces through the wide overlap too, so the left flanker usually
    # survives long enough for the right one to join; no 2 lower bound here
    seq = gen_random_order_bad_wide(3, 6, 100, 10)
    stats = run_random_order(make_policy("one-dir-left"), seq, 1000, seed=4)
    assert stats.mean_ratio < 2


def test_trial_stats_quantiles_and_csv():
    seq = gen_random_order_bad(3, 4, 10, 10)
    buf = io.StringIO()
    stats = run_random_order(make_policy("never-replace"), seq, 40, seed=9, out=buf)
    assert stats.quantile(Fraction(1, 2)) in (Fraction(1), Fraction(2))
    ratios = [exact_ratio(stats.opt_value, alg)
              for alg in trial_samples(make_policy("never-replace"), seq, 40, seed=9)]
    assert stats.quantile(Fraction(1)) == max(ratios)
    csv_text = buf.getvalue()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "trial,seed,alg,opt,ratio"
    assert len(lines) == 41
    assert lines[1].startswith("0,9,")


def _spy_on_kernel(monkeypatch):
    """The (spec, answer) of every call to the engine's trial entry."""
    calls = []
    real = _engine.run_single_length_trials

    def spy(*args, **kwargs):
        answer = real(*args, **kwargs)
        calls.append((args[2], answer))
        return answer

    monkeypatch.setattr(_engine, "run_single_length_trials", spy)
    return calls


def test_kernel_takes_unit_weights_of_any_length_mix(monkeypatch):
    calls = _spy_on_kernel(monkeypatch)
    multi = gen_random_instance(20, 3, "unit", 4)
    assert len(multi.lengths()) == 3
    for pid in ("greedy-subsume", "call-control", "always-replace", "never-replace"):
        run_random_order(make_policy(pid), multi, 5, seed=1)
    assert [spec["mode"] for spec, _ in calls] == [
        "greedy-subsume", "call-control", "always", "never"
    ]


def test_weighted_instances_take_the_kernel(monkeypatch):
    calls = _spy_on_kernel(monkeypatch)
    weighted = gen_random_instance(12, 3, "rational", 4)
    assert not weighted.is_unweighted()
    pids = ("greedy-subsume", "call-control", "always-replace", "never-replace",
            "rand-memoryless:p=2/5")
    for pid in pids:
        run_random_order(make_policy(pid), weighted, 5, seed=1)
    assert [spec["mode"] for spec, _ in calls] == [
        "greedy-subsume", "call-control", "always", "never", "memoryless"
    ]


def test_both_trial_paths_give_one_raw_form_on_weighted_instances():
    """The kernel and the Python loop hand TrialStats the same integers over
    the instance's weight scale, and so does the classify-by-length
    reduction."""
    weighted = gen_random_instance(12, 3, "rational", 4)
    scale = weighted.columns.scale
    assert scale > 1
    for pid in ("greedy-subsume", "rand-memoryless:p=2/5"):
        python_only = make_policy(pid)
        python_only.kernel_spec = lambda: None
        kernel = run_random_order(make_policy(pid), weighted, 60, seed=1)
        python = run_random_order(python_only, weighted, 60, seed=1)
        assert kernel.scale == python.scale == scale
        assert kernel.histogram == python.histogram
        assert all(type(raw) is int for raw in python.histogram)
    arb = run_arb_expectation(ArbPolicy("greedy-disjoint"), weighted, 60, seed=1)
    assert arb.stats.scale == scale


def test_threshold_policy_on_mixed_lengths_still_raises(monkeypatch):
    """The engine is asked about a threshold table on two lengths and
    answers None, so the trials replay the policy, which raises on the
    partial conflict between the two lengths."""
    calls = _spy_on_kernel(monkeypatch)
    seq = ArrivalSequence([Interval(0, 0, 6), Interval(1, 4, 14)])
    for pid in ("one-dir-left", "one-dir-right"):
        with pytest.raises(PolicyDomainError, match="single-length instances"):
            run_random_order(make_policy(pid), seq, 4, seed=1)
    assert [(spec["mode"], answer) for spec, answer in calls] == [("threshold", None)] * 2


# -- distributional ---------------------------------------------------------------


def test_distributional_fork_pair():
    s1, s2, (p1, p2) = gen_fork_pair()
    report = run_distributional(make_policy("greedy-subsume"), [(s1, p1), (s2, p2)])
    assert report.expected_alg == Fraction(3, 2)
    assert report.common_opt == 2
    assert report.ratio == Fraction(4, 3)
    never = run_distributional(make_policy("never-replace"), [(s1, p1), (s2, p2)])
    assert never.expected_alg == Fraction(3, 2)


def test_distributional_single_branch_equals_adversarial():
    seq = gen_greedy_tight()
    report = run_distributional(make_policy("greedy-subsume"), [(seq, Fraction(1))])
    direct = run_adversarial(make_policy("greedy-subsume"), seq)
    assert report.expected_alg == direct.alg_value
    assert report.ratio == direct.ratio


def test_distributional_disagreeing_opts_reports_both():
    s1 = gen_two_length(3)
    s2 = gen_two_length(4)
    report = run_distributional(
        make_policy("greedy-subsume"), [(s1, Fraction(1, 2)), (s2, Fraction(1, 2))]
    )
    assert report.common_opt is None and report.ratio is None
    assert report.opt_values == (3, 4)


def test_distributional_validates_probabilities():
    s1, s2, _ = gen_fork_pair()
    with pytest.raises(ValueError):
        run_distributional(
            make_policy("greedy-subsume"), [(s1, Fraction(1, 2)), (s2, Fraction(1, 3))]
        )
    with pytest.raises(ValueError):
        run_distributional(
            make_policy("rand-memoryless:p=1/2"), [(s1, Fraction(1, 2)), (s2, Fraction(1, 2))]
        )
    # The probabilities sum to 1, but a negative one would put the expected
    # ALG (5/2) above both branch ALGs (2 and 1).
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        run_distributional(
            make_policy("greedy-subsume"), [(s1, Fraction(3, 2)), (s2, Fraction(-1, 2))]
        )


# -- classify wrapper ---------------------------------------------------------------


def test_arb_expectation_two_lengths():
    seq = gen_two_length(5)
    arb = run_arb_expectation(ArbPolicy("greedy-disjoint"), seq, 3000, seed=13)
    # chosen length 1 yields 5 disjoint units, chosen length 5 yields 1
    assert abs(float(arb.stats.mean_alg) - 3.0) < 0.15
    freq_long = arb.choice_frequency(5)
    assert abs(float(freq_long) - 0.5) < 0.05
    assert arb.distinct_lengths == 2


def test_arb_single_length_is_deterministic():
    # k = 1: the wrapper is exactly its subroutine on the arrival order
    seq = gen_random_instance(12, 1, "unit", 5)
    arb = run_arb_expectation(ArbPolicy("greedy-disjoint"), seq, 50, seed=1)
    direct = run_adversarial(make_policy("never-replace"), seq)
    assert arb.stats.histogram == {direct.alg_value: 50}


def test_arb_expectation_refuses_an_empty_instance_as_random_order_does():
    empty = ArrivalSequence([])
    for run, policy in ((run_random_order, make_policy("greedy-subsume")),
                        (run_arb_expectation, ArbPolicy("greedy-disjoint"))):
        with pytest.raises(EmptyInstanceError, match="^cannot benchmark an empty instance$"):
            run(policy, empty, 1, 0)
