"""Runners: exact ratios, reproducibility, trial statistics, action safety."""

import io
import json
from fractions import Fraction

import pytest
from test_trials import trial_samples

from revsel import _engine
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
from revsel.core import ArrivalSequence, Interval
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
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )
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


def test_feasible_accepts_search_the_held_set_once(monkeypatch):
    """apply_action's feasibility check is PolicyState._add's own bisection:
    a feasible accept never calls conflicting(), and only a refused one
    does, to name the member it clashes with."""
    calls = []
    search = PolicyState.conflicting

    def counted(self, arrival):
        calls.append(arrival.id)
        return search(self, arrival)

    monkeypatch.setattr(PolicyState, "conflicting", counted)
    state, retired = PolicyState([Interval(0, 0, 10), Interval(1, 20, 30)]), set()
    apply_action(state, Interval(2, 10, 20), Action.accept(), retired)  # touches both
    apply_action(state, Interval(3, 22, 25), Action.accept({1}), retired)
    apply_action(state, Interval(4, 5, 7), Action.reject(), retired)
    apply_action(state, Interval(5, 3, 40), Action.accept({0, 2, 3}), retired)
    assert calls == []
    assert [m.id for m in state.members()] == [5] and retired == {0, 1, 2, 3, 4}
    with pytest.raises(InfeasibleActionError, match="^accepting 6 leaves a conflict with held 5$"):
        apply_action(state, Interval(6, 39, 41), Action.accept(), retired)
    assert calls == [6]


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
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
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
    calls = []
    real = _engine.run_single_length_trials

    def spy(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(_engine, "run_single_length_trials", spy)
    return calls


def test_kernel_takes_unit_weights_of_any_length_mix(monkeypatch):
    calls = _spy_on_kernel(monkeypatch)
    multi = gen_random_instance(20, 3, "unit", 4)
    assert len(multi.lengths()) == 3
    for pid in ("greedy-subsume", "call-control", "always-replace", "never-replace"):
        run_random_order(make_policy(pid), multi, 5, seed=1)
    assert [spec["mode"] for spec in calls] == [
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
    assert [spec["mode"] for spec in calls] == [
        "greedy-subsume", "call-control", "always", "never", "memoryless"
    ]


def test_threshold_policy_on_mixed_lengths_still_raises(monkeypatch):
    calls = _spy_on_kernel(monkeypatch)
    seq = ArrivalSequence([Interval(0, 0, 6), Interval(1, 4, 14)])
    for pid in ("one-dir-left", "one-dir-right"):
        with pytest.raises(PolicyDomainError):
            run_random_order(make_policy(pid), seq, 4, seed=1)
    assert calls == []


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
