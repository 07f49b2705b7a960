"""Offline optima cross-checks and the charging audit."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    fraction_is_unweighted,
    fraction_opt_weighted,
    fraction_scaled_weights,
    fraction_solution_weight,
    verify_charging_lazy,
)

from revsel.adversary import gen_greedy_tight, gen_random_instance, gen_two_length
from revsel.algorithms import make_policy
from revsel.core import (
    ArrivalSequence,
    Interval,
    UnknownIntervalError,
    loads_jsonl,
    scaled_weights,
    solution_weight,
    validate_solution,
)
from revsel.harness import run_policy
from revsel.oracle import (
    ChargeBoundViolation,
    OptCertificate,
    normalize_certificate,
    opt_bruteforce,
    opt_unweighted,
    opt_weighted,
    verify_charging,
)


def seq(*rows):
    return ArrivalSequence(
        Interval(i, s, e, Fraction(w)) for i, (s, e, w) in enumerate(rows)
    )


def test_opt_unweighted_examples():
    assert opt_unweighted(gen_greedy_tight()).value == 4
    assert opt_unweighted(gen_two_length(5)).value == 5
    assert opt_unweighted(seq((3, 9, 1))).value == 1


def test_opt_weighted_examples():
    s = seq((0, 4, 5), (0, 2, 3), (2, 4, 3))
    cert = opt_weighted(s)
    assert cert.value == 6 and cert.members == {1, 2}
    disjoint = seq((0, 2, 2), (2, 4, 3), (10, 11, 1))
    assert opt_weighted(disjoint).value == 6
    s2 = seq((0, 4, 9), (0, 2, 3), (2, 4, 3))
    assert opt_weighted(s2).value == 9


def test_opt_weighted_equals_unweighted_on_unit_weights():
    for seed in range(100):
        inst = gen_random_instance(12, 3, "unit", seed)
        assert opt_weighted(inst).value == opt_unweighted(inst).value


def test_bruteforce_limits():
    big = gen_random_instance(21, 2, "unit", 0)
    with pytest.raises(ValueError):
        opt_bruteforce(big)
    assert opt_bruteforce(ArrivalSequence([])).value == 0


def test_bruteforce_matches_greedy_and_dp():
    for seed in range(150):
        inst = gen_random_instance(1 + seed % 14, 1 + seed % 4, "unit", seed)
        assert opt_bruteforce(inst).value == opt_unweighted(inst).value
    for seed in range(150):
        inst = gen_random_instance(1 + seed % 14, 1 + seed % 4, "rational", seed)
        assert opt_bruteforce(inst).value == opt_weighted(inst).value


def test_bruteforce_big_weight_path():
    huge = Fraction(1 << 70)
    s = ArrivalSequence(
        [Interval(0, 0, 4, huge), Interval(1, 0, 2, 1), Interval(2, 2, 4, 1)]
    )
    cert = opt_bruteforce(s)
    assert cert.value == huge and cert.members == {0}


# -- charging audit ------------------------------------------------------------


def run_greedy(s):
    return run_policy(make_policy("greedy-subsume"), s)


def test_charging_tight_instance_hits_bound_exactly():
    s = gen_greedy_tight()
    _, transcript = run_greedy(s)
    ledger = verify_charging(s, transcript, opt_unweighted(s), k=2)
    assert ledger.final_members == {3}
    rec = ledger.records[3]
    assert sorted(rec.direct_ids) == [4, 5]
    assert sorted(rec.transferred_ids) == [1, 2]
    assert ledger.max_total == 4 == 2 * 2


def test_charging_two_length_every_unit_self_charges():
    s = gen_two_length(5)
    _, transcript = run_greedy(s)
    ledger = verify_charging(s, transcript, opt_unweighted(s), k=2)
    for member in ledger.final_members:
        rec = ledger.records[member]
        assert rec.direct_ids == [member]
        assert rec.transfer_count in (0, 1) or True
    assert ledger.charges_on_final() == 5


def test_charging_lazy_agrees_on_greedy_certificates():
    for seed in range(200):
        s = gen_random_instance(1 + seed % 30, 1 + seed % 5, "unit", seed)
        _, transcript = run_greedy(s)
        opt = opt_unweighted(s)
        k = len(s.lengths())
        eager = verify_charging(s, transcript, opt, k)
        lazy = verify_charging_lazy(s, transcript, opt, k)
        assert eager.to_json_dict() == lazy.to_json_dict()


def test_charging_accepts_bruteforce_certificates():
    # brute-force optima may pick containing intervals; normalization fixes it
    for seed in range(120):
        s = gen_random_instance(1 + seed % 14, 1 + seed % 5, "unit", seed)
        _, transcript = run_greedy(s)
        opt = opt_bruteforce(s)
        k = len(s.lengths())
        eager = verify_charging(s, transcript, opt, k)
        lazy = verify_charging_lazy(s, transcript, opt, k)
        assert eager.charges_on_final() == len(opt.members)
        assert lazy.charges_on_final() == len(opt.members)


def test_normalization_swaps_containers_and_flags_coincidences():
    s = seq((0, 10, 1), (2, 5, 1), (2, 5, 1))
    # run order: big interval, then the nested twin pair
    _, transcript = run_greedy(s)
    # greedy holds interval 1 (first nested copy); 2 is a rejected duplicate
    cert = OptCertificate(frozenset({0}), Fraction(1), "brute")
    norm, swaps = normalize_certificate(s, cert.members, [0, 1])
    assert norm == {1}
    assert swaps == []
    # a certificate using the rejected twin is steered to the accepted copy
    cert2 = OptCertificate(frozenset({2}), Fraction(1), "brute")
    norm2, swaps2 = normalize_certificate(s, cert2.members, [0, 1])
    assert norm2 == {1}
    assert swaps2 == [(2, 1)]


def test_charging_detects_fabricated_violation():
    s = gen_greedy_tight()
    _, transcript = run_greedy(s)
    with pytest.raises(ChargeBoundViolation):
        verify_charging(s, transcript, opt_unweighted(s), k=1)  # wrong k: bound 2


def test_charging_certificate_feasibility_is_preserved():
    for seed in range(60):
        s = gen_random_instance(20, 4, "unit", seed)
        _, transcript = run_greedy(s)
        opt = opt_unweighted(s)
        ledger = verify_charging(s, transcript, opt, len(s.lengths()))
        assert validate_solution(s, ledger.normalized_opt)
        assert len(ledger.normalized_opt) == len(opt.members)


# -- integer-scaled weights against the Fraction versions ----------------------

# Zero, one value written two ways, small denominators, and large coprime
# ones whose lcm runs far past 64 bits.
weights = st.one_of(
    st.sampled_from([Fraction(0), Fraction(2, 4), Fraction(1, 2), Fraction(1), Fraction(3)]),
    st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6])),
    st.builds(
        Fraction,
        st.integers(0, 10**20),
        st.sampled_from([10**9 + 7, 10**9 + 9, 998244353, 2**61 - 1]),
    ),
)
# Short intervals on a short line overlap often, and few distinct weights
# make ties in the DP common.
weighted_rows = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 6), weights), max_size=14
)


def weighted_seq(rows):
    return ArrivalSequence(Interval(i, s, s + n, w) for i, (s, n, w) in enumerate(rows))


@given(weighted_rows, st.integers(0, 2**14 - 1))
@settings(max_examples=400, deadline=None)
def test_scaled_weight_helpers_match_fraction_sums(rows, mask):
    inst = weighted_seq(rows)
    assert scaled_weights(inst) == fraction_scaled_weights(inst)
    assert inst.is_unweighted() == fraction_is_unweighted(inst)
    members = [iv.id for iv in inst if mask >> iv.id & 1]
    total = solution_weight(inst, members)
    assert type(total) is Fraction and total == fraction_solution_weight(inst, members)
    if rows:
        assert opt_weighted(inst) == fraction_opt_weighted(inst)


@given(weighted_rows)
@settings(max_examples=100, deadline=None)
def test_solution_weight_raises_on_an_unknown_id(rows):
    inst = weighted_seq(rows)
    for helper in (solution_weight, fraction_solution_weight):
        with pytest.raises(UnknownIntervalError):
            helper(inst, [0, len(rows)])


def test_weights_written_two_ways_scale_alike():
    text = (
        '{"id": 0, "start": 0, "end": 4, "weight": "2/4"}\n'
        '{"id": 1, "start": 0, "end": 2, "weight": "1/2"}\n'
        '{"id": 2, "start": 2, "end": 4, "weight": 0}\n'
    )
    inst = loads_jsonl(text)
    assert scaled_weights(inst) == fraction_scaled_weights(inst) == ([1, 1, 0], 2)
    assert not inst.is_unweighted()
    assert solution_weight(inst, [0, 1, 2]) == Fraction(1)
    # {0} and {1, 2} tie at 1/2; both DPs keep the same one.
    assert opt_weighted(inst) == fraction_opt_weighted(inst)
    assert opt_weighted(inst).value == Fraction(1, 2)


def test_dp_ties_pick_the_members_of_the_fraction_dp():
    inst = seq((0, 4, 2), (0, 2, 1), (2, 4, 1), (4, 6, Fraction(2, 4)), (4, 6, Fraction(1, 2)))
    cert = opt_weighted(inst)
    assert cert == fraction_opt_weighted(inst)
    assert cert.value == Fraction(5, 2)
