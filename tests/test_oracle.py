"""Offline optima cross-checks and the charging audit."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    fraction_is_unweighted,
    fraction_opt_weighted,
    fraction_scaled_weights,
    fraction_solution_weight,
    object_normalize_certificate,
    object_opt_unweighted,
    object_opt_weighted,
    object_validate_solution,
    verify_charging_lazy,
)

from revsel import _engine, oracle
from revsel.adversary import gen_greedy_tight, gen_random_instance, gen_two_length
from revsel.algorithms import make_policy
from revsel.core import (
    ArrivalSequence,
    Interval,
    UnknownIntervalError,
    loads_jsonl,
    solution_weight,
    validate_solution,
)
from revsel.harness import (
    InfeasibleActionError,
    RunTranscript,
    replay_actions,
    run_policy,
)
from revsel.oracle import (
    ChargeBoundViolation,
    ChargeLedger,
    ChargeRecord,
    OptCertificate,
    _check_bounds,
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
    for K in (2, 3, 5, 9):
        s = gen_two_length(K)
        _, transcript = run_greedy(s)
        ledger = verify_charging(s, transcript, opt_unweighted(s), k=2)
        assert ledger.final_members == frozenset(range(1, K + 1))  # the K units
        for member in ledger.final_members:
            rec = ledger.records[member]
            assert rec.direct_ids == [member]
            assert rec.transferred_ids == []
        assert ledger.charges_on_final() == K


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


# Four disjoint units and one interval over all of them; k = 2, so the
# bounds are 2 direct, 2 transferred and 4 charges in all.
_BOUNDS = seq((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1))


def _record(direct=(), transferred=(), current=()):
    return ChargeRecord(list(direct), list(transferred), list(current))


@pytest.mark.parametrize("records, final, opt, message", [
    # 1 holds no charge, so the optimum {0, 1} is charged once short
    ({0: _record([0], [], [0]), 1: _record()}, {0, 1}, {0, 1},
     "normalized optimum is not charged exactly once onto the final solution"),
    # 3, no longer held, took three direct charges
    ({0: _record([], [1, 2, 3], [1, 2, 3]), 3: _record([1, 2, 3], [], [])}, {0}, {1, 2, 3},
     "interval 3 took 3 direct charges (> 2)"),
    ({0: _record([0], [1, 2, 3], [0, 1, 2, 3])}, {0}, {0, 1, 2, 3},
     "interval 0 received 3 transferred charges (> 2k-2)"),
])
@pytest.mark.parametrize("dense", [True, False])
def test_charge_bound_messages(records, final, opt, message, dense):
    """Each bound's message, on ledgers built by hand; interval 4 was never
    accepted, and a sparse ledger holds no record for it."""
    if dense:
        records = {iv.id: records.get(iv.id, _record()) for iv in _BOUNDS}
    ledger = ChargeLedger(
        k=2, normalized_opt=frozenset(opt), records=records, events=[],
        final_members=frozenset(final), coincidence_swaps=[],
    )
    with pytest.raises(ChargeBoundViolation) as info:
        _check_bounds(ledger)
    assert str(info.value) == message
    assert info.value.ledger is ledger


def test_charge_bound_message_on_the_total():
    """At most 2 direct and 2k - 2 transferred charges make at most 2k, and
    the direct charges are checked on every record, so a final member over
    2k in all is caught by the direct-charge bound: here interval 4, with 3
    direct and 2 transferred charges."""
    records = {iv.id: _record() for iv in _BOUNDS}
    records[4] = _record([0, 1, 4], [2, 3], [0, 1, 2, 3, 4])
    ledger = ChargeLedger(
        k=2, normalized_opt=frozenset(range(5)), records=records, events=[],
        final_members=frozenset({4}), coincidence_swaps=[],
    )
    with pytest.raises(ChargeBoundViolation) as info:
        _check_bounds(ledger)
    assert str(info.value) == "interval 4 took 3 direct charges (> 2)"


def test_charging_certificate_feasibility_is_preserved():
    for seed in range(60):
        s = gen_random_instance(20, 4, "unit", seed)
        _, transcript = run_greedy(s)
        opt = opt_unweighted(s)
        ledger = verify_charging(s, transcript, opt, len(s.lengths()))
        assert validate_solution(s, ledger.normalized_opt)
        assert len(ledger.normalized_opt) == len(opt.members)


# [0, 4) and [4, 8) touch; [2, 6) straddles both; [10, 12) stands apart.
# Greedy-subsume accepts 0 and 1, rejects 2 and accepts 3.
_TAMPER = ((0, 4, 1), (4, 8, 1), (2, 6, 1), (10, 12, 1))


# Hand-built transcript columns: (ids, kinds, offsets, displaced), where a
# kind is 0 reject, 1 accept or 2 an accept that discards the rest.
@pytest.mark.parametrize("columns, message", [
    # a displaced member that does not conflict with the arrival
    (((0, 1, 2, 3), b"\x01\x01\x00\x01", (0, 0, 0, 0, 1), (0,)),
     "displaced id 0 does not conflict with arrival 3"),
    # an accept that overlaps a held member
    (((0, 1, 2), b"\x01\x01\x01", (0, 0, 0, 0), ()), "leaves a conflict with held 0"),
    # an arrival seen twice, first accepted, then rejected
    (((0, 1, 0), b"\x01\x01\x00", (0, 0, 0, 0), ()), "interval 0 appeared twice"),
    # a displaced id that is no interval of the instance
    (((0, 3), b"\x01\x01", (0, 0, 1), (99,)), "displaced id 99 is not currently held"),
    # a discarding accept that leaves member 1 held
    (((0, 1, 3), b"\x01\x01\x02", (0, 0, 0, 1), (0,)),
     "a discarding accept must displace the whole solution"),
])
def test_charging_refuses_what_the_harness_refuses(columns, message):
    s = seq(*_TAMPER)
    transcript = RunTranscript("greedy-subsume", *columns)
    with pytest.raises(InfeasibleActionError, match=message):
        replay_actions(s, transcript)
    with pytest.raises(InfeasibleActionError, match=message):
        verify_charging(s, transcript, opt_unweighted(s), k=1)


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
    cols = inst.columns
    assert (list(cols.weights), cols.scale) == fraction_scaled_weights(inst)
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
    cols = inst.columns
    assert (list(cols.weights), cols.scale) == fraction_scaled_weights(inst) == ([1, 1, 0], 2)
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


# -- the column readers against their Interval-object versions ----------------

# Few distinct weights make DP ties common; 2/4 is 1/2 written another way.
tie_weights = st.sampled_from(
    [Fraction(0), Fraction(1, 2), Fraction(2, 4), Fraction(1), Fraction(3, 2), Fraction(2)]
)


@st.composite
def column_instances(draw, max_size=14, weights=tie_weights):
    """Short intervals on a short line, so touching endpoints are common,
    plus up to three exact copies; the ids are distinct but drawn in any
    order from -3 .. 3n, so they are rarely 0..n-1 in arrival order."""
    rows = draw(st.lists(st.tuples(st.integers(0, 10), st.integers(1, 4), weights),
                         min_size=1, max_size=max_size))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    ids = draw(st.lists(st.integers(-3, 3 * len(rows)), min_size=len(rows),
                        max_size=len(rows), unique=True))
    return ArrivalSequence(Interval(i, s, s + n, w) for i, (s, n, w) in zip(ids, rows))


def _accepted_by_greedy_subsume(inst):
    _, transcript = run_greedy(inst)
    return [i for i, action in transcript.actions() if action.accepted]


@given(column_instances())
@settings(max_examples=400, deadline=None)
def test_oracles_match_their_interval_versions(inst):
    assert opt_unweighted(inst) == object_opt_unweighted(inst)
    assert opt_weighted(inst) == object_opt_weighted(inst)


@given(column_instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_validate_solution_matches_its_interval_version(inst, data):
    # Repeated ids and, now and then, an id of no interval.
    ids = sorted(inst.columns.ids) + [max(inst.columns.ids) + 1]
    members = data.draw(st.lists(st.sampled_from(ids), max_size=6))
    try:
        expected = object_validate_solution(inst, members)
    except UnknownIntervalError:
        with pytest.raises(UnknownIntervalError):
            validate_solution(inst, members)
    else:
        assert validate_solution(inst, members) == expected


@given(column_instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_normalize_certificate_matches_its_interval_version(inst, data):
    accepted_sets = [
        _accepted_by_greedy_subsume(inst),
        data.draw(st.lists(st.sampled_from(sorted(inst.columns.ids)), unique=True)),
    ]
    for opt in (opt_unweighted(inst), opt_weighted(inst)):
        for accepted in accepted_sets:
            assert normalize_certificate(inst, opt.members, accepted) == (
                object_normalize_certificate(inst, opt.members, accepted)
            )


def _ledger_bytes(inst, transcript, opt, k):
    """The bytes `verify` prints for a ledger: a passing one's, or the
    violation's message with its ledger's."""
    try:
        ledger = verify_charging(inst, transcript, opt, k)
    except ChargeBoundViolation as exc:
        return str(exc), _engine.dumps_json(exc.ledger.to_json_dict())
    return None, _engine.dumps_json(ledger.to_json_dict())


@given(column_instances(max_size=37, weights=st.just(Fraction(1))))
@settings(max_examples=300, deadline=None)
def test_verify_ledger_bytes_match_the_interval_versions(inst):
    """The ledger `verify` writes, on its own k and on k = 1 (which most
    runs violate), is the same byte for byte when the optimum and its
    normalization come from the Interval-object versions."""
    _, transcript = run_greedy(inst)
    for k in (len(inst.lengths()), 1):
        ours = _ledger_bytes(inst, transcript, opt_unweighted(inst), k)
        with mock.patch.object(oracle, "normalize_certificate", object_normalize_certificate):
            theirs = _ledger_bytes(inst, transcript, object_opt_unweighted(inst), k)
        assert ours == theirs
