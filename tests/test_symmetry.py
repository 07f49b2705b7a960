"""Mirror, translation and scaling invariance.

Policies, oracles and the charging audit compare coordinates only with one
another, so shifting an instance by an integer changes no result, exact
copies included. Multiplying every coordinate by a positive integer keeps
every comparison too, and so changes no result of a built-in policy, once a
``threshold:<file>`` table's overlap keys are multiplied with them.
Reflecting an instance onto ``[c - end, c - start)`` turns every left into
a right: a policy and its mirror then give the same transcript.
``one-dir-left`` and ``one-dir-right`` are each other's mirror, a threshold
table's mirror swaps its sides, and every other built-in policy is its own.
The one exception is an exact copy, which a threshold table always treats
as a right-hand conflict; so the mirror checks draw duplicate-free instances,
and the exception is pinned by a test of its own.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from revsel import _engine
from revsel.algorithms import (
    PolicyDomainError,
    ThresholdPolicy,
    ThresholdPolicyTables,
    make_policy,
)
from revsel.core import ArrivalSequence, Interval, instance_stats
from revsel.harness import opt_for, run_adversarial, run_file_order, run_policy, run_random_order
from revsel.oracle import (
    ChargeBoundViolation,
    opt_bruteforce,
    opt_unweighted,
    opt_weighted,
    verify_charging,
)
from revsel.rng import Stream

POLICIES = [
    "greedy-subsume",
    "call-control",
    "always-replace",
    "never-replace",
    "one-dir-left",
    "one-dir-right",
    "rand-memoryless:p=1/3",
    "arb:greedy-disjoint",
    "arb:heavier-replace",
]
MIRROR = {"one-dir-left": "one-dir-right", "one-dir-right": "one-dir-left"}

# Policies with a kernel spec: their trials run in the kernel when one is
# loaded, and through the policy otherwise.
KERNEL_POLICIES = ["greedy-subsume", "call-control", "always-replace", "one-dir-left"]


def mirrored(seq, c):
    return ArrivalSequence(Interval(iv.id, c - iv.end, c - iv.start, iv.weight) for iv in seq)


def shifted(seq, d):
    return ArrivalSequence(Interval(iv.id, iv.start + d, iv.end + d, iv.weight) for iv in seq)


def scaled(seq, m):
    return ArrivalSequence(Interval(iv.id, iv.start * m, iv.end * m, iv.weight) for iv in seq)


def transcript_rows(policy, seq):
    """The rows of the policy's run in file order, drawing from one fixed
    stream; or the message of the domain error a threshold table raises on
    mixed lengths."""
    try:
        _, transcript = run_policy(policy, seq, Stream.for_trial(7, 0))
    except PolicyDomainError as exc:
        return str(exc)
    return transcript.to_json_list()


def audit(seq, k):
    """`verify`'s verdict: the ledger bytes of the audit at bound 2k of the
    file-order greedy-subsume run, or the violation's message."""
    _, transcript = run_file_order(make_policy("greedy-subsume"), seq)
    try:
        ledger = verify_charging(seq, transcript, opt_unweighted(seq), k)
    except ChargeBoundViolation as exc:
        return str(exc)
    return _engine.dumps_json(ledger.to_json_dict())


def adversarial_bytes(policy, seq):
    """The output of `run` in file order with seed 7, through
    run_adversarial: from the kernel when one is loaded and the coordinates
    fit its guard, else from run_policy. A threshold table's domain error
    names the lengths it saw, so only its type is kept."""
    try:
        return _engine.dumps_json(run_adversarial(policy, seq, 7).to_json_dict())
    except PolicyDomainError:
        return PolicyDomainError


@st.composite
def instances(draw, copies):
    """Up to 12 intervals of one to three lengths on a short line, so
    touching endpoints and single-length instances are common. With
    `copies`, exact copies are drawn too; without, no two intervals share
    their geometry."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    row = st.tuples(st.integers(0, 14), st.sampled_from(lengths), st.integers(1, 3))
    rows = draw(st.lists(row, min_size=1, max_size=12,
                         unique_by=None if copies else (lambda r: r[:2])))
    if copies:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return ArrivalSequence(
        Interval(i, s, s + n, Fraction(w)) for i, (s, n, w) in enumerate(rows)
    )


tables = st.builds(
    ThresholdPolicyTables,
    left=st.dictionaries(st.integers(1, 5), st.integers(0, 1), max_size=3),
    right=st.dictionaries(st.integers(1, 5), st.integers(0, 1), max_size=3),
    left_default=st.integers(0, 1),
    right_default=st.integers(0, 1),
)


def swapped(t):
    return ThresholdPolicyTables(t.right, t.left, t.right_default, t.left_default)


def scaled_table(t, m):
    return ThresholdPolicyTables({v * m: bit for v, bit in t.left.items()},
                                 {v * m: bit for v, bit in t.right.items()},
                                 t.left_default, t.right_default)


@given(instances(copies=False), st.integers(-20, 20), tables)
@settings(max_examples=150, deadline=None)
def test_mirrored_policies_give_equal_transcripts(seq, c, table):
    mirror = mirrored(seq, c)
    for pid in POLICIES:
        assert transcript_rows(make_policy(pid), seq) == (
            transcript_rows(make_policy(MIRROR.get(pid, pid)), mirror)
        ), pid
    assert transcript_rows(ThresholdPolicy(table), seq) == (
        transcript_rows(ThresholdPolicy(swapped(table)), mirror)
    )


@given(instances(copies=False), st.integers(-20, 20))
@settings(max_examples=100, deadline=None)
def test_mirror_keeps_opt_and_the_audit_verdict(seq, c):
    """OPT is the same both ways (the greedy's size, the others' weight),
    and the audit passes or fails alike. Its ledgers may differ: a rejected
    optimal arrival between two held intervals is charged to the right-hand
    one on each side."""
    mirror = mirrored(seq, c)
    assert len(opt_unweighted(seq).members) == len(opt_unweighted(mirror).members)
    for oracle in (opt_for, opt_weighted, opt_bruteforce):
        assert oracle(seq).value == oracle(mirror).value
    k = len(seq.lengths())
    assert instance_stats(seq) == instance_stats(mirror)
    for bound in (k, 1):
        assert isinstance(audit(seq, bound), str) == isinstance(audit(mirror, bound), str)


@given(instances(copies=False), st.integers(-20, 20), st.integers(0, 2**20))
@settings(max_examples=40, deadline=None)
def test_mirrored_trials_give_equal_histograms_on_both_paths(seq, c, seed):
    mirror = mirrored(seq, c)
    for pid in KERNEL_POLICIES:
        if "one-dir" in pid and len(seq.lengths()) > 1:
            continue  # the trials raise PolicyDomainError on mixed lengths
        for kernel in (True, False):
            ours, theirs = make_policy(pid), make_policy(MIRROR.get(pid, pid))
            if not kernel:
                ours.kernel_spec = theirs.kernel_spec = lambda: None
            assert run_random_order(ours, seq, 16, seed).histogram == (
                run_random_order(theirs, mirror, 16, seed).histogram
            )


@given(instances(copies=True),
       st.one_of(st.integers(-10**6, 10**6), st.sampled_from([2**62, -(2**62)])),
       st.integers(0, 2**20))
@settings(max_examples=100, deadline=None)
def test_translation_changes_no_result(seq, d, seed):
    """Every result is the same after a shift, exact copies included; a shift
    by 2**62 moves the coordinates past the kernel's 64-bit guard, so the
    trials replay through the policies instead."""
    moved = shifted(seq, d)
    for pid in POLICIES:
        assert transcript_rows(make_policy(pid), seq) == transcript_rows(make_policy(pid), moved)
    for oracle in (opt_unweighted, opt_weighted, opt_bruteforce):
        assert oracle(seq) == oracle(moved)
    assert instance_stats(seq) == instance_stats(moved)
    k = len(seq.lengths())
    assert audit(seq, k) == audit(moved, k) and audit(seq, 1) == audit(moved, 1)
    for pid in ("greedy-subsume", "rand-memoryless:p=1/3"):
        before = run_random_order(make_policy(pid), seq, 16, seed)
        after = run_random_order(make_policy(pid), moved, 16, seed)
        assert (before.scale, before.histogram) == (after.scale, after.histogram)


def test_coincident_copies_break_the_one_dir_mirror():
    """A threshold table reads an exact copy as a right-hand conflict on
    both sides of the mirror, so one-dir-right takes a copy of what it holds
    and one-dir-left, its mirror, does not."""
    seq = ArrivalSequence([Interval(0, 0, 4), Interval(1, 0, 4), Interval(2, 2, 6)])
    assert mirrored(seq, 4)[:2] == seq[:2]
    assert transcript_rows(make_policy("one-dir-left"), seq) != (
        transcript_rows(make_policy("one-dir-right"), mirrored(seq, 4))
    )
    first = {"id": 0, "action": "accept", "displaced": []}
    assert transcript_rows(make_policy("one-dir-left"), seq) == [
        first,
        {"id": 1, "action": "reject", "displaced": []},
        {"id": 2, "action": "reject", "displaced": []},
    ]
    assert transcript_rows(make_policy("one-dir-right"), seq) == [
        first,
        {"id": 1, "action": "accept", "displaced": [0]},
        {"id": 2, "action": "accept", "displaced": [1]},
    ]


@given(instances(copies=True),
       st.one_of(st.integers(1, 10**6), st.just(2**58)), tables)
@settings(max_examples=100, deadline=None)
def test_scaling_changes_no_transcript_or_verdict(seq, m, table):
    """Every built-in policy gives the same run after the coordinates are
    multiplied by m, exact copies included, and so does a threshold table
    whose overlap keys are multiplied by m; the factor 2**58 moves most
    coordinates past the kernel's 64-bit guard, so that side runs through
    run_policy."""
    bigger = scaled(seq, m)
    for pid in POLICIES:
        assert adversarial_bytes(make_policy(pid), seq) == (
            adversarial_bytes(make_policy(pid), bigger)
        ), pid
    assert adversarial_bytes(ThresholdPolicy(table), seq) == (
        adversarial_bytes(ThresholdPolicy(scaled_table(table, m)), bigger)
    )
    k = len(seq.lengths())
    for bound in (k, 1):
        assert audit(seq, bound) == audit(bigger, bound)
