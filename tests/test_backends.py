"""Compiled engine vs the pure-Python paths it stands for: the trial kernel
against the policies replayed by ``harness._trials``, the permutation
against ``rng.permutation``, the subset search against its fallback twin.
Also draws aimed at the rejection branch, the kernel's 64-bit guard,
the loader that builds the C kernel, and a build of it under AddressSanitizer
and UBSan."""

import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import zlib
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_cases import ROWS, call_cases
from reference import GUARD, guard_takes, permutation_raw, replay_arb_expectation
from test_trials import SEEDS, kernel_inputs, kernel_modes, mode_policy, raw_trials, trial_samples

from revsel import _engine, cli
from revsel._engine import fallback
from revsel.adversary import gen_random_instance, gen_random_order_bad
from revsel.algorithms import (
    ArbPolicy,
    ThresholdPolicy,
    ThresholdPolicyTables,
    make_policy,
)
from revsel.cli import main
from revsel.core import ArrivalSequence, Interval, dumps_jsonl, write_jsonl
from revsel.harness import (
    RunTranscript,
    _trials,
    run_adversarial,
    run_arb_expectation,
    run_file_order,
    run_policy,
    run_random_order,
)
from revsel.oracle import opt_bruteforce, opt_unweighted, opt_weighted
from revsel.rng import Stream, mix64, permutation, substream_seed

compiled = pytest.mark.skipif(
    not _engine.COMPILED, reason="compiled engine not built"
)
KERNEL_C = Path(_engine.__file__).with_name("_kernel.c")
CC = shlex.split(sysconfig.get_config_var("CC") or "cc")
needs_cc = pytest.mark.skipif(shutil.which(CC[0]) is None, reason="no C compiler")


def test_fallback_permutations_match_rng_streams():
    for seed in (0, 1, 99, 2**63):
        for trial in (0, 1, 7):
            assert permutation(20, seed, trial) == permutation_raw(20, seed, trial)


def test_fallback_randbelow_is_uniform_enough():
    stream = Stream.for_trial(5, 0)
    counts = [0] * 7
    for _ in range(7000):
        counts[stream.randbelow(7)] += 1
    assert min(counts) > 800 and max(counts) < 1200


@compiled
def test_permutation_parity():
    for seed in (0, 3, 12345, 2**60):
        for trial in (0, 5, 101):
            for n in (1, 2, 17, 64):
                assert _engine._impl.permutation_raw(n, seed, trial) == (
                    permutation(n, seed, trial)
                )


def _policy_variants():
    yield make_policy("always-replace")
    yield make_policy("never-replace")
    yield ThresholdPolicy(ThresholdPolicyTables(left_default=1, right_default=0))
    yield ThresholdPolicy(ThresholdPolicyTables(left={3: 1, 6: 0}, right={4: 1}, left_default=0))


def _kernel_trials(policy, seq, trials, seed):
    """The dispatcher's raw ALG values for `policy` on `seq`."""
    cols = seq.columns
    return _engine.run_single_length_trials(
        cols.starts, cols.ends, policy.kernel_spec(), trials, seed, weights=cols.weights
    )


@compiled
def test_trial_loop_parity_across_policies_and_seeds():
    seq = gen_random_order_bad(3, 4, 40, 10)
    for policy in _policy_variants():
        for seed in (1, 77):
            assert _kernel_trials(policy, seq, 150, seed) == _trials(policy, seq, seed, 150)


@compiled
def test_trial_loop_parity_on_dense_single_length_instances():
    for seed in range(8):
        seq = gen_random_instance(30, 1, "unit", seed)
        for policy in _policy_variants():
            assert _kernel_trials(policy, seq, 100, seed) == _trials(policy, seq, seed, 100)


def _subset_outcome(impl, starts, ends, weights):
    """The search's answer, or the type and text of its refusal."""
    try:
        return impl.best_subset_scaled(starts, ends, weights)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


def _subset_columns(seq):
    return [iv.start for iv in seq], [iv.end for iv in seq], [int(iv.weight) for iv in seq]


# One past the cap: 2**25 masks, which neither side may enumerate.
PAST_THE_CAP = gen_random_instance(25, 3, "int", 0)


@compiled
def test_subset_search_parity():
    for seq in [gen_random_instance(1 + seed % 15, 1 + seed % 5, "int", seed)
                for seed in range(40)] + [PAST_THE_CAP]:
        columns = _subset_columns(seq)
        assert _subset_outcome(_engine._impl, *columns) == _subset_outcome(fallback, *columns)


def test_fallback_subset_search_refuses_past_the_cap():
    refusal = (ValueError, "subset search capped at 24 intervals")
    assert _subset_outcome(fallback, *_subset_columns(PAST_THE_CAP)) == refusal


def test_subset_search_agrees_with_oracles_regardless_of_backend():
    for seed in range(60):
        inst = gen_random_instance(1 + seed % 12, 1 + seed % 4, "unit", seed)
        assert opt_bruteforce(inst).value == opt_unweighted(inst).value
    for seed in range(60):
        inst = gen_random_instance(1 + seed % 12, 1 + seed % 4, "int", seed)
        assert opt_bruteforce(inst).value == opt_weighted(inst).value


# -- randomized diffs of the compiled kernel against the pure-Python paths -----


@compiled
@given(st.data(), kernel_modes(4), st.integers(0, 25), SEEDS)
@settings(max_examples=500, deadline=None)
def test_kernel_trials_match_fallback(data, modes, trials, seed):
    """The raw kernel in modes 0-4 against the policy replayed in Python.
    Threshold tables (mode 0) are defined on single-length instances only."""
    starts, ends = data.draw(
        st.one_of(kernel_inputs(1 if modes[0] == 0 else 3), st.just(([], [])))
    )
    seq = ArrivalSequence(Interval(i, s, e) for i, (s, e) in enumerate(zip(starts, ends)))
    assert raw_trials(starts, ends, modes, trials, seed) == (
        _trials(mode_policy(*modes), seq, seed, trials)
    )


@compiled
@given(st.integers(0, 70), SEEDS, SEEDS)
@settings(max_examples=300, deadline=None)
def test_kernel_permutation_matches_fallback(n, seed, trial):
    assert _engine._impl.permutation_raw(n, seed, trial) == permutation(n, seed, trial)


@compiled
@given(st.lists(st.tuples(st.integers(-4, 20), st.integers(1, 7), st.integers(0, 9)), max_size=12))
@settings(max_examples=300, deadline=None)
def test_kernel_subset_search_matches_fallback(rows):
    starts = [s for s, _, _ in rows]
    ends = [s + length for s, length, _ in rows]
    weights = [w for _, _, w in rows]
    assert _engine._impl.best_subset_scaled(starts, ends, weights) == (
        fallback.best_subset_scaled(starts, ends, weights)
    )


_MASK = 2**64 - 1


def _unxorshift(z: int, k: int) -> int:
    x = z
    for _ in range(64 // k + 1):
        x = z ^ (x >> k)
    return x


def _unmix64(z: int) -> int:
    """Inverse of rng.mix64."""
    z = _unxorshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 2**64) & _MASK
    z = _unxorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & _MASK
    return _unxorshift(z, 30)


_GOLDEN = 0x9E3779B97F4A7C15


def _seed_rejecting_draw(n: int, draw: int = 0, substream: int = 0) -> int:
    """A seed whose substream `substream` makes draw number `draw` (from 0)
    2**64 - (2**64 mod n), the smallest value randbelow(n) rejects. Random
    seeds hit the rejection branch with probability below n / 2**64, so it
    has to be aimed at."""
    state = (_unmix64(2**64 - 2**64 % n) - (draw + 1) * _GOLDEN) & _MASK
    return _unmix64(state) ^ mix64((substream + 1) * _GOLDEN)


@pytest.mark.parametrize("n", [3, 5, 6, 7, 11, 12])
def test_rejected_draws_are_skipped(n):
    seed = _seed_rejecting_draw(n)
    state = substream_seed(seed, 0)
    assert Stream(state).next_u64() == 2**64 - 2**64 % n
    expected = permutation_raw(n, seed, 0)
    assert permutation(n, seed, 0) == expected
    seq = ArrivalSequence(Interval(i, 3 * i, 3 * i + 4) for i in range(n))
    if _engine.COMPILED:
        assert _engine._impl.permutation_raw(n, seed, 0) == expected
        policy = make_policy("always-replace")
        assert _kernel_trials(policy, seq, 1, seed) == _trials(policy, seq, seed, 1)


@pytest.mark.parametrize("k", [3, 5, 6, 7])
def test_rejected_length_draws_are_skipped(k):
    """Trial 0 of the classify-by-length wrapper draws randbelow(2), ...,
    randbelow(k) on substream 0; aim its last draw at the rejection branch."""
    seed = _seed_rejecting_draw(k, draw=k - 2)
    stream = Stream(substream_seed(seed, 0))
    assert [stream.next_u64() for _ in range(k - 1)][-1] == 2**64 - 2**64 % k
    # k lengths, with repeats and copies between their first arrivals.
    rows = [(10 * i, 10 * i + 1 + i) for i in range(k)] + [(3, 4), (20, 23), (3, 4)]
    seq = ArrivalSequence(
        Interval(i, s, e, Fraction(1 + i % 3)) for i, (s, e) in enumerate(rows)
    )
    for subroutine in ("greedy-disjoint", "heavier-replace"):
        policy = ArbPolicy(subroutine)
        buf = io.StringIO()
        arb = run_arb_expectation(policy, seq, 4, seed, out=buf)
        ref, choices, _ = replay_arb_expectation(policy, seq, 4, seed)
        assert buf.getvalue() == ref.to_csv()
        assert arb.length_choices == choices


@pytest.mark.parametrize("p", ["1/3", "2/5", "3/7", "5/12"])
def test_rejected_memoryless_draws_are_skipped(p):
    """The memoryless mode's first decision draw, on substream 2**32 of
    trial 0, is aimed at the rejection branch of randbelow(den)."""
    den = Fraction(p).denominator
    seed = _seed_rejecting_draw(den, substream=2**32)
    assert Stream.for_trial(seed, 2**32).next_u64() == 2**64 - 2**64 % den
    rows = [(0, 4), (2, 6), (5, 9), (1, 3), (8, 12), (0, 12)]
    seq = ArrivalSequence(Interval(i, s, e) for i, (s, e) in enumerate(rows))
    policy = make_policy(f"rand-memoryless:p={p}")
    expected = _trials(policy, seq, seed, 3)
    assert _kernel_trials(policy, seq, 3, seed) == (expected if _engine.COMPILED else None)
    assert trial_samples(policy, seq, 3, seed) == expected


# -- the engine alone decides when the kernel stands in -----------------------


def _answers(starts, ends, spec, seed=1):
    """The trial entry's and the file-order entry's answers for `spec`."""
    return (
        _engine.run_single_length_trials(starts, ends, spec, 3, 1),
        _engine.run_file_order(starts, ends, spec, seed),
    )


def test_both_entries_answer_none_where_the_kernel_cannot_stand_in(monkeypatch):
    one_length = ([0, 1, 4, 3], [2, 3, 6, 5])
    two_lengths = ([0, 1, 4, 3], [2, 4, 6, 5])
    table = make_policy("one-dir-left")
    memoryless = make_policy("rand-memoryless:p=1/2").kernel_spec()
    assert _answers(*one_length, None) == (None, None)
    assert _answers(*two_lengths, table.kernel_spec()) == (None, None)
    assert _engine.run_file_order(*one_length, memoryless, None) is None
    assert _engine.run_file_order(*one_length, memoryless) is None
    trials, run = _answers(*one_length, table.kernel_spec())
    if _engine.COMPILED:
        seq = ArrivalSequence(map(Interval, range(4), *one_length))
        assert trials == _trials(table, seq, 1, 3)
        assert run is not None and _engine.run_file_order(*one_length, memoryless, 1) is not None
    else:
        assert (trials, run) == (None, None)
    monkeypatch.setattr(_engine, "_impl", None)
    for spec in (table.kernel_spec(), memoryless, make_policy("never-replace").kernel_spec()):
        assert _answers(*one_length, spec) == (None, None)


# -- the kernel guards its own inputs, and its callers take the Python paths --


@compiled
def test_coordinates_beyond_64_bits_take_the_fallback(monkeypatch):
    top = 2**63
    seq = ArrivalSequence(
        Interval(i, top - 40 + s, top - 40 + s + 10, Fraction(w))
        for i, (s, w) in enumerate([(0, 1), (5, 3), (10, 2), (25, 1), (30, 4)])
    )
    starts = [iv.start for iv in seq]
    ends = [iv.end for iv in seq]
    assert _engine._impl.best_subset_scaled(starts, ends, [1] * len(seq)) is None
    compiled_cert = opt_bruteforce(seq)
    policy = make_policy("always-replace")
    assert _kernel_trials(policy, seq, 40, 3) is None
    assert trial_samples(policy, seq, 40, 3) == _trials(policy, seq, 3, 40)
    monkeypatch.setattr(_engine, "_impl", None)
    assert opt_bruteforce(seq) == compiled_cert
    assert compiled_cert.value == opt_weighted(seq).value


def test_call_control_near_the_64_bit_guard():
    """Lengths just inside +-2**62 reach 2**63 - 2, so twice a length
    overflows signed 64 bits; both backends must still match the policy."""
    top = 2**62 - 1
    rows = [
        (-top, 1),  # M: length 2**62
        (-(2**61), top),  # meets M; twice its length is about 3 * 2**62, so M stays
        (2, 10),  # held beside M; had the long one displaced M, this would displace it
        (-top, top),  # length 2**63 - 2: any arrival it contains replaces it
        (-top + 1, -top + 3),
    ]
    seq = ArrivalSequence(Interval(i, s, e) for i, (s, e) in enumerate(rows))
    policy = make_policy("call-control")
    expected = _trials(policy, seq, 7, 200)
    assert _kernel_trials(policy, seq, 200, 7) == (expected if _engine.COMPILED else None)
    assert trial_samples(policy, seq, 200, seed=7) == expected


@compiled
def test_weight_sums_beyond_64_bits_take_the_fallback():
    seq = ArrivalSequence(Interval(i, 2 * i, 2 * i + 1, Fraction(2**61)) for i in range(5))
    cert = opt_bruteforce(seq)
    assert cert.members == frozenset(range(5)) and cert.value == 5 * 2**61
    # The trial kernel's held weight would pass 2**63 here.
    assert trial_samples(make_policy("never-replace"), seq, 3, seed=1) == [5 * 2**61] * 3


class _RecordingKernel:
    """Stands in for a loaded kernel: records the arguments of each trial
    call it gets and answers each with `result`."""

    def __init__(self, result):
        self.calls = []
        self.result = result

    def run_single_length_trials_raw(self, *args):
        self.calls.append(args)
        return self.result

    def opt_members(self, *args):
        """Declines, so the oracles' twin answers for the trials' optimum."""
        return None


def test_trial_guards_on_weight_sums_and_denominators():
    """The kernel answers just inside each guard and declines just past it,
    and the harness's trials give the policy's answers either way."""
    top = 2**62
    rows = [(0, 2), (1, 3), (5, 6)]
    cases = [  # (policy, weights, whether the kernel may take it)
        (make_policy("always-replace"), [top - 3, 1, 1], True),
        (make_policy("always-replace"), [top - 2, 1, 1], False),
        (make_policy(f"rand-memoryless:p=1/{top - 1}"), [1, 1, 1], True),
        (make_policy(f"rand-memoryless:p=1/{top}"), [1, 1, 1], False),
    ]
    for policy, weights, kernel in cases:
        seq = ArrivalSequence(
            Interval(i, s, e, Fraction(w)) for i, ((s, e), w) in enumerate(zip(rows, weights))
        )
        expected = _trials(policy, seq, 5, 20)
        assert trial_samples(policy, seq, 20, 5) == expected
        assert _kernel_trials(policy, seq, 20, 5) == (
            expected if kernel and _engine.COMPILED else None)


def test_unit_instances_reach_the_kernel_with_no_weights(monkeypatch):
    """The harness hands the engine every instance's integer weights; the
    engine turns all-1 weights into the empty tuple of the kernel's counting
    loop and passes any other weights on as they are: the instance's own
    columns, as it does the starts and ends."""
    unit = gen_random_instance(12, 3, "unit", 4)
    weighted = gen_random_instance(12, 3, "rational", 4)
    assert unit.is_unweighted() and not weighted.is_unweighted()
    for pid in ("greedy-subsume", "always-replace", "rand-memoryless:p=1/3"):
        policy = make_policy(pid)
        for seq in (unit, weighted):
            recorder = _RecordingKernel([0] * 5)
            with monkeypatch.context() as patch:
                patch.setattr(_engine, "_impl", recorder)
                run_random_order(policy, seq, 5, seed=1)
            (call,) = recorder.calls
            assert call[0] is seq.columns.starts and call[1] is seq.columns.ends
            assert call[5] is (() if seq is unit else seq.columns.weights)


class _Small(IntEnum):
    TWO = 2


# Shifts that put small coordinates inside the guard, across either of its
# edges, and past 64 bits.
GUARD_SHIFTS = [0, GUARD - 40, GUARD - 12, GUARD, -GUARD - 12, -GUARD + 1, 2**63 - 20, -(2**70)]
# Weight columns whose absolute values sum to just below and just at the
# guard, padded with zeros or cut to the instance's length.
GUARD_WEIGHTS = [[GUARD // 2, GUARD // 2 - 1], [GUARD // 2, GUARD // 2],
                 [-(GUARD // 2), GUARD // 2], [GUARD - 1], [GUARD]]
GUARD_KEYS = [1, 3, GUARD - 1, GUARD, -GUARD, 2**70]
GUARD_FRACTIONS = [(0, 1), (2, 3), (1, GUARD - 1), (1, GUARD), (1, GUARD + 1),
                   (GUARD - 1, GUARD - 1)]


@st.composite
def guard_cases(draw):
    """(starts, ends, weights, policy) for the three numeric kernel entries:
    list or tuple columns of small shifted coordinates; weights that are
    empty, small, at the guard's sums, or one short or one long; now and
    then a bool or IntEnum item; and a policy tuple of any mode whose table
    keys and acceptance fraction reach past the guard."""
    shift = draw(st.sampled_from(GUARD_SHIFTS))
    rows = draw(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 8)), max_size=8))
    n = len(rows)
    columns = [[s + shift for s, _ in rows], [s + length + shift for s, length in rows]]
    weights = draw(st.one_of(
        st.just([]),
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        st.sampled_from(GUARD_WEIGHTS).map(lambda w: (w + [0] * n)[:n]),
    ))
    weights = draw(st.sampled_from([weights, weights[:-1], weights + [1]]))
    columns.append(weights)
    odd = draw(st.sampled_from([None, True, _Small.TWO]))
    at = draw(st.sampled_from(columns))
    if odd is not None and at:
        at[draw(st.integers(0, len(at) - 1))] = odd
    starts, ends, weights = (draw(st.sampled_from([list, tuple]))(c) for c in columns)
    left, right = (draw(st.lists(st.sampled_from(GUARD_KEYS), max_size=1)) for _ in range(2))
    num, den = draw(st.sampled_from(GUARD_FRACTIONS))
    policy = (draw(st.integers(0, 5)), left, [1] * len(left), 0, right, [0] * len(right), 1,
              num, den)
    return starts, ends, weights, policy


@compiled
@given(guard_cases(), SEEDS)
@settings(max_examples=500, deadline=None)
def test_each_numeric_entry_declines_exactly_where_the_guard_does(case, seed):
    """Each raw entry answers None exactly where the reference guard
    declines its inputs, and the engine's subset search then gives its
    twin's answer or error."""
    starts, ends, weights, policy = case
    values = [*policy[1], *policy[4], *policy[7:]]
    impl = _engine._impl
    trials = impl.run_single_length_trials_raw(starts, ends, policy, 3, seed, weights, 0)
    assert (trials is not None) == guard_takes((starts, ends), weights, values)
    run = impl.run_file_order_raw(starts, ends, policy, seed)
    assert (run is not None) == guard_takes((starts, ends), (), values)
    subset = impl.best_subset_scaled(starts, ends, weights)
    assert (subset is not None) == guard_takes((starts, ends, weights), weights)
    assert _subset_outcome(_engine, *case[:3]) == _subset_outcome(fallback, *case[:3])


@st.composite
def guard_instances(draw):
    """An instance of shifted small coordinates, of one length or several,
    with weights up to the guard's sums and, unshifted, an IntEnum start;
    and the kernel policies to run on it, memoryless ones with acceptance
    denominators of 2**62 +- 1 and, on one length, threshold tables with a
    key that reaches the guard."""
    shift = draw(st.sampled_from(GUARD_SHIFTS))
    lengths = st.integers(1, 8)
    if draw(st.booleans()):
        lengths = st.just(draw(lengths))
    rows = draw(st.lists(st.tuples(st.integers(0, 30), lengths), min_size=1, max_size=8))
    weights = draw(st.lists(st.sampled_from([1, 2, Fraction(1, 2), GUARD // 4, GUARD // 2 - 1]),
                            min_size=len(rows), max_size=len(rows)))
    intervals = [Interval(i, s + shift, s + length + shift, w)
                 for i, ((s, length), w) in enumerate(zip(rows, weights))]
    if shift == 0 and draw(st.booleans()):
        first = intervals[0]
        intervals[0] = Interval(0, _Small.TWO, first.length + 2, first.weight)
    seq = ArrivalSequence(intervals)
    policies = [make_policy(pid) for pid in ("always-replace", "greedy-subsume", "call-control")]
    policies += [make_policy(f"rand-memoryless:p=1/{GUARD + d}") for d in (-1, 1)]
    if len(seq.lengths()) == 1:
        key = draw(st.sampled_from(GUARD_KEYS[:4]))
        policies.append(ThresholdPolicy(ThresholdPolicyTables(left={key: 1, 1: 0}, left_default=1)))
    return seq, policies


@given(guard_instances(), SEEDS)
@settings(max_examples=150, deadline=None)
def test_the_harness_gives_the_policies_answers_on_both_sides_of_the_guard(case, seed):
    """Wherever the kernel declines, the harness's trials, file-order runs
    and the engine's subset search give the Python paths' answers."""
    seq, policies = case
    for policy in policies:
        assert trial_samples(policy, seq, 3, seed) == _trials(policy, seq, seed, 3)
        assert run_file_order(policy, seq, seed)[1] == (
            run_policy(policy, seq, Stream.for_trial(seed, 0))[1])
    columns = seq.columns[1:4]
    assert _engine.best_subset_scaled(*columns) == fallback.best_subset_scaled(*columns)


# -- whole commands on both backends ------------------------------------------


def _shifted(seq, offset):
    return ArrivalSequence(
        Interval(iv.id, iv.start + offset, iv.end + offset, iv.weight) for iv in seq
    )


@compiled
def test_bench_bytes_match_across_backends(tmp_path, capsys):
    """`revsel bench` writes the same CSV and summary bytes under
    REVSEL_PURE_PYTHON=1, where every trial replays the policy, as in this
    process, where the compiled kernel runs them."""
    flood = gen_random_order_bad(3, 4, 60, 10)
    cases = [  # (policy, instance); the last one lies beyond the kernel's guard
        ("always-replace", flood),
        ("call-control", gen_random_instance(40, 3, "rational", 5)),
        ("rand-memoryless:p=1/3", gen_random_instance(40, 3, "unit", 5)),
        ("one-dir-left", flood),
        ("call-control", _shifted(gen_random_instance(30, 3, "int", 6), 2**63)),
    ]
    env = dict(os.environ, REVSEL_PURE_PYTHON="1")
    src = str(Path(_engine.__file__).parents[2])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for i, (policy, seq) in enumerate(cases):
        instance = tmp_path / f"case{i}.jsonl"
        write_jsonl(seq, instance)
        argv = ["bench", policy, str(instance), "--trials", "40", "--seed", "3"]
        pure = subprocess.run(
            [sys.executable, "-m", "revsel.cli", *argv, "--out", str(tmp_path / "pure.csv")],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert main([*argv, "--out", str(tmp_path / "compiled.csv")]) == 0
        assert capsys.readouterr().err == pure.stderr
        assert (tmp_path / "compiled.csv").read_bytes() == (tmp_path / "pure.csv").read_bytes()


@compiled
def test_json_command_bytes_match_across_backends(tmp_path, capsys):
    """`run` on a rational instance, `verify` and `duel` print and write
    the same bytes under REVSEL_PURE_PYTHON=1, where json.dumps writes the
    JSON and the weighted optimum is the same DP, as in this process, where
    the kernel writes it."""
    rational, unit = tmp_path / "rational.jsonl", tmp_path / "unit.jsonl"
    write_jsonl(gen_random_instance(80, 3, "rational", 7), rational)
    write_jsonl(gen_random_instance(120, 3, "unit", 7), unit)
    commands = [
        ["run", "call-control", str(rational)],
        ["run", "rand-memoryless:p=1/3", str(rational), "--seed", "2"],
        ["verify", str(unit)],
        ["duel", "greedy-subsume", "--k", "3"],
    ]
    env = dict(os.environ, REVSEL_PURE_PYTHON="1")
    src = str(Path(_engine.__file__).parents[2])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in commands:
        pure_out, compiled_out = tmp_path / "pure.json", tmp_path / "compiled.json"
        pure = subprocess.run(
            [sys.executable, "-m", "revsel.cli", *argv, "--out", str(pure_out)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert main([*argv, "--out", str(compiled_out)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (pure.stdout, pure.stderr), argv
        assert compiled_out.read_bytes() == pure_out.read_bytes(), argv


# -- the JSON writer ----------------------------------------------------------


class _Level(IntEnum):
    ONE = 1


class _Text(str):
    pass


def _nested(levels):
    """0 inside `levels` lists."""
    return _nested_around(0, levels)


def _nested_around(payload, levels):
    """`payload` inside `levels` lists."""
    for _ in range(levels):
        payload = [payload]
    return payload


def _rows(transcript):
    """A transcript's columns as a sanitizer case carries them (see
    ``kernel_cases.transcripts``)."""
    t = transcript
    return {ROWS: [t.ids, list(t.kinds), t.offsets, t.displaced]}


def _self_containing():
    payload = [1]
    payload.append(payload)
    return payload


# Payload builders, each given the kernel writer's depth cap.
DECLINED = {
    "float": lambda cap: 0.5,
    "fraction": lambda cap: Fraction(1, 2),
    "set": lambda cap: {1, 2},
    "int-enum": lambda cap: _Level.ONE,
    "str-subclass": lambda cap: _Text("a"),
    "ordered-dict": lambda cap: OrderedDict(a=1),
    "int-key": lambda cap: {1: "a"},
    "str-subclass-key": lambda cap: {_Text("a"): 1},
    "non-ascii": lambda cap: "\u00e9",
    "past-the-digit-limit": lambda cap: 10**5000,
    "past-the-cap": lambda cap: _nested(cap + 1),
    "cycle": lambda cap: _self_containing(),
}


@compiled
@pytest.mark.parametrize("make", DECLINED.values(), ids=DECLINED.keys())
def test_kernel_writer_declines_what_it_does_not_write(make):
    """The kernel writer returns None for a type it does not write, alone or
    after other output, and the CLI's writer then gives json.dumps's text or
    raises json.dumps's error."""
    payload = make(_engine._impl.JSON_DEPTH_CAP)
    for obj in (payload, {"a": [None, "x", 1], "b": payload}):
        assert _engine._impl.dumps_json(obj) is None
        try:
            expected = json.dumps(obj, indent=2, sort_keys=True)
        except Exception as exc:
            with pytest.raises(type(exc)) as caught:
                cli._json_text(obj)
            assert str(caught.value) == str(exc)
        else:
            assert cli._json_text(obj) == expected


@compiled
def test_kernel_writer_writes_nesting_up_to_the_cap():
    for levels in range(_engine._impl.JSON_DEPTH_CAP + 1):
        payload = _nested(levels)
        assert _engine._impl.dumps_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


class _SubTranscript(RunTranscript):
    __slots__ = ()


# Transcripts whose columns the kernel writer declines, as (type, ids,
# kinds, offsets, displaced); json.dumps renders each through to_json_list.
DECLINED_TRANSCRIPTS = {
    "kind-3": (RunTranscript, [0, 1], bytearray([1, 3]), [0, 0, 0], []),
    "kinds-bytes": (RunTranscript, [0, 1], bytes([1, 1]), [0, 0, 0], []),
    "kinds-short": (RunTranscript, [0, 1], bytearray([1]), [0, 0, 0], []),
    "offsets-past-the-end": (RunTranscript, [0, 1], bytearray([1, 1]), [0, 1, 2], [5]),
    "offsets-decreasing": (RunTranscript, [0, 1], bytearray([1, 1]), [1, 0, 2], [5, 6]),
    "offset-negative": (RunTranscript, [0, 1], bytearray([1, 1]), [-1, 0, 1], [5]),
    "offsets-short": (RunTranscript, [0, 1], bytearray([1, 1]), [0, 1], [5]),
    "offsets-ending-early": (RunTranscript, [0, 1], bytearray([1, 1]), [0, 0, 0], [5]),
    "offset-past-64-bits": (RunTranscript, [0], bytearray([1]), [0, 2**64], [5]),
    "bool-id": (RunTranscript, [0, True], bytearray([1, 1]), [0, 0, 1], [5]),
    "bool-displaced": (RunTranscript, [0, 1], bytearray([1, 2]), [0, 0, 1], [False]),
    "int-enum-id": (RunTranscript, [_Level.ONE], bytearray([1]), [0, 0], []),
    "ids-tuple": (RunTranscript, (0, 1), bytearray([1, 1]), [0, 0, 0], []),
    "subclass": (_SubTranscript, [0], bytearray([1]), [0, 0], []),
}


@compiled
@pytest.mark.parametrize("columns", DECLINED_TRANSCRIPTS.values(),
                         ids=DECLINED_TRANSCRIPTS.keys())
def test_kernel_writer_declines_transcripts_it_does_not_write(columns):
    """The rows then come from to_json_list, through json.dumps."""
    make, *columns = columns
    payload = {"policy": "p", "transcript": make("p", *columns)}
    assert _engine._impl.dumps_json(payload, RunTranscript) is None
    assert _engine.dumps_json(payload) == json.dumps(
        payload, indent=2, sort_keys=True, default=_engine.json_default)


@compiled
def test_kernel_writer_writes_transcripts_as_to_json_list_does():
    """Offsets that start past 0, every kind, huge ids, an empty transcript,
    and a transcript nested exactly to the depth cap; one past it declines."""
    cap = _engine._impl.JSON_DEPTH_CAP
    transcripts = [
        RunTranscript("p", [0, 1], bytearray([2, 0]), [1, 1, 2], [5, 6]),
        RunTranscript("p", [2**70, -3, 7], bytearray([1, 2, 0]), [0, 2, 3, 3], [-1, 2**65, 9]),
        RunTranscript("p"),
    ]
    payloads = [{"transcript": t, "rows": [t, (t,)]} for t in transcripts]
    payloads.append(_nested_around(transcripts[1], cap - 1))
    for payload in payloads:
        text = _engine._impl.dumps_json(payload, RunTranscript)
        assert text == json.dumps(payload, indent=2, sort_keys=True, default=_engine.json_default)
    deeper = _nested_around(transcripts[1], cap)
    assert _engine._impl.dumps_json(deeper, RunTranscript) is None
    assert _engine.dumps_json(deeper) == json.dumps(
        deeper, indent=2, sort_keys=True, default=_engine.json_default)


def test_json_default_raises_json_dumps_error_for_other_objects():
    for obj in (Fraction(1, 2), {1, 2}, object()):
        with pytest.raises(TypeError) as ours:
            _engine.dumps_json({"a": [obj]})
        with pytest.raises(TypeError) as theirs:
            json.dumps({"a": [obj]})
        assert str(ours.value) == str(theirs.value)


@compiled
def test_kernel_writer_peak_memory_is_at_most_three_times_its_output():
    """The writer's only large allocation is the output it grows in place."""
    seq = gen_random_instance(2000, 3, "unit", 1)
    payload = run_adversarial(make_policy("greedy-subsume"), seq).to_json_dict()
    tracemalloc.start()
    try:
        text = _engine.dumps_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


# -- the loader ---------------------------------------------------------------


@needs_cc
def test_cache_hit_runs_no_compiler(tmp_path, monkeypatch):
    source, cache = tmp_path / "_kernel.c", tmp_path / "cache"
    shutil.copy(KERNEL_C, source)
    built = _engine._cached_build(str(source), str(cache))
    assert built is not None and built.permutation_raw(9, 1, 2) == permutation(9, 1, 2)
    assert len(os.listdir(cache)) == 1
    calls = []
    monkeypatch.setattr(_engine, "_compile", lambda *args: calls.append(args))
    assert _engine._cached_build(str(source), str(cache)) is not None
    assert calls == []
    # An edited source has another checksum, so it is built again.
    source.write_text(KERNEL_C.read_text() + "/* edited */\n")
    _engine._cached_build(str(source), str(cache))
    assert len(calls) == 1


@needs_cc
def test_new_build_prunes_superseded_ones(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    first, second = tmp_path / "first.c", tmp_path / "second.c"
    shutil.copy(KERNEL_C, first)
    second.write_text(KERNEL_C.read_text() + "/* edited */\n")
    assert _engine._cached_build(str(first), str(cache)) is not None
    (old,) = os.listdir(cache)
    # Neither another interpreter's build nor an unrelated file is touched.
    others = {"_kernel.0badcafe.cpython-399-other.so", "notes.txt"}
    for name in others:
        (cache / name).write_text("")
    assert _engine._cached_build(str(second), str(cache)) is not None
    (new,) = set(os.listdir(cache)) - others
    assert new != old and set(os.listdir(cache)) == others | {new}
    # A failed build keeps the last good one.
    def fail(source, target):
        raise subprocess.CalledProcessError(1, "cc")

    monkeypatch.setattr(_engine, "_compile", fail)
    assert _engine._cached_build(str(first), str(cache)) is None
    assert set(os.listdir(cache)) == others | {new}


def test_failing_compiler_leaves_no_temp_file(tmp_path, monkeypatch):
    fake_cc = tmp_path / "cc"
    fake_cc.write_text('#!/bin/sh\nfor out; do :; done\necho partial > "$out"\nexit 1\n')
    fake_cc.chmod(0o755)
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: str(fake_cc))
    cache = tmp_path / "cache"
    assert _engine._cached_build(str(KERNEL_C), str(cache)) is None
    assert os.listdir(cache) == []


def test_unwritable_cache_falls_back(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    assert _engine._cached_build(str(KERNEL_C), str(blocker / "cache")) is None
    assert os.listdir(tmp_path) == ["not-a-directory"]


@needs_cc
def test_loader_runs_the_kernel_source_it_ships(tmp_path):
    """An installed ``_kernel`` beside the C source stands in only when the
    source cannot be built: with ``_kernel.c`` present the loaded kernel is
    the checksum build of that source, and with it removed the installed
    module, here a stub with a marker."""
    package = tmp_path / "revsel"
    shutil.copytree(Path(_engine.__file__).parents[1], package,
                    ignore=shutil.ignore_patterns("*.pyc"))
    engine = package / "_engine"
    (engine / "_kernel.py").write_text('MARKER = "installed"\n')
    env = {k: v for k, v in os.environ.items() if k != "REVSEL_PURE_PYTHON"}
    env["PYTHONPATH"] = str(tmp_path)
    code = "from revsel._engine import _impl; print(_impl.__file__, getattr(_impl, 'MARKER', '-'))"

    def loaded():
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
            timeout=120,
        )
        path, marker = out.stdout.split()
        return Path(path), marker

    build = f"_kernel.{zlib.crc32(KERNEL_C.read_bytes()):08x}{EXTENSION_SUFFIXES[0]}"
    assert loaded() == (engine / "__pycache__" / build, "-")
    (engine / "_kernel.c").unlink()
    assert loaded() == (engine / "_kernel.py", "installed")


def test_cli_import_loads_no_pool_and_no_subprocess():
    """With the kernel cache warm (this process loaded or built it), a fresh
    interpreter imports revsel.cli without loading the process pool's
    modules or subprocess, and gets the same backend."""
    env = dict(os.environ)
    src = str(Path(_engine.__file__).parents[2])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, revsel.cli; print(revsel.BACKEND, *sorted(m for m in "
        "('concurrent.futures', 'multiprocessing', 'subprocess') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    assert out.stdout.split() == [_engine.BACKEND]


def test_pure_python_environment_forces_fallback():
    """Without a kernel, no entry reaches one: both policy-loop entries
    answer None, and the subset search and the JSON writer take their
    twins, which give this process's answers."""
    env = dict(os.environ, REVSEL_PURE_PYTHON="1")
    src = str(Path(_engine.__file__).parents[2])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    columns = ([0, 1, 3, 4], [2, 4, 5, 6], [3, 1, 2, 5])
    payload = {"b": [1, "\u00e9"], "a": {}}
    code = f"""
import json, revsel
from revsel import _engine as e
starts, ends, weights = {columns!r}
spec = {{"mode": "greedy-subsume"}}
print(json.dumps([
    revsel.BACKEND, revsel.COMPILED, e._impl is None,
    e.run_single_length_trials(starts, ends, spec, 3, 1), e.run_file_order(starts, ends, spec, 1),
    e.best_subset_scaled(starts, ends, weights), e.dumps_json({payload!r}),
]))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    expected = ["pure-python", False, True, None, None,
                list(_engine.best_subset_scaled(*columns)), _engine.dumps_json(payload)]
    assert json.loads(out.stdout) == expected


@needs_cc
def test_kernel_source_compiles_without_warnings(tmp_path):
    include = sysconfig.get_paths()["include"]
    build = subprocess.run(
        [*CC, "-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror", f"-I{include}",
         str(KERNEL_C), "-o", str(tmp_path / "kernel.so")],
        capture_output=True, text=True, timeout=120,
    )
    assert build.returncode == 0, build.stderr


# -- the kernel under AddressSanitizer and UBSan ------------------------------


def _sanitizer_cases():
    """Every kernel entry on about 200 instances: generated ones of one to
    four lengths and all three weight modes, and held sets that a run of
    two or more members leaves at its left end, in its middle, at its right
    end and whole, some at the 64-bit guard's edge. Each goes through all
    six modes in file order and as trials, weighted and not, with policy
    tuples packed as ``raw_trials`` packs them, so that the threshold modes
    meet mixed lengths too, which the dispatcher never hands the kernel. A
    few cases stop part way through reading their inputs, where the guard
    declines them (see :func:`_guard_declines`), the JSON writer
    writes a payload per instance and declines one part way, and the JSONL
    reader reads each instance's file and declines cut and edited ones. The
    oracles take every instance, unweighted and weighted, and the writer
    every instance's run transcript (a greedy-subsume run, or an arb run
    that discards), plus the oracles' and the transcript writer's edges."""
    edge = 2**62 - 9
    rows = [
        [(0, 1), (2, 3), (4, 5), (0, 5)],
        [(0, 1), (2, 3), (10, 11), (0, 4)],
        [(0, 1), (3, 4), (5, 6), (9, 10), (2, 7)],
        [(0, 1), (3, 4), (5, 6), (2, 9)],
        [(-edge, 3 - edge), (edge - 3, edge), (0, 1), (-edge, edge)],
    ]
    seqs = [ArrivalSequence(Interval(i, s, e) for i, (s, e) in enumerate(r)) for r in rows]
    seqs += [gen_random_instance(1 + i % 40, 1 + i % 4, ("unit", "int", "rational")[i % 3], i)
             for i in range(195)]
    # one-dir-left, the four step modes, p = 2/3, and tables on both sides.
    policies = [(mode, [], [], int(mode == 0), [], [], 0, 0, 1) for mode in range(5)]
    policies += [(5, [], [], 0, [], [], 0, 2, 3), (0, [1, 2], [1, 0], 1, [1, 3], [0, 1], 0, 0, 1)]
    cases = []
    for i, seq in enumerate(seqs):
        cols = seq.columns
        ids, starts, ends, weights = cols[:4]
        seed = (i * 0x9E3779B97F4A7C15) % 2**64
        for packed in policies:
            cases.append(("run_file_order_raw", (starts, ends, packed, seed)))
            cases.append(("run_single_length_trials_raw",
                          (starts, ends, packed, 3, seed, weights if i % 2 else (), i)))
        cases.append(("permutation_raw", (len(seq), seed, i)))
        cases.append(("best_subset_scaled", [c[:12] for c in cols[1:4]]))
        payload = {"rows": rows[i % len(rows)], "w": {str(iv.id): str(iv.weight) for iv in seq},
                   "none": {}}
        cases.append(("dumps_json", (payload,)))
        cases.append(("jsonl_columns", (dumps_jsonl(seq),)))
        cases.append(("opt_members", (ids, starts, ends, [])))
        cases.append(("opt_members", (ids, starts, ends, weights)))
        if i % 2:
            _, transcript = run_policy(make_policy("arb:greedy-disjoint"), seq,
                                       Stream.for_trial(i, 0))
        else:
            _, transcript = run_file_order(make_policy("greedy-subsume"), seq)
        cases.append(("dumps_json", ({"policy": "p", "transcript": _rows(transcript)}, ROWS)))
    never = (2, [], [], 0, [], [], 0, 0, 1)
    top = 2**62
    text = dumps_jsonl(seqs[-1])
    widest = 10**18 - 1
    cases += _guard_declines() + [
        # A bad acceptance fraction and a negative first trial raise.
        ("run_file_order_raw", ([0], [1], (5, [], [], 0, [], [], 0, 1, 0), 1)),
        ("run_single_length_trials_raw", ([0], [1], never, 2, 1, [], -1)),
        # The writer declines only after outgrowing its first allocation,
        # and nests exactly to its depth cap.
        ("dumps_json", (list(range(_engine._impl.JSON_FIRST_ALLOC)) + [0.5],)),
        ("dumps_json", ({**{f"k{i}": i for i in range(40)}, "z": 0.5},)),
        ("dumps_json", (_nested(_engine._impl.JSON_DEPTH_CAP),)),
        # The reader on an empty text, texts cut part way through a number
        # and a key, 18- and 19-digit numbers, and texts that decline on
        # their last byte.
        ("jsonl_columns", ("",)),
        ("jsonl_columns", (text[:text.index('"start": ', len(text) // 2) + 10],)),
        ("jsonl_columns", (text[:text.index('"start": ', len(text) // 2) + 4],)),
        ("jsonl_columns", (f'{{"end": {widest}, "id": 0, "start": {-widest}}}',)),
        ("jsonl_columns", (f'{{"end": {widest + 1}, "id": 0, "start": 0}}',)),
        ("jsonl_columns", (f'{{"end": 1, "id": 0, "start": 0, "weight": "{widest}/{widest}"}}',)),
        ("jsonl_columns", (f'{{"end": 1, "id": 0, "start": 0, "weight": "1/{widest + 1}"}}',)),
        ("jsonl_columns", (text[:-1] + "\r",)),
        ("jsonl_columns", (text + "\n",)),
        ("jsonl_columns", (text[:-2] + "\u00e9\n",)),
        # The oracles on one interval, on copies of one interval, on the
        # empty columns, and on both sides of the guard: coordinates and ids
        # at +-(2**62 - 1) and +-2**62, weight sums of 2**62 - 1 and 2**62,
        # a value past 64 bits, a bool id, a start at its end and weights
        # of the wrong length.
        ("opt_members", ([0], [0], [1], [])),
        ("opt_members", ([0], [0], [1], [5])),
        ("opt_members", ([4, 3, 2, 1, 0], [3] * 5, [7] * 5, [])),
        ("opt_members", ([4, 3, 2, 1, 0], [3] * 5, [7] * 5, [2, 2, 2, 2, 2])),
        ("opt_members", ([], [], [], [])),
        ("opt_members", ([1 - top, top - 1], [1 - top, 0], [0, top - 1], [])),
        ("opt_members", ([1 - top, top - 1], [1 - top, 0], [0, top - 1], [1, 1])),
        ("opt_members", ([0, 1], [-top, 0], [0, 1], [])),
        ("opt_members", ([0, 1], [0, 1], [1, top], [])),
        ("opt_members", ([-top, 1], [0, 1], [1, 2], [])),
        ("opt_members", ([0, top], [0, 1], [1, 2], [1, 1])),
        ("opt_members", ([0, 1, 2], [0, 1, 0], [1, 2, 2], [top // 2, top // 2 - 2, 1])),
        ("opt_members", ([0, 1, 2], [0, 1, 0], [1, 2, 2], [top // 2, top // 2 - 1, 1])),
        ("opt_members", ([0, 1], [0, 1], [1, 2], [1, -(top - 1)])),
        ("opt_members", ([0, 1], [0, 1], [1, 2**70], [])),
        ("opt_members", ([0, True], [0, 1], [1, 2], [])),
        ("opt_members", ([0, 1], [0, 1], [1, 1], [1, 1])),
        ("opt_members", ([0, 1], [0, 1], [1, 2], [1])),
        # The transcript writer's declines: a kind of 3, kinds that are not
        # a bytearray, offsets past the displaced ids, decreasing, negative
        # or one short, a bool id and a bool displaced id; then an empty
        # transcript, one that outgrows the first allocation, and one
        # nested exactly to the depth cap and one past it.
        *[("dumps_json", ({"t": {ROWS: columns}}, ROWS)) for columns in (
            [[0, 1], [1, 3], [0, 0, 0], []],
            [[0, 1], "ab", [0, 0, 0], []],
            [[0, 1], [1, 1], [0, 1, 2], [5]],
            [[0, 1], [1, 1], [1, 0, 2], [5, 6]],
            [[0, 1], [1, 1], [-1, 0, 1], [5]],
            [[0, 1], [1, 1], [0, 1], [5]],
            [[0, True], [1, 1], [0, 0, 1], [5]],
            [[0, 1], [1, 2], [0, 0, 1], [False]],
            [[], [], [0], []],
            [list(range(1000)), [p % 3 for p in range(1000)], [0] + list(range(1000)),
             list(range(999))],
        )],
        ("dumps_json", (_nested_around({ROWS: [[0, 1], [2, 1], [0, 1, 3], [7, 8, 9]]},
                                       _engine._impl.JSON_DEPTH_CAP - 1), ROWS)),
        ("dumps_json", (_nested_around({ROWS: [[0], [1], [0, 0], []]},
                                       _engine._impl.JSON_DEPTH_CAP), ROWS)),
    ]
    return cases


def _guard_declines():
    """Cases that each numeric entry declines part way through reading its
    inputs: on the last item of a column, past 64 bits or at the guard; on
    a table key past it; on acceptance denominators at it; on weights one
    short; and on a bool coordinate."""
    top = 2**62
    never = (2, [], [], 0, [], [], 0, 0, 1)
    return [
        ("run_file_order_raw", ([0, 2, 4], [1, 3, 2**70], never, 1)),
        ("run_file_order_raw", ([0, 2, 4], [1, 3, top], never, 1)),
        ("run_file_order_raw", ([0, 2, 4], [1, 3, 5], (5, [], [], 0, [], [], 0, 1, top), 1)),
        ("run_file_order_raw", ([0, True], [1, 3], never, 1)),
        ("run_single_length_trials_raw", ([0, 2], [1, 3], never, 2, 1, [1, 2**70], 0)),
        ("run_single_length_trials_raw", ([0, 2], [1, 3], never, 2, 1, [top // 2, top // 2], 0)),
        ("run_single_length_trials_raw", ([0, 2], [1, 3], never, 2, 1, [1, top - 1], 0)),
        ("run_single_length_trials_raw", ([0, 2], [1, 3], never, 2, 1, [1], 0)),
        ("run_single_length_trials_raw", ([0], [1], (0, [1, 2**70], [1, 0], 0, [], [], 0, 0, 1),
                                          2, 1, [], 0)),
        ("run_single_length_trials_raw", ([0], [1], (0, [1], [1], 0, [top], [0], 0, 0, 1),
                                          2, 1, [], 0)),
        ("run_single_length_trials_raw", ([0], [1], (5, [], [], 0, [], [], 0, 1, top), 2, 1, [],
                                          0)),
        ("best_subset_scaled", ([0, 2, 4], [1, 3, top], [1, 1, 1])),
        ("best_subset_scaled", ([0, 2, 4], [1, 3, 5], [1, 1, top - 2])),
        ("best_subset_scaled", ([0, 2, 4], [1, 3, 5], [1, 1])),
        ("best_subset_scaled", ([0, 2, False], [1, 3, 5], [1, 1, 1])),
    ]


@needs_cc
@compiled
def test_kernel_entries_match_under_address_and_undefined_sanitizers(tmp_path):
    """A build with AddressSanitizer and UBSan, every check fatal, gives the
    normal build's results on every case, and each build answers None to
    each of :func:`_guard_declines`. Python's allocator is switched to
    malloc in the child, so that the sanitizer sees each array the kernel
    allocates, and the held columns' memmoves are bounds-checked."""
    libasan = subprocess.run(
        [*CC, "-print-file-name=libasan.so"], capture_output=True, text=True, timeout=60
    ).stdout.strip()
    if not os.path.isabs(libasan) or not os.path.exists(libasan):
        pytest.skip("no libasan")
    include = sysconfig.get_paths()["include"]
    build = tmp_path / "kernel_sanitized.so"
    subprocess.run(
        [*CC, "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-shared", "-fPIC", f"-I{include}", str(KERNEL_C), "-o", str(build)],
        check=True, capture_output=True, timeout=120,
    )
    cases = _sanitizer_cases()
    (tmp_path / "cases.json").write_text(json.dumps(cases))
    env = dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0",
               PYTHONMALLOC="malloc")
    child = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("kernel_cases.py")), str(build),
         str(tmp_path / "cases.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr[-3000:]
    expected = json.loads(json.dumps(call_cases(_engine._impl, json.loads(json.dumps(cases)))))
    assert json.loads(child.stdout) == expected
    declines = json.loads(json.dumps(_guard_declines()))
    assert call_cases(_engine._impl, declines) == [None] * len(declines)
