"""Compiled engine vs the pure-Python paths it stands for: the trial kernel
against the policies replayed by ``harness._trials``, the permutation
against ``rng.permutation``, the subset search against its fallback twin.
Also draws aimed at the rejection branch, the dispatchers' 64-bit guards,
and the loader that builds the C kernel."""

import io
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import permutation_raw, replay_arb_expectation
from test_trials import SEEDS, kernel_inputs, kernel_modes, mode_policy, trial_samples

from revsel import _engine
from revsel._engine import fallback
from revsel.adversary import gen_random_instance, gen_random_order_bad
from revsel.algorithms import (
    AlwaysReplacePolicy,
    ArbPolicy,
    CallControlPolicy,
    NeverReplacePolicy,
    ThresholdPolicy,
    ThresholdPolicyTables,
    make_policy,
)
from revsel.cli import main
from revsel.core import ArrivalSequence, Interval, write_jsonl
from revsel.harness import _trials, kernel_weights, run_arb_expectation
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
    yield AlwaysReplacePolicy()
    yield NeverReplacePolicy()
    yield ThresholdPolicy(ThresholdPolicyTables(left_default=1, right_default=0))
    yield ThresholdPolicy(ThresholdPolicyTables(left={3: 1, 6: 0}, right={4: 1}, left_default=0))


def _kernel_trials(policy, seq, trials, seed):
    """The dispatcher's raw ALG values for `policy` on `seq`."""
    weights, _ = kernel_weights(seq)
    return _engine.run_single_length_trials(
        [iv.start for iv in seq], [iv.end for iv in seq], policy.kernel_spec(), trials, seed,
        weights=weights,
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


@compiled
def test_subset_search_parity():
    for seed in range(40):
        seq = gen_random_instance(1 + seed % 15, 1 + seed % 5, "int", seed)
        starts = [iv.start for iv in seq]
        ends = [iv.end for iv in seq]
        weights = [int(iv.weight) for iv in seq]
        assert _engine.best_subset_scaled(
            starts, ends, weights, impl=_engine._impl
        ) == _engine.best_subset_scaled(starts, ends, weights, impl=fallback)


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
    assert _engine._impl.run_single_length_trials_raw(starts, ends, *modes, trials, seed) == (
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
        policy = AlwaysReplacePolicy()
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


# -- the dispatchers keep inputs beyond 64 bits away from the kernel ----------


@compiled
def test_coordinates_beyond_64_bits_take_the_fallback(monkeypatch):
    top = 2**63
    seq = ArrivalSequence(
        Interval(i, top - 40 + s, top - 40 + s + 10, Fraction(w))
        for i, (s, w) in enumerate([(0, 1), (5, 3), (10, 2), (25, 1), (30, 4)])
    )
    starts = [iv.start for iv in seq]
    ends = [iv.end for iv in seq]
    with pytest.raises(OverflowError):
        _engine._impl.best_subset_scaled(starts, ends, [1] * len(seq))
    compiled_cert = opt_bruteforce(seq)
    policy = AlwaysReplacePolicy()
    assert _kernel_trials(policy, seq, 40, 3) is None
    assert trial_samples(policy, seq, 40, 3) == _trials(policy, seq, 3, 40)
    monkeypatch.setattr(_engine, "_impl", fallback)
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
    policy = CallControlPolicy()
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
    """Stands in for a loaded kernel: counts the calls it gets and answers
    each with `result`."""

    def __init__(self, result):
        self.calls = 0
        self.result = result

    def run_single_length_trials_raw(self, *args):
        self.calls += 1
        return self.result


def test_trial_guards_on_weight_sums_and_denominators(monkeypatch):
    top = 2**62
    rows = [(0, 2), (1, 3), (5, 6)]
    cases = [  # (policy, weights, whether the kernel may take it)
        (AlwaysReplacePolicy(), [top - 3, 1, 1], True),
        (AlwaysReplacePolicy(), [top - 2, 1, 1], False),
        (make_policy(f"rand-memoryless:p=1/{top - 1}"), [1, 1, 1], True),
        (make_policy(f"rand-memoryless:p=1/{top}"), [1, 1, 1], False),
    ]
    for policy, weights, kernel in cases:
        seq = ArrivalSequence(
            Interval(i, s, e, Fraction(w)) for i, ((s, e), w) in enumerate(zip(rows, weights))
        )
        expected = _trials(policy, seq, 5, 20)
        assert trial_samples(policy, seq, 20, 5) == expected
        if kernel and _engine.COMPILED:  # just inside the guards, the kernel matches
            assert _kernel_trials(policy, seq, 20, 5) == expected
        recorder = _RecordingKernel(expected)
        with monkeypatch.context() as patch:
            patch.setattr(_engine, "_impl", recorder)
            assert _kernel_trials(policy, seq, 20, 5) == (expected if kernel else None)
        assert recorder.calls == (1 if kernel else 0)


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


@compiled
@pytest.mark.parametrize("text", ['["\u00e9"]', "[1]]", "[[1]", '["open'])
def test_indent_json_rejects_text_the_encoder_cannot_make(text):
    with pytest.raises(ValueError):
        _engine._impl.indent_json(text)


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
    env = dict(os.environ, REVSEL_PURE_PYTHON="1")
    src = str(Path(_engine.__file__).parents[2])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import revsel; print(revsel.BACKEND, revsel.COMPILED)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == ["pure-python", "False"]


@needs_cc
def test_kernel_source_compiles_without_warnings(tmp_path):
    include = sysconfig.get_paths()["include"]
    build = subprocess.run(
        [*CC, "-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror", f"-I{include}",
         str(KERNEL_C), "-o", str(tmp_path / "kernel.so")],
        capture_output=True, text=True, timeout=120,
    )
    assert build.returncode == 0, build.stderr
