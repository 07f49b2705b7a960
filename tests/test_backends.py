"""Compiled engine vs pure-Python fallback: byte-for-byte parity, draws
aimed at the rejection branch, the dispatchers' 64-bit guards, and the
loader that builds the C kernel."""

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
from test_trials import SEEDS, kernel_inputs, kernel_modes

from revsel import _engine
from revsel._engine import fallback
from revsel.adversary import gen_random_instance, gen_random_order_bad
from revsel.algorithms import ArbPolicy, CallControlPolicy, ThresholdPolicyTables, make_policy
from revsel.core import ArrivalSequence, Interval
from revsel.harness import run_arb_expectation, run_random_order
from revsel.oracle import opt_bruteforce, opt_unweighted, opt_weighted
from revsel.rng import Stream, mix64, substream_seed

compiled = pytest.mark.skipif(
    not _engine.COMPILED, reason="compiled engine not built"
)
KERNEL_C = Path(_engine.__file__).with_name("_kernel.c")
CC = shlex.split(sysconfig.get_config_var("CC") or "cc")
needs_cc = pytest.mark.skipif(shutil.which(CC[0]) is None, reason="no C compiler")


def test_fallback_permutations_match_rng_streams():
    for seed in (0, 1, 99, 2**63):
        for trial in (0, 1, 7):
            assert fallback.permutation_raw(20, seed, trial) == permutation_raw(20, seed, trial)


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
                    fallback.permutation_raw(n, seed, trial)
                )


def _spec_variants():
    yield {"mode": "always"}
    yield {"mode": "never"}
    yield {
        "mode": "threshold",
        "tables": ThresholdPolicyTables(left_default=1, right_default=0),
    }
    yield {
        "mode": "threshold",
        "tables": ThresholdPolicyTables(left={3: 1, 6: 0}, right={4: 1}, left_default=0),
    }


@compiled
def test_trial_loop_parity_across_policies_and_seeds():
    seq = gen_random_order_bad(3, 4, 40, 10)
    starts = [iv.start for iv in seq]
    ends = [iv.end for iv in seq]
    for spec in _spec_variants():
        for seed in (1, 77):
            fast = _engine.run_single_length_trials(
                starts, ends, spec, 150, seed, impl=_engine._impl
            )
            slow = _engine.run_single_length_trials(
                starts, ends, spec, 150, seed, impl=fallback
            )
            assert fast == slow


@compiled
def test_trial_loop_parity_on_dense_single_length_instances():
    for seed in range(8):
        seq = gen_random_instance(30, 1, "unit", seed)
        starts = [iv.start for iv in seq]
        ends = [iv.end for iv in seq]
        for spec in _spec_variants():
            fast = _engine.run_single_length_trials(
                starts, ends, spec, 100, seed, impl=_engine._impl
            )
            slow = _engine.run_single_length_trials(
                starts, ends, spec, 100, seed, impl=fallback
            )
            assert fast == slow


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


# -- randomized diffs of the compiled kernel against the fallback -------------


@compiled
@given(st.one_of(kernel_inputs(), st.just(([], []))), kernel_modes(4), st.integers(0, 25), SEEDS)
@settings(max_examples=500, deadline=None)
def test_kernel_trials_match_fallback(intervals, modes, trials, seed):
    starts, ends = intervals
    args = (starts, ends, *modes, trials, seed)
    assert _engine._impl.run_single_length_trials_raw(*args) == (
        fallback.run_single_length_trials_raw(*args)
    )


@compiled
@given(st.integers(0, 70), SEEDS, SEEDS)
@settings(max_examples=300, deadline=None)
def test_kernel_permutation_matches_fallback(n, seed, trial):
    assert _engine._impl.permutation_raw(n, seed, trial) == fallback.permutation_raw(n, seed, trial)


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
    assert fallback.permutation_raw(n, seed, 0) == expected
    starts = [3 * i for i in range(n)]
    args = (starts, [s + 4 for s in starts], 1, [], [], 0, [], [], 0, 1, seed)
    if _engine.COMPILED:
        assert _engine._impl.permutation_raw(n, seed, 0) == expected
        assert _engine._impl.run_single_length_trials_raw(*args) == (
            fallback.run_single_length_trials_raw(*args)
        )


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
        arb = run_arb_expectation(policy, seq, 4, seed)
        ref, choices, _ = replay_arb_expectation(policy, seq, 4, seed)
        assert arb.stats.to_csv() == ref.to_csv()
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
    python_only = make_policy(f"rand-memoryless:p={p}")
    spec = python_only.kernel_spec()
    python_only.kernel_spec = lambda: None
    expected = run_random_order(python_only, seq, 3, seed).alg_samples
    starts = [iv.start for iv in seq]
    ends = [iv.end for iv in seq]
    for impl in {_engine._impl, fallback}:
        assert _engine.run_single_length_trials(starts, ends, spec, 3, seed, impl=impl) == expected


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
    trials = _engine.run_single_length_trials(starts, ends, {"mode": "always"}, 40, 3)
    monkeypatch.setattr(_engine, "_impl", fallback)
    assert opt_bruteforce(seq) == compiled_cert
    assert compiled_cert.value == opt_weighted(seq).value
    assert _engine.run_single_length_trials(starts, ends, {"mode": "always"}, 40, 3) == trials


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
    starts = [iv.start for iv in seq]
    ends = [iv.end for iv in seq]
    python_only = CallControlPolicy()
    python_only.kernel_spec = lambda: None
    expected = run_random_order(python_only, seq, 200, seed=7).alg_samples
    for impl in {_engine._impl, fallback}:
        assert _engine.run_single_length_trials(
            starts, ends, {"mode": "call-control"}, 200, 7, impl=impl
        ) == expected
    assert run_random_order(CallControlPolicy(), seq, 200, seed=7).alg_samples == expected


@compiled
def test_weight_sums_beyond_64_bits_take_the_fallback():
    seq = ArrivalSequence(Interval(i, 2 * i, 2 * i + 1, Fraction(2**61)) for i in range(5))
    cert = opt_bruteforce(seq)
    assert cert.members == frozenset(range(5)) and cert.value == 5 * 2**61
    # The trial kernel's held weight would pass 2**63 here.
    stats = run_random_order(make_policy("never-replace"), seq, 3, seed=1)
    assert stats.alg_samples == [5 * 2**61] * 3


class _RecordingKernel:
    """Stands in for the active kernel and counts the calls it gets."""

    def __init__(self):
        self.calls = 0

    def run_single_length_trials_raw(self, *args):
        self.calls += 1
        return fallback.run_single_length_trials_raw(*args)


def test_trial_guards_on_weight_sums_and_denominators(monkeypatch):
    top = 2**62
    starts, ends = [0, 1, 5], [2, 3, 6]
    cases = [  # (spec, weights, whether the kernel may take it)
        ({"mode": "always"}, [top - 3, 1, 1], True),
        ({"mode": "always"}, [top - 2, 1, 1], False),
        ({"mode": "memoryless", "p": Fraction(1, top - 1)}, [], True),
        ({"mode": "memoryless", "p": Fraction(1, top)}, [], False),
    ]
    active = _engine._impl
    for spec, weights, kernel in cases:
        p = spec.get("p", Fraction(0))
        args = (starts, ends, _engine._MODES[spec["mode"]], [], [], 0, [], [], 0, 20, 5,
                weights, p.numerator, p.denominator)
        expected = fallback.run_single_length_trials_raw(*args)
        if kernel:  # just inside the guards, the active kernel matches
            assert active.run_single_length_trials_raw(*args) == expected
        recorder = _RecordingKernel()
        with monkeypatch.context() as patch:
            patch.setattr(_engine, "_impl", recorder)
            assert _engine.run_single_length_trials(
                starts, ends, spec, 20, 5, weights=weights
            ) == expected
        assert recorder.calls == (1 if kernel else 0)


# -- the loader ---------------------------------------------------------------


@needs_cc
def test_cache_hit_runs_no_compiler(tmp_path, monkeypatch):
    source, cache = tmp_path / "_kernel.c", tmp_path / "cache"
    shutil.copy(KERNEL_C, source)
    built = _engine._cached_build(str(source), str(cache))
    assert built is not None and built.permutation_raw(9, 1, 2) == fallback.permutation_raw(9, 1, 2)
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
