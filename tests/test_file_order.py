"""File-order runs through the engine kernel, diffed against ``run_policy``.

``run`` and ``verify`` take a policy's run over the arrivals in file order
from :func:`revsel.harness.run_file_order`, which asks the kernel first and
runs the policy through ``run_policy`` when the kernel answers None. The
kernel's run has no feasibility check of its own: these tests diff its
transcript rows, final ids and ALG against ``run_policy``'s, which applies
every action through ``apply_action``, and replay its transcript through
``apply_action`` too. Without a kernel, ``run_file_order`` is ``run_policy``
and the diffs hold trivially; the tests that need the kernel itself are
skipped.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_trials import SEEDS, kernel_inputs

from revsel import _engine, harness
from revsel.adversary import gen_random_instance
from revsel.algorithms import (
    PolicyDomainError,
    RandMemorylessPolicy,
    StepPolicy,
    ThresholdPolicy,
    ThresholdPolicyTables,
    make_policy,
)
from revsel.cli import EXIT_OK, EXIT_USAGE, main
from revsel.core import ArrivalSequence, Interval, read_jsonl, solution_weight, write_jsonl
from revsel.harness import replay_actions, run_adversarial, run_file_order, run_policy
from revsel.rng import Stream

compiled = pytest.mark.skipif(not _engine.COMPILED, reason="compiled engine not built")

STEP_POLICIES = ["greedy-subsume", "call-control", "always-replace", "never-replace"]

tables = st.builds(
    ThresholdPolicyTables,
    left=st.dictionaries(st.integers(1, 7), st.integers(0, 1), max_size=5),
    right=st.dictionaries(st.integers(1, 7), st.integers(0, 1), max_size=5),
    left_default=st.integers(0, 1),
    right_default=st.integers(0, 1),
)

# One policy strategy per kernel mode, keyed as _engine._MODES is.
POLICIES = {
    "threshold": tables.map(ThresholdPolicy),
    "always": st.just(make_policy("always-replace")),
    "never": st.just(make_policy("never-replace")),
    "greedy-subsume": st.just(make_policy("greedy-subsume")),
    "call-control": st.just(make_policy("call-control")),
    "memoryless": st.fractions(0, 1, max_denominator=7).map(RandMemorylessPolicy),
}


@st.composite
def instances(draw, max_lengths=3):
    """kernel_inputs' intervals (copies, touching endpoints and lengths a
    and 2a) with distinct ids in no particular order and rational weights,
    so that a position read as an id, or a weight read wrong, shows."""
    starts, ends = draw(kernel_inputs(max_lengths))
    n = len(starts)
    ids = draw(st.lists(st.integers(-50, 2**70), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.fractions(0, 5, max_denominator=6), min_size=n, max_size=n))
    return ArrivalSequence(map(Interval, ids, starts, ends, weights))


def asks_kernel(policy, seq, seed) -> bool:
    cols = seq.columns
    return _engine.run_file_order(cols.starts, cols.ends, policy.kernel_spec(), seed) is not None


def assert_same_run(policy, seq, seed):
    """The file-order run equals run_policy's on the same stream: rows,
    transcript, final ids and ALG; and its transcript replays through
    apply_action to its final ids."""
    state, expected = run_policy(policy, seq, Stream.for_trial(seed, 0))
    final, transcript = run_file_order(policy, seq, seed)
    assert transcript.to_json_list() == expected.to_json_list()
    assert transcript == expected
    assert final == state.ids == replay_actions(seq, transcript)
    result = run_adversarial(policy, seq, seed)
    assert result.final_solution == state.ids
    assert result.alg_value == solution_weight(seq, state.ids)


@pytest.mark.parametrize("mode", sorted(POLICIES))
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_file_order_run_matches_run_policy(mode, data):
    """Every kernel mode, threshold tables on single-length instances only
    (the eligibility rule of the trials), memoryless draws over SEEDS."""
    policy = data.draw(POLICIES[mode])
    seq = data.draw(instances(max_lengths=1 if mode == "threshold" else 3))
    seed = data.draw(SEEDS)
    assert asks_kernel(policy, seq, seed) == _engine.COMPILED
    assert_same_run(policy, seq, seed)


@pytest.mark.parametrize("weights", ["unit", "rational"])
def test_file_order_run_matches_run_policy_on_dense_instances(weights):
    """Long conflicting runs: always-replace and the memoryless policy
    displace several members at once, call-control does on short arrivals."""
    for seed in range(3):
        seq = gen_random_instance(300, 3, weights, seed)
        single = gen_random_instance(300, 1, weights, seed)
        for pid in [*STEP_POLICIES, "rand-memoryless:p=2/3", "rand-memoryless:p=1"]:
            assert_same_run(make_policy(pid), seq, seed)
        for pid in ("one-dir-left", "one-dir-right"):
            assert_same_run(make_policy(pid), single, seed)


def test_deterministic_policies_run_the_same_without_a_seed():
    seq = gen_random_instance(120, 3, "unit", 5)
    for pid in STEP_POLICIES:
        state, expected = run_policy(make_policy(pid), seq)
        assert run_file_order(make_policy(pid), seq) == (state.ids, expected)
        assert run_adversarial(make_policy(pid), seq).transcript == expected


@pytest.mark.parametrize("edge", [2**62, -(2**62)])
def test_coordinates_at_the_guard_fall_back_to_run_policy(monkeypatch, edge):
    """An instance moved so that one coordinate sits at +-2**62 is outside
    the kernel's guard: its run goes through run_policy, and its output is
    the bytes of the unmoved instance's run, which the kernel makes."""
    seq = gen_random_instance(60, 3, "rational", 2)
    cols = seq.columns
    d = edge - max(cols.ends) if edge > 0 else edge - min(cols.starts)
    moved = ArrivalSequence(Interval(iv.id, iv.start + d, iv.end + d, iv.weight) for iv in seq)
    calls = []
    real = harness.run_policy

    def spy(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_policy", spy)
    for pid in [*STEP_POLICIES, "rand-memoryless:p=1/3"]:
        policy = make_policy(pid)
        assert not asks_kernel(policy, moved, 9)
        near = _engine.dumps_json(run_adversarial(policy, seq, 9).to_json_dict())
        assert calls == ([] if _engine.COMPILED else [policy.name])
        assert _engine.dumps_json(run_adversarial(policy, moved, 9).to_json_dict()) == near
        assert calls[-1] == policy.name
        calls.clear()


def test_threshold_file_on_mixed_lengths_keeps_the_python_error(tmp_path, capsys, monkeypatch):
    """threshold:<file> on a mixed-length instance asks the kernel, which
    answers None, so the run goes through run_policy: a partial conflict
    between two lengths raises PolicyDomainError, and `run` exits with the
    usage code, as it did before the kernel ran file-order runs."""
    answers = []
    real = _engine.run_file_order

    def spy(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(_engine, "run_file_order", spy)
    table = tmp_path / "table.json"
    table.write_text('{"left": {"2": 1}, "left_default": 1, "right_default": 1}')
    inst = tmp_path / "mixed.jsonl"
    inst.write_text('{"id": 0, "start": 0, "end": 6}\n{"id": 1, "start": 4, "end": 14}\n')
    policy = make_policy(f"threshold:{table}")
    with pytest.raises(PolicyDomainError, match="between lengths 10 and 6"):
        run_adversarial(policy, read_jsonl(str(inst)))
    assert main(["run", f"threshold:{table}", str(inst)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: threshold policies are defined for single-length instances")
    assert answers == [None, None]


def test_cli_run_and_verify_give_the_python_paths_bytes(tmp_path, capsys, monkeypatch):
    inst = str(tmp_path / "inst.jsonl")
    write_jsonl(gen_random_instance(400, 3, "rational", 7), inst)
    unit = str(tmp_path / "unit.jsonl")
    write_jsonl(gen_random_instance(400, 3, "unit", 7), unit)
    commands = [["run", pid, inst] for pid in STEP_POLICIES]
    commands += [["run", "rand-memoryless:p=3/5", inst, "--seed", "4"], ["verify", unit]]

    def outputs():
        runs = []
        for argv in commands:
            assert main(argv) == EXIT_OK, argv
            runs.append(capsys.readouterr())
        return runs

    ours = outputs()
    monkeypatch.setattr(_engine, "run_file_order", lambda *args: None)
    assert ours == outputs()


@compiled
def test_run_and_verify_make_no_python_decision_on_the_compiled_backend(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args):
        raise AssertionError("a Python decision ran")

    for cls in (StepPolicy, ThresholdPolicy, RandMemorylessPolicy):
        monkeypatch.setattr(cls, "decide", refuse)
    inst = str(tmp_path / "inst.jsonl")
    write_jsonl(gen_random_instance(200, 3, "unit", 3), inst)
    single = str(tmp_path / "single.jsonl")
    write_jsonl(gen_random_instance(200, 1, "unit", 3), single)
    for argv in (*(["run", pid, inst] for pid in STEP_POLICIES),
                 ["run", "one-dir-left", single],
                 ["run", "rand-memoryless:p=1/2", inst, "--seed", "1"],
                 ["verify", inst]):
        assert main(argv) == EXIT_OK, argv
    capsys.readouterr()


@compiled
def test_kernel_reports_displaced_positions_arrival_by_arrival():
    """The raw form: one flag per arrival, n + 1 offsets, and the
    positions each arrival displaced. Arrival 3 replaces the run of 1 and 2,
    arrival 4 the run of 0 and 3 (0 ends where 3 starts), in start order."""
    starts, ends = [0, 3, 6, 2, 1, 5], [2, 5, 8, 7, 4, 9]
    spec = make_policy("always-replace").kernel_spec()
    accepted, offsets, displaced, final = _engine.run_file_order(starts, ends, spec, 0)
    assert list(accepted) == [1, 1, 1, 1, 1, 1]
    assert offsets == [0, 0, 0, 0, 2, 4, 4]
    assert displaced == [1, 2, 0, 3]
    assert final == [4, 5]
    never = make_policy("never-replace").kernel_spec()
    accepted, offsets, displaced, final = _engine.run_file_order(starts, ends, never, 0)
    assert (list(accepted), offsets, displaced, final) == ([1, 1, 1, 0, 0, 0], [0] * 7, [], [0, 1, 2])


def test_memoryless_file_order_draws_from_trial_zero():
    """`run --seed s` draws from Stream.for_trial(s, 0); p = 1/2 on
    disjoint arrivals makes each accept one draw of that stream."""
    seq = ArrivalSequence(Interval(i, 2 * i, 2 * i + 1) for i in range(64))
    stream = Stream.for_trial(11, 0)
    expected = [stream.bernoulli(Fraction(1, 2)) for _ in seq]
    _, transcript = run_file_order(make_policy("rand-memoryless:p=1/2"), seq, 11)
    assert [action.accepted for _, action in transcript.actions()] == expected
    assert 0 < sum(expected) < 64
