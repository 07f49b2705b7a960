"""CLI behavior: flows, exit codes, reproducibility."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revsel import _engine, adversary, cli
from revsel.algorithms import Action, Policy
from revsel.cli import EXIT_BOUND, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from revsel.core import _CHUNK_LINES, Interval, _decode_chunk, write_jsonl
from revsel.harness import RunTranscript
from revsel.oracle import ChargeBoundViolation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_run_verify_flow(tmp_path, capsys):
    inst = str(tmp_path / "tight.jsonl")
    code, out, _ = run_cli(capsys, "generate", "greedy-tight", "--out", inst)
    assert code == EXIT_OK
    assert "k=2" in out and "d=1" in out

    code, out, _ = run_cli(capsys, "run", "greedy-subsume", inst)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ratio"] == "4/1"
    assert payload["final_solution"] == [3]

    code, out, _ = run_cli(capsys, "verify", inst)
    assert code == EXIT_OK
    assert "pass" in out.splitlines()[-1]


# Every generator with a valid value for each flag it requires, in the
# order its missing-flag messages name them.
GENERATOR_FLAGS = [
    ("two-length", ["--K", "5"]),
    ("chain", ["--count", "5", "--L", "6", "--v", "2"]),
    ("greedy-tight", []),
    ("call-control-bad", ["--k", "3"]),
    ("greedy-bad", ["--k", "2"]),
    ("random-order-bad", ["--alpha", "3", "--beta", "4", "--m", "20", "--L", "10"]),
    ("random-order-bad-wide", ["--alpha", "3", "--gamma", "6", "--m", "20", "--L", "10"]),
    ("fork-pair", []),
    ("random", ["--n", "12", "--k-target", "3", "--seed", "5"]),
]


def test_generate_all_generators(tmp_path, capsys):
    for name, flags in GENERATOR_FLAGS:
        out_path = str(tmp_path / f"{name}.jsonl")
        code, out, err = run_cli(capsys, "generate", name, "--out", out_path, *flags)
        assert code == EXIT_OK and err == "", name
        paths = ([str(tmp_path / f"{name}.{s}.jsonl") for s in ("s1", "s2")]
                 if name == "fork-pair" else [out_path])
        assert [line.split(":")[0] for line in out.splitlines()] == paths, name
        assert all(Path(path).exists() for path in paths), name


@pytest.mark.parametrize("name, flags, dropped", [
    (name, flags, i) for name, flags in GENERATOR_FLAGS for i in range(0, len(flags), 2)
])
def test_generate_without_a_required_flag_is_usage_error(tmp_path, capsys, name, flags, dropped):
    kept = flags[:dropped] + flags[dropped + 2:]
    code, out, err = run_cli(capsys, "generate", name, "--out", str(tmp_path / "x.jsonl"), *kept)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: generator requires {flags[dropped]}\n"
    assert not (tmp_path / "x.jsonl").exists()


def test_generate_two_length_line_count(tmp_path, capsys):
    inst = str(tmp_path / "two.jsonl")
    run_cli(capsys, "generate", "two-length", "--K", "5", "--out", inst)
    with open(inst) as fh:
        assert len(fh.read().splitlines()) == 6


def test_generate_fork_pair_writes_two_files(tmp_path, capsys):
    base = str(tmp_path / "pair.jsonl")
    code, out, _ = run_cli(capsys, "generate", "fork-pair", "--out", base)
    assert code == EXIT_OK
    assert (tmp_path / "pair.s1.jsonl").exists()
    assert (tmp_path / "pair.s2.jsonl").exists()


def test_generate_missing_param_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "generate", "two-length", "--out", str(tmp_path / "x.jsonl"))
    assert code == EXIT_USAGE
    assert "--K" in err


def test_generate_infeasible_params_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "generate", "random-order-bad-wide", "--alpha", "4", "--gamma", "6",
        "--m", "5", "--L", "10", "--out", str(tmp_path / "x.jsonl"),
    )
    assert code == EXIT_USAGE


def test_unknown_generator_and_policy(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "generate", "nope", "--out", str(tmp_path / "x.jsonl"))
    assert code == EXIT_USAGE
    inst = str(tmp_path / "two.jsonl")
    run_cli(capsys, "generate", "two-length", "--K", "3", "--out", inst)
    code, _, _ = run_cli(capsys, "run", "bogus-policy", inst)
    assert code == EXIT_USAGE


def test_run_empty_instance_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, err = run_cli(capsys, "run", "greedy-subsume", str(empty))
    assert code == EXIT_USAGE


def test_run_randomized_requires_seed(tmp_path, capsys):
    inst = str(tmp_path / "two.jsonl")
    run_cli(capsys, "generate", "two-length", "--K", "3", "--out", inst)
    code, _, err = run_cli(capsys, "run", "rand-memoryless:p=1/2", inst)
    assert code == EXIT_USAGE and "--seed" in err
    code, out, _ = run_cli(capsys, "run", "rand-memoryless:p=1/2", inst, "--seed", "4")
    assert code == EXIT_OK


def test_duel_reports_bound(capsys):
    code, out, _ = run_cli(capsys, "duel", "greedy-subsume", "--k", "2")
    assert code == EXIT_OK
    assert "met" in out
    payload = json.loads(out[: out.rfind("}") + 1])
    assert payload["bound_met"] is True
    assert len(payload["opt_certificate"]) >= 4


def test_duel_randomized_with_copies(capsys):
    code, out, _ = run_cli(
        capsys, "duel", "rand-memoryless:p=1/2", "--k", "2", "--copies", "20", "--seed", "7"
    )
    assert code == EXIT_OK


@pytest.mark.skipif(not _engine.COMPILED, reason="compiled engine not built")
def test_run_and_duel_write_their_rows_without_to_json_list(tmp_path, capsys, monkeypatch):
    """The kernel writes a transcript's rows straight from its columns, so
    `run` and `duel` print the same bytes when the Python rendering fails."""
    inst = str(tmp_path / "tight.jsonl")
    run_cli(capsys, "generate", "greedy-tight", "--out", inst)
    argvs = [("run", "greedy-subsume", inst), ("run", "rand-memoryless:p=1/2", inst, "--seed", "3"),
             ("duel", "greedy-subsume", "--k", "3"),
             ("duel", "rand-memoryless:p=1/2", "--k", "2", "--copies", "20", "--seed", "7")]
    expected = [run_cli(capsys, *argv) for argv in argvs]

    def refuse(self):
        raise AssertionError("a transcript was rendered in Python")

    monkeypatch.setattr(RunTranscript, "to_json_list", refuse)
    for argv, before in zip(argvs, expected):
        assert before[0] == EXIT_OK and '"action": ' in before[1]
        assert run_cli(capsys, *argv) == before


def test_duel_refuses_copies_below_one_for_every_policy(capsys):
    """`--copies` is checked before the deterministic branch, which plays
    one copy, so a deterministic policy refuses it as a randomized one
    does."""
    for argv in (("greedy-subsume", "--copies", "-5"), ("greedy-subsume", "--copies", "0"),
                 ("rand-memoryless:p=1/2", "--copies", "0", "--seed", "7")):
        code, out, err = run_cli(capsys, "duel", *argv[:1], "--k", "2", *argv[1:])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: copies must be >= 1\n"
    code, out, _ = run_cli(capsys, "duel", "greedy-subsume", "--k", "2", "--copies", "3")
    assert code == EXIT_OK and '"copies": 1' in out


def test_bench_writes_csv(tmp_path, capsys):
    inst = str(tmp_path / "rom.jsonl")
    run_cli(
        capsys, "generate", "random-order-bad",
        "--alpha", "3", "--beta", "4", "--m", "50", "--L", "10", "--out", inst,
    )
    out_csv = str(tmp_path / "trials.csv")
    code, _, err = run_cli(
        capsys, "bench", "never-replace", inst, "--trials", "200", "--seed", "1",
        "--out", out_csv,
    )
    assert code == EXIT_OK
    with open(out_csv) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "trial,seed,alg,opt,ratio"
    assert len(lines) == 201
    summary = json.loads(err)
    assert summary["policy"] == "never-replace"


def test_bench_that_fails_in_its_first_chunk_writes_no_csv(tmp_path, capsys):
    inst = tmp_path / "mixed.jsonl"
    inst.write_text('{"id": 0, "start": 0, "end": 6}\n{"id": 1, "start": 4, "end": 14}\n')
    out_csv = tmp_path / "trials.csv"
    code, out, err = run_cli(
        capsys, "bench", "one-dir-left", str(inst), "--trials", "10", "--seed", "1",
        "--out", str(out_csv),
    )
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: threshold policies are defined for single-length instances")
    assert not out_csv.exists()


def test_bench_requires_seed_and_trials(tmp_path, capsys):
    inst = str(tmp_path / "rom.jsonl")
    run_cli(
        capsys, "generate", "random-order-bad",
        "--alpha", "3", "--beta", "4", "--m", "10", "--L", "10", "--out", inst,
    )
    code, _, _ = run_cli(capsys, "bench", "never-replace", inst, "--trials", "10")
    assert code == EXIT_USAGE


def test_bench_arb_summary(tmp_path, capsys):
    inst = str(tmp_path / "two.jsonl")
    run_cli(capsys, "generate", "two-length", "--K", "5", "--out", inst)
    code, _, err = run_cli(
        capsys, "bench", "arb:greedy-disjoint", inst, "--trials", "100", "--seed", "2"
    )
    assert code == EXIT_OK
    summary = json.loads(err)
    assert "length_choices" in summary


def test_cli_outputs_reproducible(tmp_path, capsys):
    inst = str(tmp_path / "inst.jsonl")
    run_cli(capsys, "generate", "random", "--n", "20", "--k-target", "3", "--seed", "9",
            "--out", inst)
    _, out1, _ = run_cli(capsys, "run", "call-control", inst)
    _, out2, _ = run_cli(capsys, "run", "call-control", inst)
    assert out1 == out2
    with open(inst) as fh:
        first = fh.read()
    run_cli(capsys, "generate", "random", "--n", "20", "--k-target", "3", "--seed", "9",
            "--out", inst)
    with open(inst) as fh:
        assert fh.read() == first


def test_arb_run_with_discarding_accepts_keeps_its_bytes(tmp_path, capsys):
    # The classify-by-length wrapper's discarding accepts are the only rows
    # with "discard_rest"; this run has two, one of them displacing two ids.
    inst = str(tmp_path / "inst.jsonl")
    run_cli(capsys, "generate", "random", "--n", "50", "--k-target", "3", "--seed", "1",
            "--out", inst)
    code, out, _ = run_cli(capsys, "run", "arb:greedy-disjoint", inst, "--seed", "5")
    assert code == EXIT_OK
    discards = [row for row in json.loads(out)["transcript"] if row.get("discard_rest")]
    assert [(row["id"], row["displaced"]) for row in discards] == [(1, [0]), (4, [1, 3])]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8f6dd1474b49c8b3d919e564c004221610387f2b4c014f5ffe696f4ecc66f23f"
    )


def test_threshold_table_policy_from_file(tmp_path, capsys):
    table = tmp_path / "tables.json"
    table.write_text('{"left": {"6": 0}, "left_default": 1, "right": {}, "right_default": 0}')
    inst = str(tmp_path / "wide.jsonl")
    run_cli(
        capsys, "generate", "random-order-bad-wide",
        "--alpha", "3", "--gamma", "6", "--m", "30", "--L", "10", "--out", inst,
    )
    code, _, err = run_cli(
        capsys, "bench", f"threshold:{table}", inst, "--trials", "300", "--seed", "3"
    )
    assert code == EXIT_OK
    summary = json.loads(err)
    assert summary["fraction_ratio_ge_2"]


def test_threshold_table_with_bool_or_float_is_usage_error(tmp_path, capsys):
    inst = str(tmp_path / "wide.jsonl")
    run_cli(
        capsys, "generate", "random-order-bad-wide",
        "--alpha", "3", "--gamma", "6", "--m", "4", "--L", "10", "--out", inst,
    )
    table = tmp_path / "tables.json"
    for text in ('{"left_default": true}', '{"left": {"6": 0.7}}', '{"left": {"6.5": 1}}'):
        table.write_text(text)
        code, out, err = run_cli(
            capsys, "bench", f"threshold:{table}", inst, "--trials", "3", "--seed", "1"
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: threshold")


def test_non_integer_coordinates_are_usage_error(tmp_path, capsys):
    inst = tmp_path / "floats.jsonl"
    for record in ('{"id": 1, "start": 0.9, "end": 3}', '{"id": 1, "start": 0, "end": true}',
                   '{"id": 1.0, "start": 0, "end": 3}'):
        inst.write_text('{"id": 0, "start": 5, "end": 8}\n' + record + "\n")
        for argv in (("run", "greedy-subsume", str(inst)), ("verify", str(inst)),
                     ("bench", "never-replace", str(inst), "--trials", "3", "--seed", "1")):
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE and out == ""
            assert err.startswith("error: line 2: ") and "JSON integers" in err


def test_bench_backends_command(capsys):
    code, out, _ = run_cli(capsys, "bench-backends", "--trials", "100", "--seed", "1")
    assert code == EXIT_OK
    assert "pure-python" in out
    for label in ("trials always-replace", "trials call-control ",
                  "trials call-control weighted", "trials rand-memoryless:p=1/3",
                  "file-order greedy-subsume", "file-order always-replace",
                  "subset-search", "oracle-greedy", "oracle-dp", "json-writer",
                  "jsonl-reader"):
        assert label in out
    if _engine.COMPILED:
        assert out.splitlines()[-1] == "outputs identical across backends: True"


def _skew_subset_search(monkeypatch):
    from revsel._engine import fallback

    search = fallback.best_subset_scaled
    monkeypatch.setattr(fallback, "best_subset_scaled", lambda *columns: (search(*columns), 1))


def _skew_oracle_twin(monkeypatch):
    from revsel._engine import fallback

    members = fallback.opt_members
    # The twin drops the last member it picks.
    monkeypatch.setattr(fallback, "opt_members", lambda *columns: members(*columns)[:-1])


def _skew_chunk_loop(monkeypatch):
    load = cli._loads_chunks
    # The chunk loop reads all but the last record.
    monkeypatch.setattr(cli, "_loads_chunks", lambda text: load(text[:text.rindex("{")]))


@pytest.mark.parametrize("skew", [_skew_subset_search, _skew_oracle_twin, _skew_chunk_loop])
def test_bench_backends_exits_3_when_the_backends_differ(capsys, monkeypatch, skew):
    skew(monkeypatch)
    code, out, err = run_cli(capsys, "bench-backends", "--trials", "20", "--seed", "1")
    assert err == ""
    if _engine.COMPILED:
        assert code == EXIT_BOUND
        assert out.splitlines()[-1] == "outputs identical across backends: False"
    else:
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "compiled engine not available; ran pure-python only"


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_bench_backends_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run_cli(capsys, "bench-backends", "--trials", trials, "--seed", "1")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: --trials must be >= 1\n"


# -- exit codes 2 and 3, reached through monkeypatched collaborators -----------


class _Hoarder(Policy):
    """Accepts every arrival and displaces nothing."""

    name = "hoarder"

    def decide(self, state, arrival, rng=None):
        return Action.accept()


class _Crasher(Policy):
    name = "crasher"

    def decide(self, state, arrival, rng=None):
        raise RuntimeError("boom")


def test_run_with_an_infeasible_action_exits_2(tmp_path, capsys, monkeypatch):
    inst = str(tmp_path / "two.jsonl")
    run_cli(capsys, "generate", "two-length", "--K", "3", "--out", inst)
    monkeypatch.setattr(cli, "make_policy", lambda identifier: _Hoarder())
    code, out, err = run_cli(capsys, "run", "greedy-subsume", inst)
    assert code == EXIT_INFEASIBLE and out == ""
    assert err.startswith("infeasible action: ") and err.count("\n") == 1


def test_duel_with_a_failing_policy_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "make_policy", lambda identifier: _Crasher())
    code, out, err = run_cli(capsys, "duel", "greedy-subsume", "--k", "2")
    assert code == EXIT_INFEASIBLE and out == ""
    assert err == "driver error: policy failed on arrival 0: boom\n"


def test_duel_whose_bound_is_not_met_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(adversary.AdaptiveTranscript, "ratio_at_least", lambda self, bound: False)
    out_path = tmp_path / "duel.json"
    code, out, err = run_cli(capsys, "duel", "greedy-subsume", "--k", "2", "--out", str(out_path))
    assert code == EXIT_BOUND and err == ""
    text, verdict = out.rstrip("\n").rsplit("\n", 1)
    assert verdict.startswith("ratio ") and verdict.endswith(" vs bound 4: NOT met")
    assert json.loads(text)["bound_met"] is False
    assert out_path.read_text() == text + "\n"


def test_verify_charge_violation_exits_3_with_a_counterexample(tmp_path, capsys, monkeypatch):
    inst = str(tmp_path / "tight.jsonl")
    run_cli(capsys, "generate", "greedy-tight", "--out", inst)
    audit = cli.verify_charging

    def violated(*args):
        raise ChargeBoundViolation("interval 3 holds 5 charges (> 2k)", audit(*args))

    monkeypatch.setattr(cli, "verify_charging", violated)
    ledger = str(tmp_path / "ledger.json")
    for flags, stem in (([], inst), (["--out", ledger], ledger)):
        code, out, err = run_cli(capsys, "verify", inst, *flags)
        assert code == EXIT_BOUND and err == "", flags
        text, verdict = out.rstrip("\n").rsplit("\n", 1)
        assert verdict == "FAIL: interval 3 holds 5 charges (> 2k)"
        payload = json.loads(text)
        assert payload["violation"] == "interval 3 holds 5 charges (> 2k)"
        assert payload["counterexample"] == stem + ".counterexample.jsonl"
        assert Path(payload["counterexample"]).read_text() == Path(inst).read_text()
        if flags:
            assert Path(ledger).read_text() == text + "\n"


def test_missing_file_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "run", "greedy-subsume", "/nonexistent/file.jsonl")
    assert code == EXIT_USAGE


def test_directory_instance_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "greedy-subsume", str(tmp_path))
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_bench_rejects_nonpositive_jobs(tmp_path, capsys):
    inst = str(tmp_path / "two.jsonl")
    run_cli(capsys, "generate", "two-length", "--K", "3", "--out", inst)
    for jobs in ("0", "-3"):
        for policy in ("greedy-subsume", "arb:greedy-disjoint"):
            code, out, err = run_cli(
                capsys, "bench", policy, inst, "--trials", "5", "--seed", "1", "--jobs", jobs
            )
            assert code == EXIT_USAGE and out == ""
            assert "--jobs" in err


def test_bench_random_order_flag_is_gone(tmp_path, capsys):
    # Trials were always random-order (classify policies: arrival order), so
    # the flag did nothing; passing it is now an unknown-argument error.
    inst = str(tmp_path / "two.jsonl")
    run_cli(capsys, "generate", "two-length", "--K", "3", "--out", inst)
    code, out, err = run_cli(
        capsys, "bench", "never-replace", inst, "--trials", "5", "--seed", "1", "--random-order"
    )
    assert code == EXIT_USAGE and out == ""
    assert "--random-order" in err


def test_out_of_order_ids_are_usage_error(tmp_path, capsys):
    inst = tmp_path / "ids.jsonl"
    inst.write_text('{"id": 0, "start": 0, "end": 4}\n\n{"id": 2, "start": 5, "end": 9}\n')
    for argv in (("run", "greedy-subsume", str(inst)), ("verify", str(inst)),
                 ("bench", "never-replace", str(inst), "--trials", "3", "--seed", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: line 3: expected id 1, got 2")


def test_zero_denominator_weight_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "w.jsonl"
    inst.write_text('{"id": 0, "start": 0, "end": 4, "weight": "1/0"}\n')
    for argv in (("run", "greedy-subsume", str(inst)), ("verify", str(inst)),
                 ("bench", "never-replace", str(inst), "--trials", "3", "--seed", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: line 1: invalid interval record: weight '1/0' has a zero denominator\n"


def test_nesting_beyond_the_recursion_limit_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "deep.jsonl"
    deep = '{"a": ' * 5000 + "1" + "}" * 5000
    inst.write_text('{"id": 0, "start": 0, "end": 4, "x": ' + deep + "}\n")
    code, out, err = run_cli(capsys, "run", "greedy-subsume", str(inst))
    assert code == EXIT_USAGE and out == ""
    assert err == (
        "error: line 1: invalid interval record: maximum recursion depth exceeded"
        " while decoding a JSON object from a unicode string\n"
    )


@pytest.mark.parametrize("weight", ["0.5", "1e3", " 3 "])
def test_string_weight_outside_the_grammar_is_usage_error(tmp_path, capsys, weight):
    inst = tmp_path / "w.jsonl"
    inst.write_text(json.dumps({"id": 0, "start": 0, "end": 4, "weight": weight}) + "\n")
    code, out, err = run_cli(capsys, "run", "greedy-subsume", str(inst))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: line 1: invalid interval record: weight must be")


# -- the indent-2 JSON writer against json.dumps ----------------------------------


def _reference_json_text(obj):
    """json.dumps's text, with a run's transcript rendered by to_json_list."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_engine.json_default)


@st.composite
def appended_transcripts(draw):
    """Transcripts as ``RunTranscript.append`` writes them: any ids, every
    kind, and up to three displaced ids per accept."""
    transcript = RunTranscript("p")
    for i in draw(st.lists(st.integers(-2**70, 2**70), max_size=5)):
        kind = draw(st.sampled_from([0, 1, 2]))
        displaced = draw(st.lists(st.integers(-5, 2**65), max_size=3)) if kind else ()
        transcript.append(i, Action(kind != 0, frozenset(displaced), kind == 2))
    return transcript


small_ints = st.lists(st.integers(-1, 4), max_size=4)
# Columns that no run writes, which the kernel writer mostly declines: kinds
# past 2, offsets of any length and order, bool ids.
raw_transcripts = st.builds(
    RunTranscript, st.just("p"), st.lists(st.one_of(st.integers(0, 3), st.booleans()), max_size=3),
    small_ints.map(lambda kinds: bytearray(k % 4 for k in kinds)), small_ints, small_ints,
)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**80, 2**80),
    st.floats(),
    st.text(),
    st.text(st.characters(max_codepoint=0x3f)),  # control characters and quotes
    appended_transcripts(),
    raw_transcripts,
)
json_payloads = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.dictionaries(st.integers(-2**70, 2**70), children, max_size=3),
    ),
    max_leaves=30,
)


@given(json_payloads)
@settings(max_examples=500, deadline=None)
def test_json_writer_matches_json_dumps(payload):
    assert cli._json_text(payload) == _reference_json_text(payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), [{}], {"a": []}, "é\x00 \ud800", 2**64 + 1, -0.0, float("nan"),
    float("-inf"), 1e300, {1.5: 1, 2: 2}, {True: 1}, {None: 1}, {"a": {"b": (1, [2.5, None])}},
    -2**63, 2**63 - 1, 2**63, -2**63 - 1, {"ab": 1, "a": 2, "abc": 3, "b": 0, "": 5, "B": 6},
    {str(i): [i] * (i % 3) for i in range(40)},
])
def test_json_writer_matches_json_dumps_on_edge_values(payload):
    assert cli._json_text(payload) == _reference_json_text(payload)


# Strings of the characters that structure JSON outside strings, quotes and
# backslashes: inside a string the writer escapes the last two and copies
# the rest verbatim.
STRUCTURAL = '\\"\',:[]{} '
structural_text = st.text(st.sampled_from(STRUCTURAL + "a\n"), max_size=8)
structural_payloads = st.recursive(
    st.one_of(structural_text, st.integers(-3, 3), st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(structural_text, children, max_size=3),
    ),
    max_leaves=20,
)


@given(structural_payloads)
@settings(max_examples=500, deadline=None)
def test_json_writer_copies_strings_of_structural_characters(payload):
    assert cli._json_text(payload) == _reference_json_text(payload)


@pytest.mark.parametrize("payload", [
    "\\", "a\\", '"', '\\"', "[{,:}]", {"\\": "\\"}, {'\\"': ['"', "\\", ","]},
    {"a,b": "c:d", "[": "]", "{": "}"}, ["\\", "\\\\", "x\\"], {"k\\": {"\\": []}},
    [[], {}, [[]], {"a": {}}], {"a": [], "b": {}, "c": [{}]}, [[[[]]]], "top-level string",
    "".join(map(chr, range(128))), {chr(c): c for c in range(128)},
])
def test_json_writer_on_escapes_and_empty_containers(payload):
    assert cli._json_text(payload) == _reference_json_text(payload)


@pytest.mark.parametrize("payload", [Fraction(1, 2), {"a": {1, 2}}, [object()], {(1, 2): 1}])
def test_json_writer_raises_type_error_like_json_dumps(payload):
    with pytest.raises(TypeError):
        _reference_json_text(payload)
    with pytest.raises(TypeError):
        cli._json_text(payload)


def _outputs(capsys, tmp_path, argv, out_name):
    """Exit code, stdout, stderr and the --out file's bytes of one command."""
    if out_name is None:
        return run_cli(capsys, *argv)
    out = tmp_path / out_name
    return (*run_cli(capsys, *argv, "--out", str(out)), out.read_bytes())


def _json_commands(tmp_path, capsys):
    """(argv, --out file name or None) of a command of each kind that
    writes JSON, on instances generated into `tmp_path`."""
    unit = str(tmp_path / "unit.jsonl")
    rational = str(tmp_path / "rational.jsonl")
    run_cli(capsys, "generate", "random", "--n", "300", "--k-target", "3", "--seed", "4",
            "--out", unit)
    run_cli(capsys, "generate", "random", "--n", "60", "--k-target", "3",
            "--weight-mode", "rational", "--seed", "4", "--out", rational)
    return [
        (("run", "greedy-subsume", unit), "run.json"),
        (("run", "call-control", rational), "run.json"),
        (("run", "rand-memoryless:p=1/3", unit, "--seed", "2"), "run.json"),
        (("verify", unit), "verify.json"),
        (("duel", "greedy-subsume", "--k", "3"), "duel.json"),
        (("duel", "rand-memoryless:p=1/2", "--k", "2", "--copies", "4", "--seed", "1"),
         "duel.json"),
        (("bench", "call-control", rational, "--trials", "50", "--seed", "3"), "bench.csv"),
        (("bench", "arb:greedy-disjoint", unit, "--trials", "20", "--seed", "3"), None),
    ]


def test_every_command_writes_the_bytes_json_dumps_writes(tmp_path, capsys, monkeypatch):
    for argv, out_name in _json_commands(tmp_path, capsys):
        got = _outputs(capsys, tmp_path, argv, out_name)
        with monkeypatch.context() as m:
            m.setattr(cli, "_json_text", _reference_json_text)
            expected = _outputs(capsys, tmp_path, argv, out_name)
        assert got == expected, argv
        assert got[0] == EXIT_OK, argv


@pytest.mark.skipif(not _engine.COMPILED, reason="compiled engine not built")
def test_the_kernel_writes_every_command_payload_itself(tmp_path, capsys, monkeypatch):
    """No payload of those commands falls back to json.dumps, which the
    kernel writer leaves the types it declines."""
    commands = _json_commands(tmp_path, capsys)
    fallbacks = []

    def dumps(obj, **kwargs):
        fallbacks.append(argv)
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(_engine, "json", SimpleNamespace(dumps=dumps))
    for argv, out_name in commands:
        assert _outputs(capsys, tmp_path, argv, out_name)[0] == EXIT_OK, argv
    assert fallbacks == []


@pytest.mark.parametrize("p, message", [
    ("1/0", "zero denominator"),
    # One 64-bit draw cannot fall below a larger denominator: these used to
    # reject draws forever.
    (f"1/{2**64 + 1}", "above 2**64"),
    ("1e-30", "above 2**64"),
])
def test_memoryless_p_without_exact_draws_is_usage_error(tmp_path, capsys, p, message):
    inst = str(tmp_path / "two.jsonl")
    run_cli(capsys, "generate", "two-length", "--K", "3", "--out", inst)
    policy = f"rand-memoryless:p={p}"
    for argv in (("run", policy, inst, "--seed", "1"),
                 ("duel", policy, "--k", "2", "--seed", "1"),
                 ("bench", policy, inst, "--trials", "3", "--seed", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == "", argv
        assert err.startswith("error: ") and message in err, argv
        assert "Traceback" not in err


def test_memoryless_p_over_exactly_two_to_the_64_still_runs(tmp_path, capsys):
    inst = str(tmp_path / "unit.jsonl")
    run_cli(capsys, "generate", "random", "--n", "6", "--k-target", "2", "--seed", "1",
            "--out", inst)
    for p in (f"1/{2**64}", f"{2**64 - 1}/{2**64}"):
        policy = f"rand-memoryless:p={p}"
        code, out, _ = run_cli(capsys, "run", policy, inst, "--seed", "1")
        assert code == EXIT_OK and json.loads(out)["policy"] == policy
        code, _, _ = run_cli(capsys, "bench", policy, inst, "--trials", "3", "--seed", "1")
        assert code == EXIT_OK


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    """A generator that runs out of memory (as `--k-target 1000000000000`
    does under a small address-space limit) ends in one error line."""

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(adversary, "gen_random_instance", exhausted)
    code, out, err = run_cli(
        capsys, "generate", "random", "--n", "5", "--k-target", str(10**12), "--seed", "1",
        "--out", str(tmp_path / "k.jsonl"),
    )
    assert (code, out, err) == (EXIT_USAGE, "", "error: out of memory\n")


def test_k_target_past_the_length_pool_is_one_error_line(tmp_path, capsys):
    """A k_target whose pool of 3 * k_target lengths no list can hold is
    refused before anything is drawn, where it used to end in an
    OverflowError traceback."""
    out_path = tmp_path / "k.jsonl"
    for k in (10**30, sys.maxsize // 3 + 1):
        code, out, err = run_cli(
            capsys, "generate", "random", "--n", "5", "--k-target", str(k), "--seed", "1",
            "--out", str(out_path),
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: k_target must be <= {sys.maxsize // 3}\n"
        assert not out_path.exists()


def test_deeply_nested_threshold_table_is_usage_error(tmp_path, capsys):
    inst = str(tmp_path / "wide.jsonl")
    run_cli(
        capsys, "generate", "random-order-bad-wide",
        "--alpha", "3", "--gamma", "6", "--m", "4", "--L", "10", "--out", inst,
    )
    table = tmp_path / "deep.json"
    table.write_text("[" * 10**5)
    for argv in (("run", f"threshold:{table}", inst),
                 ("bench", f"threshold:{table}", inst, "--trials", "3", "--seed", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == "", argv
        assert err.startswith("error: threshold tables are nested too deeply"), argv
        assert "Traceback" not in err


def _floor_python():
    """(executable, environment) that run the python3.10 on PATH, or None.
    A pyenv shim runs only a selected version; when 3.10 is installed but
    not selected, `pyenv whence` names it for PYENV_VERSION."""
    exe = shutil.which("python3.10")
    if exe is None:
        return None

    def runs(env):
        probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"], env=env,
                               capture_output=True, text=True, timeout=60)
        return probe.stdout.strip() == "(3, 10)"

    env = dict(os.environ)
    if runs(env):
        return exe, env
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        named = subprocess.run([pyenv, "whence", "python3.10"], capture_output=True, text=True,
                               timeout=60).stdout.split()
        if named:
            env["PYENV_VERSION"] = named[0]
            if runs(env):
                return exe, env
    return None


def test_python_floor_writes_the_same_bytes(tmp_path):
    """The oldest Python that requires-python admits (3.10, where slotted
    dataclasses begin) writes the same instance, run and ledger bytes as
    this interpreter, on the pure-Python backend so nothing is built."""
    floor = _floor_python()
    if floor is None:
        pytest.skip("no python3.10 on PATH")
    src = str(Path(cli.__file__).parents[1])
    instance = tmp_path / "rational.jsonl"
    commands = [
        ["generate", "random", "--n", "60", "--k-target", "3", "--weight-mode", "rational",
         "--seed", "4", "--out", str(instance)],
        ["run", "call-control", str(instance)],
        ["verify", str(instance)],
    ]
    for argv in commands:
        written = []
        for exe, env in ((sys.executable, dict(os.environ)), floor):
            env = dict(env, REVSEL_PURE_PYTHON="1", PYTHONDONTWRITEBYTECODE="1")
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run([exe, "-m", "revsel.cli", *argv], env=env, capture_output=True,
                                  check=True, timeout=120)
            written.append((done.stdout, instance.read_bytes()))
        assert written[0] == written[1], argv


def _decoded_file(tmp_path, mode):
    """A 2,000-arrival instance file. In mode "tagged" (unit weights), one
    line of its last chunk holds a list, so that chunk is decoded line by
    line; every other chunk, in every mode, is decoded in one call."""
    path = tmp_path / f"{mode}.jsonl"
    write_jsonl(adversary.gen_random_instance(2000, 3, "unit" if mode == "tagged" else mode, 1),
                path)
    lines = path.read_text().splitlines()
    if mode == "tagged":
        lines[1990] = lines[1990][:-1] + ', "tags": [1, 2]}'
        path.write_text("\n".join(lines) + "\n")
    chunks = [lines[lo:lo + _CHUNK_LINES] for lo in range(0, len(lines), _CHUNK_LINES)]
    assert [_decode_chunk(c) is None for c in chunks] == [False] * 7 + [mode == "tagged"]
    return str(path)


def _count_intervals(monkeypatch):
    """The ids of the Intervals constructed from now on, one per construction."""
    built = []
    check = Interval.__post_init__

    def counting(self):
        built.append(self.id)
        check(self)

    monkeypatch.setattr(Interval, "__post_init__", counting)
    return built


@pytest.mark.skipif(not _engine.COMPILED, reason="run_policy plays the run over Intervals")
@pytest.mark.parametrize("mode", ["unit", "rational", "tagged"])
def test_run_on_a_decoded_file_builds_no_interval(tmp_path, capsys, monkeypatch, mode):
    path = _decoded_file(tmp_path, mode)
    built = _count_intervals(monkeypatch)
    assert main(["run", "greedy-subsume", path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["transcript"]
    assert built == []


def test_verify_on_a_decoded_file_builds_each_interval_once(tmp_path, capsys, monkeypatch):
    path = _decoded_file(tmp_path, "unit")
    built = _count_intervals(monkeypatch)
    assert main(["verify", path]) == EXIT_OK
    assert "pass" in capsys.readouterr().out.splitlines()[-1]
    assert built == list(range(2000))
