"""CLI behavior: flows, exit codes, reproducibility."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revsel import _engine, adversary, cli
from revsel.algorithms import Action, Policy
from revsel.cli import EXIT_BOUND, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
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
                  "subset-search", "json-writer"):
        assert label in out
    if _engine.COMPILED:
        assert out.splitlines()[-1] == "outputs identical across backends: True"


def test_bench_backends_exits_3_when_the_backends_differ(capsys, monkeypatch):
    from revsel._engine import fallback

    search = fallback.best_subset_scaled
    monkeypatch.setattr(fallback, "best_subset_scaled", lambda *columns: (search(*columns), 1))
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
    return json.dumps(obj, indent=2, sort_keys=True)


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**80, 2**80),
    st.floats(),
    st.text(),
    st.text(st.characters(max_codepoint=0x3f)),  # control characters and quotes
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
])
def test_json_writer_matches_json_dumps_on_edge_values(payload):
    assert cli._json_text(payload) == _reference_json_text(payload)


# Text that the writer must copy verbatim: the characters it re-spaces
# outside strings, quotes, and backslashes (escaped in the encoder's text).
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


def test_every_command_writes_the_bytes_json_dumps_writes(tmp_path, capsys, monkeypatch):
    unit = str(tmp_path / "unit.jsonl")
    rational = str(tmp_path / "rational.jsonl")
    run_cli(capsys, "generate", "random", "--n", "300", "--k-target", "3", "--seed", "4",
            "--out", unit)
    run_cli(capsys, "generate", "random", "--n", "60", "--k-target", "3",
            "--weight-mode", "rational", "--seed", "4", "--out", rational)
    commands = [
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
    for argv, out_name in commands:
        got = _outputs(capsys, tmp_path, argv, out_name)
        with monkeypatch.context() as m:
            m.setattr(cli, "_json_text", _reference_json_text)
            expected = _outputs(capsys, tmp_path, argv, out_name)
        assert got == expected, argv
        assert got[0] == EXIT_OK, argv


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
