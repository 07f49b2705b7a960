"""CLI behavior: flows, exit codes, reproducibility."""

import json

from revsel.cli import EXIT_OK, EXIT_USAGE, main


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


def test_generate_all_generators(tmp_path, capsys):
    cases = [
        ("two-length", ["--K", "5"]),
        ("chain", ["--count", "5", "--L", "6", "--v", "2"]),
        ("call-control-bad", ["--k", "3"]),
        ("greedy-bad", ["--k", "2"]),
        ("random-order-bad", ["--alpha", "3", "--beta", "4", "--m", "20", "--L", "10"]),
        ("random-order-bad-wide", ["--alpha", "3", "--gamma", "6", "--m", "20", "--L", "10"]),
        ("random", ["--n", "12", "--k-target", "3", "--seed", "5"]),
    ]
    for name, flags in cases:
        out_path = str(tmp_path / f"{name}.jsonl")
        code, out, _ = run_cli(capsys, "generate", name, "--out", out_path, *flags)
        assert code == EXIT_OK, name
        assert out_path in out


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


def test_bench_backends_command(capsys):
    code, out, _ = run_cli(capsys, "bench-backends", "--trials", "100", "--seed", "1")
    assert code == EXIT_OK
    assert "pure-python" in out


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
