#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Replays each workload at its tiny size: two set-ups in fresh
   interpreters, two untraced passes and one paired traced pass. Every op
   must pass its checks, match the digests pinned for the tiny script, and
   give the same digest traced and untraced. Every metric BENCHMARK.json
   names must be reported.
2. No command of any full-size workload asks for more --jobs than there
   are CPUs. Only the argv is inspected; no pool is started.
3. The output checks reject a corrupted run result and a corrupted trial
   CSV, and an output whose digest differs from its pin fails.
4. run.py exits non-zero, printing no result, in a copy of the benchmark
   that has no revsel sources next to it.
Exits 1 if any of these fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import pin
import run
import tracing
import workloads

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def tiny_workload(name: str) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    with run.workdir(f"selftest-{name}"):
        wr = run.WorkloadRun(name, pin.TINY_SEED, "tiny")
        expect(wr.pins is not None, f"{name}: no digests pinned for the tiny script")
        wr.setup(2)
        plain = [wr.run_pass(), wr.run_pass()]
        p, t = wr.run_paired_pass(tracing.Tracer(), 0)
        plain.append(p)
        metrics = {**wr.end_to_end(plain), **wr.per_layer(plain, [t])}
    expect(wr.attempted == 4 * len(wr.ops), f"{name}: {wr.attempted} ops attempted")
    expect(wr.failed == 0 and not wr.setup_errors, f"{name}: {wr.failures} {wr.setup_errors}")
    for entry in spec["end_to_end"] + spec["per_layer"]:
        expect(entry["name"] in metrics and metrics[entry["name"]][1] == entry["unit"],
               f"{name}: metric {entry['name']} missing or not in {entry['unit']}")
    print(f"ok {name}: {len(wr.ops)} ops x 4 runs, digests pinned and equal traced/untraced")


def jobs_within_cpus() -> None:
    cpus = os.cpu_count() or 1
    with run.workdir("selftest-jobs"):
        run.use_checkout_sources()
        for name in workloads.WORKLOADS:
            seed = workloads.PRIMARY_SEED
            for op in workloads.prepare(name, seed, workloads.instance_seed(seed),
                                        workloads.FULL):
                if "--jobs" in op.argv:
                    jobs = int(op.argv[op.argv.index("--jobs") + 1])
                    expect(1 <= jobs <= cpus, f"{op.label}: --jobs {jobs} with {cpus} CPUs")
    print(f"ok no command asks for more than {cpus} jobs")


def checks_catch_corruption() -> None:
    with run.workdir("selftest-corrupt"):
        wr = run.WorkloadRun("random-order-trials", pin.TINY_SEED, "tiny")
        wr.setup(0)
        bench = wr.ops[0]
        rc, out, err, *_ = wr._invoke(bench)
        expect(not checks.check(bench, rc, out, err)[0], "a correct bench output was rejected")
        csv_path = Path(bench.outputs[0])
        rows = csv_path.read_text().splitlines()
        trial, seed, alg, opt, ratio = rows[1].split(",")
        rows[1] = ",".join([trial, seed, opt, opt, "1/1"]) if alg != opt else ",".join(
            [trial, seed, "0/1", opt, "inf"])
        csv_path.write_text("\n".join(rows) + "\n")
        expect(bool(checks.check(bench, rc, out, err)[0]), "a corrupted trial CSV was accepted")
    with run.workdir("selftest-corrupt"):
        wr = run.WorkloadRun("large-adversarial", pin.TINY_SEED, "tiny")
        wr.setup(0)
        wr._invoke(wr.ops[0])
        op = next(o for o in wr.ops if o.kind == "run")
        rc, out, err, *_ = wr._invoke(op)
        result = json.loads(out)
        result["final_solution"] = result["final_solution"][:-1]
        expect(bool(checks.check(op, rc, json.dumps(result), err)[0]),
               "a run result missing a held interval was accepted")
    with run.workdir("selftest-corrupt"):
        wr = run.WorkloadRun("nemesis-sweep", pin.TINY_SEED, "tiny")
        wr.pins = {**wr.pins, "ops": ["0" * 16] + wr.pins["ops"][1:]}
        wr.setup(0)
        wr.run_pass()
        expect(list(wr.failures) == [wr.ops[0].label], "an output unlike its pinned digest passed")
    print("ok the checks reject corrupted outputs and unpinned bytes")


def fails_without_sources() -> None:
    with run.workdir("selftest-bare") as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "nemesis-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0, "run.py exited 0 without revsel sources")
    expect(not any(line.startswith("{") for line in proc.stdout.splitlines()),
           "run.py printed a result without revsel sources")
    print(f"ok without sources run.py exits {proc.returncode} and prints no result")


def main() -> int:
    if not run.use_checkout_sources():
        print(f"error: no revsel package under {run.SRC}", file=sys.stderr)
        return 2
    for name in workloads.WORKLOADS:
        tiny_workload(name)
    jobs_within_cpus()
    checks_catch_corruption()
    fails_without_sources()
    print("FAILED" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
