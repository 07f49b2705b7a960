"""The three workloads: the inputs each one prepares and the ops it replays.

A workload is a script of ops replayed as a closed loop by one client: each
op starts only after the previous one has returned. An op is either a CLI
command issued in-process through ``revsel.cli.main(argv)`` or a
library-level oracle cross-check. Every input is derived from the workload
seed; the program only ever sees the generated files and argv.

``prepare`` runs during set-up: it writes the input files that no timed
command generates and returns the script. Ops name their files relative to
the working directory, so outputs (which echo paths) are the same bytes in
every checkout.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("large-adversarial", "random-order-trials", "nemesis-sweep")

# Seed used while this benchmark was written, and a second one that a
# performance claim must also hold on, so that a gain is not tuned to one
# seed's inputs.
PRIMARY_SEED = 1
CONFIRM_SEED = 2

# ROADMAP's baseline for `run greedy-subsume` on `generate random --n 2000
# --k-target 3 --seed 1`, which is large-adversarial's unit file at seed 1.
ROADMAP_RUN_S = 1.43
ROADMAP_CONFLICTS = 1_274_527


@dataclass(frozen=True)
class Op:
    """One step of a workload script.

    kind: generate | run | verify | bench | duel (CLI commands) or oracle.
    argv: the CLI arguments; empty for oracle ops.
    outputs: files the command writes, hashed together with its output.
    meta: what the output checks need to know (instance file, expected
        sizes, trial count, ...).
    """

    kind: str
    argv: tuple = ()
    outputs: tuple = ()
    meta: dict = field(default_factory=dict, compare=False, hash=False)
    case: object = field(default=None, compare=False, hash=False)

    @property
    def label(self) -> str:
        if self.kind == "oracle":
            return f"oracle {self.meta['name']}"
        return " ".join(self.argv)

    @property
    def is_cli(self) -> bool:
        return self.kind != "oracle"


@dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` is what the benchmark measures, ``TINY`` what
    its self-test replays."""

    n_large: int
    kernel_trials: int
    memory_trials: int
    python_trials: int
    jobs_trials: int
    arb_trials: int
    multi_n: int
    duel_ks: tuple
    duel_copies: int
    oracle_ns: tuple


FULL = Size(
    n_large=2000,
    kernel_trials=1500,
    memory_trials=120_000,
    python_trials=150,
    jobs_trials=40,
    arb_trials=200,
    multi_n=100,
    duel_ks=(1, 2, 3, 4),
    duel_copies=32,
    oracle_ns=tuple(range(9, 17)) * 3,
)
TINY = Size(
    n_large=60,
    kernel_trials=40,
    memory_trials=400,
    python_trials=8,
    jobs_trials=4,
    arb_trials=8,
    multi_n=12,
    duel_ks=(1, 2),
    duel_copies=32,
    oracle_ns=(6, 8, 10),
)
SIZES = {"full": FULL, "tiny": TINY}

# Percentile reported as cmd_tail_ms, fixed per workload so that it names
# the same point of the latency distribution on every run and commit. Each
# leaves at least 10 command samples above it in a 35 s run at the parent
# commit: 9 commands x 3 passes, 8 x 4 to 9 passes and 77 x ~150 passes.
TAIL_PCT = {
    "large-adversarial": 62,
    "random-order-trials": 65,
    "nemesis-sweep": 99.5,
}

# Random instances are generated with this length set whatever the seed.
# `generate random` draws its k lengths from the seed, and the work of a run
# at n=2000 varies twofold with them (1.09M to 2.08M conflict probes for
# greedy-subsume over seeds 0-11); with the lengths fixed it varies by 2%.
# {4, 5, 7} is what seed 1 draws, so seed 1 keeps ROADMAP's instance.
LENGTHS = [4, 5, 7]


def instance_seed(seed: int) -> int:
    """The generator seed for a workload seed: the first of seed, seed +
    2**32, seed + 2 * 2**32, ... whose instances use LENGTHS. A sample of
    64 arrivals misses one of the three lengths with odds of about 1e-11."""
    from revsel.adversary import gen_random_instance

    candidate = seed
    while True:
        sample = gen_random_instance(64, len(LENGTHS), "unit", candidate)
        if sorted({iv.end - iv.start for iv in sample}) == LENGTHS:
            return candidate
        candidate += 1 << 32


def jobs_for_bench() -> int:
    """Worker count for the parallel bench: two, never more than the CPUs."""
    return min(2, os.cpu_count() or 1)


def prepare(workload: str, seed: int, gen_seed: int, size: Size) -> list[Op]:
    """Write the workload's set-up inputs into the current directory and
    return its script; gen_seed is ``instance_seed(seed)``, found once
    before the set-up is timed because the search costs up to half a
    second, depending on the seed."""
    return _PREPARE[workload](seed, gen_seed, size)


def inputs_digest(ops: list[Op]) -> str:
    """Digest of a script and of the input files in the current directory."""
    h = hashlib.sha256("\n".join(op.label for op in ops).encode())
    for path in sorted(Path(".").iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# large-adversarial: one long arrival order per run. PolicyState/apply_action,
# instance_stats and the charging audit are quadratic here while the _engine
# kernels sit idle, so a sorted held set (ROADMAP item 2) should show.
def _large_adversarial(seed: int, gen_seed: int, size: Size) -> list[Op]:
    n = str(size.n_large)
    files = {"unit": "unit.jsonl", "rational": "rational.jsonl"}
    ops = [
        Op("generate", ("generate", "random", "--n", n, "--k-target", "3",
                        "--weight-mode", mode, "--seed", str(gen_seed), "--out", path),
           (path,), {"n": size.n_large})
        for mode, path in files.items()
    ]
    for policy in ("greedy-subsume", "call-control", "always-replace"):
        for path in files.values():
            ops.append(Op("run", ("run", policy, path), meta={"instance": path}))
    ops.append(Op("verify", ("verify", files["unit"]), meta={"instance": files["unit"]}))
    return ops


# random-order-trials: many short runs. The trial kernel, permutations,
# per-trial Policy.fresh() and TrialStats/CSV dominate while the held set
# stays small, so ROADMAP items 3 and 4 should show and item 2 should not.
# One kernel bench on a four-arrival instance runs so many trials that the
# samples TrialStats keeps and the CSV text it builds (about 200 bytes a
# trial) make up about half of the process's peak RSS (the interpreter with
# revsel loaded is most of the rest), so constant-memory trials (item 4)
# show in peak_rss_mb.
def _random_order_trials(seed: int, gen_seed: int, size: Size) -> list[Op]:
    from revsel.adversary import gen_random_instance, gen_random_order_bad
    from revsel.core import write_jsonl

    # The copy-flooded instances (n=102 and n=4, one length) take the engine path;
    # the multi-length ones take the Python trial loop.
    write_jsonl(gen_random_order_bad(3, 4, 100, 10), "flood.jsonl")
    write_jsonl(gen_random_order_bad(3, 4, 2, 10), "flood4.jsonl")
    write_jsonl(gen_random_instance(size.multi_n, 3, "unit", gen_seed), "multi.jsonl")
    write_jsonl(gen_random_instance(size.multi_n, 3, "rational", gen_seed), "weighted.jsonl")
    s = str(seed)

    def bench(policy, instance, trials, out, *extra, **meta):
        return Op("bench", ("bench", policy, instance, "--trials", str(trials), "--seed", s,
                            *extra, "--out", out), (out,),
                  {"instance": instance, "trials": trials, **meta})

    ops = [bench(policy, "flood.jsonl", size.kernel_trials, f"{policy}.csv", kernel=True)
           for policy in ("never-replace", "always-replace", "one-dir-left")]
    ops.append(bench("one-dir-left", "flood4.jsonl", size.memory_trials, "memory.csv",
                     kernel=True))
    ops += [
        bench("greedy-subsume", "multi.jsonl", size.python_trials, "greedy.csv"),
        bench("arb:greedy-disjoint", "multi.jsonl", size.arb_trials, "arb.csv"),
        bench("arb:heavier-replace", "weighted.jsonl", size.arb_trials, "arb-weighted.csv"),
        # The first trials of the serial greedy-subsume bench on two workers:
        # the CSV must match that bench's first rows. Few trials, so that the
        # pool's fixed cost dominates; at 150 trials this op took 0.28 s or
        # 0.53 s (scaled) as the host's second CPU was free or not.
        bench("greedy-subsume", "multi.jsonl", size.jobs_trials, "greedy-jobs.csv",
              "--jobs", str(jobs_for_bench()), same_as="greedy.csv"),
    ]
    return ops


# nemesis-sweep: hundreds of tiny commands, so fixed per-command costs
# dominate (argparse, JSON output, JSONL I/O, the deepcopy in fresh()), plus
# the adaptive driver and the subset-search kernel. No quadratic layer
# matters: the "no change" control for ROADMAP items 2 and 4.
def _nemesis_sweep(seed: int, gen_seed: int, size: Size) -> list[Op]:
    from revsel.adversary import gen_random_instance

    # The seed moves the geometry; every instance size is fixed, so the
    # work is the same for every seed.
    rnd = random.Random(seed)
    L = rnd.randint(8, 14)
    alpha = rnd.randint(1, (L - 1) // 2)
    # The wide flankers need alpha + gamma < L with gamma > L/2.
    alpha_wide = rnd.randint(1, L - L // 2 - 2)
    gamma = rnd.randint(L // 2 + 1, L - alpha_wide - 1)
    generators = [
        ("two-length", ("--K", 8)),
        ("chain", ("--count", 8, "--L", L, "--v", rnd.randint(1, L - 1))),
        ("greedy-tight", ()),
        ("call-control-bad", ("--k", 3)),
        ("greedy-bad", ("--k", 3)),
        ("random-order-bad", ("--alpha", alpha, "--beta", rnd.randint(1, (L - 1) // 2),
                              "--m", 12, "--L", L)),
        ("random-order-bad-wide", ("--alpha", alpha_wide, "--gamma", gamma, "--m", 12, "--L", L)),
        ("fork-pair", ()),
    ]
    ops = []
    for name, params in generators:
        path = f"{name}.jsonl"
        instances = [f"{name}.s1.jsonl", f"{name}.s2.jsonl"] if name == "fork-pair" else [path]
        ops.append(Op("generate", ("generate", name, *map(str, params), "--out", path),
                      tuple(instances)))
        for inst in instances:
            for policy in ("greedy-subsume", "call-control", "always-replace", "never-replace"):
                ops.append(Op("run", ("run", policy, inst), meta={"instance": inst}))
            ops.append(Op("verify", ("verify", inst), meta={"instance": inst}))
    # The five deterministic policies of acceptance criterion 2.
    for policy in ("greedy-subsume", "always-replace", "never-replace", "call-control",
                   "one-dir-left"):
        for k in size.duel_ks:
            ops.append(Op("duel", ("duel", policy, "--k", str(k)),
                          meta={"k": k, "deterministic": True}))
    for k in size.duel_ks:
        ops.append(Op("duel", ("duel", "rand-memoryless:p=1/2", "--k", str(k), "--copies",
                               str(size.duel_copies), "--seed", str(seed)),
                      meta={"k": k, "deterministic": False}))
    # Subset search costs 2**n whatever the geometry, so n follows a fixed
    # schedule and the seed picks the intervals.
    for i, n in enumerate(size.oracle_ns):
        mode = ("unit", "int", "rational")[i % 3]
        case_seed = rnd.randrange(1 << 32)
        case = gen_random_instance(n, 1 + i % 4, mode, case_seed)
        ops.append(Op("oracle", meta={"name": f"{i} n={n} {mode} seed={case_seed}"}, case=case))
    return ops


_PREPARE = {
    "large-adversarial": _large_adversarial,
    "random-order-trials": _random_order_trials,
    "nemesis-sweep": _nemesis_sweep,
}
