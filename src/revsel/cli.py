"""Command-line front door.

Subcommands: generate nemesis or random instances, run a policy over an
instance file, duel a policy against the adaptive adversary, benchmark under
random-order trials, verify the charge accounting of a greedy-subsume run,
and compare the compiled engine against the pure-Python paths.

Every command is deterministic given its flags; wherever randomness is
consumed a --seed is mandatory. Exit codes: 0 success, 1 usage error,
2 infeasible policy action, 3 bound violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import _engine, adversary
from .algorithms import ArbPolicy, make_policy
from .core import (
    _loads_chunks,
    dumps_jsonl,
    instance_stats,
    loads_jsonl,
    read_jsonl,
    write_jsonl,
)
from .harness import (
    InfeasibleActionError,
    _trials,
    format_value,
    run_adversarial,
    run_arb_expectation,
    run_file_order,
    run_policy,
    run_random_order,
)
from .oracle import ChargeBoundViolation, opt_unweighted, verify_charging

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BOUND = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit_Usage(message)


class SystemExit_Usage(Exception):
    pass


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, the text of every JSON
    output; the engine's kernel writes it in one pass when one is loaded and
    the payload holds only the types it writes."""
    return _engine.dumps_json(obj)


def _emit(payload: dict, out: str | None) -> None:
    text = _json_text(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    print(text)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


# Generator name -> (adversary function's name, the flags it requires in
# argument order). `random`'s weight_mode always has a value (its default is
# "unit"). Functions are named, not bound, so that a wrapper installed on the
# adversary module (perfbench's --trace 1) sees every call.
_GENERATORS = {
    "two-length": ("gen_two_length", ["K"]),
    "chain": ("gen_chain", ["count", "L", "v"]),
    "greedy-tight": ("gen_greedy_tight", []),
    "call-control-bad": ("gen_call_control_bad", ["k"]),
    "greedy-bad": ("gen_greedy_bad", ["k"]),
    "random-order-bad": ("gen_random_order_bad", ["alpha", "beta", "m", "L"]),
    "random-order-bad-wide": ("gen_random_order_bad_wide", ["alpha", "gamma", "m", "L"]),
    "fork-pair": ("gen_fork_pair", []),
    "random": ("gen_random_instance", ["n", "k_target", "weight_mode", "seed"]),
}


def _build_generate(sub):
    p = sub.add_parser("generate", help="write a nemesis or random instance as JSONL")
    p.set_defaults(handler=_cmd_generate)
    p.add_argument("generator", help=" | ".join(_GENERATORS))
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--K", type=int, help="two-length: number of unit intervals")
    p.add_argument("--count", type=int, help="chain: number of intervals")
    p.add_argument("--L", type=int, help="interval length")
    p.add_argument("--v", type=int, help="chain overlap")
    p.add_argument("--k", type=int, help="number of length levels")
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--gamma", type=int)
    p.add_argument("--m", type=int, help="number of identical copies")
    p.add_argument("--n", type=int, help="random: instance size")
    p.add_argument("--k-target", type=int, dest="k_target", help="random: max distinct lengths")
    p.add_argument("--weight-mode", default="unit", choices=adversary.WEIGHT_MODES)
    p.add_argument("--seed", type=int, help="random: mandatory seed")


def _require(args, names: list[str]) -> list:
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise SystemExit_Usage(f"generator requires --{name.replace('_', '-')}")
        values.append(value)
    return values


def _cmd_generate(args) -> int:
    if args.generator not in _GENERATORS:
        raise SystemExit_Usage(f"unknown generator {args.generator!r}")
    function, flags = _GENERATORS[args.generator]
    made = getattr(adversary, function)(*_require(args, flags))
    if args.generator == "fork-pair":  # two sequences (and their lottery)
        stem = args.out[:-6] if args.out.endswith(".jsonl") else args.out
        outputs = [(f"{stem}.s1.jsonl", made[0]), (f"{stem}.s2.jsonl", made[1])]
    else:
        outputs = [(args.out, made)]
    for path, seq in outputs:
        write_jsonl(seq, path)
        stats = instance_stats(seq)
        print(f"{path}: n={len(seq)} k={stats.k} d={stats.d} n_points={stats.grid_points}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run / duel / bench / verify / bench-backends
# ---------------------------------------------------------------------------


def _read_instance(path: str):
    seq = read_jsonl(path)
    if len(seq) == 0:
        raise SystemExit_Usage("empty instance")
    return seq


def _build_run(sub):
    p = sub.add_parser("run", help="run a policy over an instance in file order")
    p.set_defaults(handler=_cmd_run)
    p.add_argument("policy")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, help="mandatory for randomized policies")
    p.add_argument("--out", help="write the run result JSON here as well")


def _cmd_run(args) -> int:
    policy = make_policy(args.policy)
    if not policy.deterministic and args.seed is None:
        raise SystemExit_Usage(f"policy {policy.name} consumes randomness: --seed is required")
    seq = _read_instance(args.instance)
    result = run_adversarial(policy, seq, seed=args.seed)
    _emit(result.to_json_dict(), args.out)
    return EXIT_OK


def _build_duel(sub):
    p = sub.add_parser("duel", help="play the adaptive adversary against a policy")
    p.set_defaults(handler=_cmd_duel)
    p.add_argument("policy")
    p.add_argument("--k", type=int, required=True, help="number of length levels")
    p.add_argument("--copies", type=int, default=1,
                   help="identical re-emissions per chain step (randomized policies)")
    p.add_argument("--seed", type=int, help="mandatory for randomized policies")
    p.add_argument("--out", help="write the transcript JSON here as well")


def _cmd_duel(args) -> int:
    policy = make_policy(args.policy)
    transcript = adversary.adaptive_lower_bound_driver(
        args.k, policy, copies=args.copies, seed=args.seed
    )
    bound = Fraction(2 * args.k)
    ok = transcript.ratio_at_least(bound)
    payload = transcript.to_json_dict()
    payload["ratio"] = format_value(transcript.ratio)
    payload["bound"] = format_value(bound)
    payload["bound_met"] = ok
    _emit(payload, args.out)
    print(f"ratio {format_value(transcript.ratio)} vs bound {2 * args.k}: "
          f"{'met' if ok else 'NOT met'}")
    return EXIT_OK if ok else EXIT_BOUND


def _build_bench(sub):
    p = sub.add_parser("bench", help="seeded random-order or classify trials, CSV out")
    p.set_defaults(handler=_cmd_bench)
    p.add_argument("policy")
    p.add_argument("instance")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility (must be >= 1); it changes nothing, "
                        "since every built-in policy's trials run in one process")
    p.add_argument("--out", help="CSV path (defaults to stdout)")


class _OpenOnWrite:
    """`bench`'s CSV sink: the --out file, opened at the first write, or
    stdout without one. The harness first writes once a chunk of trials has
    run, so a run that fails before that writes nothing. The file is written
    in place: a temporary file renamed over the path would replace a device
    node such as /dev/null."""

    def __init__(self, path: str | None):
        self.path = path
        self.fh = None

    def write(self, text: str) -> None:
        if self.fh is None:
            self.fh = open(self.path, "w", encoding="utf-8") if self.path else sys.stdout
        self.fh.write(text)

    def close(self) -> None:
        if self.fh is not None and self.path:
            self.fh.close()


def _cmd_bench(args) -> int:
    if args.jobs < 1:
        raise SystemExit_Usage("--jobs must be >= 1")
    policy = make_policy(args.policy)
    seq = _read_instance(args.instance)
    sink = _OpenOnWrite(args.out)
    try:
        if isinstance(policy, ArbPolicy):
            arb = run_arb_expectation(policy, seq, args.trials, args.seed, out=sink)
            stats = arb.stats
        else:
            arb = None
            stats = run_random_order(policy, seq, args.trials, args.seed, out=sink)
    finally:
        sink.close()
    summary = {
        "policy": policy.name,
        "trials": args.trials,
        "seed": args.seed,
        "mean_alg": format_value(stats.mean_alg),
        "opt": format_value(stats.opt_value),
    }
    if arb is not None:
        summary["length_choices"] = {str(l): c for l, c in sorted(arb.length_choices.items())}
    else:
        summary["fraction_ratio_ge_2"] = str(stats.fraction_with_ratio_at_least(Fraction(2)))
    print(_json_text(summary), file=sys.stderr)
    return EXIT_OK


def _build_verify(sub):
    p = sub.add_parser("verify", help="replay greedy-subsume and audit the charge mapping")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("instance")
    p.add_argument("--out", help="write the ledger JSON here as well")


def _cmd_verify(args) -> int:
    seq = _read_instance(args.instance)
    k = len(seq.lengths())
    _, transcript = run_file_order(make_policy("greedy-subsume"), seq)
    opt = opt_unweighted(seq)
    try:
        ledger = verify_charging(seq, transcript, opt, k)
    except ChargeBoundViolation as exc:
        counterexample = (args.out or args.instance) + ".counterexample.jsonl"
        write_jsonl(seq, counterexample)
        payload = exc.ledger.to_json_dict()
        payload["violation"] = str(exc)
        payload["counterexample"] = counterexample
        _emit(payload, args.out)
        print(f"FAIL: {exc}")
        return EXIT_BOUND
    _emit(ledger.to_json_dict(), args.out)
    print(f"max charge {ledger.max_total} <= 2k = {2 * k}: pass")
    return EXIT_OK


def _build_bench_backends(sub):
    p = sub.add_parser("bench-backends",
                       help="time the compiled kernels against the pure-Python paths "
                            "(policy replay, subset search, JSON writer and instance "
                            "file reader) and diff their outputs")
    p.set_defaults(handler=_cmd_bench_backends)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)


def _cmd_bench_backends(args) -> int:
    if args.trials < 1:
        raise SystemExit_Usage("--trials must be >= 1")

    def trial_case(pid, seq):
        # Pure-Python trials replay the policy; both backends give each
        # trial's ALG as an integer over the weights' scale.
        policy = make_policy(pid)
        cols = seq.columns
        label = f"trials {pid}" + ("" if seq.is_unweighted() else " weighted")
        return (
            label, args.trials, 1,
            lambda: _trials(policy, seq, args.seed, args.trials),
            lambda: _engine.run_single_length_trials(
                cols.starts, cols.ends, policy.kernel_spec(), args.trials, args.seed, cols.weights,
            ),
        )

    def file_order_case(pid, seq):
        # One run in file order: run_policy against the kernel's run, which
        # run_file_order asks for first. Equal transcripts give equal rows.
        policy = make_policy(pid)
        return (
            f"file-order {pid}", 10, 10,
            lambda: run_policy(policy, seq)[1],
            lambda: run_file_order(policy, seq)[1],
        )

    # Always-replace on a copy-flooded single-length instance, call-control
    # on a multi-length unit one and on a rational one, and the memoryless
    # policy's draws on a multi-length unit one.
    multi = adversary.gen_random_instance(100, 3, "unit", args.seed)
    brute = adversary.gen_random_instance(15, 4, "int", args.seed).columns
    columns = [list(brute.starts), list(brute.ends), list(brute.weights)]
    # File-order runs; the indent-2 JSON writer on a `run greedy-subsume`
    # payload, json.dumps against the kernel's one-pass writer; and the
    # reader on the instance's file, the chunk loop against the kernel's
    # reader, diffed by the columns they read.
    seq = adversary.gen_random_instance(2000, 3, "unit", args.seed)
    payload = run_adversarial(make_policy("greedy-subsume"), seq).to_json_dict()
    text = dumps_jsonl(seq)
    # (label, ops, repeats, pure-python call, compiled call); each backend's
    # output of its last repeat is diffed.
    cases = [
        trial_case("always-replace", adversary.gen_random_order_bad(3, 4, 100, 10)),
        trial_case("call-control", multi),
        trial_case("call-control", adversary.gen_random_instance(100, 3, "rational", args.seed)),
        trial_case("rand-memoryless:p=1/3", multi),
        file_order_case("greedy-subsume", seq),
        file_order_case("always-replace", seq),
        ("subset-search", 50, 50, lambda: _engine.fallback.best_subset_scaled(*columns),
         lambda: _engine._impl.best_subset_scaled(*columns)),
        ("json-writer", 5, 5, lambda: json.dumps(payload, indent=2, sort_keys=True),
         lambda: _engine.dumps_json(payload)),
        ("jsonl-reader", 20, 20, lambda: _loads_chunks(text).columns,
         lambda: loads_jsonl(text).columns),
    ]

    backends = ["pure-python", "compiled"] if _engine.COMPILED else ["pure-python"]
    print(f"{'backend':<14}{'kernel':<32}{'seconds':>10}{'ops/s':>14}")
    same = True
    for label, ops, repeats, *calls in cases:
        outputs = []
        for name, call in zip(backends, calls):
            t0 = time.perf_counter()
            for _ in range(repeats):
                out = call()
            dt = time.perf_counter() - t0
            print(f"{name:<14}{label:<32}{dt:>10.4f}{ops / dt:>14.1f}")
            outputs.append(out)
        same = same and outputs[0] == outputs[-1]
    if not _engine.COMPILED:
        print("compiled engine not available; ran pure-python only")
        return EXIT_OK
    print(f"outputs identical across backends: {same}")
    return EXIT_OK if same else EXIT_BOUND


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _Parser(prog="revsel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _build_generate(sub)
    _build_run(sub)
    _build_duel(sub)
    _build_bench(sub)
    _build_verify(sub)
    _build_bench_backends(sub)

    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (SystemExit_Usage, ValueError, OSError) as exc:
        # GeneratorParameterError, EmptyInstanceError and PolicyDomainError
        # are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleActionError as exc:
        print(f"infeasible action: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except adversary.DriverError as exc:
        print(f"driver error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
