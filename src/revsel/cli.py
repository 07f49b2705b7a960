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
    EmptyInstanceError,
    instance_stats,
    read_jsonl,
    write_jsonl,
)
from .harness import (
    InfeasibleActionError,
    format_value,
    run_adversarial,
    run_arb_expectation,
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
    output; the engine's kernel writes it when one is loaded."""
    return _engine.dumps_json(obj)


def _emit(payload: dict, out: str | None) -> None:
    text = _json_text(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _build_generate(sub):
    p = sub.add_parser("generate", help="write a nemesis or random instance as JSONL")
    p.add_argument("generator", help="two-length | chain | greedy-tight | call-control-bad | "
                                     "greedy-bad | random-order-bad | random-order-bad-wide | "
                                     "fork-pair | random")
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
    gen = args.generator
    if gen == "two-length":
        (K,) = _require(args, ["K"])
        seq = adversary.gen_two_length(K)
    elif gen == "chain":
        count, L, v = _require(args, ["count", "L", "v"])
        seq = adversary.gen_chain(count, L, v)
    elif gen == "greedy-tight":
        seq = adversary.gen_greedy_tight()
    elif gen == "call-control-bad":
        (k,) = _require(args, ["k"])
        seq = adversary.gen_call_control_bad(k)
    elif gen == "greedy-bad":
        (k,) = _require(args, ["k"])
        seq = adversary.gen_greedy_bad(k)
    elif gen == "random-order-bad":
        alpha, beta, m, L = _require(args, ["alpha", "beta", "m", "L"])
        seq = adversary.gen_random_order_bad(alpha, beta, m, L)
    elif gen == "random-order-bad-wide":
        alpha, gamma, m, L = _require(args, ["alpha", "gamma", "m", "L"])
        seq = adversary.gen_random_order_bad_wide(alpha, gamma, m, L)
    elif gen == "fork-pair":
        s1, s2, _probs = adversary.gen_fork_pair()
        base = args.out
        stem = base[:-6] if base.endswith(".jsonl") else base
        for name, seq_i in (("s1", s1), ("s2", s2)):
            path = f"{stem}.{name}.jsonl"
            write_jsonl(seq_i, path)
            stats = instance_stats(seq_i)
            print(f"{path}: n={len(seq_i)} k={stats.k} d={stats.d} n_points={stats.grid_points}")
        return EXIT_OK
    elif gen == "random":
        n, k_target, seed = _require(args, ["n", "k_target", "seed"])
        seq = adversary.gen_random_instance(n, k_target, args.weight_mode, seed)
    else:
        raise SystemExit_Usage(f"unknown generator {gen!r}")
    write_jsonl(seq, args.out)
    stats = instance_stats(seq)
    print(f"{args.out}: n={len(seq)} k={stats.k} d={stats.d} n_points={stats.grid_points}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run / duel / bench / verify / bench-backends
# ---------------------------------------------------------------------------


def _build_run(sub):
    p = sub.add_parser("run", help="run a policy over an instance in file order")
    p.add_argument("policy")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, help="mandatory for randomized policies")
    p.add_argument("--out", help="write the run result JSON here as well")


def _cmd_run(args) -> int:
    policy = make_policy(args.policy)
    if not policy.deterministic and args.seed is None:
        raise SystemExit_Usage(f"policy {policy.name} consumes randomness: --seed is required")
    seq = read_jsonl(args.instance)
    if len(seq) == 0:
        raise SystemExit_Usage("empty instance")
    result = run_adversarial(policy, seq, seed=args.seed)
    _emit(result.to_json_dict(), args.out)
    return EXIT_OK


def _build_duel(sub):
    p = sub.add_parser("duel", help="play the adaptive adversary against a policy")
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
    seq = read_jsonl(args.instance)
    if len(seq) == 0:
        raise SystemExit_Usage("empty instance")
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
    p.add_argument("instance")
    p.add_argument("--out", help="write the ledger JSON here as well")


def _cmd_verify(args) -> int:
    seq = read_jsonl(args.instance)
    if len(seq) == 0:
        raise SystemExit_Usage("empty instance")
    k = len(seq.lengths())
    _state, transcript = run_policy(make_policy("greedy-subsume"), seq)
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
                            "(policy replay, subset search and JSON writer) and diff "
                            "their outputs")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)


def _cmd_bench_backends(args) -> int:
    from ._engine import fallback
    from .harness import _trials

    if args.trials < 1:
        raise SystemExit_Usage("--trials must be >= 1")

    # Always-replace on a copy-flooded single-length instance, call-control
    # on a multi-length unit one and on a rational one, and the memoryless
    # policy's draws on a multi-length unit one.
    multi = adversary.gen_random_instance(100, 3, "unit", args.seed)
    trial_cases = [
        ("always-replace", adversary.gen_random_order_bad(3, 4, 100, 10)),
        ("call-control", multi),
        ("call-control", adversary.gen_random_instance(100, 3, "rational", args.seed)),
        ("rand-memoryless:p=1/3", multi),
    ]

    # Pure-Python trials replay the policy; the compiled kernel's raw sums
    # are compared as exact ALG values.
    rows = []
    results = {}
    for pid, seq in trial_cases:
        policy = make_policy(pid)
        scale, weight_of = seq.integer_weights()
        label = f"trials {pid}" + ("" if seq.is_unweighted() else " weighted")
        t0 = time.perf_counter()
        results.setdefault("pure-python", []).append(_trials(policy, seq, args.seed, args.trials))
        rows.append(("pure-python", label, time.perf_counter() - t0, args.trials))
        if _engine.COMPILED:
            t0 = time.perf_counter()
            raw = _engine.run_single_length_trials(
                [iv.start for iv in seq], [iv.end for iv in seq], policy.kernel_spec(),
                args.trials, args.seed, list(weight_of.values()),
            )
            rows.append(("compiled", label, time.perf_counter() - t0, args.trials))
            results.setdefault("compiled", []).append([Fraction(r, scale) for r in raw])

    impls = [("pure-python", fallback)]
    if _engine.COMPILED:
        impls.append(("compiled", _engine._impl))

    brute = adversary.gen_random_instance(15, 4, "int", args.seed)
    bs = [iv.start for iv in brute]
    be = [iv.end for iv in brute]
    bw = [int(iv.weight) for iv in brute]
    brute_results = {}
    for name, impl in impls:
        t0 = time.perf_counter()
        reps = 50
        for _ in range(reps):
            out = impl.best_subset_scaled(bs, be, bw)
        brute_results[name] = out
        rows.append((name, "subset-search", time.perf_counter() - t0, reps))

    # The indent-2 JSON writer on a `run greedy-subsume` payload: json.dumps
    # against the kernel's re-spacing of the C encoder's compact text.
    seq = adversary.gen_random_instance(2000, 3, "unit", args.seed)
    payload = run_adversarial(make_policy("greedy-subsume"), seq).to_json_dict()
    writers = [("pure-python", lambda: json.dumps(payload, indent=2, sort_keys=True))]
    if _engine.COMPILED:
        writers.append(("compiled", lambda: _engine.dumps_json(payload)))
    texts = {}
    for name, write in writers:
        t0 = time.perf_counter()
        reps = 5
        for _ in range(reps):
            texts[name] = write()
        rows.append((name, "json-writer", time.perf_counter() - t0, reps))

    print(f"{'backend':<14}{'kernel':<32}{'seconds':>10}{'ops/s':>14}")
    for name, op, dt, ops in rows:
        print(f"{name:<14}{op:<32}{dt:>10.4f}{ops / dt:>14.1f}")
    if _engine.COMPILED:
        same = (
            results["compiled"] == results["pure-python"]
            and brute_results["compiled"] == brute_results["pure-python"]
            and texts["compiled"] == texts["pure-python"]
        )
        print(f"outputs identical across backends: {same}")
        if not same:
            return EXIT_BOUND
    else:
        print("compiled engine not available; ran pure-python only")
    return EXIT_OK


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
        handler = {
            "generate": _cmd_generate,
            "run": _cmd_run,
            "duel": _cmd_duel,
            "bench": _cmd_bench,
            "verify": _cmd_verify,
            "bench-backends": _cmd_bench_backends,
        }[args.command]
        return handler(args)
    except SystemExit_Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (adversary.GeneratorParameterError, EmptyInstanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleActionError as exc:
        print(f"infeasible action: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except adversary.DriverError as exc:
        print(f"driver error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
