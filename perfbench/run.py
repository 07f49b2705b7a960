#!/usr/bin/env python3
"""Benchmark of revsel's CLI: three closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports revsel from ``src/`` and
needs nothing built. NAME is one of ``workloads.WORKLOADS``. One client
issues the workload's ops in order, each after the previous one returned,
all in this process through ``revsel.cli.main(argv)`` and revsel's public
functions; only ``bench --jobs`` starts workers, never more than the CPUs.

A run first sets up ``SETUP_REPEATS`` times, each in a fresh interpreter
and directory (the import of revsel with everything it imports, then the
inputs), and reports the median as ``setup_s``; it sets up once more in
this process for the passes. It then replays the whole script in passes
until the next pass would end after ``--seconds``, with at least
``MIN_PASSES`` passes, and reports each op's median over the passes;
``wall_s`` is the sum of those medians. Each end-to-end time is scaled to a reference host speed by ``probe.py``, which
keeps a shared machine's drift out of the figures; the report line also
gives each as measured, prefixed ``raw_``. Per-layer times are as measured.

With ``--trace 1`` every op runs twice in a row, untraced and traced (see
``tracing.py``), in alternating order. The run reports the per-layer
metrics of the traced runs, the tracing overhead (traced minus untraced
time of the same ops), and writes the spans of its last traced pass to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.

Every op's exit code, stdout, stderr and written files are hashed. An op
fails when its output breaks a check in ``checks.py``, when its digest
differs from the one pinned for this seed in ``digests.json``, or when it
differs between passes or between an op's traced and untraced runs (which
shows the wrappers change nothing). Failures are listed on stderr by command.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` lists for the mode. The
line before it, starting with ``report``, holds every metric with run
metadata. ``pin.py`` rewrites the digests; ``selftest.py`` tests all this.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import probe
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "digests.json"
SETUP_REPEATS = 15
# One timed set-up in a fresh interpreter: the clock starts before revsel or
# anything it needs is imported. Prints the seconds and the inputs' digest.
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = {paths!r}
import revsel.cli
import workloads
ops = workloads.prepare({workload!r}, {seed!r}, {gen_seed!r}, workloads.SIZES[{size!r}])
end = time.perf_counter()
print(end - start, workloads.inputs_digest(ops))
"""
MIN_PASSES = 3
DECISION_KINDS = ("run", "bench", "duel")
ACCOUNTED_LAYERS = ("algorithms", "harness", "oracle", "core")
LAYERS = ("cli", "core", "algorithms", "harness", "oracle", "engine", "rng", "adversary")

median = statistics.median


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of the values and its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], rank


class WorkloadRun:
    """One workload in this process: set-up, passes, checks and metrics."""

    def __init__(self, workload: str, seed: int, size_name: str = "full"):
        self.workload, self.seed, self.size_name = workload, seed, size_name
        self.ops: list = []
        self.probe = probe.HostProbe()
        self.setup_s: list[float] = []
        self.setup_ref_s: list[float] = []
        self.first: dict[int, str] = {}  # op index -> digest of its first pass
        self.bad: dict[int, list[str]] = {}  # op index -> check failures
        self.facts: dict[int, dict] = {}
        self.failures: dict[str, list[str]] = {}  # label -> reasons
        self.attempted = self.failed = 0
        self.setup_errors: list[str] = []
        pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
        self.pins = pins.get(size_name, {}).get(workload, {}).get(str(seed))

    # -- set-up -------------------------------------------------------------

    def setup(self, repeats: int = SETUP_REPEATS) -> None:
        """Time `repeats` set-ups, each in a fresh interpreter and a fresh
        directory, then set up in this process and the current directory."""
        gen_seed = workloads.instance_seed(self.seed)
        code = SETUP_CHILD.format(paths=[str(SRC), str(HERE)], workload=self.workload,
                                  seed=self.seed, gen_seed=gen_seed, size=self.size_name)
        inputs = set()
        for r in range(repeats):
            child = Path(f"setup-{r}")
            child.mkdir()
            self.probe.sample()
            start = perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], cwd=child,
                                  capture_output=True, text=True, timeout=120)
            end = perf_counter()
            self.probe.sample()
            shutil.rmtree(child)
            if proc.returncode != 0:
                raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
            seconds, digest = proc.stdout.split()
            self.setup_s.append(float(seconds))
            self.setup_ref_s.append(float(seconds) * self.probe.scale(start, end))
            inputs.add(digest)
        importlib.import_module("revsel.cli")
        self.ops = workloads.prepare(self.workload, self.seed, gen_seed,
                                     workloads.SIZES[self.size_name])
        inputs.add(workloads.inputs_digest(self.ops))
        if len(inputs) > 1:
            self.setup_errors.append("set-up made different inputs on a repeat")

    def script_digest(self) -> str:
        return hashlib.sha256("\n".join(op.label for op in self.ops).encode()).hexdigest()[:16]

    def _total(self, key: str) -> int:
        """A fact summed over one pass's ops (the same in every pass)."""
        return sum(f.get(key, 0) for f in self.facts.values())

    # -- passes -------------------------------------------------------------

    def _invoke(self, op) -> tuple:
        """Issue one op; returns (exit code, stdout, stderr, seconds, digest, start).
        The digest covers the files the op wrote, read before the next op runs."""
        self.probe.sample_if_due()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                if op.is_cli:
                    rc = sys.modules["revsel.cli"].main(list(op.argv))
                else:
                    oracle = sys.modules["revsel.oracle"]
                    print(checks.oracle_payload(oracle.opt_unweighted(op.case),
                                                oracle.opt_weighted(op.case),
                                                oracle.opt_bruteforce(op.case)))
                    rc = 0
            except Exception as exc:  # a crash is a failed op, not a benchmark error
                rc = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
        out, err = out.getvalue(), err.getvalue()
        files = [p for p in op.outputs if Path(p).is_file()]
        return rc, out, err, dt, checks.digest(rc, out, err, files), t0

    def run_pass(self) -> dict:
        raw = [self._invoke(op) for op in self.ops]
        self.probe.sample()
        return self._score(raw)

    def run_paired_pass(self, tracer: tracing.Tracer, parity: int) -> tuple[dict, dict]:
        """One pass in which every op runs twice in a row, untraced and
        traced, in alternating order, so that both runs of an op see the same
        machine. Returns the untraced and the traced record."""
        plain_raw, traced_raw, counts = [], [], []
        tracer.reset()
        start = perf_counter()
        for i, op in enumerate(self.ops):
            for traced in ((False, True) if (i + parity) % 2 == 0 else (True, False)):
                if not traced:
                    plain_raw.append(self._invoke(op))
                    continue
                before = dict(tracer.counts)
                tracer.op = i
                tracer.install()
                traced_raw.append(self._invoke(op))
                tracer.remove()
                counts.append({key[1]: calls - before.get(key, 0)
                               for key, calls in tracer.counts.items()})
        self.probe.sample()
        plain, traced = self._score(plain_raw), self._score(traced_raw)
        traced["trace"] = tracer.aggregate([op.kind for op in self.ops])
        traced["op_counts"] = counts
        traced["spans"] = [(op, name, s - start, e - start, parent)
                           for op, name, s, e, parent in tracer.spans]
        return plain, traced

    def _score(self, raw) -> dict:
        """Check every op's output; returns the pass's raw op latencies and
        the same scaled to the probe's reference host speed."""
        for i, (op, (rc, out, err, _, digest, _)) in enumerate(zip(self.ops, raw)):
            if i not in self.first:
                self.first[i] = digest
                errors, self.facts[i] = checks.check(op, rc, out, err)
                if self.pins is not None:
                    if self.pins["script"] != self.script_digest():
                        errors.append("digests.json pins another script for this seed")
                    elif self.pins["ops"][i] != digest:
                        errors.append(f"digest {digest} differs from the pinned {self.pins['ops'][i]}")
                self.bad[i] = errors
            reasons = list(self.bad[i])
            if digest != self.first[i]:
                reasons.append(f"digest {digest} differs from the first pass's {self.first[i]}")
            self.attempted += 1
            if reasons:
                self.failed += 1
                known = self.failures.setdefault(op.label, [])
                known.extend(r for r in reasons if r not in known)
        return {"op_s": [r[3] for r in raw],
                "op_ref_s": [r[3] * self.probe.scale(r[5], r[5] + r[3]) for r in raw]}

    def measure(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """Passes until the next one would end after `seconds`, at least
        MIN_PASSES untraced or one paired. Returns (untraced, traced)."""
        tracer = tracing.Tracer() if trace else None
        plain, traced = [], []
        start = perf_counter()
        while True:
            if tracer is None:
                plain.append(self.run_pass())
            else:
                p, t = self.run_paired_pass(tracer, len(plain) % 2)
                plain.append(p)
                traced.append(t)
            elapsed = perf_counter() - start
            enough = len(traced) >= 1 if trace else len(plain) >= MIN_PASSES
            if enough and elapsed * (len(plain) + 1) / len(plain) > seconds:
                return plain, traced

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, passes: list[dict], key: str = "op_ref_s", prefix: str = "") -> dict:
        """Metrics from each op's median latency over the passes, scaled to
        the reference host speed ("op_ref_s") or as measured ("op_s"); the
        wall time is the sum of these medians."""
        op_median = [median(p[key][i] for p in passes) for i in range(len(self.ops))]

        def total(kinds):
            return sum(dt for op, dt in zip(self.ops, op_median) if op.kind in kinds)

        setup = self.setup_ref_s if key == "op_ref_s" else self.setup_s
        m = {"setup_s": (median(setup), "s"), "wall_s": (sum(op_median), "s")}
        for kind in dict.fromkeys(op.kind for op in self.ops):
            m[f"{kind}_s"] = (total((kind,)), "s")
        if "bench_s" in m:
            m["trials_per_s"] = (self._total("trials") / m["bench_s"][0], "1/s")
        m["arrivals_per_s"] = (self._total("decisions") / total(DECISION_KINDS), "1/s")
        latencies = [dt * 1e3 for p in passes for op, dt in zip(self.ops, p[key]) if op.is_cli]
        pct = workloads.TAIL_PCT[self.workload] if self.size_name == "full" else 50
        m["cmd_p50_ms"] = (percentile(latencies, 50)[0], "ms")
        tail, rank = percentile(latencies, pct)
        m["cmd_tail_ms"] = (tail, "ms")
        m = {prefix + name: value for name, value in m.items()}
        if not prefix:
            m["cmd_tail_pct"] = (pct, "%")
            m["cmd_samples"] = (len(latencies), "count")
            m["cmd_samples_above_tail"] = (len(latencies) - rank, "count")
            m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            m["failed_ops_frac"] = (self.failed / self.attempted, "fraction")
        return m

    def per_layer(self, plain: list[dict], traced: list[dict]) -> dict:
        """Medians over traced passes, as measured; the overhead and the
        run/verify accounting compare each traced op with its untraced twin."""
        rows = [self._layer_row(p) for p in traced]
        m = {name: (median(r[name][0] for r in rows), unit) for name, (_, unit) in rows[0].items()}
        m["trace.overhead_s"] = (median(sum(p["op_s"]) for p in traced)
                                 - median(sum(p["op_s"]) for p in plain), "s")
        # Self time of the four layers inside run and verify, against the
        # untraced run_s + verify_s: the difference should stay within the
        # tracing overhead of those same ops.
        run_verify = [i for i, op in enumerate(self.ops) if op.kind in ("run", "verify")]
        for name, records in (("", plain), ("_traced", traced)):
            m[f"trace.run_verify{name}_s"] = (
                median(sum(p["op_s"][i] for i in run_verify) for p in records), "s")
        for name, layers in (("layers", ACCOUNTED_LAYERS), ("cli", ("cli",))):
            m[f"trace.run_verify_{name}_self_s"] = (median(
                sum(s for (lay, kind), s in p["trace"]["by_kind"].items()
                    if lay in layers and kind in ("run", "verify")) for p in traced), "s")
        return m

    def _layer_row(self, p: dict) -> dict:
        names, counted = p["trace"]["names"], p["trace"]["counted"]

        def get(name, field):
            return names.get(name, {}).get(field, 0)

        in_decisions = sum(sum(c.values()) for op, c in zip(self.ops, p["op_counts"])
                           if op.kind in DECISION_KINDS)
        kernel_s = get("engine.run_single_length_trials", "s")
        kernel_trials = sum(self.facts[i].get("trials", 0)
                            for i, op in enumerate(self.ops) if op.meta.get("kernel"))
        row = {
            "core.conflicts.calls": (counted.get("core.conflicts", 0), "count"),
            "core.conflicts.per_arrival": (in_decisions / self._total("decisions"), "count"),
        }
        for name, field, unit in (
            ("core.instance_stats", "s", "s"), ("core.read_jsonl", "s", "s"),
            ("core.write_jsonl", "s", "s"),
            ("algorithms.decide", "calls", "count"), ("algorithms.decide", "self_s", "s"),
            ("algorithms.members", "calls", "count"), ("algorithms.members", "s", "s"),
            ("algorithms.fresh", "calls", "count"), ("algorithms.fresh", "s", "s"),
            ("harness.apply_action", "calls", "count"), ("harness.apply_action", "self_s", "s"),
            ("harness.run_random_order", "s", "s"), ("harness.run_arb_expectation", "s", "s"),
            ("harness.to_csv", "s", "s"),
            ("oracle.opt_unweighted", "s", "s"), ("oracle.opt_weighted", "s", "s"),
            ("oracle.opt_bruteforce", "s", "s"), ("oracle.normalize_certificate", "s", "s"),
            ("oracle.verify_charging", "self_s", "s"),
            ("engine.run_single_length_trials", "s", "s"),
            ("engine.best_subset_scaled", "calls", "count"), ("engine.best_subset_scaled", "s", "s"),
            ("rng.permutation", "calls", "count"), ("rng.permutation", "s", "s"),
            ("adversary.gen", "s", "s"), ("adversary.adaptive_lower_bound_driver", "self_s", "s"),
            ("cli.main", "self_s", "s"),
        ):
            row[f"{name}.{field}"] = (get(name, field), unit)
        row["harness.trials"] = (self._total("trials"), "count")
        row["engine.trials_per_s"] = (kernel_trials / kernel_s if kernel_s else 0.0, "1/s")
        for lay in LAYERS:
            row[f"layer.{lay}.self_s"] = (
                sum(s for (name, _), s in p["trace"]["by_kind"].items() if name == lay), "s")
        return row

    def metadata(self, plain: list[dict], traced: list[dict]) -> dict:
        revsel = sys.modules["revsel"]
        commands = []
        for i, op in enumerate(self.ops):
            entry = {"op": op.label, **self.facts.get(i, {}),
                     "median_ms": median(p["op_s"][i] for p in plain) * 1e3,
                     "median_ref_ms": median(p["op_ref_s"][i] for p in plain) * 1e3}
            if traced:
                entry["conflicts_by_namespace"] = traced[-1]["op_counts"][i]
            commands.append(entry)
        return {
            "workload": self.workload,
            "seed": self.seed,
            "confirm_seed": workloads.CONFIRM_SEED,
            "backend": revsel.BACKEND,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(ROOT),
            "src_sha256": tree_digest(SRC / "revsel"),
            "digests_pinned": self.pins is not None,
            "probe_ref_s": probe.REF_S,
            "probe_median_s": median(self.probe.seconds),
            "pass_walls_s": [sum(p["op_s"]) for p in plain],
            "traced_pass_walls_s": [sum(p["op_s"]) for p in traced],
            "commands": commands,
        }


def git_sha(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(path: Path) -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file() and f.suffix in (".py", ".pyx", ".c"):
            h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def spec_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def baseline_check(wr: WorkloadRun, commands: list[dict]) -> dict | None:
    """Compare the run with ROADMAP's baseline, which was measured on the
    seed-1 unit instance of large-adversarial."""
    if (wr.workload, wr.seed, wr.size_name) != ("large-adversarial", 1, "full"):
        return None
    cmd = next(c for c in commands if c["op"] == "run greedy-subsume unit.jsonl")
    check = {"op": cmd["op"], "median_s": cmd["median_ms"] / 1e3,
             "roadmap_s": workloads.ROADMAP_RUN_S,
             "within_20pct": abs(cmd["median_ms"] / 1e3 / workloads.ROADMAP_RUN_S - 1) <= 0.2}
    if "conflicts_by_namespace" in cmd:
        by_ns = cmd["conflicts_by_namespace"]
        check.update(conflicts=sum(by_ns.values()), conflicts_by_namespace=by_ns,
                     roadmap_conflicts=workloads.ROADMAP_CONFLICTS)
    return check


def use_checkout_sources() -> bool:
    """Put the checkout's src/ first on the import path; False if absent."""
    if not (SRC / "revsel" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


@contextlib.contextmanager
def workdir(name: str):
    """A fresh directory under .perfbench/ as the current directory."""
    work = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(work)
        yield work
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[WorkloadRun, dict, dict]:
    """Measure one workload in a scratch directory of the checkout; returns
    the run, its metrics and its report."""
    with workdir(workload):
        wr = WorkloadRun(workload, seed)
        wr.setup()
        revsel_file = Path(sys.modules["revsel"].__file__).resolve()
        if SRC.resolve() not in revsel_file.parents:
            raise SystemExit(f"error: imported revsel from {revsel_file}, not from {SRC}")
        plain, traced = wr.measure(seconds, trace)
    metrics = wr.end_to_end(plain)
    metrics.update(wr.end_to_end(plain, "op_s", "raw_"))
    meta = wr.metadata(plain, traced)
    report = {"metadata": meta, "failures": wr.failures, "setup_errors": wr.setup_errors,
              "baseline": baseline_check(wr, meta["commands"])}
    if trace:
        metrics.update(wr.per_layer(plain, traced))
        untraced, traced_s, layers, cli = (metrics[f"trace.run_verify{k}_s"][0] for k in
                                           ("", "_traced", "_layers_self", "_cli_self"))
        report["accounting"] = {
            "run_verify_minus_layers_self_s": untraced - layers,
            "run_verify_overhead_s": traced_s - untraced,
            "within_overhead": abs(untraced - layers) <= traced_s - untraced,
            "outside_spans_s": traced_s - layers - cli,
        }
        spans = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.jsonl"
        spans.write_text("".join(json.dumps(s) + "\n" for s in traced[-1]["spans"]))
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return wr, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        print(f"error: no revsel package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    wr, metrics, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for label, reasons in wr.failures.items():
        print(f"FAILED {label}: {'; '.join(reasons)}", file=sys.stderr)
    for reason in wr.setup_errors:
        print(f"FAILED set-up: {reason}", file=sys.stderr)
    correct = wr.failed == 0 and not wr.setup_errors

    meta = report["metadata"]
    print(f"revsel benchmark: {args.workload} seed={args.seed} trace={args.trace} "
          f"backend={meta['backend']} python={meta['python']} nproc={meta['nproc']} "
          f"passes={len(meta['pass_walls_s'])} untraced, {len(meta['traced_pass_walls_s'])} traced")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print("report " + json.dumps(report, sort_keys=True))

    final = {}
    for spec in spec_metrics(bool(args.trace)):
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise SystemExit(f"error: {spec['name']} is in {unit}, BENCHMARK.json says {spec['unit']}")
        final[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": wr.attempted, "failed": wr.failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
