"""Output checks that hold for every seed, written without revsel's code.

Each CLI command's result is parsed and checked against the benchmark's own
references: an independent replay of the transcript on a sorted disjoint
held set, a weighted interval-scheduling DP for the optimum, and the
arithmetic of ratios, means and trial rows. Byte identity is checked
separately, by digest (see ``digest``).

Every check returns ``(errors, facts)``; facts are the sizes the metrics
need: n, trials, and the number of policy decisions the command made.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
from fractions import Fraction
from math import gcd


def digest(rc, stdout: str, stderr: str, files: list[str]) -> str:
    """Hash of one op's exit code, stdout, stderr and written files. Files
    are read in chunks so that the benchmark holds none of them whole."""
    h = hashlib.sha256()
    h.update(f"{rc}\0".encode())
    h.update(stdout.encode() + b"\0" + stderr.encode() + b"\0")
    for name in files:
        h.update(name.encode() + b"\0")
        with open(name, "rb") as fh:
            while chunk := fh.read(1 << 16):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()[:16]


def fmt(value: Fraction | None) -> str:
    """Mirror of the CLI's exact-rational formatting; None is infinity."""
    return "inf" if value is None else f"{value.numerator}/{value.denominator}"


def ratio(opt: Fraction, alg: Fraction) -> Fraction | None:
    if alg == 0:
        return None if opt > 0 else Fraction(1)
    return opt / alg


def load_instance(path: str) -> list[tuple[int, int, int, Fraction]]:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return [(r["id"], r["start"], r["end"], Fraction(str(r.get("weight", 1)))) for r in rows]


def reference_opt(ivs) -> Fraction:
    """Maximum total weight of pairwise disjoint half-open intervals."""
    order = sorted(ivs, key=lambda iv: iv[2])
    ends = [iv[2] for iv in order]
    best = [Fraction(0)]
    for j, (_, start, _, weight) in enumerate(order):
        prev = bisect.bisect_right(ends, start, 0, j)
        best.append(max(best[-1], best[prev] + weight))
    return best[-1]


def disjoint(ivs) -> bool:
    spans = sorted((iv[1], iv[2]) for iv in ivs)
    return all(a_end <= b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:]))


class HeldSet:
    """A disjoint set of intervals kept sorted by start."""

    def __init__(self):
        self.keys: list[tuple[int, int, int]] = []  # (start, end, id)

    def ids(self) -> set[int]:
        return {k[2] for k in self.keys}

    def conflicting(self, start: int, end: int) -> list[tuple[int, int, int]]:
        j = bisect.bisect_left(self.keys, (end,))
        out = []
        while j > 0 and self.keys[j - 1][1] > start:
            j -= 1
            out.append(self.keys[j])
        return out

    def add(self, key) -> None:
        bisect.insort(self.keys, key)

    def remove(self, key) -> None:
        self.keys.pop(bisect.bisect_left(self.keys, key))


def replay(ivs, actions) -> tuple[list[str], set[int]]:
    """Apply transcript actions with the harness's feasibility rules."""
    by_id = {iv[0]: iv for iv in ivs}
    held, gone, errors = HeldSet(), set(), []
    for act in actions:
        iid, start, end, _ = by_id[act["id"]]
        if iid in gone:
            errors.append(f"arrival {iid} seen twice")
        gone.add(iid)
        if act["action"] == "reject":
            if act["displaced"]:
                errors.append(f"reject of {iid} displaces")
            continue
        displaced = set(act["displaced"])
        hits = {k[2]: k for k in held.conflicting(start, end)}
        if act.get("discard_rest"):
            ok = displaced == held.ids()
        else:
            ok = displaced <= set(hits)
        if not ok:
            errors.append(f"accept of {iid} displaces {sorted(displaced)} illegally")
            return errors, held.ids()
        for d in displaced:
            iv = by_id[d]
            held.remove((iv[1], iv[2], d))
        if held.conflicting(start, end):
            errors.append(f"accept of {iid} leaves a conflict")
            return errors, held.ids()
        held.add((start, end, iid))
    return errors, held.ids()


def _split_json(stdout: str) -> tuple[dict, str]:
    """Commands that print an indented JSON object and then one status line."""
    body, _, last = stdout.rstrip("\n").rpartition("\n")
    return json.loads(body), last


def check_generate(op, rc, stdout, stderr) -> tuple[list[str], dict]:
    errors = [] if rc == 0 else [f"exit code {rc}"]
    lines = stdout.splitlines()
    if len(lines) != len(op.outputs):
        return errors + [f"{len(lines)} status lines for {len(op.outputs)} files"], {}
    n_total = 0
    for path, line in zip(op.outputs, lines):
        ivs = load_instance(path)
        n_total += len(ivs)
        if [iv[0] for iv in ivs] != list(range(len(ivs))):
            errors.append(f"{path}: ids are not 0..n-1 in file order")
        if any(not iv[1] < iv[2] for iv in ivs):
            errors.append(f"{path}: an interval has start >= end")
        coords = sorted({c for iv in ivs for c in iv[1:3]})
        g = 0
        for c in coords[1:]:
            g = gcd(g, c - coords[0])
        k = len({iv[2] - iv[1] for iv in ivs})
        fields = dict(f.split("=") for f in line.split(": ", 1)[1].split())
        expect = {"n": len(ivs), "k": k, "n_points": (coords[-1] - coords[0]) // (g or 1) + 1}
        if not line.startswith(f"{path}: ") or any(int(fields[key]) != v for key, v in expect.items()):
            errors.append(f"{path}: status line {line!r}, expected {expect}")
        if not 0 <= int(fields["d"]) <= k - 1:
            errors.append(f"{path}: nesting depth {fields['d']} outside [0, k-1]")
    if "n" in op.meta and n_total != op.meta["n"]:
        errors.append(f"wrote {n_total} intervals, asked for {op.meta['n']}")
    return errors, {"n": n_total}


def check_run(op, rc, stdout, stderr) -> tuple[list[str], dict]:
    if rc != 0:
        return [f"exit code {rc}"], {}
    ivs = load_instance(op.meta["instance"])
    out = json.loads(stdout)
    errors = []
    actions = out["transcript"]
    if [a["id"] for a in actions] != [iv[0] for iv in ivs]:
        errors.append("transcript does not follow the file's arrival order")
        return errors, {}
    replay_errors, final = replay(ivs, actions)
    errors += replay_errors
    if sorted(final) != out["final_solution"]:
        errors.append("final solution differs from the replayed one")
    weight = {iv[0]: iv[3] for iv in ivs}
    alg = sum((weight[i] for i in out["final_solution"]), Fraction(0))
    opt = reference_opt(ivs)
    expect = {"alg_value": fmt(alg), "opt_value": fmt(opt), "ratio": fmt(ratio(opt, alg)),
              "policy": op.argv[1]}
    for key, value in expect.items():
        if out[key] != value:
            errors.append(f"{key} is {out[key]}, expected {value}")
    return errors, {"n": len(ivs), "decisions": len(actions)}


def check_verify(op, rc, stdout, stderr) -> tuple[list[str], dict]:
    if rc != 0:
        return [f"exit code {rc}"], {}
    ivs = load_instance(op.meta["instance"])
    ledger, last = _split_json(stdout)
    errors = []
    k = len({iv[2] - iv[1] for iv in ivs})
    by_id = {iv[0]: iv for iv in ivs}
    norm = [by_id[i] for i in ledger["normalized_opt"]]
    unit = [(iv[0], iv[1], iv[2], Fraction(1)) for iv in ivs]
    if ledger["k"] != k or ledger["bound"] != 2 * k:
        errors.append(f"ledger k={ledger['k']}, expected {k}")
    if not ledger["max_total_charge"] <= 2 * k:
        errors.append(f"max charge {ledger['max_total_charge']} exceeds 2k")
    if not disjoint(norm) or len(norm) != reference_opt(unit):
        errors.append("normalized optimum is not a maximum disjoint set")
    if not disjoint([by_id[i] for i in ledger["final_members"]]):
        errors.append("final members conflict")
    if last != f"max charge {ledger['max_total_charge']} <= 2k = {2 * k}: pass":
        errors.append(f"status line {last!r}")
    return errors, {"n": len(ivs)}


def check_bench(op, rc, stdout, stderr) -> tuple[list[str], dict]:
    """Checks the trial CSV row by row, holding only a count per distinct
    ALG value, so that the check adds no per-trial memory to the run."""
    if rc != 0:
        return [f"exit code {rc}"], {}
    ivs = load_instance(op.meta["instance"])
    trials, seed = op.meta["trials"], int(op.argv[op.argv.index("--seed") + 1])
    opt = reference_opt(ivs)
    errors = []
    alg_counts: dict[str, int] = {}
    expected_ratio: dict[str, str | None] = {}  # alg text -> ratio text, None if out of range
    rows = 0
    with open(op.outputs[0], encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["trial", "seed", "alg", "opt", "ratio"]:
            return ["CSV header is wrong"], {}
        for t, row in enumerate(reader):
            rows += 1
            if errors:
                continue
            trial, row_seed, alg, row_opt, row_ratio = row
            if alg not in expected_ratio:
                a = Fraction(alg)
                expected_ratio[alg] = fmt(ratio(opt, a)) if 0 <= a <= opt else None
            alg_counts[alg] = alg_counts.get(alg, 0) + 1
            if (int(trial), int(row_seed), row_opt) != (t, seed, fmt(opt)) \
                    or row_ratio != expected_ratio[alg]:
                errors.append(f"trial row {t} is wrong: {','.join(row)}")
    if rows != trials:
        return [f"CSV has {rows} rows, expected {trials}"], {}
    summary = json.loads(stderr)
    total = sum((Fraction(alg) * count for alg, count in alg_counts.items()), Fraction(0))
    expect = {"policy": op.argv[1], "trials": trials, "seed": seed, "opt": fmt(opt),
              "mean_alg": fmt(total / trials)}
    for key, value in expect.items():
        if summary[key] != value:
            errors.append(f"summary {key} is {summary[key]}, expected {value}")
    if "length_choices" in summary and sum(summary["length_choices"].values()) != trials:
        errors.append("length choices do not add up to the trial count")
    if "same_as" in op.meta:
        with open(op.outputs[0], encoding="utf-8") as fh, \
                open(op.meta["same_as"], encoding="utf-8") as ref:
            if fh.readlines() != [ref.readline() for _ in range(trials + 1)]:
                errors.append(f"CSV differs from the first {trials} trials of {op.meta['same_as']}")
    return errors, {"n": len(ivs), "trials": trials, "decisions": trials * len(ivs)}


def check_duel(op, rc, stdout, stderr) -> tuple[list[str], dict]:
    out, last = _split_json(stdout)
    k = op.meta["k"]
    errors = []
    ivs = [(a["id"], a["start"], a["end"], Fraction(1)) for a in out["arrivals"]]
    by_id = {iv[0]: iv for iv in ivs}
    cert = [by_id[i] for i in out["opt_certificate"]]
    final = [by_id[i] for i in out["final_solution"]]
    met = out["bound_met"]
    r = ratio(Fraction(len(cert)), Fraction(len(final)))
    if rc != (0 if met else 3) or (op.meta["deterministic"] and not met):
        errors.append(f"exit code {rc} with bound_met={met}")
    if not disjoint(cert) or not disjoint(final):
        errors.append("certificate or final solution conflicts")
    if out["ratio"] != fmt(r) or out["bound"] != fmt(Fraction(2 * k)) \
            or met != (r is None or r >= 2 * k):
        errors.append(f"ratio {out['ratio']} / bound {out['bound']} / bound_met {met} inconsistent")
    replay_errors, held = replay(ivs, out["actions"])
    if replay_errors or held != set(out["final_solution"]):
        errors.append("actions do not replay to the final solution")
    if last != f"ratio {out['ratio']} vs bound {2 * k}: {'met' if met else 'NOT met'}":
        errors.append(f"status line {last!r}")
    return errors, {"n": len(ivs), "decisions": len(out["actions"])}


def check_oracle(op, rc, stdout, stderr) -> tuple[list[str], dict]:
    """The three oracles against each other and against the reference DP."""
    if rc != 0:
        return [f"oracle raised: {rc}"], {}
    ivs = [(iv.id, iv.start, iv.end, iv.weight) for iv in op.case]
    by_id = {iv[0]: iv for iv in ivs}
    out = json.loads(stdout)
    errors = []
    best = reference_opt(ivs)
    most = reference_opt([(i, s, e, Fraction(1)) for i, s, e, _ in ivs])
    for name, (value, members) in out.items():
        chosen = [by_id[i] for i in members]
        if not disjoint(chosen) or fmt(sum((iv[3] for iv in chosen), Fraction(0))) != value:
            errors.append(f"{name}: members do not form a disjoint set of value {value}")
    for name in ("weighted", "brute"):
        if out[name][0] != fmt(best):
            errors.append(f"{name} optimum {out[name][0]}, expected {fmt(best)}")
    if len(out["unweighted"][1]) != most:
        errors.append(f"unweighted optimum has {len(out['unweighted'][1])} members, expected {most}")
    return errors, {"n": len(ivs)}


CHECKS = {
    "generate": check_generate,
    "run": check_run,
    "verify": check_verify,
    "bench": check_bench,
    "duel": check_duel,
    "oracle": check_oracle,
}


def check(op, rc, stdout, stderr) -> tuple[list[str], dict]:
    """Run the op's check; a malformed output is an error, not a crash."""
    try:
        return CHECKS[op.kind](op, rc, stdout, stderr)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}


def oracle_payload(unweighted, weighted, brute) -> str:
    """Canonical text of one oracle cross-check, hashed like a CLI stdout."""
    return json.dumps({
        name: [fmt(cert.value), sorted(cert.members)]
        for name, cert in (("unweighted", unweighted), ("weighted", weighted), ("brute", brute))
    }, sort_keys=True)

