"""Spans around revsel's public functions, installed from outside the package.

The traced run wraps each function below in every revsel module namespace
that binds it (``conflicts`` is bound in core, algorithms, harness, oracle
and the package itself; ``apply_action`` in harness and adversary) and each
method on the class that defines it. A wrapper records one span: the op it
belongs to, its name, start, end and parent span. Spans stay in memory until
the run ends. ``core.conflicts`` is called about 640 times per arrival at
n=2000, so it is counted per namespace instead of timed.

Self time is a span's duration minus the durations of its child spans.
None of the wrapped functions calls itself, so summing the spans of one name
counts no interval twice. Spans made in ``bench --jobs`` worker processes
stay in those processes; the parent's span around the pool covers them.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# span name -> (module, attribute) of the function or method it wraps
TIMED = {
    "cli.main": ("revsel.cli", "main"),
    "core.instance_stats": ("revsel.core", "instance_stats"),
    "core.read_jsonl": ("revsel.core", "read_jsonl"),
    "core.write_jsonl": ("revsel.core", "write_jsonl"),
    "algorithms.members": ("revsel.algorithms", "PolicyState.members"),
    "harness.run_adversarial": ("revsel.harness", "run_adversarial"),
    "harness.run_policy": ("revsel.harness", "run_policy"),
    "harness.replay_actions": ("revsel.harness", "replay_actions"),
    "harness.apply_action": ("revsel.harness", "apply_action"),
    "harness.run_random_order": ("revsel.harness", "run_random_order"),
    "harness.run_arb_expectation": ("revsel.harness", "run_arb_expectation"),
    "harness.to_csv": ("revsel.harness", "TrialStats.to_csv"),
    "oracle.opt_unweighted": ("revsel.oracle", "opt_unweighted"),
    "oracle.opt_weighted": ("revsel.oracle", "opt_weighted"),
    "oracle.opt_bruteforce": ("revsel.oracle", "opt_bruteforce"),
    "oracle.normalize_certificate": ("revsel.oracle", "normalize_certificate"),
    "oracle.verify_charging": ("revsel.oracle", "verify_charging"),
    "engine.run_single_length_trials": ("revsel._engine", "run_single_length_trials"),
    "engine.best_subset_scaled": ("revsel._engine", "best_subset_scaled"),
    "rng.permutation": ("revsel.rng", "permutation"),
    "adversary.adaptive_lower_bound_driver": ("revsel.adversary", "adaptive_lower_bound_driver"),
}
COUNTED = {"core.conflicts": ("revsel.core", "conflicts")}


def layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans while installed; ``op`` tags new spans with the op index."""

    def __init__(self):
        self.spans: list = []  # (op, name, start, end, parent index)
        self.counts: dict = {}  # (name, namespace) -> calls
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.op, name, start, end, parent)

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "revsel" or key.startswith("revsel.")]
        targets = {name: _resolve(spec) for name, spec in TIMED.items()}
        algorithms, adversary = sys.modules["revsel.algorithms"], sys.modules["revsel.adversary"]
        for cls in vars(algorithms).values():
            if isinstance(cls, type) and issubclass(cls, algorithms.Policy):
                for method in ("decide", "fresh"):
                    if method in vars(cls):
                        self._patch(cls, method, self._timed(f"algorithms.{method}", vars(cls)[method]))
        for attr, fn in vars(adversary).items():
            if attr.startswith("gen_") and callable(fn):
                targets[f"adversary.{attr}"] = (adversary, attr, fn)
        for name, (owner, attr, fn) in targets.items():
            if isinstance(owner, type):
                self._patch(owner, attr, self._timed(name, fn))
                continue
            span = "adversary.gen" if name.startswith("adversary.gen_") else name
            wrapper = self._timed(span, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)
        for name, spec in COUNTED.items():
            _, _, fn = _resolve(spec)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self.counts.setdefault((name, module.__name__), 0)
                        self._patch(module, key, self._counted((name, module.__name__), fn))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0

    # -- aggregation ------------------------------------------------------

    def aggregate(self, op_kinds: list[str]) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; per
        (layer, op kind): self seconds; per counted name: calls."""
        child = [0.0] * len(self.spans)
        for op, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names: dict = {}
        by_kind: dict = {}
        for i, (op, name, start, end, parent) in enumerate(self.spans):
            entry = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            self_s = end - start - child[i]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += self_s
            key = (layer(name), op_kinds[op])
            by_kind[key] = by_kind.get(key, 0.0) + self_s
        counted: dict = {}
        for (name, _), calls in self.counts.items():
            counted[name] = counted.get(name, 0) + calls
        return {"names": names, "by_kind": by_kind, "counted": counted}


def _resolve(spec):
    """(owner, attribute, function) for 'module', 'attr' or 'Class.attr'."""
    module, path = spec
    owner = sys.modules[module]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)
