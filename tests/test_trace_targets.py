"""perfbench's traced run wraps revsel functions it names by module and
attribute; a rename or deletion in revsel must fail here rather than crash
``perfbench/run.py --trace 1``."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    # Executed from its source text, so nothing is written under perfbench/.
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing.__dict__)
    for name, (module, attr) in {**tracing.TIMED, **tracing.COUNTED}.items():
        importlib.import_module(module)
        _owner, _attr, fn = tracing._resolve((module, attr))
        assert callable(fn), name
