"""Calls the compiled kernel's entries on a list of cases and reports each
result as JSON data. ``test_backends.py`` runs it as a script against a
build made with sanitizers, in a child process that preloads their runtime,
and diffs what it prints with the normal build's results:

    python kernel_cases.py KERNEL.so CASES.json

It imports nothing but the standard library, so the child starts fast.
"""

import importlib.util
import json
import sys

# The entries that take the policy as one tuple, which JSON turns into a list.
POLICY_ENTRIES = ("run_single_length_trials_raw", "run_file_order_raw")


def call_cases(kernel, cases):
    """Each case's result as JSON data, or its error's type and message. A
    case is (entry name, arguments)."""
    results = []
    for name, args in cases:
        args = list(args)
        if name in POLICY_ENTRIES:
            args[2] = tuple(args[2])
        try:
            result = getattr(kernel, name)(*args)
        except (ValueError, OverflowError) as exc:
            result = [type(exc).__name__, str(exc)]
        results.append(_plain(result))
    return results


def _plain(value):
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, bytes):
        return list(value)
    return value


if __name__ == "__main__":
    spec = importlib.util.spec_from_file_location("_kernel", sys.argv[1])
    kernel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel)
    with open(sys.argv[2]) as f:
        print(json.dumps(call_cases(kernel, json.load(f))))
