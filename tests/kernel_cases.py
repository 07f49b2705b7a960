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
# Where each numeric entry takes a column, which goes in as a tuple, as an
# instance's columns do.
COLUMN_ARGS = {
    "run_single_length_trials_raw": (0, 1, 5),
    "run_file_order_raw": (0, 1),
    "best_subset_scaled": (0, 1, 2),
}
# A JSON writer case whose second argument is this string writes transcripts,
# each given in its payload as a dict of this one key.
ROWS = "rows"


class Transcript:
    """The four column slots of ``harness.RunTranscript`` that the kernel's
    JSON writer reads, under their names."""

    __slots__ = ("ids", "kinds", "offsets", "displaced")

    def __init__(self, ids, kinds, offsets, displaced):
        self.ids, self.kinds, self.offsets, self.displaced = ids, kinds, offsets, displaced


def transcripts(value):
    """`value` with each ``{ROWS: [ids, kinds, offsets, displaced]}`` made a
    Transcript, whose kinds, given as a list, become a bytearray."""
    if isinstance(value, list):
        return [transcripts(v) for v in value]
    if isinstance(value, dict):
        if list(value) == [ROWS]:
            ids, kinds, offsets, displaced = value[ROWS]
            if isinstance(kinds, list):
                kinds = bytearray(kinds)
            return Transcript(ids, kinds, offsets, displaced)
        return {k: transcripts(v) for k, v in value.items()}
    return value


def call_cases(kernel, cases):
    """Each case's result as JSON data, or its error's type and message. A
    case is (entry name, arguments)."""
    results = []
    for name, args in cases:
        args = list(args)
        if name in POLICY_ENTRIES:
            args[2] = tuple(args[2])
        for i in COLUMN_ARGS.get(name, ()):
            args[i] = tuple(args[i])
        if name == "dumps_json" and args[1:] == [ROWS]:
            args = [transcripts(args[0]), Transcript]
        try:
            result = getattr(kernel, name)(*args)
        except ValueError as exc:
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
