"""Hot-loop engine: the compiled kernel, and pure-Python twins of its
subset search and exact oracles.

The compiled kernel, ``_kernel.c``, is one CPython C-API module that
implements one policy loop, the exhaustive subset search, the exact oracles
behind :func:`opt_members`, the one-pass indent-2 JSON writer behind
:func:`dumps_json` and the instance file reader behind
:func:`jsonl_columns`. The policy loop replays six
policy modes on any weights: the single-length threshold tables (which
include one-directional replacement), always-replace, never-replace,
greedy-subsume, call-control and the constant-probability memoryless
policy; all but the first take intervals of any lengths. It has two
entries. :func:`run_single_length_trials` plays permutation trials, each
returning its final held weight under integer weights (an instance's
``columns.weights``, beside its ``starts`` and ``ends``); empty or all-1
weights count, and the count is then the held weight. Every arrival in
the kernel carries its list position, and the held set is its starts and
ends plus, in a weighted trial or a file-order run, its members'
positions: a weighted trial sums its final members' weights by position,
and a file-order run reports positions. The trial loop has
no Python twin: where the kernel cannot run, it returns None and the
harness replays the trials through the policies themselves
(``harness._trials``), which give the same bits more slowly.
:func:`run_file_order` plays one run in file order and reports every
arrival's action; its twin is ``harness.run_policy``, which
``harness.run_file_order`` falls back to when it returns None. The subset
search and the oracles have twins in :mod:`.fallback`, which answer alike.
These four numeric entries guard their own inputs: they read an instance's
``Columns`` in place and return None, while they read, on an item that is
not an exact int strictly inside +-2**62 or weights whose absolute values
sum to 2**62 or more. The JSON writer needs no twin: a payload may carry a
``harness.RunTranscript`` where its rows go, which the kernel writes
straight from the transcript's columns, and where the kernel is missing or
declines a payload's type, :func:`dumps_json` is ``json.dumps`` itself,
rendering each transcript through its ``to_json_list``. Nor does the
reader: it takes only lines of the form ``core.dumps_jsonl`` writes, with
integers of at most 18 digits, and declines any other text before it keeps
a record; where it declines or the kernel is missing, ``core.loads_jsonl``
reads the text through its chunk loop, which alone raises, so every error
and line number is the loop's.

This module alone decides whether the kernel stands in for a policy: the
harness hands both entries every policy's ``kernel_spec()``, and
:func:`_kernel_args`, which builds the one policy tuple both raw kernel
entries take, holds the policy rules; the 64-bit guard is the kernel's.

Selection happens once at import: a build of the ``_kernel.c`` beside this
file, cached in this package's ``__pycache__`` under a checksum of the
source (so an edit rebuilds it and a new build deletes the old ones) and
compiled on a miss with the compiler Python was built with; else, only when
that source cannot be read, built or loaded, the module ``setup.py``
installed; else no kernel, silently, and ``_impl`` is None. Only a build
loads :mod:`subprocess`, so a cache hit imports nothing it does not need.
Set ``REVSEL_PURE_PYTHON=1`` to load no kernel.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from operator import sub
from typing import Optional

from . import fallback

_HERE = os.path.dirname(os.path.abspath(__file__))
_COMPILE_TIMEOUT_S = 120


def _compile(source: str, target: str) -> None:
    """Build `source` into `target`. The compiler writes a temporary file in
    the target's directory that is renamed into place, so a concurrent
    importer sees no file or a whole one; a failed build leaves nothing."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    fd, tmp = tempfile.mkstemp(suffix=EXTENSION_SUFFIXES[0], dir=os.path.dirname(target))
    os.close(fd)
    try:
        subprocess.run(
            [*cc, "-O2", "-shared", "-fPIC", f"-I{include}", source, "-o", tmp],
            check=True, capture_output=True, timeout=_COMPILE_TIMEOUT_S,
        )
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _prune(cache: str, keep: str) -> None:
    """Delete this interpreter's builds of other kernel sources from `cache`,
    keeping `keep`; best effort."""
    suffix = EXTENSION_SUFFIXES[0]
    stale = re.compile(r"_kernel\.[0-9a-f]{8}" + re.escape(suffix))
    try:
        for name in os.listdir(cache):
            if name != keep and stale.fullmatch(name):
                os.unlink(os.path.join(cache, name))
    except OSError:
        pass


def _cached_build(source: str, cache: str):
    """The kernel built from `source` and cached in `cache`, compiling it and
    pruning the builds it supersedes on a miss; None if reading, building or
    loading it fails. Only a miss imports subprocess."""
    try:
        with open(source, "rb") as f:
            key = zlib.crc32(f.read())
        path = os.path.join(cache, f"_kernel.{key:08x}{EXTENSION_SUFFIXES[0]}")
        if not os.path.exists(path):
            import subprocess

            try:
                os.makedirs(cache, exist_ok=True)
                _compile(source, path)
            except subprocess.SubprocessError:
                return None
            _prune(cache, os.path.basename(path))
        spec = importlib.util.spec_from_file_location(__name__ + "._kernel", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except (OSError, ImportError):
        return None


_impl = None
if not os.environ.get("REVSEL_PURE_PYTHON"):
    _impl = _cached_build(os.path.join(_HERE, "_kernel.c"), os.path.join(_HERE, "__pycache__"))
    if _impl is None:
        try:
            from . import _kernel as _impl  # type: ignore[attr-defined]
        except ImportError:
            pass
COMPILED = _impl is not None

BACKEND = "compiled" if COMPILED else "pure-python"

# Kernel mode per kernel_spec()["mode"]; the C source numbers them alike.
_MODES = {
    "threshold": 0,
    "always": 1,
    "never": 2,
    "greedy-subsume": 3,
    "call-control": 4,
    "memoryless": 5,
}


def _kernel_args(starts, ends, spec: Optional[dict]):
    """``(starts, ends, policy)`` as both policy-loop entries take them: the
    columns themselves, and `policy` one tuple of the mode; the left
    threshold table's keys, bits and default; the right table's (empty
    tables but for the "threshold" mode); and the acceptance numerator and
    denominator (0 and 1 but for "memoryless"). None wherever the kernel
    cannot stand in for the policy: no kernel is loaded; there is no spec;
    or a "threshold" spec meets more than one length, where the policy
    raises PolicyDomainError."""
    if _impl is None or spec is None:
        return None
    sides = [[], [], 0, [], [], 0]
    if spec["mode"] == "threshold":
        if len(set(map(sub, ends, starts))) > 1:
            return None
        t = spec["tables"]
        sides = []
        for table, default in ((t.left, t.left_default), (t.right, t.right_default)):
            keys = sorted(table)
            sides += [keys, [table[k] for k in keys], default]
    p = spec.get("p", 0)  # the memoryless mode's acceptance probability
    return starts, ends, (_MODES[spec["mode"]], *sides, p.numerator, p.denominator)


def run_single_length_trials(
    starts, ends, spec: Optional[dict], trials: int, seed: int, weights=(), first: int = 0
):
    """ALG per permutation trial of the policy with kernel spec `spec`: the
    final held weight under `weights`, one integer per arrival. Empty or
    all-1 weights count: the kernel runs its counting loop, and a trial's
    count is its held weight. Slot t holds trial ``first + t``, so calls
    over consecutive ranges of trials give the bits of one call. None where
    :func:`_kernel_args` is or the kernel's guard declines; the caller then
    replays the policy. Every mode but "threshold" takes any mix of
    lengths; the name dates from when all modes were single-length."""
    if first < 0:
        raise ValueError("the first trial index must be >= 0")
    args = _kernel_args(starts, ends, spec)
    if args is None:
        return None
    if weights.count(1) == len(weights):
        weights = ()
    return _impl.run_single_length_trials_raw(*args, trials, seed, weights, first)


def run_file_order(starts, ends, spec: Optional[dict], seed: Optional[int] = None):
    """One run of the policy with kernel spec `spec` over the arrivals in
    list order, the twin of ``harness.run_policy``; a memoryless policy
    draws from ``Stream.for_trial(seed, 0)``, and the other modes ignore
    the seed. Returns (accepted, offsets, displaced, final), the record that
    ``harness.run_file_order`` keeps as a transcript: one accept flag per
    arrival, as bytes; the positions arrival p displaced,
    ``displaced[offsets[p]:offsets[p + 1]]``; and the final members'
    positions in start order. None where :func:`_kernel_args` is or the
    kernel's guard declines, and for a memoryless policy without a seed,
    which ``run_policy`` refuses."""
    args = _kernel_args(starts, ends, spec)
    if args is None or (seed is None and spec["mode"] == "memoryless"):
        return None
    return _impl.run_file_order_raw(*args, 0 if seed is None else seed)


def opt_members(ids, starts, ends, weights=()):
    """The member positions of an exact optimum over the columns: the
    earliest-finish greedy's maximum-cardinality set when `weights` is
    empty, else the end-time DP's maximum-weight set. The kernel answers
    unless its guard declines the columns (an id counts as a coordinate) or
    a start is not below its end; its twin, ``fallback.opt_members``, then
    does, step for step alike."""
    if _impl is not None:
        members = _impl.opt_members(ids, starts, ends, weights)
        if members is not None:
            return members
    return fallback.opt_members(ids, starts, ends, weights)


def best_subset_scaled(starts, ends, weights):
    """(best total weight, member bitmask) over all conflict-free subsets:
    the kernel's unless its guard declines, and then its twin's,
    ``fallback.best_subset_scaled``, which picks the same mask."""
    if _impl is not None:
        best = _impl.best_subset_scaled(starts, ends, weights)
        if best is not None:
            return best
    return fallback.best_subset_scaled(starts, ends, weights)


def jsonl_columns(text):
    """``(starts, ends, weights)`` of an instance file's `text`, as three
    tuples holding each record's start, end and raw JSON weight (an int, 1
    where the record has none, or a "p/q" str), when the kernel accepts
    the text: an exact ASCII str whose every line has the exact form that
    ``core.dumps_jsonl`` writes, with integers of at most 18 digits (the
    grammar is in ``_kernel.c``). None
    for any other text, decided before a record is kept, and always
    without a kernel; ``core.loads_jsonl``'s chunk loop then reads the text
    and raises every error."""
    return None if _impl is None else _impl.jsonl_columns(text)


def json_default(obj):
    """json.dumps's `default` for the CLI's payloads: a ``RunTranscript`` as
    its rows, ``to_json_list()``; anything else raises json.dumps's own
    TypeError."""
    from ..harness import RunTranscript

    if isinstance(obj, RunTranscript):
        return obj.to_json_list()
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def dumps_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, default=json_default)``,
    so a payload may carry a ``RunTranscript`` where its rows go. The kernel
    writes it in one pass when `obj` holds only None, bools, ints, ASCII
    strs, lists, tuples, str-keyed dicts (the exact types, nested at most
    ``JSON_DEPTH_CAP`` deep) and transcripts, whose rows it writes straight
    from their columns; that is all the CLI's payloads hold. It declines
    anything else before writing, and json.dumps then writes the text or
    raises the error, as it does without the kernel."""
    from ..harness import RunTranscript

    if _impl is not None:
        text = _impl.dumps_json(obj, RunTranscript)
        if text is not None:
            return text
    return json.dumps(obj, indent=2, sort_keys=True, default=json_default)
