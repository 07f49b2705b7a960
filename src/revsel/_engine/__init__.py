"""Hot-loop engine: the compiled kernel, and a pure-Python twin of its
subset search.

The compiled kernel, ``_kernel.c``, is one CPython C-API module that
implements the permutation-trial loop, the exhaustive subset search and the
indent-2 JSON writer behind :func:`dumps_json`. The trial loop replays six
policy modes on any weights: the single-length threshold tables (which
include one-directional replacement), always-replace, never-replace,
greedy-subsume, call-control and the constant-probability memoryless
policy; all but the first take intervals of any lengths. A trial returns
its final held weight under integer weights (an instance's
``columns.weights``, beside its ``starts`` and ``ends``); empty or all-1
weights count, and the count is then the held weight. The trial loop has no Python twin: where the kernel cannot run,
:func:`run_single_length_trials` returns None and the harness replays the
trials through the policies themselves (``harness._trials``), which give
the same bits more slowly. The subset search has a twin in
:mod:`.fallback`. The JSON writer needs none: without the kernel,
:func:`dumps_json` is ``json.dumps`` itself.

Selection happens once at import: the module ``setup.py`` installed, else a
build cached in this package's ``__pycache__`` (named by a checksum of the C
source, so an edit rebuilds it and a new build deletes the old ones), else a
fresh build into that cache with the compiler Python was built with, else
no kernel, silently. Only a build loads :mod:`subprocess`, so a cache hit
imports nothing it does not need. Set ``REVSEL_PURE_PYTHON=1`` to load no
kernel.

Inputs the kernel's 64-bit arithmetic cannot hold (coordinates or table
keys at +-2**62 or beyond, weights summing to 2**62 or more, an acceptance
denominator of 2**62 or more) go to the policy replay or the fallback
subset search.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import zlib
from importlib.machinery import EXTENSION_SUFFIXES

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


def _build(source: str, target: str) -> bool:
    """Compile `source` into `target` on a cache miss and prune the builds
    it supersedes; False if the build fails. Only this path imports
    subprocess."""
    import subprocess

    try:
        os.makedirs(os.path.dirname(target), exist_ok=True)
        _compile(source, target)
    except (OSError, subprocess.SubprocessError):
        return False
    _prune(os.path.dirname(target), os.path.basename(target))
    return True


def _cached_build(source: str, cache: str):
    """The kernel built from `source` and cached in `cache`, compiling it on
    a miss; None if reading, building or loading it fails."""
    try:
        with open(source, "rb") as f:
            key = zlib.crc32(f.read())
        path = os.path.join(cache, f"_kernel.{key:08x}{EXTENSION_SUFFIXES[0]}")
        if not os.path.exists(path) and not _build(source, path):
            return None
        spec = importlib.util.spec_from_file_location(__name__ + "._kernel", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except (OSError, ImportError):
        return None


_impl = None
if not os.environ.get("REVSEL_PURE_PYTHON"):
    try:
        from . import _kernel as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _cached_build(os.path.join(_HERE, "_kernel.c"), os.path.join(_HERE, "__pycache__"))
COMPILED = _impl is not None
if _impl is None:
    _impl = fallback

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

# Kernel inputs stay strictly inside +-2**62, so that differences of
# coordinates and sums of weights fit in 64 bits.
_LIMIT = 1 << 62


def _fits(*columns) -> bool:
    return all(-_LIMIT < min(c) and max(c) < _LIMIT for c in columns if c)


def _tables(spec: dict):
    """The threshold tables as kernel arguments: keys, bits and default for
    the left side, then for the right; empty for every other mode."""
    if spec["mode"] != "threshold":
        return [], [], 0, [], [], 0
    tables = spec["tables"]
    fl = sorted(tables.left.items())
    fr = sorted(tables.right.items())
    return (
        [k for k, _ in fl],
        [v for _, v in fl],
        tables.left_default,
        [k for k, _ in fr],
        [v for _, v in fr],
        tables.right_default,
    )


def run_single_length_trials(
    starts, ends, spec: dict, trials: int, seed: int, weights=(), first: int = 0
):
    """ALG per permutation trial of a kernel-mode policy: the final held
    weight under `weights`, one integer per arrival. Empty or all-1 weights
    count: the kernel runs its counting loop, and a trial's count is its
    held weight. Slot t holds trial ``first + t``, so calls over
    consecutive ranges of trials give the bits of one call. None
    when no kernel is loaded or the inputs fall outside the kernel's 64-bit
    guard; the caller then replays the policy. Every mode but "threshold"
    takes any mix of lengths; the name dates from when all modes were
    single-length."""
    if first < 0:
        raise ValueError("the first trial index must be >= 0")
    mode = _MODES[spec["mode"]]
    flk, flv, fld, frk, frv, frd = _tables(spec)
    p = spec.get("p")  # the memoryless mode's acceptance probability
    num, den = (p.numerator, p.denominator) if p is not None else (0, 1)
    starts, ends, weights = list(starts), list(ends), list(weights)
    fits = (
        _fits(starts, ends, flk, frk)
        and den < _LIMIT
        and sum(map(abs, weights)) < _LIMIT
    )
    if _impl is fallback or not fits:
        return None
    if weights.count(1) == len(weights):
        weights = []
    return _impl.run_single_length_trials_raw(
        starts, ends, mode, flk, flv, fld, frk, frv, frd, trials, seed, weights, num, den, first
    )


def best_subset_scaled(starts, ends, weights):
    """(best total weight, member bitmask) over all conflict-free subsets."""
    starts, ends, weights = list(starts), list(ends), list(weights)
    fits = _fits(starts, ends) and sum(map(abs, weights)) < _LIMIT
    return (_impl if fits else fallback).best_subset_scaled(starts, ends, weights)


# The C encoder's text: json.dumps runs it only when there is no indent.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``. With `indent`,
    json.dumps runs the pure-Python encoder; the kernel instead re-spaces
    the C encoder's compact text, so both give the same text and raise the
    same errors."""
    if COMPILED:
        return _impl.indent_json(_COMPACT.encode(obj))
    return json.dumps(obj, indent=2, sort_keys=True)
