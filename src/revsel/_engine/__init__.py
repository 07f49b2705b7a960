"""Hot-loop engine with a compiled core and a pure-Python twin.

The compiled extension (Cython) implements the permutation-trial loop for
single-length table policies and the exhaustive subset search. The fallback
implements the identical bit-level algorithms in pure Python: its trial loop
finds conflicts by bisection in a start-sorted held set and shuffles with
:mod:`revsel.rng`'s splitmix64. Outputs are byte-for-byte equal, which the
test suite asserts. Selection happens once at import: the extension if it
built, otherwise the fallback. Set ``REVSEL_PURE_PYTHON=1`` to force the
fallback.
"""

from __future__ import annotations

import os

from . import fallback

if os.environ.get("REVSEL_PURE_PYTHON"):
    _impl = fallback
    COMPILED = False
else:
    try:
        from . import _speedups as _impl  # type: ignore[attr-defined]

        COMPILED = True
    except ImportError:
        _impl = fallback
        COMPILED = False

BACKEND = "compiled" if COMPILED else "pure-python"

MODE_THRESHOLD = 0
MODE_ALWAYS = 1
MODE_NEVER = 2

_MODES = {"threshold": MODE_THRESHOLD, "always": MODE_ALWAYS, "never": MODE_NEVER}


def _unpack_spec(spec: dict):
    mode = _MODES[spec["mode"]]
    if mode == MODE_THRESHOLD:
        tables = spec["tables"]
        fl = sorted(tables.left.items())
        fr = sorted(tables.right.items())
        return (
            mode,
            [k for k, _ in fl],
            [v for _, v in fl],
            tables.left_default,
            [k for k, _ in fr],
            [v for _, v in fr],
            tables.right_default,
        )
    return (mode, [], [], 0, [], [], 0)


def run_single_length_trials(starts, ends, spec: dict, trials: int, seed: int, impl=None):
    """ALG size per permutation trial for a single-length table policy."""
    mode, flk, flv, fld, frk, frv, frd = _unpack_spec(spec)
    engine = impl if impl is not None else _impl
    return engine.run_single_length_trials_raw(
        list(starts), list(ends), mode, flk, flv, fld, frk, frv, frd, trials, seed
    )


def best_subset_scaled(starts, ends, weights, impl=None):
    """(best total weight, member bitmask) over all conflict-free subsets."""
    engine = impl if impl is not None else _impl
    return engine.best_subset_scaled(list(starts), list(ends), list(weights))

