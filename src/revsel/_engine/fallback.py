"""Pure-Python twin of the compiled engine, ``_kernel.c``.

Every function here matches the C kernel bit for bit and step for step: same
splitmix64 stream, same rejection sampling, same Fisher-Yates order, same
bisections, same enumeration order. The stream and the shuffle are
:mod:`revsel.rng`'s; this module keeps no splitmix64 code of its own. The
two are kept in lockstep: change both together, and ``tests/test_backends.py``
diffs them on random inputs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..rng import _shuffle, substream_seed
from ..rng import permutation as permutation_raw  # the C kernel's name for it


def run_single_length_trials_raw(
    starts: list[int],
    ends: list[int],
    mode: int,
    fl_keys: list[int],
    fl_vals: list[int],
    fl_default: int,
    fr_keys: list[int],
    fr_vals: list[int],
    fr_default: int,
    trials: int,
    seed: int,
) -> list[int]:
    """Replay a single-length table policy over seeded permutations.

    mode 0: threshold tables (reject on two or more conflicts).
    mode 1: always replace. mode 2: never replace.
    Returns the final solution size of each trial.

    Every mode keeps the held set disjoint, so it is kept sorted by start in
    two parallel lists (which sorts the ends too), and the members that
    conflict with an arrival [s, e) are the run [bisect_right(ends, s),
    bisect_left(starts, e)). Intervals must have start < end.
    """
    arrivals = list(zip(starts, ends))
    fl = dict(zip(fl_keys, fl_vals))
    fr = dict(zip(fr_keys, fr_vals))
    out = []
    for t in range(trials):
        # Shuffling the arrivals with trial t's draws plays them in
        # permutation_raw(n, seed, t) order.
        order = arrivals[:]
        _shuffle(order, substream_seed(seed, t))
        held_s: list[int] = []
        held_e: list[int] = []
        for s, e in order:
            lo = bisect_right(held_e, s)
            hi = bisect_left(held_s, e, lo)
            if lo == hi:
                held_s.insert(lo, s)
                held_e.insert(lo, e)
                continue
            if mode == 2:
                continue
            if mode == 1:
                held_s[lo:hi] = (s,)
                held_e[lo:hi] = (e,)
                continue
            if hi - lo >= 2:
                continue
            ms, me = held_s[lo], held_e[lo]
            # Containment cannot occur between equal lengths; guard anyway.
            if (ms <= s and e <= me and (ms, me) != (s, e)) or (
                s <= ms and me <= e and (ms, me) != (s, e)
            ):
                continue
            v = min(e, me) - max(s, ms)
            if s < ms:
                bit = fl.get(v, fl_default)
            else:
                bit = fr.get(v, fr_default)
            if bit:
                # The only conflict leaves; the arrival takes its slot.
                held_s[lo] = s
                held_e[lo] = e
        out.append(len(held_s))
    return out


def best_subset_scaled(
    starts: list[int], ends: list[int], weights: list[int]
) -> tuple[int, int]:
    """Exhaustive search over all subsets by increasing bitmask.

    feasible[S] extends feasible[S minus lowest bit]; ties on weight keep the
    smallest mask, so both backends return the same subset.
    """
    n = len(starts)
    if n == 0:
        return 0, 0
    masks = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and max(starts[i], starts[j]) < min(ends[i], ends[j]):
                masks[i] |= 1 << j
    size = 1 << n
    feasible = bytearray(size)
    weight = [0] * size
    feasible[0] = 1
    best, best_mask = 0, 0
    for s in range(1, size):
        low = s & (-s)
        i = low.bit_length() - 1
        rest = s ^ low
        if feasible[rest] and not (masks[i] & rest):
            feasible[s] = 1
            w = weight[rest] + weights[i]
            weight[s] = w
            if w > best:
                best, best_mask = w, s
    return best, best_mask
