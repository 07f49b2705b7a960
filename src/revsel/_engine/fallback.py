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
from itertools import repeat
from typing import Sequence

from ..rng import Stream, _shuffle, substream_seed
from ..rng import permutation as permutation_raw  # the C kernel's name for it


def _replaces(mode, s, e, held_s, held_e, lo, hi, left, right) -> bool:
    """Whether the arrival [s, e) takes the place of the conflicting run
    held[lo:hi], which is never empty, in mode 0, 3 or 4 (the trial loop
    decides the other modes itself). `left` and `right` are the threshold
    tables as (dict, default) pairs."""
    ms, me = held_s[lo], held_e[lo]
    copy = ms == s and me == e
    # A member that contains the arrival is its only conflict: the held set
    # is disjoint.
    inside = ms <= s and e <= me and not copy
    if mode == 3:
        return inside
    if mode == 4:
        twice = 2 * (e - s)
        return inside or all(twice < held_e[i] - held_s[i] for i in range(lo, hi))
    if hi - lo >= 2:
        return False
    # Containment cannot occur between equal lengths; guard anyway.
    if inside or (s <= ms and me <= e and not copy):
        return False
    v = min(e, me) - max(s, ms)
    table, default = left if s < ms else right
    return bool(table.get(v, default))


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
    weights: Sequence[int] = (),
    num: int = 0,
    den: int = 1,
) -> list[int]:
    """Replay a kernel-mode policy over seeded permutations.

    mode 0: threshold tables (reject on two or more conflicts).
    mode 1: always replace. mode 2: never replace.
    mode 3: greedy-subsume (a lone conflict that properly contains the
    arrival gives way to it).
    mode 4: call-control (the whole conflicting run gives way when its
    member properly contains the arrival, or when twice the arrival's length
    is below every conflicting member's length).
    mode 5: memoryless with acceptance probability num/den, in lowest terms:
    every arrival, conflict-free ones included, is taken (displacing its
    whole conflicting run) iff ``randbelow(den) < num`` on trial t's
    decision substream 2**32 + t; den == 1 draws nothing.
    Returns each trial's final solution size or, when `weights` (integers,
    one per arrival) is not empty, its total weight.

    Every mode keeps the held set disjoint, so it is kept sorted by start in
    two parallel lists (which sorts the ends too), and the members that
    conflict with an arrival [s, e) are the run [bisect_right(ends, s),
    bisect_left(starts, e)). Intervals must have start < end.
    """
    if den < 1 or num < 0:
        raise ValueError("acceptance fraction needs num >= 0 and den >= 1")
    weighted = len(weights) > 0
    arrivals = list(zip(starts, ends, weights if weighted else repeat(1)))
    left = (dict(zip(fl_keys, fl_vals)), fl_default)
    right = (dict(zip(fr_keys, fr_vals)), fr_default)
    out = []
    for t in range(trials):
        # Shuffling the arrivals with trial t's draws plays them in
        # permutation_raw(n, seed, t) order.
        order = arrivals[:]
        _shuffle(order, substream_seed(seed, t))
        draws = Stream(substream_seed(seed, (1 << 32) + t)) if mode == 5 else None
        # The C kernel keeps the weights only for a weighted run; here the
        # unit weights cost less than a branch per arrival.
        held_s: list[int] = []
        held_e: list[int] = []
        held_w: list[int] = []
        for s, e, w in order:
            # A memoryless policy draws for every arrival, conflict-free
            # ones included, and a miss rejects it.
            if mode == 5 and not (num == 1 if den == 1 else draws.randbelow(den) < num):
                continue
            lo = bisect_right(held_e, s)
            hi = bisect_left(held_s, e, lo)
            if lo == hi:
                held_s.insert(lo, s)
                held_e.insert(lo, e)
                held_w.insert(lo, w)
                continue
            if mode == 2 or (
                mode not in (1, 5)
                and not _replaces(mode, s, e, held_s, held_e, lo, hi, left, right)
            ):
                continue
            # The arrival replaces the whole conflicting run.
            held_s[lo:hi] = (s,)
            held_e[lo:hi] = (e,)
            held_w[lo:hi] = (w,)
        out.append(sum(held_w) if weighted else len(held_s))
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
