"""Pure-Python twins of the compiled subset search and exact oracles in
``_kernel.c``.

:func:`best_subset_scaled` matches the C function bit for bit and step for
step: the same conflict masks and the same enumeration order, so ties pick
the same subset. :func:`opt_members` sorts as the kernel's oracles do and
takes the same members in the same order. Change each pair together;
``tests/test_backends.py``, ``tests/test_oracle.py`` and
``tests/test_exhaustive.py`` diff them. The trial loop has no twin here:
without the kernel, trials replay through the policies
(``harness._trials``).
"""

from __future__ import annotations

from bisect import bisect_right


def _end_order(ids, starts, ends, longer_first: bool) -> list[int]:
    """The positions sorted by end, then by start (descending when
    `longer_first`), then by id: one stable sort per key, last key first."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    order.sort(key=starts.__getitem__, reverse=longer_first)
    order.sort(key=ends.__getitem__)
    return order


def opt_members(ids, starts, ends, weights) -> list[int]:
    """The member positions of the earliest-finish greedy's set when
    `weights` is empty, in the order it takes them, and otherwise of the
    end-time DP's set, in its backtracking order.

    The greedy breaks ties on end toward the longer interval last, so its
    set never holds an interval that strictly contains another one. The DP
    adds integer weights; an interval may start where the one before it
    ends.
    """
    if not weights:
        chosen = []
        frontier = None
        for p in _end_order(ids, starts, ends, longer_first=True):
            if frontier is None or starts[p] >= frontier:
                chosen.append(p)
                frontier = ends[p]
        return chosen
    order = _end_order(ids, starts, ends, longer_first=False)
    order_ends = [ends[p] for p in order]
    # prev[j]: rightmost index i < j with order[i] ending by order[j]'s start
    prev = [bisect_right(order_ends, starts[p]) - 1 for p in order]
    best = [0] * (len(order) + 1)
    for j, p in enumerate(order):
        best[j + 1] = max(best[j], weights[p] + best[prev[j] + 1])
    members = []
    j = len(order)
    while j > 0:
        if best[j] == best[j - 1]:
            j -= 1
        else:
            members.append(order[j - 1])
            j = prev[j - 1] + 1
    return members


def best_subset_scaled(starts, ends, weights) -> tuple[int, int]:
    """Exhaustive search over all subsets by increasing bitmask.

    feasible[S] extends feasible[S minus lowest bit]; ties on weight keep the
    smallest mask, so both backends return the same subset. Like the
    kernel, it refuses more than 24 intervals before it allocates anything.
    """
    n = len(starts)
    if n == 0:
        return 0, 0
    if n > 24:  # SUBSET_CAP in _kernel.c
        raise ValueError("subset search capped at 24 intervals")
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
