"""Pure-Python twin of the compiled subset search in ``_kernel.c``.

:func:`best_subset_scaled` matches the C function bit for bit and step for
step: the same conflict masks and the same enumeration order, so ties pick
the same subset. Change both together; ``tests/test_backends.py`` diffs them
on random inputs. The trial loop has no twin here: without the kernel,
trials replay through the policies (``harness._trials``).
"""

from __future__ import annotations


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
