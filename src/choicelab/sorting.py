"""Deterministic top-down merge sort with exact comparison counting.

Shared by the active recovery (anchored binary comparisons), the noisy
sequential-vote sort, and the pairwise-distance sort. The comparison count
is worst-case m*ceil(log2 m) - 2^ceil(log2 m) + 1, which every query
budget in this package is checked against.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def merge_sort(items: Sequence[T], less: Callable[[T, T], bool]):
    """Sort ascending under ``less``; returns (sorted_list, comparison_count).

    Stable, deterministic split at the midpoint, one ``less`` call per
    element pair examined during merges.
    """
    count = 0

    def merge(left, right):
        nonlocal count
        out = []
        i = j = 0
        while i < len(left) and j < len(right):
            count += 1
            if less(right[j], left[i]):
                out.append(right[j])
                j += 1
            else:
                out.append(left[i])
                i += 1
        out.extend(left[i:])
        out.extend(right[j:])
        return out

    def rec(seq):
        if len(seq) <= 1:
            return list(seq)
        mid = len(seq) // 2
        return merge(rec(seq[:mid]), rec(seq[mid:]))

    return rec(list(items)), count


def merge_sort_comparison_bound(m: int) -> int:
    """Worst-case comparison count of merge_sort on m items."""
    if m <= 1:
        return 0
    ceil_lg = (m - 1).bit_length()
    return m * ceil_lg - 2**ceil_lg + 1
