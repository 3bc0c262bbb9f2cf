"""Deterministic comparison sorts with exact comparison counting.

Two sorts, each with its worst-case count, which every query budget in
this package is checked against:

- ``merge_sort``, a top-down merge sort over a binary ``less``, at most
  m*ceil(log2 m) - 2^ceil(log2 m) + 1 comparisons. It serves the
  noisy sequential-vote sort, the pairwise-distance sort and the small
  seed block of the active recovery.
- ``insertion_sort``, which places items one at a time into a sorted list
  through a comparator that names the gap an item falls in among one or
  two pivots. With w-way answers (w = 2 or 3) an item placed among i
  sorted items costs at most ceil(log_w(i+1)) calls: binary insertion
  (Knuth, TAOCP vol. 3, 5.3.1) with w outcomes per call. It serves the
  active recovery past its seed block: ternary median queries for
  compromise rules, padded pairs at the extreme positions.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


def merge_sort(items: Sequence[T], less: Callable[[T, T], bool]):
    """Sort ascending under ``less``; returns (sorted_list, comparison_count).

    Stable, deterministic split at the midpoint, one ``less`` call per
    element pair examined during merges. Plain recursion, not a nested
    closure: a self-referencing closure would be a reference cycle that
    keeps ``less``, and the oracle it queries, alive until a full garbage
    collection.
    """
    items = list(items)
    if len(items) <= 1:
        return items, 0
    mid = len(items) // 2
    left, left_count = merge_sort(items[:mid], less)
    right, right_count = merge_sort(items[mid:], less)
    out = []
    count = left_count + right_count
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
    return out, count


def merge_sort_comparison_bound(m: int) -> int:
    """Worst-case comparison count of merge_sort on m items."""
    if m <= 1:
        return 0
    ceil_lg = (m - 1).bit_length()
    return m * ceil_lg - 2**ceil_lg + 1


def insertion_sort(
    items: Iterable[T],
    locate: Callable[[T, tuple], int],
    ways: int = 2,
    placed: Sequence[T] = (),
):
    """Insert ``items``, in order, into the ascending list ``placed``;
    returns (sorted_list, comparison_count).

    ``locate(x, pivots)`` gets a tuple of one or, when ways is 3, two
    placed items in ascending order and returns the gap x falls in: 0
    below pivots[0], 1 above it or between the two, 2 above the second.
    Each call cuts the gaps still open into ``ways`` runs of near-equal
    size, the longest first, so no run exceeds ceil(open/ways); with ways
    3 and two gaps open, locate gets a single pivot.
    """
    if ways not in (2, 3):
        raise ValueError(f"ways must be 2 or 3, got {ways}")
    out = list(placed)
    count = 0
    for x in items:
        lo, hi = 0, len(out)  # x belongs in one of the gaps lo..hi
        while lo < hi:
            span = hi - lo + 1
            count += 1
            # a run of gaps starting at gap c has the item out[c-1] just below
            if ways == 2 or span == 2:
                cut = lo + (span + 1) // 2
                if locate(x, (out[cut - 1],)):
                    lo = cut
                else:
                    hi = cut - 1
                continue
            cut1, cut2 = lo + (span + 2) // 3, lo + (2 * span + 2) // 3
            gap = locate(x, (out[cut1 - 1], out[cut2 - 1]))
            if gap == 0:
                hi = cut1 - 1
            elif gap == 1:
                lo, hi = cut1, cut2 - 1
            else:
                lo = cut2
        out.insert(lo, x)
    return out, count


def insertion_sort_comparison_bound(m: int, ways: int = 2, placed: int = 0) -> int:
    """Worst-case comparison count of insertion_sort inserting m items into
    a list of ``placed``: the sum of ceil(log_ways(i+1)) over the list
    lengths i met."""
    total = 0
    for i in range(placed, placed + m):
        calls, reach = 0, 1
        while reach < i + 1:
            calls, reach = calls + 1, reach * ways
        total += calls
    return total
