"""Deterministic comparison sorts with exact comparison counting.

Two sorts, each with its worst-case count, which every query budget in
this package is checked against:

- ``merge_sort``, a top-down merge sort over a binary ``less``, at most
  m*ceil(log2 m) - 2^ceil(log2 m) + 1 comparisons. It serves the
  noisy sequential-vote sort, the pairwise-distance sort and the small
  seed block of the active recovery.
- ``insertion_sort``, which places items one at a time into a sorted list
  through choice probes: each probe asks a chooser for one member of a
  pair, or of a triple of the item and two placed items, and reads from
  the answer the gap the item falls in. With w-way answers (w = 2 or 3)
  an item placed among i sorted items costs at most ceil(log_w(i+1))
  probes: binary insertion (Knuth, TAOCP vol. 3, 5.3.1) with w outcomes
  per probe. It serves the active recovery past its seed block: ternary
  median queries for compromise rules, padded pairs at the extreme
  positions, each probe one oracle query with no comparator in between.
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
    ask: Callable[[tuple], T],
    ways: int = 2,
    placed: Sequence[T] = (),
    pair_pad: tuple = (),
    triple_pad: tuple = (),
    error: type = ValueError,
):
    """Insert ``items``, in order, into the ascending list ``placed``;
    returns (sorted_list, probe_count).

    Each probe is one call of ``ask`` on a tuple, answered with one of its
    members:

    - a pair probe ``ask((p, x) + pair_pad)``, p a placed item, answers x
      when x lies above p and p when it lies below;
    - with ways 3, a triple probe ``ask((x, p, q) + triple_pad)``, placed
      items p < q, answers p, x or q when x falls below p, between the two
      or above q: gap 0, 1 or 2.

    Any other answer raises ``error``. Each probe cuts the gaps still open
    into ``ways`` runs of near-equal size, the longest first, so no run
    exceeds ceil(open/ways); with ways 3 and two gaps open, the probe is a
    pair probe.
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
                p = out[cut - 1]
                winner = ask((p, x) + pair_pad)
                if winner == x:
                    lo = cut
                elif winner == p:
                    hi = cut - 1
                else:
                    raise error(
                        f"padded comparison {(p, x) + pair_pad} answered with an anchor: {winner}"
                    )
                continue
            cut1, cut2 = lo + (span + 2) // 3, lo + (2 * span + 2) // 3
            p, q = out[cut1 - 1], out[cut2 - 1]
            winner = ask((x, p, q) + triple_pad)
            if winner == p:
                hi = cut1 - 1
            elif winner == x:
                lo, hi = cut1, cut2 - 1
            elif winner == q:
                lo = cut2
            else:
                raise error(f"insertion query {(x, p, q) + triple_pad} answered {winner}")
        out.insert(lo, x)
    return out, count


def insertion_sort_comparison_bound(m: int, ways: int = 2, placed: int = 0) -> int:
    """Worst-case comparison count of insertion_sort inserting m items into
    a list of ``placed``: the sum of ceil(log_ways(i+1)) over the list
    lengths i met."""
    if ways not in (2, 3):
        raise ValueError(f"ways must be 2 or 3, got {ways}")
    if m < 0 or placed < 0:
        raise ValueError(f"item counts must be non-negative, got m={m}, placed={placed}")
    total = 0
    for i in range(placed, placed + m):
        calls, reach = 0, 1
        while reach < i + 1:
            calls, reach = calls + 1, reach * ways
        total += calls
    return total
