"""Judges of truth: independent counts and worst-case bounds that the
tests hold choicelab's algorithms to. The package never calls them, so
they judge no arguments of their own; each is called only with sizes its
tests choose."""

import itertools

from choicelab.oracles import revealing_counts


def count_revealing_brute_force(n: int, k: int, position: int, rank: int) -> int:
    """Enumerate every k-set of [0, n) that holds the element of the given
    rank (identity order) and count those whose position-th smallest member
    it is: the enumeration that oracles.revealing_counts must match."""
    others = [x for x in range(n) if x != rank]
    return sum(
        sorted(combo + (rank,))[position - 1] == rank
        for combo in itertools.combinations(others, k - 1)
    )


def min_revealing_count(n: int, k: int, position: int) -> int:
    """Minimum revealing-set count over all eligible elements, those with
    rank in [position-1, n-k+position-1], from oracles.revealing_counts."""
    return int(revealing_counts(n, k, position)[position - 1 : n - k + position].min())


def merge_sort_comparison_bound(m: int) -> int:
    """Worst-case comparison count of sorting.merge_sort on m items:
    m*ceil(log2 m) - 2^ceil(log2 m) + 1, and 0 below two items."""
    if m <= 1:
        return 0
    ceil_lg = (m - 1).bit_length()
    return m * ceil_lg - 2**ceil_lg + 1


def insertion_sort_comparison_bound(m: int, ways: int = 2, placed: int = 0) -> int:
    """Worst-case probe count of sorting.insertion_sort inserting m items
    into a list of ``placed``: the sum of ceil(log_ways(i+1)) over the list
    lengths i met. Lengths in [ways^(c-1), ways^c) each cost c probes, so
    the sum runs over those blocks, not over every length."""
    end, total = placed + m, 0
    calls, low, reach = 0, 0, 1  # lengths low..reach-1 cost calls probes
    while low < end:
        total += calls * max(0, min(reach, end) - max(low, placed))
        calls, low, reach = calls + 1, reach, reach * ways
    return total
