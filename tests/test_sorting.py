"""Counting merge sort used by every comparison-budgeted algorithm."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from choicelab.sorting import merge_sort, merge_sort_comparison_bound


def test_sorts_correctly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        items = list(rng.integers(0, 1000, size=rng.integers(0, 40)))
        got, _ = merge_sort(items, lambda a, b: a < b)
        assert got == sorted(items)


def test_stability():
    items = [(1, "a"), (0, "b"), (1, "c"), (0, "d")]
    got, _ = merge_sort(items, lambda a, b: a[0] < b[0])
    assert got == [(0, "b"), (0, "d"), (1, "a"), (1, "c")]


def test_comparison_bound_holds():
    rng = np.random.default_rng(1)
    for m in (2, 3, 7, 16, 31, 98, 255):
        items = list(rng.permutation(m))
        _, count = merge_sort(items, lambda a, b: a < b)
        assert count <= merge_sort_comparison_bound(m)


def test_bound_edge_cases():
    assert merge_sort_comparison_bound(0) == 0
    assert merge_sort_comparison_bound(1) == 0
    assert merge_sort_comparison_bound(2) == 1
    # 98 elements stay under the 600 budget used by the n=100 recovery check
    assert merge_sort_comparison_bound(98) <= 600


@settings(max_examples=200, deadline=None, database=None)
@given(items=st.lists(st.integers(), unique=True, max_size=80))
def test_sorted_within_bound(items):
    calls = []

    def less(a, b):
        calls.append((a, b))
        return a < b

    got, count = merge_sort(items, less)
    assert got == sorted(items)
    assert count == len(calls) <= merge_sort_comparison_bound(len(items))
