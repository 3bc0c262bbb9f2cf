"""Counting merge and insertion sorts used by every comparison-budgeted algorithm."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicelab.sorting import insertion_sort, merge_sort
from judges import insertion_sort_comparison_bound, merge_sort_comparison_bound


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


def test_merge_sort_keeps_no_reference_to_less():
    # with the collector off, a comparator held by a reference cycle in the
    # sort would outlive the call; recovery's comparators hold their oracle
    class Less:
        def __call__(self, a, b):
            return a < b

    less = Less()
    ref = weakref.ref(less)
    gc.disable()
    try:
        assert merge_sort([3, 1, 2, 0], less)[0] == [0, 1, 2, 3]
        del less
        assert ref() is None
    finally:
        gc.enable()


def exact_choice(s):
    """Exact chooser for unpadded probes: the larger of a pair, the median
    of a triple."""
    return sorted(s)[len(s) // 2]


@settings(max_examples=200, deadline=None, database=None)
@given(
    items=st.lists(st.integers(), unique=True, max_size=80),
    seed_size=st.integers(0, 5),
    ways=st.sampled_from([2, 3]),
)
def test_insertion_sorted_within_bound(items, seed_size, ways):
    placed, rest = sorted(items[:seed_size]), items[seed_size:]
    probes = []

    def ask(s):
        # a pair (p, x) or, with ways 3, a triple (x, p, q) with p < q placed
        assert len(s) == 2 or (ways == 3 and len(s) == 3 and s[1] < s[2])
        probes.append(s)
        return exact_choice(s)

    got, count = insertion_sort(rest, ask, ways, placed)
    assert got == sorted(items)
    assert count == len(probes)
    assert count <= insertion_sort_comparison_bound(len(rest), ways, len(placed))


def test_insertion_bound_is_sum_of_ceil_logs():
    # ceil(log_w(i+1)) for i = 0..m-1, computed in floating point here
    for ways in (2, 3):
        for m in (0, 1, 2, 3, 4, 9, 10, 28, 100):
            want = sum(math.ceil(math.log(i + 1, ways) - 1e-9) for i in range(m))
            assert insertion_sort_comparison_bound(m, ways) == want
    assert insertion_sort_comparison_bound(1, 3, placed=2) == 1
    assert insertion_sort_comparison_bound(2, 2, placed=3) == 2 + 3


def test_binary_insertion_bound_is_the_merge_bound():
    # binary insertion and top-down merge sort share their worst case,
    # m*ceil(lg m) - 2^ceil(lg m) + 1 (Knuth, TAOCP vol. 3, 5.3.1), so
    # either sort fits a budget set for the other
    for m in range(3000):
        assert insertion_sort_comparison_bound(m, 2) == merge_sort_comparison_bound(m), m


def test_insertion_worst_case_meets_bound():
    # the first run is a longest one, so an item below everything placed
    # leaves ceil(open/ways) gaps per probe and takes every probe the bound allows
    for ways in (2, 3):
        for m in (1, 2, 5, 27, 28, 50):
            got, count = insertion_sort(range(m - 1, -1, -1), exact_choice, ways)
            assert got == list(range(m))
            assert count == insertion_sort_comparison_bound(m, ways)


def test_insertion_rejects_unsupported_ways():
    with pytest.raises(ValueError):
        insertion_sort([1, 2], exact_choice, ways=4)


class ProbeError(RuntimeError):
    pass


def test_pair_probe_answered_with_a_pad_raises_the_callers_error():
    # each probe is (p, x) + pair_pad; answering the pad is neither placement
    with pytest.raises(ProbeError,
                       match=r"^padded comparison \(5, 7, 100\) answered with an anchor: 100$"):
        insertion_sort([7], lambda s: s[-1], 2, [5], pair_pad=(100,), error=ProbeError)


def test_triple_probe_answered_outside_x_p_q_raises_the_callers_error():
    # three gaps open, so the first probe is (x, p, q) + triple_pad
    with pytest.raises(ProbeError, match=r"^insertion query \(7, 5, 9, 100\) answered 100$"):
        insertion_sort([7], lambda s: s[-1], 3, [5, 9], triple_pad=(100,), error=ProbeError)


def test_probe_errors_default_to_value_error():
    with pytest.raises(ValueError, match="answered with an anchor: 3"):
        insertion_sort([1], lambda s: 3, 2, [0])
    with pytest.raises(ValueError, match="answered 3"):
        insertion_sort([1], lambda s: 3, 3, [0, 2])
