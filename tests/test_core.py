"""Core types and ground-truth evaluation, checked against brute-force enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicelab.core import (
    InvalidQueryError,
    LatentOrder,
    PositionSelector,
    _select_many,
    canonical_position,
    evaluate,
    evaluate_many,
    exhibits_choice_set_effects,
    ineligible_set,
    kset,
)
from choicelab.active import recover_choice_function
from choicelab.mixture import recover_mixed
from choicelab.oracles import (
    DeterministicOracle,
    MixedOracle,
    MixtureDistribution,
    ObservationBatch,
)
from choicelab.passive import build_partial_order


def brute_force_ineligible(selector, order):
    """Independent oracle: enumerate every k-set and collect what is never chosen."""
    chosen = set()
    for s in itertools.combinations(range(order.n), selector.k):
        chosen.add(evaluate(selector, order, s))
    return frozenset(range(order.n)) - chosen


class TestEvaluate:
    def test_compromise_choice_in_lower_window(self):
        # order A<B<C<D as ids 0<1<2<3; the middle selector takes B from {A,B,C}
        order = LatentOrder.identity(4)
        assert evaluate(PositionSelector(3, 2), order, (0, 1, 2)) == 1

    def test_compromise_choice_shifts_with_window(self):
        order = LatentOrder.identity(4)
        assert evaluate(PositionSelector(3, 2), order, (1, 2, 3)) == 2

    def test_pair_min(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            order = LatentOrder.random(8, rng)
            x, y = rng.choice(8, size=2, replace=False)
            lower = min((x, y), key=order.rank_of)
            assert evaluate(PositionSelector(2, 1), order, (x, y)) == lower

    def test_size_mismatch_rejected(self):
        order = LatentOrder.identity(5)
        with pytest.raises(InvalidQueryError):
            evaluate(PositionSelector(3, 2), order, (0, 1))

    def test_duplicate_ids_rejected(self):
        order = LatentOrder.identity(5)
        with pytest.raises(InvalidQueryError):
            evaluate(PositionSelector(3, 2), order, (0, 1, 1))

    def test_out_of_range_rejected(self):
        order = LatentOrder.identity(5)
        with pytest.raises(InvalidQueryError):
            evaluate(PositionSelector(3, 2), order, (0, 1, 7))

    def test_membership_exhaustive_small_universes(self):
        rng = np.random.default_rng(1)
        for n in range(2, 11):
            order = LatentOrder.random(n, rng)
            for k in range(2, n + 1):
                for position in range(1, k + 1):
                    selector = PositionSelector(k, position)
                    for s in itertools.combinations(range(n), k):
                        assert evaluate(selector, order, s) in s

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        order = LatentOrder.random(9, rng)
        selector = PositionSelector(4, 3)
        sets = np.array(list(itertools.combinations(range(9), 4)))
        answers = evaluate_many(selector, order, sets)
        for row, ans in zip(sets, answers):
            assert evaluate(selector, order, tuple(row)) == ans


class TestReflectionEquivalence:
    def test_reflected_selector_over_reversed_order(self):
        rng = np.random.default_rng(3)
        for n, k in [(6, 3), (8, 4), (7, 5)]:
            order = LatentOrder.random(n, rng)
            reversed_order = order.reversed()
            for position in range(1, k + 1):
                a = PositionSelector(k, position)
                b = PositionSelector(k, k - position + 1)
                for s in itertools.combinations(range(n), k):
                    assert evaluate(a, order, s) == evaluate(b, reversed_order, s)


class TestIneligibleSet:
    def test_middle_selector_excludes_extremes(self):
        order = LatentOrder.identity(6)
        selector = PositionSelector(3, 2)
        expected = brute_force_ineligible(selector, order)
        assert expected == frozenset({0, 5})
        assert ineligible_set(selector, order) == expected

    def test_min_selector_excludes_maxima(self):
        order = LatentOrder.identity(6)
        assert ineligible_set(PositionSelector(3, 1), order) == frozenset({4, 5})

    def test_asymmetric_selector(self):
        order = LatentOrder.identity(5)
        selector = PositionSelector(4, 3)
        expected = brute_force_ineligible(selector, order)
        assert expected == frozenset({0, 1, 4})
        assert ineligible_set(selector, order) == expected

    def test_size_and_agreement_with_enumeration(self):
        rng = np.random.default_rng(4)
        for n in range(4, 10):
            order = LatentOrder.random(n, rng)
            for k in range(2, min(5, n) + 1):
                for position in range(1, k + 1):
                    selector = PositionSelector(k, position)
                    got = ineligible_set(selector, order)
                    assert len(got) == k - 1
                    assert got == brute_force_ineligible(selector, order)


class TestCanonicalPosition:
    @pytest.mark.parametrize(
        "k,position,expected", [(3, 3, 1), (5, 4, 2), (4, 2, 2), (2, 1, 1), (7, 4, 4)]
    )
    def test_values(self, k, position, expected):
        assert canonical_position(PositionSelector(k, position)) == expected


class TestChoiceSetEffects:
    def test_middle_of_three(self):
        assert exhibits_choice_set_effects(PositionSelector(3, 2))

    def test_pure_min(self):
        assert not exhibits_choice_set_effects(PositionSelector(2, 1))

    def test_pure_max(self):
        assert not exhibits_choice_set_effects(PositionSelector(4, 4))


class TestLatentOrder:
    def test_rank_roundtrip(self):
        order = LatentOrder((3, 0, 2, 1))
        for i in range(4):
            assert order.id_at(order.rank_of(i)) == i

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            LatentOrder((0, 0, 1))
        with pytest.raises(ValueError):
            LatentOrder((1, 2, 3))

    @pytest.mark.parametrize("ids", [[0.0, 1.7, 2.2], [0.0, 1.0, 2.0], np.array([2.0, 0.0, 1.0])])
    def test_rejects_float_ids(self, ids):
        with pytest.raises(ValueError, match="integers"):
            LatentOrder(ids)

    @pytest.mark.parametrize("values", [[0.1, np.nan, 0.3], [np.nan], [np.nan, np.nan]])
    def test_from_values_rejects_nan(self, values):
        with pytest.raises(ValueError, match="NaN"):
            LatentOrder.from_values(values)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_accepts_numpy_integer_ids(self, dtype):
        order = LatentOrder(np.array([2, 0, 1], dtype=dtype))
        assert order == LatentOrder([2, 0, 1])
        assert order.n == 3 and type(order.n) is int
        assert order.rank_of(np.int64(0)) == 1 and type(order.rank_of(0)) is int

    def test_monotone_relabeling_leaves_choices_unchanged(self):
        # comparison-based: only the induced order matters, not coordinates
        rng = np.random.default_rng(5)
        values = rng.normal(size=8)
        base = LatentOrder.from_values(values)
        selector = PositionSelector(3, 2)
        for _ in range(10):
            scale = rng.uniform(0.1, 5.0)
            shift = rng.normal()
            warped = LatentOrder.from_values(np.exp(scale * values) + shift)
            assert warped == base
            for s in itertools.combinations(range(8), 3):
                assert evaluate(selector, base, s) == evaluate(selector, warped, s)

    BAD_IDS = [True, False, 1.0, np.float64(2), -1, -4, 4, "1", None]

    @pytest.mark.parametrize("x", BAD_IDS)
    def test_rank_of_refuses_what_is_not_an_id(self, x):
        # never read as another id: a bool as 0 or 1, -1 as the last entry
        with pytest.raises(InvalidQueryError, match=r"integer in \[0, 4\)"):
            LatentOrder((3, 0, 2, 1)).rank_of(x)

    @pytest.mark.parametrize("x", BAD_IDS)
    def test_id_at_refuses_what_is_not_a_rank(self, x):
        with pytest.raises(InvalidQueryError, match=r"integer in \[0, 4\)"):
            LatentOrder((3, 0, 2, 1)).id_at(x)

    @pytest.mark.parametrize(
        "ids", [[0.9, True], [1.0, 2.0], [True, False], [0, -1], [[0, 1], [2, 4]]]
    )
    def test_ranks_refuses_what_is_not_an_id(self, ids):
        with pytest.raises(InvalidQueryError, match=r"integers in \[0, 4\)"):
            LatentOrder((3, 0, 2, 1)).ranks(ids)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_constructor_copies_the_callers_array(self, dtype):
        ids = np.array([3, 0, 2, 1], dtype=dtype)
        order = LatentOrder(ids)
        assert ids.flags.writeable  # still the caller's to write
        ids[:] = [0, 1, 2, 3]
        assert order.ascending.tolist() == [3, 0, 2, 1] and order.rank_of(3) == 0
        assert not order.ascending.flags.writeable

    def test_lookups_take_numpy_integers(self):
        order = LatentOrder((3, 0, 2, 1))
        assert order.id_at(np.uint8(0)) == 3 and type(order.id_at(np.int64(3))) is int
        assert order.rank_of(np.int32(3)) == 0
        ids = np.array([[3, 0], [2, 1]], dtype=np.uint16)
        assert order.ranks(ids).tolist() == [[0, 1], [2, 3]]
        assert order.ranks([]).size == 0


def assert_same_order(got: LatentOrder, want: LatentOrder):
    """got and want agree field by field, as the checked constructor fills them."""
    assert type(got) is LatentOrder
    assert got.ascending.tolist() == want.ascending.tolist()
    assert got.ascending.dtype == want.ascending.dtype == np.int64
    assert got._rank.tolist() == want._rank.tolist()
    assert got._rank.dtype == want._rank.dtype == np.int64
    assert got._rank_list == want._rank_list
    assert all(type(r) is int for r in got._rank_list)
    assert got.n == want.n and type(got.n) is int
    assert not got.ascending.flags.writeable and not want.ascending.flags.writeable
    assert not got._rank.flags.writeable and not want._rank.flags.writeable
    assert got == want and hash(got) == hash(want)


class TestTrustedOrders:
    """Every order the package builds as a permutation by construction
    skips the constructor's check and equals the checked build of its ids."""

    @pytest.mark.parametrize("n", [1, 2, 10, 257])
    def test_random(self, n):
        got = LatentOrder.random(n, np.random.default_rng(n))
        assert_same_order(got, LatentOrder(np.random.default_rng(n).permutation(n)))

    @pytest.mark.parametrize("n", [np.int64(5), np.uint8(3)])
    def test_random_takes_numpy_sizes_through_the_check(self, n):
        got = LatentOrder.random(n, np.random.default_rng(1))
        assert_same_order(got, LatentOrder(np.random.default_rng(1).permutation(int(n))))

    @pytest.mark.parametrize("n", [0, -1, np.int64(0)])
    def test_random_refuses_an_empty_universe(self, n):
        with pytest.raises(ValueError, match="non-empty"):
            LatentOrder.random(n, np.random.default_rng(1))

    def test_reversed(self):
        order = LatentOrder.random(9, np.random.default_rng(3))
        assert_same_order(order.reversed(), LatentOrder(order.ascending.tolist()[::-1]))
        assert_same_order(order.reversed().reversed(), order)

    @pytest.mark.parametrize("k, position", [(2, 1), (3, 2), (4, 3), (5, 5)])
    def test_recovered_full_order(self, k, position):
        truth = LatentOrder.random(12, np.random.default_rng(k))
        model = recover_choice_function(DeterministicOracle(PositionSelector(k, position), truth))
        ids = list(model.bottom_ineligible) + list(model.eligible_order) + list(model.top_ineligible)
        assert_same_order(model.full_order(), LatentOrder(ids))

    def test_recover_mixed_order(self):
        truth = LatentOrder.random(10, np.random.default_rng(4))
        oracle = MixedOracle(truth, MixtureDistribution((0.2, 0.3, 0.5), 0.09), 4)
        recovered, _ = recover_mixed(oracle, 0.09, 0.1)
        assert_same_order(recovered, LatentOrder(recovered.ascending.tolist()))

    def test_passive_score_order(self):
        # anchored at the minimum, 4, with every free pair observed
        free = (0, 1, 2, 3, 5, 6)
        sets = np.array([(4, u, v) for u, v in itertools.combinations(free, 2)])
        answers = evaluate_many(PositionSelector(3, 2), LatentOrder((4, 0, 2, 6, 1, 5, 3)), sets)
        po = build_partial_order(ObservationBatch(sets, answers, 7), (4,), 2)
        scores = po.beats.sum(axis=1)
        assert_same_order(po._score_order, LatentOrder(np.argsort(scores, kind="stable")))

    # what the checked constructor refuses, with the reason it gives
    NON_PERMUTATIONS = {
        "empty": ([], "non-empty"),
        "empty-array": (np.array([], dtype=np.int64), "non-empty"),
        "repeat": ((0, 0, 1), "permutation"),
        "gap": ((1, 2, 3), "permutation"),
        "too-large": ((0, 1, 3), "permutation"),
        "negative": ((-1, 0, 1), "permutation"),
        "negative-array": (np.array([0, -2, 1]), "permutation"),
        "floats": ([0.0, 1.0], "integers"),
        "bools": ([True, False], "integers"),
        "strings": (["0", "1"], "integers"),
        "objects": (np.array([0, 1], dtype=object), "integers"),
        "square": (np.array([[0, 1], [1, 0]]), None),
        "column": ([[0], [1]], None),
    }

    @pytest.mark.parametrize("case", NON_PERMUTATIONS)
    def test_constructor_refuses_every_non_permutation(self, case):
        ids, reason = self.NON_PERMUTATIONS[case]
        with pytest.raises(ValueError, match=reason):
            LatentOrder(ids)


class TestKSet:
    def test_sorts_and_validates(self):
        assert kset((3, 1, 2)) == (1, 2, 3)
        s = kset(np.array([3, 1, 2], dtype=np.int32))
        assert s == (1, 2, 3) and all(type(x) is int for x in s)
        with pytest.raises(InvalidQueryError):
            kset((1, 1, 2))

    @pytest.mark.parametrize("ids", [
        (0.5, 1.9, 3), (0, 1.0, 2), np.array([3.0, 1.0, 2.0]), ("0", 1, 2),
        (True, 2, 3), [False, 1, 2], (0, 1, True, 3),
    ])
    def test_rejects_non_integer_ids(self, ids):
        with pytest.raises(InvalidQueryError, match="integers"):
            kset(ids)

    def test_selector_validation(self):
        with pytest.raises(ValueError):
            PositionSelector(1, 1)
        with pytest.raises(ValueError):
            PositionSelector(3, 0)
        with pytest.raises(ValueError):
            PositionSelector(3, 4)

    @pytest.mark.parametrize("k, position", [
        (3, 2.0), (3.0, 2), (3, True), (True, 1), (3, np.float64(2.0)), (3, "2"), (3, None),
    ])
    def test_selector_rejects_bools_and_non_integers(self, k, position):
        with pytest.raises(ValueError, match="integer|position must lie in"):
            PositionSelector(k, position)

    @pytest.mark.parametrize("dtype", [int, np.int64, np.int32, np.uint8])
    def test_selector_accepts_any_integer_type(self, dtype):
        selector = PositionSelector(dtype(3), dtype(2))
        assert selector == PositionSelector(3, 2)
        assert evaluate(selector, LatentOrder.identity(5), (4, 0, 2)) == 2


def reference_select_many(position, order, sets):
    """The stable-argsort selection that _select_many replaced."""
    idx = np.argsort(order.ranks(sets), axis=1, kind="stable")[:, position - 1]
    return sets[np.arange(sets.shape[0]), idx]


def random_rows(rng, n, k, m, layout):
    """m rows of k distinct ids from [0, n), in random order within each
    row; builds an (m, n) temporary, so keep n small."""
    rows = rng.random((m, n)).argsort(axis=1)[:, :k]
    return np.asfortranarray(rows) if layout == "F" else np.ascontiguousarray(rows)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(2, 9),
    extra=st.integers(0, 30),
    m=st.one_of(st.integers(0, 5), st.integers(6, 3000)),
    layout=st.sampled_from("CF"),
    seed=st.integers(0, 2**32 - 1),
)
def test_select_many_matches_argsort_reference(k, extra, m, layout, seed):
    # k up to 9 runs the compare-exchange network at up to five passes;
    # F-ordered rows are what unranking gives
    rng = np.random.default_rng(seed)
    n = k + extra
    order = LatentOrder.random(n, rng)
    sets = random_rows(rng, n, k, m, layout)
    before = sets.copy()
    for position in range(1, k + 1):
        got = _select_many(position, order, sets)
        assert got.dtype == np.int64 and got.shape == (m,)
        assert np.array_equal(got, reference_select_many(position, order, sets))
    assert np.array_equal(sets, before)


@pytest.mark.parametrize("k", [3, 5, 8])
def test_select_many_large_arrays(k):
    rng = np.random.default_rng(k)
    order = LatentOrder.random(k + 6, rng)
    sets = random_rows(rng, k + 6, k, 200_000, "F")
    for position in range(1, k + 1):
        got = evaluate_many(PositionSelector(k, position), order, sets)
        assert np.array_equal(got, reference_select_many(position, order, sets))
