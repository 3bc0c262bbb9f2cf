"""Passive-stream recovery: ineligible detection, anchored closure, coverage."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicelab.core import (
    InvalidQueryError,
    LatentOrder,
    PositionSelector,
    all_ksets,
    evaluate,
    evaluate_many,
    ineligible_set,
)
from choicelab.oracles import (
    DeterministicOracle,
    ObservationBatch,
    StreamConfig,
    sample_phase,
)
from choicelab.passive import (
    UNRESOLVED,
    InconsistentStreamError,
    InsufficientCoverageError,
    answer_many,
    answer_query,
    build_partial_order,
    count_revealing_brute_force,
    coverage_report,
    find_ineligible_passive,
    min_revealing_count,
    revealing_set_count,
)


def anchored_batch(order, k, position, anchors, pairs):
    """Batch of exactly the anchored sets for the given free pairs."""
    selector = PositionSelector(k, position)
    sets, choices = [], []
    for u, v in pairs:
        s = tuple(sorted((u, v) + tuple(anchors)))
        sets.append(s)
        choices.append(evaluate(selector, order, s))
    return ObservationBatch(np.array(sets), np.array(choices))


class TestFindIneligible:
    def test_full_batch_exact(self):
        n, k, position = 8, 3, 2
        order = LatentOrder.identity(n)
        oracle = DeterministicOracle(PositionSelector(k, position), order)
        sets = np.array(list(itertools.combinations(range(n), k)))
        batch = ObservationBatch(sets, oracle.query_many(sets))
        assert find_ineligible_passive(batch, n) == ineligible_set(oracle.selector, order)

    def test_empty_batch_insufficient(self):
        batch = ObservationBatch(np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64))
        with pytest.raises(InsufficientCoverageError) as err:
            find_ineligible_passive(batch, 7)
        assert err.value.never_chosen == frozenset(range(7))

    def test_monte_carlo_n50(self):
        n, k, position, b = 50, 3, 2, 8
        stream = StreamConfig.from_coverage(b, n)
        rng = np.random.default_rng(21)
        hits = 0
        trials = 500
        for t in range(trials):
            order = LatentOrder.random(n, rng)
            oracle = DeterministicOracle(PositionSelector(k, position), order)
            batch = sample_phase(stream, 1, n, k, oracle, rng)
            try:
                found = find_ineligible_passive(batch, n)
            except InsufficientCoverageError:
                continue
            if found == ineligible_set(oracle.selector, order):
                hits += 1
        assert hits >= int(0.95 * trials)


class TestBuildPartialOrder:
    def test_all_pairs_give_total_order(self):
        n, k, position = 8, 3, 2
        order = LatentOrder.identity(n)
        anchors = (0,)
        pairs = list(itertools.combinations(range(1, n), 2))
        batch = anchored_batch(order, k, position, anchors, pairs)
        po = build_partial_order(batch, n, anchors, position)
        assert po.unresolved_pair_count == 0
        assert po.resolved_pair_fraction == 1.0

    def test_chain_closure(self):
        n, k, position = 8, 3, 2
        order = LatentOrder.identity(n)
        anchors = (0,)
        batch = anchored_batch(order, k, position, anchors, [(1, 2), (2, 3)])
        po = build_partial_order(batch, n, anchors, position)
        assert po.resolved(1, 3)  # transitivity
        assert not po.resolved(1, 4)
        assert not po.resolved(3, 4)

    def test_contradictory_pair_detected(self):
        sets = np.array([[0, 1, 2], [0, 1, 2]])
        choices = np.array([1, 2])
        batch = ObservationBatch(sets, choices)
        with pytest.raises(InconsistentStreamError):
            build_partial_order(batch, 3, (0,), 2)

    def test_anchor_choice_detected(self):
        batch = ObservationBatch(np.array([[0, 1, 2]]), np.array([0]))
        with pytest.raises(InconsistentStreamError):
            build_partial_order(batch, 3, (0,), 2)

    def test_monotone_coverage_under_superset_coupling(self):
        n, k, position = 12, 3, 2
        order = LatentOrder.identity(n)
        anchors = (0,)
        pairs = list(itertools.combinations(range(1, n), 2))
        uniforms = np.random.default_rng(31).random(len(pairs))
        fractions = []
        for p in (0.1, 0.3, 0.5, 0.8):
            chosen = [pr for pr, u in zip(pairs, uniforms) if u < p]
            if not chosen:
                fractions.append(0.0)
                continue
            batch = anchored_batch(order, k, position, anchors, chosen)
            po = build_partial_order(batch, n, anchors, position)
            fractions.append(po.resolved_pair_fraction)
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))


    def test_unanchored_rows_ignored(self):
        # k=4, two anchors: rows holding one or no anchor have 3 or 4 free
        # members and must not orient anything
        n, k, position = 9, 4, 2
        order = LatentOrder.identity(n)  # ineligible: 0 below, 7 and 8 above
        anchors = (0, 8)
        pairs = [(2, 3), (3, 4), (5, 6), (6, 7)]
        anchored = anchored_batch(order, k, position, anchors, pairs)
        others = np.array([[0, 2, 5, 6], [1, 4, 7, 8], [2, 3, 4, 5], [1, 3, 6, 7]])
        oracle = DeterministicOracle(PositionSelector(k, position), order)
        mixed = ObservationBatch(
            np.concatenate([others[:2], anchored.sets, others[2:]]),
            np.concatenate([oracle.query_many(others[:2]), anchored.choices,
                            oracle.query_many(others[2:])]),
        )
        want = build_partial_order(anchored, n, anchors, position)
        got = build_partial_order(mixed, n, anchors, position)
        assert np.array_equal(got.elements, want.elements)
        assert np.array_equal(got.beats, want.beats)


    def test_three_cycle_detected(self):
        # 2 beats 1, 3 beats 2, 1 beats 3: no pair contradicts directly
        batch = ObservationBatch(
            np.array([[0, 1, 2], [0, 2, 3], [0, 1, 3]]), np.array([2, 3, 1])
        )
        with pytest.raises(InconsistentStreamError, match="cycle"):
            build_partial_order(batch, 4, (0,), 2)

    def test_unobserved_id_counts_toward_universe(self):
        # id 7 appears in no record; its 6 pairs stay unresolved
        n, k, position = 8, 3, 2
        order = LatentOrder.identity(n)
        pairs = list(itertools.combinations(range(1, 7), 2))
        batch = anchored_batch(order, k, position, (0,), pairs)
        po = build_partial_order(batch, n, (0,), position)
        assert po.universe_size == n
        assert po.unresolved_pair_count == 6
        assert po.resolved_pair_fraction == pytest.approx(15 / 21)
        assert not po.resolved(1, 7)

    def test_out_of_range_anchor_rejected(self):
        batch = ObservationBatch(np.array([[0, 1, 2]]), np.array([1]))
        for anchors in ((-1,), (3,)):
            with pytest.raises(InvalidQueryError):
                build_partial_order(batch, 3, anchors, 2)


class TestAnswerQuery:
    def setup_method(self):
        self.n, self.k, self.position = 9, 3, 2
        self.order = LatentOrder.identity(self.n)
        self.anchors = (0,)
        pairs = list(itertools.combinations(range(1, self.n), 2))
        pairs.remove((4, 5))  # leave one adjacent pair unobserved
        batch = anchored_batch(self.order, self.k, self.position, self.anchors, pairs)
        self.po = build_partial_order(batch, self.n, self.anchors, self.position)

    def test_resolved_median(self):
        assert answer_query(self.po, (1, 3, 7)) == 3

    def test_anchor_set_unresolved(self):
        assert answer_query(self.po, (0, 2, 3)) is UNRESOLVED

    def test_unresolved_pair_propagates(self):
        assert answer_query(self.po, (4, 5, 8)) is UNRESOLVED

    def test_out_of_range_ids_rejected(self):
        for bad in ([[-1, 2, 3]], [[1, 2, 9]], [[1, 2]]):
            with pytest.raises(InvalidQueryError):
                answer_many(self.po, bad, self.position)
            with pytest.raises(InvalidQueryError):
                answer_query(self.po, bad[0])

    def test_vectorized_matches_scalar(self):
        sets = np.array(list(itertools.combinations(range(self.n), self.k)))
        answers = answer_many(self.po, sets, self.position)
        for row, got in zip(sets, answers):
            scalar = answer_query(self.po, tuple(row))
            assert (got == -1 and scalar is UNRESOLVED) or got == scalar


class TestCoverage:
    def test_perfect_model(self):
        n, k, position = 8, 3, 2
        order = LatentOrder.identity(n)
        anchors = (0,)
        pairs = list(itertools.combinations(range(1, n), 2))
        batch = anchored_batch(order, k, position, anchors, pairs)
        po = build_partial_order(batch, n, anchors, position)
        # anchor-containing sets stay unresolved; everything in range is exact
        report = coverage_report(po, PositionSelector(k, position), order)
        anchor_sets = math.comb(n - 1, k - 1) / math.comb(n, k)
        assert report.frac_correct == pytest.approx(1.0 - anchor_sets)
        assert report.frac_unresolved == pytest.approx(anchor_sets)

    def test_single_missing_pair_cost(self):
        n, k, position = 10, 3, 2
        order = LatentOrder.identity(n)
        anchors = (0,)
        all_pairs = list(itertools.combinations(range(1, n), 2))
        full = build_partial_order(
            anchored_batch(order, k, position, anchors, all_pairs), n, anchors, position
        )
        missing = [p for p in all_pairs if p != (4, 5)]
        partial = build_partial_order(
            anchored_batch(order, k, position, anchors, missing), n, anchors, position
        )
        sets = np.array(list(itertools.combinations(range(n), k)))
        truth = evaluate_many(PositionSelector(k, position), order, sets)
        wrong_full = int((answer_many(full, sets, position) != truth).sum())
        wrong_partial = int((answer_many(partial, sets, position) != truth).sum())
        extra = wrong_partial - wrong_full
        contain_both = int(((sets == 4).any(axis=1) & (sets == 5).any(axis=1)).sum())
        assert extra <= math.comb(n - 2, k - 2)
        assert extra == contain_both - 1  # {0,4,5} was already unresolved

    def test_soundness_resolved_answers_exact(self):
        n, k, position = 40, 3, 2
        stream = StreamConfig.from_coverage(8, n)
        rng = np.random.default_rng(41)
        selector = PositionSelector(k, position)
        for t in range(5):
            order = LatentOrder.random(n, rng)
            oracle = DeterministicOracle(selector, order)
            b1 = sample_phase(stream, 1, n, k, oracle, rng)
            b2 = sample_phase(stream, 2, n, k, oracle, rng)
            never = find_ineligible_passive(b1, n)
            assert never == ineligible_set(selector, order)
            anchors = sorted(never)[: k - 2]
            po = build_partial_order(b2, n, anchors, position)
            sets = np.array(list(itertools.combinations(range(n), k)))
            truth = evaluate_many(selector, order, sets)
            sound = []
            for pos in (position, k - position + 1):
                ans = answer_many(po, sets, pos)
                resolved = ans != -1
                sound.append(bool((ans[resolved] == truth[resolved]).all()))
            assert any(sound)  # one global reading is consistent, hence exact

    def test_report_json_fields(self):
        import json

        n, k, position = 8, 3, 2
        order = LatentOrder.identity(n)
        anchors = (0,)
        pairs = list(itertools.combinations(range(1, n), 2))
        po = build_partial_order(
            anchored_batch(order, k, position, anchors, pairs), n, anchors, position
        )
        report = coverage_report(
            po, PositionSelector(k, position), order, b=8.0, p1=0.5, p2=0.7
        )
        data = json.loads(report.to_json())
        assert set(data) == {"n", "k", "ell", "b", "frac_correct",
                             "frac_unresolved", "p1", "p2"}
        assert data["ell"] == position

    def test_phase_one_unaffected_by_phase_two_seed(self):
        n, k = 30, 3
        stream = StreamConfig.from_coverage(8, n)
        order = LatentOrder.identity(n)
        selector = PositionSelector(k, 2)
        results = []
        for phase2_seed in (1, 2):
            oracle = DeterministicOracle(selector, order)
            b1 = sample_phase(stream, 1, n, k, oracle, np.random.default_rng(77))
            sample_phase(stream, 2, n, k, oracle, np.random.default_rng(phase2_seed))
            results.append(find_ineligible_passive(b1, n))
        assert results[0] == results[1]


class TestRevealingCounts:
    def test_formula_matches_enumeration(self):
        for n in range(6, 13):
            for k in (3, 4):
                if n < k + 1:
                    continue
                for position in range(2, k):
                    lo, hi = position - 1, n - 1 - (k - position)
                    for rank in range(lo, hi + 1):
                        assert revealing_set_count(
                            n, k, position, rank
                        ) == count_revealing_brute_force(n, k, position, rank)

    def test_k3_minimum_is_exactly_n_minus_2(self):
        for n in range(5, 31):
            assert min_revealing_count(n, 3, 2) == n - 2


@st.composite
def anchored_streams(draw):
    """A random small order and position, anchored on k-2 of its
    ineligibles, and a random nonempty set of observed anchored pairs."""
    k = draw(st.integers(3, 4))
    n = draw(st.integers(k + 1, 9))
    position = draw(st.integers(2, k - 1))
    order = LatentOrder(draw(st.permutations(range(n))))
    anchors = sorted(ineligible_set(PositionSelector(k, position), order))[: k - 2]
    free = [x for x in range(n) if x not in anchors]
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(free, 2))),
                          min_size=1, unique=True))
    po = build_partial_order(anchored_batch(order, k, position, anchors, pairs),
                             n, anchors, position)
    return order, PositionSelector(k, position), po


@settings(max_examples=100, deadline=None, database=None)
@given(case=anchored_streams())
def test_answer_query_is_answer_many_and_sound(case):
    order, selector, po = case
    sets = all_ksets(order.n, selector.k)
    truth = evaluate_many(selector, order, sets)
    sound = []
    for pos in (selector.position, selector.k - selector.position + 1):
        many = answer_many(po, sets, pos)
        scalar = [answer_query(po, row, pos) for row in sets]
        assert scalar == [UNRESOLVED if a == -1 else a for a in many.tolist()]
        resolved = many != -1
        sound.append(bool((many[resolved] == truth[resolved]).all()))
    assert any(sound)  # every resolved answer holds under one global reading
