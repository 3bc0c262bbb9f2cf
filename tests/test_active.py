"""Active recovery: discard pass, anchored sort, position query, classification."""

import itertools
import math

import numpy as np
import pytest

from choicelab import active
from choicelab.active import (
    InconsistentOracleError,
    RecoveredModel,
    classify_type,
    discard_ineligible,
    predict,
    predict_many,
    recover_choice_function,
)
from choicelab.core import (
    InvalidQueryError,
    LatentOrder,
    PositionSelector,
    all_ksets,
    canonical_position,
    evaluate,
    evaluate_many,
    ineligible_set,
    kset,
)
from choicelab.harness import sorting_lower_bound
from choicelab.oracles import DeterministicOracle


class RecordingOracle(DeterministicOracle):
    """Logs every queried set, normalised, in issue order."""

    def __init__(self, selector, order):
        super().__init__(selector, order)
        self.log = []

    def query(self, s):
        self.log.append(kset(s))
        return super().query(s)


def make_oracle(n, k, position, order=None):
    order = order if order is not None else LatentOrder.identity(n)
    return DeterministicOracle(PositionSelector(k, position), order), order


class TestDiscard:
    def test_middle_selector_small(self):
        oracle, order = make_oracle(6, 3, 2)
        found = discard_ineligible(oracle)
        assert found == frozenset({0, 5})
        assert oracle.query_count == 4
        assert found == ineligible_set(oracle.selector, order)

    def test_min_selector(self):
        oracle, _ = make_oracle(4, 3, 1)
        assert discard_ineligible(oracle) == frozenset({2, 3})
        assert oracle.query_count == 2

    def test_pair_max_selector(self):
        oracle, _ = make_oracle(10, 2, 2)
        assert discard_ineligible(oracle) == frozenset({0})
        assert oracle.query_count == 9

    def test_exact_query_count_and_agreement(self):
        rng = np.random.default_rng(0)
        for n, k, position in [(8, 3, 2), (9, 4, 4), (12, 5, 3)]:
            order = LatentOrder.random(n, rng)
            oracle, _ = make_oracle(n, k, position, order)
            found = discard_ineligible(oracle)
            assert oracle.query_count == n - k + 1
            assert found == ineligible_set(oracle.selector, order)


class TestRecover:
    def test_exhaustive_small_example(self):
        oracle, order = make_oracle(6, 3, 2)
        model = recover_choice_function(oracle)
        for s in itertools.combinations(range(6), 3):
            assert predict(model, s) == evaluate(oracle.selector, order, s)

    def test_exhaustive_k4(self):
        rng = np.random.default_rng(1)
        order = LatentOrder.random(12, rng)
        oracle, _ = make_oracle(12, 4, 3, order)
        model = recover_choice_function(oracle)
        sets = np.array(list(itertools.combinations(range(12), 4)))
        assert len(sets) == 495
        assert (predict_many(model, sets) == evaluate_many(oracle.selector, order, sets)).all()

    def test_query_budget_n100(self):
        oracle, _ = make_oracle(100, 3, 2)
        model = recover_choice_function(oracle)
        stats = model.stats
        assert stats.discard_queries == 98
        assert stats.sort_comparisons <= 600
        assert stats.position_queries == 1
        assert stats.classification_queries == 2
        assert oracle.query_count == stats.total
        assert oracle.query_count <= 2 * 100 * math.log2(100) + 2 * 3

    def test_query_identity_total(self):
        rng = np.random.default_rng(2)
        for n, k, position in [(10, 3, 2), (11, 4, 2), (13, 5, 5)]:
            order = LatentOrder.random(n, rng)
            oracle, _ = make_oracle(n, k, position, order)
            model = recover_choice_function(oracle)
            s = model.stats
            assert oracle.query_count == (n - k + 1) + s.sort_comparisons + 1 + (k - 1)

    def test_lower_bound_sanity(self):
        for n, k in [(16, 3), (64, 3), (20, 4)]:
            oracle, _ = make_oracle(n, k, 2)
            recover_choice_function(oracle)
            assert oracle.query_count >= sorting_lower_bound(n, k)

    def test_ineligible_split_sizes(self):
        rng = np.random.default_rng(3)
        for position in range(1, 5):
            order = LatentOrder.random(11, rng)
            oracle, _ = make_oracle(11, 4, position, order)
            model = recover_choice_function(oracle)
            assert len(model.bottom_ineligible) == model.position_hat - 1
            assert len(model.top_ineligible) == model.k - model.position_hat

    def test_precondition(self):
        oracle, _ = make_oracle(4, 3, 2)  # n - k + 1 = 2 < k
        with pytest.raises(ValueError):
            recover_choice_function(oracle)

    def test_no_position_dependence_before_position_query(self):
        # the log splits by the stats counts into discard, sort, position
        # and classify queries, each of the shape its phase must issue
        rng = np.random.default_rng(5)
        for n, k, position in [(10, 3, 2), (11, 4, 1), (12, 5, 3), (9, 2, 2)]:
            oracle = RecordingOracle(PositionSelector(k, position), LatentOrder.random(n, rng))
            model = recover_choice_function(oracle)
            stats = model.stats
            assert len(oracle.log) == stats.total == oracle.query_count
            discard = stats.discard_queries
            sort_end = discard + stats.sort_comparisons
            sort_queries = oracle.log[discard:sort_end]
            position_end = sort_end + stats.position_queries
            [position_query] = oracle.log[sort_end:position_end]
            classify_queries = oracle.log[position_end:]
            assert len(classify_queries) == stats.classification_queries == k - 1

            ineligible = model.bottom_ineligible + model.top_ineligible
            padding = set(sorted(ineligible)[: k - 2])
            assert sort_queries and all(padding <= set(s) for s in sort_queries)
            assert position_query == kset(model.eligible_order[:k])
            low_block = set(model.eligible_order[: k - 1])
            assert all(low_block <= set(s) for s in classify_queries)
            assert [set(s) - low_block for s in classify_queries] == [
                {x} for x in sorted(ineligible)
            ]

    def test_reflection_blind_query_sequence(self):
        # a reflected oracle answers every set identically, so the full
        # query sequence (which never consults the position until the
        # position query) must be identical as well
        rng = np.random.default_rng(4)
        order = LatentOrder.random(9, rng)
        for k, position in [(3, 1), (3, 2), (4, 2)]:
            o1 = RecordingOracle(PositionSelector(k, position), order)
            o2 = RecordingOracle(PositionSelector(k, k - position + 1), order.reversed())
            m1 = recover_choice_function(o1)
            m2 = recover_choice_function(o2)
            assert len(o1.log) == m1.stats.total > 0
            assert o1.log == o2.log
            assert m1.position_hat == m2.position_hat
            assert m1.eligible_order == m2.eligible_order


class TestPredict:
    def test_all_eligible_set(self):
        model = RecoveredModel(
            eligible_order=(5, 2, 4, 1), position_hat=2,
            top_ineligible=(3,), bottom_ineligible=(0,),
        )
        assert predict(model, (5, 2, 4)) == 2

    def test_bottom_ineligible_shifts_window(self):
        # bottom element occupies rank 1, so rank 2 is the smaller eligible
        oracle, order = make_oracle(6, 3, 2)
        model = recover_choice_function(oracle)
        bottom = model.bottom_ineligible[0]
        e1, e2 = model.eligible_order[0], model.eligible_order[1]
        s = tuple(sorted((bottom, e1, e2)))
        assert predict(model, s) == e1
        assert predict(model, s) == evaluate(oracle.selector, order, s)

    def test_unknown_alternative_rejected(self):
        oracle, _ = make_oracle(6, 3, 2)
        model = recover_choice_function(oracle)
        with pytest.raises(InvalidQueryError):
            predict(model, (0, 1, 6))

    def test_repeated_predict_builds_order_once(self, monkeypatch):
        built = []

        def counting_order(ascending):
            built.append(ascending)
            return LatentOrder(ascending)

        monkeypatch.setattr(active, "LatentOrder", counting_order)
        rng = np.random.default_rng(6)
        oracle, _ = make_oracle(11, 4, 3, LatentOrder.random(11, rng))
        model = recover_choice_function(oracle)
        sets = all_ksets(11, 4)
        scalar = [predict(model, s) for s in sets]
        assert scalar == predict_many(model, sets).tolist()
        assert model.full_order() is model.full_order()
        assert len(built) == 1

    def test_json_roundtrip(self):
        oracle, _ = make_oracle(7, 3, 2)
        model = recover_choice_function(oracle)
        back = RecoveredModel.from_json(model.to_json())
        assert back.eligible_order == model.eligible_order
        assert back.position_hat == model.position_hat


class TestClassify:
    def test_min_selector_counts(self):
        oracle, _ = make_oracle(4, 3, 1)
        assert classify_type(oracle) == 1
        assert oracle.query_count == 4

    def test_middle_selector(self):
        oracle, _ = make_oracle(4, 3, 2)
        assert classify_type(oracle) == 2

    def test_k5_reflected(self):
        oracle, _ = make_oracle(6, 5, 4)
        assert classify_type(oracle) == 2

    def test_exhaustive_over_witnesses(self):
        rng = np.random.default_rng(5)
        n = 9
        order = LatentOrder.random(n, rng)
        for k in range(2, 7):
            for position in range(1, k + 1):
                selector = PositionSelector(k, position)
                for witness in itertools.combinations(range(n), k + 1):
                    oracle = DeterministicOracle(selector, order)
                    assert classify_type(oracle, witness) == canonical_position(selector)
                    assert oracle.query_count == k + 1

    def test_witness_size_validated(self):
        oracle, _ = make_oracle(6, 3, 2)
        with pytest.raises(InvalidQueryError):
            classify_type(oracle, witness=(0, 1, 2))

    def test_inconsistent_oracle_detected(self):
        class BrokenOracle:
            k = 3
            n = 5
            def __init__(self):
                self.calls = 0
            def query(self, s):
                self.calls += 1
                return s[self.calls % 3]  # three distinct answers across subsets

        with pytest.raises(InconsistentOracleError):
            classify_type(BrokenOracle())


class TestExhaustiveCorrectnessSweep:
    def test_small_sweep(self):
        # fuller sweep lives in the acceptance suite; this is the fast slice
        rng = np.random.default_rng(6)
        for n, k in [(5, 2), (7, 3), (9, 4)]:
            sets = np.array(list(itertools.combinations(range(n), k)))
            for position in range(1, k + 1):
                for _ in range(5):
                    order = LatentOrder.random(n, rng)
                    oracle = DeterministicOracle(PositionSelector(k, position), order)
                    model = recover_choice_function(oracle)
                    want = evaluate_many(oracle.selector, order, sets)
                    assert (predict_many(model, sets) == want).all()
