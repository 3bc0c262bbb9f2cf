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
    discard_pass,
    predict,
    predict_many,
    recover_choice_function,
)
from choicelab.core import (
    InvalidQueryError,
    LatentOrder,
    PositionSelector,
    canonical_position,
    evaluate,
    evaluate_many,
    ineligible_set,
    kset,
)
from choicelab.distance import MetricPoints, median_choice
from choicelab.harness import sorting_lower_bound
from choicelab.oracles import DeterministicOracle, all_ksets


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

    def test_pass_asks_one_choice_per_round(self):
        asked = []

        def choose(members):
            asked.append(tuple(members))
            return max(members)

        assert discard_pass(7, 3, choose) == frozenset({0, 1})
        assert asked == [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 1, 6)]
        with pytest.raises(ValueError, match="n >= k\\+1"):
            discard_pass(3, 3, choose)


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
        # the log splits into discard, seed sort, position, classify and
        # insertion queries, each of the shape its phase must issue; the
        # seed is the k lowest eligible ids and the padding the k-2 lowest
        # ineligible ids, so neither depends on the position
        rng = np.random.default_rng(5)
        for n, k, position in [(10, 3, 2), (11, 4, 1), (12, 5, 3), (9, 2, 2), (11, 4, 3)]:
            oracle = RecordingOracle(PositionSelector(k, position), LatentOrder.random(n, rng))
            model = recover_choice_function(oracle)
            stats = model.stats
            log = oracle.log
            assert len(log) == stats.total == oracle.query_count
            discard = stats.discard_queries

            ineligible = model.bottom_ineligible + model.top_ineligible
            padding = set(sorted(ineligible)[: k - 2])
            seed = set(sorted(model.eligible_order)[:k])
            low_block = set([x for x in model.eligible_order if x in seed][: k - 1])
            classify = [kset(low_block | {x}) for x in sorted(ineligible)]
            # the position query is the seed itself, followed by the classify block
            [position_at] = [
                i for i in range(discard, len(log) - (k - 1))
                if log[i] == kset(seed) and log[i + 1 : i + k] == classify
            ]
            seed_sort = log[discard:position_at]
            insertion = log[position_at + k :]
            assert len(classify) == stats.classification_queries == k - 1
            assert stats.position_queries == 1
            assert len(seed_sort) + len(insertion) == stats.sort_comparisons

            assert seed_sort and all(
                padding <= set(s) <= padding | seed for s in seed_sort
            )
            assert len(insertion) >= n - 2 * k + 1
            assert all(set(s) - seed - set(ineligible) for s in insertion)

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


def reference_insertion_sort(items, locate, ways=2, placed=()):
    """The insertion sort that read each gap from a locate(x, pivots)
    comparator, kept as the reference for the choice-probe sort: locate
    gets one or two placed pivots in ascending order and returns the gap x
    falls in."""
    out = list(placed)
    count = 0
    for x in items:
        lo, hi = 0, len(out)
        while lo < hi:
            span = hi - lo + 1
            count += 1
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


def reference_recovery_insertion(items, ask, ways, placed, pair_pad, triple_pad, error):
    """Recovery's insertion as it ran through a locate closure over the
    padded-pair comparator; takes the probe sort's arguments, so it can
    stand in for active.insertion_sort."""
    def less(u, v):
        winner = ask((u, v) + pair_pad)
        if winner not in (u, v):
            raise error(f"padded comparison {(u, v) + pair_pad} answered with an anchor: {winner}")
        return winner == v

    def locate(x, pivots):
        if len(pivots) == 1:
            return int(less(pivots[0], x))
        p, q = pivots
        winner = ask((x, p, q) + triple_pad)
        if winner == p:
            return 0
        if winner == x:
            return 1
        if winner == q:
            return 2
        raise error(f"insertion query {(x, p, q) + triple_pad} answered {winner}")

    return reference_insertion_sort(items, locate, ways, placed)


class TestQueryLogMatchesLocateReference:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_same_queries_in_the_same_order(self, k, monkeypatch):
        rng = np.random.default_rng(36 + k)
        for n in (2 * k - 1, 12, 40, 300):
            for position in range(1, k + 1):
                for _ in range(3):
                    order = LatentOrder.random(n, rng)
                    got = RecordingOracle(PositionSelector(k, position), order)
                    model = recover_choice_function(got)
                    with monkeypatch.context() as patch:
                        patch.setattr(active, "insertion_sort", reference_recovery_insertion)
                        want = RecordingOracle(PositionSelector(k, position), order)
                        reference = recover_choice_function(want)
                    assert got.log == want.log
                    assert model.stats == reference.stats
                    assert model == reference
                    assert got.query_count == want.query_count == len(got.log)


class RankOracle:
    """Position-selector oracle over ranks given as a plain tuple; answers
    as DeterministicOracle does, without building a LatentOrder, so that
    every order of a small universe can be run."""

    def __init__(self, k, position, rank):
        self.n, self.k, self.position, self.rank = len(rank), k, position, rank
        self.query_count = 0

    def query(self, s):
        self.query_count += 1
        return sorted(s, key=self.rank.__getitem__)[self.position - 1]


class TestWorstCaseQueries:
    # worst-case query counts of the recovery that merge-sorted every
    # eligible, over all n! orders at each n of the rows below
    MERGE_SORT_WORST = {
        (3, 1): {5: 9, 6: 12, 7: 16, 8: 20},
        (3, 2): {5: 9, 6: 12, 7: 16, 8: 20},
        (4, 2): {7: 13, 8: 17},
    }

    @pytest.mark.parametrize("k, position", sorted(MERGE_SORT_WORST))
    def test_no_worse_than_merge_sort_over_all_orders(self, k, position):
        worst = {}
        for n in self.MERGE_SORT_WORST[k, position]:
            counts = set()
            for rank in itertools.permutations(range(n)):
                oracle = RankOracle(k, position, rank)
                recover_choice_function(oracle)
                counts.add(oracle.query_count)
            worst[n] = max(counts)
        merge = self.MERGE_SORT_WORST[k, position]
        assert all(worst[n] <= merge[n] for n in merge), (worst, merge)
        if 2 <= position <= k - 1:
            # ternary insertion pays off once the seed leaves a list to search
            assert worst[max(merge)] < merge[max(merge)], (worst, merge)

    def test_rank_oracle_answers_as_deterministic_oracle(self):
        rng = np.random.default_rng(7)
        order = LatentOrder.random(7, rng)
        rank = tuple(order.rank_of(x) for x in range(7))
        for k, position in [(3, 1), (3, 2), (4, 2)]:
            det, _ = make_oracle(7, k, position, order)
            fast = RankOracle(k, position, rank)
            assert recover_choice_function(fast) == recover_choice_function(det)


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
        trusted = LatentOrder._trusted

        def counting_order(cls, ascending):
            built.append(ascending)
            return trusted(ascending)

        rng = np.random.default_rng(6)
        oracle, _ = make_oracle(11, 4, 3, LatentOrder.random(11, rng))
        # the model's full order is a permutation by construction, built
        # with the trusted constructor; count those builds from here on
        monkeypatch.setattr(LatentOrder, "_trusted", classmethod(counting_order))
        model = recover_choice_function(oracle)
        sets = all_ksets(11, 4)
        scalar = [predict(model, s) for s in sets]
        assert scalar == predict_many(model, sets).tolist()
        assert model.full_order() is model.full_order()
        assert len(built) == 1


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


class TamperedOracle(DeterministicOracle):
    """Answers as DeterministicOracle, except that the query numbered `at`
    (from 0) is answered by tamper(s, answer), s as the recovery passed it."""

    def __init__(self, selector, order, at, tamper):
        super().__init__(selector, order)
        self.at, self.tamper, self.asked = at, tamper, 0

    def query(self, s):
        answer = super().query(s)
        self.asked += 1
        return self.tamper(list(s), answer) if self.asked == self.at + 1 else answer


class TestInconsistentOracle:
    """Each raise of recover_choice_function, reached by one tampered answer
    of an otherwise honest k=4, position-2 oracle on the identity order of
    9. Recovery reads that order reflected, so its position_hat is 3: the
    ineligibles 7 and 8 lie below the eligibles, 0 above."""

    N, K, POSITION = 9, 4, 2

    def recover(self, at, tamper):
        selector, order = PositionSelector(self.K, self.POSITION), LatentOrder.identity(self.N)
        return recover_choice_function(TamperedOracle(selector, order, at, tamper))

    @property
    def position_query(self):
        # the first query after the discard pass that holds no ineligible:
        # the seed sort pads each of its comparisons with two
        honest = RecordingOracle(PositionSelector(self.K, self.POSITION),
                                 LatentOrder.identity(self.N))
        model = recover_choice_function(honest)
        assert model.position_hat == 3
        discard = self.N - self.K + 1
        return next(i for i, s in enumerate(honest.log)
                    if i >= discard and not set(s) & {0, 7, 8})

    def test_an_untampered_oracle_recovers(self):
        model = self.recover(-1, None)
        assert (model.position_hat, model.bottom_ineligible, model.top_ineligible) == (3, (7, 8), (0,))

    def test_a_padded_comparison_answered_with_an_anchor(self):
        first_comparison = self.N - self.K + 1
        with pytest.raises(InconsistentOracleError,
                           match=r"^padded comparison \(2, 1, 0, 7\) answered with an anchor: 7$"):
            self.recover(first_comparison, lambda s, answer: s[-1])

    def test_a_position_answer_outside_its_set(self):
        def outside(s, answer):
            return next(x for x in range(self.N) if x not in s)

        with pytest.raises(InconsistentOracleError,
                           match=r"^position query answered outside its set$"):
            self.recover(self.position_query, outside)

    @pytest.mark.parametrize("at, message", [
        (0, r"^set \[0, 1, 2, 3\] answered with a non-member: 4$"),
        (5, r"^set \[0, 6, 7, 8\] answered with a non-member: 1$"),
    ], ids=["a-round", "the-final-set"])
    def test_a_discard_answer_outside_its_set(self, at, message):
        # queries 0 to N-K are the discard pass's rounds, N-K its final set
        def outside(s, answer):
            return next(x for x in range(self.N) if x not in s)

        with pytest.raises(InconsistentOracleError, match=message):
            self.recover(at, outside)

    def test_a_classification_answer_matching_neither_placement(self):
        # the query is [x] + low_block; at position_hat 3 an answer of
        # low_block[1] puts x below and low_block[2] above: low_block[0] is neither
        with pytest.raises(InconsistentOracleError, match=(
                r"^classification query \[0, 4, 3, 2\] answered 4, which matches "
                r"neither placement of 0$")):
            self.recover(self.position_query + 1, lambda s, answer: s[1])

    def test_an_impossible_ineligible_split(self):
        # 0 placed below instead of above: three below, none above
        def swap(s, answer):
            return s[2] if answer == s[3] else s[3]

        with pytest.raises(InconsistentOracleError, match=(
                r"^ineligible split \(bottom=3, top=0\) is impossible for position 3 of 4$")):
            self.recover(self.position_query + 1, swap)

    def test_an_insertion_answer_outside_x_p_q(self):
        # the first insertion query follows the K - 1 classification queries;
        # its last member is padding
        with pytest.raises(InconsistentOracleError,
                           match=r"^insertion query \(5, 3, 1, 7\) answered 7$"):
            self.recover(self.position_query + self.K, lambda s, answer: s[3])


class MedianOracle:
    """Answers each k-set with distance.median_choice on fixed points: a
    distance chooser, not a DeterministicOracle, that counts its queries."""

    def __init__(self, points, k):
        self.points, self.n, self.k = points, points.n, k
        self.query_count = 0

    def query(self, s):
        answer = median_choice(self.points, s)
        self.query_count += 1
        return answer


class TestDistanceChooserOnALine:
    """On a line the median rule picks the middle member of every odd k-set
    by coordinate, a position selector on the points' order, so recovery is
    exact; the judge is median_choice itself on every k-set."""

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("n", [12, 25])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovery_exact_on_every_kset(self, n, k, seed):
        points = MetricPoints(np.random.default_rng(seed).normal(size=n))
        assert points.dim == 1
        model = recover_choice_function(MedianOracle(points, k))
        assert model.position_hat == (k + 1) // 2
        sets = all_ksets(n, k)
        truth = [median_choice(points, s) for s in sets.tolist()]
        assert predict_many(model, sets).tolist() == truth
