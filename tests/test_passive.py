"""Passive-stream recovery: ineligible detection, anchored closure, coverage."""

import dataclasses
import functools
import itertools
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from choicelab.core import (
    InvalidQueryError,
    LatentOrder,
    PositionSelector,
    evaluate,
    evaluate_many,
    ineligible_set,
)
from choicelab.oracles import (
    DeterministicOracle,
    ObservationBatch,
    StreamConfig,
    all_ksets,
    revealing_counts,
    sample_phase,
    unrank_combinations,
)
from choicelab.passive import (
    UNRESOLVED,
    CoverageReport,
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
from choicelab import passive
from choicelab.stats import clopper_pearson


def anchored_batch(order, k, position, anchors, pairs):
    """Batch of exactly the anchored sets for the given free pairs."""
    selector = PositionSelector(k, position)
    sets, choices = [], []
    for u, v in pairs:
        s = tuple(sorted((u, v) + tuple(anchors)))
        sets.append(s)
        choices.append(evaluate(selector, order, s))
    return ObservationBatch(np.array(sets), np.array(choices), order.n)


class TestFindIneligible:
    def test_full_batch_exact(self):
        n, k, position = 8, 3, 2
        order = LatentOrder.identity(n)
        oracle = DeterministicOracle(PositionSelector(k, position), order)
        sets = np.array(list(itertools.combinations(range(n), k)))
        batch = ObservationBatch(sets, oracle.query_many(sets), n)
        assert find_ineligible_passive(batch) == ineligible_set(oracle.selector, order)

    def test_empty_batch_insufficient(self):
        empty = np.empty(0, dtype=np.int64)
        batch = ObservationBatch(empty.reshape(0, 3), empty, 7)
        with pytest.raises(InsufficientCoverageError) as err:
            find_ineligible_passive(batch)
        assert err.value.never_chosen == frozenset(range(7))

    @pytest.mark.parametrize(
        "sets, choices",
        [([[0, 1, 7]], [7]), ([[-1, 0, 1]], [-1]), ([[0, 1, 2], [3, 4, 9]], [1, 9])],
        ids=["at-n", "negative", "among-valid"],
    )
    def test_out_of_range_choice_rejected(self, sets, choices):
        # the batch owns its universe, so every id outside it is refused
        # when the batch is built, before any reader sees it
        with pytest.raises(InvalidQueryError, match=r"out of range \[0, 7\)"):
            ObservationBatch(np.array(sets), np.array(choices), 7)

    def test_monte_carlo_n50(self):
        n, k, position, b = 50, 3, 2, 8
        stream = StreamConfig.from_coverage(b, n)
        rng = np.random.default_rng(21)
        hits = 0
        trials = 500
        for t in range(trials):
            order = LatentOrder.random(n, rng)
            oracle = DeterministicOracle(PositionSelector(k, position), order)
            batch = sample_phase(stream, 1, oracle, rng)
            try:
                found = find_ineligible_passive(batch)
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
        po = build_partial_order(batch, anchors, position)
        assert po.unresolved_pair_count == 0
        assert po.resolved_pair_fraction == 1.0

    def test_chain_closure(self):
        n, k, position = 8, 3, 2
        order = LatentOrder.identity(n)
        anchors = (0,)
        batch = anchored_batch(order, k, position, anchors, [(1, 2), (2, 3)])
        po = build_partial_order(batch, anchors, position)
        assert po.resolved(1, 3)  # transitivity
        assert not po.resolved(1, 4)
        assert not po.resolved(3, 4)

    def test_contradictory_pair_detected(self):
        sets = np.array([[0, 1, 2], [0, 1, 2]])
        choices = np.array([1, 2])
        batch = ObservationBatch(sets, choices, 3)
        with pytest.raises(InconsistentStreamError):
            build_partial_order(batch, (0,), 2)

    def test_anchor_choice_detected(self):
        batch = ObservationBatch(np.array([[0, 1, 2]]), np.array([0]), 3)
        with pytest.raises(InconsistentStreamError):
            build_partial_order(batch, (0,), 2)

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
            po = build_partial_order(batch, anchors, position)
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
            n,
        )
        want = build_partial_order(anchored, anchors, position)
        got = build_partial_order(mixed, anchors, position)
        assert np.array_equal(got.beats, want.beats)


    def test_three_cycle_detected(self):
        # 2 beats 1, 3 beats 2, 1 beats 3: no pair contradicts directly
        batch = ObservationBatch(
            np.array([[0, 1, 2], [0, 2, 3], [0, 1, 3]]), np.array([2, 3, 1]), 4
        )
        with pytest.raises(InconsistentStreamError, match="cycle"):
            build_partial_order(batch, (0,), 2)

    def test_unobserved_id_counts_toward_universe(self):
        # id 7 appears in no record; its 6 pairs stay unresolved
        n, k, position = 8, 3, 2
        order = LatentOrder.identity(n)
        pairs = list(itertools.combinations(range(1, 7), 2))
        batch = anchored_batch(order, k, position, (0,), pairs)
        po = build_partial_order(batch, (0,), position)
        assert po.universe_size == n
        assert po.unresolved_pair_count == 6
        assert po.resolved_pair_fraction == pytest.approx(15 / 21)
        assert not po.resolved(1, 7)

    @pytest.mark.parametrize("row", [[0, 1, 5], [-1, 1, 2], [1, 2, 6]])
    def test_out_of_range_record_rejected(self, row):
        # anchored or not, a record naming an id outside [0, n) is refused
        # when the batch is built, before any reader sees it
        with pytest.raises(InvalidQueryError, match=r"out of range \[0, 5\)"):
            ObservationBatch(np.array([[0, 1, 2], row]), np.array([1, row[1]]), 5)

    def test_resolved_rejects_ids_outside_universe(self):
        order = LatentOrder.identity(8)
        batch = anchored_batch(order, 3, 2, (0,), [(1, 2), (2, 3)])
        po = build_partial_order(batch, (0,), 2)
        for u, v in ((99, 99), (-1, -1), (8, 8), (1, 99), (1.0, 2.0), (-1, 2),
                     (True, 1), (1, True), (False, 0), (np.float64(1), 2), ("1", 2)):
            with pytest.raises(InvalidQueryError):
                po.resolved(u, v)
        assert po.resolved(3, 3) and po.resolved(0, 0)
        assert po.resolved(np.int64(1), np.int32(3)) and not po.resolved(np.uint8(1), 4)

    def test_out_of_range_anchor_rejected(self):
        batch = ObservationBatch(np.array([[0, 1, 2]]), np.array([1]), 3)
        for anchors in ((-1,), (3,)):
            with pytest.raises(InvalidQueryError):
                build_partial_order(batch, anchors, 2)


def random_dag(n, density, seed):
    """An n-by-n bool adjacency matrix: each pair ordered by a random
    permutation is an edge with probability density."""
    rng = np.random.default_rng(seed)
    rank = rng.permutation(n)
    return (rank[:, None] < rank[None, :]) & (rng.random((n, n)) < density)


def warshall(direct):
    """Boolean Floyd-Warshall reachability, the brute-force reference."""
    reach = direct.copy()
    for via in range(len(reach)):
        reach |= reach[:, via : via + 1] & reach[via]
    return reach


class TestPackedClosure:
    """_transitive_closure ORs rows packed into uint64 words; the word
    edges at 63, 64, 65 and 127, 128, 129 ids are where packing can slip."""

    SIZES = [1, 2, 63, 64, 65, 127, 128, 129, 200]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.1, 0.5, 1.0])
    def test_matches_warshall(self, n, density):
        direct = random_dag(n, density, n + int(100 * density))
        given_direct = direct.copy()
        reach = passive._transitive_closure(direct)
        assert reach.dtype == bool and reach.shape == (n, n) and reach.flags.c_contiguous
        assert np.array_equal(reach, warshall(given_direct))
        assert np.array_equal(direct, given_direct)  # the input is not written

    @pytest.mark.parametrize("n", SIZES)
    def test_cycle_raises(self, n):
        direct = random_dag(n, 0.1, n)
        ids = np.arange(n)
        direct[ids, (ids + 1) % n] = True  # one cycle through every id; a self-loop at n=1
        with pytest.raises(InconsistentStreamError, match="cycle"):
            passive._transitive_closure(direct)

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="before 3.11 a caller's stack keeps its call arguments"
    )
    def test_bool_matrix_freed_before_unpacking(self, monkeypatch):
        # build_partial_order holds no reference to the bool matrix and the
        # closure drops its own once packed, so the matrix is gone before
        # the closure's n-by-n result exists
        matrices, seen = [], []
        orientations, unpack = passive._orientations, np.unpackbits

        def watched_orientations(*args):
            direct = orientations(*args)
            matrices.append(weakref.ref(direct))
            return direct

        def watched_unpack(*args, **kwargs):
            seen.append(matrices[-1]())
            return unpack(*args, **kwargs)

        monkeypatch.setattr(passive, "_orientations", watched_orientations)
        monkeypatch.setattr(passive.np, "unpackbits", watched_unpack)
        po, _, _ = closed_model(130, 3, 2, 0.5, 1)
        assert seen == [None] and po.resolved_pair_fraction > 0


class TestAnswerQuery:
    def setup_method(self):
        self.n, self.k, self.position = 9, 3, 2
        self.order = LatentOrder.identity(self.n)
        self.anchors = (0,)
        pairs = list(itertools.combinations(range(1, self.n), 2))
        pairs.remove((4, 5))  # leave one adjacent pair unobserved
        batch = anchored_batch(self.order, self.k, self.position, self.anchors, pairs)
        self.po = build_partial_order(batch, self.anchors, self.position)

    def test_resolved_median(self):
        assert answer_query(self.po, (1, 3, 7)) == 3

    def test_anchor_set_unresolved(self):
        assert answer_query(self.po, (0, 2, 3)) is UNRESOLVED

    def test_unresolved_pair_propagates(self):
        assert answer_query(self.po, (4, 5, 8)) is UNRESOLVED

    @pytest.mark.parametrize("position", [0, 4, 7, -1, True, False, 2.0, np.float64(2.0), "2"])
    def test_position_outside_1_k_rejected(self, position):
        with pytest.raises(InvalidQueryError, match=r"position must lie in \[1, 3\]"):
            answer_many(self.po, [[1, 3, 5], [2, 4, 6]], position)
        with pytest.raises(InvalidQueryError, match=r"position must lie in \[1, 3\]"):
            answer_query(self.po, (1, 3, 5), position)

    def test_out_of_range_ids_rejected(self):
        for bad in ([[-1, 2, 3]], [[1, 2, 9]], [[1, 2]]):
            with pytest.raises(InvalidQueryError):
                answer_many(self.po, bad, self.position)
            with pytest.raises(InvalidQueryError):
                answer_query(self.po, bad[0])

    def test_duplicate_ids_rejected(self):
        for bad in ([[2, 2, 3]], [[1, 3, 7], [4, 8, 4]]):
            with pytest.raises(InvalidQueryError, match="duplicate"):
                answer_many(self.po, bad, self.position)

    @pytest.mark.parametrize("position", [2, np.int64(2), np.uint8(2)])
    def test_position_of_any_integer_type(self, position):
        assert answer_query(self.po, (1, 3, 7), position) == 3
        assert answer_many(self.po, [[1, 3, 7], [0, 2, 3]], position).tolist() == [3, -1]

    def test_vectorized_matches_scalar(self):
        sets = np.array(list(itertools.combinations(range(self.n), self.k)))
        answers = answer_many(self.po, sets, self.position)
        for row, got in zip(sets, answers):
            scalar = answer_query(self.po, tuple(row))
            assert (got == -1 and scalar is UNRESOLVED) or got == scalar


def answer_rows_by_wins(po, sets, positions):
    """The answer kernel before answers were read from the score order:
    each row's in-row win counts from the pairwise beats lookups, and at
    each position the member with position - 1 wins; -1 where a row holds
    an anchor or an incomparable pair."""
    m, k = sets.shape
    columns = sets.T
    # an anchor's row and column of beats are empty, so rows holding one stay unresolved
    resolved = np.ones(m, dtype=bool)
    wins = np.zeros((k, m), dtype=np.int64)
    for a in range(k):
        for b in range(a + 1, k):
            ab = po.beats[columns[a], columns[b]]
            ba = po.beats[columns[b], columns[a]]
            resolved &= ab | ba
            wins[a] += ab
            wins[b] += ba
    rows = np.flatnonzero(resolved)
    wins = wins[:, rows]
    answers = []
    for position in positions:
        out = np.full(m, -1, dtype=np.int64)
        out[rows] = sets[rows, np.argmax(wins == position - 1, axis=0)]
        answers.append(out)
    return answers


def closed_model(n, k, position, p, seed):
    """A model closed from a full phase-2 sample of a random order, drawn
    with inclusion probability p, anchored on k-2 of the ineligibles."""
    selector = PositionSelector(k, position)
    order = LatentOrder.random(n, np.random.default_rng(seed))
    oracle = DeterministicOracle(selector, order)
    stream = StreamConfig(p, p)
    batch = sample_phase(stream, 2, oracle, np.random.default_rng(seed + 1))
    anchors = sorted(ineligible_set(selector, order))[: k - 2]
    return build_partial_order(batch, anchors, position), selector, order


def score_sets(monkeypatch, exhaustive, sampled):
    """Set coverage_report's exhaustive limit and sample size."""
    monkeypatch.setattr(passive, "_EXHAUSTIVE_SCORE_SETS", exhaustive)
    monkeypatch.setattr(passive, "_SAMPLED_SCORE_SETS", sampled)


class TestAnswerRowsReference:
    """answer_many, which reads answers from one score order, against the
    wins-based kernel it replaced."""

    @pytest.mark.parametrize(
        "n, k, position",
        [(12, 3, 2), (13, 4, 2), (13, 4, 3), (14, 5, 2), (14, 5, 3), (14, 5, 4)],
    )
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.8, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_answers_at_every_position(self, n, k, position, p, seed):
        po, _, _ = closed_model(n, k, position, p, 10 * seed + n)
        sets = all_ksets(n, k)
        positions = tuple(range(1, k + 1))
        got = [answer_many(po, sets, position) for position in positions]
        want = answer_rows_by_wins(po, sets, positions)
        assert len(got) == k
        for got_answers, want_answers in zip(got, want):
            assert np.array_equal(got_answers, want_answers)
        if p == 0.8:  # some rows resolved by the closure and some not
            assert (want[0] == -1).any() and (want[0] != -1).any()

    @pytest.mark.parametrize(
        "n, k, position, p, seed, sampled, want",
        [
            (40, 3, 2, 0.5, 3, True,
             (0.76435, 0.23565, "stored", 20000, 0.7584049809492881, 0.7702180829746929)),
            (16, 4, 3, 0.8, 4, False,
             (0.47802197802197804, 0.521978021978022, "reflected", 1820,
              0.45484947364280415, 0.5012654318055737)),
            (14, 5, 2, 0.9, 5, False,
             (0.23076923076923078, 0.7692307692307693, "reflected", 2002,
              0.2124686167756408, 0.2498616068972691)),
        ],
        ids=["sampled-k3", "exhaustive-k4", "exhaustive-k5"],
    )
    def test_coverage_report_fields_unchanged(
        self, monkeypatch, n, k, position, p, seed, sampled, want
    ):
        # recorded from the wins-based kernel on the same models and rng;
        # sampled-k3 and exhaustive-k4 re-recorded, from that kernel, when
        # phases began drawing their ranks as geometric gaps: the models'
        # law is unchanged, the model per seed is not
        po, selector, order = closed_model(n, k, position, p, seed)
        score_sets(monkeypatch, 1000 if sampled else 10**6, 20000)
        report = coverage_report(po, selector, order, np.random.default_rng(11))
        frac_correct, frac_unresolved, reading, size, lo, hi = want
        assert report == CoverageReport(
            n=n, k=k, position=position, frac_correct=frac_correct,
            frac_unresolved=frac_unresolved, reading=reading, sample_size=size,
            exhaustive=not sampled, hits=round(frac_correct * size),
        )
        assert (report.ci_low, report.ci_high) == (lo, hi)


class TestCoverage:
    def test_perfect_model(self):
        n, k, position = 8, 3, 2
        order = LatentOrder.identity(n)
        anchors = (0,)
        pairs = list(itertools.combinations(range(1, n), 2))
        batch = anchored_batch(order, k, position, anchors, pairs)
        po = build_partial_order(batch, anchors, position)
        # anchor-containing sets stay unresolved; everything in range is exact
        rng = np.random.default_rng(0)
        report = coverage_report(po, PositionSelector(k, position), order, rng)
        anchor_sets = math.comb(n - 1, k - 1) / math.comb(n, k)
        assert report.frac_correct == pytest.approx(1.0 - anchor_sets)
        assert report.frac_unresolved == pytest.approx(anchor_sets)

    def test_single_missing_pair_cost(self):
        n, k, position = 10, 3, 2
        order = LatentOrder.identity(n)
        anchors = (0,)
        all_pairs = list(itertools.combinations(range(1, n), 2))
        full = build_partial_order(
            anchored_batch(order, k, position, anchors, all_pairs), anchors, position
        )
        missing = [p for p in all_pairs if p != (4, 5)]
        partial = build_partial_order(
            anchored_batch(order, k, position, anchors, missing), anchors, position
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
            b1 = sample_phase(stream, 1, oracle, rng)
            b2 = sample_phase(stream, 2, oracle, rng)
            never = find_ineligible_passive(b1)
            assert never == ineligible_set(selector, order)
            anchors = sorted(never)[: k - 2]
            po = build_partial_order(b2, anchors, position)
            sets = np.array(list(itertools.combinations(range(n), k)))
            truth = evaluate_many(selector, order, sets)
            sound = []
            for pos in (position, k - position + 1):
                ans = answer_many(po, sets, pos)
                resolved = ans != -1
                sound.append(bool((ans[resolved] == truth[resolved]).all()))
            assert any(sound)  # one global reading is consistent, hence exact

    @pytest.mark.parametrize(
        "position, seed, want", [(2, 0, "reflected"), (2, 3, "stored"), (3, 0, "stored")]
    )
    @pytest.mark.parametrize("exhaustive", [True, False], ids=["exhaustive", "sampled"])
    def test_report_scores_both_answer_many_readings(
        self, monkeypatch, exhaustive, position, seed, want
    ):
        # the report's figures are those of one answer_many call per reading
        n, k = 14, 4
        selector = PositionSelector(k, position)
        order = LatentOrder.random(n, np.random.default_rng(seed))
        oracle = DeterministicOracle(selector, order)
        stream = StreamConfig(0.9, 0.9)
        batch = sample_phase(stream, 2, oracle, np.random.default_rng(4))
        anchors = sorted(ineligible_set(selector, order))[: k - 2]
        po = build_partial_order(batch, anchors, position)
        score_sets(monkeypatch, 10**6 if exhaustive else 10, 500)
        report = coverage_report(po, selector, order, np.random.default_rng(5))
        if exhaustive:
            sets = all_ksets(n, k)
        else:
            ranks = np.random.default_rng(5).integers(0, math.comb(n, k), size=500)
            sets = unrank_combinations(np.sort(ranks), n, k)
        truth = evaluate_many(selector, order, sets)
        scores = {}
        for reading, pos in (("stored", position), ("reflected", k - position + 1)):
            answers = answer_many(po, sets, pos)
            scores[reading] = (int((answers == truth).sum()) / len(sets),
                               float((answers == -1).mean()))
        assert scores["stored"] != scores["reflected"]
        best = "reflected" if scores["reflected"][0] > scores["stored"][0] else "stored"
        assert report.reading == best == want
        assert (report.frac_correct, report.frac_unresolved) == scores[want]
        assert (report.exhaustive, report.sample_size) == (exhaustive, len(sets))

    @pytest.mark.parametrize("k, position, calls", [(3, 2, [2]), (4, 2, [2, 3]), (5, 3, [3])])
    def test_report_answers_each_distinct_reading_once(self, monkeypatch, k, position, calls):
        po, selector, order = closed_model(12, k, position, 0.8, 7)
        seen = []

        def counted(po, sets, position):
            seen.append((len(sets), position))
            return answer_many(po, sets, position)

        monkeypatch.setattr(passive, "answer_many", counted)
        report = coverage_report(po, selector, order, np.random.default_rng(0))
        assert seen == [(report.sample_size, p) for p in calls]

    def test_report_rejects_a_model_of_other_sets(self):
        order = LatentOrder.identity(8)
        batch = anchored_batch(order, 3, 2, (0,), itertools.combinations(range(1, 8), 2))
        po = build_partial_order(batch, (0,), 2)
        for selector, n in ((PositionSelector(4, 2), 8), (PositionSelector(3, 2), 9)):
            with pytest.raises(InvalidQueryError):
                coverage_report(po, selector, LatentOrder.identity(n), np.random.default_rng(0))

    def test_report_fields(self):
        n, k, position = 8, 3, 2
        order = LatentOrder.identity(n)
        anchors = (0,)
        pairs = list(itertools.combinations(range(1, n), 2))
        po = build_partial_order(
            anchored_batch(order, k, position, anchors, pairs), anchors, position
        )
        rng = np.random.default_rng(0)
        report = coverage_report(po, PositionSelector(k, position), order, rng)
        assert [f.name for f in dataclasses.fields(report)] == [
            "n", "k", "position", "frac_correct", "frac_unresolved", "reading",
            "sample_size", "exhaustive", "hits",
        ]
        assert (report.n, report.k, report.position) == (n, k, position)
        assert report.exhaustive and report.sample_size == math.comb(n, k)
        assert report.ci_low <= report.frac_correct <= report.ci_high

    @pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
    def test_interval_computed_on_first_read(self, monkeypatch, sampled):
        po, selector, order = closed_model(16, 3, 2, 0.5, 6)
        score_sets(monkeypatch, 100 if sampled else 10**6, 3000)
        calls = []

        def counted(hits, trials):
            calls.append((hits, trials))
            return clopper_pearson(hits, trials)

        monkeypatch.setattr(passive, "clopper_pearson", counted)
        report = coverage_report(po, selector, order, np.random.default_rng(2))
        assert calls == []  # scoring computes no interval
        assert report.frac_correct == report.hits / report.sample_size
        interval = clopper_pearson(report.hits, report.sample_size)
        for _ in range(2):
            assert (report.ci_low, report.ci_high) == interval
        assert calls == [(report.hits, report.sample_size)]  # once, then cached

    def test_phase_one_unaffected_by_phase_two_seed(self):
        n, k = 30, 3
        stream = StreamConfig.from_coverage(8, n)
        order = LatentOrder.identity(n)
        selector = PositionSelector(k, 2)
        results = []
        for phase2_seed in (1, 2):
            oracle = DeterministicOracle(selector, order)
            b1 = sample_phase(stream, 1, oracle, np.random.default_rng(77))
            sample_phase(stream, 2, oracle, np.random.default_rng(phase2_seed))
            results.append(find_ineligible_passive(b1))
        assert results[0] == results[1]


def holds_every_anchor(sets, anchors):
    return np.isin(sets, anchors).sum(axis=1) == len(anchors)


@functools.cache
def comb_table(n, k):
    """table[j, c] = C(c, j) for j <= k and c <= n, from math.comb."""
    return np.array([[math.comb(c, j) for c in range(n + 1)] for j in range(k + 1)])


def colex_ranks(sets, n):
    """The colex rank of each sorted row: the sum of C(row[j], j + 1)."""
    table = comb_table(n, sets.shape[1])
    return sum(table[j + 1][column] for j, column in enumerate(sets.T))


class TestAnchoredSample:
    """sample_phase with anchors against the full sample, filtered to the
    rows that hold every anchor, as the reference: a direct draw over the
    anchored sets, equal in law to the reference and not the same draw."""

    @pytest.mark.parametrize(
        "n, k, position, p",
        [
            (40, 3, 2, 0.3),
            (24, 4, 2, 0.25),
            (24, 4, 3, 0.6),
            (18, 5, 3, 0.3),
            (300, 3, 2, 0.005),  # few ranks over a large total: C(300, 3) > 2^22
        ],
        ids=["dense-k3", "dense-k4-ell2", "dense-k4-ell3", "dense-k5", "sparse-k3"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_invariants(self, n, k, position, p, seed):
        selector = PositionSelector(k, position)
        order = LatentOrder.random(n, np.random.default_rng(100 + seed))
        stream = StreamConfig(p, p)
        anchors = sorted(ineligible_set(selector, order))[: k - 2]
        full_oracle = DeterministicOracle(selector, order)
        full = sample_phase(stream, 2, full_oracle, np.random.default_rng(seed))
        oracle = DeterministicOracle(selector, order)
        got = sample_phase(stream, 2, oracle, np.random.default_rng(seed), anchors=anchors)
        rows = holds_every_anchor(full.sets, anchors)
        want = ObservationBatch(full.sets[rows], full.choices[rows], n)
        for batch in (got, want):
            assert holds_every_anchor(batch.sets, anchors).all()
            assert (np.diff(colex_ranks(batch.sets, n)) > 0).all()  # ascending, distinct
            assert np.array_equal(batch.choices, evaluate_many(selector, order, batch.sets))
            assert build_partial_order(batch, anchors, position).anchors == tuple(anchors)
        assert 0 < got.sets.shape[0] < len(got)
        assert len(full) == full_oracle.query_count
        assert oracle.query_count == got.sets.shape[0]
        assert not got.complete and got.anchors == tuple(anchors)
        assert got.n == full.n == n and got.k == full.k

    DRAWS = 20_000

    @pytest.mark.parametrize(
        "n, k, position, p", [(7, 3, 2, 0.3), (8, 4, 3, 0.3)], ids=["n7-k3-ell2", "n8-k4-ell3"]
    )
    def test_same_law_as_the_filtered_full_sample(self, n, k, position, p):
        selector = PositionSelector(k, position)
        order = LatentOrder.random(n, np.random.default_rng(n))
        oracle = DeterministicOracle(selector, order)
        stream = StreamConfig(p, p)
        anchors = sorted(ineligible_set(selector, order))[: k - 2]
        anchored = math.comb(n - k + 2, 2)
        # per side and draw: len(), the anchored rows, and each anchored
        # set's inclusion, by its rank among the anchored sets
        sizes = np.zeros((2, self.DRAWS), dtype=np.int64)
        rows = np.zeros((2, self.DRAWS), dtype=np.int64)
        included = np.zeros((2, anchored), dtype=np.int64)
        every = all_ksets(n, k)
        wanted = np.sort(colex_ranks(every[holds_every_anchor(every, anchors)], n))
        for t in range(self.DRAWS):
            got = sample_phase(stream, 2, oracle, np.random.default_rng([1, t]),
                               anchors=anchors)
            full = sample_phase(stream, 2, oracle, np.random.default_rng([2, t]))
            held = full.sets[holds_every_anchor(full.sets, anchors)]
            for side, (batch, sets) in enumerate(((got, got.sets), (full, held))):
                sizes[side, t], rows[side, t] = len(batch), len(sets)
                included[side, np.searchsorted(wanted, colex_ranks(sets, n))] += 1

        total = math.comb(n, k)
        for side in (0, 1):  # both near the law: Bernoulli(p) inclusion of every k-set
            frequency = included[side] / self.DRAWS
            assert (np.abs(frequency - p) <= 5 * math.sqrt(p * (1 - p) / self.DRAWS)).all()
            assert abs(sizes[side].mean() / (total * p) - 1) < 0.01
            assert abs(sizes[side].var() / (total * p * (1 - p)) - 1) < 0.1
        pooled = included.sum(axis=0) / (2 * self.DRAWS)
        spread = np.sqrt(2 * pooled * (1 - pooled) / self.DRAWS)
        assert (np.abs(included[0] - included[1]) / self.DRAWS <= 5 * spread).all()
        assert stats.ttest_ind(*sizes, equal_var=False).pvalue > 0.001
        assert stats.levene(*sizes).pvalue > 0.001
        # the anchored rows and the rest are independent binomials: each
        # covariance is 0 within its standard error, sd(rows) * sd(rest) / sqrt(DRAWS)
        got_cov, want_cov = (np.cov(rows[side], sizes[side] - rows[side])[0, 1] for side in (0, 1))
        scale = math.sqrt(anchored * (total - anchored)) * p * (1 - p) / math.sqrt(self.DRAWS)
        assert abs(got_cov) < 5 * scale and abs(want_cov) < 5 * scale
        assert abs(got_cov - want_cov) < 5 * math.sqrt(2) * scale

    @pytest.mark.parametrize("n, k, position", [(9, 3, 2), (10, 4, 3), (9, 5, 3)])
    def test_certain_inclusion_gives_the_full_batch_rows(self, n, k, position):
        selector = PositionSelector(k, position)
        order = LatentOrder.random(n, np.random.default_rng(n + k))
        oracle = DeterministicOracle(selector, order)
        stream = StreamConfig(1.0, 1.0)
        anchors = sorted(ineligible_set(selector, order))[: k - 2]
        full = sample_phase(stream, 2, oracle, np.random.default_rng(0))
        got = sample_phase(stream, 2, oracle, np.random.default_rng(1), anchors=anchors)
        rows = holds_every_anchor(full.sets, anchors)
        assert np.array_equal(got.sets, full.sets[rows])
        assert np.array_equal(got.choices, full.choices[rows])
        assert len(got) == len(full) == math.comb(n, k)

    def test_empty_draw(self):
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(40))
        stream = StreamConfig(1e-9, 1e-9)
        batch = sample_phase(stream, 2, oracle, np.random.default_rng(0), anchors=[0])
        assert len(batch) == 0 and batch.sets.shape == (0, 3) and batch.complete
        assert oracle.query_count == 0

    def test_no_anchors_at_k2_builds_every_row(self):
        oracle = DeterministicOracle(PositionSelector(2, 1), LatentOrder.identity(30))
        stream = StreamConfig(0.5, 0.5)
        full = sample_phase(stream, 1, oracle, np.random.default_rng(3))
        got = sample_phase(stream, 1, oracle, np.random.default_rng(3), anchors=())
        assert got.complete and len(got) == len(full)
        assert np.array_equal(got.sets, full.sets)
        assert np.array_equal(got.choices, full.choices)

    @pytest.mark.parametrize("anchors", [[], [0, 1], [40], [-1]],
                             ids=["too-few", "too-many", "past-n", "negative"])
    def test_bad_anchors_rejected_before_drawing(self, anchors):
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(40))
        stream = StreamConfig(0.3, 0.3)
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidQueryError):
            sample_phase(stream, 2, oracle, rng, anchors=anchors)
        assert rng.random() == np.random.default_rng(0).random()

    def anchored(self):
        n, k, position = 40, 3, 2
        order = LatentOrder.identity(n)
        oracle = DeterministicOracle(PositionSelector(k, position), order)
        stream = StreamConfig(0.3, 0.3)
        return sample_phase(stream, 2, oracle, np.random.default_rng(5), anchors=[0])

    def test_find_ineligible_refuses_a_partial_batch(self):
        with pytest.raises(ValueError, match="read in full"):
            find_ineligible_passive(self.anchored())

    def test_partial_order_refuses_other_anchors(self):
        batch = self.anchored()
        with pytest.raises(ValueError, match=r"anchors \(0,\), not \(39,\)"):
            build_partial_order(batch, [39], 2)
        assert build_partial_order(batch, [0], 2).anchors == (0,)


def revealing_by_id(order, k, position):
    """The revealing-set count of each id, indexed by id."""
    return revealing_counts(order.n, k, position)[order.ranks(np.arange(order.n))]


class TestCountsOnlySample:
    """sample_phase(counts_only=True) against full batches as the reference:
    each id's choice count is drawn as one binomial, equal in law to the
    bincount of a full batch's choices."""

    DRAWS = 20_000

    @pytest.mark.parametrize(
        "n, k, position, p", [(7, 3, 2, 0.3), (8, 4, 1, 0.3)], ids=["n7-k3-ell2", "n8-k4-ell1"]
    )
    def test_same_law_as_full_batches(self, n, k, position, p):
        order = LatentOrder.random(n, np.random.default_rng(n))
        oracle = DeterministicOracle(PositionSelector(k, position), order)
        stream = StreamConfig(p, p)
        got_rng, want_rng = np.random.default_rng(1), np.random.default_rng(2)
        got = np.empty((self.DRAWS, n), dtype=np.int64)
        want = np.empty((self.DRAWS, n), dtype=np.int64)
        for t in range(self.DRAWS):
            batch = sample_phase(stream, 1, oracle, got_rng, counts_only=True)
            got[t] = batch.choice_counts
            assert len(batch) == got[t].sum() and batch.sets.shape == (0, k)
            full = sample_phase(stream, 1, oracle, want_rng)
            want[t] = np.bincount(full.choices, minlength=n)
        assert oracle.query_count == want.sum()  # the counts-only draws asked nothing

        revealing = revealing_by_id(order, k, position)
        eligible = revealing > 0
        assert not got[:, ~eligible].any() and not want[:, ~eligible].any()
        for counts in (got, want):  # both near the binomial's mean and variance
            mean, var = revealing * p, revealing * p * (1 - p)
            assert (np.abs(counts.mean(axis=0) - mean) <= 5 * np.sqrt(var / self.DRAWS)).all()
            assert np.allclose(counts.var(axis=0), var, rtol=0.1)
        for x in np.flatnonzero(eligible):
            assert stats.ttest_ind(got[:, x], want[:, x], equal_var=False).pvalue > 0.001
            assert stats.levene(got[:, x], want[:, x]).pvalue > 0.001
        sizes = got.sum(axis=1), want.sum(axis=1)
        assert stats.ttest_ind(*sizes, equal_var=False).pvalue > 0.001
        assert stats.levene(*sizes).pvalue > 0.001

        # the never-chosen set, one bit per id, with sets seen under 20
        # times in both samples pooled into one column
        bits = 1 << np.arange(n)
        keys = [(counts == 0) @ bits for counts in (got, want)]
        values, pooled = np.unique(np.concatenate(keys), return_counts=True)
        common = values[pooled >= 20]
        table = [
            [*(np.sum(key == v) for v in common), np.sum(~np.isin(key, common))]
            for key in keys
        ]
        assert stats.chi2_contingency(table).pvalue > 0.001

    @pytest.mark.parametrize("n, k, position", [(7, 3, 2), (8, 4, 1), (9, 4, 3), (6, 2, 2)])
    def test_certain_inclusion_counts_every_revealing_set(self, n, k, position):
        order = LatentOrder.random(n, np.random.default_rng(n + k))
        oracle = DeterministicOracle(PositionSelector(k, position), order)
        stream = StreamConfig(1.0, 1.0)
        batch = sample_phase(stream, 1, oracle, np.random.default_rng(0), counts_only=True)
        full = sample_phase(stream, 1, oracle, np.random.default_rng(0))
        assert np.array_equal(batch.choice_counts, revealing_by_id(order, k, position))
        assert np.array_equal(batch.choice_counts, np.bincount(full.choices, minlength=n))
        assert len(batch) == len(full) == math.comb(n, k)
        assert find_ineligible_passive(batch) == ineligible_set(oracle.selector, order)

    def counted(self):
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(40))
        stream = StreamConfig(0.3, 0.3)
        batch = sample_phase(stream, 1, oracle, np.random.default_rng(5), counts_only=True)
        assert oracle.query_count == 0 and len(batch) > 0
        assert batch.counts_only and not batch.complete and batch.anchors is None
        return batch

    def test_partial_order_refuses_a_counts_only_batch(self):
        with pytest.raises(ValueError, match="counts-only"):
            build_partial_order(self.counted(), [0], 2)

    def test_anchors_and_counts_only_rejected_before_drawing(self):
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(40))
        stream = StreamConfig(0.3, 0.3)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="counts-only"):
            sample_phase(stream, 1, oracle, rng, anchors=[0], counts_only=True)
        assert rng.random() == np.random.default_rng(0).random()

    def test_choice_counts_of_each_form(self):
        # every attribute is set as the batch is built: none is computed on read
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(40))
        stream, rng = StreamConfig(0.3, 0.3), np.random.default_rng
        cases = {  # batch, then its k, complete, counts_only and choice_counts
            "complete": (ObservationBatch(np.array([[0, 1, 4], [1, 2, 3], [0, 2, 4]]),
                                          np.array([1, 2, 2]), 5),
                         3, True, False, [0, 1, 2, 0, 0]),
            "anchored": (sample_phase(stream, 2, oracle, rng(5), anchors=[0]),
                         3, False, False, None),
            "counts-only": (sample_phase(stream, 1, oracle, rng(5), counts_only=True),
                            3, False, True, "drawn"),
            "empty-anchored": (sample_phase(StreamConfig(1e-9, 1e-9), 2, oracle, rng(0),
                                            anchors=[0]), 3, True, False, [0] * 40),
        }
        for name, (batch, k, complete, counts_only, counts) in cases.items():
            assert {"k", "complete", "counts_only", "choice_counts"} <= vars(batch).keys(), name
            assert (batch.k, batch.complete, batch.counts_only) == (k, complete, counts_only), name
            if counts == "drawn":  # one binomial count per id, len() their sum
                assert batch.choice_counts.shape == (40,), name
                assert batch.choice_counts.sum() == len(batch) > 0, name
            elif counts is None:
                assert batch.choice_counts is None, name
            else:
                assert batch.choice_counts.tolist() == counts, name
            for array in (batch.sets, batch.choices, batch.choice_counts):
                assert array is None or not array.flags.writeable, name


class TestRevealingCounts:
    def test_vectorized_counts_match_enumeration(self):
        for n in range(2, 11):
            for k in range(2, n + 1):
                for position in range(1, k + 1):
                    counts = revealing_counts(n, k, position)
                    assert counts.sum() == math.comb(n, k)
                    brute = [count_revealing_brute_force(n, k, position, r) for r in range(n)]
                    assert counts.tolist() == brute
                    eligible = brute[position - 1 : n - k + position]
                    assert min_revealing_count(n, k, position) == min(eligible)

    @pytest.mark.parametrize("rank", [-1, 9, True, 2.0])
    def test_rank_outside_the_universe_rejected(self, rank):
        with pytest.raises(ValueError, match=r"rank must lie in \[0, 9\)"):
            revealing_set_count(9, 3, 2, rank)

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

    def test_minimum_below_k_ids_rejected(self):
        with pytest.raises(ValueError, match="need n >= k, got n=2, k=3"):
            min_revealing_count(2, 3, 2)

    def test_k3_minimum_is_exactly_n_minus_2(self):
        for n in range(5, 31):
            assert min_revealing_count(n, 3, 2) == n - 2

    @pytest.mark.parametrize("position", [0, 4, True, 2.0])
    @pytest.mark.parametrize("count", [
        lambda position: revealing_counts(10, 3, position),
        lambda position: revealing_set_count(10, 3, position, 4),
        lambda position: min_revealing_count(10, 3, position),
        lambda position: count_revealing_brute_force(10, 3, position, 4),
    ], ids=["revealing_counts", "revealing_set_count", "min_revealing_count", "brute_force"])
    def test_position_outside_1_k_rejected(self, count, position):
        # 0 would read the last row of the binomial table, and the brute
        # force the maximum, through a negative index
        with pytest.raises(ValueError, match=r"position must lie in \[1, 3\]"):
            count(position)


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
    batch = anchored_batch(order, k, position, anchors, pairs)
    po = build_partial_order(batch, anchors, position)
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


def reference_partial_order(batch, n, anchors):
    """build_partial_order record by record: the closed beats over the
    universe ids, or the start of the InconsistentStreamError message that
    the kernel raises first."""
    anchors = set(anchors)
    edges = []
    for row, choice in zip(batch.sets.tolist(), batch.choices.tolist()):
        if not anchors <= set(row):
            continue
        u, v = (x for x in row if x not in anchors)
        if choice not in (u, v):
            return "an anchored record chose an anchor"
        edges.append((choice, v if choice == u else u))
    reach = [[False] * n for _ in range(n)]
    for w, l in edges:
        reach[w][l] = True
    if any(reach[i][j] and reach[j][i] for i in range(n) for j in range(n)):
        return "contradictory orientations"
    for via in range(n):  # Warshall
        for i in range(n):
            if reach[i][via]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[via][j]
    if any(reach[i][i] for i in range(n)):
        return "orientation cycle"
    return np.array(reach, dtype=bool).reshape(n, n)


def reference_stream(n, k, anchors, rule, seed):
    """A batch over a Bernoulli(0.6) subset of the k-sets of [0, n). Choices:
    "oracle" answers a random order's median; "ranked" picks each row's
    non-anchor of highest random rank, an acyclic orientation whatever the
    anchors; "noisy" picks a uniform non-anchor; "repeated" lists every
    row twice with noisy choices."""
    rng = np.random.default_rng(seed)
    sets = all_ksets(n, k)
    sets = sets[rng.random(len(sets)) < 0.6]
    if rule == "oracle":
        return ObservationBatch(
            sets, evaluate_many(PositionSelector(k, 2), LatentOrder.random(n, rng), sets), n
        )
    if rule == "repeated":
        sets = np.concatenate([sets, sets])
    held = np.isin(sets, anchors)
    if rule == "ranked":
        score = rng.permutation(n)[sets]
    else:
        score = rng.random(sets.shape)
    score[held] = -1
    return ObservationBatch(sets, sets[np.arange(len(sets)), np.argmax(score, axis=1)], n)


# Each record holds one id a batch over a universe of 7 must refuse.
BAD_RECORDS = {
    "id-at-n": ([[0, 1, 2], [0, 3, 7]], [1, 3]),
    "negative-id": ([[0, 1, 2], [-1, 0, 3]], [1, 0]),
    "float-id": ([[0, 1, 2], [0, 3, 4.5]], [1, 3]),
    "duplicate-ids": ([[0, 1, 2], [0, 3, 3]], [1, 3]),
}


@pytest.mark.parametrize("source", ["hand-built", "lists"])
@pytest.mark.parametrize("bad", BAD_RECORDS)
def test_invalid_records_rejected(source, bad):
    # the batch owns its universe, so it refuses the record before any reader
    # sees it; "lists" hands the constructor plain lists, as records parsed from a file
    sets, choices = BAD_RECORDS[bad]
    if source == "hand-built":
        sets, choices = np.array(sets), np.array(choices)
    with pytest.raises(InvalidQueryError):
        ObservationBatch(sets, choices, 7)


REFERENCE_CASES = pytest.mark.parametrize(
    "k, anchors",
    [(3, (0,)), (3, (4,)), (3, (8,)), (4, (0, 8)), (4, (2, 5)), (4, (0, 1)), (4, (7, 8))],
)


class TestBuildPartialOrderReference:
    N = 9

    @REFERENCE_CASES
    @pytest.mark.parametrize("rule", ["oracle", "ranked", "noisy", "repeated"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_record_by_record_reference(self, k, anchors, rule, seed):
        batch = reference_stream(self.N, k, anchors, rule, seed)
        want = reference_partial_order(batch, self.N, anchors)
        if isinstance(want, str):
            with pytest.raises(InconsistentStreamError, match=want):
                build_partial_order(batch, anchors, 2)
        else:
            po = build_partial_order(batch, anchors, 2)
            assert np.array_equal(po.beats, want)
        if rule == "ranked":
            assert not isinstance(want, str)

    @pytest.mark.parametrize("k, anchors", [(3, (4,)), (4, (2, 5))])
    def test_anchors_in_every_column(self, k, anchors):
        # the middle anchors of the reference cases sit in every column, and
        # at k=4 rows holding one anchor of two are present too
        sets = reference_stream(self.N, k, anchors, "ranked", 1).sets
        held = np.isin(sets, anchors)
        anchored = held[held.sum(axis=1) == k - 2]
        assert anchored.any(axis=0).all()
        assert k == 3 or (held.sum(axis=1) == 1).any()

    @REFERENCE_CASES
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_anchors_comparable_to_nothing(self, k, anchors, seed):
        # beats is indexed by universe id; an anchor's row and column stay
        # empty. "ranked" streams close under any anchors
        batch = reference_stream(self.N, k, anchors, "ranked", seed)
        want = reference_partial_order(batch, self.N, anchors)
        po = build_partial_order(batch, anchors, 2)
        assert po.beats.shape == (self.N, self.N)
        for anchor in anchors:
            assert not po.beats[anchor].any() and not po.beats[:, anchor].any()
            assert not any(po.resolved(anchor, x) for x in range(self.N) if x != anchor)
        free = [x for x in range(self.N) if x not in anchors]
        unresolved = sum(not (want[u, v] or want[v, u]) for u, v in itertools.combinations(free, 2))
        assert po.unresolved_pair_count == unresolved
