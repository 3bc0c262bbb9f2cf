"""Passive-stream recovery: ineligible detection, anchored closure, coverage."""

import io
import itertools
import json
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
    unrank_combinations,
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

    @pytest.mark.parametrize(
        "sets, choices",
        [([[0, 1, 7]], [7]), ([[-1, 0, 1]], [-1]), ([[0, 1, 2], [3, 4, 9]], [1, 9])],
        ids=["at-n", "negative", "among-valid"],
    )
    def test_out_of_range_choice_rejected(self, sets, choices):
        # a negative id is refused when the batch is built, one >= n by the reader
        with pytest.raises(InvalidQueryError, match="out of range"):
            find_ineligible_passive(ObservationBatch(np.array(sets), np.array(choices)), 7)

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

    @pytest.mark.parametrize("row", [[0, 1, 5], [-1, 1, 2], [1, 2, 6]])
    def test_out_of_range_record_rejected(self, row):
        # anchored or not, a record naming an id outside [0, n) is rejected
        with pytest.raises(InvalidQueryError, match="out of range"):
            batch = ObservationBatch(np.array([[0, 1, 2], row]), np.array([1, row[1]]))
            build_partial_order(batch, 5, (0,), 2)

    def test_resolved_rejects_ids_outside_universe(self):
        order = LatentOrder.identity(8)
        batch = anchored_batch(order, 3, 2, (0,), [(1, 2), (2, 3)])
        po = build_partial_order(batch, 8, (0,), 2)
        for u, v in ((99, 99), (-1, -1), (8, 8), (1, 99), (1.0, 2.0)):
            with pytest.raises(InvalidQueryError):
                po.resolved(u, v)
        assert po.resolved(3, 3) and po.resolved(0, 0)

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

    @pytest.mark.parametrize("position", [0, 4, 7, -1])
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

    @pytest.mark.parametrize(
        "position, seed, want", [(2, 0, "reflected"), (2, 3, "stored"), (3, 0, "stored")]
    )
    @pytest.mark.parametrize("exhaustive", [True, False], ids=["exhaustive", "sampled"])
    def test_report_scores_both_answer_many_readings(self, exhaustive, position, seed, want):
        # the report scores both readings in one pass over the beats lookups;
        # its figures are those of one answer_many call per reading
        n, k = 14, 4
        selector = PositionSelector(k, position)
        order = LatentOrder.random(n, np.random.default_rng(seed))
        oracle = DeterministicOracle(selector, order)
        stream = StreamConfig.from_probabilities(0.9, 0.9)
        batch = sample_phase(stream, 2, n, k, oracle, np.random.default_rng(4))
        anchors = sorted(ineligible_set(selector, order))[: k - 2]
        po = build_partial_order(batch, n, anchors, position)
        limit, size = (10**6, 0) if exhaustive else (10, 500)
        report = coverage_report(po, selector, order, sample_size=size,
                                 rng=np.random.default_rng(5), exhaustive_limit=limit)
        if exhaustive:
            sets = all_ksets(n, k)
        else:
            ranks = np.random.default_rng(5).integers(0, math.comb(n, k), size=size)
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

    def test_report_rejects_a_model_of_other_sets(self):
        order = LatentOrder.identity(8)
        batch = anchored_batch(order, 3, 2, (0,), itertools.combinations(range(1, 8), 2))
        po = build_partial_order(batch, 8, (0,), 2)
        for selector, n in ((PositionSelector(4, 2), 8), (PositionSelector(3, 2), 9)):
            with pytest.raises(InvalidQueryError):
                coverage_report(po, selector, LatentOrder.identity(n))

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


def reference_partial_order(batch, n, anchors):
    """build_partial_order record by record: the closed beats over the
    non-anchor ids, or the start of the InconsistentStreamError message
    that the kernel raises first."""
    anchors = set(anchors)
    elements = [x for x in range(n) if x not in anchors]
    index = {x: i for i, x in enumerate(elements)}
    edges = []
    for row, choice in batch.records():
        if not anchors <= set(row):
            continue
        u, v = (x for x in row if x not in anchors)
        if choice not in (u, v):
            return "an anchored record chose an anchor"
        edges.append((index[choice], index[v if choice == u else u]))
    size = len(elements)
    reach = [[False] * size for _ in range(size)]
    for w, l in edges:
        reach[w][l] = True
    if any(reach[i][j] and reach[j][i] for i in range(size) for j in range(size)):
        return "contradictory orientations"
    for via in range(size):  # Warshall
        for i in range(size):
            if reach[i][via]:
                for j in range(size):
                    reach[i][j] = reach[i][j] or reach[via][j]
    if any(reach[i][i] for i in range(size)):
        return "orientation cycle"
    return np.array(reach, dtype=bool).reshape(size, size)


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
            sets, evaluate_many(PositionSelector(k, 2), LatentOrder.random(n, rng), sets)
        )
    if rule == "repeated":
        sets = np.concatenate([sets, sets])
    held = np.isin(sets, anchors)
    if rule == "ranked":
        score = rng.permutation(n)[sets]
    else:
        score = rng.random(sets.shape)
    score[held] = -1
    return ObservationBatch(sets, sets[np.arange(len(sets)), np.argmax(score, axis=1)])


# Each record holds one id the readers must refuse in a universe of 7.
BAD_RECORDS = {
    "id-at-n": ([[0, 1, 2], [0, 3, 7]], [1, 3]),
    "negative-id": ([[0, 1, 2], [-1, 0, 3]], [1, 0]),
    "float-id": ([[0, 1, 2], [0, 3, 4.5]], [1, 3]),
    "duplicate-ids": ([[0, 1, 2], [0, 3, 3]], [1, 3]),
}


def batch_from(source, sets, choices):
    if source == "hand-built":
        return ObservationBatch(np.array(sets), np.array(choices))
    lines = (json.dumps({"set": s, "choice": c}) for s, c in zip(sets, choices))
    return ObservationBatch.from_jsonl(io.StringIO("\n".join(lines)))


@pytest.mark.parametrize("source", ["hand-built", "jsonl"])
@pytest.mark.parametrize("bad", BAD_RECORDS)
def test_invalid_records_rejected(source, bad):
    # an id >= n passes the batch, which has no universe, and fails each reader
    readers = (
        lambda batch: find_ineligible_passive(batch, 7),
        lambda batch: build_partial_order(batch, 7, (0,), 2),
    )
    for read in readers:
        with pytest.raises(InvalidQueryError):
            read(batch_from(source, *BAD_RECORDS[bad]))


class TestBuildPartialOrderReference:
    N = 9

    @pytest.mark.parametrize(
        "k, anchors",
        [(3, (0,)), (3, (4,)), (3, (8,)), (4, (0, 8)), (4, (2, 5)), (4, (0, 1)), (4, (7, 8))],
    )
    @pytest.mark.parametrize("rule", ["oracle", "ranked", "noisy", "repeated"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_record_by_record_reference(self, k, anchors, rule, seed):
        batch = reference_stream(self.N, k, anchors, rule, seed)
        with io.StringIO() as buf:
            batch.to_jsonl(buf)
            buf.seek(0)
            from_file = ObservationBatch.from_jsonl(buf)
        want = reference_partial_order(batch, self.N, anchors)
        for got_batch in (batch, from_file):
            if isinstance(want, str):
                with pytest.raises(InconsistentStreamError, match=want):
                    build_partial_order(got_batch, self.N, anchors, 2)
            else:
                po = build_partial_order(got_batch, self.N, anchors, 2)
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
