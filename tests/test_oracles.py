"""Oracle simulators: accounting, mixture sampling statistics, stream phases."""

import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import stats as st

from choicelab import oracles
from choicelab.core import InvalidQueryError, LatentOrder, PositionSelector, evaluate_many
from choicelab.oracles import (
    DeterministicOracle,
    MixedOracle,
    MixtureDistribution,
    ObservationBatch,
    StreamConfig,
    feasible_gamma,
    sample_phase,
    unrank_combinations,
)


class TestDeterministicOracle:
    def test_median_of_three_counts(self):
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(4))
        assert oracle.query((0, 1, 2)) == 1
        assert oracle.query_count == 1

    def test_rejected_queries_not_counted(self):
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(5))
        for _ in range(7):
            oracle.query((0, 1, 2))
        with pytest.raises(InvalidQueryError):
            oracle.query((0, 1))
        assert oracle.query_count == 7

    def test_fresh_oracle_zero(self):
        oracle = DeterministicOracle(PositionSelector(2, 1), LatentOrder.identity(3))
        assert oracle.query_count == 0

    def test_query_many_counts(self):
        oracle = DeterministicOracle(PositionSelector(3, 1), LatentOrder.identity(6))
        sets = np.array(list(itertools.combinations(range(6), 3)))
        answers = oracle.query_many(sets)
        assert oracle.query_count == len(sets)
        assert all(a == min(row) for a, row in zip(answers, sets))

    def test_query_many_accepts_a_list(self):
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(4))
        assert oracle.query_many([[0, 1, 2], [1, 2, 3]]).tolist() == [1, 2]
        assert oracle.query_count == 2


class TestMixtureDistribution:
    def test_normalizes_within_tolerance(self):
        mix = MixtureDistribution((0.5, 0.3, 0.2 + 1e-13), 0.05)
        assert abs(sum(mix.probs) - 1.0) < 1e-15

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            MixtureDistribution((0.5, 0.3, 0.3), 0.05)

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError):
            MixtureDistribution((1.0, 0.0), 0.1)

    def test_rejects_insufficient_separation(self):
        with pytest.raises(ValueError):
            MixtureDistribution((0.45, 0.55), 0.2)
        # exact-gamma gap is not strictly separated
        with pytest.raises(ValueError):
            MixtureDistribution((0.2, 0.3, 0.5), 0.1)

    def test_feasible_gamma(self):
        assert feasible_gamma((0.2, 0.3, 0.5)) == pytest.approx(0.1)


class TestMixedOracle:
    def test_answers_follow_mixture(self):
        mix = MixtureDistribution((0.5, 0.3, 0.2), 0.09)
        order = LatentOrder.identity(5)
        oracle = MixedOracle(order, mix, 123)
        outcomes = oracle.query_repeated((1, 2, 3), 100_000)
        freq = {x: float((outcomes == x).mean()) for x in (1, 2, 3)}
        assert abs(freq[1] - 0.5) < 0.01
        assert abs(freq[2] - 0.3) < 0.01
        assert abs(freq[3] - 0.2) < 0.01
        assert oracle.query_count == 100_000

    def test_chi_square_goodness_of_fit(self):
        # answers on a fixed set are iid categorical with pi permuted to the
        # set's internal order
        mix = MixtureDistribution((0.5, 0.3, 0.2), 0.09)
        order = LatentOrder((4, 2, 0, 1, 3))  # ranks scrambled
        oracle = MixedOracle(order, mix, 7)
        s = (0, 2, 3)
        outcomes = oracle.query_repeated(s, 100_000)
        by_rank = sorted(s, key=order.rank_of)
        observed = [int((outcomes == x).sum()) for x in by_rank]
        expected = [p * 100_000 for p in mix.probs]
        _, pvalue = st.chisquare(observed, expected)
        assert pvalue > 0.01

    def test_same_seed_identical_sequences(self):
        mix = MixtureDistribution((0.7, 0.3), 0.3)
        order = LatentOrder.identity(4)
        a = MixedOracle(order, mix, 99)
        b = MixedOracle(order, mix, 99)
        sa = [a.query((0, 2)) for _ in range(50)]
        sb = [b.query((0, 2)) for _ in range(50)]
        assert sa == sb

    def test_query_until_accounting(self):
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(6), mix, 11)
        outcomes, raw = oracle.query_until((0, 4, 5), (4, 5), 1000)
        assert outcomes.shape == (1000,)
        assert set(np.unique(outcomes)) <= {4, 5}
        assert raw >= 1000
        assert oracle.query_count == raw

    @pytest.mark.parametrize("count", [1, 7])
    @pytest.mark.parametrize("pair, mass", [((0, 1), 0.5), ((1, 2), 0.8)])
    def test_query_until_raw_matches_geometric_sum(self, count, pair, mass):
        # reference: the raw total as a sum of count geometric retry lengths
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(3), mix, 21)
        ref_rng = np.random.default_rng(22)
        calls = 20_000
        got = np.array([oracle.query_until((0, 1, 2), pair, count)[1]
                        for _ in range(calls)])
        want = np.array([int(ref_rng.geometric(mass, size=count).sum())
                         for _ in range(calls)])
        assert got.min() >= count
        assert oracle.query_count == got.sum()
        # chi-square on the 2 x m table of raw totals, the sparse tail pooled
        cap = int(np.quantile(np.concatenate([got, want]), 0.995))
        table = np.array([np.bincount(np.minimum(x, cap) - count,
                                      minlength=cap - count + 1)
                          for x in (got, want)])
        _, pvalue, _, _ = st.chi2_contingency(table)
        assert pvalue > 0.001

    def test_query_until_zero_count(self):
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(3), mix, 0)
        outcomes, raw = oracle.query_until((0, 1, 2), (0, 1), 0)
        assert outcomes.shape == (0,)
        assert raw == 0
        assert oracle.query_count == 0

    def test_query_until_k2_every_answer_informative(self):
        mix = MixtureDistribution((0.7, 0.3), 0.3)
        oracle = MixedOracle(LatentOrder.identity(4), mix, 5)
        for count in (1, 7, 1000):
            outcomes, raw = oracle.query_until((1, 3), (1, 3), count)
            assert outcomes.shape == (count,)
            assert raw == count
        assert oracle.query_count == 1008

    def test_wrong_size_rejected_uncounted(self):
        mix = MixtureDistribution((0.7, 0.3), 0.3)
        oracle = MixedOracle(LatentOrder.identity(4), mix, 0)
        with pytest.raises(InvalidQueryError):
            oracle.query((0, 1, 2))
        assert oracle.query_count == 0


def reference_repeated_counts(probs, count, rng):
    """The per-answer path query_repeated replaced: one categorical draw per
    answer, then the count of each rank position."""
    positions = rng.choice(len(probs), size=count, p=probs)
    return np.bincount(positions, minlength=len(probs))


def reference_wins(pu, pv, count, rng):
    """The per-answer path query_until replaced: one uniform per informative
    answer, u winning below pu / (pu + pv)."""
    return int((rng.random(count) < pu / (pu + pv)).sum())


def two_sample_pvalue(a, b, min_count=20):
    """Chi-square test that two samples of discrete outcomes (rows) share a
    law; outcomes seen fewer than min_count times in both samples together
    are pooled into one bin."""
    a, b = np.asarray(a).reshape(len(a), -1), np.asarray(b).reshape(len(b), -1)
    keys, inverse = np.unique(np.concatenate([a, b]), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    rare = np.bincount(inverse) < min_count
    bins = np.where(rare[inverse], len(keys), inverse)
    table = np.array([np.bincount(bins[: len(a)], minlength=len(keys) + 1),
                      np.bincount(bins[len(a):], minlength=len(keys) + 1)])
    _, pvalue, _, _ = st.chi2_contingency(table[:, table.sum(axis=0) > 0])
    return pvalue


class TestCountFormMatchesPerAnswerPath:
    # the oracle draws a repeated query's counts in one variate; each test
    # compares the law of those counts with the per-answer draws they replaced
    MIX = MixtureDistribution((0.5, 0.3, 0.2), 0.09)
    ORDER = LatentOrder((4, 2, 0, 1, 3))  # ranks scrambled against ids
    SET = (0, 2, 3)
    CALLS = 20_000

    def oracle(self, seed):
        return MixedOracle(self.ORDER, self.MIX, seed)

    @pytest.mark.parametrize("count", [5, 50])
    def test_repeated_count_vector(self, count):
        oracle = self.oracle(31)
        by_rank = sorted(self.SET, key=self.ORDER.rank_of)
        got = []
        for _ in range(self.CALLS):
            answers = oracle.query_repeated(self.SET, count)
            assert answers.shape == (count,)
            assert np.isin(answers, self.SET).all()
            got.append([int((answers == x).sum()) for x in by_rank])
        ref_rng = np.random.default_rng(32)
        want = [reference_repeated_counts(self.MIX.probs, count, ref_rng)
                for _ in range(self.CALLS)]
        assert oracle.query_count == count * self.CALLS
        assert two_sample_pvalue(got, want) > 0.001

    @pytest.mark.parametrize("count", [1, 7, 1000])
    def test_until_win_count(self, count):
        # u = 0 sits at rank position 2 (pi 0.3), v = 3 at position 3 (pi 0.2)
        oracle = self.oracle(41)
        pair = (0, 3)
        got = []
        for _ in range(self.CALLS):
            answers, raw = oracle.query_until(self.SET, pair, count)
            assert answers.shape == (count,)
            assert np.isin(answers, pair).all()
            assert raw >= count
            got.append(int((answers == pair[0]).sum()))
        ref_rng = np.random.default_rng(42)
        want = [reference_wins(0.3, 0.2, count, ref_rng) for _ in range(self.CALLS)]
        assert two_sample_pvalue(got, want) > 0.001


class TestStreamConfig:
    def test_rate_parameterization(self):
        cfg = StreamConfig.from_rate(alpha=0.5, t1=2.0, t2=3.0)
        assert cfg.p1 == pytest.approx(1 - math.exp(-1.0))
        assert cfg.p2 == pytest.approx(1 - math.exp(-1.5))

    def test_direct_parameterization(self):
        cfg = StreamConfig.from_probabilities(0.25, 0.5)
        assert (cfg.p1, cfg.p2) == (0.25, 0.5)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            StreamConfig.from_probabilities(0.0, 0.5)
        with pytest.raises(ValueError):
            StreamConfig.from_probabilities(0.5, 1.2)

    def test_coverage_values_and_monotone_decrease(self):
        # expected batch fraction is the p2 formula value, clamped to 1;
        # the raw fraction decreases toward 0 as n grows
        raw = []
        for n in (100, 200, 400, 800):
            lg = math.log2(n)
            raw.append(8 * lg * math.log2(lg) / n)
        assert all(a > b for a, b in zip(raw, raw[1:]))
        cfg200 = StreamConfig.from_coverage(8, 200)
        assert cfg200.p2 == pytest.approx(raw[1])
        expected_batch = cfg200.p2 * math.comb(200, 3)
        assert expected_batch == pytest.approx(raw[1] * 1313400)
        cfg100 = StreamConfig.from_coverage(8, 100)
        assert cfg100.p2 == 1.0  # formula exceeds 1 at n=100, clamped

    def test_observed_fraction_decreasing(self):
        fractions = [
            StreamConfig.from_coverage(8, n).observed_fraction for n in (100, 200, 400)
        ]
        assert all(a > b for a, b in zip(fractions, fractions[1:]))


class TestSamplePhase:
    def test_certain_inclusion_yields_all_sets(self):
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(6))
        cfg = StreamConfig.from_probabilities(1.0, 0.5)
        batch = sample_phase(cfg, 1, 6, 3, oracle, np.random.default_rng(0))
        assert len(batch) == 20
        rows = {tuple(r) for r, _ in batch.records()}
        assert rows == set(itertools.combinations(range(6), 3))

    def test_binomial_batch_sizes(self):
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(6))
        cfg = StreamConfig.from_probabilities(0.5, 0.5)
        rng = np.random.default_rng(42)
        sizes = [len(sample_phase(cfg, 1, 6, 3, oracle, rng)) for _ in range(10_000)]
        assert abs(np.mean(sizes) - 10.0) < 0.5

    def test_same_seed_identical_batches(self):
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(8))
        cfg = StreamConfig.from_probabilities(0.4, 0.4)
        b1 = sample_phase(cfg, 1, 8, 3, oracle, np.random.default_rng(5))
        b2 = sample_phase(cfg, 1, 8, 3, oracle, np.random.default_rng(5))
        assert np.array_equal(b1.sets, b2.sets)
        assert np.array_equal(b1.choices, b2.choices)

    def test_phase_inclusion_independence(self):
        # correlation of per-set inclusion indicators across phases ~ 0
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(6))
        cfg = StreamConfig.from_probabilities(0.5, 0.5)
        rng = np.random.default_rng(9)
        all_sets = list(itertools.combinations(range(6), 3))
        trials = 2000
        x1 = np.zeros((trials, 20))
        x2 = np.zeros((trials, 20))
        for t in range(trials):
            s1 = {tuple(r) for r, _ in sample_phase(cfg, 1, 6, 3, oracle, rng).records()}
            s2 = {tuple(r) for r, _ in sample_phase(cfg, 2, 6, 3, oracle, rng).records()}
            x1[t] = [s in s1 for s in all_sets]
            x2[t] = [s in s2 for s in all_sets]
        corr = np.corrcoef(x1.ravel(), x2.ravel())[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(trials * 20)


class TestObservationBatch:
    def test_choice_membership_enforced(self):
        with pytest.raises(ValueError):
            ObservationBatch(np.array([[0, 1, 2]]), np.array([5]))

    def test_non_member_in_later_row_rejected(self):
        sets = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]])
        with pytest.raises(ValueError, match="member of its set"):
            ObservationBatch(sets, np.array([1, 3, 5, 4]))  # row 3 of 4 is bad

    def test_empty_batch_accepted(self):
        batch = ObservationBatch(np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64))
        assert len(batch) == 0 and batch.k == 3

    def test_id_bound(self):
        # one more than the largest id of a hand-built batch; the universe
        # size of a sampled one, whose rows query_many has validated
        assert ObservationBatch(np.array([[0, 1, 5], [2, 3, 4]]), np.array([1, 3])).id_bound == 6
        assert ObservationBatch(np.empty((0, 3), dtype=np.int64), []).id_bound == 0
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(9))
        cfg = StreamConfig.from_probabilities(0.2, 0.2)
        batch = sample_phase(cfg, 1, 9, 3, oracle, np.random.default_rng(3))
        assert batch.id_bound == 9 and len(batch) == oracle.query_count

    def test_jsonl_roundtrip(self):
        batch = ObservationBatch(
            np.array([[0, 1, 2], [1, 3, 4]]), np.array([1, 3])
        )
        buf = io.StringIO()
        batch.to_jsonl(buf)
        assert buf.getvalue().splitlines()[0] == '{"set": [0, 1, 2], "choice": 1}'
        buf.seek(0)
        back = ObservationBatch.from_jsonl(buf)
        assert np.array_equal(back.sets, batch.sets)
        assert np.array_equal(back.choices, batch.choices)

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"set": [0.5, 1, 2], "choice": 1}', "must be integers"),
            ('{"set": [0, 1, 2], "choice": 1.7}', "choice must be an integer id"),
            ('{"set": [1, 1, 3], "choice": 1}', "duplicate ids"),
            ('{"set": [0, 1], "choice": 1}', "has 2 ids, the first set has 3"),
        ],
        ids=["float-set-id", "float-choice", "duplicate-set-id", "ragged-set"],
    )
    def test_jsonl_rejects_non_integer_or_duplicate_ids(self, record, message):
        buf = io.StringIO('{"set": [0, 1, 2], "choice": 1}\n' + record + "\n")
        with pytest.raises(InvalidQueryError, match=message):
            ObservationBatch.from_jsonl(buf)

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"set": 5, "choice": 5}', "must be a list of ids"),
            ('{"set": [[0], [1], [2]], "choice": 1}', r"\(m, k\) array"),
            ('{"set": [0, [1], 2], "choice": 0}', "ids must be integers"),
            ('{"set": [0, 1, 2], "choice": true}', "choice must be an integer id"),
            ('{"set": [0, 1, 2], "choice": [1]}', "one choice per set"),
        ],
        ids=["scalar-set", "nested-set", "nested-id", "bool-choice", "list-choice"],
    )
    def test_jsonl_rejects_malformed_records(self, record, message):
        with pytest.raises(InvalidQueryError, match=message):
            ObservationBatch.from_jsonl(io.StringIO(record + "\n"))


def colex_rank(row) -> int:
    """Exact colex rank of a sorted k-subset: sum of C(row[j], j+1)."""
    return sum(math.comb(int(c), j + 1) for j, c in enumerate(row))


def reference_sample_distinct_indices(total, m, rng):
    """The rank sampler sample_phase used before its dense phases drew one
    uniform per k-set: a uniform distinct sample of m ranks, unsorted. The
    sparse branch makes the same rng calls as sample_phase still does."""
    if m >= total:
        return np.arange(total, dtype=np.int64)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if total <= 1 << 22 or m / total > 0.01:
        return rng.choice(total, size=m, replace=False).astype(np.int64)
    picked = np.unique(rng.integers(0, total, size=int(m * 1.1) + 16))
    while picked.size < m:
        extra = rng.integers(0, total, size=m)
        picked = np.unique(np.concatenate([picked, extra]))
    return rng.permutation(picked)[:m].astype(np.int64)


def reference_unrank(indices, n, k):
    """Colex unranking with one searchsorted per level, j = k..1, over an
    exact math.comb table."""
    table = np.array([[math.comb(c, j) for c in range(n + 1)] for j in range(k + 1)])
    remaining = np.asarray(indices, dtype=np.int64).copy()
    out = np.empty((remaining.size, k), dtype=np.int64)
    for j in range(k, 0, -1):
        c = np.searchsorted(table[j], remaining, side="right") - 1
        out[:, j - 1] = c
        remaining = remaining - table[j, c]
    return out


def reference_sample_phase(p, n, k, oracle, rng):
    total = math.comb(n, k)
    m = total if p >= 1.0 else int(rng.binomial(total, p))
    sets = reference_unrank(reference_sample_distinct_indices(total, m, rng), n, k)
    return sets, oracle.query_many(sets)


def lexsorted(sets, choices):
    order = np.lexsort(sets.T[::-1])
    return sets[order], choices[order]


def colex_ranks(sets, n):
    """Colex rank of each sorted row of sets, vectorized over an exact table."""
    k = sets.shape[1]
    table = np.array([[math.comb(c, j) for c in range(n + 1)] for j in range(k + 1)])
    return sum(table[j + 1][sets[:, j]] for j in range(k))


class TestSamplePhaseReference:
    """sample_phase against the reference path: a binomial batch size, then
    a uniform distinct sample of that many ranks. In the dense regime
    sample_phase draws one uniform per k-set instead, so the test compares
    laws; in the sparse regime it makes the reference's rng calls, so the
    test compares records."""

    DRAWS = 3000

    @pytest.mark.parametrize(
        "n, k, p, seed",
        [(30, 3, 0.3, 1), (12, 5, 0.7, 2), (9, 3, 0.9, 3), (10, 4, 0.02, 4)],
        ids=["dense-n30", "dense-n12-k5", "dense-p0.9", "dense-p0.02"],
    )
    def test_same_law_as_reference(self, n, k, p, seed):
        order = LatentOrder.random(n, np.random.default_rng(seed))
        oracle = DeterministicOracle(PositionSelector(k, 2), order)
        cfg = StreamConfig.from_probabilities(p, p)
        total = math.comb(n, k)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed + 100)
        sizes = np.zeros((2, self.DRAWS))
        inclusions = np.zeros((2, total), dtype=np.int64)
        for t in range(self.DRAWS):
            batch = sample_phase(cfg, 1, n, k, oracle, got_rng)
            assert np.array_equal(batch.choices, evaluate_many(oracle.selector, order, batch.sets))
            ranks = colex_ranks(batch.sets, n)
            assert (np.diff(ranks) > 0).all()  # distinct, in ascending colex rank
            want_sets, _ = reference_sample_phase(p, n, k, oracle, want_rng)
            for side, r in enumerate((ranks, colex_ranks(want_sets, n))):
                sizes[side, t] = r.size
                inclusions[side] += np.bincount(r, minlength=total)
        assert st.ttest_ind(sizes[0], sizes[1], equal_var=False).pvalue > 0.001
        assert st.levene(sizes[0], sizes[1]).pvalue > 0.001
        for side in (0, 1):  # both near the binomial's mean and variance
            assert abs(sizes[side].mean() / (total * p) - 1) < 0.02
            assert abs(sizes[side].var() / (total * p * (1 - p)) - 1) < 0.15
        _, pvalue, _, _ = st.chi2_contingency(inclusions)
        assert pvalue > 0.001

    @pytest.mark.parametrize(
        "n, k, p, seed",
        [(300, 4, 3e-4, 3)],  # dedupe-and-top-up, then permute
        ids=["sparse-n300"],
    )
    def test_same_records_as_reference(self, n, k, p, seed):
        order = LatentOrder.random(n, np.random.default_rng(seed))
        oracle = DeterministicOracle(PositionSelector(k, 2), order)
        cfg = StreamConfig.from_probabilities(p, p)
        batch = sample_phase(cfg, 1, n, k, oracle, np.random.default_rng(seed))
        want_sets, want_choices = reference_sample_phase(
            p, n, k, oracle, np.random.default_rng(seed)
        )
        assert len(batch) == len(want_sets) > 0
        total = math.comb(n, k)
        assert total > 1 << 22 and len(batch) / total <= 0.01
        got = lexsorted(batch.sets, batch.choices)
        want = lexsorted(want_sets, want_choices)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        ranks = np.array([colex_rank(row) for row in batch.sets])
        assert (np.diff(ranks) > 0).all()  # ascending colex rank


class TestUnranking:
    @pytest.mark.parametrize("n, k", [(7, 1), (7, 2), (9, 4), (12, 6), (10, 10)])
    def test_colex_bijection_exhaustive(self, n, k):
        rows = unrank_combinations(np.arange(math.comb(n, k)), n, k)
        colex = sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])
        assert [tuple(r) for r in rows.tolist()] == colex

    @pytest.mark.parametrize("n, k", [(10_000, 3), (3000, 5)])
    def test_large_ranks_exact(self, n, k):
        total = math.comb(n, k)
        rng = np.random.default_rng(n + k)
        ranks = {0, total - 1, *(int(x) for x in rng.integers(0, total, size=300))}
        for j in range(1, k + 1):  # the edges of every level's search
            for c in (j, j + 1, n // 3, n // 2, n - 2, n - 1):
                ranks.update(r for r in (math.comb(c, j) - 1, math.comb(c, j)) if r < total)
        ranks = np.array(sorted(ranks), dtype=np.int64)
        rows = unrank_combinations(ranks, n, k)
        assert (np.diff(rows, axis=1) > 0).all()
        assert rows.min() >= 0 and rows.max() < n
        assert [colex_rank(row) for row in rows.tolist()] == ranks.tolist()
        shuffled = rng.permutation(ranks.size)
        assert np.array_equal(unrank_combinations(ranks[shuffled], n, k), rows[shuffled])

    @settings(max_examples=200, deadline=None)
    @given(
        k=hst.integers(1, 8),
        n_extra=hst.integers(0, 400),
        m=hst.one_of(hst.integers(0, 3), hst.integers(4, 5000)),
        ascending=hst.booleans(),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_matches_reference_unrank(self, k, n_extra, m, ascending, seed):
        n = k + n_extra
        total = math.comb(n, k)  # at most C(408, 8), about 2e16
        ranks = np.random.default_rng(seed).integers(0, total, size=m)
        if ascending:
            ranks.sort()
        given_ranks = ranks.copy()
        got = unrank_combinations(ranks, n, k)
        assert got.shape == (m, k) and got.dtype == np.int64
        assert np.array_equal(got, reference_unrank(ranks, n, k))
        assert np.array_equal(ranks, given_ranks)  # the caller's ranks are not consumed

    def test_table_overflow_rejected(self):
        # C(100, 90) fits in int64 but the table's C(100, 50) does not; an
        # overflowed table unranked most ranks wrong
        assert math.comb(100, 90) < 2**63 <= math.comb(100, 50)
        with pytest.raises(OverflowError, match="int64"):
            unrank_combinations(np.array([0, 1]), 100, 90)

    def test_bijection_small(self):
        n, k = 7, 3
        total = math.comb(n, k)
        rows = unrank_combinations(np.arange(total), n, k)
        as_tuples = {tuple(r) for r in rows}
        assert len(as_tuples) == total
        assert as_tuples == set(itertools.combinations(range(n), k))
        assert (np.diff(rows, axis=1) > 0).all()

    # Ascending ranks decode block by block when there are at least
    # C(n-1, k-1) of them; every other input takes the per-level search.

    @pytest.mark.parametrize(
        "n, k, p", [(30, 3, 0.3), (40, 4, 0.2), (12, 6, 0.9), (200, 3, 0.02), (25, 2, 0.5)]
    )
    def test_block_decode_bernoulli_ranks(self, n, k, p):
        # ascending distinct ranks, drawn as sample_phase draws them
        total = math.comb(n, k)
        ranks = np.flatnonzero(np.random.default_rng(n + k).random(total) < p)
        assert ranks.size >= math.comb(n - 1, k - 1)
        rows = unrank_combinations(ranks, n, k)
        assert np.array_equal(rows, reference_unrank(ranks, n, k))
        assert rows.T.flags.c_contiguous

    @pytest.mark.parametrize("n, k", [(30, 3), (15, 5), (60, 2)])
    def test_block_decode_sorted_ranks_with_duplicates(self, n, k):
        # sorted draws with replacement, as sampled scoring draws them
        total = math.comb(n, k)
        ranks = np.sort(np.random.default_rng(n * k).integers(0, total, size=2 * total))
        assert (np.diff(ranks) == 0).any()
        assert np.array_equal(unrank_combinations(ranks, n, k), reference_unrank(ranks, n, k))

    @pytest.mark.parametrize("n, k", [(30, 3), (12, 5), (9, 2)])
    @pytest.mark.parametrize("short", [0, 1])
    def test_block_decode_threshold(self, n, k, short, monkeypatch):
        # m = C(n-1, k-1) decodes block by block, one rank fewer by search; the
        # block path unranks its (k-1)-table through the private decoder
        calls = []
        decode = oracles._unrank

        def spy(indices, n, k):
            calls.append((n, k))
            return decode(indices, n, k)

        monkeypatch.setattr(oracles, "_unrank", spy)
        m = math.comb(n - 1, k - 1) - short
        ranks = np.sort(np.random.default_rng(m).choice(math.comb(n, k), size=m, replace=False))
        rows = unrank_combinations(ranks, n, k)
        assert np.array_equal(rows, reference_unrank(ranks, n, k))
        assert rows.T.flags.c_contiguous
        assert ((n - 1, k - 1) in calls) == (short == 0)

    @pytest.mark.parametrize(
        "n, k, ranks",
        [
            (8, 2, np.arange(28)),  # its (k-1)-table is unranked at k = 1
            (5, 5, np.array([0])),  # n = k: one k-set, a table of one row
            (5, 5, np.array([0, 0, 0])),
            (6, 6, np.empty(0, dtype=np.int64)),  # m = 0
            (9, 3, np.empty(0, dtype=np.int64)),
        ],
    )
    def test_block_decode_edges(self, n, k, ranks):
        rows = unrank_combinations(ranks, n, k)
        assert rows.shape == (ranks.size, k) and rows.dtype == np.int64
        assert np.array_equal(rows, reference_unrank(ranks, n, k))
        assert rows.T.flags.c_contiguous

    @pytest.mark.parametrize(
        "ranks",
        [[-1], [10], [11], [0, 10], [9, -1], list(range(11)), [-1, *range(9)]],
        ids=["negative", "at-total", "past-total", "among-valid", "unsorted",
             "ascending-block", "negative-block"],
    )
    def test_out_of_range_ranks_rejected(self, ranks):
        # C(5, 3) = 10; block-sized ascending inputs out of range fall back
        # to the per-level search, which checks them
        with pytest.raises(ValueError, match=r"colex ranks must lie in \[0, C\(5, 3\)\)"):
            unrank_combinations(np.array(ranks), 5, 3)

    def test_unsorted_ranks_keep_the_search(self):
        # the same ranks, shuffled, give the same rows in the shuffled order
        n, k = 30, 3
        ranks = np.arange(math.comb(n, k))
        shuffled = np.random.default_rng(7).permutation(ranks)
        rows = unrank_combinations(shuffled, n, k)
        assert np.array_equal(rows, unrank_combinations(ranks, n, k)[shuffled])
        assert rows.T.flags.c_contiguous
