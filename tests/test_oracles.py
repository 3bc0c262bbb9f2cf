"""Oracle simulators: accounting, mixture sampling statistics, stream phases."""

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
    INT64_MAX,
    AnswerCounts,
    DeterministicOracle,
    MixedOracle,
    MixtureDistribution,
    ObservationBatch,
    StreamConfig,
    all_ksets,
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

    def test_selector_cannot_be_rebound(self):
        # query reads k and the position cached at construction
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(4))
        with pytest.raises(AttributeError):
            oracle.selector = PositionSelector(3, 1)
        assert oracle.selector == PositionSelector(3, 2)
        assert oracle.query((0, 1, 2)) == 1

    def test_subclass_sets_its_own_attributes(self):
        # __slots__ on the base leaves a subclass its own instance dict
        class Logging(DeterministicOracle):
            def __init__(self, selector, order):
                super().__init__(selector, order)
                self.log, self.asked = [], 0

            def query(self, s):
                self.log.append(tuple(s))
                self.asked += 1
                return super().query(s)

        oracle = Logging(PositionSelector(3, 3), LatentOrder.identity(5).reversed())
        assert [oracle.query(s) for s in [(0, 1, 2), (2, 3, 4)]] == [0, 2]
        assert oracle.log == [(0, 1, 2), (2, 3, 4)]
        assert oracle.asked == oracle.query_count == 2
        assert (oracle.n, oracle.k) == (5, 3)


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


class TestAnswerCounts:
    def test_len_and_count(self):
        answers = AnswerCounts((4, 1, 7), (3, 0, 5))
        assert len(answers) == 8
        assert [answers.count(x) for x in (4, 1, 7)] == [3, 0, 5]
        assert answers.count(9) == 0  # not a member
        assert len(AnswerCounts((1, 2), (0, 0))) == 0

    def test_equality_and_hash(self):
        answers = AnswerCounts((4, 1, 7), (3, 0, 5))
        same = AnswerCounts((4, 1, 7), (3, 0, 5))
        assert answers == same and hash(answers) == hash(same)
        assert answers != AnswerCounts((4, 1, 7), (3, 1, 4))
        assert answers != AnswerCounts((1, 4, 7), (3, 0, 5))
        assert answers != ((4, 1, 7), (3, 0, 5))

    @pytest.mark.parametrize("name", ["members", "counts", "other"])
    def test_refuses_attribute_assignment(self, name):
        answers = AnswerCounts((4, 1), (3, 0))
        with pytest.raises(AttributeError):
            setattr(answers, name, (1,))
        assert (answers.members, answers.counts) == ((4, 1), (3, 0))


class TestMixedOracle:
    def test_answers_follow_mixture(self):
        mix = MixtureDistribution((0.5, 0.3, 0.2), 0.09)
        order = LatentOrder.identity(5)
        oracle = MixedOracle(order, mix, 123)
        outcomes = oracle.query_repeated((1, 2, 3), 100_000)
        assert len(outcomes) == 100_000
        freq = {x: outcomes.count(x) / 100_000 for x in (1, 2, 3)}
        assert abs(freq[1] - 0.5) < 0.01
        assert abs(freq[2] - 0.3) < 0.01
        assert abs(freq[3] - 0.2) < 0.01
        assert oracle.query_count == 100_000

    def test_k_is_a_plain_attribute(self):
        # every query reads k; it is stored once, as LatentOrder.n is
        mix = MixtureDistribution((0.1, 0.2, 0.3, 0.4), 0.09)
        oracle = MixedOracle(LatentOrder.identity(6), mix, 1)
        assert vars(oracle)["k"] == 4 and "k" not in vars(MixedOracle)

    def test_chi_square_goodness_of_fit(self):
        # answers on a fixed set are iid categorical with pi permuted to the
        # set's internal order
        mix = MixtureDistribution((0.5, 0.3, 0.2), 0.09)
        order = LatentOrder((4, 2, 0, 1, 3))  # ranks scrambled
        oracle = MixedOracle(order, mix, 7)
        s = (0, 2, 3)
        outcomes = oracle.query_repeated(s, 100_000)
        by_rank = sorted(s, key=order.rank_of)
        observed = [outcomes.count(x) for x in by_rank]
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
        assert len(outcomes) == 1000
        assert outcomes.members == (4, 5)
        assert outcomes.count(0) == 0
        assert raw >= 1000
        assert oracle.query_count == raw

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_query_until_len_is_count(self, k):
        # bench/tracer.py books len() of the answers as the informative
        # outcomes and the second item as the raw queries
        mix = {2: MixtureDistribution((0.7, 0.3), 0.3),
               3: MixtureDistribution((0.2, 0.3, 0.5), 0.09),
               4: MixtureDistribution((0.1, 0.2, 0.3, 0.4), 0.09)}[k]
        oracle = MixedOracle(LatentOrder((3, 0, 5, 1, 4, 2)), mix, 12)
        s, pair = (5, 1, 3, 0)[:k], (1, 5)
        for count in (0, 1, 7, 1000):
            before = oracle.query_count
            answers, raw = oracle.query_until(s, pair, count)
            assert len(answers) == count
            assert type(len(answers)) is int and type(raw) is int
            assert answers.count(1) + answers.count(5) == sum(answers.counts) == count
            assert raw == count if k == 2 else raw >= count  # k=2: every answer informative
            assert oracle.query_count - before == raw

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
        assert len(outcomes) == 0
        assert raw == 0
        assert oracle.query_count == 0

    def test_query_until_k2_every_answer_informative(self):
        mix = MixtureDistribution((0.7, 0.3), 0.3)
        oracle = MixedOracle(LatentOrder.identity(4), mix, 5)
        for count in (1, 7, 1000):
            outcomes, raw = oracle.query_until((1, 3), (1, 3), count)
            assert len(outcomes) == count
            assert raw == count
        assert oracle.query_count == 1008

    @pytest.mark.parametrize("count", [INT64_MAX + 1, 2**70, np.uint64(INT64_MAX + 1)])
    def test_counts_past_int64_refused_before_any_draw(self, count):
        # numpy draws at most INT64_MAX: past it query_repeated raised
        # OverflowError and query_until numpy's "n too large", after the set's checks
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(5), mix, 0)
        state = oracle._rng.bit_generator.state
        with pytest.raises(InvalidQueryError, match="count must lie in"):
            oracle.query_repeated((1, 2, 3), count)
        with pytest.raises(InvalidQueryError, match="count must lie in"):
            oracle.query_until((1, 2, 3), (1, 2), count)
        assert oracle.query_count == 0
        assert oracle._rng.bit_generator.state == state
        assert len(oracle.query_repeated((1, 2, 3), INT64_MAX)) == INT64_MAX

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2)])
    @pytest.mark.parametrize("count", [INT64_MAX, 2**62 + 2**61])
    def test_counts_whose_raw_total_leaves_int64_refused_before_any_draw(self, count, pair):
        # at pair mass 0.5, INT64_MAX failed inside numpy's negative-binomial
        # draw with "n too large or p too small", and 2**62 + 2**61 returned
        # a raw total of 13,835,058,054,236,304,384, past INT64_MAX; the
        # limit is the oracle's, so the pair of mass 0.8 refuses them too
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(3), mix, 0)
        state = oracle._rng.bit_generator.state
        with pytest.raises(InvalidQueryError, match="raw total stays within the int64 limit"):
            oracle.query_until((0, 1, 2), pair, count)
        assert oracle.query_count == 0
        assert oracle._rng.bit_generator.state == state

    @pytest.mark.parametrize("probs, gamma", [((0.2, 0.3, 0.5), 0.09),
                                              ((1e-12, 0.4, 0.6 - 1e-12), 0.1),
                                              ((0.7, 0.3), 0.3)])
    def test_the_count_limit_is_drawn_at_the_least_pair_mass(self, probs, gamma):
        oracle = MixedOracle(LatentOrder.identity(3), MixtureDistribution(probs, gamma), 0)
        limit, lam_max = oracle._count_limit, oracles._POISSON_LAM_MAX
        least = sum(sorted(oracle._prob_list)[:2])
        # the largest such count, to float rounding
        assert (limit + 10 * math.sqrt(limit)) / least == pytest.approx(lam_max, rel=1e-15)
        s = tuple(range(len(probs)))
        pair = tuple(sorted(s, key=lambda x: oracle._prob_list[x])[:2])
        answers, raw = oracle.query_until(s, pair, limit)
        assert len(answers) == sum(answers.counts) == limit
        assert limit <= raw <= INT64_MAX and oracle.query_count == raw
        with pytest.raises(InvalidQueryError, match="raw total stays within"):
            oracle.query_until(s, pair, limit + 1)
        assert oracle.query_count == raw

    def test_wrong_size_rejected_uncounted(self):
        mix = MixtureDistribution((0.7, 0.3), 0.3)
        oracle = MixedOracle(LatentOrder.identity(4), mix, 0)
        with pytest.raises(InvalidQueryError):
            oracle.query((0, 1, 2))
        assert oracle.query_count == 0

    @pytest.mark.parametrize(
        "pair",
        [(2, False), (np.int64(1), True), (1,), (0, 1, 2), 5],
        ids=["bool-second", "numpy-and-bool", "one-id", "three-ids", "not-a-pair"],
    )
    def test_query_until_rejects_non_integer_pair_ids(self, pair):
        # the set refuses a bool id through kset; the pair refuses it too,
        # never reading True as id 1
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.05)
        oracle = MixedOracle(LatentOrder.identity(5), mix, 0)
        with pytest.raises(InvalidQueryError, match="must be two integer ids"):
            oracle.query_until((1, 2, 3), pair, 5)
        assert oracle.query_count == 0
        answers, _ = oracle.query_until((1, 2, 3), (np.int64(1), 2), 5)
        assert answers.members == (1, 2) and len(answers) == 5


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
            assert len(answers) == count
            assert sorted(answers.members) == sorted(self.SET)
            got.append([answers.count(x) for x in by_rank])
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
            assert len(answers) == count
            assert answers.members == pair
            assert raw >= count
            got.append(answers.count(pair[0]))
        ref_rng = np.random.default_rng(42)
        want = [reference_wins(0.3, 0.2, count, ref_rng) for _ in range(self.CALLS)]
        assert two_sample_pvalue(got, want) > 0.001


class ReferenceMixedOracle:
    """The repeated-query path before its per-call costs were cut, kept as
    the reference for bit-identity: members sorted by rank_of, the pair's
    probabilities as numpy scalars, and np.repeat over a list of members
    or a tuple of the pair. It draws from its own generator in the order
    MixedOracle does; input checks are left out."""

    def __init__(self, order, mixture, seed):
        self.order = order
        self.rng = np.random.default_rng(seed)
        self.probs = np.asarray(mixture.probs)
        self.query_count = 0

    def members_by_rank(self, s):
        return sorted(s, key=self.order.rank_of)

    def query_repeated(self, s, count):
        members = self.members_by_rank(s)
        chosen = self.rng.multinomial(count, self.probs)
        self.query_count += count
        return np.repeat(members, chosen)

    def query_until(self, s, pair, count):
        members = self.members_by_rank(s)
        u, v = pair
        if count == 0:
            return np.empty(0, dtype=np.int64), 0
        pu = self.probs[members.index(u)]
        pv = self.probs[members.index(v)]
        informative = pu + pv
        raw = count + int(self.rng.negative_binomial(count, informative))
        wins_u = int(self.rng.binomial(count, pu / informative))
        self.query_count += raw
        return np.repeat((u, v), (wins_u, count - wins_u)), raw


class TestRepeatedQueriesBitIdentical:
    # the same seed must give the same answers, raw totals, query counts and
    # generator state as the reference, call after call
    MIXES = {
        2: MixtureDistribution((0.7, 0.3), 0.3),
        3: MixtureDistribution((0.15, 0.35, 0.5), 0.09),
        4: MixtureDistribution((0.1, 0.2, 0.3, 0.4), 0.09),
    }
    ORDER = LatentOrder((4, 2, 6, 0, 1, 5, 3))  # ranks scrambled against ids
    COUNTS = (0, 1, 2, 37, 250_000)

    @staticmethod
    def assert_same(got: AnswerCounts, want: np.ndarray):
        # the counts are the reference's answers counted per member, and
        # expanded in member order they are the reference's answer array
        assert len(got) == len(want)
        assert got.counts == tuple(int(np.count_nonzero(want == m)) for m in got.members)
        expanded = np.repeat(np.array(got.members, dtype=np.int64), got.counts)
        assert expanded.dtype == want.dtype
        assert np.array_equal(expanded, want)  # shape, values and grouping

    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_mixed_call_sequence(self, k, seed):
        oracle = MixedOracle(self.ORDER, self.MIXES[k], seed)
        reference = ReferenceMixedOracle(self.ORDER, self.MIXES[k], seed)
        script = np.random.default_rng(1000 + seed)
        for _ in range(3):
            s = tuple(script.choice(self.ORDER.n, size=k, replace=False).tolist())
            u, v = s[:2]
            for count in self.COUNTS:
                self.assert_same(oracle.query_repeated(s, count),
                                 reference.query_repeated(s, count))
                for pair in ((u, v), (v, u)):
                    got, raw = oracle.query_until(s, pair, count)
                    want, want_raw = reference.query_until(s, pair, count)
                    self.assert_same(got, want)
                    assert raw == want_raw
                assert oracle.query_count == reference.query_count
                assert oracle._rng.bit_generator.state == reference.rng.bit_generator.state
            answer = oracle.query(s)
            assert type(answer) is int
            assert answer == int(reference.query_repeated(s, 1)[0])
        assert oracle.query_count == reference.query_count
        assert oracle._rng.bit_generator.state == reference.rng.bit_generator.state


class TestStreamConfig:
    def test_rate_parameterization(self):
        cfg = StreamConfig.from_rate(alpha=0.5, t1=2.0, t2=3.0)
        assert cfg.p1 == pytest.approx(1 - math.exp(-1.0))
        assert cfg.p2 == pytest.approx(1 - math.exp(-1.5))

    def test_direct_parameterization(self):
        cfg = StreamConfig(0.25, 0.5)
        assert (cfg.p1, cfg.p2) == (0.25, 0.5)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            StreamConfig(0.0, 0.5)
        with pytest.raises(ValueError):
            StreamConfig(0.5, 1.2)

    @pytest.mark.parametrize("p", [True, np.True_, "0.5", None, 0.5j, float("nan")])
    def test_probability_that_is_no_real_number_refused(self, p):
        for p1, p2 in ((p, 0.5), (0.5, p)):
            with pytest.raises(ValueError, match="must be a number in"):
                StreamConfig(p1, p2)
        assert StreamConfig(np.float64(0.5), 1).p2 == 1

    @pytest.mark.parametrize("alpha, t1, t2", [(True, 1.0, 1.0), (0.5, "2", 3.0),
                                               (0.5, 2.0, np.True_), (float("nan"), 1.0, 1.0)])
    def test_rate_refuses_what_is_no_positive_real(self, alpha, t1, t2):
        with pytest.raises(ValueError, match="must all be positive"):
            StreamConfig.from_rate(alpha, t1, t2)

    @pytest.mark.parametrize("b, n", [(True, 40), (np.True_, 40), ("8", 40), (8, 4.5),
                                      (8, 40.0), (8, True), (8, None)])
    def test_coverage_refuses_bool_b_and_non_integer_n(self, b, n):
        with pytest.raises(ValueError):
            StreamConfig.from_coverage(b, n)
        assert StreamConfig.from_coverage(np.float64(8), np.int64(40)) == (
            StreamConfig.from_coverage(8, 40)
        )

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
        cfg = StreamConfig(1.0, 0.5)
        batch = sample_phase(cfg, 1, oracle, np.random.default_rng(0))
        assert len(batch) == 20
        assert set(map(tuple, batch.sets.tolist())) == set(itertools.combinations(range(6), 3))

    def test_binomial_batch_sizes(self):
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(6))
        cfg = StreamConfig(0.5, 0.5)
        rng = np.random.default_rng(42)
        sizes = [len(sample_phase(cfg, 1, oracle, rng)) for _ in range(10_000)]
        assert abs(np.mean(sizes) - 10.0) < 0.5

    def test_same_seed_identical_batches(self):
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(8))
        cfg = StreamConfig(0.4, 0.4)
        b1 = sample_phase(cfg, 1, oracle, np.random.default_rng(5))
        b2 = sample_phase(cfg, 1, oracle, np.random.default_rng(5))
        assert np.array_equal(b1.sets, b2.sets)
        assert np.array_equal(b1.choices, b2.choices)

    def test_phase_inclusion_independence(self):
        # correlation of per-set inclusion indicators across phases ~ 0
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(6))
        cfg = StreamConfig(0.5, 0.5)
        rng = np.random.default_rng(9)
        all_sets = list(itertools.combinations(range(6), 3))
        trials = 2000
        x1 = np.zeros((trials, 20))
        x2 = np.zeros((trials, 20))
        for t in range(trials):
            s1 = set(map(tuple, sample_phase(cfg, 1, oracle, rng).sets.tolist()))
            s2 = set(map(tuple, sample_phase(cfg, 2, oracle, rng).sets.tolist()))
            x1[t] = [s in s1 for s in all_sets]
            x2[t] = [s in s2 for s in all_sets]
        corr = np.corrcoef(x1.ravel(), x2.ravel())[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(trials * 20)


class TestObservationBatch:
    def test_choice_membership_enforced(self):
        with pytest.raises(ValueError):
            ObservationBatch(np.array([[0, 1, 2]]), np.array([5]), 6)

    def test_non_member_in_later_row_rejected(self):
        sets = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]])
        with pytest.raises(ValueError, match="member of its set"):
            ObservationBatch(sets, np.array([1, 3, 5, 4]), 6)  # row 3 of 4 is bad

    def test_empty_batch_accepted(self):
        batch = ObservationBatch(np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64), 5)
        assert len(batch) == 0 and batch.k == 3 and batch.choice_counts.tolist() == [0] * 5

    def test_universe_size(self):
        # the universe given to a hand-built batch, counted to its end; the
        # oracle's for a sampled one, whose rows query_many has validated
        batch = ObservationBatch(np.array([[0, 1, 5], [2, 3, 4]]), np.array([1, 3]), 8)
        assert batch.n == 8 and batch.choice_counts.tolist() == [0, 1, 0, 1, 0, 0, 0, 0]
        oracle = DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(9))
        cfg = StreamConfig(0.2, 0.2)
        batch = sample_phase(cfg, 1, oracle, np.random.default_rng(3))
        assert batch.n == 9 and len(batch) == oracle.query_count

    @pytest.mark.parametrize("n", [-1, 6.0, True, None, "6"])
    def test_universe_size_must_be_an_integer(self, n):
        with pytest.raises(InvalidQueryError, match="universe size"):
            ObservationBatch(np.array([[0, 1, 2]]), np.array([1]), n)

    def test_caller_arrays_stay_writeable(self):
        # the batch freezes copies, never the caller's own int64 arrays
        sets, choices = np.array([[0, 1, 2], [1, 2, 3]]), np.array([1, 2])
        batch = ObservationBatch(sets, choices, 4)
        assert sets.flags.writeable and choices.flags.writeable
        assert not batch.sets.flags.writeable and not batch.choices.flags.writeable
        sets[0, 0], choices[0] = 3, 3
        assert batch.sets.tolist() == [[0, 1, 2], [1, 2, 3]] and batch.choices.tolist() == [1, 2]

    @pytest.mark.parametrize(
        "form",
        [
            lambda rows: rows,
            lambda rows: tuple(tuple(r) if isinstance(r, list) else r for r in rows),
            lambda rows: np.array(rows, dtype=np.int32),
            lambda rows: np.array(rows, dtype=np.uint16),
        ],
        ids=["lists", "tuples", "int32-arrays", "uint16-arrays"],
    )
    def test_integer_input_forms_accepted(self, form):
        sets, choices = [[0, 1, 5], [2, 3, 4], [1, 3, 4]], [1, 3, 4]
        batch = ObservationBatch(form(sets), form(choices), 6)
        assert batch.sets.dtype == np.int64 and batch.choices.dtype == np.int64
        assert batch.sets.tolist() == sets and batch.choices.tolist() == choices
        assert not batch.sets.flags.writeable and not batch.choices.flags.writeable
        assert (len(batch), batch.k, batch.n) == (3, 3, 6) and batch.complete

    @pytest.mark.parametrize(
        "sets, choices, message",
        [
            ([[0, 1, 2], [0.5, 1, 2]], [1, 1], "must be integers"),
            ([[0, 1, 2], [0, 1, 2]], [1, 1.7], "choice must be an integer id"),
            ([[0, 1, 2], [1, 1, 3]], [1, 1], "duplicate ids"),
            ([[0, 1, 2], [0, 1]], [1, 1], r"sets must be \(m, k\), choices \(m,\)"),
            ([0, 1, 2], [1], r"\(m, k\) array"),
            ([[[0], [1], [2]]], [1], r"\(m, k\) array"),
            ([[0, [1], 2]], [0], "of integer ids"),
            ([[0, 1, 2]], [True], "choice must be an integer id"),
            ([[0, 1, 2]], [[1]], "one choice per set"),
        ],
        ids=["float-set-id", "float-choice", "duplicate-ids", "ragged-sets", "1d-sets",
             "nested-set", "nested-id", "bool-choice", "list-choice"],
    )
    def test_malformed_records_rejected(self, sets, choices, message):
        with pytest.raises(InvalidQueryError, match=message):
            ObservationBatch(sets, choices, 6)


def colex_rank(row) -> int:
    """Exact colex rank of a sorted k-subset: sum of C(row[j], j+1)."""
    return sum(math.comb(int(c), j + 1) for j, c in enumerate(row))


def reference_sample_distinct_indices(total, m, rng):
    """The rank sampler sample_phase used before it drew inclusions: a
    uniform distinct sample of m ranks, unsorted."""
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


def colex_ranks(sets, n):
    """Colex rank of each sorted row of sets, vectorized over an exact table."""
    k = sets.shape[1]
    table = np.array([[math.comb(c, j) for c in range(n + 1)] for j in range(k + 1)])
    return sum(table[j + 1][sets[:, j]] for j in range(k))


class TestSamplePhaseReference:
    """sample_phase against the reference path: a binomial batch size, then
    a uniform distinct sample of that many ranks. sample_phase draws
    Bernoulli inclusions instead, so the test compares laws."""

    DRAWS = 3000

    @pytest.mark.parametrize(
        "n, k, p, seed",
        [(30, 3, 0.3, 1), (12, 5, 0.7, 2), (9, 3, 0.9, 3), (10, 4, 0.02, 4)],
        ids=["dense-n30", "dense-n12-k5", "dense-p0.9", "dense-p0.02"],
    )
    def test_same_law_as_reference(self, n, k, p, seed):
        order = LatentOrder.random(n, np.random.default_rng(seed))
        oracle = DeterministicOracle(PositionSelector(k, 2), order)
        cfg = StreamConfig(p, p)
        total = math.comb(n, k)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed + 100)
        sizes = np.zeros((2, self.DRAWS))
        inclusions = np.zeros((2, total), dtype=np.int64)
        for t in range(self.DRAWS):
            batch = sample_phase(cfg, 1, oracle, got_rng)
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


def reference_sample_ranks(total, p, rng):
    """The rank draw sample_phase made before the geometric gaps: one
    uniform per rank up to 2^22 ranks or at p > 0.01; beyond both, a
    binomial count of distinct ranks by dedupe-and-top-up, then sorted."""
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    if total <= 1 << 22 or p > 0.01:
        return np.flatnonzero(rng.random(total) < p)
    m = int(rng.binomial(total, p))
    if m == 0:
        return np.empty(0, dtype=np.int64)
    picked = np.unique(rng.integers(0, total, size=int(m * 1.1) + 16))
    while picked.size < m:
        extra = rng.integers(0, total, size=m)
        picked = np.unique(np.concatenate([picked, extra]))
    return np.sort(rng.permutation(picked)[:m])


class TapeRng:
    """Stands in for a Generator whose geometric() deals the next gaps of
    a fixed tape, then fill once the tape runs out (with no fill, running
    out fails the test); counts its calls."""

    def __init__(self, gaps, fill=None):
        self.gaps, self.fill, self.calls = [int(g) for g in gaps], fill, 0

    def geometric(self, p, size):
        self.calls += 1
        head, self.gaps = self.gaps[:size], self.gaps[size:]
        if len(head) < size and self.fill is None:
            raise AssertionError("the draw read past the end of its tape")
        return np.array(head + [self.fill] * (size - len(head)), dtype=np.int64)


def check_ranks(ranks, total):
    """The invariants of every draw: int64 ranks, ascending, distinct, in [0, total)."""
    assert ranks.dtype == np.int64 and ranks.ndim == 1
    assert (np.diff(ranks) > 0).all()
    assert ranks.size == 0 or (0 <= ranks[0] and ranks[-1] < total)


class TestSampleRanks:
    """_sample_ranks, running sums of geometric gaps, against the
    dense/sparse draw it replaced."""

    @pytest.mark.parametrize(
        "total, p, draws",
        [
            (60, 0.3, 20_000),
            (400, 0.9, 5_000),
            (3_000, 0.002, 20_000),
            (5_000_000, 1e-3, 1_000),  # the reference's sparse branch: over 2^22 ranks, p <= 0.01
        ],
        ids=["n60-p0.3", "p0.9", "p0.002", "sparse-5M"],
    )
    def test_same_law_as_reference(self, total, p, draws):
        # ranks fall in buckets of equal width: every rank its own up to 64 ranks
        buckets = min(total, 64)
        sizes = np.zeros((2, draws))
        counts = np.zeros((2, buckets), dtype=np.int64)
        got_rng, want_rng = np.random.default_rng([total, 1]), np.random.default_rng([total, 2])
        for t in range(draws):
            got = oracles._sample_ranks(total, p, got_rng)
            check_ranks(got, total)
            for side, ranks in enumerate((got, reference_sample_ranks(total, p, want_rng))):
                sizes[side, t] = ranks.size
                counts[side] += np.bincount(ranks * buckets // total, minlength=buckets)
        assert st.ttest_ind(sizes[0], sizes[1], equal_var=False).pvalue > 0.001
        assert st.levene(sizes[0], sizes[1]).pvalue > 0.001
        mean, var = total * p, total * p * (1 - p)
        for side in (0, 1):  # both near the binomial's mean and variance
            assert abs(sizes[side].mean() - mean) < 5 * math.sqrt(var / draws)
            assert abs(sizes[side].var() / var - 1) < 5 * math.sqrt(2 / draws)
        _, pvalue, _, _ = st.chi2_contingency(counts)
        assert pvalue > 0.001
        # each bucket's expected inclusions: its width in ranks times p, per draw
        width = np.diff((np.arange(buckets + 1) * total + buckets - 1) // buckets)
        assert st.chisquare(counts[0], width / total * counts[0].sum()).pvalue > 0.001

    @pytest.mark.parametrize(
        "total, p",
        [(0, 0.5), (1, 0.5), (1, 1e-9), (7, 1.0), (50, 0.999), (10**6, 0.5), (10**9, 1e-7),
         (math.comb(300, 3), 0.005)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariants(self, total, p, seed):
        ranks = oracles._sample_ranks(total, p, np.random.default_rng(seed))
        check_ranks(ranks, total)
        if p == 1.0:
            assert np.array_equal(ranks, np.arange(total))

    @pytest.mark.parametrize("total", [INT64_MAX, INT64_MAX - 1, 2**62 + 3])
    def test_no_rank_below_1e300(self, total):
        # numpy's geometric saturates at INT64_MAX here; that gap lies past every rank
        rng = np.random.default_rng(total % 1000)
        for _ in range(100):
            assert oracles._sample_ranks(total, 1e-300, rng).size == 0

    @pytest.mark.parametrize("total", [INT64_MAX, INT64_MAX - 1, 2**62 + 3])
    def test_law_at_1e18_near_the_int64_limit(self, total):
        p, draws = 1e-18, 400
        rng = np.random.default_rng(total % 1000)
        batches = [oracles._sample_ranks(total, p, rng) for _ in range(draws)]
        for ranks in batches:
            check_ranks(ranks, total)
        sizes = np.array([r.size for r in batches])
        assert abs(sizes.mean() - total * p) < 5 * math.sqrt(total * p / draws)
        ranks = np.concatenate(batches)
        low = (ranks < total // 2).mean()  # no sum wrapped: uniform over [0, total)
        assert abs(low - 0.5) < 5 * math.sqrt(0.25 / ranks.size)

    def test_saturated_gap_is_past_every_rank(self):
        # a true gap is at most 2^63 - 1024 (a double below 2^63), never INT64_MAX
        assert oracles._sample_ranks(INT64_MAX, 1e-18, TapeRng([INT64_MAX], 1)).size == 0
        got = oracles._sample_ranks(INT64_MAX, 1e-18, TapeRng([1, 2**63 - 1024], INT64_MAX))
        assert got.tolist() == [0, 2**63 - 1024]

    def test_sums_past_2_64_do_not_wrap_into_range(self):
        # past the cut, the clipped sums pass 2^64 and wrap back below the
        # total; the cut comes first, and no further gap is read
        tape = [2**62] + [INT64_MAX, INT64_MAX, 1] * 20
        got = oracles._sample_ranks(INT64_MAX, 1e-18, TapeRng(tape))
        assert got.tolist() == [2**62 - 1]

    def test_draw_across_chunks(self):
        # gaps of 1 or 2 outrun chunks sized for p = 0.2, so the draw takes several
        gaps = np.random.default_rng(9).integers(1, 3, size=2_000)
        rng = TapeRng(gaps)
        got = oracles._sample_ranks(1_000, 0.2, rng)
        want = np.cumsum(gaps) - 1
        assert rng.calls >= 3
        assert np.array_equal(got, want[want < 1_000])


class TestUnranking:
    @pytest.mark.parametrize(
        "n, k",
        [(6, 1), (7, 1), (7, 2), (7, 3), (9, 4), (12, 6), (10, 10), (5, 5), (5, 0), (3, 4),
         (2, 2), (3, 2), (13, 2), (3, 3), (4, 3), (12, 3), (4, 4), (5, 4), (14, 4), (6, 5),
         (12, 5)],
    )
    def test_all_ksets_colex(self, n, k):
        # every rank unranked: colex order, one (0, k) array when k > n; every
        # k >= 2 ends at the closed-form pair level
        rows = all_ksets(n, k)
        assert rows.dtype == np.int64 and rows.shape == (math.comb(n, k), k)
        colex = sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])
        assert [tuple(r) for r in rows.tolist()] == colex
        # colex lists every k-subset of [0, n) before any set with an id >= n,
        # so each larger enumeration starts with these rows
        for larger in (n + 1, n + 4):
            np.testing.assert_array_equal(all_ksets(larger, k)[: len(rows)], rows)

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
        with pytest.raises(OverflowError, match="int64"):  # a failed build is not cached
            unrank_combinations(np.array([0, 1]), 100, 90)

    def test_binomial_table_is_shared_and_read_only(self):
        # one table per (n, k), reused by every call; a write would corrupt
        # every later unranking, so the table refuses it
        table = oracles._binomial_table(7, 3)
        assert oracles._binomial_table(7, 3) is table
        assert table.tolist() == [[math.comb(c, j) for c in range(8)] for j in range(4)]
        with pytest.raises(ValueError, match="read-only"):
            table[3, 7] = 0
        with pytest.raises(ValueError, match="read-only"):
            table[1] += 1
        assert list(map(tuple, all_ksets(7, 3).tolist())) == sorted(
            itertools.combinations(range(7), 3), key=lambda s: s[::-1]
        )

    def test_bijection_small(self):
        n, k = 7, 3
        total = math.comb(n, k)
        rows = unrank_combinations(np.arange(total), n, k)
        as_tuples = {tuple(r) for r in rows}
        assert len(as_tuples) == total
        assert as_tuples == set(itertools.combinations(range(n), k))
        assert (np.diff(rows, axis=1) > 0).all()

    # Ascending ranks, as the samplers and sampled scoring pass them

    @pytest.mark.parametrize(
        "n, k, p", [(30, 3, 0.3), (40, 4, 0.2), (12, 6, 0.9), (200, 3, 0.02), (25, 2, 0.5)]
    )
    def test_ascending_bernoulli_ranks(self, n, k, p):
        # ascending distinct ranks, drawn as sample_phase draws them
        total = math.comb(n, k)
        ranks = np.flatnonzero(np.random.default_rng(n + k).random(total) < p)
        assert ranks.size >= math.comb(n - 1, k - 1)
        rows = unrank_combinations(ranks, n, k)
        assert np.array_equal(rows, reference_unrank(ranks, n, k))
        assert rows.T.flags.c_contiguous

    @pytest.mark.parametrize("n, k", [(30, 3), (15, 5), (60, 2)])
    def test_sorted_ranks_with_duplicates(self, n, k):
        # sorted draws with replacement, as sampled scoring draws them
        total = math.comb(n, k)
        ranks = np.sort(np.random.default_rng(n * k).integers(0, total, size=2 * total))
        assert (np.diff(ranks) == 0).any()
        assert np.array_equal(unrank_combinations(ranks, n, k), reference_unrank(ranks, n, k))

    @pytest.mark.parametrize(
        "n, k, ranks",
        [
            (8, 2, np.arange(28)),
            (5, 5, np.array([0])),  # n = k: one k-set
            (5, 5, np.array([0, 0, 0])),
            (6, 6, np.empty(0, dtype=np.int64)),  # m = 0
            (9, 3, np.empty(0, dtype=np.int64)),
        ],
    )
    def test_ascending_rank_edges(self, n, k, ranks):
        rows = unrank_combinations(ranks, n, k)
        assert rows.shape == (ranks.size, k) and rows.dtype == np.int64
        assert np.array_equal(rows, reference_unrank(ranks, n, k))
        assert rows.T.flags.c_contiguous

    @pytest.mark.parametrize(
        "ranks",
        [[-1], [10], [11], [0, 10], [9, -1], list(range(11)), [-1, *range(9)]],
        ids=["negative", "at-total", "past-total", "among-valid", "unsorted",
             "ascending-past-total", "ascending-negative"],
    )
    def test_out_of_range_ranks_rejected(self, ranks):
        # C(5, 3) = 10
        with pytest.raises(ValueError, match=r"colex ranks must lie in \[0, C\(5, 3\)\)"):
            unrank_combinations(np.array(ranks), 5, 3)

    @pytest.mark.parametrize(
        "ranks", [[2.7], [2.0], [1, 2.5], [True]], ids=["fraction", "whole-float", "mixed", "bool"]
    )
    def test_non_integer_ranks_rejected(self, ranks):
        with pytest.raises(ValueError, match="colex ranks must be integers"):
            unrank_combinations(np.array(ranks), 5, 3)

    @pytest.mark.parametrize(
        "ranks", [[True, 0], [0, np.True_], [[1], [False]]], ids=["bool", "numpy-bool", "nested"]
    )
    def test_bool_inside_list_rejected(self, ranks):
        # np.asarray reads [True, 0] as the ranks [1, 0]; a bool array is refused by dtype
        with pytest.raises(ValueError, match="colex ranks must be integers"):
            unrank_combinations(ranks, 4, 2)
        assert unrank_combinations([1, 0], 4, 2).tolist() == [[0, 2], [0, 1]]

    def test_pair_level_at_every_binomial_edge(self):
        # the largest k=2 table kept small enough for a test (25 MB); the
        # closed form must land on each side of C(c, 2) exactly
        n = 1 << 20
        rng = np.random.default_rng(20)
        cs = np.unique(np.concatenate([[2, 3, n - 2, n - 1], rng.integers(2, n, 2000)]))
        ranks = np.stack([cs * (cs - 1) // 2 + d for d in (-1, 0, 1)], axis=1).ravel()
        assert ranks.max() < math.comb(n, 2)
        rows = unrank_combinations(ranks, n, 2)
        assert [colex_rank(row) for row in rows.tolist()] == ranks.tolist()
        got = rows.reshape(-1, 3, 2).tolist()
        # C(c, 2) - 1 = C(c-1, 2) + c - 2, then C(c, 2) + 0 and C(c, 2) + 1
        assert got == [[[c - 2, c - 1], [0, c], [1, c]] for c in cs.tolist()]

    @pytest.mark.parametrize("shift", [-1.9, 1.9])
    def test_pair_level_corrects_an_estimate_one_off(self, monkeypatch, shift):
        # float64 is exact at any n a test can build, so the correction is
        # exercised by moving every square root by almost two, which moves
        # the estimate of c by one (or not at all) in the given direction
        sqrt = np.sqrt

        def shifted(x, out):
            sqrt(x, out=out)
            out += shift
            return out

        n, k = 40, 3
        want = all_ksets(n, k)
        monkeypatch.setattr(oracles.np, "sqrt", shifted)
        assert np.array_equal(all_ksets(n, k), want)
        assert np.array_equal(unrank_combinations(np.arange(math.comb(n, 2)), n, 2),
                              reference_unrank(np.arange(math.comb(n, 2)), n, 2))

    def test_empty_ranks_of_any_dtype(self):
        assert unrank_combinations(np.array([]), 5, 3).shape == (0, 3)

    @pytest.mark.parametrize("ranks", [[0], [0, 0, 0], []])
    def test_k0_gives_empty_rows(self, ranks):
        # C(n, 0) = 1: rank 0 is the empty set
        rows = unrank_combinations(np.array(ranks, dtype=np.int64), 5, 0)
        assert rows.shape == (len(ranks), 0) and rows.dtype == np.int64
        with pytest.raises(ValueError, match=r"colex ranks must lie in \[0, C\(5, 0\)\)"):
            unrank_combinations(np.array([1]), 5, 0)

    def test_all_ksets_table_overflow_rejected(self):
        # C(70, 68) = 2,415 rows, but the unranking table's C(70, 35) does
        # not fit in int64; recover-passive refuses the same n and k up front
        assert math.comb(70, 68) == 2_415 and math.comb(70, 35) > INT64_MAX
        with pytest.raises(OverflowError, match="int64"):
            all_ksets(70, 68)

    def test_unsorted_ranks_keep_the_search(self):
        # the same ranks, shuffled, give the same rows in the shuffled order
        n, k = 30, 3
        ranks = np.arange(math.comb(n, k))
        shuffled = np.random.default_rng(7).permutation(ranks)
        rows = unrank_combinations(shuffled, n, k)
        assert np.array_equal(rows, unrank_combinations(ranks, n, k)[shuffled])
        assert rows.T.flags.c_contiguous
