"""Mixture estimation, alignment, the padded retry comparator, and noisy sorts."""

import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from choicelab import active, mixture
from choicelab.core import InvalidQueryError, LatentOrder, PositionSelector, evaluate_many
from choicelab.mixture import (
    AlignmentFailureError,
    MixtureEstimate,
    NoisyComparator,
    align_frequency_tables,
    answer_frequencies,
    best_reflection_error,
    discard_round,
    discard_round_repetitions,
    estimate_mixture,
    majority_repetitions,
    noisy_sort,
    orders_match_up_to_reflection,
    pick_round_winner,
    recover_mixed,
    recovery_split,
    repetition_count,
)
from choicelab.oracles import AnswerCounts, MixedOracle, MixtureDistribution
from choicelab.sorting import merge_sort


def exact_tables(pi):
    """Noise-free frequency tables for the k+1 subsets of {0..k} under the
    identity embedding: the element at internal position p of a subset is
    selected with exactly pi[p-1]."""
    k = len(pi)
    base = list(range(k + 1))
    tables = []
    for excluded in base:
        members = [x for x in base if x != excluded]
        tables.append({m: pi[pos] for pos, m in enumerate(members)})
    return tables


def canonical(pi):
    return tuple(pi) if pi[0] >= pi[-1] else tuple(reversed(pi))


class TestRepetitionCount:
    def test_worked_example(self):
        # k=2, gamma=0.4, delta=0.1, epsilon=0.05
        assert repetition_count(0.1, 0.05, 2) == 1151

    def test_k3_acceptance_settings(self):
        assert repetition_count(0.04, 0.05, 3) == math.ceil(
            (2.04 / 0.0016) * math.log(24 / 0.05)
        )

    @pytest.mark.parametrize(
        "delta, epsilon", [(0.0, 0.05), (-0.1, 0.05), (0.1, 0.0), (0.1, 1.0)]
    )
    def test_rejects_bad_parameters(self, delta, epsilon):
        with pytest.raises(ValueError, match="need delta > 0"):
            repetition_count(delta, epsilon, 3)

    def test_int64_limit(self):
        # the oracle draws each subset's answers as one int64 multinomial
        below = repetition_count(1e-8, 0.1, 3)
        assert isinstance(below, int) and below <= np.iinfo(np.int64).max
        with pytest.raises(ValueError, match="int64 limit"):
            repetition_count(1e-9, 0.1, 3)

    @pytest.mark.parametrize("k", [True, 3.0, 2.5, "3", 1])
    def test_rejects_a_set_size_that_is_no_integer_of_at_least_2(self, k):
        with pytest.raises(ValueError, match="set size k"):
            repetition_count(0.01, 0.1, k)
        assert repetition_count(0.01, 0.1, np.int64(3)) == repetition_count(0.01, 0.1, 3)

    @pytest.mark.parametrize("delta", [1e-155, 1e-200])
    def test_a_delta_whose_square_leaves_float_range_is_refused(self, delta):
        # 1e-155: the count overflowed to inf and math.ceil raised
        # OverflowError; 1e-200: delta**2 underflowed to 0, ZeroDivisionError
        with pytest.raises(ValueError, match="int64 limit"):
            repetition_count(delta, 0.1, 3)


class TestAlignment:
    def test_exact_on_permutation_grid(self):
        # deterministic: exact tables for every weight permutation, k <= 6
        for k in range(2, 7):
            for perm in itertools.permutations(range(1, k + 1)):
                total = sum(perm)
                pi = tuple(w / total for w in perm)
                got = align_frequency_tables(exact_tables(pi))
                assert got == canonical(pi), (k, pi)

    def test_exact_on_handpicked(self):
        for pi in [(0.5, 0.3, 0.2), (0.2, 0.3, 0.5), (0.02, 0.08, 0.9), (0.7, 0.3)]:
            assert align_frequency_tables(exact_tables(pi)) == canonical(pi)

    def test_failure_on_corrupted_table(self):
        # swapping two frequencies inside one subset breaks the cross-subset
        # end-signature count, which must surface as an alignment failure
        tables = exact_tables((0.5, 0.3, 0.2))
        tables[0] = {1: 0.3, 2: 0.5, 3: 0.2}
        with pytest.raises(AlignmentFailureError):
            align_frequency_tables(tables)


class TestEstimateMixture:
    def test_recovers_within_delta(self):
        mix = MixtureDistribution((0.5, 0.3, 0.2), 0.09)
        rng = np.random.default_rng(10)
        hits = 0
        trials = 20
        for t in range(trials):
            order = LatentOrder.random(10, rng)
            oracle = MixedOracle(order, mix, rng)
            est = estimate_mixture(oracle, 0.09, 0.04, 0.05)
            if best_reflection_error(est.probs_hat, mix.probs) <= 0.04:
                hits += 1
            assert est.queries == repetition_count(0.04, 0.05, 3) * 4
        assert hits >= 18

    def test_output_canonicalized_and_normalized(self):
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(6), mix, 3)
        est = estimate_mixture(oracle, 0.09, 0.04, 0.05)
        assert est.probs_hat[0] >= est.probs_hat[-1]
        assert abs(sum(est.probs_hat) - 1.0) < 1e-9

    def test_delta_validation(self):
        mix = MixtureDistribution((0.7, 0.3), 0.3)
        oracle = MixedOracle(LatentOrder.identity(4), mix, 0)
        with pytest.raises(ValueError):
            estimate_mixture(oracle, 0.3, 0.2, 0.05)  # delta > gamma/2

    def test_degenerate_mixture_rejected_at_type_gate(self):
        with pytest.raises(ValueError):
            MixtureDistribution((1.0, 0.0), 0.1)

    @pytest.mark.parametrize("reps", [0, -3])
    def test_answer_frequencies_rejects_reps_below_one_before_any_query(self, reps):
        # reps = 0 used to divide zero counts by zero: NaN frequencies
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(6), mix, 4)
        state = oracle._rng.bit_generator.state
        with pytest.raises(ValueError, match="reps"):
            answer_frequencies(oracle, (0, 1, 2), reps)
        assert oracle.query_count == 0
        assert oracle._rng.bit_generator.state == state

    @pytest.mark.parametrize("reps", [2**63, 2**70])
    def test_answer_frequencies_refuses_reps_past_int64_before_any_query(self, reps):
        # past the int64 limit the multinomial draw raised OverflowError
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(6), mix, 4)
        state = oracle._rng.bit_generator.state
        with pytest.raises(InvalidQueryError, match="count must lie in"):
            answer_frequencies(oracle, (0, 1, 2), reps)
        assert oracle.query_count == 0
        assert oracle._rng.bit_generator.state == state


def expand(answers: AnswerCounts) -> np.ndarray:
    """The answer array that the counts stand for, grouped by member."""
    return np.repeat(np.array(answers.members, dtype=np.int64), answers.counts)


class _AnswerArrayOracle(MixedOracle):
    """Reference: the mixed oracle's per-answer form, whose query_repeated
    returns the same draw as an answer array grouped by member."""

    def query_repeated(self, s, count):
        return expand(super().query_repeated(s, count))


def counter_table(answers, s):
    """Reference: per-answer Counter frequencies of the members of s."""
    counts = Counter(int(x) for x in answers)
    return {member: counts.get(member, 0) / len(answers) for member in s}


def counter_frequencies(oracle, s, reps):
    """Reference: per-answer Counter over an answer-array oracle's answers."""
    return counter_table(oracle.query_repeated(s, reps), s)


def fixed_count_round(oracle, members, tracked, reps):
    """Reference: the discard round before it became sequential, one
    Counter over a fixed count of answers."""
    return pick_round_winner(counter_frequencies(oracle, members, reps), tracked)


class _TallyingOracle(MixedOracle):
    """Mixed oracle that keeps each query_repeated answer count and totals
    query_until's raw queries and len() of its answers."""

    def __init__(self, *args):
        super().__init__(*args)
        self.answers = []
        self.until_raw = 0
        self.until_informative = 0

    def query_repeated(self, s, count):
        out = super().query_repeated(s, count)
        self.answers.append(out)
        return out

    def query_until(self, s, pair, count):
        out, raw = super().query_until(s, pair, count)
        self.until_raw += raw
        self.until_informative += len(out)
        return out, raw


class TestCountingExactness:
    # two oracles on one seed see the same answers, so the counts read
    # must equal the Counter reference exactly, not within a tolerance

    def oracles(self, seed):
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        order = LatentOrder.random(12, np.random.default_rng(seed))
        return MixedOracle(order, mix, seed), _AnswerArrayOracle(order, mix, seed)

    def test_estimate_matches_counter_reference(self):
        oracle, ref = self.oracles(17)
        est = estimate_mixture(oracle, 0.09, 0.045, 0.02)
        reps = repetition_count(0.045, 0.02, 3)
        tables = [counter_frequencies(ref, tuple(x for x in range(4) if x != j), reps)
                  for j in range(4)]
        assert est.probs_hat == align_frequency_tables(tables)
        assert oracle.query_count == ref.query_count

    def test_discard_round_matches_counter_reference(self):
        oracle, ref = self.oracles(18)
        reps = discard_round_repetitions(0.09, 0.1, 12)
        for s in [(0, 1, 2), (3, 7, 11), (2, 5, 9)]:
            freqs = answer_frequencies(oracle, s, reps)
            want = counter_frequencies(ref, s, reps)
            assert freqs == want
            assert pick_round_winner(freqs, 0.5) == pick_round_winner(want, 0.5)


def true_positions(comp, u, v):
    """Ground-truth positions of u and v within the comparator's padded set."""
    members = sorted(comp.padded(u, v), key=comp.oracle.order.rank_of)
    return members.index(u) + 1, members.index(v) + 1


def true_fail_prob(comp, u, v):
    """Probability that one padded query returns neither u nor v."""
    pu, pv = true_positions(comp, u, v)
    probs = comp.oracle.mixture.probs
    return 1.0 - probs[pu - 1] - probs[pv - 1]


def true_win_prob(comp, u, v):
    """Probability the embedding-greater element wins an informative outcome."""
    pu, pv = true_positions(comp, u, v)
    probs = comp.oracle.mixture.probs
    hi, lo = max(pu, pv), min(pu, pv)
    return probs[hi - 1] / (probs[hi - 1] + probs[lo - 1])


class TestNoisyComparator:
    def setup_method(self):
        self.mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        self.oracle = MixedOracle(LatentOrder.identity(6), self.mix, 2024)
        self.comp = NoisyComparator(self.oracle, anchors=(0,))

    def test_true_probabilities(self):
        assert true_fail_prob(self.comp, 3, 4) == pytest.approx(0.2)
        assert true_win_prob(self.comp, 3, 4) == pytest.approx(0.625)

    def test_monte_carlo_win_probability(self):
        wins = self.comp.compare_wins(4, 3, 100_000)
        assert abs(wins / 100_000 - 0.625) < 0.01

    def test_monte_carlo_retry_mean(self):
        _, raw = self.oracle.query_until((0, 3, 4), (3, 4), 100_000)
        assert abs(raw / 100_000 - 1.25) < 0.02

    def test_k2_comparator_is_raw_oracle(self):
        mix = MixtureDistribution((0.7, 0.3), 0.3)
        oracle = MixedOracle(LatentOrder.identity(4), mix, 5)
        comp = NoisyComparator(oracle, anchors=())
        _, raw = oracle.query_until((1, 2), (1, 2), 1000)
        assert raw == 1000  # no padding, every outcome informative

    def test_anchor_count_validated(self):
        with pytest.raises(ValueError):
            NoisyComparator(self.oracle, anchors=(0, 1))

    def test_anchor_out_of_range_rejected_at_construction(self):
        oracle = MixedOracle(LatentOrder.identity(10), self.mix, 7)
        with pytest.raises(InvalidQueryError):
            NoisyComparator(oracle, (99,))


class _SyntheticComparator:
    """Winner-is-greater comparator with a flat win probability, no oracle."""

    def __init__(self, win_prob, seed):
        self.win_prob = win_prob
        self.rng = np.random.default_rng(seed)

    def compare_wins(self, u, v, count):
        p = self.win_prob if u > v else 1.0 - self.win_prob
        return int(self.rng.binomial(count, p))


class TestNoisySort:
    def test_noiseless_limit_is_exact(self):
        comp = _SyntheticComparator(1.0, 0)
        elements = [5, 3, 9, 1, 7, 2]
        assert noisy_sort(comp, elements, 0.8, 0.05) == sorted(elements)

    def test_m20_win07(self):
        # win margin 0.2 = gamma/4 at gamma=0.8
        rng = np.random.default_rng(11)
        elements = list(range(20))
        good = 0
        trials = 500
        for t in range(trials):
            comp = _SyntheticComparator(0.7, rng)
            shuffled = list(rng.permutation(elements))
            if noisy_sort(comp, shuffled, 0.8, 0.05) == elements:
                good += 1
        assert good >= int(0.95 * trials)

    def test_m2_majority_error_within_chernoff_bound(self):
        gamma, reps = 0.2, 500
        bound = 2 * math.exp(-reps * gamma**2 / 8)
        rng = np.random.default_rng(12)
        p = 0.5 + gamma / 4
        errors = (rng.binomial(reps, p, size=4000) * 2 < reps).mean()
        assert errors <= bound

    def test_repetitions_odd(self):
        for m in (2, 5, 20, 100):
            assert majority_repetitions(m, 0.1, 0.05) % 2 == 1

    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("gamma, epsilon_sort", [
        (0.0, 0.1), (-0.1, 0.1), (math.nan, 0.1),
        (0.09, 0.0), (0.09, 1.0), (0.09, -0.5), (0.09, math.nan),
    ])
    def test_bad_parameters_rejected(self, m, gamma, epsilon_sort):
        # a zero gamma or epsilon_sort used to end in ZeroDivisionError
        with pytest.raises(ValueError):
            majority_repetitions(m, gamma, epsilon_sort)

    @pytest.mark.parametrize("gamma", [1e-155, 1e-200, 1e300])
    def test_a_gamma_whose_square_leaves_float_range_is_refused(self, gamma):
        # these ended in OverflowError from math.ceil or gamma**2, or in
        # ZeroDivisionError from a gamma**2 that underflowed to 0
        with pytest.raises(ValueError, match="int64 limit"):
            majority_repetitions(5, gamma, 0.05)
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(6), mix, 9)
        state = oracle._rng.bit_generator.state
        with pytest.raises(ValueError, match="int64 limit"):
            noisy_sort(NoisyComparator(oracle, (5,)), [0, 1, 2], gamma, 0.05)
        assert oracle.query_count == 0
        assert oracle._rng.bit_generator.state == state

    @pytest.mark.parametrize("elements", [[0, 1, 2], [0]])
    @pytest.mark.parametrize("gamma, epsilon_sort", [(0.09, 0), (0, 0.1)])
    def test_noisy_sort_rejects_bad_parameters_before_any_query(
        self, elements, gamma, epsilon_sort
    ):
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(6), mix, 9)
        state = oracle._rng.bit_generator.state
        with pytest.raises(ValueError):
            noisy_sort(NoisyComparator(oracle, (5,)), elements, gamma, epsilon_sort)
        assert oracle.query_count == 0
        assert oracle._rng.bit_generator.state == state

    @pytest.mark.parametrize("elements", [[0, 1, 2], [0]])
    @pytest.mark.parametrize("margin", [math.inf, math.nan, -0.1, 0.6])
    def test_noisy_sort_rejects_a_margin_outside_the_unit_half(self, elements, margin):
        # inf opened every vote at 0 outcomes and divided by it; nan failed
        # inside math.ceil
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(6), mix, 9)
        state = oracle._rng.bit_generator.state
        with pytest.raises(ValueError, match="margin"):
            noisy_sort(NoisyComparator(oracle, (5,)), elements, 0.09, 0.05, margin)
        assert oracle.query_count == 0
        assert oracle._rng.bit_generator.state == state


class _RecordingComparator(_SyntheticComparator):
    """Synthetic comparator that records each vote: its pair, the outcomes
    it reads, its calls, its first call's count and the wins of the pair's
    first member.

    A merge sort compares a pair at most once, so consecutive calls on one
    pair belong to one vote.
    """

    def __init__(self, win_prob, seed):
        super().__init__(win_prob, seed)
        self.votes = []  # [pair, outcomes read, calls, opening, wins]

    def compare_wins(self, u, v, count):
        if not self.votes or self.votes[-1][0] != (u, v):
            self.votes.append([(u, v), 0, 0, count, 0])
        wins = super().compare_wins(u, v, count)
        self.votes[-1][1] += count
        self.votes[-1][2] += 1
        self.votes[-1][4] += wins
        return wins

    def wrong_votes(self):
        """Votes whose majority reads the pair against the true order."""
        return [
            vote for vote in self.votes
            if (2 * vote[4] < vote[1]) != (vote[0][0] < vote[0][1])
        ]


def opening_count(m, epsilon_sort, margin):
    """Where a vote of a noisy sort over m items opens: _VOTE_SLACK times
    the count at which a first check's radius sqrt(ln(4/d)/(2N)) falls to
    the margin, d being half a comparison's share of epsilon_sort."""
    d = epsilon_sort / (4 * m * max(1, (m - 1).bit_length()))
    return math.ceil(mixture._VOTE_SLACK * math.log(4 / d) / (2 * margin**2))


class TestSequentialVote:
    def test_wrong_vote_rate_within_budget_at_worst_margin(self):
        # m=2 makes one comparison, whose share of epsilon_sort=0.2 is
        # 0.2/(2*2*1) = 0.05; the win probability is the least the sort
        # allows, 1/2 + gamma/4
        gamma, epsilon_sort, votes = 0.2, 0.2, 4000
        budget = epsilon_sort / 4
        comp = _SyntheticComparator(0.5 + gamma / 4, 21)
        rng = np.random.default_rng(22)
        wrong = 0
        for _ in range(votes):
            pair = [0, 1] if rng.random() < 0.5 else [1, 0]
            wrong += noisy_sort(comp, pair, gamma, epsilon_sort) != [0, 1]
        slack = 3 * math.sqrt(budget * (1 - budget) / votes)
        assert wrong / votes <= budget + slack

    @pytest.mark.parametrize("margin", [0.5, 0.2, 0.1])
    def test_every_vote_opens_at_the_count_its_margin_needs(self, margin):
        # every answer is a win, so each vote ends on its first batch, which
        # is the one count the sort fixed from the margin before it started
        gamma, epsilon_sort, m = 0.2, 0.05, 8
        comp = _RecordingComparator(1.0, 27)
        elements = list(np.random.default_rng(28).permutation(m))
        assert noisy_sort(comp, elements, gamma, epsilon_sort, margin) == sorted(elements)
        assert {(opening, calls) for *_, calls, opening, _ in comp.votes} == {
            (opening_count(m, epsilon_sort, margin), 1)
        }

    @pytest.mark.parametrize("margin", [0.0, 0.03, 0.05])
    def test_a_margin_at_or_below_the_floor_opens_at_the_cap(self, margin):
        # the margin is floored at gamma/4 = 0.05, where a first check needs
        # more outcomes than the cap's majority
        gamma, epsilon_sort, m = 0.2, 0.05, 8
        cap = majority_repetitions(m, gamma, epsilon_sort)
        assert opening_count(m, epsilon_sort, gamma / 4) > cap
        comp = _RecordingComparator(1.0, 29)
        elements = list(range(m))
        assert noisy_sort(comp, elements[::-1], gamma, epsilon_sort, margin) == elements
        assert {(total, calls) for _, total, calls, *_ in comp.votes} == {(cap, 1)}

    def test_no_vote_reads_past_the_cap(self):
        # at win probability 1/2 the sequential test rarely stops, so votes
        # opened well below the cap run to it and fall back to its majority
        gamma, epsilon_sort, margin = 0.8, 0.05, 0.5
        cap = majority_repetitions(20, gamma, epsilon_sort)
        assert 2 * opening_count(20, epsilon_sort, margin) < cap
        rng = np.random.default_rng(23)
        reads = []
        for _ in range(20):
            comp = _RecordingComparator(0.5, rng)
            noisy_sort(comp, list(rng.permutation(20)), gamma, epsilon_sort, margin)
            reads += [vote[1] for vote in comp.votes]
        assert max(reads) <= cap
        assert reads.count(cap) > len(reads) // 2

    def test_votes_stop_early_at_the_true_margin(self):
        # mixed-n100's main-sort size and budget (98 items, epsilon/5 = 0.02)
        # at its main sort's win rate, 0.3/(0.3 + 0.2) = 0.6
        gamma, epsilon_sort, m, margin = 0.09, 0.02, 98, 0.1
        comp = _RecordingComparator(0.5 + margin, 25)
        elements = list(np.random.default_rng(26).permutation(m))
        assert noisy_sort(comp, elements, gamma, epsilon_sort, margin) == sorted(elements)
        assert not comp.wrong_votes()
        assert {vote[3] for vote in comp.votes} == {opening_count(m, epsilon_sort, margin)}
        reads = [vote[1] for vote in comp.votes]
        assert np.mean(reads) <= majority_repetitions(m, gamma, epsilon_sort) / 4
        # the opening leaves room for the noise, so oracle calls stay close
        # to one per vote
        assert sum(vote[2] for vote in comp.votes) <= 1.1 * len(comp.votes)

    def test_a_margin_above_the_truth_only_costs_batches(self):
        # told 0.3 where the win rate is 0.6, every vote opens too small and
        # doubles its way to a decision; none decides wrong
        gamma, epsilon_sort, m = 0.09, 0.02, 98
        cap = majority_repetitions(m, gamma, epsilon_sort)
        rng = np.random.default_rng(24)
        calls = votes = 0
        for _ in range(5):
            comp = _RecordingComparator(0.6, rng)
            elements = list(rng.permutation(m))
            assert noisy_sort(comp, elements, gamma, epsilon_sort, 0.3) == sorted(elements)
            assert not comp.wrong_votes()
            assert {vote[3] for vote in comp.votes} == {opening_count(m, epsilon_sort, 0.3)}
            assert max(vote[1] for vote in comp.votes) <= cap
            calls += sum(vote[2] for vote in comp.votes)
            votes += len(comp.votes)
        assert calls >= 2 * votes


class TestDiscardDecisionRule:
    def test_bounded_errors_never_discard_eligible(self):
        # separation 0.1; any error budget tau + delta1 <= gamma/2 keeps the
        # nearest-frequency match on the true tracked element
        true_freqs = {"a": 0.2, "b": 0.3, "c": 0.5}
        tracked_true = 0.5
        tau, delta1 = 0.028, 0.021
        for signs in itertools.product((-1, 0, 1), repeat=3):
            freqs = {
                e: true_freqs[e] + s * tau for e, s in zip(("a", "b", "c"), signs)
            }
            for ts in (-1, 1):
                assert pick_round_winner(freqs, tracked_true + ts * delta1) == "c"

    def test_tie_breaks_toward_higher_frequency(self):
        assert pick_round_winner({"a": 0.4, "b": 0.6}, 0.5) == "b"


class _ExactOracle:
    """Answers in exact proportion to fixed member frequencies (largest
    remainders), so a discard round's stopping count is deterministic."""

    def __init__(self, freqs):
        self.freqs = freqs
        self.n = max(freqs) + 1
        self.calls = []

    def query_repeated(self, s, count):
        self.calls.append(count)
        members = list(s)
        raw = np.array([self.freqs[m] * count for m in members])
        counts = np.floor(raw).astype(int)
        counts[np.argsort(counts - raw)[: count - counts.sum()]] += 1
        return AnswerCounts(tuple(members), tuple(counts.tolist()))


class TestSequentialDiscardRound:
    # mixed-n100's rounds: pi=(.2,.3,.5), gamma=.09, epsilon=.1, n=100
    mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
    cap = discard_round_repetitions(0.09, 0.1, 100)
    budget = 0.1 / (10 * 98)  # half of a round's share epsilon/(5(n-2))

    order = LatentOrder.random(12, np.random.default_rng(30))

    def oracle(self, seed, cls=MixedOracle):
        return cls(self.order, self.mix, seed)

    def rounds(self, seed, count):
        rng = np.random.default_rng(seed)
        return [rng.choice(12, 3, replace=False).tolist() for _ in range(count)]

    def test_never_reads_past_the_cap(self):
        # midway between the .2 and .3 members no member is ever certified,
        # so every round runs to the cap, its last batch cut short
        oracle = self.oracle(31)
        for members in self.rounds(32, 20):
            before = oracle.query_count
            discard_round(oracle, members, 0.25, 0.1, self.cap, self.budget)
            assert oracle.query_count - before == self.cap
        rng = np.random.default_rng(33)
        for members in self.rounds(34, 100):
            before = oracle.query_count
            discard_round(oracle, members, rng.uniform(0, 0.6), rng.uniform(0, 0.3),
                          self.cap, self.budget)
            assert oracle.query_count - before <= self.cap

    def test_cap_decides_as_the_fixed_count_round(self):
        # a round run to the cap decides on the Counter table of all the
        # answers it read; midway, that is a coin flip between two members
        oracle = self.oracle(35, _TallyingOracle)
        positions = set()
        for members in self.rounds(36, 40):
            oracle.answers.clear()
            winner = discard_round(oracle, members, 0.25, 0.1, self.cap, self.budget)
            answers = np.concatenate([expand(a) for a in oracle.answers])
            assert len(answers) == self.cap
            assert winner == pick_round_winner(counter_table(answers, members), 0.25)
            positions.add(sorted(members, key=oracle.order.rank_of).index(winner))
        assert positions == {0, 1}

    def test_separated_rounds_pick_as_the_fixed_count_round(self):
        # targets within 0.01 of the .2 member's frequency, each with the gap
        # an estimate would give: both rules pick that member, the
        # sequential round from far fewer answers
        seq, ref = self.oracle(37), self.oracle(38, _AnswerArrayOracle)
        reads = []
        for i, members in enumerate(self.rounds(39, 60)):
            tracked = (0.19, 0.2, 0.21)[i % 3]
            before = seq.query_count
            got = discard_round(seq, members, tracked, 0.3 - tracked, self.cap, self.budget)
            reads.append(seq.query_count - before)
            assert got == fixed_count_round(ref, members, tracked, self.cap)
        assert np.mean(reads) <= self.cap / 2

    def test_wrong_round_rate_within_share_at_the_least_gap(self):
        # positions 0.1 apart at gamma .099, as near as the mixture type
        # allows, and an exact target; one round at n=3 and epsilon=.5 has
        # the share epsilon/5 = 0.1, half of it the sequential test's
        gamma, epsilon, rounds = 0.099, 0.5, 4000
        share = epsilon / 5
        cap = discard_round_repetitions(gamma, epsilon, 3)
        mix = MixtureDistribution((0.2, 0.3, 0.5), gamma)
        oracle = MixedOracle(LatentOrder.identity(3), mix, 40)
        wrong = sum(
            discard_round(oracle, (0, 1, 2), 0.2, gamma, cap, share / 2) != 0
            for _ in range(rounds)
        )
        slack = 3 * math.sqrt(share * (1 - share) / rounds)
        assert wrong / rounds <= share + slack

    def test_noiseless_round_stops_where_the_radius_is_first_crossed(self):
        # true margin 0.1; with gap 0.09 the first check, where twice the
        # radius is gap/1.2, already clears it
        d = 0.01
        oracle = _ExactOracle({0: 0.2, 1: 0.3, 2: 0.5})
        assert discard_round(oracle, (0, 1, 2), 0.2, 0.09, 10**6, d) == 0
        assert oracle.calls == [math.ceil(2 * 1.2**2 * math.log(2 * 3 * 2 / d) / 0.09**2)]
        # an overestimated gap opens too early: checks grow 1.25x and stop
        # at the first whose 2r = 2 sqrt(ln(6t(t+1)/d)/(2N)) is below 0.1
        oracle = _ExactOracle({0: 0.2, 1: 0.3, 2: 0.5})
        assert discard_round(oracle, (0, 1, 2), 0.2, 0.2, 10**6, d) == 0
        totals = np.cumsum(oracle.calls).tolist()
        assert all(b == math.ceil(1.25 * a) for a, b in zip(totals, totals[1:]))
        crossed = [2 * math.sqrt(math.log(6 * t * (t + 1) / d) / (2 * total)) < 0.1
                   for t, total in enumerate(totals, 1)]
        assert len(totals) > 2 and crossed[-1] and not any(crossed[:-1])

    @pytest.mark.parametrize("cap, budget", [
        (0, 0.01), (-1, 0.01), (math.nan, 0.01), (2**63, 0.01), (math.inf, 0.01),
        (100, 0.0), (100, 1.0), (100, -0.1), (100, math.nan),
    ])
    def test_rejects_a_bad_cap_or_budget_before_any_query(self, cap, budget):
        # cap 0 and budget 0 used to divide by zero, budget nan to fail in
        # math.ceil; a schedule fixed in advance would return no winner at cap 0
        oracle = self.oracle(41)
        state = oracle._rng.bit_generator.state
        with pytest.raises(ValueError, match="cap|budget"):
            discard_round(oracle, (0, 1, 2), 0.2, 0.1, cap, budget)
        assert oracle.query_count == 0
        assert oracle._rng.bit_generator.state == state

    @pytest.mark.parametrize("gap", [1e-200, 5e-324])
    def test_a_tiny_gap_opens_at_the_cap(self, gap):
        # (first/gap)**2 raised OverflowError for a gap below about 1e-154
        oracle = self.oracle(44)
        assert discard_round(oracle, (0, 1, 2), 0.5, gap, 1000, 0.01) in (0, 1, 2)
        assert oracle.query_count == 1000
        assert mixture._round_schedule(3, gap, 1000, 0.01) == ((1000, 1000, 0.0),)

    def test_a_huge_gap_opens_at_one_answer(self):
        # (first/gap)**2 underflows to an opening of 0, which scheduled
        # empty batches until memory ran out; run under an address-space
        # cap so that such a schedule fails fast
        script = """
import math, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from choicelab import mixture
from choicelab.core import LatentOrder
from choicelab.oracles import MixedOracle, MixtureDistribution
mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
for gap in (1e200, math.inf):
    oracle = MixedOracle(LatentOrder.identity(3), mix, 43)
    winner = mixture.discard_round(oracle, (0, 1, 2), 0.5, gap, 1000, 0.01)
    first = mixture._round_schedule(3, gap, 1000, 0.01)[0][0]
    print(winner, first, oracle.query_count)
"""
        threads = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"), "1")
        src = os.path.dirname(os.path.dirname(mixture.__file__))
        env = {**os.environ, **threads, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        for line in proc.stdout.splitlines():
            winner, first, queries = map(int, line.split())
            assert winner in (0, 1, 2) and first == 1 and 1 <= queries <= 1000
        assert len(proc.stdout.splitlines()) == 2

    def test_a_float_cap_meets_the_oracle_count_check_after_an_int_cap(self):
        # the schedule is cached per (size, gap, cap, budget), and 100.0
        # hashes as 100 does; it must not borrow the int cap's schedule
        oracle = self.oracle(42)
        discard_round(oracle, (0, 1, 2), 0.2, 0.0, 100, 0.01)
        before = oracle.query_count
        with pytest.raises(InvalidQueryError, match="integer"):
            discard_round(oracle, (0, 1, 2), 0.2, 0.0, 100.0, 0.01)
        assert oracle.query_count == before


def reference_vote_parameters(m, gamma, epsilon_sort, margin):
    """Reference: the cap, budget and opening count of a noisy sort's
    votes, computed as the vote loop computed them."""
    cap = majority_repetitions(m, gamma, epsilon_sort)
    budget = mixture._vote_budget(m, epsilon_sort)
    radius = mixture._anytime_radius(1, 1, 2, budget)
    opening = math.ceil(mixture._VOTE_SLACK * (radius / max(margin, gamma / 4)) ** 2)
    return cap, budget, opening


def reference_vote_batches(cap, opening):
    """Reference: the batch counts of a vote that no check stops, from the
    vote loop that recomputed them call by call."""
    batches, total, batch = [], 0, opening
    while True:
        batch = min(batch, cap - total)
        batches.append(batch)
        total += batch
        if total == cap:
            return batches
        batch = total


def reference_noisy_sort(comparator, elements, gamma, epsilon_sort, margin=0.0):
    """Reference: the noisy sort whose votes recompute the radius and read
    the win rate as a float after every batch."""
    elements = list(elements)
    if len(elements) <= 1:
        return elements
    cap, budget, opening = reference_vote_parameters(len(elements), gamma, epsilon_sort, margin)

    def less(u, v):
        wins = total = t = 0
        batch = opening
        while True:
            batch = min(batch, cap - total)
            wins += comparator.compare_wins(u, v, batch)
            total += batch
            t += 1
            if total == cap:
                break
            if abs(wins / total - 0.5) > mixture._anytime_radius(total, t, 2, budget):
                break
            batch = total
        return 2 * wins < total

    ordered, _ = merge_sort(elements, less)
    return ordered


def reference_discard_round(oracle, members, tracked, gap, cap, budget):
    """Reference: the discard round that recomputes its batch and radius
    and builds a frequency dict after every batch."""
    members = list(members)
    tails = 2 * len(members)
    counts = [0] * len(members)
    total = t = 0
    first = 2 * mixture._ROUND_SLACK * mixture._anytime_radius(1, 1, tails, budget)
    batch = math.ceil((first / gap) ** 2) if gap > 0 else cap
    while True:
        batch = min(batch, cap - total)
        answers = oracle.query_repeated(members, batch)
        counts = [c + answers.count(m) for c, m in zip(counts, members)]
        total += batch
        t += 1
        freqs = {m: c / total for m, c in zip(members, counts)}
        nearest, runner_up = sorted(abs(f - tracked) for f in freqs.values())[:2]
        if total == cap or runner_up - nearest > 2 * mixture._anytime_radius(
            total, t, tails, budget
        ):
            return pick_round_winner(freqs, tracked)
        batch = math.ceil(total * mixture._ROUND_GROWTH) - total


def assert_checks(schedule, cap, tails, budget):
    """Each (batch, N, r) of a schedule reads N, the batches summed so far;
    r is the t-th check's anytime radius at N, except at the last check,
    which reads the cap at radius 0.0."""
    totals = list(itertools.accumulate(batch for batch, _, _ in schedule))
    assert [total for _, total, _ in schedule] == totals
    *checks, (_, last, radius) = schedule
    assert last == cap and radius == 0.0
    for t, (_, total, radius) in enumerate(checks, 1):
        assert total < cap and radius == mixture._anytime_radius(total, t, tails, budget)


class _LoggingComparator(NoisyComparator):
    """Noisy comparator that logs every call as (u, v, count, wins)."""

    def __init__(self, oracle, anchors):
        super().__init__(oracle, anchors)
        self.log = []

    def compare_wins(self, u, v, count):
        wins = super().compare_wins(u, v, count)
        self.log.append((u, v, count, wins))
        return wins


class TestFixedSchedules:
    @pytest.mark.parametrize("gamma", [0.09, 0.2, 0.8])
    @pytest.mark.parametrize("m", [2, 3, 98, 300])
    def test_vote_schedules_fix_every_check(self, m, gamma):
        # every vote's batches are the reference loop's, each check but the
        # last sits at the anytime radius of its count, and the last reads
        # the odd cap at radius 0.0, where the vote takes the majority
        for epsilon_sort, margin in itertools.product((0.02, 0.05), (0, 0.05, 0.1, 0.3, 0.5)):
            cap, budget, opening = reference_vote_parameters(m, gamma, epsilon_sort, margin)
            schedule = mixture._vote_schedule(m, gamma, epsilon_sort, margin)
            assert [batch for batch, _, _ in schedule] == reference_vote_batches(cap, opening)
            assert cap % 2 == 1
            assert_checks(schedule, cap, 2, budget)

    @pytest.mark.parametrize("size", [3, 4])
    @pytest.mark.parametrize("gap", [-0.1, 0.0, 0.01, 0.09, 0.3])
    def test_round_schedules_fix_every_check(self, size, gap):
        # each round opens where twice a first check's radius is gap/1.2 (at
        # the cap when gap is not positive) and grows the count read 1.25x
        for cap, budget in itertools.product(
            (1, 7, 2999, discard_round_repetitions(0.09, 0.1, 100)), (0.1 / 980, 0.3)
        ):
            tails = 2 * size
            first = 2 * 1.2 * mixture._anytime_radius(1, 1, tails, budget)
            batches, total = [], 0
            batch = math.ceil((first / gap) ** 2) if gap > 0 else cap
            while total < cap:
                batches.append(min(batch, cap - total))
                total += batches[-1]
                batch = math.ceil(total * 1.25) - total
            schedule = mixture._round_schedule(size, gap, cap, budget)
            assert [batch for batch, _, _ in schedule] == batches
            assert_checks(schedule, cap, tails, budget)

    @pytest.mark.parametrize("pi, gamma, margin", [
        ((0.2, 0.3, 0.5), 0.09, 0.0), ((0.2, 0.3, 0.5), 0.09, 0.1),
        ((0.2, 0.3, 0.5), 0.09, 0.3), ((0.3, 0.33, 0.37), 0.8, 0.5),
        ((0.1, 0.2, 0.3, 0.4), 0.2, 0.05),
    ], ids=["cap", "true-margin", "margin-above", "near-half", "k4"])
    def test_votes_draw_as_the_reference_loop(self, pi, gamma, margin):
        # same seed, same calls: the same counts asked, wins read, order,
        # queries and generator state
        mix = MixtureDistribution(pi, min(gamma, 0.02))
        order = LatentOrder.random(30, np.random.default_rng(60))
        anchors = tuple(order.ascending[: mix.k - 2])
        elements = [x for x in np.random.default_rng(61).permutation(30).tolist()
                    if x not in anchors]
        runs = []
        for sort in (noisy_sort, reference_noisy_sort):
            oracle = MixedOracle(order, mix, 62)
            comparator = _LoggingComparator(oracle, anchors)
            ordered = sort(comparator, elements, gamma, 0.05, margin)
            runs.append((ordered, comparator.log, oracle.query_count,
                         oracle._rng.bit_generator.state))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) > len(elements)

    def test_discard_rounds_draw_as_the_reference_loop(self):
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        order = LatentOrder.random(12, np.random.default_rng(63))
        oracle, reference = MixedOracle(order, mix, 64), MixedOracle(order, mix, 64)
        script = np.random.default_rng(65)
        cap = discard_round_repetitions(0.09, 0.1, 100)
        caps, stops = set(), set()
        for i in range(300):
            members = script.choice(12, 3, replace=False).tolist()
            tracked = (float(script.uniform(0, 0.6)), 0.25)[i % 3 == 0]  # 0.25: ties
            gap = (0.0, -0.1, float(script.uniform(0, 0.3)))[min(i % 10, 2)]
            round_cap = (cap, 1, 7, int(script.integers(1, 3000)))[i % 4]
            budget = (0.1 / 980, 0.3)[i % 2]
            before = oracle.query_count
            got = discard_round(oracle, members, tracked, gap, round_cap, budget)
            want = reference_discard_round(reference, members, tracked, gap, round_cap, budget)
            assert got == want
            assert oracle.query_count == reference.query_count
            (caps if oracle.query_count - before == round_cap else stops).add(i % 4)
        assert oracle._rng.bit_generator.state == reference._rng.bit_generator.state
        assert caps and stops  # rounds both ran to the cap and stopped early


class TestRecoverMixed:
    def test_recovers_order_up_to_reflection(self):
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        rng = np.random.default_rng(13)
        good = 0
        trials = 6
        for t in range(trials):
            order = LatentOrder.random(12, rng)
            oracle = MixedOracle(order, mix, rng)
            recovered, est = recover_mixed(oracle, 0.09, 0.1)
            if orders_match_up_to_reflection(recovered, order):
                good += 1
        assert good >= trials - 1

    @pytest.mark.parametrize("pi, gamma", [
        ((0.2, 0.3, 0.5), 0.09), ((0.5, 0.3, 0.2), 0.09),
        ((0.1, 0.2, 0.3, 0.4), 0.09), ((0.4, 0.3, 0.2, 0.1), 0.09),
        ((0.1, 0.15, 0.2, 0.25, 0.3), 0.04), ((0.3, 0.25, 0.2, 0.15, 0.1), 0.04),
    ], ids=["k3-up", "k3-down", "k4-up", "k4-down", "k5-up", "k5-down"])
    def test_sorts_open_at_the_true_margin_given_the_true_mixture(self, pi, gamma, monkeypatch):
        # with the estimate replaced by the truth, each sort is given the
        # distance from 1/2 of the win rate of every pair it compares: by
        # exact arithmetic over the pair's positions in the padded set, and
        # as counted over a million informative outcomes
        mix = MixtureDistribution(pi, gamma)
        truth = canonical(mix.probs)
        monkeypatch.setattr(
            mixture, "estimate_mixture",
            lambda oracle, gamma, delta, epsilon: MixtureEstimate(truth, delta, epsilon, 0),
        )
        sorts = []

        def recorded(comparator, elements, gamma, epsilon_sort, margin):
            sorts.append((comparator, list(elements), margin))
            return noisy_sort(comparator, elements, gamma, epsilon_sort, margin)

        monkeypatch.setattr(mixture, "noisy_sort", recorded)
        order = LatentOrder.random(14, np.random.default_rng(50))
        oracle = MixedOracle(order, mix, 51)
        recovered, _ = recover_mixed(oracle, gamma, 0.1)
        assert orders_match_up_to_reflection(recovered, order)
        assert len(sorts) == 2
        exact = [Fraction(p) for p in mix.probs]
        for comparator, elements, margin in sorts:
            for u, v in itertools.combinations(elements, 2):
                pu, pv = (exact[p - 1] for p in true_positions(comparator, u, v))
                rate = pu / (pu + pv)
                assert float(abs(rate - Fraction(1, 2))) == pytest.approx(margin, abs=1e-12)
            u, v = elements[:2]
            count = 10**6
            rate = comparator.compare_wins(u, v, count) / count
            assert abs(abs(rate - 0.5) - margin) < 5 * 0.5 / math.sqrt(count)

    def test_discard_runs_outside_the_active_discard(self, monkeypatch):
        # the mixture's discard rounds are its own queries, not active.discard's
        def refuse(oracle):
            raise AssertionError("recover_mixed called active.discard_ineligible")

        monkeypatch.setattr(active, "discard_ineligible", refuse)
        mix = MixtureDistribution((0.5, 0.3, 0.2), 0.09)
        rng = np.random.default_rng(14)
        order = LatentOrder.random(10, rng)
        recovered, _ = recover_mixed(MixedOracle(order, mix, rng), 0.09, 0.1)
        assert orders_match_up_to_reflection(recovered, order)

    def test_position_predictions_follow_from_order_match(self):
        mix = MixtureDistribution((0.5, 0.3, 0.2), 0.09)
        rng = np.random.default_rng(14)
        order = LatentOrder.random(10, rng)
        oracle = MixedOracle(order, mix, rng)
        recovered, est = recover_mixed(oracle, 0.09, 0.1)
        assert orders_match_up_to_reflection(recovered, order)
        sets = np.array(list(itertools.combinations(range(10), 3)))
        reflected = recovered == order.reversed()
        for position in (1, 2, 3):
            selector = PositionSelector(3, position)
            mirror = PositionSelector(3, 4 - position) if reflected else selector
            got = evaluate_many(mirror, recovered, sets)
            want = evaluate_many(selector, order, sets)
            assert (got == want).all()

    def test_near_degenerate_recovers_dominant_selector(self):
        # pi -> (0, 0, 1) is rejected by the type gate; the nearest valid
        # mixture still recovers the dominant selector's behavior
        mix = MixtureDistribution((0.02, 0.08, 0.9), 0.05)
        rng = np.random.default_rng(15)
        good = 0
        trials = 20
        sets = np.array(list(itertools.combinations(range(15), 3)))
        for t in range(trials):
            order = LatentOrder.random(15, rng)
            oracle = MixedOracle(order, mix, rng)
            recovered, est = recover_mixed(oracle, 0.05, 0.1)
            dominant = int(np.argmax(est.probs_hat)) + 1
            got = evaluate_many(PositionSelector(3, dominant), recovered, sets)
            want = evaluate_many(PositionSelector(3, 3), order, sets)
            if (got == want).all():
                good += 1
        assert good >= int(0.9 * trials)

    @pytest.mark.parametrize("pi", [(0.3, 0.7), (0.2, 0.3, 0.5), (0.1, 0.2, 0.3, 0.4)],
                             ids=["k2", "k3", "k4"])
    def test_discard_budget_split_over_the_rounds_run(self, pi, monkeypatch):
        # every round of the discard gets half of an equal share of
        # epsilon/5, and the shares of the rounds it runs add up to exactly that
        n, gamma, epsilon = 8, 0.09, 0.1
        k = len(pi)
        rounds = []

        def counted(oracle, members, tracked, gap, cap, budget):
            rounds.append((cap, budget))
            return discard_round(oracle, members, tracked, gap, cap, budget)

        monkeypatch.setattr(mixture, "discard_round", counted)
        mix = MixtureDistribution(pi, gamma)
        recover_mixed(MixedOracle(LatentOrder.random(n, np.random.default_rng(41)), mix, 42),
                      gamma, epsilon)
        assert len(rounds) == n - k + 1
        assert {cap for cap, _ in rounds} == {discard_round_repetitions(gamma, epsilon, n, k)}
        assert sum(2 * budget for _, budget in rounds) == pytest.approx(epsilon / 5)

    def test_precondition(self):
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(5), mix, 0)
        with pytest.raises(ValueError):
            recover_mixed(oracle, 0.09, 0.1)

    def test_split_fixes_the_counts_recover_mixed_uses(self):
        n, k, gamma, epsilon = 30, 3, 0.09, 0.1
        assert recovery_split(n, k, gamma, epsilon) == (
            gamma / 2, epsilon / 5, discard_round_repetitions(gamma, epsilon, n, k))
        with pytest.raises(ValueError, match="need n >= 2k, got n=5, k=3"):
            recovery_split(5, k, gamma, epsilon)

    @pytest.mark.parametrize("n, gamma", [(30, 2.5e-9), (30, 2.97e-9), (100, 3.1e-9)])
    def test_a_count_past_int64_is_refused_before_any_query(self, n, gamma):
        # the estimate's count fits here; the vote or discard cap does not
        repetition_count(gamma / 2, 0.1 / 5, 3)
        mix = MixtureDistribution((0.2, 0.3, 0.5), gamma)
        oracle = MixedOracle(LatentOrder.identity(n), mix, 0)
        with pytest.raises(ValueError, match="int64 limit"):
            recover_mixed(oracle, gamma, 0.1)
        assert oracle.query_count == 0

    @staticmethod
    def record_sorts(monkeypatch, strand=False):
        """Record each noisy sort's input and output; with strand, the scrap
        sort (every second sort) moves the known element, last in its
        input, to the middle of its output."""
        sorts = []

        def recorded(comparator, elements, gamma, epsilon_sort, margin):
            ordered = noisy_sort(comparator, elements, gamma, epsilon_sort, margin)
            if strand and len(sorts) % 2:
                known = elements[-1]
                ordered = [x for x in ordered if x != known]
                ordered.insert(len(ordered) // 2, known)
            sorts.append((list(elements), ordered))
            return ordered

        monkeypatch.setattr(mixture, "noisy_sort", recorded)
        return sorts

    def test_scrap_sort_with_the_known_element_last_is_kept(self, monkeypatch):
        # at pi = (0.3, 0.5, 0.2) the scrap sort's winner-is-greater reading
        # puts the known element, above the discarded block, on top
        sorts = self.record_sorts(monkeypatch)
        mix = MixtureDistribution((0.3, 0.5, 0.2), 0.09)
        for seed in range(3):
            order = LatentOrder.random(12, np.random.default_rng(seed))
            recovered, _ = recover_mixed(MixedOracle(order, mix, 100 + seed), 0.09, 0.1)
            assert orders_match_up_to_reflection(recovered, order)
            scrap, ordered = sorts[-1]
            assert ordered[-1] == scrap[-1]

    @pytest.mark.parametrize("pi", [(0.2, 0.3, 0.5), (0.3, 0.5, 0.2)], ids=["flip", "keep"])
    def test_a_stranded_known_element_falls_back_to_the_estimate(self, monkeypatch, pi):
        # the scrap sort leaves the known element at neither end: the block
        # is oriented by the estimated pi alone, here as the sort had it
        sorts = self.record_sorts(monkeypatch, strand=True)
        mix = MixtureDistribution(pi, 0.09)
        order = LatentOrder.random(12, np.random.default_rng(7))
        recovered, _ = recover_mixed(MixedOracle(order, mix, 8), 0.09, 0.1)
        scrap, ordered = sorts[1]
        assert ordered[0] != scrap[-1] != ordered[-1]
        assert orders_match_up_to_reflection(recovered, order)

    @pytest.mark.parametrize(
        "pi, gamma",
        [((0.1, 0.2, 0.3, 0.4), 0.09), ((0.45, 0.1, 0.2, 0.25), 0.04),
         ((0.1, 0.15, 0.2, 0.25, 0.3), 0.04)],
        ids=["k4-increasing", "k4-unimodal", "k5-gamma04"],
    )
    def test_recovers_beyond_criterion_6(self, pi, gamma):
        mix = MixtureDistribution(pi, gamma)
        rng = np.random.default_rng(16)
        good = 0
        trials = 10
        for t in range(trials):
            order = LatentOrder.random(30, rng)
            oracle = MixedOracle(order, mix, rng)
            recovered, _ = recover_mixed(oracle, gamma, 0.1)
            good += orders_match_up_to_reflection(recovered, order)
        assert good >= trials - 1

    def test_query_count_is_estimate_plus_discard_plus_sorts(self, monkeypatch):
        # the discard reads its answers through query_repeated alone and the
        # sorts through query_until alone; bench/tracer.py counts the phases
        # so, from len() of the answers and query_until's raw count
        read = []

        def counted(comparator, u, v, count):
            read.append(count)
            return compare_wins(comparator, u, v, count)

        compare_wins = NoisyComparator.compare_wins
        monkeypatch.setattr(NoisyComparator, "compare_wins", counted)
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        order = LatentOrder.random(30, np.random.default_rng(17))
        oracle = _TallyingOracle(order, mix, 17)
        _, est = recover_mixed(oracle, 0.09, 0.1)
        estimate, discard = oracle.answers[:4], oracle.answers[4:]
        assert sum(map(len, estimate)) == est.queries
        assert len(discard) >= 30 - 3 + 1  # one call or more per round
        assert oracle.until_raw > oracle.until_informative == sum(read) > 0
        assert oracle.query_count == (
            est.queries + sum(map(len, discard)) + oracle.until_raw
        )

    def test_round_repetition_formula(self):
        # Chernoff at radius gamma/2 within the cap's half of a round's share
        # epsilon/(5(n-2)): ln(2 / (epsilon/(10(n-2)))) = ln(5600)
        assert discard_round_repetitions(0.1, 0.1, 30) == math.ceil(
            (8.2 / 0.01) * math.log(5600)
        )

    @pytest.mark.parametrize("gamma, epsilon", [
        (0.0, 0.1), (-0.1, 0.1), (math.nan, 0.1),
        (0.09, 0.0), (0.09, 1.0), (0.09, -0.5), (0.09, math.nan),
    ])
    def test_round_repetitions_reject_bad_parameters(self, gamma, epsilon):
        # a zero gamma or epsilon used to end in ZeroDivisionError
        with pytest.raises(ValueError):
            discard_round_repetitions(gamma, epsilon, 100)

    @pytest.mark.parametrize("gamma", [1e-155, 1e-200, 1e300])
    def test_round_repetitions_refuse_a_gamma_whose_square_leaves_float_range(self, gamma):
        with pytest.raises(ValueError, match="int64 limit"):
            discard_round_repetitions(gamma, 0.1, 100)

    @pytest.mark.parametrize("n, k", [(2, 3), (1, 3), (3, 4)])
    def test_round_repetitions_reject_universe_below_k(self, n, k):
        # n = k - 1 used to end in ZeroDivisionError, smaller n in a math domain error
        with pytest.raises(ValueError, match="n >= k"):
            discard_round_repetitions(0.09, 0.1, n, k)

    @pytest.mark.parametrize("n, k", [(10.5, 3), (12.0, 3), (True, 1), (12, 3.0), (12, "3")])
    def test_round_repetitions_reject_non_integer_sizes(self, n, k):
        with pytest.raises(ValueError, match="need integers n >= k"):
            discard_round_repetitions(0.09, 0.1, n, k)
        assert discard_round_repetitions(0.09, 0.1, np.int64(12)) == (
            discard_round_repetitions(0.09, 0.1, 12)
        )
