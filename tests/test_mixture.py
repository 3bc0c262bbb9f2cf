"""Mixture estimation, alignment, the padded retry comparator, and noisy sorts."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from choicelab.core import LatentOrder, PositionSelector, evaluate_many
from choicelab.mixture import (
    AlignmentFailureError,
    NoisyComparator,
    align_frequency_tables,
    answer_frequencies,
    best_reflection_error,
    discard_round_repetitions,
    estimate_mixture,
    majority_repetitions,
    noisy_sort,
    orders_match_up_to_reflection,
    pick_round_winner,
    recover_mixed,
    repetition_count,
)
from choicelab.oracles import MixedOracle, MixtureDistribution


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

    def test_estimate_json_fields(self):
        import json

        mix = MixtureDistribution((0.7, 0.3), 0.3)
        oracle = MixedOracle(LatentOrder.identity(4), mix, 8)
        est = estimate_mixture(oracle, 0.3, 0.1, 0.05)
        data = json.loads(est.to_json())
        assert set(data) == {"pi", "delta", "epsilon", "queries"}
        assert data["queries"] == est.queries

    def test_delta_validation(self):
        mix = MixtureDistribution((0.7, 0.3), 0.3)
        oracle = MixedOracle(LatentOrder.identity(4), mix, 0)
        with pytest.raises(ValueError):
            estimate_mixture(oracle, 0.3, 0.2, 0.05)  # delta > gamma/2

    def test_degenerate_mixture_rejected_at_type_gate(self):
        with pytest.raises(ValueError):
            MixtureDistribution((1.0, 0.0), 0.1)


def counter_frequencies(oracle, s, reps):
    """Reference: per-answer Counter over query_repeated's answers."""
    counts = Counter(int(x) for x in oracle.query_repeated(s, reps))
    return {member: counts.get(member, 0) / reps for member in s}


class TestCountingExactness:
    # two oracles on one seed see the same answers, so the vectorized counts
    # must equal the Counter reference exactly, not within a tolerance

    def oracles(self, seed):
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        order = LatentOrder.random(12, np.random.default_rng(seed))
        return MixedOracle(order, mix, seed), MixedOracle(order, mix, seed)

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

    def test_precondition(self):
        mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
        oracle = MixedOracle(LatentOrder.identity(5), mix, 0)
        with pytest.raises(ValueError):
            recover_mixed(oracle, 0.09, 0.1)

    def test_round_repetition_formula(self):
        assert discard_round_repetitions(0.1, 0.1, 30) == math.ceil(
            (8.2 / 0.01) * math.log(2800)
        )
