"""Population-mixture inference against a mixed oracle.

Recovers the position-probability vector pi (up to reflection) from O(1)
queries to the k+1 subsets of a single (k+1)-set, then the full order
(up to the same reflection) via a noisy discard pass and two
majority-vote merge sorts over a padded retry comparator. The
majority-vote sort replaces the noisy-sorting subroutine the analysis
usually delegates to; it costs O(n log^2 n) queries instead of
O(n log n) with the same success guarantee.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import LatentOrder, kset
from .oracles import MixedOracle
from .sorting import merge_sort

__all__ = [
    "AlignmentFailureError",
    "MixtureEstimate",
    "NoisyComparator",
    "repetition_count",
    "answer_frequencies",
    "align_frequency_tables",
    "estimate_mixture",
    "majority_repetitions",
    "noisy_sort",
    "discard_round_repetitions",
    "pick_round_winner",
    "recover_mixed",
    "best_reflection_error",
    "orders_match_up_to_reflection",
]


class AlignmentFailureError(RuntimeError):
    """The cross-subset frequency structure needed for alignment is absent.

    Signals that a sampling bad event occurred; callers may retry with a
    smaller delta or a smaller epsilon.
    """


@dataclass(frozen=True)
class MixtureEstimate:
    """Estimated position probabilities, canonicalized so probs_hat[0] >= probs_hat[-1]."""

    probs_hat: tuple
    delta: float
    epsilon: float
    queries: int

    @property
    def k(self) -> int:
        return len(self.probs_hat)

    def to_json(self) -> str:
        return json.dumps(
            {
                "pi": list(self.probs_hat),
                "delta": self.delta,
                "epsilon": self.epsilon,
                "queries": self.queries,
            }
        )


def repetition_count(delta: float, epsilon: float, k: int) -> int:
    """Per-subset query count guaranteeing coordinate error <= delta with
    probability >= 1 - epsilon, by a two-sided Chernoff bound union-bounded
    over all k(k+1) subset/member frequencies."""
    if delta <= 0 or epsilon <= 0 or epsilon >= 1:
        raise ValueError("need delta > 0 and epsilon in (0, 1)")
    return math.ceil((2 + delta) / delta**2 * math.log(2 * k * (k + 1) / epsilon))


def answer_frequencies(oracle: MixedOracle, s, reps: int) -> dict:
    """Query the k-set s reps times; map each member to its answer frequency."""
    members = kset(s)
    outcomes = oracle.query_repeated(members, reps)
    counts = np.bincount(np.searchsorted(members, outcomes), minlength=len(members))
    return dict(zip(members, (counts / reps).tolist()))


def align_frequency_tables(tables) -> tuple:
    """Assign one shared position to each frequency level across the k+1 subsets.

    tables[j] maps each member of subset j to its selection frequency.
    Within a subset, ranking members by frequency identifies which
    frequency belongs to which position ordinal; across subsets, the two
    end positions are the only frequency levels whose member multiset has
    the {u, v, ..., v} signature (one member once, another k times), and
    consecutive positions share exactly one member, so walking that
    adjacency chain from the larger-valued end assigns every level.
    Returns the frequency vector of the first subset reordered by
    position, with the larger end first.
    """
    count = len(tables)
    k = count - 1
    if k < 2 or any(len(t) != k for t in tables):
        raise AlignmentFailureError("need k+1 tables of k frequencies each")

    ranked = [sorted(t, key=lambda e, t=t: (-t[e], e)) for t in tables]
    level_members = [Counter(ranked[j][r] for j in range(count)) for r in range(k)]

    ends = [r for r, c in enumerate(level_members) if sorted(c.values()) == [1, k]]
    if len(ends) != 2:
        raise AlignmentFailureError(
            f"expected exactly two end-signature frequency levels, found {len(ends)}"
        )
    level_value = [
        float(np.mean([tables[j][ranked[j][r]] for j in range(count)]))
        for r in range(k)
    ]
    start, finish = sorted(ends, key=lambda r: -level_value[r])

    chain = [start]
    visited = {start}
    while len(chain) < k:
        shared = set(level_members[chain[-1]])
        nxt = [
            r
            for r in range(k)
            if r not in visited and shared & set(level_members[r])
        ]
        if len(nxt) != 1:
            raise AlignmentFailureError(
                f"frequency level {chain[-1]} has {len(nxt)} unvisited "
                f"overlap neighbors, expected 1"
            )
        chain.append(nxt[0])
        visited.add(nxt[0])
    if chain[-1] != finish:
        raise AlignmentFailureError("alignment chain did not terminate at the other end")

    return tuple(tables[0][ranked[0][r]] for r in chain)


def estimate_mixture(
    oracle: MixedOracle, gamma: float, delta: float, epsilon: float
) -> MixtureEstimate:
    """Recover pi up to reflection: max coordinate error <= delta with
    probability >= 1 - epsilon, using O(1)-in-n queries.

    Queries each of the k+1 k-subsets of one fixed (k+1)-set
    repetition_count(delta, epsilon, k) times and aligns the per-subset
    frequency vectors. delta may be at most gamma/2; past the midpoint the
    frequency levels of distinct positions could collide.
    """
    if not 0 < delta <= gamma / 2:
        raise ValueError(f"delta must lie in (0, gamma/2], got {delta}")
    k = oracle.k
    if oracle.n < k + 1:
        raise ValueError("need at least k+1 alternatives")
    reps = repetition_count(delta, epsilon, k)
    base = tuple(range(k + 1))
    tables = [
        answer_frequencies(oracle, (x for x in base if x != excluded), reps)
        for excluded in base
    ]
    probs = align_frequency_tables(tables)
    return MixtureEstimate(
        probs_hat=probs, delta=delta, epsilon=epsilon, queries=reps * (k + 1)
    )


class NoisyComparator:
    """Binary comparator from padding a free pair with k-2 anchor alternatives.

    Anchors must be ineligible to the selector whose answers carry the
    signal, so the only informative outcomes are the two free positions;
    compare_wins() re-queries until one of the pair is returned (geometric
    retries), as many times as asked, and counts the wins.
    """

    def __init__(self, oracle: MixedOracle, anchors):
        anchors = kset(anchors)
        if len(anchors) != oracle.k - 2:
            raise ValueError(
                f"need exactly k-2={oracle.k - 2} anchors, got {len(anchors)}"
            )
        self.oracle = oracle
        self.anchors = anchors

    def padded(self, u: int, v: int) -> tuple:
        return (u, v) + self.anchors

    def compare_wins(self, u: int, v: int, count: int) -> int:
        """Number of times u wins among count informative outcomes."""
        outcomes, _ = self.oracle.query_until(self.padded(u, v), (u, v), count)
        return int((outcomes == u).sum())


def majority_repetitions(m: int, gamma: float, epsilon_sort: float) -> int:
    """Per-comparison repetition count for the majority-vote sort of m items.

    Chernoff gives per-comparison failure <= exp(-r*gamma^2/8) for a win
    margin of gamma/4; union-bounded over the at most m*ceil(lg m) merge
    comparisons. Rounded up to odd so no majority ties occur.
    """
    if m < 2:
        return 1
    comparisons = m * max(1, (m - 1).bit_length())
    r = math.ceil(8.0 / gamma**2 * math.log(2 * comparisons / epsilon_sort))
    return r + 1 if r % 2 == 0 else r


def noisy_sort(comparator, elements, gamma: float, epsilon_sort: float):
    """Sort ascending under the comparator's winner-is-greater reading.

    Succeeds (true order under that reading) with probability
    >= 1 - epsilon_sort provided each informative win probability is at
    least 1/2 + gamma/4. Every comparison is a majority vote over
    majority_repetitions() informative outcomes, so the query count is
    O(m log^2 m) times the geometric retry factor.
    """
    elements = list(elements)
    if len(elements) <= 1:
        return elements
    reps = majority_repetitions(len(elements), gamma, epsilon_sort)

    def less(u, v):
        return 2 * comparator.compare_wins(u, v, reps) < reps

    ordered, _ = merge_sort(elements, less)
    return ordered


def discard_round_repetitions(gamma: float, epsilon: float, n: int) -> int:
    """Queries per discard round so that, union-bounded over all rounds,
    every round's frequencies land within gamma/2 of truth with
    probability >= 1 - epsilon/5."""
    return math.ceil((8 + 2 * gamma) / gamma**2 * math.log(10 * (n - 2) / epsilon))


def pick_round_winner(freqs: dict, target: float) -> int:
    """Discard-round decision rule: the element whose observed frequency is
    nearest the estimated probability of the tracked end position, ties
    toward the higher observed frequency.

    Deterministic guarantee: if every estimate error (round frequencies
    plus the target's own error) totals at most gamma/2, the winner is the
    element truly at the tracked position.
    """
    return min(freqs, key=lambda e: (abs(freqs[e] - target), -freqs[e], e))


def recover_mixed(oracle: MixedOracle, gamma: float, epsilon: float):
    """Recover the full latent order (up to reflection) and the mixture.

    Five stages, each budgeted epsilon/5: (1) estimate pi at precision
    gamma/2; (2) noisy discard, identifying each round's tracked-end
    element by frequency and discarding it, which leaves the k-1
    alternatives ineligible to that end's selector; (3) majority-vote sort
    of the remaining n-k+1 alternatives through a comparator anchored on
    the discarded block; (4) a second short sort that orders the discarded
    block itself, anchored on the k-2 alternatives at the far end of the
    recovered order and oriented by including one alternative of known
    position; (5) assembly. Succeeds with probability >= 1 - epsilon in
    O(n log^2 n) queries.

    Returns (LatentOrder, MixtureEstimate); position-p predictions on the
    returned order with weight probs_hat[p-1] reproduce the oracle's
    behavior for every k-set.
    """
    n, k = oracle.n, oracle.k
    if n < 2 * k:
        raise ValueError(f"need n >= 2k, got n={n}, k={k}")

    estimate = estimate_mixture(oracle, gamma, gamma / 2, epsilon / 5)
    pi = estimate.probs_hat
    tracked = pi[-1]  # probability of the end position the discard follows

    reps = discard_round_repetitions(gamma, epsilon, n)
    current = list(range(k))
    winner = None
    for fresh in range(k, n + 1):
        winner = pick_round_winner(answer_frequencies(oracle, current, reps), tracked)
        if fresh < n:
            current.remove(winner)
            current.append(fresh)
    discarded_block = sorted(x for x in current if x != winner)

    anchors = tuple(discarded_block[: k - 2])
    eligible = [x for x in range(n) if x not in discarded_block]
    order_eligible = noisy_sort(
        NoisyComparator(oracle, anchors), eligible, gamma, epsilon / 5
    )
    # winner-is-greater matches the tracked end iff its probability exceeds
    # its neighbor's; otherwise the sort came out reversed
    if pi[-1] < pi[-2]:
        order_eligible = order_eligible[::-1]

    known = order_eligible[0]
    scrap = discarded_block + [known]
    far_anchors = tuple(order_eligible[-(k - 2) :]) if k > 2 else ()
    scrap_sorted = noisy_sort(
        NoisyComparator(oracle, far_anchors), scrap, gamma, epsilon / 5
    )
    # the known element sits above the whole discarded block; orient so it
    # lands on top (fall back to the estimated mixture if the sort failed)
    if scrap_sorted[-1] == known:
        pass
    elif scrap_sorted[0] == known:
        scrap_sorted = scrap_sorted[::-1]
    elif pi[1] < pi[0]:
        scrap_sorted = scrap_sorted[::-1]

    full = [x for x in scrap_sorted if x != known] + list(order_eligible)
    return LatentOrder(full), estimate


def best_reflection_error(probs_hat, probs_true) -> float:
    """Max coordinate error of the estimate against the better reflection."""
    a = np.asarray(probs_hat, dtype=float)
    b = np.asarray(probs_true, dtype=float)
    return float(
        min(np.abs(a - b).max(), np.abs(a[::-1] - b).max())
    )


def orders_match_up_to_reflection(recovered: LatentOrder, truth: LatentOrder) -> bool:
    return recovered == truth or recovered == truth.reversed()
