"""Active-query inference against a deterministic position-selecting oracle.

Recovery issues its queries in five phases, in this order:

1. discard: a pass of exactly n-k+1 queries finds the k-1 never-chosen
   (ineligible) alternatives;
2. seed sort: padding a pair of eligibles with k-2 ineligibles turns a
   query into a binary comparison, and the counting merge sort orders a
   seed block of k eligibles with it;
3. position: one query on the seed block reads off the selected position;
4. classify: one query per ineligible, on the lowest k-1 seed eligibles,
   places it below or above the eligible block;
5. insertion: every other eligible is inserted into the sorted seed
   (``sorting.insertion_sort``). For a compromise rule (position 2..k-1)
   a query of x and two placed eligibles p < q, padded so that the three
   fill the ranks around the selected one, returns their median, so each
   query splits the open gaps three ways; at an extreme position the
   padded pair splits them two ways. The sort asks ``oracle.query``
   itself with each padded pair or triple (a choice probe) and reads the
   gap from the answer, so an insertion query costs two Python calls:
   the oracle's query and the core ranking it makes.

Nothing before the position query depends on the position. The sort costs
at most sum ceil(log3(i+1)) insertion queries for a compromise rule, near
the log3((n-k)!/2) floor. Also provides the O(k) type classifier that
recovers the position (up to reflection) from the k+1 subsets of any
(k+1)-set.

Every query goes through ``DeterministicOracle.query``, the one place a
queried set is normalised and validated; callers pass sets as built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    LatentOrder,
    PositionSelector,
    _check_query,
    evaluate,
    evaluate_many,
)
from .oracles import DeterministicOracle
from .sorting import insertion_sort, merge_sort

__all__ = [
    "InconsistentOracleError",
    "RecoveryStats",
    "RecoveredModel",
    "discard_pass",
    "discard_ineligible",
    "recover_choice_function",
    "predict",
    "predict_many",
    "classify_type",
]


class InconsistentOracleError(RuntimeError):
    """The oracle produced answers no position-selecting rule can produce."""


@dataclass(frozen=True)
class RecoveryStats:
    """Per-phase query counts for one recovery run.

    The phases issue their queries in the order discard, seed sort,
    position, classify, insertion; the position query is the first to
    depend on the selected position. sort_comparisons counts the seed
    sort and the insertion together, so total is every query the
    recovery issued.
    """

    discard_queries: int
    sort_comparisons: int
    position_queries: int
    classification_queries: int

    @property
    def total(self) -> int:
        return (
            self.discard_queries
            + self.sort_comparisons
            + self.position_queries
            + self.classification_queries
        )


@dataclass(frozen=True)
class RecoveredModel:
    """Everything needed to predict the choice on any k-set, no oracle access.

    eligible_order lists the n-k+1 eligible alternatives in the recovered
    embedding order (orientation arbitrary), position_hat is the selected
    position under that orientation, and the k-1 ineligible alternatives
    are split into the group below all eligibles (position_hat - 1 of
    them) and the group above (k - position_hat). Predictions are
    invariant under simultaneously reversing the order, swapping the two
    groups, and reflecting position_hat to k - position_hat + 1.
    """

    eligible_order: tuple
    position_hat: int
    top_ineligible: tuple
    bottom_ineligible: tuple
    stats: RecoveryStats | None = None

    @property
    def k(self) -> int:
        return 1 + len(self.top_ineligible) + len(self.bottom_ineligible)

    @property
    def n(self) -> int:
        return len(self.eligible_order) + self.k - 1

    @cached_property
    def _full_order(self) -> LatentOrder:
        return LatentOrder._trusted(
            list(self.bottom_ineligible)
            + list(self.eligible_order)
            + list(self.top_ineligible)
        )

    def full_order(self) -> LatentOrder:
        """Assembled universe order, built once per model; within-group
        order of ineligibles is immaterial because the selected position
        can never fall inside either extreme block."""
        return self._full_order


def discard_pass(n: int, k: int, choose) -> frozenset:
    """The n-k+1 rounds of a discard tournament over the ids [0, n).

    Each round asks choose for one member of the current k-set (a list),
    then discards that member and brings in a fresh id. A member that
    choose never picks is never discarded, so for a position selector the
    final set minus its choice is exactly the k-1 ineligible alternatives.
    An answer outside its set raises InconsistentOracleError.
    """
    if n < k + 1:
        raise ValueError(f"need n >= k+1, got n={n}, k={k}")
    current = list(range(k))
    for fresh in range(k, n + 1):  # after the last round, n stands in for a fresh id
        choice = choose(current)
        try:
            current.remove(choice)
        except ValueError:  # cheaper than a membership test in every round
            raise InconsistentOracleError(
                f"set {current} answered with a non-member: {choice}"
            ) from None
        current.append(fresh)
    return frozenset(current[:-1])


def discard_ineligible(oracle: DeterministicOracle) -> frozenset:
    """Find the k-1 never-chosen alternatives in exactly n-k+1 queries."""
    return discard_pass(oracle.n, oracle.k, oracle.query)


def recover_choice_function(oracle: DeterministicOracle) -> RecoveredModel:
    """Full recovery: after O(n log n) queries the returned model predicts
    the oracle's choice on every one of the C(n,k) k-sets. The phases are
    those of the module docstring."""
    n, k = oracle.n, oracle.k
    if n - k + 1 < k:
        raise ValueError(
            f"need n - k + 1 >= k eligible alternatives for the position "
            f"query, got n={n}, k={k}"
        )
    ineligible = discard_ineligible(oracle)
    padding = tuple(sorted(ineligible)[: k - 2])
    eligible = [x for x in range(n) if x not in ineligible]

    def less(u, v):
        # padded query acts as a binary comparison; assume winner = max
        winner = oracle.query((u, v) + padding)
        if winner not in (u, v):
            raise InconsistentOracleError(
                f"padded comparison {(u, v) + padding} answered with an anchor: {winner}"
            )
        return winner == v

    seed, seed_comparisons = merge_sort(eligible[:k], less)

    answer = oracle.query(seed)
    if answer not in seed:
        raise InconsistentOracleError("position query answered outside its set")
    position_hat = seed.index(answer) + 1

    low_block = seed[: k - 1]
    top, bottom = [], []
    for x in sorted(ineligible):
        answer = oracle.query([x] + low_block)
        if answer == x:
            # x itself selected: only possible at an extreme position
            side = bottom if position_hat == 1 else top
        elif position_hat >= 2 and answer == low_block[position_hat - 2]:
            side = bottom
        elif position_hat <= k - 1 and answer == low_block[position_hat - 1]:
            side = top
        else:
            raise InconsistentOracleError(
                f"classification query {[x] + low_block} answered {answer}, which matches "
                f"neither placement of {x}"
            )
        side.append(x)

    if len(bottom) != position_hat - 1 or len(top) != k - position_hat:
        raise InconsistentOracleError(
            f"ineligible split (bottom={len(bottom)}, top={len(top)}) is "
            f"impossible for position {position_hat} of {k}"
        )

    # x and placed eligibles p < q, padded with position_hat-2 bottom and
    # k-position_hat-1 top ineligibles, fill the ranks either side of the
    # selected one: the answer p, x or q puts x below, between or above
    middle_padding = tuple(bottom[: position_hat - 2]) + tuple(top[: k - position_hat - 1])

    # a compromise rule answers three ways; an extreme one only pairs
    ways = 3 if 2 <= position_hat <= k - 1 else 2
    eligible_order, insert_queries = insertion_sort(
        eligible[k:], oracle.query, ways, seed, padding, middle_padding,
        InconsistentOracleError,
    )

    stats = RecoveryStats(
        discard_queries=n - k + 1,
        sort_comparisons=seed_comparisons + insert_queries,
        position_queries=1,
        classification_queries=k - 1,
    )
    return RecoveredModel(
        eligible_order=tuple(eligible_order),
        position_hat=position_hat,
        top_ineligible=tuple(top),
        bottom_ineligible=tuple(bottom),
        stats=stats,
    )


def predict(model: RecoveredModel, s) -> int:
    """Model's choice for a k-set; pure lookup, no oracle access."""
    return evaluate(PositionSelector(model.k, model.position_hat), model.full_order(), s)


def predict_many(model: RecoveredModel, sets: np.ndarray) -> np.ndarray:
    """Vectorized predict over an (m, k) array of k-sets."""
    selector = PositionSelector(model.k, model.position_hat)
    return evaluate_many(selector, model.full_order(), sets)


def classify_type(oracle: DeterministicOracle, witness=None) -> int:
    """Recover the selected position, up to reflection, in exactly k+1 queries.

    Queries every k-subset of a (k+1)-set. Exactly two alternatives can
    ever be returned, with frequencies position and k-position+1; the
    smaller frequency is the canonical (reflection-free) position. For odd
    k with a centered selector both frequencies coincide and that shared
    value is returned.
    """
    k = oracle.k
    if witness is None:
        witness = tuple(range(k + 1))
    witness = _check_query(k + 1, oracle.n, witness)
    answers = Counter()
    for excluded in witness:
        answers[oracle.query([x for x in witness if x != excluded])] += 1
    if len(answers) != 2:
        raise InconsistentOracleError(
            f"expected exactly two distinct answers over the witness "
            f"subsets, saw {len(answers)}: {dict(answers)}"
        )
    return min(answers.values())
