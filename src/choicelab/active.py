"""Active-query inference against a deterministic position-selecting oracle.

Two-phase recovery: a discard pass finds the k-1 never-chosen
alternatives in exactly n-k+1 queries, then padding a pair of eligible
alternatives with k-2 of them turns each query into a binary comparison,
so a counting merge sort orders the eligibles in O(n log n) queries. One
further query on the lowest k eligibles reads off the selected position,
and one query per ineligible alternative places it above or below the
eligible block. Also provides the O(k) type classifier that recovers the
position (up to reflection) from the k+1 subsets of any (k+1)-set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections import Counter

import numpy as np

from .core import (
    InvalidQueryError,
    LatentOrder,
    PositionSelector,
    evaluate,
    evaluate_many,
    kset,
)
from .oracles import DeterministicOracle
from .sorting import merge_sort

__all__ = [
    "InconsistentOracleError",
    "RecoveryStats",
    "RecoveredModel",
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
    """Per-phase query accounting for one recovery run.

    trace lists (phase, queried set) in issue order; the position query is
    the first point at which the algorithm depends on the selected
    position, which the tests assert.
    """

    discard_queries: int
    sort_comparisons: int
    position_queries: int
    classification_queries: int
    trace: tuple = field(repr=False, default=())

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

    def full_order(self) -> LatentOrder:
        """Assembled universe order; within-group order of ineligibles is
        immaterial because the selected position can never fall inside
        either extreme block."""
        return LatentOrder(
            list(self.bottom_ineligible)
            + list(self.eligible_order)
            + list(self.top_ineligible)
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "order": list(self.eligible_order),
                "ell": self.position_hat,
                "top": list(self.top_ineligible),
                "bottom": list(self.bottom_ineligible),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "RecoveredModel":
        d = json.loads(text)
        return cls(
            eligible_order=tuple(d["order"]),
            position_hat=int(d["ell"]),
            top_ineligible=tuple(d["top"]),
            bottom_ineligible=tuple(d["bottom"]),
        )


def discard_ineligible(oracle: DeterministicOracle, _trace=None) -> frozenset:
    """Find the k-1 never-chosen alternatives in exactly n-k+1 queries.

    Each round discards the round's choice and brings in a fresh
    alternative; never-chosen alternatives are never discarded, so the
    final set minus its choice is exactly the ineligible set.
    """
    n, k = oracle.n, oracle.k
    if n < k + 1:
        raise ValueError(f"need n >= k+1, got n={n}, k={k}")
    current = list(range(k))
    choice = None
    for fresh in range(k, n + 1):
        s = kset(current)
        choice = oracle.query(s)
        if _trace is not None:
            _trace.append(("discard", s))
        if fresh < n:
            current.remove(choice)
            current.append(fresh)
    return frozenset(x for x in current if x != choice)


def recover_choice_function(oracle: DeterministicOracle) -> RecoveredModel:
    """Full recovery: after O(n log n) queries the returned model predicts
    the oracle's choice on every one of the C(n,k) k-sets."""
    n, k = oracle.n, oracle.k
    if n - k + 1 < k:
        raise ValueError(
            f"need n - k + 1 >= k eligible alternatives for the position "
            f"query, got n={n}, k={k}"
        )
    trace: list = []

    ineligible = discard_ineligible(oracle, _trace=trace)
    discard_queries = n - k + 1
    padding = tuple(sorted(ineligible)[: k - 2])
    eligible = [x for x in range(n) if x not in ineligible]

    def less(u, v):
        # padded query acts as a binary comparison; assume winner = max
        s = kset((u, v) + padding)
        winner = oracle.query(s)
        trace.append(("sort", s))
        if winner not in (u, v):
            raise InconsistentOracleError(
                f"padded comparison {s} answered with an anchor: {winner}"
            )
        return winner == v

    eligible_order, sort_comparisons = merge_sort(eligible, less)

    first_k = kset(eligible_order[:k])
    answer = oracle.query(first_k)
    trace.append(("position", first_k))
    if answer not in eligible_order[:k]:
        raise InconsistentOracleError("position query answered outside its set")
    position_hat = eligible_order[:k].index(answer) + 1

    low_block = eligible_order[: k - 1]
    top, bottom = [], []
    for x in sorted(ineligible):
        s = kset([x] + low_block)
        answer = oracle.query(s)
        trace.append(("classify", s))
        if answer == x:
            # x itself selected: only possible at an extreme position
            side = bottom if position_hat == 1 else top
        elif position_hat >= 2 and answer == low_block[position_hat - 2]:
            side = bottom
        elif position_hat <= k - 1 and answer == low_block[position_hat - 1]:
            side = top
        else:
            raise InconsistentOracleError(
                f"classification query {s} answered {answer}, which matches "
                f"neither placement of {x}"
            )
        side.append(x)

    if len(bottom) != position_hat - 1 or len(top) != k - position_hat:
        raise InconsistentOracleError(
            f"ineligible split (bottom={len(bottom)}, top={len(top)}) is "
            f"impossible for position {position_hat} of {k}"
        )

    stats = RecoveryStats(
        discard_queries=discard_queries,
        sort_comparisons=sort_comparisons,
        position_queries=1,
        classification_queries=k - 1,
        trace=tuple(trace),
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
    witness = kset(witness)
    if len(witness) != k + 1:
        raise InvalidQueryError(
            f"witness must have k+1={k + 1} distinct members, got {len(witness)}"
        )
    answers = Counter()
    for excluded in witness:
        s = kset(x for x in witness if x != excluded)
        answers[oracle.query(s)] += 1
    if len(answers) != 2:
        raise InconsistentOracleError(
            f"expected exactly two distinct answers over the witness "
            f"subsets, saw {len(answers)}: {dict(answers)}"
        )
    return min(answers.values())
