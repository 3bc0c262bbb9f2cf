"""Universes, latent orders, k-sets, and position-selecting choice rules.

Everything here is ground truth shared by the oracles and by every test:
alternatives are dense integer ids in [0, n), a latent one-dimensional
embedding is kept only as a ranking (all choice rules in this package are
comparison-based, so real coordinates would carry no extra information),
and a choice rule is a (k, position) pair selecting the position-th
smallest member of each k-set.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

Alternative = int
KSet = tuple  # sorted tuple of distinct alternative ids


class InvalidQueryError(ValueError):
    """A query violating a size, membership, or arity contract."""


def kset(members: Iterable[int]) -> KSet:
    """Normalize an iterable of integer ids (Python or numpy) into a sorted,
    duplicate-free k-set. Non-integer ids are rejected, never truncated."""
    try:
        ids = sorted(map(operator.index, members))
    except TypeError as exc:
        raise InvalidQueryError(f"k-set ids must be integers: {exc}") from None
    if len(set(ids)) != len(ids):
        raise InvalidQueryError(f"duplicate ids in k-set: {ids}")
    return tuple(ids)


def all_ksets(n: int, k: int) -> np.ndarray:
    """Every k-subset of [0, n) as a (C(n,k), k) array of sorted rows, in
    lexicographic order."""
    total = math.comb(n, k)
    return np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), k)),
        dtype=np.int64,
        count=total * k,
    ).reshape(total, k)


@dataclass(frozen=True)
class PositionSelector:
    """Choice rule picking the position-th smallest member of a k-set.

    position counts from the minimum of the embedding: position=1 always
    selects minima, position=k always selects maxima, and intermediate
    positions model compromise behavior.
    """

    k: int
    position: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"set size k must be >= 2, got {self.k}")
        if not 1 <= self.position <= self.k:
            raise ValueError(
                f"position must lie in [1, {self.k}], got {self.position}"
            )


class LatentOrder:
    """A hidden embedding of the universe, stored as a ranking.

    Immutable. ``ascending[r]`` is the id whose embedding rank is r
    (rank 0 = minimum). Safe to share across threads. Scalar queries read
    ``n`` as a plain attribute (never reassign it) and index the rank
    lookup as a list, both faster than going through numpy.
    """

    __slots__ = ("_ascending", "_rank", "_rank_list", "n")

    def __init__(self, ascending: Sequence[int]):
        order = np.asarray(ascending)
        n = order.size
        if n == 0:
            raise ValueError("universe must be non-empty")
        if order.dtype.kind not in "iu":
            raise ValueError(f"ids must be integers, got dtype {order.dtype}")
        order = order.astype(np.int64, copy=False)
        counts = np.bincount(order, minlength=n) if order.min(initial=0) >= 0 else None
        if counts is None or counts.size != n or not (counts == 1).all():
            raise ValueError("ascending must be a permutation of [0, n)")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        self._ascending = order
        self._ascending.setflags(write=False)
        self._rank = rank
        self._rank.setflags(write=False)
        self._rank_list = rank.tolist()
        self.n = n

    @classmethod
    def identity(cls, n: int) -> "LatentOrder":
        return cls(np.arange(n))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "LatentOrder":
        return cls(rng.permutation(n))

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatentOrder":
        """Order induced by real-valued embedding coordinates (must be distinct)."""
        vals = np.asarray(values, dtype=float)
        if np.unique(vals).size != vals.size:
            raise ValueError("embedding values must be distinct")
        return cls(np.argsort(vals))

    @property
    def ascending(self) -> np.ndarray:
        """Ids in ascending embedding order (read-only view)."""
        return self._ascending

    def rank_of(self, alternative: int) -> int:
        return self._rank_list[alternative]

    def ranks(self, ids) -> np.ndarray:
        """Vectorized rank lookup."""
        return self._rank[np.asarray(ids, dtype=np.int64)]

    def id_at(self, rank: int) -> int:
        return int(self._ascending[rank])

    def reversed(self) -> "LatentOrder":
        return LatentOrder(self._ascending[::-1])

    def __eq__(self, other) -> bool:
        return isinstance(other, LatentOrder) and np.array_equal(
            self._ascending, other._ascending
        )

    def __hash__(self) -> int:
        return hash(self._ascending.tobytes())

    def __repr__(self) -> str:
        ids = self._ascending.tolist()
        shown = ids if len(ids) <= 12 else ids[:12] + ["..."]
        return f"LatentOrder({shown})"

    def to_json(self) -> str:
        """JSON array of ids in ascending embedding order."""
        return json.dumps(self._ascending.tolist())

    @classmethod
    def from_json(cls, text: str) -> "LatentOrder":
        return cls(json.loads(text))


def _check_query(k: int, n: int, s) -> KSet:
    """The validation every scalar query makes: s as a k-set over [0, n)."""
    s = kset(s)
    if len(s) != k:
        raise InvalidQueryError(f"query has {len(s)} members, expected k={k}")
    if s[0] < 0 or s[-1] >= n:
        raise InvalidQueryError(f"ids out of range [0, {n}): {s}")
    return s


def _check_sets(k: int, n: int, sets) -> np.ndarray:
    """The validation every vectorized query makes: sets as an (m, k) int64
    array of rows with k distinct ids in [0, n). Ids of any non-integer
    dtype are rejected, never truncated."""
    sets = np.asarray(sets)
    if sets.size and sets.dtype.kind not in "iu":
        raise InvalidQueryError(f"k-set ids must be integers, got dtype {sets.dtype}")
    sets = sets.astype(np.int64, copy=False)
    if sets.ndim != 2 or sets.shape[1] != k:
        raise InvalidQueryError(f"expected (m, {k}) array of k-sets, got shape {sets.shape}")
    if sets.size and (sets.min() < 0 or sets.max() >= n):
        raise InvalidQueryError(f"ids out of range [0, {n})")
    # one column pair at a time: no sort, which passive scoring's 1.6M rows would pay
    for left, right in itertools.combinations([sets[:, a] for a in range(k)], 2):
        same = left == right
        if np.count_nonzero(same):
            raise InvalidQueryError(f"duplicate ids in k-set: {sets[same.argmax()].tolist()}")
    return sets


def evaluate(selector: PositionSelector, order: LatentOrder, s) -> Alternative:
    """Ground-truth choice: the member of s at the selector's position.

    Deterministic; always returns a member of s.
    """
    s = _check_query(selector.k, order.n, s)
    return sorted(s, key=order._rank_list.__getitem__)[selector.position - 1]


def evaluate_many(
    selector: PositionSelector, order: LatentOrder, sets: np.ndarray
) -> np.ndarray:
    """Vectorized evaluate over an (m, k) array of k-sets."""
    return _select_many(selector.position, order, _check_sets(selector.k, order.n, sets))


def _select_many(position: int, order: LatentOrder, sets: np.ndarray) -> np.ndarray:
    """The position-th smallest member of each row of sets, which must
    already have passed _check_sets.

    Sort-free: a compare-exchange network over the k rank columns. Pass i
    moves the i-th smallest rank into column i and the larger ones right;
    the last pass only takes a minimum. From above the middle the same
    passes run on maxima. Past three passes the network's O(passes * k)
    array operations cost more than one np.partition of the rank rows.
    """
    passes = min(position, sets.shape[1] - position + 1)
    if passes > 3:
        ranks = np.partition(order._rank[sets], position - 1, axis=1)
        return order.ascending[ranks[:, position - 1]]
    rows = list(order._rank[sets.T])  # k contiguous rank columns
    k = len(rows)
    keep, drop = (np.minimum, np.maximum) if passes == position else (np.maximum, np.minimum)
    spare = np.empty_like(rows[0])
    for i in range(passes - 1):
        for j in range(i + 1, k - 1):
            keep(rows[i], rows[j], out=spare)
            drop(rows[i], rows[j], out=rows[j])
            rows[i], spare = spare, rows[i]
        drop(rows[i], rows[k - 1], out=rows[k - 1])  # column i is not read again
    chosen = rows[passes - 1]
    for j in range(passes, k):
        keep(chosen, rows[j], out=chosen)
    return order.ascending[chosen]


def ineligible_set(selector: PositionSelector, order: LatentOrder) -> frozenset:
    """The k-1 alternatives no k-set query can ever return.

    These are the position-1 globally minimal and k-position globally
    maximal alternatives: the former never have enough of the universe
    below them, the latter never enough above.
    """
    if order.n < selector.k:
        raise ValueError(f"universe size {order.n} smaller than k={selector.k}")
    low = selector.position - 1
    high = selector.k - selector.position
    asc = order.ascending
    bottom = asc[:low].tolist()
    top = asc[order.n - high :].tolist() if high else []
    return frozenset(bottom) | frozenset(top)


def canonical_position(selector: PositionSelector) -> int:
    """Reflection-equivalence representative: min(position, k-position+1)."""
    return min(selector.position, selector.k - selector.position + 1)


def exhibits_choice_set_effects(selector: PositionSelector) -> bool:
    """True iff the rule can flip a pairwise choice across contexts (2 <= position <= k-1)."""
    return 2 <= selector.position <= selector.k - 1
