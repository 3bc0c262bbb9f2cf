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
import numbers
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
    duplicate-free k-set. Non-integer ids, bools included, are rejected,
    never truncated or read as 0 and 1."""
    try:
        members = list(members)
        ids = sorted(map(operator.index, members))
    except TypeError as exc:
        raise InvalidQueryError(f"k-set ids must be integers: {exc}") from None
    if bool in map(type, members):
        raise InvalidQueryError(f"k-set ids must be integers, not bool: {members}")
    if len(set(ids)) != len(ids):
        raise InvalidQueryError(f"duplicate ids in k-set: {ids}")
    return tuple(ids)


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
        if not _is_integer(self.k):
            raise ValueError(f"set size k must be an integer, got {self.k!r}")
        if self.k < 2:
            raise ValueError(f"set size k must be >= 2, got {self.k}")
        _check_position(self.k, self.position)


def _is_integer(x) -> bool:
    """Whether x is an integer of any integer type (Python or numpy); a
    bool is not one, and no float is read as the integer it equals."""
    return x.__class__ is not bool and isinstance(x, numbers.Integral)


def _check_id(n: int, x) -> int:
    """x as an int in [0, n) for a scalar lookup; a bool, a float or a
    negative x raises InvalidQueryError, never read as another id."""
    if not (_is_integer(x) and 0 <= x < n):
        raise InvalidQueryError(f"expected an integer in [0, {n}), got {x!r}")
    return int(x)


def _check_position(k: int, position, error: type = ValueError) -> None:
    """Raise error unless position is an integer in [1, k]."""
    if not (_is_integer(position) and 1 <= position <= k):
        raise error(f"position must lie in [1, {k}], got {position!r}")


class LatentOrder:
    """A hidden embedding of the universe, stored as a ranking.

    Immutable. ``ascending[r]`` is the id whose embedding rank is r
    (rank 0 = minimum). Safe to share across threads. Scalar queries read
    ``n`` as a plain attribute (never reassign it) and index the rank
    lookup as a list, both faster than going through numpy.

    The constructor checks that ascending is a permutation of [0, n) and
    builds through _trusted, the one place the fields are filled, from a
    copy, so the caller's array stays its own and writable. Orders
    that are permutations by construction (random, reversed, a recovered
    model's full order, recover_mixed's assembled order, the passive score
    order) are built with _trusted directly and skip the check.
    """

    __slots__ = ("_ascending", "_rank", "_rank_list", "n")

    def __init__(self, ascending: Sequence[int]):
        order = np.array(ascending)  # a copy: _trusted freezes what it is given
        n = order.size
        if n == 0:
            raise ValueError("universe must be non-empty")
        if order.dtype.kind not in "iu":
            raise ValueError(f"ids must be integers, got dtype {order.dtype}")
        order = order.astype(np.int64, copy=False)
        counts = np.bincount(order, minlength=n) if order.min(initial=0) >= 0 else None
        if counts is None or counts.size != n or not (counts == 1).all():
            raise ValueError("ascending must be a permutation of [0, n)")
        built = self._trusted(order)
        self._ascending, self._rank, self._rank_list, self.n = (
            built._ascending, built._rank, built._rank_list, built.n
        )

    @classmethod
    def _trusted(cls, ascending) -> "LatentOrder":
        """An order over ascending, ids known to be a permutation of [0, n),
        built with no check: a list of ints, or an int64 array that the
        order then owns and marks read-only."""
        ascending = np.asarray(ascending, dtype=np.int64)
        n = len(ascending)
        rank = np.empty(n, dtype=np.int64)
        rank[ascending] = np.arange(n)
        ascending.setflags(write=False)
        rank.setflags(write=False)
        order = cls.__new__(cls)
        order._ascending, order._rank, order._rank_list, order.n = ascending, rank, rank.tolist(), n
        return order

    @classmethod
    def identity(cls, n: int) -> "LatentOrder":
        return cls(np.arange(n))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "LatentOrder":
        """A uniformly random order of [0, n). A positive int n gives a
        permutation by construction; any other n is checked as the
        constructor checks it."""
        ascending = rng.permutation(n)
        return cls._trusted(ascending) if n.__class__ is int and n > 0 else cls(ascending)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatentOrder":
        """Order induced by real-valued embedding coordinates (distinct, none NaN)."""
        vals = np.asarray(values, dtype=float)
        if np.isnan(vals).any():
            raise ValueError("embedding values must not be NaN")
        if np.unique(vals).size != vals.size:
            raise ValueError("embedding values must be distinct")
        return cls(np.argsort(vals))

    @property
    def ascending(self) -> np.ndarray:
        """Ids in ascending embedding order (read-only view)."""
        return self._ascending

    def rank_of(self, alternative: int) -> int:
        return self._rank_list[_check_id(self.n, alternative)]

    def ranks(self, ids) -> np.ndarray:
        """Vectorized rank lookup over ids of any shape: integers in [0, n),
        as _check_sets takes them, or InvalidQueryError."""
        array = np.asarray(ids)
        if array.size and (
            array.dtype.kind not in "iu" or array.min() < 0 or array.max() >= self.n
            or _holds_bool(ids)
        ):
            raise InvalidQueryError(f"ids must be integers in [0, {self.n})")
        return self._rank[array.astype(np.int64, copy=False)]

    def id_at(self, rank: int) -> int:
        return int(self._ascending[_check_id(self.n, rank)])

    def reversed(self) -> "LatentOrder":
        return LatentOrder._trusted(self._ascending[::-1])

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


def _check_query(k: int, n: int, s) -> KSet:
    """The validation every scalar query makes: s as a k-set over [0, n).

    A query ranked by _ranked takes one of its kernels when well formed
    (at k=3 a tuple, list or array; at any other k a tuple or list of
    exact ints), which makes the same checks and sends everything else
    here."""
    s = kset(s)
    if len(s) != k:
        raise InvalidQueryError(f"query has {len(s)} members, expected k={k}")
    if s and (s[0] < 0 or s[-1] >= n):
        raise InvalidQueryError(f"ids out of range [0, {n}): {s}")
    return s


def _holds_bool(ids) -> bool:
    """Whether non-array input holds a bool (Python or numpy) anywhere:
    np.asarray reads [True, 2] as the integer ids [1, 2]. An ndarray is
    judged by its dtype alone, so this costs it nothing."""
    if isinstance(ids, np.ndarray):
        return False
    return any(
        x.__class__ is bool or x.__class__ is np.bool_
        for x in np.asarray(ids, dtype=object).flat
    )


def _check_sets(k: int, n: int, sets) -> np.ndarray:
    """The validation every vectorized query makes: sets as an (m, k) int64
    array of rows with k distinct ids in [0, n). Ids of any non-integer
    dtype are rejected, never truncated, and so is a bool inside list input."""
    array = np.asarray(sets)
    if array.size and array.dtype.kind not in "iu":
        raise InvalidQueryError(f"k-set ids must be integers, got dtype {array.dtype}")
    if _holds_bool(sets):
        raise InvalidQueryError(f"k-set ids must be integers, not bool: {sets}")
    sets = array.astype(np.int64, copy=False)
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
    return _ranked(selector.k, order, s)[selector.position - 1]


# The classes of a well-formed id collection at _ranked's any-k kernel.
_INT_ONLY = {int}


def _ranked(k: int, order: LatentOrder, s) -> tuple:
    """The members of s in ascending rank order, checked as
    _check_query(k, order.n, s) checks them: the one scalar ranking path.

    Two kernels take well-formed queries. At k=3 a tuple, list or array of
    three distinct integer ids (Python or numpy, never bool) in [0, n) is
    ranked by at most three compare-exchanges (Knuth, TAOCP vol. 3, 5.3.3),
    with no sort, set or list built. An exact tuple skips the container
    type test, and three exact ints skip the bool test and the
    operator.index conversion (an exact int is never a bool). At any
    other k an exact tuple or list of k exact ints is checked with
    builtins (its length, the class of every id, min and max against
    [0, n), distinctness through a set) and ranked by one rank-keyed sort.
    Anything else (numpy ids or an int subclass at k != 3, a malformed
    query, or an iterator, which unpacking would spend) takes the general
    path, which raises the same InvalidQueryError for every fault.
    """
    n, ranks = order.n, order._rank_list
    if k == 3 and (s.__class__ is tuple or isinstance(s, (tuple, list, np.ndarray))):
        try:
            a, b, c = s
            valid = True
            if a.__class__ is not int or b.__class__ is not int or c.__class__ is not int:
                valid = bool not in (a.__class__, b.__class__, c.__class__)
                a, b, c = operator.index(a), operator.index(b), operator.index(c)
        except (TypeError, ValueError):
            valid = False
        if valid and a != b and b != c and a != c and 0 <= a < n and 0 <= b < n and 0 <= c < n:
            ra, rb, rc = ranks[a], ranks[b], ranks[c]
            if ra > rb:
                a, b, ra, rb = b, a, rb, ra
            if rb > rc:
                b, c, rb = c, b, rc
                if ra > rb:
                    a, b = b, a
            return a, b, c
    elif s.__class__ is tuple or s.__class__ is list:
        # the class test comes first: min and max may compare only ints
        if (
            len(s) == k and set(map(type, s)) == _INT_ONLY
            and 0 <= min(s) and max(s) < n and len(set(s)) == k
        ):
            return tuple(sorted(s, key=ranks.__getitem__))
    return tuple(sorted(_check_query(k, n, s), key=ranks.__getitem__))


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
    passes run on maxima.
    """
    passes = min(position, sets.shape[1] - position + 1)
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
