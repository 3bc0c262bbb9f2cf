"""Universes, latent orders, k-sets, and position-selecting choice rules.

Everything here is ground truth shared by the oracles and by every test:
alternatives are dense integer ids in [0, n), a latent one-dimensional
embedding is kept only as a ranking (all choice rules in this package are
comparison-based, so real coordinates would carry no extra information),
and a choice rule is a (k, position) pair selecting the position-th
smallest member of each k-set.

One rule decides what counts as an integer, for every scalar id, position
and count in the package: _is_integer, any numbers.Integral that is not a
bool. Python and numpy ints and IntEnum members pass; a bool, a float
(even 2.0), a string, a 0-d array and an object that defines only
__index__ are refused, never read as the integer they stand for. Hot
paths test for an exact int first and call the rule only for other
classes. Its array half, _check_ids, judges every array a caller hands
in: an ndarray by its dtype, any other input, such as a list, element by
element with _is_integer, so a bool in a list is refused as it is alone.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

Alternative = int
KSet = tuple  # sorted tuple of distinct alternative ids

# The most ids a universe holds. numpy's permutation sizes its range
# through a float64, which holds every integer only up to 2^53, so a
# permutation of 2^53 + 1 has 2^53 entries; an int64 array of 2^53 ids
# also fills the 64 PiB a 64-bit process can address.
MAX_IDS = 2**53


class InvalidQueryError(ValueError):
    """A query violating a size, membership, or arity contract."""


def kset(members: Iterable[int]) -> KSet:
    """Normalize an iterable of integer ids (Python or numpy) into a sorted,
    duplicate-free k-set of ints. An id that _is_integer refuses, a bool
    included, raises InvalidQueryError, never truncated or read as 0 and 1."""
    try:
        members = list(members)
    except TypeError as exc:
        raise InvalidQueryError(f"k-set ids must be integers: {exc}") from None
    if not all(map(_is_integer, members)):
        raise InvalidQueryError(f"k-set ids must be integers, got {members}")
    ids = sorted(map(int, members))
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
    bool is not one, and no float is read as the integer it equals. An
    exact int skips the numbers.Integral test, which costs tens of times more."""
    return x.__class__ is int or x.__class__ is not bool and isinstance(x, numbers.Integral)


def _is_real(x) -> bool:
    """Whether x is a real number (Python or numpy): an integer by
    _is_integer, so never a bool, or a real of no integer type."""
    return _is_integer(x) if isinstance(x, numbers.Integral) else isinstance(x, numbers.Real)


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

    The constructor checks its ids with _check_ids and that they make a
    permutation of [0, n) (or ValueError), and builds through _trusted,
    the one place the fields are filled, from a copy, so the caller's
    array stays its own and writable. Orders that are permutations by
    construction (random, reversed, a recovered model's full order,
    recover_mixed's assembled order, the passive score order) are built
    with _trusted directly and skip the check.
    """

    __slots__ = ("_ascending", "_rank", "_rank_list", "n")

    def __init__(self, ascending: Sequence[int]):
        shape = np.shape(ascending)
        if len(shape) != 1:
            raise ValueError(f"ascending must be one-dimensional, got shape {shape}")
        n = shape[0]
        if n == 0:
            raise ValueError("universe must be non-empty")
        order = np.array(_check_ids(ascending, n))  # a copy: _trusted freezes what it is given
        if not (np.bincount(order, minlength=n) == 1).all():
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
        """A uniformly random order of [0, n). A positive int n up to
        MAX_IDS gives a permutation by construction; an integer n past it
        raises ValueError, since numpy would draw a permutation of another
        size (empty past 2^63); any other n is checked as the constructor
        checks it."""
        if n.__class__ is int and 0 < n <= MAX_IDS:
            return cls._trusted(rng.permutation(n))
        if _is_integer(n) and n > MAX_IDS:
            raise ValueError(f"universe size {n} exceeds the {MAX_IDS} ids of a universe")
        return cls(rng.permutation(n))

    @property
    def ascending(self) -> np.ndarray:
        """Ids in ascending embedding order (read-only view)."""
        return self._ascending

    def rank_of(self, alternative: int) -> int:
        return self._rank_list[_check_id(self.n, alternative)]

    def ranks(self, ids) -> np.ndarray:
        """Vectorized rank lookup over ids of any shape, judged by _check_ids:
        integers in [0, n), or InvalidQueryError."""
        return self._rank[_check_ids(ids, self.n)]

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


def _check_ids(values, high: int, what: str = "ids") -> np.ndarray:
    """values as an int64 array of its own shape, the caller's own if it is
    one, whose entries are integers in [0, high), or InvalidQueryError.
    An ndarray is judged by its dtype, and an empty one holds nothing to
    refuse; other input, element by element with _is_integer, so a bool,
    a 0-d array or a ragged row in a list is never read as an id."""
    if isinstance(values, np.ndarray):
        array = values
        valid = not array.size or (
            array.dtype.kind in "iu" and array.min() >= 0 and array.max() < high
        )
    else:
        array = np.asarray(values, dtype=object)
        valid = all(_is_integer(x) and 0 <= x < high for x in array.flat)
    if not valid:
        raise InvalidQueryError(f"{what} must be integers in [0, {high})")
    return array.astype(np.int64, copy=False)


def _check_sets(k: int, n: int, sets) -> np.ndarray:
    """The validation every vectorized query makes: sets as an (m, k) int64
    array of rows with k distinct ids in [0, n), the ids judged by
    _check_ids."""
    sets = _check_ids(sets, n, "k-set ids")
    if sets.ndim != 2 or sets.shape[1] != k:
        raise InvalidQueryError(f"expected (m, {k}) array of k-sets, got shape {sets.shape}")
    _check_distinct(sets)
    return sets


def _check_distinct(sets: np.ndarray) -> None:
    """InvalidQueryError unless every row of the 2-d array sets holds
    distinct ids."""
    # one column pair at a time: no sort, which passive scoring's 1.6M rows would pay
    for left, right in itertools.combinations(sets.T, 2):
        same = left == right
        if np.count_nonzero(same):
            raise InvalidQueryError(f"duplicate ids in k-set: {sets[same.argmax()].tolist()}")


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
    type test, and three exact ints skip _is_integer and the int()
    conversion that other integer classes take. At any
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
                valid = _is_integer(a) and _is_integer(b) and _is_integer(c)
                if valid:
                    a, b, c = int(a), int(b), int(c)
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
