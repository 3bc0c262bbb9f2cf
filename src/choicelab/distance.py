"""Distance-comparison-based choice rules over metric embeddings.

The median rule repeatedly removes the farthest-apart pair of a k-set
(k odd) and returns the survivor; the outlier rule returns the member
farthest from that survivor, which on triplets models similarity
aversion. On triplets every element choice corresponds to a choice of
the complementary pairwise distance, and sorting all C(n,2) distances
through a pair oracle takes O(N log N) comparisons. All rules need every
pairwise distance distinct (general position); constructors reject ties
rather than breaking them silently.

Alternatives are the dense ids [0, n) of core: point i is row i of one
(n, dim) array, and an id outside that range, or not an integer, raises
InvalidQueryError before any distance is read.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .core import InvalidQueryError, kset
from .sorting import merge_sort

__all__ = [
    "AmbiguousDistancesError",
    "InvalidArityError",
    "MetricPoints",
    "PairId",
    "pair_id",
    "median_choice",
    "outlier_choice",
    "farthest_pair_removal_is_exact",
    "triplet_distance_correspondence",
    "PairDistanceOracle",
    "crowd_median_sort",
    "feasibility_check",
]

PairId = tuple  # (i, j) with i < j, standing for the distance between i and j


class AmbiguousDistancesError(ValueError):
    """Two pairwise distances coincide; the removal rules are undefined."""


class InvalidArityError(ValueError):
    """A rule was applied to a set size it is not defined for."""


def pair_id(i: int, j: int) -> PairId:
    if i.__class__ is bool or j.__class__ is bool:  # as core.kset: never read as 0 and 1
        raise InvalidQueryError(f"pair ids must be integers, not bool: ({i}, {j})")
    try:
        i, j = operator.index(i), operator.index(j)
    except TypeError as exc:
        raise InvalidQueryError(f"pair ids must be integers: {exc}") from None
    if i == j:
        raise InvalidQueryError(f"a pair needs two distinct ids, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


@functools.lru_cache(maxsize=16)
def _pair_indices(n: int) -> tuple:
    """np.triu_indices(n, 1), read-only: the rows and the columns of the
    C(n, 2) pairs i < j. Built once per n, since a sweep builds many small
    point sets of one size and the build costs as much as the rest of a
    3-point MetricPoints."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


class MetricPoints:
    """Euclidean embedding of the alternatives [0, n), in general position.

    coords is an (n, dim) array-like whose row i is alternative i's point;
    a one-dimensional array holds n points on a line. Construction fails
    if a coordinate is not finite or any two pairwise distances agree
    within 1e-9; silent tie-breaking would mask failures of the removal
    rules.
    """

    TOLERANCE = 1e-9

    def __init__(self, coords):
        mat = np.array(coords, dtype=float)
        if mat.ndim == 1:
            mat = mat[:, None]
        if mat.ndim != 2 or not len(mat):
            raise ValueError("coordinates must be one or more vectors of a shared dimension")
        if not np.isfinite(mat).all():  # NaN distances pass the tie check vacuously
            raise ValueError("coordinates must be finite")
        self.coords = mat
        self.coords.setflags(write=False)
        self.n = len(mat)  # a plain attribute, read on every distance() call
        diffs = mat[:, None, :] - mat[None, :, :]
        dmat = np.sqrt((diffs**2).sum(axis=2))
        dists = np.sort(dmat[_pair_indices(self.n)])
        if np.min(np.diff(dists), initial=np.inf) <= self.TOLERANCE:
            raise AmbiguousDistancesError(
                "two pairwise distances coincide within 1e-9; points must "
                "be in general position"
            )
        self._rows = dmat.tolist()  # the same doubles, indexed without numpy's per-call cost

    @property
    def dim(self) -> int:
        return int(self.coords.shape[1])

    def distance(self, i: int, j: int) -> float:
        """The distance between alternatives i and j; an id that is not an
        integer in [0, n), bools included, raises InvalidQueryError."""
        n = self.n
        try:  # a float passes the range check and fails the list index
            if 0 <= i < n and 0 <= j < n and i.__class__ is not bool and j.__class__ is not bool:
                return self._rows[i][j]
        except TypeError:
            pass
        raise InvalidQueryError(f"ids must be integers in [0, {n}), got ({i!r}, {j!r})")

    def pair_distance(self, pair: PairId) -> float:
        return self.distance(pair[0], pair[1])


def _check_members(points: MetricPoints, s) -> tuple:
    """s as a k-set of ids in [0, points.n), checked as core._check_query
    checks a query of any size."""
    s = kset(s)
    if s and (s[0] < 0 or s[-1] >= points.n):
        raise InvalidQueryError(f"ids out of range [0, {points.n}): {s}")
    return s


def median_choice(points: MetricPoints, s) -> int:
    """Survivor of repeated farthest-pair removal; k must be odd.

    Equals the sum-of-distances minimizer for one-dimensional embeddings
    (any odd k) and for triplets (any dimension). For higher dimensions
    with k > 3 the same rule runs but is only a heuristic; see
    farthest_pair_removal_is_exact.
    """
    s = _check_members(points, s)
    if len(s) % 2 == 0:
        raise InvalidArityError(f"median rule needs odd set size, got {len(s)}")
    survivors = list(s)
    while len(survivors) > 1:
        far = max(
            itertools.combinations(survivors, 2),
            key=lambda p: points.distance(*p),
        )
        survivors = [x for x in survivors if x not in far]
    return survivors[0]


def outlier_choice(points: MetricPoints, s) -> int:
    """The member farthest from the median member; on triplets this is
    similarity aversion (two similar options lose to the dissimilar one).
    A set of fewer than 3 members has no outlier: InvalidArityError."""
    s = _check_members(points, s)
    if len(s) < 3:
        raise InvalidArityError(f"outlier rule needs at least 3 members, got {len(s)}")
    center = median_choice(points, s)
    return max((x for x in s if x != center), key=lambda x: points.distance(x, center))


def farthest_pair_removal_is_exact(k: int, dim: int) -> bool:
    """Whether the removal rule provably returns the sum-of-distances
    minimizer (k=3 in any dimension, or any odd k in one dimension);
    outside these cases the rule's output is heuristic."""
    return k == 3 or dim == 1


def sum_of_distances_minimizer(points: MetricPoints, s) -> int:
    """Brute-force reference: the member minimizing total distance to the rest."""
    s = _check_members(points, s)
    return min(s, key=lambda x: sum(points.distance(x, y) for y in s if y != x))


def triplet_distance_correspondence(s, chosen: int) -> PairId:
    """On a triplet, a choice of an element is a choice of the distance
    between the two others: the outlier corresponds to the shortest
    distance, the median element to the longest. Involutive."""
    s = kset(s)
    if len(s) != 3:
        raise InvalidQueryError(f"correspondence is defined on triplets, got {len(s)}")
    if chosen not in s:
        raise InvalidQueryError(f"chosen element {chosen} not in {s}")
    rest = tuple(x for x in s if x != chosen)
    return pair_id(*rest)


class PairDistanceOracle:
    """Answers one arity-2 comparison per call: which of two pairwise
    distances is larger. Only answered queries are counted; a rejected
    query raises InvalidQueryError and leaves query_count unchanged.
    """

    def __init__(self, points: MetricPoints):
        self.points = points
        self._count = 0

    @property
    def query_count(self) -> int:
        return self._count

    def larger(self, a: PairId, b: PairId) -> PairId:
        a, b = pair_id(*a), pair_id(*b)
        da, db = self.points.pair_distance(a), self.points.pair_distance(b)  # checks ids
        self._count += 1
        return a if da > db else b


def crowd_median_sort(pair_oracle: PairDistanceOracle):
    """Sort all C(n,2) pairs of the oracle's n points ascending by distance.

    Deterministic merge sort: O(N log N) oracle calls for N = C(n,2).
    """
    pairs = list(itertools.combinations(range(pair_oracle.points.n), 2))

    def less(a, b):
        return pair_oracle.larger(a, b) == b

    ordered, _ = merge_sort(pairs, less)
    return ordered


def feasibility_check(n: int) -> bool:
    """Whether exhaustive triplet queries supply fewer bits than sorting
    all pairwise distances requires: 2*C(n,3) < log2(C(n,2)!) - 1.

    log2(N!), N = C(n,2), is taken as lgamma(N + 1) / ln 2, in time
    independent of n; the exact factorial took minutes from n = 3000.
    The sides differ by 0.415 bit at n = 3 and by more at every larger n,
    far above the float rounding of either form.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    lhs = 2 * math.comb(n, 3)
    rhs = math.lgamma(math.comb(n, 2) + 1) / math.log(2) - 1
    return lhs < rhs
