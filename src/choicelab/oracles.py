"""Query-answering simulators with query accounting, plus the passive-stream sampler.

These are the only components with access to ground truth. Oracles own a
seedable numpy PCG64 generator and a query counter; rejected queries are
not counted. A scalar query is ranked by core._ranked, which
DeterministicOracle.query calls directly: it checks the set as
core._check_query does, and its kernels make the same checks and raise
the same errors, ordering three ids in at most three compare-exchanges
at k=3 and an exact tuple or list of ints by one keyed sort at any other
k. Batched entry points (query_many,
query_repeated, query_until) draw the same distributions as the
equivalent sequential query() loops with exact query accounting, which
keeps the Monte Carlo acceptance runs in the minutes range.

The mixed oracle's repeated queries draw counts, not answers:
query_repeated draws how often each member is chosen as one multinomial
variate, and query_until draws its raw query total, the sum of count
geometric retry lengths, as one negative-binomial variate and the wins
of the first pair member as one binomial variate. Each returns those
counts as an AnswerCounts, the multiset of answers held as its members
and their counts: len() is the number of answers and count(x) how many
of them are x, and no answer array is ever built, so a call costs the
same at every count. The pair's probabilities are Python floats, so each
call does its scalar arithmetic without numpy's per-call wrapping, on
the same IEEE doubles.

The passive-stream sampler realizes a phase as Bernoulli inclusion of
each of the C(n,k) k-sets. It draws the included colex ranks as running
sums of Geometric(p) gaps, so they come out ascending with no sort, in
time and memory linear in the sets drawn, at every p. Given the k-2
anchors that phase 2 is read through, the sampler draws only the
C(n-k+2, 2) sets that hold every anchor, as pairs of the other ids, and
the count of all other sets as one binomial: about 1.5% of the 1.18M
records of a phase 2 at n=200, b=8, equal in law to the anchored rows of
a full phase. Phase 1 is read only through how often each id is chosen,
and the sampler can draw just that: counts_only draws each id's choice
count as one binomial over the revealing_counts sets that select it,
with no set drawn, unranked or answered. That is equal in law to
counting a full phase's choices, not the same draw.

Every k-set row in the package comes from one decoder, unrank_combinations,
which maps colex ranks to sets through the combinatorial number system
(Knuth, TAOCP 4A, 7.2.1.3): one search per row at each level above the
pairs, and a closed form at the pair level, where every k >= 2 ends. all_ksets
unranks the whole rank range, so it enumerates in colex order. The decoder
builds its rows column by column and returns them as a column-major (m, k)
view, so every per-column pass downstream reads contiguous memory.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    InvalidQueryError,
    LatentOrder,
    PositionSelector,
    _check_position,
    _check_query,
    _check_sets,
    _holds_bool,
    _is_integer,
    _ranked,
    evaluate_many,
)

__all__ = [
    "AnswerCounts",
    "DeterministicOracle",
    "MixtureDistribution",
    "MixedOracle",
    "StreamConfig",
    "ObservationBatch",
    "sample_phase",
    "revealing_counts",
    "unrank_combinations",
    "all_ksets",
]


class DeterministicOracle:
    """Answers every k-set query with one fixed position selector over one fixed order.

    A query is two Python calls: query itself and core._ranked, which
    validates the set and ranks its members. query reads k and the 0-based
    selected position from slots filled at construction, with no
    core.evaluate hop in between; the selector is read-only, so they cannot
    come to disagree with it. A rejected query is not counted.
    """

    __slots__ = ("_selector", "order", "_count", "_k", "_index")

    def __init__(self, selector: PositionSelector, order: LatentOrder):
        if order.n < selector.k:
            raise ValueError("universe smaller than k")
        self._selector = selector
        self._k, self._index = selector.k, selector.position - 1
        self.order = order
        self._count = 0

    @property
    def selector(self) -> PositionSelector:
        return self._selector

    @property
    def n(self) -> int:
        return self.order.n

    @property
    def k(self) -> int:
        return self._k

    @property
    def query_count(self) -> int:
        return self._count

    def query(self, s) -> int:
        answer = _ranked(self._k, self.order, s)[self._index]  # validates before counting
        self._count += 1
        return answer

    def query_many(self, sets: np.ndarray) -> np.ndarray:
        """Answer an (m, k) array of k-sets; counts m queries."""
        answers = evaluate_many(self.selector, self.order, sets)
        self._count += len(answers)
        return answers


class MixtureDistribution:
    """Position-selection probabilities pi_1..pi_k with separation parameter gamma.

    The constructor normalizes sums within 1e-12 of 1 and rejects anything
    farther off; every coordinate must be strictly positive and every pair
    of coordinates must differ by more than gamma.
    """

    SUM_TOLERANCE = 1e-12

    def __init__(self, probs: Sequence[float], gamma: float):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("need at least two position probabilities")
        total = float(p.sum())
        if abs(total - 1.0) > self.SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total}, not 1 within 1e-12")
        p = p / total
        if not (p > 0).all():
            raise ValueError("every position probability must be strictly positive")
        if not 0 < gamma < 1:
            raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
        limit = feasible_gamma(p)
        if not gamma < limit:
            raise ValueError(
                f"pi is not gamma-separated at gamma={gamma}; largest "
                f"feasible gamma is {limit:.6g} (exclusive)"
            )
        self.probs = tuple(float(x) for x in p)
        self.gamma = float(gamma)

    @property
    def k(self) -> int:
        return len(self.probs)

    def __repr__(self) -> str:
        return f"MixtureDistribution({list(self.probs)}, gamma={self.gamma})"


def feasible_gamma(probs: Sequence[float]) -> float:
    """Largest separation parameter the vector could satisfy (exclusive bound)."""
    return float(np.diff(np.sort(np.asarray(probs, dtype=float))).min())


class AnswerCounts:
    """The answers to a run of repeated queries, held as counts: a multiset.

    members and counts are parallel tuples of ints, counts[i] being how
    often members[i] was the answer. len() is the number of answers, the
    sum of the counts, and count(x) how many of them are x (0 for an id
    that is not a member). Only the counts are random; read the answers
    through count(), never through the order of members. Both attributes
    are read-only, and two AnswerCounts are equal when their members and
    counts are. The oracle builds one per call, so it is a slotted class
    with plain assignments, not a frozen dataclass, whose guarded
    assignments cost about as much as the rest of the call's checks.
    """

    __slots__ = ("_members", "_counts")

    def __init__(self, members: tuple, counts: tuple):
        self._members = members
        self._counts = counts

    @property
    def members(self) -> tuple:
        return self._members

    @property
    def counts(self) -> tuple:
        return self._counts

    def count(self, member) -> int:
        """How many of the answers are member."""
        try:
            return self._counts[self._members.index(member)]
        except ValueError:
            return 0

    def __len__(self) -> int:
        return sum(self._counts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._members == other._members and self._counts == other._counts

    def __hash__(self) -> int:
        return hash((self._members, self._counts))

    def __repr__(self) -> str:
        return f"AnswerCounts(members={self._members!r}, counts={self._counts!r})"


class MixedOracle:
    """Population-mixture oracle: each query independently selects position
    ell with probability pi_ell and returns that member of the queried set.
    """

    def __init__(self, order: LatentOrder, mixture: MixtureDistribution, seed):
        if order.n < mixture.k:
            raise ValueError("universe smaller than k")
        self.order = order
        self.mixture = mixture
        self.k = mixture.k  # read on every query; a property would cost a call
        self._rng = np.random.default_rng(seed)
        self._probs = np.asarray(mixture.probs)
        self._prob_list = self._probs.tolist()  # the same doubles, no numpy scalar costs
        # query_until's largest count: c + 10 sqrt(c) = p * _POISSON_LAM_MAX
        # at the least pair mass p
        least = sum(sorted(self._prob_list)[:2])
        self._count_limit = int((math.sqrt(25 + least * _POISSON_LAM_MAX) - 5) ** 2)
        self._count = 0

    @property
    def n(self) -> int:
        return self.order.n

    @property
    def query_count(self) -> int:
        return self._count

    def query(self, s) -> int:
        answers = self.query_repeated(s, 1)
        return answers.members[answers.counts.index(1)]

    def query_repeated(self, s, count: int) -> AnswerCounts:
        """count independent answers to the same set; counts count queries.

        Returns them as an AnswerCounts over the set's members in rank
        order: how often each member is chosen is one multinomial variate
        over pi, and len() is count.
        """
        members = _ranked(self.k, self.order, s)
        count = _check_count(count)
        chosen = self._rng.multinomial(count, self._probs)
        self._count += count
        return AnswerCounts(members, tuple(chosen.tolist()))

    def query_until(self, s, pair, count: int):
        """Repeat the query until the answer lands in ``pair``, ``count`` times over.

        Returns (informative answers, raw queries issued), the answers as an
        AnswerCounts whose members are (u, v) in that order, so counts[0]
        is u's wins, and whose len() is count. Distribution and
        accounting match the sequential repeat-until loop: retry lengths are
        geometric in the probability mass p of the pair's positions, so the
        raw total is count plus one negative-binomial(count, p) draw of
        uninformative answers, and the wins of u are one
        binomial(count, pu/p) draw. Ids and a count of type int skip the
        conversion that other integer types take; every input meets the
        same checks.

        A count is accepted up to _count_limit, set when the oracle is
        built: the largest count whose (count + 10 sqrt(count))/p stays
        within _POISSON_LAM_MAX at the least pair mass p. numpy draws the
        negative binomial as a Poisson draw at a gamma-distributed mean, and
        refuses a count whose mean, padded by ten of the gamma's deviations,
        passes that limit: (count + 10 sqrt(count)) (1 - p)/p. The limit
        passes that check at every pair and keeps count plus the draw within
        int64 unless a draw lands about ten deviations out. A larger count
        raises InvalidQueryError before any draw or counting.
        """
        members = _ranked(self.k, self.order, s)
        try:
            u, v = pair
            if u.__class__ is not int or v.__class__ is not int:
                if bool in (type(u), type(v)):  # operator.index would read True as 1
                    raise TypeError
                u, v = operator.index(u), operator.index(v)
        except (TypeError, ValueError):
            raise InvalidQueryError(f"pair {pair!r} must be two integer ids") from None
        try:
            if u == v:
                raise ValueError
            pu = self._prob_list[members.index(u)]
            pv = self._prob_list[members.index(v)]
        except ValueError:
            raise InvalidQueryError(f"pair {pair} must be two distinct members of {s}") from None
        if count.__class__ is not int or not 0 < count <= self._count_limit:
            count = _check_count(count)
            if count == 0:
                return AnswerCounts((u, v), (0, 0)), 0
            if count > self._count_limit:
                raise InvalidQueryError(
                    f"count {count} is past {self._count_limit}, the largest whose raw "
                    f"total stays within the int64 limit {INT64_MAX} at every pair"
                )
        informative = pu + pv
        raw = count + int(self._rng.negative_binomial(count, informative))
        wins_u = int(self._rng.binomial(count, pu / informative))
        self._count += raw
        return AnswerCounts((u, v), (wins_u, count - wins_u)), raw


def _check_count(count) -> int:
    """A repeat count as an int in [0, INT64_MAX], the range of numpy's
    draws; floats and bools are rejected, never truncated or read as 0
    and 1."""
    if isinstance(count, bool):
        raise InvalidQueryError(f"count must be an integer, got {count!r}")
    try:
        count = operator.index(count)
    except TypeError:
        raise InvalidQueryError(f"count must be an integer, got {count!r}") from None
    if not 0 <= count <= INT64_MAX:
        raise InvalidQueryError(f"count must lie in [0, {INT64_MAX}], got {count}")
    return count


@dataclass(frozen=True)
class StreamConfig:
    """Per-phase appearance probabilities for the passive choice stream.

    Built either from a Poisson rate and phase durations (p = 1 - e^{-alpha t})
    or from the probabilities directly; neither parameterization is
    privileged, and only the probabilities are kept. from_coverage derives
    them from the coverage parameter b as p1 = b*lg(n)/n and
    p2 = b*lg(n)*lg(lg(n))/n, clamped to at most 1.
    """

    p1: float
    p2: float

    def __post_init__(self):
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not 0 < p <= 1:
                raise ValueError(f"{name} must lie in (0, 1], got {p}")

    @classmethod
    def from_rate(cls, alpha: float, t1: float, t2: float) -> "StreamConfig":
        if alpha <= 0 or t1 <= 0 or t2 <= 0:
            raise ValueError("alpha, t1, t2 must all be positive")
        return cls(p1=1.0 - math.exp(-alpha * t1), p2=1.0 - math.exp(-alpha * t2))

    @classmethod
    def from_coverage(cls, b: float, n: int) -> "StreamConfig":
        if not b > 0:  # NaN fails this too
            raise ValueError(f"coverage parameter b must be positive, got {b}")
        if n < 4:
            raise ValueError("need n >= 4 for the coverage formulas")
        lg = math.log2(n)
        return cls(
            p1=min(1.0, b * lg / n),
            p2=min(1.0, b * lg * math.log2(lg) / n),
        )

    @property
    def observed_fraction(self) -> float:
        """Probability a fixed k-set appears at least once across both phases."""
        return 1.0 - (1.0 - self.p1) * (1.0 - self.p2)


class ObservationBatch:
    """The distinct (k-set, choice) records observed during one stream phase.

    A caller's records enter once, here: the constructor refuses ragged or
    nested input, checks the rest with _check_sets over [0, n) and each
    choice for membership of its set, and freezes copies, never the
    caller's arrays. sample_phase builds its batches with _trusted, which
    checks and copies nothing. A batch is a plain record: every attribute
    is set when it is built, and every array is read-only.

    sets, choices: the (m, k) int64 rows held and the id chosen from each.
    n: the universe size; every id lies in [0, n).
    k: the set size, sets.shape[1].
    anchors: None, or the ids held by every row of a batch that
        sample_phase drew with anchors; it drew as rows only the sets that
        contain every anchor, and the rest as a count.
    counts_only: True for a batch that holds no rows, only choice_counts.
    complete: whether sets holds every record that the phase drew. The
        readers of every record refuse a batch that is not complete.
    choice_counts: how often each id in [0, n) is chosen over every record
        drawn; None when the batch holds only the rows with anchors.

    len() counts the records the phase drew.
    """

    def __init__(self, sets, choices, n: int):
        try:
            rows, chosen = np.asarray(sets), np.asarray(choices)
        except ValueError:  # ragged rows, or a list among the ids
            raise InvalidQueryError("sets must be (m, k), choices (m,), of integer ids") from None
        if rows.ndim != 2:
            raise InvalidQueryError("sets must be an (m, k) array")
        if not (_is_integer(n) and n >= 0):
            raise InvalidQueryError(f"universe size must be a non-negative integer, got {n!r}")
        sets = _check_sets(rows.shape[1], n, sets)  # the caller's input: a bool in a list is refused
        if chosen.size and chosen.dtype.kind not in "iu":
            raise InvalidQueryError(f"choice must be an integer id, got dtype {chosen.dtype}")
        if _holds_bool(choices):
            raise InvalidQueryError(f"choice must be an integer id, not bool: {choices}")
        choices = chosen.astype(np.int64, copy=False)
        if choices.shape != (sets.shape[0],):
            raise InvalidQueryError("one choice per set required")
        member = np.zeros(choices.shape, dtype=bool)
        for column in sets.T:  # no (m, k) temporary, no reduce over the short axis
            member |= column == choices
        if not member.all():
            raise InvalidQueryError("every chosen alternative must be a member of its set")
        vars(self).update(vars(self._trusted(sets.copy(), choices.copy(), int(n), len(sets))))

    @classmethod
    def _trusted(cls, sets, choices, n: int, drawn: int, anchors=None, counts=None):
        """A batch of records known to be valid, built with no check or copy
        from arrays it then owns: rows of ids in [0, n), each with a member
        chosen, out of drawn records in all, with anchors in every row;
        given counts, a counts-only batch whose sets has no rows."""
        batch = cls.__new__(cls)
        batch.sets, batch.choices, batch.n = sets, choices, n
        batch.k, batch.anchors, batch._drawn = int(sets.shape[1]), anchors, drawn
        batch.counts_only = counts is not None
        batch.complete = counts is None and drawn == sets.shape[0]
        if batch.complete:
            counts = np.bincount(choices, minlength=n)
        batch.choice_counts = counts
        for array in (sets, choices, counts):
            if array is not None:
                array.setflags(write=False)
        return batch

    def __len__(self) -> int:
        return int(self._drawn)


INT64_MAX = int(np.iinfo(np.int64).max)

# The largest mean numpy's Poisson draw takes: INT64_MAX less ten of its
# standard deviations.
_POISSON_LAM_MAX = INT64_MAX - 10 * math.sqrt(INT64_MAX)


def largest_binomial(n: int, k: int) -> int:
    """max C(c, j) over c <= n, j <= k: the largest unranking table entry,
    and a bound on every colex rank of a k-subset of [0, n)."""
    return math.comb(n, min(k, n // 2))


@functools.lru_cache(maxsize=32)
def _binomial_table(n: int, k: int) -> np.ndarray:
    """table[j, c] = C(c, j) for j in [0, k], c in [0, n], read-only.

    Built once per (n, k) and shared by every later call, so no caller may
    write to it. Raises OverflowError when the largest entry,
    C(n, min(k, n//2)), does not fit in int64; for k > n/2 that can happen
    while C(n, k) fits.
    """
    if largest_binomial(n, k) > INT64_MAX:
        raise OverflowError(f"C({n}, j) for j <= {k} exceeds the int64 limit {INT64_MAX}")
    table = np.zeros((k + 1, n + 1), dtype=np.int64)
    table[0, :] = 1
    for j in range(1, k + 1):
        # C(c, j) = C(c-1, j) + C(c-1, j-1)
        table[j, 1:] = np.cumsum(table[j - 1, :-1])
    table.setflags(write=False)
    return table


def revealing_counts(n: int, k: int, position: int) -> np.ndarray:
    """counts[r] = C(r, position-1) * C(n-1-r, k-position): how many of the
    C(n, k) k-subsets of an ordered universe of n select, at the given
    position, the member of rank r, which has r members below it. Each
    k-set selects one member, so the counts sum to C(n, k); ineligible
    ranks count 0. A position that is not an integer in [1, k], a bool
    included, raises ValueError, and an (n, k) whose C(n, k) passes the
    int64 limit OverflowError, as _binomial_table(n, k) does."""
    _check_position(k, position)
    table = _binomial_table(n, k)
    ranks = np.arange(n)
    return table[position - 1, ranks] * table[k - position, n - 1 - ranks]


def unrank_combinations(indices: np.ndarray, n: int, k: int) -> np.ndarray:
    """Map colex ranks in [0, C(n,k)) to sorted k-subsets of [0, n), vectorized.

    Row i is the subset of rank indices[i], so ascending ranks give rows in
    colex order. Levels j >= 3 take one searchsorted per row in row j of
    the binomial table; pass ranks sorted when the order is free, which is
    about 3x faster because numpy narrows each search with the previous
    key's result. The pair level, where every k >= 2 ends, needs no search:
    the largest c with C(c, 2) <= r is floor((1 + sqrt(8r + 1)) / 2), which
    float64 gets right or off by one, and one exact comparison against the
    table each way corrects it. A rank outside [0, C(n,k)), ranks of a
    non-integer dtype, or a bool inside list input raise ValueError.

    The result is a column-major view: column j is one contiguous row of a
    (k, m) buffer.
    """
    if _holds_bool(indices):
        raise ValueError(f"colex ranks must be integers, not bool: {indices}")
    indices = np.asarray(indices)
    if indices.size and indices.dtype.kind not in "iu":
        raise ValueError(f"colex ranks must be integers, got dtype {indices.dtype}")
    indices = indices.astype(np.int64, copy=False)
    table = _binomial_table(n, k)
    if indices.size and (indices.min() < 0 or indices.max() >= table[k, n]):
        raise ValueError(f"colex ranks must lie in [0, C({n}, {k})) = [0, {table[k, n]})")
    out = np.empty((k, indices.size), dtype=np.int64)  # column j of the result is out[j]
    if k == 0:
        return out.T  # the empty set, once per rank
    # The running remainder lives in column 0 and ends there as the lowest
    # member; each level writes its column in place. Every gather's indices
    # lie in [0, n], so take runs unchecked ("clip"), which, unlike "raise",
    # writes to out without a buffer.
    remaining = out[0]
    remaining[:] = indices
    for j in range(k, 2, -1):
        # largest c with C(c, j) <= remaining
        c = np.searchsorted(table[j], remaining, side="right")
        np.subtract(c, 1, out=out[j - 1])
        remaining -= np.take(table[j], out[j - 1], out=c, mode="clip")
    if k >= 2:
        # largest c with C(c, 2) <= remaining, from the float estimate, which
        # is the true c or one off either way, and at most n
        pairs, c = table[2], out[1]
        estimate = np.multiply(remaining, 8.0)
        estimate += 1.0
        np.sqrt(estimate, out=estimate)
        estimate += 1.0
        estimate *= 0.5
        c[:] = estimate  # truncation floors a positive float
        gathered = estimate.view(np.int64)  # the float buffer, reused
        np.take(pairs, c, out=gathered, mode="clip")
        c -= gathered > remaining  # now c <= the true c <= n - 1
        c += 1
        np.take(pairs, c, out=gathered, mode="clip")
        c -= gathered > remaining  # now c is the true c
        remaining -= np.take(pairs, c, out=gathered, mode="clip")
    # C(c, 1) = c, so what remains is the lowest member, already in out[0]
    return out.T


def all_ksets(n: int, k: int) -> np.ndarray:
    """Every k-subset of [0, n) as a (C(n,k), k) array of sorted rows, in
    colex order: the unranking of every rank. Raises OverflowError as
    _binomial_table(n, k) does."""
    return unrank_combinations(np.arange(math.comb(n, k)), n, k)


def _sample_ranks(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Ascending ranks in [0, total), each included independently with
    probability p, in time and memory linear in the count drawn.

    The gaps between the included ranks of a Bernoulli(p) sequence are
    i.i.d. Geometric(p) (Devroye 1986, ch. X), so the ranks are running
    sums of gaps, less one, cut at total. Gaps come in chunks sized to
    cover what remains with high probability. numpy's geometric saturates
    at INT64_MAX, so that value stands for a gap of at least 2^63, past
    every rank. Each gap is clipped at one past what remains and summed as
    uint64, so no sum wraps before the cut.
    """
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    chunks = []
    start = 0  # every rank below start is decided
    while True:
        room = total - start
        mean = room * p  # the expected count still to draw, with 4 sd to spare
        gaps = rng.geometric(p, int(mean + 4 * math.sqrt(mean)) + 1).view(np.uint64)
        gaps[gaps == INT64_MAX] += 1  # a saturated gap is at least 2^63
        np.minimum(gaps, np.uint64(room + 1), out=gaps)
        ends = np.cumsum(gaps)  # at most 2 room + 1 < 2^64 up to the first end past room
        past = ends > np.uint64(room)
        cut = int(past.argmax()) if past.any() else ends.size
        chunks.append(ends[:cut].astype(np.int64) + (start - 1))
        if cut < ends.size:
            return np.concatenate(chunks)
        start += int(ends[-1])


def sample_phase(
    config: StreamConfig,
    phase: int,
    oracle,
    rng: np.random.Generator,
    anchors=None,
    counts_only: bool = False,
) -> ObservationBatch:
    """Realize one stream phase: each of the C(n,k) k-sets of the oracle's
    n and k appears independently with the phase's probability, and
    appearing sets come back with their oracle answers.

    No event times are materialized: the included ranks are running sums
    of Geometric(p) gaps (_sample_ranks), so they come out ascending. Pass
    independent rngs for phases 1 and 2.

    Rows come back in ascending colex rank, which unranks fastest (see
    unrank_combinations); no reader of a batch depends on its row order.
    The choices are the oracle's answers to the rows, which query_many has
    validated, and members by construction, so the batch checks nothing
    again.

    With anchors, k-2 distinct ids, only the sets that hold every anchor
    are drawn, as the anchors plus pairs of the other ids whose ranks are
    drawn as above (pair colex order is set colex order), and the count of
    all other sets is one binomial added to len(): equal in law to the full
    batch's rows that hold every anchor, not the same draw. The oracle
    answers, and its query_count counts, only the rows.

    With counts_only, for a position-selecting oracle, no set is drawn:
    every drawn k-set reveals one member, so the number of times id x is
    chosen is an independent Binomial(R_x, p) over the R_x sets that
    select it (revealing_counts), drawn as one vectorised binomial. The
    batch holds these choice_counts and no rows, and its len() is their
    sum, which has the law of the full batch's size; the oracle answers
    and counts nothing. Equal in law to the bincount of a full batch's
    choices, not bit-identical to it. Anchors and counts_only together
    raise ValueError.
    """
    if phase not in (1, 2):
        raise ValueError("phase must be 1 or 2")
    p = config.p1 if phase == 1 else config.p2
    n, k = oracle.n, oracle.k
    if counts_only:
        if anchors is not None:
            raise ValueError("a counts-only phase draws no rows to hold anchors")
        counts = np.empty(n, dtype=np.int64)
        revealing = revealing_counts(n, k, oracle.selector.position)
        counts[oracle.order.ascending] = rng.binomial(revealing, p)
        empty = np.empty(0, dtype=np.int64)
        return ObservationBatch._trusted(
            empty.reshape(0, k), empty, n, int(counts.sum()), counts=counts
        )
    if anchors is not None:
        anchors = _check_query(k - 2, n, anchors)
        free = np.setdiff1d(np.arange(n), anchors)
        pairs = math.comb(free.size, 2)
        picked = _sample_ranks(pairs, p, rng)
        drawn = picked.size + int(rng.binomial(math.comb(n, k) - pairs, p))
        columns = np.empty((k, picked.size), dtype=np.int64)
        columns[: k - 2] = np.reshape(anchors, (-1, 1))
        columns[k - 2 :] = free[unrank_combinations(picked, free.size, 2).T]
        # insert the pair among the sorted anchors: np.sort's per-row cost is most of the draw
        for top in (k - 2, k - 1):
            for j in range(top, 0, -1):
                low = np.minimum(columns[j - 1], columns[j])
                np.maximum(columns[j - 1], columns[j], out=columns[j])
                columns[j - 1] = low
        sets = columns.T
    else:
        idx = _sample_ranks(math.comb(n, k), p, rng)
        sets = unrank_combinations(idx, n, k)
        drawn = idx.size
    return ObservationBatch._trusted(sets, oracle.query_many(sets), n, drawn, anchors)
