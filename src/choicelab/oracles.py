"""Query-answering simulators with query accounting, plus the passive-stream sampler.

These are the only components with access to ground truth. Oracles own a
seedable numpy PCG64 generator and a query counter; rejected queries are
not counted. Batched entry points (query_many, query_repeated,
query_until) draw the same distributions as the equivalent sequential
query() loops with exact query accounting, which keeps the Monte Carlo
acceptance runs in the minutes range.

The mixed oracle's repeated queries draw counts, not answers:
query_repeated draws how often each member is chosen as one multinomial
variate, and query_until draws its raw query total, the sum of count
geometric retry lengths, as one negative-binomial variate and the wins
of the first pair member as one binomial variate. Each returns the counts
expanded into an answer array grouped by member, so the multiset of
answers is random but their order is not: a prefix of the array is not
a subsample, and callers read only how often each member appears.

The passive-stream sampler realizes a phase as Bernoulli inclusion of
each of the C(n,k) k-sets. At desk scale, and whenever the inclusion
probability exceeds 1%, it draws exactly that, one uniform per k-set, so
the included colex ranks come out ascending with no sort; only sparse
phases over more than 2^22 k-sets draw a binomial batch size and a
distinct sample of ranks. unrank_combinations builds its rows column by
column and returns them as a column-major (m, k) view, so every
per-column pass downstream reads contiguous memory. Ascending ranks
decode block by block, one search per top member and one table gather
per lower column, whenever they are at least as many as the C(n-1, k-1)
rows of that table, as in every phase and in the sampled scoring of a
passive run. Other ranks take one search per level and row. Both give
the same rows.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .core import (
    InvalidQueryError,
    LatentOrder,
    PositionSelector,
    _check_query,
    _check_sets,
    evaluate,
    evaluate_many,
)

__all__ = [
    "DeterministicOracle",
    "MixtureDistribution",
    "MixedOracle",
    "StreamConfig",
    "ObservationBatch",
    "sample_phase",
    "unrank_combinations",
]


class DeterministicOracle:
    """Answers every k-set query with one fixed position selector over one fixed order."""

    def __init__(self, selector: PositionSelector, order: LatentOrder):
        if order.n < selector.k:
            raise ValueError("universe smaller than k")
        self.selector = selector
        self.order = order
        self._count = 0

    @property
    def n(self) -> int:
        return self.order.n

    @property
    def k(self) -> int:
        return self.selector.k

    @property
    def query_count(self) -> int:
        return self._count

    def query(self, s) -> int:
        answer = evaluate(self.selector, self.order, s)  # validates before counting
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

    def reflected(self) -> "MixtureDistribution":
        return MixtureDistribution(self.probs[::-1], self.gamma)

    def __repr__(self) -> str:
        return f"MixtureDistribution({list(self.probs)}, gamma={self.gamma})"


def feasible_gamma(probs: Sequence[float]) -> float:
    """Largest separation parameter the vector could satisfy (exclusive bound)."""
    p = np.asarray(probs, dtype=float)
    gaps = np.abs(p[:, None] - p[None, :])
    return float(gaps[~np.eye(p.size, dtype=bool)].min())


class MixedOracle:
    """Population-mixture oracle: each query independently selects position
    ell with probability pi_ell and returns that member of the queried set.
    """

    def __init__(self, order: LatentOrder, mixture: MixtureDistribution, seed):
        if order.n < mixture.k:
            raise ValueError("universe smaller than k")
        self.order = order
        self.mixture = mixture
        self._rng = np.random.default_rng(seed)
        self._probs = np.asarray(mixture.probs)
        self._count = 0

    @property
    def n(self) -> int:
        return self.order.n

    @property
    def k(self) -> int:
        return self.mixture.k

    @property
    def query_count(self) -> int:
        return self._count

    def _members_by_rank(self, s) -> list:
        return sorted(_check_query(self.k, self.order.n, s), key=self.order.rank_of)

    def query(self, s) -> int:
        return int(self.query_repeated(s, 1)[0])

    def query_repeated(self, s, count: int) -> np.ndarray:
        """count independent answers to the same set; counts count queries.

        The answers come grouped by member, in rank order: only how often
        each member appears is random, drawn as one multinomial variate
        over pi. Read the array as a multiset, never a prefix of it as a
        subsample.
        """
        members = self._members_by_rank(s)
        count = _check_count(count)
        chosen = self._rng.multinomial(count, self._probs)
        self._count += count
        return np.repeat(members, chosen)

    def query_until(self, s, pair, count: int):
        """Repeat the query until the answer lands in ``pair``, ``count`` times over.

        Returns (informative answers, raw queries issued). Distribution and
        accounting match the sequential repeat-until loop: retry lengths are
        geometric in the probability mass p of the pair's positions, so the
        raw total is count plus one negative-binomial(count, p) draw of
        uninformative answers, and the wins of u are one
        binomial(count, pu/p) draw. The answers come grouped, every win of
        u before every win of v: only the win count is random, so never
        read a prefix of the array as a subsample.
        """
        members = self._members_by_rank(s)
        try:
            u, v = map(operator.index, pair)
        except (TypeError, ValueError):
            raise InvalidQueryError(f"pair {pair!r} must be two integer ids") from None
        if u not in members or v not in members or u == v:
            raise InvalidQueryError(f"pair {pair} must be two distinct members of {s}")
        count = _check_count(count)
        if count == 0:
            return np.empty(0, dtype=np.int64), 0
        pu = self._probs[members.index(u)]
        pv = self._probs[members.index(v)]
        informative = pu + pv
        raw = count + int(self._rng.negative_binomial(count, informative))
        wins_u = int(self._rng.binomial(count, pu / informative))
        self._count += raw
        return np.repeat((u, v), (wins_u, count - wins_u)), raw


def _check_count(count) -> int:
    """A repeat count as a non-negative int; floats are rejected, never truncated."""
    try:
        count = operator.index(count)
    except TypeError:
        raise InvalidQueryError(f"count must be an integer, got {count!r}") from None
    if count < 0:
        raise InvalidQueryError(f"count must be non-negative, got {count}")
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
    def from_probabilities(cls, p1: float, p2: float) -> "StreamConfig":
        return cls(p1=p1, p2=p2)

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

    Records enter once, here: hand-built and JSONL rows pass _check_sets and
    a membership check of each choice. Every id lies below id_bound, which
    readers compare with their universe size instead of scanning ids.
    """

    def __init__(self, sets, choices):
        sets = np.asarray(sets)
        if sets.ndim != 2:
            raise InvalidQueryError("sets must be an (m, k) array")
        sets = _check_sets(sets.shape[1], INT64_MAX, sets)
        choices = np.asarray(choices)
        if choices.size and choices.dtype.kind not in "iu":
            raise InvalidQueryError(f"choice must be an integer id, got dtype {choices.dtype}")
        choices = choices.astype(np.int64, copy=False)
        if choices.shape != (sets.shape[0],):
            raise InvalidQueryError("one choice per set required")
        member = np.zeros(choices.shape, dtype=bool)
        for column in sets.T:  # no (m, k) temporary, no reduce over the short axis
            member |= column == choices
        if not member.all():
            raise InvalidQueryError("every chosen alternative must be a member of its set")
        self._freeze(sets, choices, int(sets.max()) + 1 if sets.size else 0)

    @classmethod
    def _answered(cls, sets: np.ndarray, choices: np.ndarray, universe_size: int):
        """A batch of sets that passed an oracle's query_many over
        [0, universe_size) and the oracle's answers to them: every row is
        valid and every choice a member of its row, so nothing is re-checked."""
        batch = cls.__new__(cls)
        batch._freeze(sets, choices, universe_size)
        return batch

    def _freeze(self, sets: np.ndarray, choices: np.ndarray, id_bound: int) -> None:
        self.sets = sets
        self.choices = choices
        self.id_bound = id_bound
        self.sets.setflags(write=False)
        self.choices.setflags(write=False)

    @property
    def k(self) -> int:
        return int(self.sets.shape[1])

    def __len__(self) -> int:
        return int(self.sets.shape[0])

    def records(self) -> Iterable[tuple]:
        for row, choice in zip(self.sets, self.choices):
            yield tuple(int(x) for x in row), int(choice)

    def to_jsonl(self, fp: IO[str]) -> None:
        for row, choice in self.records():
            fp.write(json.dumps({"set": list(row), "choice": choice}) + "\n")

    @classmethod
    def from_jsonl(cls, fp: IO[str]) -> "ObservationBatch":
        """Read records written by to_jsonl, through the constructor's
        checks. Every set must have the same size; a ragged set, like any
        record the constructor rejects, raises InvalidQueryError."""
        records = [json.loads(line) for line in fp if line.strip()]
        sets = [rec["set"] for rec in records]
        for s in sets:
            if not isinstance(s, list):
                raise InvalidQueryError(f"set must be a list of ids, got {s!r}")
            if len(s) != len(sets[0]):
                first = len(sets[0])
                raise InvalidQueryError(f"set {s} has {len(s)} ids, the first set has {first}")
        try:
            sets = np.asarray(sets) if sets else np.empty((0, 0), dtype=np.int64)
            choices = np.asarray([rec["choice"] for rec in records])
        except ValueError:  # a list among the ids
            raise InvalidQueryError("ids must be integers") from None
        return cls(sets, choices)


INT64_MAX = int(np.iinfo(np.int64).max)


def largest_binomial(n: int, k: int) -> int:
    """max C(c, j) over c <= n, j <= k: the largest unranking table entry,
    and a bound on every colex rank of a k-subset of [0, n)."""
    return math.comb(n, min(k, n // 2))


def _binomial_table(n: int, k: int) -> np.ndarray:
    """table[j, c] = C(c, j) for j in [0, k], c in [0, n].

    Raises OverflowError when the largest entry, C(n, min(k, n//2)), does
    not fit in int64; for k > n/2 that can happen while C(n, k) fits.
    """
    if largest_binomial(n, k) > INT64_MAX:
        raise OverflowError(f"C({n}, j) for j <= {k} exceeds the int64 limit {INT64_MAX}")
    table = np.zeros((k + 1, n + 1), dtype=np.int64)
    table[0, :] = 1
    for j in range(1, k + 1):
        # C(c, j) = C(c-1, j) + C(c-1, j-1)
        table[j, 1:] = np.cumsum(table[j - 1, :-1])
    return table


def unrank_combinations(indices: np.ndarray, n: int, k: int) -> np.ndarray:
    """Map colex ranks in [0, C(n,k)) to sorted k-subsets of [0, n), vectorized.

    Row i is the subset of rank indices[i], so ascending ranks give rows in
    colex order. Pass ranks sorted when the order is free. A rank outside
    [0, C(n,k)) raises ValueError.

    Ascending ranks (duplicates allowed, all in range) at k >= 2 decode
    block by block when there are at least C(n-1, k-1) of them: the ranks
    with top member c form the block [C(c,k), C(c+1,k)), so one search of
    the n+1 block bounds and a repeat of the block sizes give the top
    column, and each lower column is one gather, at r - C(c,k), from the
    table of all (k-1)-subsets of [0, n-1), itself unranked the same way.
    Other ranks take one searchsorted per level and row, about 3x faster
    when the keys ascend, because numpy narrows each search with the
    previous key's result.

    The result is a column-major view: column j is one contiguous row of a
    (k, m) buffer.
    """
    return _unrank(np.asarray(indices, dtype=np.int64), n, k)


def _unrank(indices: np.ndarray, n: int, k: int) -> np.ndarray:
    """unrank_combinations on int64 ranks. The block decoder unranks its
    (k-1)-table through this function, so a wrapper of the public name
    sees only its callers' rows."""
    table = _binomial_table(n, k)
    out = np.empty((k, indices.size), dtype=np.int64)  # column j of the result is out[j]
    if (
        2 <= k <= n
        and math.comb(n - 1, k - 1) <= indices.size
        and indices[0] >= 0
        and indices[-1] < table[k, n]
        and (indices[1:] >= indices[:-1]).all()
    ):
        # the ranks below C(c, k), for c in [0, n], differ by the size of block c
        sizes = np.diff(np.searchsorted(indices, table[k]))
        out[k - 1] = np.repeat(np.arange(n), sizes)
        lower = indices - np.repeat(table[k, :n], sizes)
        below = _unrank(np.arange(math.comb(n - 1, k - 1)), n - 1, k - 1).T
        for j in range(k - 1):
            np.take(below[j], lower, out=out[j])
        return out.T
    if indices.size and (indices.min() < 0 or indices.max() >= table[k, n]):
        raise ValueError(f"colex ranks must lie in [0, C({n}, {k})) = [0, {table[k, n]})")
    # The running remainder lives in column 0 and ends there as the lowest
    # member; each level writes its column in place.
    remaining = out[0]
    remaining[:] = indices
    for j in range(k, 1, -1):
        # largest c with C(c, j) <= remaining
        c = np.searchsorted(table[j], remaining, side="right")
        np.subtract(c, 1, out=out[j - 1])
        remaining -= np.take(table[j], out[j - 1], out=c)
    # C(c, 1) = c, so what remains is the lowest member, already in out[0]
    return out.T


# Above _DENSE_TOTAL k-sets a phase with p <= _SPARSE_P draws its ranks by
# dedupe-and-top-up, in O(m) memory, instead of one uniform per k-set.
_DENSE_TOTAL = 1 << 22
_SPARSE_P = 0.01


def _sample_ranks(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Ascending colex ranks, each of the total included independently with
    probability p."""
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    if total <= _DENSE_TOTAL or p > _SPARSE_P:
        return np.flatnonzero(rng.random(total) < p)
    m = int(rng.binomial(total, p))
    if m == 0:
        return np.empty(0, dtype=np.int64)
    picked = np.unique(rng.integers(0, total, size=int(m * 1.1) + 16))
    while picked.size < m:
        extra = rng.integers(0, total, size=m)
        picked = np.unique(np.concatenate([picked, extra]))
    return np.sort(rng.permutation(picked)[:m])


def sample_phase(
    config: StreamConfig,
    phase: int,
    universe_size: int,
    k: int,
    oracle,
    rng: np.random.Generator,
) -> ObservationBatch:
    """Realize one stream phase: each of the C(n,k) k-sets appears
    independently with the phase's probability, and appearing sets come
    back with their oracle answers.

    No event times are materialized. Up to 2^22 k-sets, or at p > 0.01,
    the draw is that Bernoulli inclusion itself: one uniform per k-set,
    kept below p, so the ranks come out ascending. Beyond both, the batch
    size is one binomial draw and the ranks a uniform distinct sample of
    that size, drawn by dedupe-and-top-up and then sorted. Pass
    independent rngs for phases 1 and 2.

    Rows come back in ascending colex rank, because ascending ranks
    unrank block by block (see unrank_combinations); no reader of a batch
    depends on its row order. The choices are the oracle's answers to the
    rows, which query_many has validated, and members by construction, so
    the batch checks nothing again.
    """
    if phase not in (1, 2):
        raise ValueError("phase must be 1 or 2")
    p = config.p1 if phase == 1 else config.p2
    idx = _sample_ranks(math.comb(universe_size, k), p, rng)
    sets = unrank_combinations(idx, universe_size, k)
    return ObservationBatch._answered(sets, oracle.query_many(sets), universe_size)
