"""Query-answering simulators with query accounting, plus the passive-stream sampler.

These are the only components with access to ground truth. Oracles own a
seedable numpy PCG64 generator and a query counter; rejected queries are
not counted. Batched entry points (query_many, query_repeated,
query_until) draw the same distributions as the equivalent sequential
query() loops with exact query accounting, which keeps the Monte Carlo
acceptance runs in the minutes range. query_until draws its raw query
total, the sum of count geometric retry lengths, as one negative-binomial
variate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .core import (
    InvalidQueryError,
    LatentOrder,
    PositionSelector,
    _check_query,
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
        self._count += int(sets.shape[0])
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
        members = self._members_by_rank(s)
        pos = self._rng.choice(self.k, p=self._probs)
        self._count += 1
        return members[pos]

    def query_repeated(self, s, count: int) -> np.ndarray:
        """count independent answers to the same set; counts count queries."""
        members = np.asarray(self._members_by_rank(s))
        positions = self._rng.choice(self.k, size=int(count), p=self._probs)
        self._count += int(count)
        return members[positions]

    def query_until(self, s, pair, count: int):
        """Repeat the query until the answer lands in ``pair``, ``count`` times over.

        Returns (informative answers, raw queries issued). Distribution and
        accounting match the sequential repeat-until loop: retry lengths are
        geometric in the probability mass p of the pair's positions, so the
        raw total is count plus one negative-binomial(count, p) draw of
        uninformative answers.
        """
        members = self._members_by_rank(s)
        u, v = pair
        if u not in members or v not in members or u == v:
            raise InvalidQueryError(f"pair {pair} must be two distinct members of {s}")
        pu = self._probs[members.index(u)]
        pv = self._probs[members.index(v)]
        informative = pu + pv
        count = int(count)
        if count == 0:
            return np.empty(0, dtype=np.int64), 0
        raw = count + int(self._rng.negative_binomial(count, informative))
        wins_u = self._rng.random(count) < pu / informative
        self._count += raw
        return np.where(wins_u, u, v), raw


@dataclass(frozen=True)
class StreamConfig:
    """Per-phase appearance probabilities for the passive choice stream.

    Built either from a Poisson rate and phase durations (p = 1 - e^{-alpha t})
    or from the probabilities directly; neither parameterization is
    privileged. from_coverage derives them from the coverage parameter b as
    p1 = b*lg(n)/n and p2 = b*lg(n)*lg(lg(n))/n, clamped to at most 1.
    """

    p1: float
    p2: float
    alpha: float | None = None
    t1: float | None = None
    t2: float | None = None

    def __post_init__(self):
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not 0 < p <= 1:
                raise ValueError(f"{name} must lie in (0, 1], got {p}")

    @classmethod
    def from_rate(cls, alpha: float, t1: float, t2: float) -> "StreamConfig":
        if alpha <= 0 or t1 <= 0 or t2 <= 0:
            raise ValueError("alpha, t1, t2 must all be positive")
        return cls(
            p1=1.0 - math.exp(-alpha * t1),
            p2=1.0 - math.exp(-alpha * t2),
            alpha=alpha,
            t1=t1,
            t2=t2,
        )

    @classmethod
    def from_probabilities(cls, p1: float, p2: float) -> "StreamConfig":
        return cls(p1=p1, p2=p2)

    @classmethod
    def from_coverage(cls, b: float, n: int) -> "StreamConfig":
        if b <= 0:
            raise ValueError("coverage parameter b must be positive")
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
    """The distinct (k-set, choice) records observed during one stream phase."""

    def __init__(self, sets: np.ndarray, choices: np.ndarray):
        sets = np.asarray(sets, dtype=np.int64)
        choices = np.asarray(choices, dtype=np.int64)
        if sets.ndim != 2:
            raise ValueError("sets must be an (m, k) array")
        if choices.shape != (sets.shape[0],):
            raise ValueError("one choice per set required")
        member = np.zeros(choices.shape, dtype=bool)
        for column in sets.T:  # no (m, k) temporary, no reduce over the short axis
            member |= column == choices
        if not member.all():
            raise ValueError("every chosen alternative must be a member of its set")
        self.sets = sets
        self.choices = choices
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
        sets, choices = [], []
        for line in fp:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            sets.append(sorted(rec["set"]))
            choices.append(rec["choice"])
        k = len(sets[0]) if sets else 0
        return cls(
            np.asarray(sets, dtype=np.int64).reshape(len(sets), k),
            np.asarray(choices, dtype=np.int64),
        )


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
    colex order. Pass ranks sorted when the order is free: numpy's
    searchsorted narrows each search with the previous key's result when
    the keys ascend, which makes the unranking about 3x faster.
    """
    indices = np.asarray(indices, dtype=np.int64)
    table = _binomial_table(n, k)
    remaining = indices.copy()
    out = np.empty((indices.size, k), dtype=np.int64)
    for j in range(k, 1, -1):
        # largest c with C(c, j) <= remaining
        c = np.searchsorted(table[j], remaining, side="right") - 1
        out[:, j - 1] = c
        remaining = remaining - table[j, c]
    out[:, 0] = remaining  # C(c, 1) = c, so a search at j=1 would return remaining
    return out


def _sample_distinct_indices(total: int, m: int, rng: np.random.Generator) -> np.ndarray:
    if m >= total:
        return np.arange(total, dtype=np.int64)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if total <= 1 << 22 or m / total > 0.01:
        return rng.choice(total, size=m, replace=False).astype(np.int64)
    # sparse regime: dedupe-and-top-up keeps memory at O(m)
    picked = np.unique(rng.integers(0, total, size=int(m * 1.1) + 16))
    while picked.size < m:
        extra = rng.integers(0, total, size=m)
        picked = np.unique(np.concatenate([picked, extra]))
    return rng.permutation(picked)[:m].astype(np.int64)


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

    Equivalent to Bernoulli inclusion per set: the batch size is binomial
    and the included sets are a uniform distinct sample, so no event times
    are materialized. Pass independent rngs for phases 1 and 2.

    Rows come back in ascending colex rank. The sampled ranks are sorted
    before unranking because ascending keys make the unranking searches
    about 3x faster; the rng draws are the same as without the sort, so a
    seed gives the same records, and no reader of a batch depends on its
    row order.
    """
    if phase not in (1, 2):
        raise ValueError("phase must be 1 or 2")
    p = config.p1 if phase == 1 else config.p2
    total = math.comb(universe_size, k)
    if p >= 1.0:
        m = total
    else:
        m = int(rng.binomial(total, p))
    idx = np.sort(_sample_distinct_indices(total, m, rng))
    sets = unrank_combinations(idx, universe_size, k)
    choices = oracle.query_many(sets)
    return ObservationBatch(sets, choices)
