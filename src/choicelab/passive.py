"""Passive-stream recovery: infer choices from two phases of observed (set, choice) records.

Phase 1 flags the alternatives never observed as a choice; when exactly
k-1 such alternatives exist they are the ineligible set. It reads only a
batch's choice_counts, so a phase 1 drawn counts-only, with no rows at
all, serves as well as a full one. Phase 2 reads
only the records whose set is a fixed k-2 anchor subset plus a free
pair; each such record orients the pair under one consistent (but
unknown) convention, so the transitive closure of those orientations is
a partial order that answers a query whenever all internal pairs are
resolved. The order is held over the universe ids themselves, and an
anchor is comparable to nothing, so queries touching an anchor or an
unresolved pair return UNRESOLVED, which scoring counts as incorrect.
Resolved queries are answered from one order of the universe by closure
win count, which agrees with the closure on every resolved set.

Records are validated where they enter an ObservationBatch (sampled rows
by query_many, others by the constructor), and the batch carries the
universe size n, so this module checks no record or id of a batch again.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidQueryError,
    LatentOrder,
    PositionSelector,
    _check_id,
    _check_position,
    _check_query,
    _check_sets,
    _is_integer,
    _select_many,
    evaluate_many,
)
from .oracles import ObservationBatch, all_ksets, revealing_counts, unrank_combinations
from .stats import clopper_pearson

__all__ = [
    "InsufficientCoverageError",
    "InconsistentStreamError",
    "UNRESOLVED",
    "find_ineligible_passive",
    "InferredPartialOrder",
    "build_partial_order",
    "answer_query",
    "answer_many",
    "CoverageReport",
    "coverage_report",
    "revealing_set_count",
    "min_revealing_count",
    "count_revealing_brute_force",
]


class InsufficientCoverageError(RuntimeError):
    """Phase 1 did not pin down the ineligible set; no answer is produced."""

    def __init__(self, never_chosen):
        self.never_chosen = frozenset(never_chosen)
        super().__init__(
            f"{len(self.never_chosen)} never-chosen alternatives observed; "
            f"cannot identify the ineligible set"
        )


class InconsistentStreamError(RuntimeError):
    """Records contradict every deterministic position-selecting source."""


class _Unresolved:
    __slots__ = ()

    def __repr__(self):
        return "UNRESOLVED"

    def __bool__(self):
        return False


UNRESOLVED = _Unresolved()

# coverage reports score every k-set up to this many, else a uniform sample
_EXHAUSTIVE_SCORE_SETS = 1_000_000
_SAMPLED_SCORE_SETS = 100_000


def find_ineligible_passive(batch: ObservationBatch) -> frozenset:
    """Ids in [0, batch.n) never appearing as a choice in the batch.

    The true ineligible set is always a subset of the result; when the
    result has exactly k-1 members it equals the ineligible set. Any other
    size raises InsufficientCoverageError (the algorithm terminates with
    no answer rather than guessing). Reads only the batch's choice_counts,
    so a counts-only batch serves. A batch sampled with anchors, which
    counts only some choices, raises ValueError.
    """
    if batch.choice_counts is None:
        raise ValueError(f"phase 1 is read in full, not sampled with anchors {batch.anchors}")
    never = np.flatnonzero(batch.choice_counts == 0)
    if never.size != batch.k - 1:
        raise InsufficientCoverageError(int(x) for x in never)
    return frozenset(int(x) for x in never)


class InferredPartialOrder:
    """Transitive closure of the anchored-pair orientations.

    beats is an n-by-n matrix over the universe ids: beats[u, v] means u
    wins against v under the stream's consistent orientation
    (winner-is-greater by convention; the true reading may be the
    reflection). An anchor is comparable to nothing, so its row and column
    are empty. Antisymmetric and transitive by construction; construction
    fails on any cycle.
    """

    def __init__(self, beats: np.ndarray, anchors, position: int):
        self.beats = beats
        self.anchors = tuple(anchors)
        self.position = int(position)
        self._comparable = (beats | beats.T).ravel()  # at u * n + v
        # each id outscores all it beats; anchors, in no resolved row, score 0
        self._score_order = LatentOrder._trusted(np.argsort(beats.sum(axis=1), kind="stable"))
        for array in (self.beats, self._comparable):
            array.setflags(write=False)

    @property
    def universe_size(self) -> int:
        return len(self.beats)

    @property
    def k(self) -> int:
        return len(self.anchors) + 2

    def resolved(self, u: int, v: int) -> bool:
        u, v = _check_id(self.universe_size, u), _check_id(self.universe_size, v)
        return u == v or bool(self._comparable[u * self.universe_size + v])

    @property
    def unresolved_pair_count(self) -> int:
        m = self.universe_size - len(self.anchors)
        return int(m * (m - 1) // 2 - np.count_nonzero(self._comparable) // 2)

    @property
    def resolved_pair_fraction(self) -> float:
        m = self.universe_size - len(self.anchors)
        total = m * (m - 1) // 2
        return 1.0 - self.unresolved_pair_count / total if total else 1.0


def _transitive_closure(direct: np.ndarray) -> np.ndarray:
    """Reachability of a DAG given as a boolean adjacency matrix, as a new
    bool matrix; direct itself is not written.

    Kahn's algorithm orders the vertices and keeps each one's children.
    Then, in reverse topological order, each vertex's row becomes the OR of
    its own and its children's (Purdom 1970), over rows packed 64 ids to a
    uint64 word: an eighth of the bool matrix, and one bitwise_or.reduce
    per vertex. The function drops direct once it is packed, so a caller
    that passes its only reference lets the bool matrix be freed before
    the packed rows are unpacked, once, into the result. A cycle raises
    InconsistentStreamError.
    """
    v = direct.shape[0]
    indegree = direct.sum(axis=0)
    queue = [i for i in range(v) if indegree[i] == 0]
    topo = []  # (node, its children), in topological order
    while queue:  # Kahn's algorithm pops each node once
        node = queue.pop()
        children = np.nonzero(direct[node])[0]
        topo.append((node, children))
        indegree[children] -= 1
        queue.extend(children[indegree[children] == 0].tolist())
    if len(topo) != v:
        raise InconsistentStreamError("orientation cycle in observed comparisons")
    # bit u of row w, little bit order, is direct[w, u]; rows padded to whole words
    packed = np.zeros((v, -(-v // 64) * 8), dtype=np.uint8)
    packed[:, : -(-v // 8)] = np.packbits(direct, axis=1, bitorder="little")
    del direct
    reach = packed.view(np.uint64)
    for node, children in reversed(topo):
        if children.size:
            reach[node] |= np.bitwise_or.reduce(reach[children], axis=0)
    return np.unpackbits(packed, axis=1, count=v, bitorder="little").view(bool)


def _orientations(batch: ObservationBatch, anchors: tuple) -> np.ndarray:
    """The batch.n-by-batch.n bool matrix of direct orientations, winner ->
    loser, from the records whose set is a free pair plus every anchor.

    A choice on an anchor, or an edge whose reverse is also an edge, raises
    InconsistentStreamError. The edge list lives only in this call, so none
    of it is held while the closure runs.
    """
    n, k = batch.n, batch.k
    is_anchor = np.zeros(n, dtype=bool)
    is_anchor[list(anchors)] = True
    columns = batch.sets.T
    # k column gathers, no (m, k) temporary. int32 halves int64's time; uint8
    # and int16 counts were faster still but raised peak RSS over many trials
    anchor_count = np.zeros(batch.sets.shape[0], dtype=np.int32)
    for column in columns:
        anchor_count += is_anchor[column]
    rows = np.flatnonzero(anchor_count == k - 2)
    anchored = columns[:, rows].T  # only these rows get a free-member mask
    pairs = anchored[~is_anchor[anchored]].reshape(-1, 2)
    winners = batch.choices[rows]
    if pairs.size and not ((winners == pairs[:, 0]) | (winners == pairs[:, 1])).all():
        raise InconsistentStreamError("an anchored record chose an anchor")

    direct = np.zeros((n, n), dtype=bool)
    losers = np.where(winners == pairs[:, 0], pairs[:, 1], pairs[:, 0])
    direct[winners, losers] = True
    if direct[losers, winners].any():  # an edge whose reverse is also an edge
        raise InconsistentStreamError("contradictory orientations for a pair")
    return direct


def build_partial_order(batch: ObservationBatch, anchors, position: int) -> InferredPartialOrder:
    """Extract anchored-pair orientations from a phase-2 batch over its ids
    [0, batch.n) and close them.

    Only records whose set is exactly {u, v} plus the anchors contribute;
    the record's choice is the pair's winner under the stream's fixed
    convention. Every id is an element of the result, observed or not,
    and an anchor is comparable to none. Contradictory orientations for
    one pair, a choice falling on an anchor, or any cycle raise
    InconsistentStreamError (impossible for a noiseless
    position-selecting source with correct anchors). A position that is
    not an integer in [2, k-1], a bool or a float such as 2.0 included,
    raises ValueError. Anchors that are not
    k-2 distinct ids in [0, batch.n) raise InvalidQueryError. A batch sampled
    with other anchors raises ValueError, since it lacks the records these
    anchors read, and a counts-only batch, which holds no rows, ValueError.
    """
    n, k = batch.n, batch.k
    if not (_is_integer(position) and 2 <= position <= k - 1):
        raise ValueError(f"position must lie in [2, k-1], got {position!r}")
    anchors = _check_query(k - 2, n, anchors)
    if batch.counts_only:
        raise ValueError("a counts-only batch holds no rows to orient pairs from")
    if not batch.complete and batch.anchors != anchors:
        raise ValueError(
            f"the batch holds only the records with anchors {batch.anchors}, not {anchors}"
        )
    # no local here holds the edge list or the bool matrix, so the closure
    # can free the matrix before it unpacks its result
    beats = _transitive_closure(_orientations(batch, anchors))
    return InferredPartialOrder(beats, anchors, position)


def answer_query(po: InferredPartialOrder, s, position: int | None = None):
    """The inferred choice for one k-set, or UNRESOLVED: answer_many on the
    single row of a valid scalar query."""
    s = _check_query(po.k, po.universe_size, s)
    answer = int(answer_many(po, [s], po.position if position is None else position)[0])
    return UNRESOLVED if answer == -1 else answer


def answer_many(po: InferredPartialOrder, sets: np.ndarray, position: int) -> np.ndarray:
    """The inferred choice for each row of an (m, k) array of k-sets; -1
    marks UNRESOLVED.

    A row is UNRESOLVED whenever it touches an anchor or contains an
    unresolved pair. Any other row is totally ordered by the closure, and
    so by closure win count, and its answer is the member at the requested
    position in that order under the stored orientation. Every resolved
    answer is correct under one global reading (possibly the reflected
    position; the scorer tries both). A position that is not an integer
    in [1, k], a bool included, raises InvalidQueryError.
    """
    sets = _check_sets(po.k, po.universe_size, sets)
    _check_position(po.k, position, InvalidQueryError)
    columns = sets.T  # k contiguous id columns
    base = columns * po.universe_size
    # an anchor is comparable to nothing, so every row that holds one is unresolved
    resolved = np.ones(len(sets), dtype=bool)
    for a, b in itertools.combinations(range(po.k), 2):
        resolved &= po._comparable[base[a] + columns[b]]
    answers = _select_many(position, po._score_order, sets)
    answers[~resolved] = -1
    return answers


@dataclass(frozen=True)
class CoverageReport:
    """Scoring of a recovered passive model against ground truth.

    hits of the sample_size scored sets were answered correctly, so
    frac_correct is hits / sample_size. ci_low and ci_high, the 95%
    Clopper-Pearson interval on that fraction, are computed from hits and
    sample_size on first read and cached: no report row reads them, and
    the exact interval took about 0.5 ms, against a 20 ms passive trial at
    n=200 on a 2-core host.
    """

    n: int
    k: int
    position: int
    frac_correct: float
    frac_unresolved: float
    reading: str  # "stored" or "reflected" orientation reading
    sample_size: int
    exhaustive: bool
    hits: int

    @functools.cached_property
    def _interval(self) -> tuple[float, float]:
        return clopper_pearson(self.hits, self.sample_size)

    @property
    def ci_low(self) -> float:
        return self._interval[0]

    @property
    def ci_high(self) -> float:
        return self._interval[1]


def coverage_report(
    po: InferredPartialOrder,
    selector: PositionSelector,
    order: LatentOrder,
    rng: np.random.Generator,
) -> CoverageReport:
    """Fraction of k-sets answered correctly, UNRESOLVED counted as incorrect.

    Exhaustive when C(n,k) is at most _EXHAUSTIVE_SCORE_SETS, otherwise a
    uniform sample of _SAMPLED_SCORE_SETS sets drawn from rng. Both
    readings of the stored orientation (position and its reflection) are
    scored globally by answer_many, once when they coincide at an odd k's
    middle, and the consistent one is reported with its hit count; the
    report computes its 95% Clopper-Pearson interval only when read.
    """
    n, k = order.n, selector.k
    if po.k != k or po.universe_size < n:
        raise InvalidQueryError(
            f"a model of {po.k}-sets over {po.universe_size} ids cannot answer "
            f"{k}-sets over {n}"
        )
    total = math.comb(n, k)
    exhaustive = total <= _EXHAUSTIVE_SCORE_SETS
    if exhaustive:
        sets = all_ksets(n, k)
    else:
        # ascending ranks unrank faster; scoring is a mean, so row order is free
        idx = rng.integers(0, total, size=_SAMPLED_SCORE_SETS)
        idx.sort()
        sets = unrank_combinations(idx, n, k)
    truth = evaluate_many(selector, order, sets)
    position, reflection = po.position, k - po.position + 1
    reading, answers = "stored", answer_many(po, sets, position)
    hits = int((answers == truth).sum())
    if reflection != position:
        reflected = answer_many(po, sets, reflection)
        reflected_hits = int((reflected == truth).sum())
        if reflected_hits > hits:
            reading, answers, hits = "reflected", reflected, reflected_hits
    count = len(sets)
    return CoverageReport(
        n=n,
        k=k,
        position=position,
        frac_correct=hits / count,
        frac_unresolved=float((answers == -1).mean()),
        reading=reading,
        sample_size=count,
        exhaustive=exhaustive,
        hits=hits,
    )


def revealing_set_count(n: int, k: int, position: int, rank: int) -> int:
    """Number of k-sets that reveal the rank-th lowest element as eligible.

    A revealing set contains the element plus exactly position-1 members
    below it and k-position above it; rank counts elements below. One
    entry of oracles.revealing_counts, the count the phase-1 sampler draws.
    A rank that is not an integer in [0, n), or a position that is not an
    integer in [1, k], raises ValueError.
    """
    if not (_is_integer(rank) and 0 <= rank < n):
        raise ValueError(f"rank must lie in [0, {n}), got {rank}")
    return int(revealing_counts(n, k, position)[rank])


def min_revealing_count(n: int, k: int, position: int) -> int:
    """Minimum revealing-set count over all eligible elements, those with
    rank in [position-1, n-k+position-1]. n < k raises ValueError."""
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    return int(revealing_counts(n, k, position)[position - 1 : n - k + position].min())


def count_revealing_brute_force(n: int, k: int, position: int, rank: int) -> int:
    """Independent oracle: enumerate every k-set containing the rank-th
    element and count those whose selected member is that element. A
    position that is not an integer in [1, k] raises ValueError."""
    _check_position(k, position)
    element = rank
    others = [x for x in range(n) if x != element]
    count = 0
    for combo in itertools.combinations(others, k - 1):
        members = sorted(combo + (element,))
        if members[position - 1] == element:
            count += 1
    return count
