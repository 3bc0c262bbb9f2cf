"""Passive-stream recovery: infer choices from two phases of observed (set, choice) records.

Phase 1 flags the alternatives never observed as a choice; when exactly
k-1 such alternatives exist they are the ineligible set. Phase 2 reads
only the records whose set is a fixed k-2 anchor subset plus a free
pair; each such record orients the pair under one consistent (but
unknown) convention, so the transitive closure of those orientations is
a partial order that answers a query whenever all internal pairs are
resolved. Queries touching an anchor or an unresolved pair return
UNRESOLVED, which scoring counts as incorrect.

Records are validated where they enter an ObservationBatch (sampled rows
by query_many, others by the constructor); this module only compares a
batch's id_bound with the universe size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidQueryError,
    LatentOrder,
    PositionSelector,
    _check_query,
    _check_sets,
    all_ksets,
    evaluate_many,
)
from .oracles import ObservationBatch, unrank_combinations
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


def find_ineligible_passive(batch: ObservationBatch, universe_size: int) -> frozenset:
    """Alternatives never appearing as a choice in the batch.

    The true ineligible set is always a subset of the result; when the
    result has exactly k-1 members it equals the ineligible set. Any other
    size raises InsufficientCoverageError (the algorithm terminates with
    no answer rather than guessing). A batch with ids outside
    [0, universe_size) raises InvalidQueryError.
    """
    if batch.id_bound > universe_size:
        raise InvalidQueryError(f"ids out of range [0, {universe_size})")
    never = np.flatnonzero(np.bincount(batch.choices, minlength=universe_size) == 0)
    if never.size != batch.k - 1:
        raise InsufficientCoverageError(int(x) for x in never)
    return frozenset(int(x) for x in never)


class InferredPartialOrder:
    """Transitive closure of the anchored-pair orientations.

    elements lists the non-anchor ids in ascending order and index maps
    each id of the universe to its row in beats (-1 for an anchor).
    beats[i, j] means element i wins against j under the stream's
    consistent orientation (winner-is-greater by convention; the true
    reading may be the reflection). Antisymmetric and transitive by
    construction; construction fails on any cycle.
    """

    def __init__(self, index: np.ndarray, beats: np.ndarray, anchors, position: int):
        self.index = index
        self.elements = np.flatnonzero(index >= 0)
        self.beats = beats
        self.anchors = tuple(anchors)
        self.position = int(position)
        for array in (self.index, self.elements, self.beats):
            array.setflags(write=False)

    @property
    def universe_size(self) -> int:
        return len(self.index)

    @property
    def k(self) -> int:
        return len(self.anchors) + 2

    def resolved(self, u: int, v: int) -> bool:
        i, j = self.index[_check_sets(1, self.universe_size, [[u], [v]])[:, 0]]
        return bool(u == v or (i >= 0 and j >= 0 and (self.beats[i, j] or self.beats[j, i])))

    @property
    def unresolved_pair_count(self) -> int:
        m = len(self.elements)
        resolved = self.beats | self.beats.T
        return int(m * (m - 1) // 2 - np.triu(resolved, 1).sum())

    @property
    def resolved_pair_fraction(self) -> float:
        m = len(self.elements)
        total = m * (m - 1) // 2
        return 1.0 - self.unresolved_pair_count / total if total else 1.0


def _transitive_closure(direct: np.ndarray) -> np.ndarray:
    """Reachability of a DAG given as a boolean adjacency matrix.

    Processes vertices in reverse topological order, accumulating each
    vertex's reachable set as the union of its children's; O(V*E) bit
    operations.
    """
    v = direct.shape[0]
    indegree = direct.sum(axis=0)
    queue = [i for i in range(v) if indegree[i] == 0]
    topo = []
    remaining = direct.copy()
    while queue:
        node = queue.pop()
        topo.append(node)
        children = np.nonzero(remaining[node])[0]
        remaining[node, :] = False
        indegree[children] -= 1
        queue.extend(children[indegree[children] == 0].tolist())
    if len(topo) != v:
        raise InconsistentStreamError("orientation cycle in observed comparisons")
    reach = direct.copy()
    for node in reversed(topo):
        children = np.nonzero(direct[node])[0]
        if children.size:
            reach[node] |= reach[children].any(axis=0)
    return reach


def build_partial_order(
    batch: ObservationBatch, universe_size: int, anchors, position: int
) -> InferredPartialOrder:
    """Extract anchored-pair orientations from a phase-2 batch over the ids
    [0, universe_size) and close them.

    Only records whose set is exactly {u, v} plus the anchors contribute;
    the record's choice is the pair's winner under the stream's fixed
    convention. Every non-anchor id is an element of the result, observed
    or not. Contradictory orientations for one pair, a choice falling on
    an anchor, or any cycle raise InconsistentStreamError (impossible for
    a noiseless position-selecting source with correct anchors). A batch
    with ids outside [0, universe_size) raises InvalidQueryError, as do
    anchors that are not k-2 distinct ids in that range.
    """
    k = batch.k
    if not 2 <= position <= k - 1:
        raise ValueError(f"position must lie in [2, k-1], got {position}")
    anchors = _check_query(k - 2, universe_size, anchors)
    if batch.id_bound > universe_size:
        raise InvalidQueryError(f"ids out of range [0, {universe_size})")
    is_anchor = np.zeros(universe_size, dtype=bool)
    is_anchor[list(anchors)] = True
    elements = np.flatnonzero(~is_anchor)
    index = np.full(universe_size, -1, dtype=np.int64)
    index[elements] = np.arange(elements.size)

    columns = batch.sets.T
    # k column gathers, no (m, k) temporary. int32 halves int64's time; uint8
    # and int16 counts were faster still but raised peak RSS over many trials
    anchor_count = np.zeros(len(batch), dtype=np.int32)
    for column in columns:
        anchor_count += is_anchor[column]
    rows = np.flatnonzero(anchor_count == k - 2)
    anchored = columns[:, rows].T  # only these rows get a free-member mask
    pairs = anchored[~is_anchor[anchored]].reshape(-1, 2)
    winners = batch.choices[rows]
    if pairs.size and not ((winners == pairs[:, 0]) | (winners == pairs[:, 1])).all():
        raise InconsistentStreamError("an anchored record chose an anchor")

    v = elements.size
    direct = np.zeros((v, v), dtype=bool)
    losers = np.where(winners == pairs[:, 0], pairs[:, 1], pairs[:, 0])
    direct[index[winners], index[losers]] = True
    if np.any(direct & direct.T):
        raise InconsistentStreamError("contradictory orientations for a pair")
    return InferredPartialOrder(index, _transitive_closure(direct), anchors, position)


def answer_query(po: InferredPartialOrder, s, position: int | None = None):
    """The inferred choice for one k-set, or UNRESOLVED: answer_many on a
    single row, validated once as a scalar query."""
    s = _check_query(po.k, po.universe_size, s)
    position = po.position if position is None else position
    answer = int(_answer_rows(po, np.array([s]), (position,))[0][0])
    return UNRESOLVED if answer == -1 else answer


def answer_many(po: InferredPartialOrder, sets: np.ndarray, position: int) -> np.ndarray:
    """The inferred choice for each row of an (m, k) array of k-sets; -1
    marks UNRESOLVED.

    A row is UNRESOLVED whenever it touches an anchor or contains an
    unresolved pair; otherwise its answer is the member at the requested
    position under the stored orientation. Every resolved answer is
    correct under one global reading of the orientation (possibly the
    reflected position; the scorer tries both). A position outside [1, k]
    raises InvalidQueryError.
    """
    return _answer_rows(po, _check_sets(po.k, po.universe_size, sets), (position,))[0]


def _answer_rows(po: InferredPartialOrder, sets: np.ndarray, positions) -> list:
    """answer_many for sets that passed _check_sets, at each of positions,
    from one pass over the pairwise beats lookups."""
    m, k = sets.shape
    for position in positions:
        if position not in range(1, k + 1):
            raise InvalidQueryError(f"position must lie in [1, {k}], got {position}")
    idx = po.index[sets.T]  # k contiguous index columns
    # an anchor's index -1 reads the last row of beats; such rows start unresolved
    resolved = np.all(idx >= 0, axis=0)
    wins = np.zeros((k, m), dtype=np.int64)
    for a in range(k):
        for b in range(a + 1, k):
            ab = po.beats[idx[a], idx[b]]
            ba = po.beats[idx[b], idx[a]]
            resolved &= ab | ba
            wins[a] += ab
            wins[b] += ba

    rows = np.flatnonzero(resolved)
    wins = wins[:, rows]
    answers = []
    for position in positions:
        out = np.full(m, -1, dtype=np.int64)
        out[rows] = sets[rows, np.argmax(wins == position - 1, axis=0)]
        answers.append(out)
    return answers


@dataclass(frozen=True)
class CoverageReport:
    """Scoring of a recovered passive model against ground truth."""

    n: int
    k: int
    position: int
    frac_correct: float
    frac_unresolved: float
    reading: str  # "stored" or "reflected" orientation reading
    sample_size: int
    exhaustive: bool
    ci_low: float
    ci_high: float
    b: float | None = None
    p1: float | None = None
    p2: float | None = None

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "n": self.n,
                "k": self.k,
                "ell": self.position,
                "b": self.b,
                "frac_correct": self.frac_correct,
                "frac_unresolved": self.frac_unresolved,
                "p1": self.p1,
                "p2": self.p2,
            }
        )


def coverage_report(
    po: InferredPartialOrder,
    selector: PositionSelector,
    order: LatentOrder,
    sample_size: int = 100_000,
    rng: np.random.Generator | None = None,
    exhaustive_limit: int = 1_000_000,
    b: float | None = None,
    p1: float | None = None,
    p2: float | None = None,
) -> CoverageReport:
    """Fraction of k-sets answered correctly, UNRESOLVED counted as incorrect.

    Exhaustive when C(n,k) is at most exhaustive_limit, otherwise a
    uniform sample of sample_size sets with a 95% Clopper-Pearson interval.
    Both readings of the stored orientation (position and its reflection)
    are scored globally and the consistent one is reported.
    """
    n, k = order.n, selector.k
    if po.k != k or po.universe_size < n:
        raise InvalidQueryError(
            f"a model of {po.k}-sets over {po.universe_size} ids cannot answer "
            f"{k}-sets over {n}"
        )
    total = math.comb(n, k)
    if total <= exhaustive_limit:
        sets = all_ksets(n, k)
        exhaustive = True
    else:
        if rng is None:
            raise ValueError("sampled scoring needs an rng")
        # ascending ranks unrank faster; scoring is a mean, so row order is free
        idx = np.sort(rng.integers(0, total, size=sample_size))
        sets = unrank_combinations(idx, n, k)
        exhaustive = False

    truth = evaluate_many(selector, order, sets)  # the one validation of sets
    position = po.position
    stored, reflected = _answer_rows(po, sets, (position, k - position + 1))
    reading, answers, hits = "stored", stored, int((stored == truth).sum())
    reflected_hits = int((reflected == truth).sum())
    if reflected_hits > hits:
        reading, answers, hits = "reflected", reflected, reflected_hits
    count = len(sets)
    frac_correct = hits / count
    frac_unresolved = float((answers == -1).mean())
    lo, hi = clopper_pearson(hits, count)
    return CoverageReport(
        n=n,
        k=k,
        position=position,
        frac_correct=frac_correct,
        frac_unresolved=frac_unresolved,
        reading=reading,
        sample_size=count,
        exhaustive=exhaustive,
        ci_low=lo,
        ci_high=hi,
        b=b,
        p1=p1,
        p2=p2,
    )


def revealing_set_count(n: int, k: int, position: int, rank: int) -> int:
    """Number of k-sets that reveal the rank-th lowest element as eligible.

    A revealing set contains the element plus exactly position-1 members
    below it and k-position above it; rank counts elements below.
    """
    return math.comb(rank, position - 1) * math.comb(n - 1 - rank, k - position)


def min_revealing_count(n: int, k: int, position: int) -> int:
    """Minimum revealing-set count over all eligible elements."""
    lo, hi = position - 1, n - 1 - (k - position)
    return min(revealing_set_count(n, k, position, r) for r in range(lo, hi + 1))


def count_revealing_brute_force(n: int, k: int, position: int, rank: int) -> int:
    """Independent oracle: enumerate every k-set containing the rank-th
    element and count those whose selected member is that element."""
    element = rank
    others = [x for x in range(n) if x != element]
    count = 0
    for combo in itertools.combinations(others, k - 1):
        members = sorted(combo + (element,))
        if members[position - 1] == element:
            count += 1
    return count
