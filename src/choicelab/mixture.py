"""Population-mixture inference against a mixed oracle.

Recovers the position-probability vector pi (up to reflection) from O(1)
queries to the k+1 subsets of a single (k+1)-set, then the full order
(up to the same reflection) via a noisy discard pass and two noisy merge
sorts over a padded retry comparator. Both stages are sequential: a
discard round stops once an anytime Hoeffding bound certifies which
member's frequency is nearest the tracked end's, and each sort comparison
is a vote that stops once its win rate is clearly off 1/2. Each sizes its
first check from the estimate of pi (a round from the gap between
frequencies, every vote of a sort from the win margin its pairs share)
and takes a fixed-count decision at a cap sized for the worst case
(radius gamma/2 on a round's frequencies, win margin gamma/4 for a vote).
Neither reads its own answers to schedule its checks, so each fixes every
check's count and radius before its first query (_schedule). The noisy
sort replaces the noisy-sorting subroutine the analysis usually delegates
to; it costs O(n log^2 n) queries instead of O(n log n) with the same
success guarantee.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .active import discard_pass
from .core import LatentOrder, _check_query, _is_integer, kset
from .oracles import INT64_MAX, MixedOracle
from .sorting import merge_sort

__all__ = [
    "AlignmentFailureError",
    "MixtureEstimate",
    "NoisyComparator",
    "repetition_count",
    "answer_frequencies",
    "align_frequency_tables",
    "estimate_mixture",
    "majority_repetitions",
    "noisy_sort",
    "discard_round_repetitions",
    "recovery_split",
    "discard_round",
    "recover_mixed",
    "best_reflection_error",
    "orders_match_up_to_reflection",
]


class AlignmentFailureError(RuntimeError):
    """The cross-subset frequency structure needed for alignment is absent.

    Signals that a sampling bad event occurred; callers may retry with a
    smaller delta or a smaller epsilon.
    """


@dataclass(frozen=True)
class MixtureEstimate:
    """Estimated position probabilities, canonicalized so probs_hat[0] >= probs_hat[-1]."""

    probs_hat: tuple
    delta: float
    epsilon: float
    queries: int

    @property
    def k(self) -> int:
        return len(self.probs_hat)


def _int64_count(scale: float, name: str, radius: float, log_term: float) -> int:
    """ceil(scale / radius**2 * log_term), the form of every query count
    here, as an int. ValueError, naming the radius, when the count passes
    the int64 limit of the oracle's draws or radius**2 leaves float range."""
    try:
        count = math.ceil(scale / radius**2 * log_term)
    except (OverflowError, ZeroDivisionError):  # radius**2 overflowed, or underflowed to 0
        count = math.inf
    if count > INT64_MAX:
        raise ValueError(f"{name}={radius} puts the query count out of float range "
                         f"or past the int64 limit {INT64_MAX}")
    return count


def repetition_count(delta: float, epsilon: float, k: int) -> int:
    """Per-subset query count guaranteeing coordinate error <= delta with
    probability >= 1 - epsilon, by a two-sided Chernoff bound union-bounded
    over all k(k+1) subset/member frequencies. A count past the int64
    limit of the oracle's draws raises ValueError."""
    if delta <= 0 or epsilon <= 0 or epsilon >= 1:
        raise ValueError("need delta > 0 and epsilon in (0, 1)")
    if not (_is_integer(k) and k >= 2):
        raise ValueError(f"set size k must be an integer >= 2, got {k!r}")
    return _int64_count(2 + delta, "delta", delta, math.log(2 * k * (k + 1) / epsilon))


def answer_frequencies(oracle: MixedOracle, s, reps: int) -> dict:
    """Query the k-set s reps times; map each member to its answer frequency.

    The oracle draws the answer counts as one multinomial variate and
    returns only those counts, so memory and time do not grow with reps.
    reps below 1 raises ValueError before any query.
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    members = kset(s)
    answers = oracle.query_repeated(members, reps)
    return {m: answers.count(m) / reps for m in members}


def align_frequency_tables(tables) -> tuple:
    """Assign one shared position to each frequency level across the k+1 subsets.

    tables[j] maps each member of subset j to its selection frequency.
    Within a subset, ranking members by frequency identifies which
    frequency belongs to which position ordinal; across subsets, the two
    end positions are the only frequency levels whose member multiset has
    the {u, v, ..., v} signature (one member once, another k times), and
    consecutive positions share exactly one member, so walking that
    adjacency chain from the larger-valued end assigns every level.
    Returns the frequency vector of the first subset reordered by
    position, with the larger end first.
    """
    count = len(tables)
    k = count - 1
    if k < 2 or any(len(t) != k for t in tables):
        raise AlignmentFailureError("need k+1 tables of k frequencies each")

    ranked = [sorted(t, key=lambda e, t=t: (-t[e], e)) for t in tables]
    level_members = [Counter(ranked[j][r] for j in range(count)) for r in range(k)]

    ends = [r for r, c in enumerate(level_members) if sorted(c.values()) == [1, k]]
    if len(ends) != 2:
        raise AlignmentFailureError(
            f"expected exactly two end-signature frequency levels, found {len(ends)}"
        )
    level_value = [
        float(np.mean([tables[j][ranked[j][r]] for j in range(count)]))
        for r in range(k)
    ]
    start, finish = sorted(ends, key=lambda r: -level_value[r])

    chain = [start]
    visited = {start}
    while len(chain) < k:
        shared = set(level_members[chain[-1]])
        nxt = [
            r
            for r in range(k)
            if r not in visited and shared & set(level_members[r])
        ]
        if len(nxt) != 1:
            raise AlignmentFailureError(
                f"frequency level {chain[-1]} has {len(nxt)} unvisited "
                f"overlap neighbors, expected 1"
            )
        chain.append(nxt[0])
        visited.add(nxt[0])
    if chain[-1] != finish:
        raise AlignmentFailureError("alignment chain did not terminate at the other end")

    return tuple(tables[0][ranked[0][r]] for r in chain)


def estimate_mixture(
    oracle: MixedOracle, gamma: float, delta: float, epsilon: float
) -> MixtureEstimate:
    """Recover pi up to reflection: max coordinate error <= delta with
    probability >= 1 - epsilon, using O(1)-in-n queries.

    Queries each of the k+1 k-subsets of one fixed (k+1)-set
    repetition_count(delta, epsilon, k) times and aligns the per-subset
    frequency vectors. delta may be at most gamma/2; past the midpoint the
    frequency levels of distinct positions could collide.
    """
    if not 0 < delta <= gamma / 2:
        raise ValueError(f"delta must lie in (0, gamma/2], got {delta}")
    k = oracle.k
    if oracle.n < k + 1:
        raise ValueError("need at least k+1 alternatives")
    reps = repetition_count(delta, epsilon, k)
    base = tuple(range(k + 1))
    tables = [
        answer_frequencies(oracle, (x for x in base if x != excluded), reps)
        for excluded in base
    ]
    probs = align_frequency_tables(tables)
    return MixtureEstimate(
        probs_hat=probs, delta=delta, epsilon=epsilon, queries=reps * (k + 1)
    )


class NoisyComparator:
    """Binary comparator from padding a free pair with k-2 anchor alternatives.

    Anchors must be ineligible to the selector whose answers carry the
    signal, so the only informative outcomes are the two free positions;
    compare_wins() re-queries until one of the pair is returned (geometric
    retries), as many times as asked, and counts the wins. The oracle
    draws those wins as one binomial variate and returns them as a count.
    """

    def __init__(self, oracle: MixedOracle, anchors):
        self.oracle = oracle
        self.anchors = _check_query(oracle.k - 2, oracle.n, anchors)

    def padded(self, u: int, v: int) -> tuple:
        return (u, v) + self.anchors

    def compare_wins(self, u: int, v: int, count: int) -> int:
        """Number of times u wins among count informative outcomes: the
        first of query_until's answer counts, which come in (u, v) order."""
        return self.oracle.query_until(self.padded(u, v), (u, v), count)[0].counts[0]


def _anytime_radius(total: int, t: int, tails: int, budget: float) -> float:
    """Hoeffding radius for the t-th check of a sequential test, after total
    samples: with probability >= 1 - budget, none of the test's `tails`
    one-sided deviations of sample means exceeds it at any check. The t-th
    check spends budget/(t(t+1)) of the budget, which sums to budget over
    t = 1, 2, ..., whatever counts the checks fall at, provided no check's
    count depends on the test's own samples."""
    return math.sqrt(math.log(tails * t * (t + 1) / budget) / (2 * total))


def _vote_budget(m: int, epsilon_sort: float) -> float:
    """Half of one comparison's failure share epsilon_sort/(2*m*ceil(lg m))
    in a noisy sort of m items: one half goes to the sequential test, the
    other to the majority taken at the cap."""
    comparisons = m * max(1, (m - 1).bit_length())
    return epsilon_sort / (4 * comparisons)


def majority_repetitions(m: int, gamma: float, epsilon_sort: float) -> int:
    """The cap on informative outcomes per vote in the noisy sort of m items.

    A majority over r outcomes at win margin gamma/4 errs with probability
    <= exp(-r*gamma^2/8) (Hoeffding); r keeps that within the cap's half
    of the comparison's share, rounded up to odd so no majority ties occur.
    gamma must be positive and epsilon_sort lie in (0, 1), and the cap
    within the int64 limit, else ValueError.
    """
    if not gamma > 0:  # NaN fails this too
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not 0 < epsilon_sort < 1:
        raise ValueError(f"epsilon_sort must lie in (0, 1), got {epsilon_sort}")
    if m < 2:
        return 1
    r = _int64_count(8.0, "gamma", gamma, math.log(1 / _vote_budget(m, epsilon_sort)))
    return r + 1 if r % 2 == 0 else r


# Every vote of a sort opens at _VOTE_SLACK times the count where a first
# check passes at the sort's expected margin, so that check fails only if
# the win rate reads below 1/2 + margin/sqrt(_VOTE_SLACK). Over 400 seeded
# n=100 trials a slack of 1.5 made 601 oracle calls a trial and 2.0 made
# 545, fewer than the 552 of opening each vote where the last one stopped;
# the queries fell from 2.56M to 1.61M and 1.87M.
_VOTE_SLACK = 2.0


def _schedule(opening: int, cap: int, growth: float, tails: int, budget: float) -> tuple:
    """The checks of a capped sequential test, fixed before its first
    query: one (batch, N, r) per oracle call, N being the count read after
    the call and r the _anytime_radius(N, t, tails, budget) of the t-th.

    The first call reads opening, floored at 1, each later call brings the
    count read to ceil(growth N), and the last call is cut to end at the
    cap, where r is 0.0: the test decides there whatever it read. Neither
    the counts nor the radii read the test's own samples, so the radii
    hold as _anytime_radius states.
    """
    checks, total, batch = [], 0, max(opening, 1)
    while total < cap:
        batch = min(batch, cap - total)
        total += batch
        t = len(checks) + 1
        radius = _anytime_radius(total, t, tails, budget) if total < cap else 0.0
        checks.append((batch, total, radius))
        batch = math.ceil(total * growth) - total
    return tuple(checks)


def _vote_schedule(m: int, gamma: float, epsilon_sort: float, margin: float) -> tuple:
    """The _schedule of every vote of a noisy sort of m >= 2 items, up to
    the odd cap majority_repetitions(); see noisy_sort."""
    cap = majority_repetitions(m, gamma, epsilon_sort)
    budget = _vote_budget(m, epsilon_sort)
    radius = _anytime_radius(1, 1, 2, budget)  # of a first check after one outcome
    opening = math.ceil(_VOTE_SLACK * (radius / max(margin, gamma / 4)) ** 2)
    return _schedule(opening, cap, 2, 2, budget)


def noisy_sort(comparator, elements, gamma: float, epsilon_sort: float, margin: float = 0.0):
    """Sort ascending under the comparator's winner-is-greater reading.

    Succeeds (true order under that reading) with probability
    >= 1 - epsilon_sort provided each informative win probability is at
    least 1/2 + gamma/4. Each comparison is a capped sequential vote over
    batches of informative outcomes, one compare_wins call per batch. After
    the t-th batch, with N outcomes read, it stops once the win rate is off
    1/2 by more than the anytime Hoeffding radius sqrt(ln(2t(t+1)/d)/(2N))
    (_anytime_radius with two tails), d = _vote_budget(), which errs with
    probability <= d over all t. At the cap, majority_repetitions(), it
    takes the majority, which errs with probability <= d too.

    margin, in [0, 1/2], is the win probability's expected distance from
    1/2, floored at gamma/4: every vote opens at _VOTE_SLACK times the
    count N = ln(4/d)/(2 margin^2) where a first check's radius falls to
    it, and each further batch doubles the count read, on one
    _vote_schedule fixed before the first query. It reads no vote's own
    outcomes, so the bound holds whatever margin is given; a margin above
    the truth only costs extra batches, and at the floor every vote is the
    cap's majority. majority_repetitions() checks gamma and epsilon_sort,
    and a margin that is NaN or outside [0, 1/2] raises ValueError, before
    any query.
    """
    if not 0 <= margin <= 0.5:  # NaN fails this too
        raise ValueError(f"margin must lie in [0, 1/2], got {margin}")
    elements = list(elements)
    majority_repetitions(len(elements), gamma, epsilon_sort)  # checks both
    if len(elements) <= 1:
        return elements
    schedule = _vote_schedule(len(elements), gamma, epsilon_sort, margin)

    def less(u, v):
        wins = 0
        for batch, total, radius in schedule:
            wins += comparator.compare_wins(u, v, batch)
            if abs(wins / total - 0.5) > radius:
                break
        return 2 * wins < total

    ordered, _ = merge_sort(elements, less)
    return ordered


def _win_margin(pi, i: int) -> float:
    """Distance from 1/2 of the rate pi[i] / (pi[i] + pi[i+1]) at which the
    member at position i+1 of a set wins over the one at position i+2."""
    return abs(pi[i] / (pi[i] + pi[i + 1]) - 0.5)


def _discard_budget(n: int, k: int, epsilon: float) -> float:
    """Half of one discard round's failure share epsilon/(5(n-k+1)), over
    the n-k+1 rounds recover_mixed runs: one half goes to the round's
    sequential test, the other to the decision at its cap."""
    return epsilon / (10 * (n - k + 1))


# A discard round's first check falls where twice the radius is gap/1.2,
# leaving a sixth of the gap to sampling noise, and each later one at 1.25
# times the count. At 2r = gap, 72% of the rounds of seeded n=100 trials
# needed a second oracle call (2.4 calls a round); with the slack 18% did
# (1.25 calls), for 3% more answers.
_ROUND_SLACK, _ROUND_GROWTH = 1.2, 1.25


def discard_round_repetitions(gamma: float, epsilon: float, n: int, k: int = 3) -> int:
    """The cap on answers per discard round of a recovery over n
    alternatives with k-sets (k = 3 unless given), which runs n-k+1 rounds.

    At this count every member frequency of the round lands within gamma/2
    of its truth with probability >= 1 - b, b = _discard_budget(n, k,
    epsilon): the count is the two-sided Chernoff bound (2 + d)/d^2 ln(2/b)
    at d = gamma/2, over four times Hoeffding's count for one member at
    that radius, which covers all k members for any k <= 8/b^3. That
    bounds the round's own error only; see discard_round for what a
    round decided at the cap needs besides. gamma must be positive,
    epsilon lie in (0, 1), n be at least k and the cap within the int64
    limit, else ValueError.
    """
    if not gamma > 0:  # NaN fails this too
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not (_is_integer(n) and _is_integer(k) and n >= k):
        raise ValueError(f"need integers n >= k for a discard round, got n={n!r}, k={k!r}")
    return _int64_count(
        8 + 2 * gamma, "gamma", gamma, math.log(2 / _discard_budget(n, k, epsilon))
    )


@functools.lru_cache(maxsize=32, typed=True)
def _round_schedule(size: int, gap: float, cap: int, budget: float) -> tuple:
    """The _schedule of a discard round over size members, with 2 size
    tails: it opens where twice a first check's radius is gap/_ROUND_SLACK
    (at the cap when gap is not positive, or so small that the opening
    leaves float range, past every cap) and grows the count read by
    _ROUND_GROWTH at each later call. Cached, hence a tuple; typed, so a
    float cap keeps its own schedule and meets the oracle's count check as
    it would uncached."""
    tails = 2 * size
    first = 2 * _ROUND_SLACK * _anytime_radius(1, 1, tails, budget)
    try:
        opening = math.ceil((first / gap) ** 2) if gap > 0 else cap
    except OverflowError:  # a gap below about 1e-154
        opening = cap
    return _schedule(opening, cap, _ROUND_GROWTH, tails, budget)


def discard_round(
    oracle: MixedOracle, members, tracked: float, gap: float, cap: int, budget: float
) -> int:
    """One discard round: the member whose answer frequency is nearest
    tracked, ties toward the higher frequency and then the lower id, with
    the frequencies read until they certify it.

    The round reads answers in batches, one oracle.query_repeated call
    each. After the t-th batch, with N answers read, every member
    frequency lies within r = _anytime_radius(N, t, 2k, budget) of its
    truth at every check with probability >= 1 - budget. The round stops
    once the nearest member's distance to tracked, plus r, is below every
    other member's distance minus r: that member is then nearest in truth
    too. If tracked is within gamma/2 of the tracked position's
    frequency, where gamma is the least gap between positions, that
    member is the one at the tracked position. At the cap the round
    decides on the frequencies read, exactly as a fixed-count round of cap
    answers, with only that round's guarantee: if the frequency error plus
    tracked's own error totals less than gamma/2, the winner is the member
    truly at the tracked position. Each error at most gamma/2 is not
    enough: together they reach gamma, where a wrong member can lie
    nearer tracked.

    gap is the expected distance from the nearest member's to the next
    member's frequency: the round's _round_schedule opens from it. That
    schedule reads none of the round's own answers, so the bound holds;
    each check ranks the members once by that rule's key, with the count
    standing in for the frequency it divides. A cap outside [1,
    INT64_MAX], or a budget that is NaN or outside (0, 1), raises
    ValueError before any query.
    """
    if not 1 <= cap <= INT64_MAX:  # NaN fails this too
        raise ValueError(f"cap must lie in [1, {INT64_MAX}], got {cap}")
    if not 0 < budget < 1:
        raise ValueError(f"budget must lie in (0, 1), got {budget}")
    members = list(members)
    counts = [0] * len(members)
    for batch, total, radius in _round_schedule(len(members), gap, cap, budget):
        answers = oracle.query_repeated(members, batch)
        counts = [c + answers.count(m) for c, m in zip(counts, members)]
        ranked = sorted((abs(c / total - tracked), -c, m) for c, m in zip(counts, members))
        if ranked[1][0] - ranked[0][0] > 2 * radius:
            break
    return ranked[0][2]


def recovery_split(n: int, k: int, gamma: float, epsilon: float) -> tuple:
    """recover_mixed's split, checked before its first query: (delta,
    epsilon_stage, cap) = (gamma/2, epsilon/5, the discard rounds' cap).
    ValueError when n < 2k or when a count recover_mixed fixes passes the
    int64 limit: the estimate's, the cap, or the main sort's vote cap,
    which bounds the scrap sort's (k < n-k+1 items)."""
    if n < 2 * k:
        raise ValueError(f"need n >= 2k, got n={n}, k={k}")
    delta, epsilon_stage = gamma / 2, epsilon / 5
    repetition_count(delta, epsilon_stage, k)
    cap = discard_round_repetitions(gamma, epsilon, n, k)
    majority_repetitions(n - k + 1, gamma, epsilon_stage)
    return delta, epsilon_stage, cap


def recover_mixed(oracle: MixedOracle, gamma: float, epsilon: float):
    """Recover the full latent order (up to reflection) and the mixture.

    Five stages, each budgeted epsilon/5: (1) estimate pi at precision
    gamma/2; (2) noisy discard, identifying each round's tracked-end
    element by frequency (discard_round) and discarding it, which leaves
    the k-1 alternatives ineligible to that end's selector; (3) noisy sort
    of the remaining n-k+1 alternatives through a comparator anchored on
    the discarded block; (4) a second short sort that orders the discarded
    block itself, anchored on the k-2 alternatives at the far end of the
    recovered order and oriented by including one alternative of known
    position; (5) assembly. Costs O(n log^2 n) queries.

    Each sort is given the win margin of the pairs it compares, read from
    the estimate and never from the oracle's mixture. In the orientation
    of pi, a pair of the main sort sits at positions k-1 and k (the
    anchors fill the positions below it) and a pair of the scrap sort at 1
    and 2, so the margins are those of pi[k-2] against pi[k-1] and of
    pi[0] against pi[1]. A margin read wrong costs queries, not
    correctness: the schedule reads none of a vote's own outcomes.

    Succeeds with probability >= 1 - epsilon when every discard round stops
    before its cap: a round that stops early is certified whenever the
    estimate's error is at most gamma/2. A round that reaches the cap is
    right only when its frequency error plus the estimate's totals less
    than gamma/2, which the estimate's precision gamma/2 and the cap's
    radius gamma/2 together do not ensure.

    Returns (LatentOrder, MixtureEstimate); position-p predictions on the
    returned order with weight probs_hat[p-1] reproduce the oracle's
    behavior for every k-set.
    """
    n, k = oracle.n, oracle.k
    delta, epsilon_stage, cap = recovery_split(n, k, gamma, epsilon)

    estimate = estimate_mixture(oracle, gamma, delta, epsilon_stage)
    pi = estimate.probs_hat
    tracked = pi[-1]  # probability of the end position the discard follows
    gap = min(abs(p - tracked) for p in pi[:-1])

    budget = _discard_budget(n, k, epsilon)
    discarded_block = sorted(discard_pass(
        n, k, lambda members: discard_round(oracle, members, tracked, gap, cap, budget)
    ))

    anchors = tuple(discarded_block[: k - 2])
    eligible = [x for x in range(n) if x not in discarded_block]
    order_eligible = noisy_sort(
        NoisyComparator(oracle, anchors), eligible, gamma, epsilon_stage,
        margin=_win_margin(pi, k - 2),
    )
    # winner-is-greater matches the tracked end iff its probability exceeds
    # its neighbor's; otherwise the sort came out reversed
    if pi[-1] < pi[-2]:
        order_eligible = order_eligible[::-1]

    known = order_eligible[0]
    scrap = discarded_block + [known]
    far_anchors = tuple(order_eligible[-(k - 2) :]) if k > 2 else ()
    scrap_sorted = noisy_sort(
        NoisyComparator(oracle, far_anchors), scrap, gamma, epsilon_stage,
        margin=_win_margin(pi, 0),
    )
    # the known element sits above the whole discarded block; orient so it
    # lands on top (fall back to the estimated mixture if the sort failed)
    if scrap_sorted[-1] == known:
        pass
    elif scrap_sorted[0] == known:
        scrap_sorted = scrap_sorted[::-1]
    elif pi[1] < pi[0]:
        scrap_sorted = scrap_sorted[::-1]

    full = [x for x in scrap_sorted if x != known] + list(order_eligible)
    return LatentOrder._trusted(full), estimate


def best_reflection_error(probs_hat, probs_true) -> float:
    """Max coordinate error of the estimate against the better reflection."""
    a = np.asarray(probs_hat, dtype=float)
    b = np.asarray(probs_true, dtype=float)
    return float(
        min(np.abs(a - b).max(), np.abs(a[::-1] - b).max())
    )


def orders_match_up_to_reflection(recovered: LatentOrder, truth: LatentOrder) -> bool:
    return recovered == truth or recovered == truth.reversed()
