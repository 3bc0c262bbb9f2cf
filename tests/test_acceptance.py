"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Everything statistical is seeded; reruns are reproducible.

One criterion fails by design: criterion 10 asserts a literature-quoted
claim that exact arithmetic refutes (feasibility at n=3 is false, since 2
is not < log2(6)-1), and it fails honestly rather than being weakened,
with the exact counterexample in its message. Criterion 8 asserts the
n-k+1 revealing-set floor that exact counting proves; the quoted floor
"every eligible element has >= n-2 revealing sets" holds only for k=3 and
is refuted for k >= 4, which its report line shows.
"""

import itertools
import math

import numpy as np
import pytest

from choicelab.active import (
    classify_type,
    predict_many,
    recover_choice_function,
)
from choicelab.core import (
    LatentOrder,
    PositionSelector,
    canonical_position,
    evaluate_many,
    ineligible_set,
)
from choicelab.distance import (
    AmbiguousDistancesError,
    MetricPoints,
    PairDistanceOracle,
    crowd_median_sort,
    feasibility_check,
    median_choice,
    outlier_choice,
    sum_of_distances_minimizer,
)
from choicelab.harness import ExperimentConfig, query_curve, run, sorting_lower_bound
from choicelab.mixture import (
    best_reflection_error,
    estimate_mixture,
    orders_match_up_to_reflection,
    recover_mixed,
    repetition_count,
)
from choicelab.oracles import (
    DeterministicOracle,
    MixedOracle,
    MixtureDistribution,
    StreamConfig,
    all_ksets,
    sample_phase,
)
from choicelab.passive import (
    answer_many,
    build_partial_order,
    count_revealing_brute_force,
    find_ineligible_passive,
    min_revealing_count,
)
from choicelab.oracles import unrank_combinations
from choicelab.stats import clopper_pearson


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {num:>2} ({label}): {status}{tail}")


def test_criterion_01_active_exhaustive_correctness():
    """Every recovered model predicts every k-set exactly, over the full sweep."""
    rng = np.random.default_rng(101)
    failures = 0
    runs = 0
    for k in range(2, 6):
        for n in range(max(k + 1, 2 * k - 1), 13):
            sets = all_ksets(n, k)
            for position in range(1, k + 1):
                selector = PositionSelector(k, position)
                for _ in range(50):
                    order = LatentOrder.random(n, rng)
                    oracle = DeterministicOracle(selector, order)
                    model = recover_choice_function(oracle)
                    want = evaluate_many(selector, order, sets)
                    if not (predict_many(model, sets) == want).all():
                        failures += 1
                    runs += 1
    ok = failures == 0
    _report(1, "active exhaustive correctness", ok, f"{runs} runs, {failures} failures")
    assert ok


def test_criterion_02_active_query_counts():
    """Discard is exactly n-k+1; total within 2n lg n + 2k and above the
    information-theoretic floor, k=3, n in {16..512}."""
    k = 2 + 1
    problems = []
    for n in (16, 32, 64, 128, 256, 512):
        order = LatentOrder.random(n, np.random.default_rng(n))
        oracle = DeterministicOracle(PositionSelector(k, 2), order)
        model = recover_choice_function(oracle)
        total = oracle.query_count
        if model.stats.discard_queries != n - k + 1:
            problems.append(f"n={n}: discard {model.stats.discard_queries}")
        if total > 2 * n * math.log2(n) + 2 * k:
            problems.append(f"n={n}: total {total} above bound")
        if total < sorting_lower_bound(n, k):
            problems.append(f"n={n}: total {total} below lower bound")
    ok = not problems
    _report(2, "active query counts", ok, "; ".join(problems) or "all n within bounds")
    assert ok, problems


def test_criterion_03_type_classification():
    """Exactly k+1 queries; returns min(position, k-position+1), all k <= 6."""
    rng = np.random.default_rng(103)
    problems = []
    for k in range(2, 7):
        for position in range(1, k + 1):
            selector = PositionSelector(k, position)
            for order in (LatentOrder.identity(k + 2), LatentOrder.random(k + 2, rng)):
                oracle = DeterministicOracle(selector, order)
                got = classify_type(oracle)
                if got != canonical_position(selector):
                    problems.append(f"(k={k}, position={position}) -> {got}")
                if oracle.query_count != k + 1:
                    problems.append(f"(k={k}, position={position}): {oracle.query_count} queries")
    ok = not problems
    _report(3, "type classification", ok, "; ".join(problems) or "exhaustive over k <= 6")
    assert ok, problems


def test_criterion_04_mixture_estimation():
    """200 trials at delta=0.04, epsilon=0.05: Clopper-Pearson 95% lower
    bound on the success rate is at least 0.90."""
    mix = MixtureDistribution((0.5, 0.3, 0.2), 0.09)
    reps = repetition_count(0.04, 0.05, 3)
    assert reps == 7872  # the corrected-formula value at these settings
    rng = np.random.default_rng(104)
    trials, hits = 200, 0
    for _ in range(trials):
        order = LatentOrder.random(10, rng)
        oracle = MixedOracle(order, mix, rng)
        est = estimate_mixture(oracle, 0.09, 0.04, 0.05)
        if best_reflection_error(est.probs_hat, mix.probs) <= 0.04:
            hits += 1
    lo, _ = clopper_pearson(hits, trials)
    ok = lo >= 0.90
    _report(4, "mixture estimation", ok, f"{hits}/{trials} within delta, CP lower {lo:.4f}")
    assert ok, (hits, lo)


def test_criterion_05_alignment_exactness():
    """Noise-free tables align exactly (up to reflection) for all k <= 6."""
    from choicelab.mixture import align_frequency_tables

    failures = []
    cases = 0
    for k in range(2, 7):
        for perm in itertools.permutations(range(1, k + 1)):
            total = sum(perm)
            pi = tuple(w / total for w in perm)
            tables = []
            base = list(range(k + 1))
            for excluded in base:
                members = [x for x in base if x != excluded]
                tables.append({m: pi[pos] for pos, m in enumerate(members)})
            want = pi if pi[0] >= pi[-1] else tuple(reversed(pi))
            if align_frequency_tables(tables) != want:
                failures.append((k, pi))
            cases += 1
    ok = not failures
    _report(5, "alignment exactness", ok, f"{cases} weight vectors, {len(failures)} failures")
    assert ok, failures


def test_criterion_06_mixed_recovery():
    """n=30 order recovery in >= 85 of 100 trials; normalized query count
    bounded across n in {20, 40, 80}."""
    mix = MixtureDistribution((0.2, 0.3, 0.5), 0.09)
    rng = np.random.default_rng(106)
    trials, hits = 100, 0
    for _ in range(trials):
        order = LatentOrder.random(30, rng)
        oracle = MixedOracle(order, mix, rng)
        recovered, _ = recover_mixed(oracle, 0.09, 0.1)
        if orders_match_up_to_reflection(recovered, order):
            hits += 1
    curve = query_curve(
        "recover-mixed",
        (20, 40, 80),
        trials=3,
        seed=1060,
        pi=(0.2, 0.3, 0.5),
        gamma=0.09,
        epsilon=0.1,
    )
    normalized = [row["normalized"] for row in curve]
    bounded = max(normalized) <= 1.5 * min(normalized)
    floor_ok = all(row["lower_bound_ratio"] <= 1.0 for row in curve)
    ok = hits >= 85 and bounded and floor_ok
    _report(
        6,
        "mixed recovery",
        ok,
        f"{hits}/{trials} recovered; normalized queries/(n lg^2 n) = "
        + ", ".join(f"{v:.0f}" for v in normalized)
        + f"; band max/min = {max(normalized) / min(normalized):.3f} (limit 1.5)",
    )
    assert ok, (hits, normalized)


def test_criterion_07_passive_recovery():
    """n=200, k=3, b=8: >= 95% correct on 1e5 sampled sets in >= 90 of 100
    trials; resolved answers sound whenever the never-chosen set is exact;
    observed-set fraction decreasing over n in {100, 200, 400}."""
    n, k, position, b = 200, 3, 2, 8.0
    stream = StreamConfig.from_coverage(b, n)
    selector = PositionSelector(k, position)
    root = np.random.SeedSequence(107)
    trials = 100
    covered, sound_checked, unsound, unresolved_ok = 0, 0, 0, 0
    for child in root.spawn(trials):
        r1, r2, r3, r4 = [np.random.default_rng(s) for s in child.spawn(4)]
        order = LatentOrder.random(n, r4)
        oracle = DeterministicOracle(selector, order)
        batch1 = sample_phase(stream, 1, oracle, r1)
        never = find_ineligible_passive(batch1)
        anchors = sorted(never)[: k - 2]
        # phase 2 draws only the records that hold the anchors, the ones
        # build_partial_order reads, equal in law to those of the full phase
        batch2 = sample_phase(stream, 2, oracle, r2, anchors=anchors)
        po = build_partial_order(batch2, anchors, position)
        if po.unresolved_pair_count / math.comb(n - k + 2, 2) <= 0.02:
            unresolved_ok += 1
        sets = unrank_combinations(
            r3.integers(0, math.comb(n, k), size=100_000), n, k
        )
        truth = evaluate_many(selector, order, sets)
        best_frac, best_sound = 0.0, False
        for pos in (position, k - position + 1):
            ans = answer_many(po, sets, pos)
            frac = float((ans == truth).mean())
            resolved = ans != -1
            sound = bool((ans[resolved] == truth[resolved]).all())
            if frac >= best_frac:
                best_frac, best_sound = frac, sound
        if best_frac >= 0.95:
            covered += 1
        if never == ineligible_set(selector, order):
            sound_checked += 1
            if not best_sound:
                unsound += 1
    fractions = [
        StreamConfig.from_coverage(b, m).observed_fraction for m in (100, 200, 400)
    ]
    decreasing = all(a > b2 for a, b2 in zip(fractions, fractions[1:]))
    ok = (
        covered >= 90
        and unsound == 0
        and sound_checked > 0
        and decreasing
        and unresolved_ok >= 95
    )
    _report(
        7,
        "passive recovery",
        ok,
        f"{covered}/100 trials >= 95% correct; 0 unsound of {sound_checked} exact-S** "
        f"trials (got {unsound}); unresolved-pair fraction <= 2% in {unresolved_ok}/100; "
        f"observed fraction {', '.join(f'{f:.3f}' for f in fractions)}",
    )
    assert ok, (covered, unsound, unresolved_ok, fractions)


def test_criterion_08_revealing_query_bound():
    """Floor of revealing sets per eligible element, all valid (k, position).

    The quoted floor is n-2. The k=3 slice meets it with equality, but for
    k >= 4 it is false: the boundary eligible element admits only n-k+1
    revealing sets (e.g. n=10, k=4, position=3 gives 7 < 8). The element
    with r alternatives below it has C(r, position-1) * C(n-1-r, k-position)
    revealing sets. That product is smallest at a boundary eligible element,
    and its minimum over positions 2..k-1 is exactly n-k+1. This check
    asserts that floor, that it is reached at positions 2 and k-1, and, for
    n <= 12, that each minimum equals brute-force enumeration.
    """
    problems = []
    k3_minima = []
    refuted = []
    for n in range(5, 31):
        for k in range(3, min(6, n - 1) + 1):
            if n < k + 1:
                continue
            for position in range(2, k):
                case = (n, k, position)
                minimum = min_revealing_count(n, k, position)
                if k == 3:
                    k3_minima.append(minimum == n - 2)
                if minimum < n - 2:
                    refuted.append((*case, minimum))
                boundary = min(
                    math.comb(n - position, k - position),
                    math.comb(n - k + position - 1, position - 1),
                )
                if minimum != boundary:
                    problems.append(f"{case}: minimum {minimum} != boundary count {boundary}")
                if minimum < n - k + 1:
                    problems.append(f"{case}: minimum {minimum} < n-k+1 = {n - k + 1}")
                if k >= 4 and position in (2, k - 1) and minimum != n - k + 1:
                    problems.append(f"{case}: minimum {minimum} != n-k+1 = {n - k + 1}")
                if n <= 12:
                    brute = min(
                        count_revealing_brute_force(n, k, position, rank)
                        for rank in range(position - 1, n - k + position)
                    )
                    if minimum != brute:
                        problems.append(f"{case}: minimum {minimum} != brute force {brute}")
    assert all(k3_minima), "k=3 slice must meet the n-2 floor exactly"
    ok = not problems
    quoted = next((r for r in refuted if r[:3] == (10, 4, 3)), None)
    _report(
        8,
        "revealing-query bound",
        ok,
        "k=3 minimum equals n-2 throughout; floor n-k+1 holds everywhere, "
        "reached at positions 2 and k-1, brute force agrees for n <= 12; "
        f"the quoted n-2 floor fails in {len(refuted)} k >= 4 cases, e.g. "
        f"n={quoted[0]}, k={quoted[1]}, position={quoted[2]} has "
        f"{quoted[3]} < {quoted[0] - 2}"
        if ok
        else f"{len(problems)} cases off the n-k+1 floor, first: {problems[0]}",
    )
    assert ok, f"revealing-set floor n-k+1 violated: {problems[:5]}"


def test_criterion_09_distance_procedures():
    """Median rule matches brute force on 1e4 random triplets per dimension;
    similarity-aversion identities exact; distance sort exact within budget."""
    rng = np.random.default_rng(109)
    mismatches = 0
    for dim in range(1, 6):
        for _ in range(10_000):
            while True:
                try:
                    pts = MetricPoints(rng.normal(size=(3, dim)))
                    break
                except AmbiguousDistancesError:
                    continue
            if median_choice(pts, (0, 1, 2)) != sum_of_distances_minimizer(pts, (0, 1, 2)):
                mismatches += 1

    pts_b = MetricPoints([[0.0, 0.0], [10.0, 0.0], [10.0, 1.0]])
    pts_a = MetricPoints([[0.0, 0.0], [10.0, 0.0], [0.0, 1.0]])
    identities = outlier_choice(pts_b, (0, 1, 2)) == 0 and outlier_choice(pts_a, (0, 1, 2)) == 1

    sort_ok = True
    for n in range(3, 26):
        while True:
            try:
                pts = MetricPoints(rng.normal(size=(n, 2)))
                break
            except AmbiguousDistancesError:
                continue
        oracle = PairDistanceOracle(pts)
        ordered = crowd_median_sort(oracle)
        total = math.comb(n, 2)
        if ordered != sorted(ordered, key=pts.pair_distance):
            sort_ok = False
        if oracle.query_count > 2 * total * math.log2(total):
            sort_ok = False

    ok = mismatches == 0 and identities and sort_ok
    _report(
        9,
        "distance procedures",
        ok,
        f"median mismatches {mismatches}/50000; identities {identities}; "
        f"sorts exact within budget {sort_ok}",
    )
    assert ok


def test_criterion_10_counting_check():
    """Feasibility predicate claimed true for n in {3,4,5}, false for {6..10}.

    Exact arithmetic refutes the n=3 case: 2*C(3,3) = 2 while
    log2(C(3,2)!)-1 = log2(6)-1 ~ 1.585, so the predicate is false there
    and this check fails honestly. n in {4,5} and {6..10} come out as
    claimed.
    """
    got = {n: feasibility_check(n) for n in range(3, 11)}
    want = {n: n <= 5 for n in range(3, 11)}
    wrong = {n: got[n] for n in got if got[n] != want[n]}
    ok = not wrong
    _report(
        10,
        "counting check",
        ok,
        "as claimed"
        if ok
        else (
            f"exact arithmetic disagrees at {sorted(wrong)}: n=3 gives "
            f"2*C(3,3)=2 >= log2(3!)-1={math.log2(6) - 1:.3f}; "
            f"n in {{4,5}} true and n in {{6..10}} false as claimed"
        ),
    )
    assert ok, (
        f"claimed-true cases that are false by exact arithmetic: {sorted(wrong)} "
        f"(n=3: 2 >= log2(6)-1 = {math.log2(6) - 1:.4f})"
    )


def test_criterion_11_determinism():
    """Identical master seed reruns byte-identically (wall time excluded)."""
    configs = [
        dict(mode="recover-active", n=10, k=3, position=2, trials=3),
        dict(mode="classify", k=4, position=2, trials=3),
        dict(mode="estimate-mixture", pi=(0.6, 0.3, 0.1), gamma=0.15,
             delta=0.05, epsilon=0.1, trials=2),
        dict(mode="recover-mixed", n=8, pi=(0.6, 0.3, 0.1), gamma=0.15,
             epsilon=0.2, trials=1),
        dict(mode="recover-passive", n=30, k=3, position=2, epsilon=0.2, trials=2),
        dict(mode="distance-median", k=3, dim=3, trials=3),
        dict(mode="distance-sort", n=8, dim=2, trials=2),
        dict(mode="feasibility", n=5, trials=1),
    ]
    diffs = []
    for params in configs:
        a = run(ExperimentConfig(seed=1111, **params))
        b = run(ExperimentConfig(seed=1111, **params))
        if a.canonical_bytes() != b.canonical_bytes():
            diffs.append(params["mode"])
    ok = not diffs
    _report(11, "determinism", ok, "all modes byte-identical" if ok else f"diffs: {diffs}")
    assert ok, diffs
