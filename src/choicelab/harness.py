"""Experiment orchestration: seeded trials, per-mode runners, CSV/JSON reports.

Every mode runs `trials` independent experiments whose seeds are spawned
deterministically from one master seed, so reruns with the same
configuration are reproducible row for row (wall time excepted, which is
informational only and never part of acceptance).
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import active, distance, mixture, passive
from .core import (
    MAX_IDS,
    LatentOrder,
    PositionSelector,
    _is_integer,
    _select_many,
    canonical_position,
    evaluate_many,
)
from .oracles import (
    INT64_MAX,
    DeterministicOracle,
    MixedOracle,
    MixtureDistribution,
    StreamConfig,
    all_ksets,
    largest_binomial,
    sample_phase,
    unrank_combinations,
)
from .stats import clopper_pearson

__all__ = [
    "MODES",
    "ExperimentConfig",
    "TrialRow",
    "TrialReport",
    "run",
    "emit",
    "query_curve",
    "sorting_lower_bound",
]

CSV_HEADER = "trial,seed,queries,success,frac_correct,frac_unresolved,wall_ms"
# recover-passive succeeds when at least 1 - epsilon of sampled sets are
# answered correctly; this is its epsilon when none is given
PASSIVE_EPSILON = 0.05
# prediction checks compare every k-set up to this many, else a uniform sample
_EXHAUSTIVE_CHECK_SETS = 200_000
_SAMPLED_CHECK_SETS = 10_000
# k -> all_ksets(n, k) at the largest n an exhaustive check has read
_CHECK_KSETS: dict = {}
# a distance mode's general-position check builds an m-by-m-by-dim float64
# array of coordinate differences for its m points; 512 MiB at most
_MAX_POINT_DIFFERENCES = 2**26


@dataclass
class ExperimentConfig:
    mode: str
    n: int | None = None
    k: int | None = None
    position: int | None = None  # the --ell flag
    pi: tuple | None = None
    gamma: float | None = None
    epsilon: float | None = None
    delta: float | None = None
    b: float = 8.0
    dim: int = 2
    alpha: float | None = None
    t1: float | None = None
    t2: float | None = None
    p1: float | None = None
    p2: float | None = None
    trials: int = 1
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        for name in ("trials", "seed", "dim", "n", "k", "position"):
            value = getattr(self, name)
            # an unset n, k or position is left to the mode's check below
            if not (_is_integer(value) or value is None and name in ("n", "k", "position")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("n", "k"):  # classify's default universe has k + 1 ids
            value = getattr(self, name)
            if value is not None and value >= MAX_IDS:
                raise ValueError(f"{name} must be below 2^53 = {MAX_IDS}, got {value}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.epsilon is not None and not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        _, need = _MODES[self.mode]
        missing = [name for name in need if getattr(self, name) is None]
        if missing:
            raise ValueError(f"mode {self.mode} requires parameters: {missing}")
        if self.mode in ("recover-active", "classify", "recover-passive"):
            PositionSelector(self.k, self.position)  # raises on bad k or position
        if self.mode == "recover-passive":
            if self.n < self.k:
                raise ValueError(f"need n >= k, got n={self.n}, k={self.k}")
            if not 2 <= self.position <= self.k - 1:
                raise ValueError(f"position must lie in [2, k-1], got {self.position}")
            _stream_config(self)  # raises on bad stream parameters
        if self.mode == "recover-active" and self.n - self.k + 1 < self.k:
            raise ValueError(
                f"need n - k + 1 >= k eligible alternatives for the position "
                f"query, got n={self.n}, k={self.k}"
            )
        if self.mode in ("recover-active", "recover-passive"):
            largest = largest_binomial(self.n, self.k)  # C(n, k) unless k > n/2
            if largest > INT64_MAX:
                raise ValueError(
                    f"C({self.n}, {min(self.k, self.n // 2)}) = {largest:.3e} exceeds "
                    f"the int64 limit {INT64_MAX} of colex ranks and unranking"
                )
        if self.mode == "classify" and self.n is not None and self.n < self.k + 1:
            raise ValueError(f"need n >= k+1, got n={self.n}, k={self.k}")
        if self.mode == "distance-median" and (self.k < 1 or self.k % 2 == 0):
            raise ValueError(f"distance-median needs odd k >= 1, got k={self.k}")
        if self.mode == "distance-sort" and self.n < 1:
            raise ValueError(f"distance-sort needs n >= 1 points, got n={self.n}")
        if self.mode in ("distance-median", "distance-sort"):
            points = self.k if self.mode == "distance-median" else self.n
            if points * points * self.dim > _MAX_POINT_DIFFERENCES:
                raise ValueError(
                    f"{points} points in dim {self.dim} need {points}*{points}*{self.dim} "
                    f"coordinate differences, more than the {_MAX_POINT_DIFFERENCES} allowed"
                )
        if self.mode == "feasibility" and self.n < 3:
            raise ValueError("need n >= 3")
        if self.pi is not None:
            if self.gamma is None:
                raise ValueError("pi requires gamma")
            MixtureDistribution(self.pi, self.gamma)  # raises on any bad pi or gamma
        if self.mode == "recover-mixed":  # n >= 2k, and every count within int64
            mixture.recovery_split(self.n, len(self.pi), self.gamma, self.epsilon)
        if self.mode == "estimate-mixture":
            k = len(self.pi)
            if not 0 < self.delta <= self.gamma / 2:
                raise ValueError(f"delta must lie in (0, gamma/2], got {self.delta}")
            if self.n is not None and self.n < k + 1:
                raise ValueError(f"need n >= k+1, got n={self.n}, k={k}")
            mixture.repetition_count(self.delta, self.epsilon, k)  # raises past the int64 limit


@dataclass(frozen=True)
class TrialRow:
    trial: int
    seed: int
    queries: int
    success: bool
    frac_correct: float | None
    frac_unresolved: float | None
    wall_ms: int


@dataclass
class TrialReport:
    config: ExperimentConfig
    rows: list = field(default_factory=list)

    @property
    def aggregate(self) -> dict:
        rows = self.rows
        if not rows:
            return {"trials": 0}
        successes = sum(r.success for r in rows)
        lo, hi = clopper_pearson(successes, len(rows))
        agg = {
            "trials": len(rows),
            "successes": successes,
            "success_rate": successes / len(rows),
            "success_ci95": [lo, hi],
            "mean_queries": float(np.mean([r.queries for r in rows])),
        }
        fc = [r.frac_correct for r in rows if r.frac_correct is not None]
        fu = [r.frac_unresolved for r in rows if r.frac_unresolved is not None]
        if fc:
            agg["mean_frac_correct"] = float(np.mean(fc))
        if fu:
            agg["mean_frac_unresolved"] = float(np.mean(fu))
        return agg

    def csv_lines(self, include_wall: bool = True) -> list:
        def cell(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "true" if x else "false"
            if isinstance(x, float):
                return repr(x)
            return str(x)

        header = CSV_HEADER if include_wall else CSV_HEADER.rsplit(",", 1)[0]
        lines = [header]
        for r in self.rows:
            cells = [r.trial, r.seed, r.queries, r.success, r.frac_correct, r.frac_unresolved]
            if include_wall:
                cells.append(r.wall_ms)
            lines.append(",".join(cell(c) for c in cells))
        return lines

    def to_csv(self) -> str:
        return "\n".join(self.csv_lines()) + "\n"

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: everything except wall time."""
        return ("\n".join(self.csv_lines(include_wall=False)) + "\n").encode()

    def to_json(self) -> str:
        rows = [asdict(r) for r in self.rows]
        return json.dumps({"rows": rows, "aggregate": self.aggregate}, indent=2)


def _trial_seeds(master_seed: int, trials: int):
    """Each trial's (seed int, SeedSequence), built as the trial starts.

    Trial i's child is SeedSequence(master_seed, spawn_key=(i,)), which is
    exactly the i-th child of SeedSequence(master_seed).spawn(trials): the
    same entropy and spawn key, so the same seed int and states. It is
    built directly, with no root, no spawn counter and none built ahead."""
    master = int(master_seed)
    for i in range(trials):
        child = np.random.SeedSequence(master, spawn_key=(i,))
        yield int(child.generate_state(1, dtype=np.uint64)[0]), child


def _exhaustive_ksets(n: int, k: int) -> np.ndarray:
    """all_ksets(n, k), read-only: the first C(n, k) rows of the colex
    enumeration kept for k, which lists every k-subset of [0, n) before
    any set with an id >= n. It is rebuilt, unchecked since its rows are
    k-sets by construction, only when a check needs more rows."""
    total = math.comb(n, k)
    sets = _CHECK_KSETS.get(k)
    if sets is None or len(sets) < total:
        sets = all_ksets(n, k)
        sets.setflags(write=False)
        _CHECK_KSETS[k] = sets
    return sets[:total]


def _check_predictions(model, selector, order, rng):
    """Whether the model predicts the selector's choice on every k-set, or
    on _SAMPLED_CHECK_SETS uniform k-sets when C(n, k) exceeds
    _EXHAUSTIVE_CHECK_SETS.

    An exhaustive check reads a prefix of the one enumeration kept for k
    (_exhaustive_ksets), validated when it was built, and takes the truth
    from _select_many; a sample is validated by evaluate_many."""
    n, k = order.n, selector.k
    total = math.comb(n, k)
    if total <= _EXHAUSTIVE_CHECK_SETS:
        sets = _exhaustive_ksets(n, k)
        truth = _select_many(selector.position, order, sets)
    else:
        sets = unrank_combinations(rng.integers(0, total, size=_SAMPLED_CHECK_SETS), n, k)
        truth = evaluate_many(selector, order, sets)
    predicted = _select_many(model.position_hat, model.full_order(), sets)
    return bool((predicted == truth).all())


def _run_recover_active(cfg, rng):
    selector = PositionSelector(cfg.k, cfg.position)
    order = LatentOrder.random(cfg.n, rng)
    oracle = DeterministicOracle(selector, order)
    model = active.recover_choice_function(oracle)
    ok = _check_predictions(model, selector, order, rng)
    return oracle.query_count, ok, None, None


def _run_classify(cfg, rng):
    n = cfg.n if cfg.n is not None else cfg.k + 1
    selector = PositionSelector(cfg.k, cfg.position)
    order = LatentOrder.random(n, rng)
    oracle = DeterministicOracle(selector, order)
    result = active.classify_type(oracle)
    return oracle.query_count, result == canonical_position(selector), None, None


def _run_estimate_mixture(cfg, rng):
    mix = MixtureDistribution(cfg.pi, cfg.gamma)
    n = cfg.n if cfg.n is not None else mix.k + 1
    order = LatentOrder.random(n, rng)
    oracle = MixedOracle(order, mix, rng)
    try:
        est = mixture.estimate_mixture(oracle, cfg.gamma, cfg.delta, cfg.epsilon)
    except mixture.AlignmentFailureError:
        return oracle.query_count, False, None, None
    err = mixture.best_reflection_error(est.probs_hat, mix.probs)
    return oracle.query_count, err <= cfg.delta, None, None


def _run_recover_mixed(cfg, rng):
    mix = MixtureDistribution(cfg.pi, cfg.gamma)
    order = LatentOrder.random(cfg.n, rng)
    oracle = MixedOracle(order, mix, rng)
    try:
        recovered, _ = mixture.recover_mixed(oracle, cfg.gamma, cfg.epsilon)
    except mixture.AlignmentFailureError:
        return oracle.query_count, False, None, None
    ok = mixture.orders_match_up_to_reflection(recovered, order)
    return oracle.query_count, ok, None, None


def _stream_config(cfg) -> StreamConfig:
    if cfg.p1 is not None or cfg.p2 is not None:
        if cfg.p1 is None or cfg.p2 is None:
            raise ValueError("p1 and p2 must be given together")
        if (cfg.alpha, cfg.t1, cfg.t2) != (None, None, None):
            raise ValueError("give p1 and p2 or alpha, t1 and t2, not both")
        return StreamConfig(cfg.p1, cfg.p2)
    if cfg.alpha is not None or cfg.t1 is not None or cfg.t2 is not None:
        if None in (cfg.alpha, cfg.t1, cfg.t2):
            raise ValueError("alpha, t1, t2 must be given together")
        return StreamConfig.from_rate(cfg.alpha, cfg.t1, cfg.t2)
    return StreamConfig.from_coverage(cfg.b, cfg.n)


def _run_recover_passive(cfg, rng):
    selector = PositionSelector(cfg.k, cfg.position)
    order = LatentOrder.random(cfg.n, rng)
    oracle = DeterministicOracle(selector, order)
    stream = _stream_config(cfg)
    rng1, rng2, rng3 = [np.random.default_rng(s) for s in rng.integers(0, 2**63, 3)]
    # phase 1 is read only through its choice counts, so only they are drawn
    batch1 = sample_phase(stream, 1, oracle, rng1, counts_only=True)
    try:
        never, covered = passive.find_ineligible_passive(batch1), True
    except passive.InsufficientCoverageError as exc:
        never, covered = exc.never_chosen, False
    # phase 2 is drawn, and its records counted, whether or not phase 1
    # covered; only the records that hold every anchor are built
    anchors = sorted(never)[: cfg.k - 2]
    batch2 = sample_phase(stream, 2, oracle, rng2, anchors=anchors)
    observations = len(batch1) + len(batch2)
    if not covered:
        return observations, False, 0.0, 1.0
    threshold = 1.0 - (cfg.epsilon if cfg.epsilon is not None else PASSIVE_EPSILON)
    po = passive.build_partial_order(batch2, anchors, cfg.position)
    report = passive.coverage_report(po, selector, order, rng=rng3)
    ok = report.frac_correct >= threshold
    return observations, ok, report.frac_correct, report.frac_unresolved


# Draws of a distance mode's points before _random_points gives up. With
# normal coordinates in dim 2 about 1 draw in 5 is in general position at
# n=300, and none of 20 at n=500: 64 draws almost never all fail where one
# in five passes, and cost about 3 s at n=1000, where none passes.
_POINT_DRAWS = 64


def _random_points(count, dim, rng):
    """count standard-normal points in dim dimensions, drawn again until
    they are in general position. After _POINT_DRAWS draws that are not,
    raises AmbiguousDistancesError naming count and the tolerance; the
    CLI exits 2 on it."""
    for _ in range(_POINT_DRAWS):
        try:
            return distance.MetricPoints(rng.normal(size=(count, dim)))
        except distance.AmbiguousDistancesError:
            continue
    raise distance.AmbiguousDistancesError(
        f"none of {_POINT_DRAWS} draws of n={count} points in dim {dim} had every two "
        f"pairwise distances more than {distance.MetricPoints.TOLERANCE:g} apart; "
        f"use fewer points"
    )


def _run_distance_median(cfg, rng):
    """Success means no exactness promise broken; frac_correct records, on
    every trial, whether removal agreed with the sum-of-distances minimizer
    (1.0 or 0.0), which outside the exact regime it need not."""
    points = _random_points(cfg.k, cfg.dim, rng)
    s = tuple(range(cfg.k))
    agreed = distance.median_choice(points, s) == distance.sum_of_distances_minimizer(points, s)
    # comparisons examined by the removal rounds, for the record
    sizes = range(cfg.k, 1, -2)
    queries = sum(m * (m - 1) // 2 for m in sizes)
    ok = agreed or not distance.farthest_pair_removal_is_exact(cfg.k, cfg.dim)
    return queries, ok, float(agreed), None


def _run_distance_sort(cfg, rng):
    points = _random_points(cfg.n, cfg.dim, rng)
    oracle = distance.PairDistanceOracle(points)
    ordered = distance.crowd_median_sort(oracle)
    direct = sorted(ordered, key=points.pair_distance)
    total = len(ordered)
    bound = math.ceil(2 * total * math.log2(total)) if total > 1 else 1
    ok = ordered == direct and oracle.query_count <= bound
    return oracle.query_count, ok, None, None


def _run_feasibility(cfg, rng):
    return 0, distance.feasibility_check(cfg.n), None, None


# mode -> (runner, parameters the mode requires); the one declaration of a mode
_MODES = {
    "recover-active": (_run_recover_active, ("n", "k", "position")),
    "classify": (_run_classify, ("k", "position")),
    "estimate-mixture": (_run_estimate_mixture, ("pi", "gamma", "delta", "epsilon")),
    "recover-mixed": (_run_recover_mixed, ("n", "pi", "gamma", "epsilon")),
    "recover-passive": (_run_recover_passive, ("n", "k", "position")),
    "distance-median": (_run_distance_median, ("k",)),
    "distance-sort": (_run_distance_sort, ("n",)),
    "feasibility": (_run_feasibility, ("n",)),
}
MODES = tuple(_MODES)


def run(config: ExperimentConfig) -> TrialReport:
    """Execute config.trials independent seeded trials of the configured mode."""
    config.validate()
    runner, _ = _MODES[config.mode]
    report = TrialReport(config=config)
    for trial, (seed_int, seed_seq) in enumerate(_trial_seeds(config.seed, config.trials)):
        rng = np.random.default_rng(seed_seq)
        start = time.perf_counter()
        queries, success, frac_c, frac_u = runner(config, rng)
        wall_ms = int(round((time.perf_counter() - start) * 1000))
        row = TrialRow(trial, seed_int, queries, bool(success), frac_c, frac_u, wall_ms)
        report.rows.append(row)
    return report


def emit(report: TrialReport, fmt: str, path: str | None = None) -> None:
    """Write the report to path, or to stdout when no path is given;
    deterministic column order, CSV header row fixed. A format other than
    csv or json raises ValueError before anything is written."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    text = report.to_csv() if fmt == "csv" else report.to_json()
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w") as fp:
        fp.write(text)


def sorting_lower_bound(n: int, k: int) -> float:
    """Information-theoretic floor on query counts: log_k((n-k)!/2).

    Each query can cut the feasible orderings of the n-k+1 eligible
    alternatives by at most a factor of k. n and k must be integers with
    2 <= k <= n, or ValueError.
    """
    if not (_is_integer(n) and _is_integer(k) and 2 <= k <= n):
        raise ValueError(f"need integers 2 <= k <= n, got n={n!r}, k={k!r}")
    return (math.lgamma(n - k + 1) - math.log(2)) / math.log(k)


def query_curve(mode: str, n_values, trials: int = 3, seed: int = 0, **params):
    """Mean query counts across universe sizes, normalized by the mode's bound.

    recover-active normalizes by n*log2(n); recover-mixed by n*log2(n)^2
    (each sequential vote of its noisy sort reads O(log n) answers, an
    extra log factor). Each row also carries the sorting lower bound
    ratio, which must stay at most 1.
    """
    if mode not in ("recover-active", "recover-mixed"):
        raise ValueError("query_curve supports recover-active and recover-mixed")
    rows = []
    for n in n_values:
        cfg = ExperimentConfig(mode=mode, n=n, trials=trials, seed=seed, **params)
        report = run(cfg)
        mean_q = float(np.mean([r.queries for r in report.rows]))
        lg = math.log2(n)
        denom = n * lg if mode == "recover-active" else n * lg * lg
        k = cfg.k if cfg.k is not None else len(cfg.pi)
        rows.append({"n": n, "mean_queries": mean_q, "normalized": mean_q / denom,
                     "lower_bound_ratio": sorting_lower_bound(n, k) / mean_q})
    return rows
