"""Experiment harness: runners, report emission, determinism, query curves."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from choicelab import active, harness, mixture, passive
from choicelab.core import LatentOrder, PositionSelector
from choicelab.harness import (
    CSV_HEADER,
    ExperimentConfig,
    TrialReport,
    TrialRow,
    emit,
    query_curve,
    run,
    sorting_lower_bound,
)
from choicelab.oracles import DeterministicOracle, all_ksets
from choicelab.stats import clopper_pearson


def cfg(**kw):
    return ExperimentConfig(**kw)


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            cfg(mode="nope", n=5).validate()

    def test_missing_parameters(self):
        with pytest.raises(ValueError, match="requires parameters"):
            cfg(mode="recover-active", n=10).validate()

    def test_gamma_separation_reported(self):
        bad = cfg(
            mode="estimate-mixture", pi=(0.2, 0.3, 0.5), gamma=0.1,
            delta=0.04, epsilon=0.05,
        )
        with pytest.raises(ValueError, match="largest feasible gamma"):
            bad.validate()

    @pytest.mark.parametrize(
        "params",
        [
            dict(mode="estimate-mixture", delta=1e-9),
            # recover-mixed estimates pi at delta = gamma/2
            dict(mode="recover-mixed", n=20, gamma=1e-9),
        ],
        ids=["estimate-mixture", "recover-mixed"],
    )
    def test_repetitions_past_int64_limit_rejected(self, params):
        base = dict(pi=(0.2, 0.3, 0.5), gamma=0.09, epsilon=0.1)
        with pytest.raises(ValueError, match="int64 limit"):
            cfg(**{**base, **params}).validate()


class TestRunners:
    def test_recover_active_all_success(self):
        report = run(cfg(mode="recover-active", n=12, k=4, position=3, trials=20, seed=1))
        assert all(r.success for r in report.rows)
        assert len(report.rows) == 20

    def test_classify_rows(self):
        report = run(cfg(mode="classify", k=3, position=2, trials=5, seed=2))
        assert all(r.success for r in report.rows)
        assert all(r.queries == 4 for r in report.rows)

    def test_feasibility_single_row(self):
        report = run(cfg(mode="feasibility", n=5, seed=3))
        assert len(report.rows) == 1
        assert report.rows[0].success is True
        assert run(cfg(mode="feasibility", n=6, seed=3)).rows[0].success is False

    def test_estimate_mixture(self):
        report = run(
            cfg(mode="estimate-mixture", pi=(0.5, 0.3, 0.2), gamma=0.09,
                delta=0.04, epsilon=0.05, trials=3, seed=4)
        )
        assert all(r.success for r in report.rows)

    def test_recover_passive_small(self):
        # at n=40 the k-2 anchors alone make C(39,2)/C(40,3) = 7.5% of sets
        # unanswerable, so the success threshold must sit below 92.5%
        report = run(
            cfg(mode="recover-passive", n=40, k=3, position=2, b=8.0,
                epsilon=0.10, trials=2, seed=5)
        )
        assert all(r.success for r in report.rows)
        assert all(r.frac_correct is not None for r in report.rows)

    def test_points_redrawn_until_in_general_position(self):
        # the first of three draws repeats two pairwise distances, the
        # second and third do not: the second is kept
        tied = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

        class Draws:
            def __init__(self):
                self.draws = [tied, tied + [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]], tied * 3]

            def normal(self, size):
                return self.draws.pop(0)

        rng = Draws()
        points = harness._random_points(3, 2, rng)
        assert points.coords[1].tolist() == [1.5, 0.0] and len(rng.draws) == 1

    def test_points_never_in_general_position_refused_after_the_draw_bound(self):
        class Tied:
            calls = 0

            def normal(self, size):
                self.calls += 1
                if self.calls > 1000:  # an unbounded loop fails here, not by hanging
                    raise RuntimeError("redraws past any bound")
                return np.arange(float(size[0] * size[1])).reshape(size)

        rng = Tied()
        with pytest.raises(harness.distance.AmbiguousDistancesError,
                           match=r"none of 64 draws of n=4 points in dim 1 .* 1e-09 apart"):
            harness._random_points(4, 1, rng)
        assert rng.calls == harness._POINT_DRAWS == 64

    def test_distance_modes(self):
        med = run(cfg(mode="distance-median", k=3, dim=2, trials=10, seed=6))
        assert all(r.success for r in med.rows)
        assert all(r.frac_correct == 1.0 for r in med.rows)  # the exact regime
        srt = run(cfg(mode="distance-sort", n=10, dim=1, trials=3, seed=7))
        assert all(r.success for r in srt.rows)


@pytest.mark.parametrize("k, dim", [(5, 3), (5, 1), (7, 1)])
def test_distance_median_scores_agreement(k, dim):
    # success means no exactness promise broken; frac_correct records, on
    # every trial, whether removal agreed with the sum-of-distances minimizer
    report = run(cfg(mode="distance-median", k=k, dim=dim, trials=40, seed=9))
    assert all(r.success for r in report.rows)
    assert {r.frac_correct for r in report.rows} <= {0.0, 1.0}
    if dim == 1:
        assert all(r.frac_correct == 1.0 for r in report.rows)
    else:  # dim 3, outside the exact regime
        assert any(r.frac_correct == 0.0 for r in report.rows)


@pytest.mark.parametrize(
    "mode, entry, extra",
    [
        ("recover-mixed", "recover_mixed", {"n": 8}),
        ("estimate-mixture", "estimate_mixture", {"delta": 0.04}),
    ],
    ids=["recover-mixed", "estimate-mixture"],
)
def test_alignment_failure_fails_one_trial_only(monkeypatch, mode, entry, extra):
    real = getattr(mixture, entry)
    calls = []

    def fail_second(*args):
        calls.append(None)
        if len(calls) == 2:
            raise mixture.AlignmentFailureError("injected")
        return real(*args)

    monkeypatch.setattr(mixture, entry, fail_second)
    report = run(cfg(mode=mode, pi=(0.2, 0.3, 0.5), gamma=0.09, epsilon=0.1,
                     trials=3, seed=16, **extra))
    assert [r.success for r in report.rows] == [True, False, True]


class TestExhaustiveCheckSets:
    """An exhaustive check reads the first C(n, k) rows of the one colex
    enumeration harness keeps for k, validated when it is built and
    read-only."""

    @pytest.fixture(autouse=True)
    def fresh_enumerations(self, monkeypatch):
        monkeypatch.setattr(harness, "_CHECK_KSETS", {})

    @pytest.mark.parametrize("k, sizes", [(2, (40, 3, 17, 2)), (3, (60, 4, 25, 59)),
                                          (5, (20, 5, 11, 19)), (7, (14, 7, 13))])
    def test_prefix_is_all_ksets_after_a_larger_n(self, k, sizes):
        kept = harness._exhaustive_ksets(sizes[0], k)
        for n in sizes[1:]:
            sets = harness._exhaustive_ksets(n, k)
            assert sets.dtype == np.int64
            np.testing.assert_array_equal(sets, all_ksets(n, k))
            assert np.shares_memory(sets, kept)  # a prefix, not a new enumeration

    def test_prefix_is_read_only(self):
        harness._exhaustive_ksets(9, 3)
        for n in (9, 5):
            sets = harness._exhaustive_ksets(n, 3)
            with pytest.raises(ValueError, match="read-only"):
                sets[0, 0] = sets[0, 1]

    def test_sets_are_validated_once_per_growth(self, monkeypatch):
        calls, real = [], harness._check_sets

        def counted(k, n, sets):
            calls.append((n, k))
            return real(k, n, sets)

        monkeypatch.setattr(harness, "_check_sets", counted)
        for n, k in [(6, 3), (5, 3), (9, 3), (6, 4), (7, 3), (9, 3), (12, 3), (4, 3), (8, 4)]:
            harness._exhaustive_ksets(n, k)
        assert calls == [(6, 3), (9, 3), (6, 4), (12, 3), (8, 4)]

    @pytest.mark.parametrize("n", [9, 60])
    def test_a_wrong_model_fails_through_the_exhaustive_path(self, monkeypatch, n):
        def unvalidated(*args):
            raise AssertionError("an exhaustive check is not validated again")

        monkeypatch.setattr(harness, "evaluate_many", unvalidated)
        rng = np.random.default_rng(31)
        selector, order = PositionSelector(3, 2), LatentOrder.random(n, rng)
        model = active.recover_choice_function(DeterministicOracle(selector, order))
        assert harness._check_predictions(model, selector, order, rng)
        first, second, *rest = model.eligible_order
        wrong = [
            dataclasses.replace(model, eligible_order=(second, first, *rest)),
            dataclasses.replace(model, position_hat=1),
        ]
        for model in wrong:
            assert not harness._check_predictions(model, selector, order, rng)

    @pytest.mark.parametrize("n, shapes", [(60, []), (200, [(10_000, 3)])],
                             ids=["exhaustive", "sampled"])
    def test_only_sampled_checks_go_through_evaluate_many(self, monkeypatch, n, shapes):
        seen, real = [], harness.evaluate_many

        def recording(selector, order, sets):
            seen.append(sets.shape)
            return real(selector, order, sets)

        monkeypatch.setattr(harness, "evaluate_many", recording)
        report = run(cfg(mode="recover-active", n=n, k=3, position=2, trials=1, seed=3))
        assert report.rows[0].success and seen == shapes

    def test_the_desk_scale_grid_retains_under_100_kb(self):
        # acceptance criterion 1's grid, as the desk-sweep workload runs it:
        # k in 2..5, n from max(k+1, 2k-1) to 12, smallest n last
        grid = [(n, k) for k in range(2, 6) for n in range(12, max(k + 1, 2 * k - 1) - 1, -1)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n, k in grid:
                harness._exhaustive_ksets(n, k)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        kept = sum(math.comb(12, k) * k * 8 for k in range(2, 6))  # 54,208 bytes of ids
        assert kept <= retained < 100 * 1024
        assert sorted(harness._CHECK_KSETS) == [2, 3, 4, 5]


class TestReports:
    def make_report(self):
        report = TrialReport(config=cfg(mode="feasibility", n=5))
        report.rows = [
            TrialRow(0, 111, 5, True, None, None, 3),
            TrialRow(1, 222, 6, False, 0.5, 0.25, 4),
            TrialRow(2, 333, 7, True, None, None, 5),
        ]
        return report

    def test_csv_shape(self):
        report = self.make_report()
        lines = report.to_csv().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert lines[1] == "0,111,5,true,,,3"
        assert lines[2].startswith("1,222,6,false,0.5,0.25,")

    def test_empty_report_header_only(self):
        report = TrialReport(config=cfg(mode="feasibility", n=5))
        assert report.to_csv() == CSV_HEADER + "\n"

    def test_json_rows_plus_aggregate(self):
        data = json.loads(self.make_report().to_json())
        assert len(data["rows"]) == 3
        assert data["aggregate"]["successes"] == 2
        assert data["aggregate"]["trials"] == 3

    def test_aggregate_recomputable_from_rows(self):
        report = self.make_report()
        agg = report.aggregate
        assert agg["success_rate"] == pytest.approx(2 / 3)
        assert agg["mean_queries"] == pytest.approx(6.0)
        lo, hi = clopper_pearson(2, 3)
        assert agg["success_ci95"] == [lo, hi]

    def test_emit_roundtrip(self, tmp_path):
        report = self.make_report()
        out = tmp_path / "r.csv"
        emit(report, "csv", str(out))
        assert out.read_text() == report.to_csv()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_without_a_path_writes_stdout(self, fmt, capsys):
        report = self.make_report()
        emit(report, fmt)
        assert capsys.readouterr().out == (report.to_csv() if fmt == "csv" else report.to_json())


class TestDeterminism:
    def test_same_seed_identical_rows(self):
        a = run(cfg(mode="recover-active", n=10, k=3, position=2, trials=5, seed=9))
        b = run(cfg(mode="recover-active", n=10, k=3, position=2, trials=5, seed=9))
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_different_seed_differs(self):
        a = run(cfg(mode="recover-active", n=10, k=3, position=2, trials=5, seed=9))
        b = run(cfg(mode="recover-active", n=10, k=3, position=2, trials=5, seed=10))
        assert a.canonical_bytes() != b.canonical_bytes()

    @pytest.mark.parametrize(
        "b, want",
        [
            (8.0, b"0,8668861027912758289,61206,true,0.95,0.05\n"
                  b"1,4881901421217228719,61159,true,0.95,0.05\n"
                  b"2,16452687389592421897,61112,true,0.95,0.05\n"),
            # re-recorded when phase 2 began drawing its anchored sets directly,
            # and again when ranks began to be drawn as geometric gaps: the law
            # is unchanged, the records per seed are not. b8 has p2 = 1 at
            # n = 60, so its phase 2 holds every set and its row stays
            (2.0, b"0,8668861027912758289,23788,false,0.7665692577440093,0.23343074225599064\n"
                  b"1,4881901421217228719,24059,false,0.8177673874926943,0.18223261250730566\n"
                  b"2,16452687389592421897,23990,false,0.7791934541203974,0.22080654587960258\n"),
        ],
        ids=["b8", "b2"],
    )
    def test_recover_passive_rows_pinned(self, b, want):
        # recorded when sample_phase began drawing dense phases as one
        # uniform per k-set: the law is unchanged, the records per seed are not.
        # Queries re-recorded when phase 1 began drawing each id's choice
        # count as one binomial: the law of the phase-1 count is unchanged,
        # the count per seed is not
        report = run(cfg(mode="recover-passive", n=60, k=3, position=2, b=b, trials=3, seed=0))
        header = b"trial,seed,queries,success,frac_correct,frac_unresolved\n"
        assert report.canonical_bytes() == header + want

    @pytest.mark.parametrize("n", [60, 200], ids=["exhaustive", "sampled"])
    def test_recover_passive_computes_no_interval(self, monkeypatch, n):
        # a coverage report's interval is computed only when read, and no row reads it
        config = cfg(mode="recover-passive", n=n, k=3, position=2, b=8.0, trials=2, seed=3)
        want = run(config).canonical_bytes()

        def refuse(hits, trials):
            raise AssertionError("the run computed a coverage interval")

        monkeypatch.setattr(passive, "clopper_pearson", refuse)
        report = run(config)
        assert report.canonical_bytes() == want
        assert all(row.frac_correct is not None for row in report.rows)

    def test_recover_active_rows_pinned(self):
        # recorded when recovery began inserting eligibles by ternary
        # median queries past a merge-sorted seed block of k
        report = run(cfg(mode="recover-active", n=2000, k=3, position=2, trials=3, seed=0))
        assert report.canonical_bytes() == (
            b"trial,seed,queries,success,frac_correct,frac_unresolved\n"
            b"0,8668861027912758289,14483,true,,\n"
            b"1,4881901421217228719,14465,true,,\n"
            b"2,16452687389592421897,14461,true,,\n"
        )

    @pytest.mark.parametrize(
        "mode, params, want",
        [
            ("recover-mixed",
             dict(n=30, pi=(0.2, 0.3, 0.5), gamma=0.09, epsilon=0.1),
             b"0,8668861027912758289,380825,true,,\n"
             b"1,4881901421217228719,403871,true,,\n"
             b"2,16452687389592421897,323753,true,,\n"),
            # its query count is fixed by delta, epsilon and k: only success can move
            ("estimate-mixture",
             dict(pi=(0.5, 0.3, 0.2), gamma=0.09, delta=0.04, epsilon=0.05),
             b"0,8668861027912758289,31488,true,,\n"
             b"1,4881901421217228719,31488,true,,\n"
             b"2,16452687389592421897,31488,true,,\n"),
        ],
        ids=["recover-mixed", "estimate-mixture"],
    )
    def test_mixture_rows_pinned(self, mode, params, want):
        # recover-mixed recorded when every vote of a noisy sort began to
        # open at the count its estimated margin needs; a change to the
        # answers a seed gives shows here
        report = run(cfg(mode=mode, trials=3, seed=0, **params))
        header = b"trial,seed,queries,success,frac_correct,frac_unresolved\n"
        assert report.canonical_bytes() == header + want

    def test_trial_seeds_pairwise_distinct(self):
        report = run(cfg(mode="classify", k=3, position=1, trials=50, seed=11))
        seeds = [r.seed for r in report.rows]
        assert len(set(seeds)) == len(seeds)

    def test_trial_seeds_spawned_as_each_trial_starts(self):
        # the children of one bulk spawn, with none built before its trial
        bulk = np.random.SeedSequence(7).spawn(5)
        seeds = harness._trial_seeds(7, 1000)
        got = [next(seeds) for _ in range(5)]
        assert [child.spawn_key for _, child in got] == [c.spawn_key for c in bulk]
        assert [seed for seed, _ in got] == [
            int(c.generate_state(1, dtype=np.uint64)[0]) for c in bulk
        ]
        # past 2^63 trials, where one bulk spawn raises OverflowError
        _, child = next(harness._trial_seeds(0, 2**64))
        assert child.spawn_key == (0,)

    @pytest.mark.parametrize("master", [0, 2**32 + 1, 2**63 - 1])
    def test_trial_seeds_are_the_bulk_spawn_children(self, master):
        # built directly, each child has the same entropy, key and states
        bulk = np.random.SeedSequence(master).spawn(5)
        got = list(harness._trial_seeds(master, 5))
        assert [seed for seed, _ in got] == [
            int(c.generate_state(1, dtype=np.uint64)[0]) for c in bulk
        ]
        for (_, child), want in zip(got, bulk, strict=True):
            assert (child.entropy, child.spawn_key) == (want.entropy, want.spawn_key)
            assert child.generate_state(8).tolist() == want.generate_state(8).tolist()
            assert (
                child.generate_state(4, dtype=np.uint64).tolist()
                == want.generate_state(4, dtype=np.uint64).tolist()
            )


class TestQueryCurve:
    def test_active_curve_normalized_bounded(self):
        rows = query_curve(
            "recover-active", (16, 32, 64), trials=3, seed=12, k=3, position=2
        )
        normalized = [r["normalized"] for r in rows]
        assert max(normalized) <= 2.0
        assert all(r["lower_bound_ratio"] <= 1.0 for r in rows)

    def test_lower_bound_formula(self):
        # log_k((n-k)!/2)
        n, k = 20, 3
        want = (math.log(math.factorial(n - k)) - math.log(2)) / math.log(k)
        assert sorting_lower_bound(n, k) == pytest.approx(want)
