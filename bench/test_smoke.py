"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python -m pytest bench/test_smoke.py -q

Checks that each run emits exactly the metrics BENCHMARK.json names, with
their units, and that the output checks (traced/untraced report equality,
per-phase query sums, the lower-bound ratio) actually run and can fail.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from choicelab import harness  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_workloads_match_spec():
    names = {w["name"] for w in SPEC["workloads"]}
    assert set(workloads.WORKLOADS) == names
    assert set(workloads.TINY) == names
    assert set(workloads.REFERENCE) == names


def test_trial_inputs_depend_only_on_seed():
    a = workloads.inputs("desk-sweep", 7)
    b = workloads.inputs("desk-sweep", 7)
    c = workloads.inputs("desk-sweep", 8)
    assert a == b
    assert a != c


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_and_checked(name, trace, kind):
    out = run.measure(name, seed=5, seconds=0.3, trace=trace, mix=workloads.TINY[name])
    result, details = out["result"], out["details"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, details["failures"]
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        clock = details["wall_clock"]
        assert clock["slowdown"]["min"] > 0
        assert clock["trials_wall_s"] > 0
        assert len(details["setup_samples"]) == run.SETUP_PROBES
    if trace:
        checks = details["checks"]
        assert checks["canonical_bytes"] == result["attempted"]
        assert checks["phase_queries"] == result["attempted"]
        modes = details["trial_counts"]
        assert checks["lower_bound"] == modes.get("recover-active", 0)


@pytest.mark.parametrize("config", [
    dict(mode="recover-active", n=40, k=3, position=2),
    dict(mode="recover-mixed", n=12, pi=(0.2, 0.3, 0.5), gamma=0.09, epsilon=0.1),
    dict(mode="recover-passive", n=30, k=3, position=2, epsilon=0.2),
    dict(mode="classify", k=4, position=2),
    dict(mode="distance-sort", n=8),
])
def test_phase_query_check_catches_a_miscount(config):
    t = tracer.Tracer()
    with t.trial(0):
        report = harness.run(harness.ExperimentConfig(seed=11, **config))
    queries = report.rows[0].queries
    assert tracer.phase_query_problems(t.spans, config["mode"], queries) == []
    assert tracer.phase_query_problems(t.spans, config["mode"], queries + 1)


def test_tracing_ends_with_the_trial():
    def bindings():
        return (harness.run, harness.evaluate_many, harness.sample_phase,
                tracer.oracles.DeterministicOracle.__dict__["query"])

    before = bindings()
    t = tracer.Tracer()
    with t.trial(0):
        assert bindings() != before
    assert bindings() == before
