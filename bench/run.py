"""choicelab benchmark: seeded closed-loop trials through `choicelab.harness.run`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client: each trial starts after the previous one ends,
on the main thread only. `--trace 0` times the trials untraced and prints
the end-to-end metrics, with every time scaled to the speed of a reference
host by short reference kernels run between slices of trials (see
bench/reference.py); `--trace 1` runs every trial twice, untraced and
traced, checks that both give byte-identical reports and that the phase
query counts add up, and prints the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; a JSON record with the
environment is also written under bench/results/. See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy can be imported: the benchmark is one
# thread on a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_PROBES = 5
# Seconds of trials between two host-speed measurements in the timed run. A
# slice ends after the trial that crosses it, so a long trial is a slice.
SLICE_S = 0.5

# A setup probe: a fresh interpreter imports choicelab and generates the
# workload's inputs. It prints the seconds that took and then the host's
# slow-down, read in the probe itself (a reading in the waiting parent does
# not track the probe's speed) on the kernels that tracked import time
# best: with them the medians of 5 probes spread 0.09 over 10 groups, 0.28
# unscaled.
_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import choicelab, workloads
workloads.inputs(sys.argv[3], int(sys.argv[4]))
seconds = time.perf_counter() - start
import reference
print(seconds, reference.slowdown(("small_sets", "large_array")))
"""


def setup_seconds(name: str, seed: int) -> tuple:
    """Import-plus-input-generation time of SETUP_PROBES fresh interpreters:
    (wall seconds, seconds at the reference host's speed), one per probe."""
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(BENCH), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, slowdown = map(float, done.stdout.split()[-2:])
        wall.append(seconds)
        scaled.append(seconds / slowdown)
    return wall, scaled


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fp
                 if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload_seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# Trial failures that the algorithms' own guarantees allow: recover-mixed
# succeeds with probability >= 1 - epsilon and passive recovery can miss
# phase-1 coverage. A failure in any other mode is a defect.
ALLOWED_FAILURE_MODES = ("recover-mixed", "recover-passive")


def quantile(samples, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: a beta-weighted mean of
    all order statistics. With the 15-40 trials of a run on the slow
    workloads it varies much less than one or two order statistics."""
    import numpy as np
    from scipy.special import betainc

    n = len(samples)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ np.sort(np.asarray(samples)))


def run_trial(harness, config):
    """One `harness.run` call: (seconds, report or None, exception class or None)."""
    start = time.perf_counter()
    try:
        report = harness.run(config)
    except Exception as exc:  # a failing trial is recorded and the run goes on
        return time.perf_counter() - start, None, type(exc).__name__
    return time.perf_counter() - start, report, None


class Tally:
    """Running totals over a run's trials, with the output checks that need
    no tracing. Reports are not kept, so memory does not grow with the
    number of trials a run gets through."""

    def __init__(self, harness):
        self.harness = harness
        self.seconds = array("d")
        self.modes = Counter()
        self.failures = Counter()
        self.problems = []
        self.verified = self.completed = self.queries = 0
        self.coverage = 0.0
        self.lower_bound_sum, self.lower_bound_count = 0.0, 0

    def add(self, index, config, seconds, report, error):
        self.seconds.append(seconds)
        self.modes[config.mode] += 1
        row = report.rows[0] if report is not None else None
        ok = row is not None and row.success
        self.verified += ok
        if row is not None:
            self.completed += 1
            self.queries += row.queries
        self.coverage += (
            row.frac_correct if row is not None and row.frac_correct is not None
            else float(ok))
        if config.mode == "recover-active" and row is not None:
            ratio = self.harness.sorting_lower_bound(config.n, config.k) / row.queries
            self.lower_bound_sum += ratio
            self.lower_bound_count += 1
            if ratio > 1:
                self.problems.append(f"trial {index}: lower-bound ratio {ratio} > 1")
        if not ok:
            failure = error or "unverified"
            self.failures[failure] += 1
            if config.mode not in ALLOWED_FAILURE_MODES:
                self.problems.append(f"trial {index} ({config.mode}) failed: {failure}")

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def end_to_end(self, seconds, setup) -> dict:
        """The end-to-end metrics of an untraced closed-loop run, from the
        trials' time and the setup samples at the reference host's speed."""
        return {
            "trials_per_s": (self.completed / seconds, "1/s"),
            "trial_s.p50": (quantile(self.seconds, 0.5), "s"),
            "trial_s.p90": (quantile(self.seconds, 0.9), "s"),
            "queries_per_trial": (self.queries / self.completed if self.completed else 0.0,
                                  "count"),
            "success_rate": (self.verified / self.attempted, "ratio"),
            "frac_correct": (self.coverage / self.attempted, "ratio"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }


def run_closed_loop(harness, workloads, reference, kernels, mix, seed, seconds):
    """Trials 0, 1, ... back to back until `seconds` of wall time have passed,
    in slices of SLICE_S with the host's slow-down read between slices.
    Each slice's trial times are then divided by the median of the four
    readings around it (two before, two after), which follows the host's
    drift over seconds and ignores a stray reading, so the tally holds
    reference-host seconds. Returns the tally, the trials' wall time and
    their reference-host time, and the slow-down readings."""
    tally = Tally(harness)
    readings = [reference.slowdown(kernels)]
    slices = []  # (first trial, end trial, wall seconds)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        first = tally.attempted
        slice_start = time.perf_counter()
        while True:
            i = tally.attempted
            config = workloads.trial_config(mix, seed, i, workloads.MEASURED)
            tally.add(i, config, *run_trial(harness, config))
            if time.perf_counter() - slice_start >= SLICE_S:
                break
        slices.append((first, tally.attempted, time.perf_counter() - slice_start))
        readings.append(reference.slowdown(kernels))
    scaled = 0.0
    for n, (first, end, wall) in enumerate(slices):
        factor = statistics.median(readings[max(0, n - 1):n + 3])
        for j in range(first, end):
            tally.seconds[j] /= factor
        scaled += wall / factor
    return tally, sum(wall for _, _, wall in slices), scaled, readings


def run_traced(harness, workloads, tracing, mix, seed, seconds):
    """Each trial once untraced and once traced, back to back and in
    alternating order, until `seconds` of wall time have passed. Adjacent
    pairs keep the machine's speed drift out of the overhead figure."""
    tracer = tracing.Tracer()
    tally = Tally(harness)
    traced_s = 0.0
    phase_checks = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = tally.attempted
        config = workloads.trial_config(mix, seed, i, workloads.MEASURED)
        first = len(tracer.spans)
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.trial(i):
                    runs[traced] = run_trial(harness, config)
            else:
                runs[traced] = run_trial(harness, config)
        (plain_s, report, error), (t_s, t_report, t_error) = runs[False], runs[True]
        tally.add(i, config, plain_s, report, error)
        traced_s += t_s
        same = error == t_error and (report is None or (
            report.canonical_bytes() == t_report.canonical_bytes()))
        if not same:
            tally.problems.append(f"trial {i}: traced report differs from untraced")
        elif report is not None:
            phase_checks += 1
            tally.problems += tracing.phase_query_problems(
                tracer.spans[first:], config.mode, t_report.rows[0].queries)
    metrics = tracing.layer_metrics(tracer.spans, tally.attempted)
    metrics["active.lower_bound_ratio"] = (
        tally.lower_bound_sum / tally.lower_bound_count if tally.lower_bound_count else 0.0,
        "ratio")
    metrics["trace.overhead_frac"] = (traced_s / sum(tally.seconds) - 1, "ratio")
    checks = {"canonical_bytes": tally.attempted, "phase_queries": phase_checks,
              "lower_bound": tally.lower_bound_count}
    return tally, metrics, checks, tracer.spans


def measure(name, seed, seconds, trace, mix=None) -> dict:
    """One benchmark run. Returns the result line plus details for the record."""
    import reference
    import workloads

    kernels = workloads.REFERENCE[name]
    if not trace:
        setup_wall, setup = setup_seconds(name, seed)
        reference.slowdown(kernels)  # warm the kernels up

    import tracer as tracing
    from choicelab import harness

    mix = workloads.WORKLOADS[name] if mix is None else mix
    for i in range(len(mix)):  # one round from the warm-up seed stream
        run_trial(harness, workloads.trial_config(mix, seed, i, workloads.WARMUP))

    details = {"workload": name, "seconds": seconds, "trace": trace,
               "env": environment(seed)}
    if not trace:
        tally, wall, scaled, slowdowns = run_closed_loop(
            harness, workloads, reference, kernels, mix, seed, seconds)
        metrics = tally.end_to_end(scaled, setup)
        details["wall_clock"] = {
            "reference_kernels": kernels,
            "slowdown": {"median": statistics.median(slowdowns),
                         "min": min(slowdowns), "max": max(slowdowns)},
            "trials_wall_s": wall,
            "trials_per_wall_s": tally.completed / wall,
            "setup_wall_s": setup_wall,
        }
        details["setup_samples"] = setup
    else:
        tally, metrics, checks, spans = run_traced(
            harness, workloads, tracing, mix, seed, seconds)
        details["checks"] = checks
        details["span_fields"] = tracing.Span.FIELDS
        details["spans"] = [s.to_row() for s in spans]

    problems = tally.problems
    details["failures"] = dict(tally.failures)
    details["problems"] = problems
    details["trial_counts"] = dict(sorted(tally.modes.items()))
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": sum(tally.failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "choicelab" / "__init__.py").is_file():
        print(f"error: no choicelab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import choicelab
    import workloads

    if Path(choicelab.__file__).resolve().parent != SRC / "choicelab":
        print(f"error: imported choicelab from {choicelab.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")

    out = measure(args.workload, args.seed, args.seconds, args.trace)
    result, details = out["result"], out["details"]
    counts = details["trial_counts"]
    print("env: " + json.dumps(details["env"]))
    if "wall_clock" in details:
        print("wall clock: " + json.dumps(details["wall_clock"]))
    print(f"trials: {result['attempted']} attempted, {result['failed']} failed "
          f"{json.dumps(details['failures'])}, by mode {json.dumps(counts)}")
    for problem in details["problems"]:
        print(f"problem: {problem}")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, **details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
