"""CLI surface: flags, config files, env seed, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import choicelab
from choicelab import mixture
from choicelab.cli import build_parser, main
from choicelab.harness import PASSIVE_EPSILON, ExperimentConfig

BASE = [sys.executable, "-m", "choicelab"]
# the CLI subprocess imports the same package as this process, installed or not
SRC = os.path.dirname(os.path.dirname(choicelab.__file__))


def run_cli(*args, env_extra=None, base=BASE, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        base + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )


def test_feasibility_mode_exit_zero():
    proc = run_cli("feasibility", "--n", "5")
    assert proc.returncode == 0
    assert "true" in proc.stdout


def test_usage_error_exit_two():
    proc = run_cli("recover-active", "--n", "10")  # missing k and ell
    assert proc.returncode == 2


def test_unknown_mode_exit_two():
    proc = run_cli("florble")
    assert proc.returncode == 2


def test_gamma_separation_usage_error():
    proc = run_cli(
        "estimate-mixture", "--pi", "0.2,0.3,0.5", "--gamma", "0.1",
        "--delta", "0.04", "--epsilon", "0.05",
    )
    assert proc.returncode == 2
    assert "largest feasible gamma" in proc.stderr


MIXED = ["--pi", "0.2,0.3,0.5", "--gamma", "0.09"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["recover-mixed", "--n", "5", *MIXED, "--epsilon", "0.1"], "n >= 2k"),
        (["estimate-mixture", *MIXED, "--delta", "0.09", "--epsilon", "0.1"],
         "delta must lie in (0, gamma/2]"),
        (["estimate-mixture", *MIXED, "--delta", "0.04", "--epsilon", "1.5"],
         "epsilon must lie in (0, 1)"),
        (["recover-mixed", "--n", "20", *MIXED, "--epsilon", "0"],
         "epsilon must lie in (0, 1)"),
        (["estimate-mixture", "--n", "3", *MIXED, "--delta", "0.04",
          "--epsilon", "0.1"], "n >= k+1"),
        (["recover-mixed", "--n", "20", "--pi", "0.2,0.3,0.6", "--gamma", "0.09",
          "--epsilon", "0.1"], "not 1 within"),
        (["estimate-mixture", "--pi", "1.0", "--gamma", "0.09", "--delta", "0.04",
          "--epsilon", "0.1"], "need at least two position probabilities"),
        (["estimate-mixture", *MIXED, "--delta", "1e-9", "--epsilon", "0.1"], "int64 limit"),
        (["recover-mixed", "--n", "20", "--pi", "0.2,0.3,0.5", "--gamma", "1e-9",
          "--epsilon", "0.1"], "int64 limit"),
        # the count's float overflowed: math.ceil(inf) raised OverflowError
        (["estimate-mixture", *MIXED, "--delta", "1e-300", "--epsilon", "0.1"], "int64 limit"),
        # gamma/2 squared underflowed to 0: ZeroDivisionError
        (["recover-mixed", "--n", "6", "--pi", "0.2,0.3,0.5", "--gamma", "1e-200",
          "--epsilon", "0.1"], "int64 limit"),
        # the estimate's count fits, the sorts' vote cap does not: a
        # traceback once the estimate had spent its queries
        (["recover-mixed", "--n", "30", "--pi", "0.2,0.3,0.5", "--gamma", "2.5e-9",
          "--epsilon", "0.1"], "int64 limit"),
    ],
)
def test_mixture_precondition_usage_error(args, message):
    assert_usage_error(run_cli(*args), message)


@pytest.mark.parametrize(
    "args, message",
    [
        (["recover-passive", "--n", "30", "--k", "3", "--ell", "1"],
         "position must lie in [2, k-1]"),
        (["recover-active", "--n", "10", "--k", "3", "--ell", "4"],
         "position must lie in [1, 3]"),
        (["classify", "--k", "1", "--ell", "1"], "set size k must be >= 2"),
        (["distance-median", "--k", "4"], "distance-median needs odd k"),
        (["recover-active", "--n", "70", "--k", "60", "--ell", "30"],
         "need n - k + 1 >= k eligible alternatives"),
        (["recover-passive", "--n", "3000", "--k", "8", "--ell", "2"], "int64 limit"),
        (["recover-active", "--n", "400", "--k", "12", "--ell", "3"], "int64 limit"),
        (["recover-passive", "--n", "100", "--k", "90", "--ell", "2", "--p1", "1e-9",
          "--p2", "1e-9"], "C(100, 50) = "),
        (["recover-passive", "--n", "70", "--k", "68", "--ell", "2"], "C(70, 35) = "),
        (["classify", "--n", "3", "--k", "3", "--ell", "2"], "need n >= k+1"),
        (["recover-passive", "--n", "5", "--k", "6", "--ell", "3", "--p1", "0.5",
          "--p2", "0.5"], "need n >= k"),
        (["recover-passive", "--n", "3", "--k", "3", "--ell", "2"],
         "need n >= 4 for the coverage formulas"),
        (["recover-passive", "--n", "30", "--k", "3", "--ell", "2", "--p1", "0.5"],
         "p1 and p2 must be given together"),
        (["recover-passive", "--n", "30", "--k", "3", "--ell", "2", "--p1", "0.5",
          "--p2", "0.5", "--alpha", "1"], "not both"),
        (["recover-passive", "--n", "30", "--k", "3", "--ell", "2", "--p1", "0.5",
          "--p2", "0.5", "--alpha", "1", "--t1", "1", "--t2", "1"], "not both"),
        (["recover-passive", "--n", "30", "--k", "3", "--ell", "2", "--p1", "0.5",
          "--p2", "0.5", "--t2", "1"], "not both"),
        (["feasibility", "--n", "2"], "need n >= 3"),
        (["recover-active", "--n", "9", "--k", "3", "--ell", "2", "--seed", "-1"],
         "seed must be >= 0"),
        (["distance-median", "--k", "3", "--dim", "0"], "dim must be >= 1"),
        (["recover-passive", "--n", "30", "--k", "3", "--ell", "2", "--epsilon", "2"],
         "epsilon must lie in (0, 1)"),
        (["distance-sort", "--n", "0"], "distance-sort needs n >= 1"),
    ],
    ids=[
        "passive-ell-1", "active-ell-4", "classify-k-1", "median-even-k",
        "active-too-few-eligibles", "passive-rank-overflow", "active-rank-overflow", "passive-table-overflow",
        "passive-enumeration-table-overflow",
        "classify-small-n", "passive-n-below-k", "passive-coverage-small-n",
        "passive-p1-alone", "passive-probabilities-and-alpha", "passive-probabilities-and-rate",
        "passive-probabilities-and-t2", "feasibility-small-n", "negative-seed", "median-dim-0",
        "passive-epsilon-2", "distance-sort-n-0",
    ],
)
def test_precondition_usage_error(args, message):
    assert_usage_error(run_cli(*args), message)


def assert_usage_error(proc, message):
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


PASSIVE = ["recover-passive", "--n", "30", "--k", "3", "--ell", "2"]
# one small run of a mode that reads each float flag, X marking its value
FLOAT_FLAG_RUNS = {
    "gamma": ["recover-mixed", "--n", "6", "--pi", "0.2,0.3,0.5", "--gamma", "X",
              "--epsilon", "0.1"],
    "delta": ["estimate-mixture", *MIXED, "--delta", "X", "--epsilon", "0.1"],
    "epsilon": ["recover-mixed", "--n", "6", *MIXED, "--epsilon", "X"],
    "b": [*PASSIVE, "--b", "X"],
    "p1": [*PASSIVE, "--p1", "X", "--p2", "0.9"],
    "p2": [*PASSIVE, "--p1", "0.9", "--p2", "X"],
    "alpha": [*PASSIVE, "--alpha", "X", "--t1", "2.5", "--t2", "2.5"],
    "t1": [*PASSIVE, "--alpha", "1.0", "--t1", "X", "--t2", "2.5"],
    "t2": [*PASSIVE, "--alpha", "1.0", "--t1", "2.5", "--t2", "X"],
    "pi": ["estimate-mixture", "--pi", "X,0.3,0.5", "--gamma", "0.09", "--delta", "0.04",
           "--epsilon", "0.1"],
}


@pytest.mark.parametrize("value", ["1e-300", "1e300", "inf", "nan"])
@pytest.mark.parametrize("flag", list(FLOAT_FLAG_RUNS))
def test_float_flag_extremes_exit_zero_or_two(flag, value, capsys):
    # in process, so that an escaping exception fails here with its traceback
    args = [value if a == "X" else a.replace("X,", f"{value},")
            for a in FLOAT_FLAG_RUNS[flag]]
    try:
        code = main([*args, "--trials", "1", "--seed", "3"])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_distance_sort_past_general_position_exits_two():
    # no draw of 1,000 normal points keeps its 499,500 distances 1e-9
    # apart, and an unbounded redraw loop never returned
    proc = run_cli("distance-sort", "--n", "1000", "--trials", "1", "--seed", "1", timeout=60)
    assert_usage_error(proc, "none of 64 draws of n=1000 points in dim 2")
    assert "1e-09" in proc.stderr


def test_feasibility_at_large_n_runs_in_time():
    # the exact factorial of C(n, 2) took minutes from n = 3000
    proc = run_cli("feasibility", "--n", "100000", "--trials", "1", timeout=60)
    assert proc.returncode == 0
    assert ",false," in proc.stdout


def test_passive_nan_coverage_usage_error():
    # NaN passes a `b <= 0` test and min(1, NaN) is 1: every k-set was observed
    proc = run_cli("recover-passive", "--n", "30", "--k", "3", "--ell", "2", "--b", "nan")
    assert_usage_error(proc, "coverage parameter b must be positive")


def test_io_error_exit_three(tmp_path):
    proc = run_cli(
        "feasibility", "--n", "5", "--out", str(tmp_path / "no" / "dir" / "x.csv")
    )
    assert proc.returncode == 3


def test_output_file_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["recover-active", "--n", "9", "--k", "3", "--ell", "2",
            "--trials", "3", "--seed", "7"]
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    assert strip(out1.read_text()) == strip(out2.read_text())  # wall_ms excluded


def test_env_seed_fallback(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["classify", "--k", "3", "--ell", "2", "--trials", "2"]
    run_cli(*args, "--out", str(out1), env_extra={"CHOICELAB_SEED": "42"})
    run_cli(*args, "--out", str(out2), "--seed", "42")
    assert out1.read_text().splitlines()[1].split(",")[1] == \
        out2.read_text().splitlines()[1].split(",")[1]


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 9, "k": 3, "ell": 2, "trials": 2, "seed": 1}))
    out = tmp_path / "r.json"
    proc = run_cli(
        "recover-active", "--config", str(config), "--trials", "4",
        "--format", "json", "--out", str(out),
    )
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert len(data["rows"]) == 4  # flag overrode the file's trials=2


def test_json_stdout():
    proc = run_cli("feasibility", "--n", "4", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["rows"][0]["success"] is True


# Runs the CLI under an address-space cap, so that a run which tries to
# allocate past it fails fast with MemoryError instead of taking the
# machine's memory. One BLAS thread keeps numpy's own reservations small.
_CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
from choicelab.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_estimate_mixture_at_small_delta_runs_in_bounded_memory():
    # delta=1e-4 asks 1.1e9 answers of each subset; as an answer array that
    # was 8.8 GB per subset, so the run must read them as counts
    limit = 1 << 30
    args = ["estimate-mixture", "--pi", "0.2,0.3,0.5", "--gamma", "0.09",
            "--delta", "1e-4", "--epsilon", "0.1", "--trials", "1", "--format", "json"]
    threads = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    proc = run_cli(*args, env_extra=threads, base=[sys.executable, "-c", _CAPPED_CLI, str(limit)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    (row,) = json.loads(proc.stdout)["rows"]
    assert row["queries"] == 4 * mixture.repetition_count(1e-4, 0.1, 3) == 4_384_730_368


def test_stream_probability_flags():
    proc = run_cli(
        "recover-passive", "--n", "30", "--k", "3", "--ell", "2",
        "--p1", "0.9", "--p2", "0.9", "--trials", "1", "--seed", "3",
    )
    assert proc.returncode == 0


def test_stream_rate_flags():
    proc = run_cli(
        "recover-passive", "--n", "30", "--k", "3", "--ell", "2",
        "--alpha", "1.0", "--t1", "2.5", "--t2", "2.5",
        "--trials", "1", "--seed", "3",
    )
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "params, env, message",
    [
        ({"n": 9.5}, None, "argument --n: invalid int value: '9.5'"),
        ({"k": "three"}, None, "argument --k: invalid int value: 'three'"),
        ({}, {"CHOICELAB_SEED": "abc"}, "argument --seed: invalid int value: 'abc'"),
        ({"ell": 2, "fmt": "json"}, None, "unrecognized arguments: --fmt=json"),
        ({"ep": 0.1}, None, "unrecognized arguments: --ep=0.1"),  # no prefix matching
    ],
    ids=["float-n", "word-k", "env-seed-word", "unknown-key", "key-prefix"],
)
def test_config_value_parsed_as_flag_usage_error(tmp_path, params, env, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 9, "k": 3, "ell": 2, **params}))
    proc = run_cli("recover-active", "--config", str(config), env_extra=env)
    assert_usage_error(proc, message)


def test_config_list_pi_runs_like_flag(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "n": 12, "pi": [0.2, 0.3, 0.5], "gamma": 0.09, "epsilon": 0.1,
        "trials": "2", "seed": 5, "delta": None,
    }))
    from_file = run_cli("recover-mixed", "--config", str(config))
    from_flags = run_cli(
        "recover-mixed", "--n", "12", "--pi", "0.2,0.3,0.5", "--gamma", "0.09",
        "--epsilon", "0.1", "--trials", "2", "--seed", "5",
    )
    assert from_file.returncode == from_flags.returncode == 0
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    assert strip(from_file.stdout) == strip(from_flags.stdout)  # wall_ms excluded
    assert len(from_file.stdout.splitlines()) == 3


def test_every_config_field_is_a_flag_dest():
    dests = {action.dest for action in build_parser()._actions if action.option_strings}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"mode"}
    assert fields <= dests


def test_help_shows_passive_epsilon_default():
    help_text = " ".join(build_parser().format_help().split())
    assert f"recover-passive default {PASSIVE_EPSILON}" in help_text
