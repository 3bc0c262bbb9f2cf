"""The benchmark's workloads, as fixed mixes of one-trial experiment configs.

A workload is a round of `ExperimentConfig` keyword sets. Trial i runs
entry i mod len(round) of a per-round seeded shuffle, with a master seed
derived from (workload seed, i), so the same workload seed always gives
the same sequence of inputs however many trials a run gets through.
Every trial goes through the public `choicelab.harness.run` path with
trials=1, so each trial's own verification is part of the timed work.
"""

from __future__ import annotations

import numpy as np

from choicelab.harness import ExperimentConfig

# Warm-up trials come from their own seed stream, never reused by the
# measured trials.
MEASURED, WARMUP = 0, 1

MIXED = dict(mode="recover-mixed", pi=(0.2, 0.3, 0.5), gamma=0.09, epsilon=0.1)


def desk_sweep(max_n: int = 12, sort_n: int = 25, max_classify_k: int = 6) -> tuple:
    """Desk-scale trials: acceptance criterion 1's recover-active grid
    (k in 2..5, n from max(k+1, 2k-1) to max_n, every ell), classify for
    k <= max_classify_k, distance-median with k in {3, 5} and one
    distance-sort."""
    mix = [
        dict(mode="recover-active", n=n, k=k, position=ell)
        for k in range(2, 6)
        for n in range(max(k + 1, 2 * k - 1), max_n + 1)
        for ell in range(1, k + 1)
    ]
    mix += [
        dict(mode="classify", k=k, position=ell)
        for k in range(2, max_classify_k + 1)
        for ell in range(1, k + 1)
    ]
    mix += [dict(mode="distance-median", k=k) for k in (3, 5)]
    mix.append(dict(mode="distance-sort", n=sort_n))
    return tuple(mix)


WORKLOADS = {
    "active-n10k": (dict(mode="recover-active", n=10_000, k=3, position=2),),
    "mixed-n100": (dict(MIXED, n=100),),
    "passive-n200": (dict(mode="recover-passive", n=200, k=3, position=2, b=8.0),),
    "desk-sweep": desk_sweep(),
}

# The reference kernels (bench/reference.py) whose speed tracks each
# workload's on a drifting host. Picked from 60-75 s traces per workload,
# alternating between the two CPUs, with the log of the trial rate in
# 1-2 s blocks regressed on the log of each kernel's slow-down: the
# small-set kernel swings about twice as far as any workload, the
# large-array kernel about as far, and the mean of the two moves nearly one
# for one with active-n10k, mixed-n100 and desk-sweep (slopes 0.8-0.95).
# passive-n200, the least sensitive, follows the large-array kernel alone
# most closely.
REFERENCE = {
    "active-n10k": ("small_sets", "large_array"),
    "mixed-n100": ("small_sets", "large_array"),
    "passive-n200": ("large_array",),
    "desk-sweep": ("small_sets", "large_array"),
}

# The same layers at sizes that run in well under a second; the smoke
# test uses these.
TINY = {
    "active-n10k": (dict(mode="recover-active", n=200, k=3, position=2),),
    "mixed-n100": (dict(MIXED, n=12),),
    "passive-n200": (
        dict(mode="recover-passive", n=30, k=3, position=2, b=8.0, epsilon=0.2),
    ),
    "desk-sweep": desk_sweep(max_n=7, sort_n=8, max_classify_k=3),
}


def trial_config(mix: tuple, seed: int, i: int, stream: int = MEASURED) -> ExperimentConfig:
    """The config of trial i of a workload run from `seed`."""
    rnd, pos = divmod(i, len(mix))
    pick = np.random.default_rng([seed, stream, rnd]).permutation(len(mix))[pos]
    master = int(np.random.SeedSequence([seed, stream, i]).generate_state(1)[0])
    return ExperimentConfig(trials=1, seed=master, **mix[pick])


def inputs(name: str, seed: int) -> list:
    """The trial configs of a workload's first round: its generated inputs."""
    mix = WORKLOADS[name]
    return [trial_config(mix, seed, i) for i in range(len(mix))]
