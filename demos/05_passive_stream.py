"""
Learning from a passive stream of observed choices
==================================================

No query control here: every k-set appears in a time window
independently (a Poisson race per set), and we only see (set, choice)
records. Phase 1 identifies the never-chosen alternatives. It is read
only through how often each alternative is chosen, so the simulator
draws just those counts, one binomial per alternative, with no set
built or answered. Phase 2 draws
the records that pair two free alternatives with a fixed anchor set,
orients each observed pair consistently, and takes the transitive
closure over the alternative ids, in which an anchor is comparable to
nothing. Queries with any unresolved internal pair are declined rather
than guessed, and scoring counts declines as errors.

The appearance probabilities shrink toward zero as n grows, so the
recovery sees a vanishing fraction of all C(n,k) sets.
"""

import math

import numpy as np

from choicelab import (
    DeterministicOracle,
    LatentOrder,
    PositionSelector,
    StreamConfig,
    build_partial_order,
    coverage_report,
    find_ineligible_passive,
    ineligible_set,
    sample_phase,
)

n, k, position, b = 250, 3, 2, 8.0
stream = StreamConfig.from_coverage(b, n)
print(f"n={n}: phase probabilities p1={stream.p1:.3f}, p2={stream.p2:.3f}")
for m in (100, 200, 400, 800):
    cfg = StreamConfig.from_coverage(b, m)
    print(f"  n={m:>3}: fraction of all sets ever observed = {cfg.observed_fraction:.3f}")

rng = np.random.default_rng(31)
hidden_order = LatentOrder.random(n, rng)
oracle = DeterministicOracle(PositionSelector(k, position), hidden_order)

# the sampler reads the universe size and k from the oracle, and each
# batch carries that universe size to the readers below
batch1 = sample_phase(
    stream, 1, oracle, np.random.default_rng(rng.integers(2**63)), counts_only=True
)
print(f"\nphase 1: {len(batch1)} records of {math.comb(n, k)} possible sets, "
      f"drawn as {n} choice counts ({oracle.query_count} sets answered)")

never = find_ineligible_passive(batch1)
print("never-chosen set found:", sorted(never),
      "| exact:", never == ineligible_set(oracle.selector, hidden_order))

# phase 2 draws only the sets that hold the anchors, and counts the rest
anchors = sorted(never)[: k - 2]
batch2 = sample_phase(
    stream, 2, oracle, np.random.default_rng(rng.integers(2**63)), anchors=anchors
)
print(f"phase 2: {len(batch2)} records, {len(batch2.sets)} of them with anchors {anchors}")
po = build_partial_order(batch2, anchors, position)
# the closure is indexed by alternative id; an anchor is comparable to nothing
print(f"closure over all {po.beats.shape[0]} ids; anchors comparable to none: "
      f"{not any(po.resolved(a, x) for a in anchors for x in range(n) if x != a)}")
print(f"anchored pairs resolved: {po.resolved_pair_fraction:.4f} "
      f"({po.unresolved_pair_count} pairs left open)")

report = coverage_report(
    po, oracle.selector, hidden_order,
    rng=np.random.default_rng(rng.integers(2**63)),
)
print(f"correct answers: {report.frac_correct:.4f} of all sets "
      f"(declined: {report.frac_unresolved:.4f}, reading: {report.reading})")
print(f"95% interval on the correct fraction: [{report.ci_low:.4f}, {report.ci_high:.4f}] "
      f"over {report.sample_size} scored sets")
