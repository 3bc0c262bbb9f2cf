"""
Populations that mix several rules over one embedding
=====================================================

When each query is answered by a random member of a heterogeneous
population (position p with probability pi_p), the position weights are
recoverable from O(1)-in-n queries to the subsets of a single (k+1)-set,
and the full embedding order follows from a noise-tolerant version of the
active algorithm: a frequency-matched discard pass whose rounds stop as
soon as an anytime bound certifies their pick, then padded comparisons
decided by capped sequential votes. Shown here:

1) estimating pi up to reflection, with the worked query budget, and
2) recovering the whole order and checking it against the hidden truth.
"""

import numpy as np

from choicelab import (
    LatentOrder,
    MixedOracle,
    MixtureDistribution,
    estimate_mixture,
    orders_match_up_to_reflection,
    recover_mixed,
)
from choicelab.mixture import repetition_count

truth = MixtureDistribution((0.2, 0.3, 0.5), gamma=0.09)
rng = np.random.default_rng(23)

n = 30
hidden_order = LatentOrder.random(n, rng)
oracle = MixedOracle(hidden_order, truth, rng)

delta, epsilon = 0.04, 0.05
print(f"per-subset repetitions for delta={delta}, epsilon={epsilon}: "
      f"{repetition_count(delta, epsilon, truth.k)}")
estimate = estimate_mixture(oracle, truth.gamma, delta, epsilon)
print("true pi:      ", [round(p, 3) for p in truth.probs])
print("estimated pi: ", [round(p, 3) for p in estimate.probs_hat],
      "(canonical orientation, larger end first)")
print("queries so far:", oracle.query_count)

print()
recovered, est = recover_mixed(oracle, truth.gamma, epsilon=0.1)
print("full order recovered up to reflection:",
      orders_match_up_to_reflection(recovered, hidden_order))
normalized = oracle.query_count / (n * np.log2(n) ** 2)
print(f"total queries: {oracle.query_count} = {normalized:.0f} x (n lg^2 n);",
      "each vote of the noisy sort reads O(log n) answers, one extra log",
      "factor over the noiseless algorithm")
print("estimate:", [round(p, 3) for p in est.probs_hat], f"from {est.queries} queries")
