"""
Recovering a choice rule with O(n log n) adaptive queries
=========================================================

A discard pass (one query per round, n-k+1 rounds) isolates the k-1
never-chosen alternatives. Padding any pair of the remaining alternatives
with k-2 of those turns each query into a binary comparison, so a merge
sort orders a seed block of k; one more query reads off the selected
position and one query per never-chosen alternative places it above or
below the pack. Every other alternative is then inserted into the sorted
block: for a compromise rule the query holds it and two placed
alternatives, padded so the answer is their median, a three-way split
per query. This script recovers a
hidden rule, verifies every one of the C(n,k) predictions, and compares
the query bill against the bounds.
"""

import itertools
import math

import numpy as np

from choicelab import (
    DeterministicOracle,
    LatentOrder,
    PositionSelector,
    evaluate,
    predict,
    recover_choice_function,
)
from choicelab.harness import sorting_lower_bound

rng = np.random.default_rng(7)
n, k, position = 40, 4, 3

hidden_order = LatentOrder.random(n, rng)
oracle = DeterministicOracle(PositionSelector(k, position), hidden_order)

model = recover_choice_function(oracle)
stats = model.stats
print(f"hidden rule: position {position} of k={k}, universe n={n}")
print(f"recovered position (orientation-relative): {model.position_hat}")
print(f"queries: {oracle.query_count} total = {stats.discard_queries} discard "
      f"+ {stats.sort_comparisons} sort + {stats.position_queries} position "
      f"+ {stats.classification_queries} classification")
print(f"2 n lg n + 2k budget: {2 * n * math.log2(n) + 2 * k:.0f}")
print(f"information floor log_k((n-k)!/2): {sorting_lower_bound(n, k):.0f}")

mistakes = sum(
    predict(model, s) != evaluate(oracle.selector, hidden_order, s)
    for s in itertools.combinations(range(n), k)
)
print(f"prediction errors over all {math.comb(n, k)} k-sets: {mistakes}")
print("recovered eligible order, first ten:", list(model.eligible_order[:10]), "...")
