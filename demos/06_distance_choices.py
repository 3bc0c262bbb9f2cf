"""
Choices driven by distance comparisons
======================================

Rules that only compare pairwise distances can do what position rules
cannot: pick the "most medial" or "most distinctive" member of a set.
On triplets, choosing the element farthest from the medial one is
similarity aversion: two near-duplicates lose to the distinct option.
Shown here:

1) the median (farthest-pair removal) and outlier rules,
2) the similarity-aversion flip on a planted configuration,
3) element choices as choices of the complementary pairwise distance,
4) sorting all C(n,2) distances with arity-2 comparisons, and
5) the counting obstruction for tiny n.
"""

import numpy as np

from choicelab import (
    MetricPoints,
    PairDistanceOracle,
    crowd_median_sort,
    feasibility_check,
    median_choice,
    outlier_choice,
    sum_of_distances_minimizer,
    triplet_distance_correspondence,
)

# point i is row i: the alternatives are the ids 0..n-1, as everywhere in choicelab
line = MetricPoints([[1.0], [2.0], [3.0001], [7.0], [20.0]])
s = (0, 1, 2, 3, 4)
print("1-D points ~{1, 2, 3, 7, 20}:")
print("  farthest-pair removal survivor:", median_choice(line, s))
print("  brute-force sum-of-distances minimizer:", sum_of_distances_minimizer(line, s))

a, b, bp, ap = [0.0, 0.0], [10.0, 0.0], [10.0, 1.0], [0.0, 1.0]
with_bp = MetricPoints([a, b, bp])
with_ap = MetricPoints([a, b, ap])
print("\nsimilarity aversion (A at origin, B far right, primes nearby):")
print("  f({A, B, B'}) = A:", outlier_choice(with_bp, (0, 1, 2)) == 0)
print("  f({A, B, A'}) = B:", outlier_choice(with_ap, (0, 1, 2)) == 1)

chosen = outlier_choice(with_bp, (0, 1, 2))
print("  choosing the outlier == choosing the shortest distance:",
      triplet_distance_correspondence((0, 1, 2), chosen))

rng = np.random.default_rng(41)
n = 12
pts = MetricPoints(rng.normal(size=(n, 3)))
oracle = PairDistanceOracle(pts)
ordered = crowd_median_sort(oracle)  # every pair of the oracle's n points
exact = ordered == sorted(ordered, key=pts.pair_distance)
print(f"\nsorted all C({n},2) = {len(ordered)} pairwise distances "
      f"in {oracle.query_count} comparisons; exact: {exact}")
print("closest pair:", ordered[0], "farthest pair:", ordered[-1])

print("\ncan triplet queries ever pin down the full distance order?")
for m in range(3, 9):
    verdict = "information-starved" if feasibility_check(m) else "enough bits"
    print(f"  n={m}: 2*C(n,3) bits vs log2(C(n,2)!)-1 -> {verdict}")
