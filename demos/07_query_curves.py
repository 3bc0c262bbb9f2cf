"""
Query-count scaling across universe sizes
=========================================

Active recovery spends O(n log n) queries; each vote of the mixture
recovery's noisy sort reads O(log n) answers, one extra log factor,
O(n log^2 n). Normalizing measured counts by those rates should give
flat (bounded) columns, and every count must sit above the sorting
information floor log_k((n-k)!/2). Seeded, so reruns reproduce the same table.
"""

from choicelab.harness import query_curve

print("active recovery, k=3, position=2 (normalized by n lg n):")
rows = query_curve(
    "recover-active", (16, 32, 64, 128, 256), trials=5, seed=3, k=3, position=2
)
print("   n    mean queries   /(n lg n)   floor/queries")
for r in rows:
    print(f"{r['n']:>4}  {r['mean_queries']:>12.1f}   {r['normalized']:>9.3f}"
          f"   {r['lower_bound_ratio']:>12.3f}")

print()
print("mixture recovery, pi=(0.2, 0.3, 0.5) (normalized by n lg^2 n):")
rows = query_curve(
    "recover-mixed", (20, 40, 80), trials=2, seed=4,
    pi=(0.2, 0.3, 0.5), gamma=0.09, epsilon=0.1,
)
print("   n    mean queries   /(n lg^2 n)   floor/queries")
for r in rows:
    print(f"{r['n']:>4}  {r['mean_queries']:>12.1f}   {r['normalized']:>11.1f}"
          f"   {r['lower_bound_ratio']:>13.6f}")
