"""Weighted single-excitation states: exact measures without optimization.

For these states the best product state on any bipartition simply
concentrates the heavier side's excitation weight, so Lambda^2 =
max(sum_A gamma^2, sum_B gamma^2) / sum gamma^2 exactly. The K-block case
reduces to a maximization over one angle per block.
"""

import numpy as np

import geoent as ge

config = ge.OptimizerConfig()

gamma = (0.5, 0.5, 2 / 3, 1 / 6)
psi = ge.asym_w(gamma)

print("weights (qubit-ordered):", gamma)
for block in ({1}, {1, 2}, {2, 4}):
    closed = ge.asym_w_bisep(gamma, block)
    rest = tuple(sorted(set(range(1, 5)) - block))
    partition = ge.Partition((tuple(sorted(block)), rest))
    numeric = ge.best_overlap(psi, partition, config)
    exact = (f"{closed.exact.numerator}/{closed.exact.denominator}"
             if closed.exact is not None else "-")
    print(f"  split {partition.text}: closed E = {closed.e_g:.12f} ({exact}), "
          f"optimizer E = {numeric.e_g:.12f}")

# The absolute biseparable measure scans all splits; with equal weights it
# peaks at 1/3 for three qubits.
print("\nabsolute E^(2) over the (gamma1, gamma2) plane at gamma3 = 1/2:")
for g1 in (0.25, 0.5, 0.75, 1.0):
    row = []
    for g2 in (0.25, 0.5, 0.75, 1.0):
        value = min(ge.asym_w_bisep((g1, g2, 0.5), {q}).e_g for q in (1, 2, 3))
        row.append(f"{value:.4f}")
    print("  ", "  ".join(row))
print("equal weights give the maximum:",
      min(ge.asym_w_bisep((1, 1, 1), {q}).e_g for q in (1, 2, 3)))

# Phases on the weights never matter: they cancel against the free phases
# of the product state.
phased = ge.asym_w(gamma, xi=(0.4, 2.2, 5.1, 1.0))
for k in (2, 3):
    a = ge.egk_absolute(psi, k, config)[0]
    b = ge.egk_absolute(phased, k, config)[0]
    print(f"E^({k}) with/without phases: {a:.12f} / {b:.12f}")

# K-block values from the exact reduced form, cross-checked by the optimizer.
blocks = ge.Partition(((1,), (2,), (3, 4)))
reduced = ge.asym_w_ksep_reduced(gamma, blocks)
numeric = ge.best_overlap(psi, blocks, config)
print(f"\n3-block split {blocks.text}: reduced {reduced.e_g:.12f} "
      f"vs optimizer {numeric.e_g:.12f}")
