"""Finding the nearest K-separable product state.

For a fixed partition of the qubits, E = 1 - Lambda^2 is the geometric
measure, where Lambda^2 is the squared overlap with the best product state.
On a bipartition Lambda^2 is the largest squared Schmidt coefficient (one
SVD). On three or more blocks it is maximized by alternating exact
updates of two blocks at a time (each update replaces a pair of factors by
the leading singular pair of the state contracted against the others; for
an odd number of blocks the largest one is updated alone), and every
coarsening into two blocks bounds it from above.
"""

import numpy as np

import geoent as ge

config = ge.OptimizerConfig(restarts=64, seed=0)

# The 3-qubit W state against the 1|23 split: Lambda^2 = 2/3, E = 1/3.
partition = ge.Partition(((1,), (2, 3)))
result = ge.best_overlap(ge.w(3), partition, config)
print(f"w(3) vs {partition.text}:  lambda2 = {result.lambda2:.12f}  "
      f"E = {result.e_g:.12f}")
print("  winning restart:", result.winner_restart,
      " sweeps:", result.iterations, " converged:", result.converged)

# The realizing product state is returned factor by factor.
for block, factor in zip(partition.blocks, result.argmax.factors):
    print(f"  block {block}: factor = {np.round(factor, 6)}")

# Reassembling the product state reproduces the reported overlap.
assembled = result.argmax.assemble()
print("  |<Phi|psi>|^2 check:",
      abs(ge.overlap(ge.w(3), assembled)) ** 2)

# GHZ states give 1/2 on every split, here checked on a 3-block partition.
# Here the coarsening bound is 1/2 as well, so the value is certified and the
# ascent stops as soon as one restart reaches it.
r = ge.best_overlap(ge.ghz(6), ge.Partition(((1, 4), (2, 5), (3, 6))), config)
print(f"ghz(6) vs 1,4|2,5|3,6:  E = {r.e_g:.12f}  "
      f"bound 1 - upper_bound = {1 - r.upper_bound:.12f}  sweeps: {r.iterations}")

# An independent certified check on a K = 3 partition with a one-qubit block:
# branch and bound on that qubit's Bloch sphere brackets Lambda^2 in [lo, hi].
# W's maximum lies on an orbit, so the interval ends on its cell count.
full = ge.Partition(((1,), (2,), (3,)))
ascent = ge.best_overlap(ge.w(3), full, config)
lo, hi = ge.qubit_block_interval(ge.w(3), full)
print(f"w(3) vs 1|2|3: ascent lambda2 = {ascent.lambda2:.12f}  "
      f"certified interval [{lo:.12f}, {hi:.12f}] (4/9 = {4 / 9:.12f})")

# For bipartitions of arbitrary states the optimizer returns the largest
# Schmidt coefficient; compare against scipy's singular values.
import scipy.linalg

psi = ge.random_state(4, 7)
mat = psi.tensor.reshape(4, 4)
schmidt = float(np.max(scipy.linalg.svdvals(mat)) ** 2)
r = ge.best_overlap(psi, ge.Partition(((1, 2), (3, 4))), config)
print(f"random 4-qubit bipartition: optimizer {r.lambda2:.12f} "
      f"vs Schmidt {schmidt:.12f}")
