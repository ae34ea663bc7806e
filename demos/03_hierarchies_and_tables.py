"""Absolute measures, the K-hierarchy, and the reference tables.

The absolute E^(K) minimizes the relative measure over K-block partitions.
Symmetric states only need one representative partition per block-size
shape; asymmetric states are scanned over all set partitions. The law
E^(K-1) <= E^(K) follows from the nesting of the separable sets, and every
report obeys it by construction: merging two blocks of a level-K argmin
keeps its overlap, so each scanned coarsening takes at most its value.
``monotonic`` reports whether the scans alone obeyed the law.
"""

import geoent as ge
from geoent.reports import compute_table, table_to_csv

config = ge.OptimizerConfig()

# Full hierarchy of the 4-qubit cluster state. The absolute minimum 1/2 is
# threefold degenerate: both K=2 shapes and the aligned K=3 partition.
report = ge.full_hierarchy(ge.cluster4(), config)
print("cluster4 hierarchy (asymmetric, full set-partition scan):")
for entry in report.entries:
    argmin = "; ".join(p.text for p in entry.argmin_partitions)
    print(f"  K={entry.k}: E = {entry.absolute_e:.12f}   argmin: {argmin}")
print("  scans monotone in K on their own:", report.monotonic)

# The same state shows that a misaligned 2|2 cut is much worse than the
# aligned one: the relative measure is partition-dependent.
for blocks in (((1, 2), (3, 4)), ((1, 3), (2, 4))):
    r = ge.best_overlap(ge.cluster4(), ge.Partition(blocks), config)
    print(f"cluster4 relative E on {r.partition.text}: {r.e_g:.6f}")

# W states: exact closed forms back every numeric value.
print("\nw(6) spot checks against closed forms:")
for shape, closed in [
    (ge.Shape((2, 4)), ge.w_bisep(2, 6)),
    (ge.Shape((1, 2, 3)), ge.w_trisep(1, 2, 3)),
    (ge.Shape((1, 1, 2, 2)), ge.w_ksep_reduced(ge.Shape((1, 1, 2, 2)))),
]:
    numeric = ge.best_overlap(ge.w(6), ge.representative_partition(shape), config)
    print(f"  {shape.text}: numeric {numeric.e_g:.10f}  closed {closed.e_g:.10f}")

# Reference tables bundle closed forms, numeric values, and their gap.
print("\nreference table V (4-qubit two-excitation state):")
print(table_to_csv(compute_table("V", config)))
