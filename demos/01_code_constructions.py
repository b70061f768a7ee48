"""
Building computation assignments: circular shifts, baselines, groups
====================================================================

A matrix-vector product W @ theta is distributed over K workers by cutting W
into row blocks and handing each worker a short list of coded tasks, where a
task is a known linear combination of block products.  This script builds
each construction the package offers and prints what every worker computes.
"""

import numpy as np

from codedcomp import build_mcc, build_rcs, build_uc_mmc, hybrid_example

# ---------------------------------------------------------------------------
# Partitioning: an 8x8 matrix into 4 row blocks of 2 rows each.  A code only
# names blocks by id (0 at the top), so a plain row split is all it takes.
# ---------------------------------------------------------------------------
w = np.arange(64, dtype=float).reshape(8, 8)
print("block shapes:", [b.shape for b in np.split(w, 4)])

# ---------------------------------------------------------------------------
# The randomized circular-shift construction.  Each worker stores one block
# per "order"; order j combines the degrees[j-1] blocks obtained by walking
# the circulant rows selected by a random set of shift offsets.  Fixing the
# offsets makes the construction reproducible, so we can print it exactly.
# ---------------------------------------------------------------------------
k = 20
degrees = [1, 2, 3]
assignment = build_rcs(k, degrees, offsets=[1, 4, 11, 15, 6, 18])
# Stacking the per-order task arrays row by row gives back the shift grid:
# row i is blocks 0..k-1 shifted so that worker 0 starts at offset_i - 1.
grid = np.concatenate([ids.T for ids in assignment.support])
print("\ncirculant shift offsets (1-based):", tuple(int(b) % k + 1 for b in grid[:, 0]))
print("first worker's stored blocks by row:", grid[:, 0].tolist())
print("tasks of worker 0:", [t.support for t in assignment.worker_tasks(0)])
print("tasks of worker 1:", [t.support for t in assignment.worker_tasks(1)])
print("message schedule (work units per message):", assignment.schedule())

# Without explicit offsets the offsets are drawn uniformly without
# replacement, which is the intended use:
rng = np.random.default_rng(7)
random_assignment = build_rcs(k, degrees, rng=rng)
print("a random draw, worker 0:", [t.support for t in random_assignment.worker_tasks(0)])

# ---------------------------------------------------------------------------
# Baselines on 4 workers:
#   * build_mcc    -- maximum-distance-separable tasks; the product is only
#                     decodable once some worker set finishes everything.
#   * build_uc_mmc -- uncoded blocks sent one at a time (multi-message).
#   * hybrid_example -- a hand-built hybrid of the two ideas.
# ---------------------------------------------------------------------------
for name, asn in [
    ("mds-style (kbar=2)", build_mcc(4, 2, [1, 2, 4, 8])),
    ("uncoded multi-message", build_uc_mmc(4, 2)),
    ("hybrid", hybrid_example()),
]:
    print(f"\n{name}:")
    for wk in range(asn.n_workers):
        combos = [
            (t.support, tuple(round(c, 3) for c in t.coefficients))
            for t in asn.worker_tasks(wk)
        ]
        print(f"  worker {wk}: {combos}")

# ---------------------------------------------------------------------------
# The grouped generalization cuts the matrix into groups * k blocks instead
# of k, so each block (and so each task) is cheaper by a factor of the group
# count.  Every row of the assignment matrix is tagged with a group and draws
# its shifted blocks from that group's range; a task may combine rows with
# different tags.
# ---------------------------------------------------------------------------
# z holds one group tag per row: sum([1, 2]) = 3 rows
grouped = build_rcs(8, [1, 2], rng=np.random.default_rng(3), groups=2, z=(1, 2, 1))
print("\ngrouped construction (8 workers, 2 groups, 16 blocks):")
print("  task cost per unit:", grouped.task_cost)
for wk in (0, 1):
    print(f"  worker {wk} tasks:", [t.support for t in grouped.worker_tasks(wk)])
print("  rows 0 and 2 draw group-1 blocks 0..7; row 1 draws group-2 blocks 8..15")
