"""
Decoding coded sums: peeling versus exact elimination
=====================================================

The master receives sums of block products and wants the individual blocks
back.  The workhorse is an iterative peeling decoder: a sum whose support
contains a single unknown block reveals that block, which is subtracted from
every other pending sum, possibly releasing more blocks, and so on.  Peeling
is linear-time but can get stuck; Gaussian elimination over the rationals
serves as the exact reference.
"""

import numpy as np

from codedcomp import (
    CodedTask,
    PeelingDecoder,
    decode_blocks,
    hybrid_example,
    recovery_threshold,
    rref_recoverable,
)

# ---------------------------------------------------------------------------
# A cascade, step by step.  Six blocks; the first sum is a singleton and each
# later arrival is unlocked by earlier recoveries.
# ---------------------------------------------------------------------------
arrivals = [
    CodedTask.of_blocks([2]),
    CodedTask.of_blocks([2, 5]),
    CodedTask.of_blocks([0, 5]),
    CodedTask.of_blocks([0, 2, 4]),
    CodedTask.of_blocks([1, 4, 5]),
]
decoder = PeelingDecoder(6)
for task in arrivals:
    fresh = decoder.ingest(task)
    print(f"received sum over {task.support}: recovered {sorted(fresh) or '-'}")
print("total recovered:", sorted(decoder.recovered))
print("redundant arrivals so far:", decoder.redundant_messages)

# With a tolerance q the master does not need everything: it stops once
# ceil((1-q) * blocks) are known.
need = recovery_threshold(6, 0.3)
print(f"\nwith tolerance 0.3 only {need} of 6 blocks are required ->",
      "met" if decoder.meets_tolerance(0.3) else "not met")

# ---------------------------------------------------------------------------
# Where peeling stops early.  The cycle x0+x1, x1+x2, x0+x2 contains no
# singleton, so peeling never starts -- but the three equations have full
# rank over the rationals and elimination solves every block.
# ---------------------------------------------------------------------------
stuck = [
    CodedTask.of_blocks([0, 1]),
    CodedTask.of_blocks([1, 2]),
    CodedTask.of_blocks([0, 2]),
]
peeler = PeelingDecoder(3)
for task in stuck:
    peeler.ingest(task)
print("\ncycle of pair sums, peeling recovered:", sorted(peeler.recovered))
print("exact elimination recovers:", sorted(rref_recoverable(stuck, 3)))

# The gap is rare on the structured assignments built here, but it is why
# rref_recoverable exists: peeling is what a streaming master can afford,
# while elimination bounds what is recoverable at all.  Every decode the
# simulator performs is guaranteed to be a subset of the elimination answer.

# ---------------------------------------------------------------------------
# Values come from one solve.  On the hand-built four-worker assignment,
# worker 0 sends both of its messages (block 0, then the sum of blocks 2 and
# 3), worker 3 only its first (block 3), and workers 1 and 2 nothing.  The
# release ranks name the recovered blocks, and one least-squares solve over
# the arrived tasks that hold only those blocks gives their values.
# ---------------------------------------------------------------------------
blocks = np.array([np.full(2, fill) for fill in (1.0, 10.0, 100.0, 1000.0)])
code = hybrid_example()
task_results = [np.einsum("wd,wdp->wp", coefs, blocks[ids])
                for ids, coefs in zip(code.support, code.coefficients)]
arrived = np.array([[True, False, False, True],    # message 1 of each worker
                    [True, False, False, False]])  # message 2 of each worker
values = decode_blocks(code, arrived, task_results)
print("\ndecoded payloads:", {b: v.round(9).tolist() for b, v in sorted(values.items())})
