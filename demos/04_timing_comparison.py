"""
Average completion time under stragglers, 40 workers
====================================================

Forty workers, forty result blocks, every scheme doing two blocks' worth of
work per worker... except where the design chooses otherwise.  Each worker's
speed for the iteration is drawn from a shifted exponential; the master
collects messages in arrival order and stops at the recovery threshold.
The comparison below reports the mean completion time and the mean number
of messages the master had to receive, for progressively looser tolerance.

Trials are kept small here so the script runs in seconds; the acceptance
suite repeats this at 10x the trials against frozen reference statistics.
"""

from codedcomp import (
    LatencyModel,
    build_gc,
    build_mcc,
    build_uc_mmc,
    monte_carlo,
)
from codedcomp.schemes import CircularShiftSource

MODEL = LatencyModel(mu=10.0, alpha=0.01)
TRIALS = 2000
K = 40

# sources: fixed assignments simulate as-is; a CircularShiftSource is redrawn
# per trial, which is the honest way to average over a randomized
# construction (it draws only the shifts, and equals build_rcs on each draw)
SOURCES = [
    ("mds-style kbar=14", build_mcc(K, 14), (0.0,)),
    ("gradient-coding r=6", build_gc(K, 6), (0.0,)),
    ("uncoded mm r=3", build_uc_mmc(K, 3), (0.0, 0.15, 0.3)),
    ("circ-shift m=[1,2,4]", CircularShiftSource.of(K, [1, 2, 4]), (0.0, 0.15, 0.3)),
    (
        "circ-shift d=[1,2,3], coded late",
        CircularShiftSource.of(K, [1, 2, 3], mode="communication"),
        (0.0, 0.15, 0.3),
    ),
]

print(f"{'scheme':>32} {'q':>5} {'mean T':>8} {'mean msgs':>10}")
for name, source, qs in SOURCES:
    for q in qs:
        res = monte_carlo(source, q, MODEL, TRIALS, seed=11)
        print(f"{name:>32} {q:>5} {res.mean_time:>8.4f} {res.mean_messages:>10.2f}")

# Observations worth pausing on:
#   * The single-message schemes (mds-style, gradient coding) cannot profit
#     from tolerance: their one message either decodes everything or nothing.
#   * Gradient coding pays for exact sum recovery with a hard threshold of
#     K - r + 1 = 35 complete workers -- an order of magnitude slower here.
#   * The uncoded multi-message scheme is quick to start but needs many
#     messages; circular shifts trade a few coded messages for less traffic.

# ---------------------------------------------------------------------------
# The grouped variant splits blocks across 2 groups, halving the per-task
# cost.  Same total work, finer-grained progress:
# ---------------------------------------------------------------------------
z = (1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2)  # the group of each row
print()
for q in (0.0, 0.15, 0.3):
    res = monte_carlo(
        CircularShiftSource.of(K, [1, 1, 4, 8], groups=2, z=z),
        q, MODEL, TRIALS, seed=11,
    )
    print(f"{'grouped circ-shift, 2 groups':>32} {q:>5} {res.mean_time:>8.4f} "
          f"{res.mean_messages:>10.2f}")
