"""
Linear regression with partially recovered gradients
====================================================

The point of tolerating unrecovered blocks: in iterative algorithms, a
slightly stale coordinate is cheaper than waiting for the slowest worker.
Here gradient descent on a synthetic least-squares problem runs with the
gradient computed distributedly; whatever blocks the master decodes by the
stopping rule update the corresponding slice of the parameter vector, and
the rest keep their previous values.
"""

import numpy as np

from codedcomp import (
    LatencyModel,
    centralized_gd,
    generate_dataset,
    train,
)
from codedcomp.schemes import CircularShiftSource

MODEL = LatencyModel(mu=10.0, alpha=0.01)
rng = np.random.default_rng(42)
ds = generate_dataset(n_samples=1000, dim=80, rng=rng)

# 8 workers, parameter vector cut into 8 blocks of 10 coordinates; the
# circular-shift code is redrawn every iteration
source = CircularShiftSource.of(8, [1, 2, 3])

results = {
    q: train(ds, source, q=q, model=MODEL, eta=0.1, iterations=60, seed=9)
    for q in (0.0, 0.15, 0.3)
}
reference = centralized_gd(ds, eta=0.1, iterations=60)

# ---------------------------------------------------------------------------
# Loss trajectories.  Zero tolerance reproduces centralized gradient descent
# step for step (it waits for every block); loose tolerance takes noisier
# steps but each iteration finishes sooner.
# ---------------------------------------------------------------------------
print(f"{'iter':>5} {'centralized':>12} " + " ".join(f"{f'q={q}':>12}" for q in results))
for it in (0, 4, 9, 19, 39, 59):
    row = " ".join(f"{results[q].losses[it]:>12.6f}" for q in results)
    print(f"{it + 1:>5} {reference.losses[it]:>12.6f} {row}")

drift = max(abs(results[0.0].losses[it] - reference.losses[it]) for it in range(60))
print(f"\nmax |q=0 - centralized| over the run: {drift:.2e}")

# ---------------------------------------------------------------------------
# What the tolerance buys: average per-iteration wait and wall-clock total.
# ---------------------------------------------------------------------------
print(f"\n{'q':>5} {'mean iter time':>15} {'total time':>11} "
      f"{'mean msgs':>10} {'mean recovered':>15}")
for q, res in results.items():
    print(f"{q:>5} {np.mean(res.times):>15.4f} {res.total_time:>11.2f} "
          f"{np.mean(res.messages):>10.1f} {np.mean(res.recovered_fraction):>15.3f}")

# The loose-tolerance runs land at a similar loss in a fraction of the
# simulated wall-clock time -- the whole argument for partial recovery,
# in one table.
