"""
Exhaustive success counting for small systems
=============================================

For a handful of workers, every way the iteration can unfold is enumerable.
A worker's progress at a deadline is its score: how many of its assigned
computations it finished.  Sorting scores into a cumulative type (how many
workers finished everything, all but one unit, ...) makes the enumeration
tractable: all score vectors of a type are equally likely, so counting the
successful ones per type, weighted by the type's probability, gives the
exact probability that the master finishes by the deadline.
"""

import numpy as np

from codedcomp import (
    LatencyModel,
    all_types,
    build_mcc,
    build_uc_mmc,
    completion_cdf,
    hybrid_example,
    monte_carlo,
    success_table,
)

SCHEMES = {
    "mds-style": build_mcc(4, 2, [1, 2, 4, 8]),
    "uncoded multi-message": build_uc_mmc(4, 2),
    "hybrid": hybrid_example(),
}


def show(q):
    print(f"\nsuccessful score vectors out of each type's total, q={q}")
    types = all_types(4, 2)
    labels = ["(" + ",".join(map(str, t.counts)) + ")" for t in types]
    header = " ".join(f"{label:>9}" for label in labels)
    print(f"{'':>22}{header}")
    for name, asn in SCHEMES.items():
        table = {t.counts: (good, total) for t, good, total in success_table(asn, q)}
        cells = []
        for t in types:
            good, total = table[t.counts]
            cells.append(f"{good}/{total}" if good else "-")
        print(f"{name:>22} " + " ".join(f"{c:>9}" for c in cells))


# With q=0 every block is needed; with q=0.25 the master may stop one block
# short, which opens up many more ways to finish.
show(0.0)
show(0.25)

# ---------------------------------------------------------------------------
# Folding in the worker latency law turns counts into a completion-time CDF.
# The hybrid assignment dominates the other two at q=0 because it succeeds
# on a superset of the score vectors.
# ---------------------------------------------------------------------------
model = LatencyModel(mu=10.0, alpha=0.01)
print("\nP(done by t) at q=0:")
print(f"{'t':>6} " + " ".join(f"{n:>22}" for n in SCHEMES))
# One call per scheme counts its table once for the whole grid of times.
times = [0.12, 0.2, 0.3, 0.5]
cdf = {name: completion_cdf(asn, 0.0, times, model) for name, asn in SCHEMES.items()}
for i, t in enumerate(times):
    print(f"{t:>6} " + " ".join(f"{column[i]:>22.4f}" for column in cdf.values()))

# The enumeration is exact; a quick Monte Carlo sanity check agrees:
res = monte_carlo(SCHEMES["hybrid"], 0.0, model, trials=4000, seed=5)
empirical = float(np.mean(res.times <= 0.2))
print(f"\nhybrid at t=0.2: exact {cdf['hybrid'][times.index(0.2)]:.4f}, "
      f"empirical {empirical:.4f} over 4000 trials")
