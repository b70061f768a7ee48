"""Exhaustive score-vector analysis for small worker counts.

A score vector records how many tasks each worker has finished at some
instant.  For every cumulative type (histogram of scores) these routines
count how many of its score vectors let the master stop under a given
tolerance, and combine the counts with the latency law into the exact
completion-time CDF.  The counting walks every score vector by its flat
index, in chunks: each chunk is decided by one release-rank call and its
successes are binned by type.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .blocks import ComputationAssignment, CumulativeType
from .decoding import recovery_threshold
from .latency import LatencyModel, type_probability
from .simulate import _release_ranks


# Most score vectors success_table enumerates: (max_score + 1) ** n_workers.
_MAX_SCORE_VECTORS = 10**7
# Score vectors decided per release-rank call, so memory stays bounded.  At
# 9 workers with scores 0-2, 512 ran faster than 256 or 1,024 by a fifth.
_VECTORS_PER_CALL = 512


def multiset_permutations(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield the distinct permutations of ``items`` in lexicographic order
    (Narayana's next-permutation step, which skips repeats)."""
    pool = sorted(items)
    while True:
        yield tuple(pool)
        i = next((i for i in range(len(pool) - 2, -1, -1) if pool[i] < pool[i + 1]), None)
        if i is None:
            return
        j = max(j for j in range(i + 1, len(pool)) if pool[i] < pool[j])
        pool[i], pool[j] = pool[j], pool[i]
        pool[i + 1 :] = reversed(pool[i + 1 :])


def score_vectors_of_type(ctype: CumulativeType) -> Iterator[tuple[int, ...]]:
    """All assignments of the type's scores to the individual workers."""
    scores = [s for s in range(ctype.max_score + 1) for _ in range(ctype.count_for_score(s))]
    yield from multiset_permutations(scores)


def all_types(n_workers: int, max_score: int) -> list[CumulativeType]:
    """Every cumulative type for n_workers workers, in descending-score
    lexicographic order (fully finished first)."""
    results: list[CumulativeType] = []

    def walk(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            results.append(CumulativeType(tuple(prefix + [remaining])))
            return
        for c in range(remaining, -1, -1):
            walk(prefix + [c], remaining - c, slots - 1)

    walk([], n_workers, max_score + 1)
    return results


def messages_for_score(assignment: ComputationAssignment, score: int) -> list[int]:
    """Indices of the messages a worker with the given score has sent."""
    return [
        m for m, msg in enumerate(assignment.messages) if msg.tasks_done <= score
    ]


def _successes(assignment: ComputationAssignment, scores, q: float) -> np.ndarray:
    """Whether the master can stop at each row of a (vectors, n_workers)
    score array: a sent message has arrival rank 0, an unsent one infinity."""
    done = np.array([msg.tasks_done for msg in assignment.messages])[None, :, None]
    ranks = np.where(done <= np.asarray(scores)[:, None, :], 0.0, np.inf)
    release = _release_ranks(assignment, assignment.support, ranks)
    return np.count_nonzero(release < np.inf, axis=1) >= recovery_threshold(assignment.k_total, q)


def successful_score_vector(
    assignment: ComputationAssignment, scores: Sequence[int], q: float
) -> bool:
    """Whether the master can stop once the workers reach these scores."""
    if len(scores) != assignment.n_workers:
        raise ValueError(
            f"expected {assignment.n_workers} scores, got {len(scores)}"
        )
    return bool(_successes(assignment, [scores], q)[0])


def total_vectors(ctype: CumulativeType) -> int:
    """Number of distinct score vectors of the type (multinomial count)."""
    count = math.factorial(ctype.worker_count)
    for c in ctype.counts:
        count //= math.factorial(c)
    return count


def success_table(
    assignment: ComputationAssignment, q: float
) -> list[tuple[CumulativeType, int, int]]:
    """(type, successful vectors, total vectors) for every cumulative type.

    Walks the flat index of all (max_score + 1) ** n_workers score vectors
    in chunks of ``_VECTORS_PER_CALL``: a chunk's digits are its score
    array, one release-rank call decides it, and its successes are binned by
    type.  A vector's type key is its scores sorted in descending order and
    read as base-(max_score + 1) digits; ``all_types`` lists the types in
    strictly decreasing key order.

    Raises:
        ValueError: if the (max_score + 1) ** n_workers score vectors are
            more than the enumeration limit of 10**7.
    """
    base, n = assignment.max_score + 1, assignment.n_workers
    count = base**n
    if count > _MAX_SCORE_VECTORS:
        raise ValueError(
            f"enumeration needs {count} score vectors "
            f"({base}^{n}), above the limit of {_MAX_SCORE_VECTORS}"
        )
    types = all_types(n, assignment.max_score)
    weights = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = np.array([np.repeat(np.arange(base - 1, -1, -1), t.counts) @ weights for t in types])
    # The sorted scores' key without a sort: every level l >= 1 adds the
    # first C[l] weights, C[l] being the workers at score >= l.
    leading = np.concatenate(([0], np.cumsum(weights)))
    levels = np.arange(1, base)
    good = np.zeros(len(types), dtype=np.int64)
    for start in range(0, count, _VECTORS_PER_CALL):
        index = np.arange(start, min(start + _VECTORS_PER_CALL, count), dtype=np.int64)
        scores = index[:, None] // weights % base
        at_least = np.count_nonzero(scores[:, :, None] >= levels, axis=1)
        rows = np.searchsorted(-keys, -leading[at_least].sum(axis=1))
        good += np.bincount(rows[_successes(assignment, scores, q)], minlength=len(types))
    return [(ctype, int(g), total_vectors(ctype)) for ctype, g in zip(types, good)]


def completion_cdf(
    assignment: ComputationAssignment,
    q: float,
    t: float | np.ndarray,
    model: LatencyModel,
) -> float | np.ndarray:
    """Exact P(iteration finishes by time t).

    Sums, over all cumulative types, the number of successful score vectors
    times the probability of one specific vector of that type.  For an array
    of times the table is counted once, and each entry of the returned array
    equals the call at that one time.
    """
    table = [(ctype, good) for ctype, good, _ in success_table(assignment, q) if good]
    cost = assignment.task_cost

    def at(time):
        return sum((good * type_probability(c, time, model, cost) for c, good in table), 0.0)

    if np.ndim(t) == 0:
        return at(t)
    times = np.asarray(t, dtype=float)
    return np.reshape([at(time) for time in times.ravel().tolist()], times.shape)
