"""Exhaustive score-vector analysis for small worker counts.

A score vector records how many tasks each worker has finished at some
instant.  For every cumulative type (histogram of scores) these routines
count how many of its score vectors let the master stop under a given
tolerance, and combine the counts with the latency law into the exact
completion-time CDF.  The counting decides one score vector per class
the code cannot tell apart and weights it by the class size: one sorted
vector per type for a count rule, one per rotation orbit for a code that
turning the workers only relabels (the circular-shift codes), and every
vector otherwise.  The vectors are walked by their flat index, in chunks
decided by one release-rank call each, and their successes are binned by
type.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .blocks import DECODE_PEEL, ComputationAssignment, CumulativeType
from .decoding import _recovered, recovery_threshold
from .latency import LatencyModel, type_probability


# Most score vectors success_table enumerates: (max_score + 1) ** n_workers.
_MAX_SCORE_VECTORS = 10**7
# Score vectors decided per release-rank call, so memory stays bounded.  At
# 9 workers with scores 0-2, 512 ran faster than 256 or 1,024 by a fifth.
# A turn-invariant code walks n_workers times as many flat indices per
# window, but still decides its orbit representatives, which cluster at
# small indices, at most this many per call: deciding a whole 4,608-index
# window at once raised the enum-rcs CLI's peak RSS by 1.7 MB.
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


def _successes(assignment: ComputationAssignment, scores, q: float) -> np.ndarray:
    """Whether the master can stop at each row of a (vectors, n_workers)
    score array, once every worker has sent the messages its score reaches."""
    done = np.array([msg.tasks_done for msg in assignment.messages])[None, :, None]
    recovered = _recovered(assignment, done <= np.asarray(scores)[:, None, :])
    return np.count_nonzero(recovered, axis=1) >= recovery_threshold(assignment.k_total, q)


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


def _turns_relabel_blocks(assignment: ComputationAssignment) -> bool:
    """Whether turning the workers by one only relabels the blocks: worker
    (w + 1) % n's task of every order holds the blocks of worker w's, each
    block b turned to (b // n) * n + (b % n + 1) % n within its group of n."""
    n = assignment.n_workers
    if assignment.k_total % n:
        return False
    return all(
        np.array_equal(
            np.sort(ids // n * n + (ids % n + 1) % n, axis=1),
            np.sort(np.roll(ids, -1, axis=0), axis=1),
        )
        for ids in assignment.support
    )


def _symmetry(assignment: ComputationAssignment) -> str:
    """Which score vectors ``success_table`` decides once for a whole class.

    "types" for a count rule, which sees only how many workers sent each
    message: one sorted vector decides its type.  "turns" for a peel code
    that turning the workers only relabels: one vector decides its rotation
    orbit.  "none" otherwise: every vector is decided.
    """
    if assignment.decode != DECODE_PEEL:
        return "types"
    return "turns" if _turns_relabel_blocks(assignment) else "none"


def _orbit_representatives(start: int, stop: int, base: int, n: int, turns: int):
    """The flat indices in [start, stop) that are the smallest of their orbit
    under ``turns`` turns, and each one's orbit size.

    A turn moves the leading base-``base`` digit of an n-digit index to the
    end.  An index drops out at the first turn that makes it smaller, and a
    kept one's orbit size is ``turns`` over the number of turns that fix it.
    """
    index = np.arange(start, stop, dtype=np.int64)
    turned, fixed, top = index, np.ones_like(index), base ** (n - 1)
    for _ in range(turns - 1):
        turned = turned % top * base + turned // top
        kept = turned >= index
        index, turned, fixed = index[kept], turned[kept], fixed[kept]
        fixed += turned == index
    return index, turns // fixed


def success_table(
    assignment: ComputationAssignment, q: float
) -> list[tuple[CumulativeType, int, int]]:
    """(type, successful vectors, total vectors) for every cumulative type.

    A count rule decides one sorted vector per type and records all of the
    type's vectors or none.  Any other code walks the flat index of all
    (max_score + 1) ** n_workers score vectors, worker 0 the leading
    base-(max_score + 1) digit, in windows of n_turns * ``_VECTORS_PER_CALL``
    indices, n_turns being n_workers for a code that turning the workers
    only relabels (``_symmetry``) and 1 otherwise.  Each window's orbit
    representatives (``_orbit_representatives``) are decided at most
    ``_VECTORS_PER_CALL`` per release-rank call, and their orbit sizes are
    binned by type in exact integers.  A vector's type key is its scores
    sorted in descending order and read as digits; ``all_types`` lists the
    types in strictly decreasing key order.

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
    totals = [total_vectors(ctype) for ctype in types]
    # Each type's scores in descending order: the one vector a count rule
    # decides, and the digits of the type's key.
    sorted_scores = np.array([np.repeat(np.arange(base - 1, -1, -1), t.counts) for t in types])
    symmetry = _symmetry(assignment)
    if symmetry == "types":
        ok = np.concatenate([
            _successes(assignment, sorted_scores[at : at + _VECTORS_PER_CALL], q)
            for at in range(0, len(types), _VECTORS_PER_CALL)
        ])
        return [(ctype, total if good else 0, total) for ctype, good, total in zip(types, ok, totals)]
    weights = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = sorted_scores @ weights
    # The sorted scores' key without a sort: every level l >= 1 adds the
    # first C[l] weights, C[l] being the workers at score >= l.
    leading = np.concatenate(([0], np.cumsum(weights)))
    levels = np.arange(1, base)
    turns = n if symmetry == "turns" else 1
    window = turns * _VECTORS_PER_CALL
    good = np.zeros(len(types), dtype=np.int64)
    for start in range(0, count, window):
        reps, orbit = _orbit_representatives(start, min(start + window, count), base, n, turns)
        for at in range(0, len(reps), _VECTORS_PER_CALL):
            scores = reps[at : at + _VECTORS_PER_CALL, None] // weights % base
            at_least = np.count_nonzero(scores[:, :, None] >= levels, axis=1)
            rows = np.searchsorted(-keys, -leading[at_least].sum(axis=1))
            ok = _successes(assignment, scores, q)
            np.add.at(good, rows[ok], orbit[at : at + _VECTORS_PER_CALL][ok])
    return [(ctype, int(g), total) for ctype, g, total in zip(types, good, totals)]


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
