"""Exhaustive score-vector analysis for small worker counts.

A score vector records how many tasks each worker has finished at some
instant.  For every cumulative type (histogram of scores) these routines
count how many of its score vectors let the master stop under a given
tolerance, and combine the counts with the latency law into the exact
completion-time CDF.  The counting decides one score vector per class
the code cannot tell apart and weights it by the class size: one sorted
vector per type for a count rule, one per rotation orbit for a code that
turning the workers only relabels (the circular-shift codes), and every
vector otherwise.  The orbits' smallest vectors come from a necklace walk
that visits only the prenecklaces; every other vector is walked by its flat
index.  Either way the vectors come in chunks decided by one release-rank
call each, and their successes are binned by type.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Sequence

import numpy as np

from .blocks import DECODE_PEEL, ComputationAssignment, CumulativeType
from .decoding import _block_tables, _recovered, recovery_threshold
from .latency import LatencyModel, type_probability


# Most score vectors success_table enumerates: (max_score + 1) ** n_workers.
_MAX_SCORE_VECTORS = 10**7
# Score vectors decided per release-rank call, so memory stays bounded.  At
# 9 workers with scores 0-2, 512 ran faster than 256 or 1,024 by a sixth.
# The necklace walk also extends at most this many prefixes at a time.
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
    for name, value in (("n_workers", n_workers), ("max_score", max_score)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    results: list[CumulativeType] = []

    def walk(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            results.append(CumulativeType(tuple(prefix + [remaining])))
            return
        for c in range(remaining, -1, -1):
            walk(prefix + [c], remaining - c, slots - 1)

    walk([], n_workers, max_score + 1)
    return results


@functools.lru_cache(maxsize=1)
def _chunk_tables(assignment: ComputationAssignment, rows: int):
    """The block tables of a chunk of rows score vectors.  The last ones are
    kept, so every full chunk of a walk reuses one."""
    return _block_tables(assignment, rows)


def _successes(assignment: ComputationAssignment, scores, q: float) -> np.ndarray:
    """Whether the master can stop at each row of a (vectors, n_workers)
    score array, once every worker has sent the messages its score reaches."""
    done = np.array([msg.tasks_done for msg in assignment.messages])[None, :, None]
    sent = done <= np.asarray(scores)[:, None, :]
    recovered = _recovered(assignment, sent, _chunk_tables(assignment, len(sent)))
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


def _necklaces(base: int, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The smallest string of every rotation orbit of the base-``base``
    strings of length n, with its orbit size, in increasing flat-index order:
    (digits, orbit) chunks of ``_VECTORS_PER_CALL`` rows, the last one
    shorter.

    The walk is the Fredricksen-Kessler-Maiorana algorithm (Ruskey, Savage
    and Wang, "Generating necklaces", J. Algorithms 1992), one digit at a
    time over blocks of at most ``_VECTORS_PER_CALL`` prefixes, so it visits
    only the prenecklaces.  A prefix a of length t and period p extends by
    the digits a[t - p] to base - 1; it keeps period p for the digit a[t - p]
    and takes period t + 1 for a larger one.  A string of length n whose
    period p divides n is the smallest of its orbit, which has p strings.
    Digits are the smallest signed integers that hold -base (int8 up to
    base 128); a prefix's row holds n digits, those past its length 0.
    """
    size, dtype = _VECTORS_PER_CALL, np.min_scalar_type(-base)
    first = np.zeros((base, n), dtype=dtype)
    first[:, 0] = np.arange(base)
    # (prefixes, periods, length) blocks still to extend, the next one last.
    todo = [(first, np.ones(base, dtype=np.int64), 1)]
    ready: list[tuple[np.ndarray, np.ndarray]] = []
    buffered = 0
    while todo:
        prefix, period, t = todo.pop()
        if t == n:
            kept = n % period == 0
            ready.append((prefix[kept], period[kept]))
            buffered += len(ready[-1][1])
            if buffered >= size:
                digits, orbit = (np.concatenate(parts) for parts in zip(*ready))
                cut = buffered // size * size
                for at in range(0, cut, size):
                    yield digits[at : at + size], orbit[at : at + size]
                ready, buffered = [(digits[cut:], orbit[cut:])], buffered - cut
            continue
        if len(prefix) > size:
            todo.extend(
                (prefix[at : at + size], period[at : at + size], t)
                for at in range((len(prefix) - 1) // size * size, -1, -size)
            )
            continue
        ref = prefix.ravel()[np.arange(0, prefix.size, n) + t - period]
        width = base - ref.astype(np.int64)
        child = prefix.repeat(width, axis=0)
        # Each prefix's new digits count up from its ref to base - 1: a
        # running sum of ones, which drops from base - 1 to the next ref
        # where the next prefix's children start.
        starts = np.cumsum(width) - width
        step = np.ones(len(child), dtype=dtype)
        step[starts] = ref - (base - 1)
        step[0] = ref[0]
        child[:, t] = np.cumsum(step, dtype=dtype)
        grown = np.full(len(child), t + 1, dtype=np.int64)
        grown[starts] = period
        todo.append((child, grown, t + 1))
    if buffered:
        digits, orbit = (np.concatenate(parts) for parts in zip(*ready))
        yield digits, orbit


def _flat_vectors(base: int, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every base-``base`` string of length n, worker 0 the leading digit, in
    flat-index order: (digits, orbit) chunks of ``_VECTORS_PER_CALL`` rows,
    each orbit 1."""
    weights = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    count = base**n
    for start in range(0, count, _VECTORS_PER_CALL):
        index = np.arange(start, min(start + _VECTORS_PER_CALL, count), dtype=np.int64)
        yield index[:, None] // weights % base, np.ones(len(index), dtype=np.int64)


def success_table(
    assignment: ComputationAssignment, q: float
) -> list[tuple[CumulativeType, int, int]]:
    """(type, successful vectors, total vectors) for every cumulative type.

    A count rule decides one sorted vector per type and records all of the
    type's vectors or none.  A code that turning the workers only relabels
    (``_symmetry``) decides the smallest vector of each rotation orbit, worker
    0 the leading base-(max_score + 1) digit, as ``_necklaces`` walks them,
    and any other code decides every vector in flat-index order.  Vectors are
    decided at most ``_VECTORS_PER_CALL`` per release-rank call, and their
    orbit sizes are binned by type in exact integers.  A vector's type key is
    its scores sorted in descending order and read as digits; ``all_types``
    lists the types in strictly decreasing key order.

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
    # A type's key weights its descending scores by base ** (n - 1), ...,
    # 1, so a vector's ascending sorted scores take the weights 1, ..., base
    # ** (n - 1).
    weights = base ** np.arange(n, dtype=np.int64)
    keys = sorted_scores @ weights[::-1]
    walk = _necklaces if symmetry == "turns" else _flat_vectors
    good = np.zeros(len(types), dtype=np.int64)
    for scores, orbit in walk(base, n):
        rows = np.searchsorted(-keys, -(np.sort(scores, axis=1) @ weights))
        ok = _successes(assignment, scores, q)
        np.add.at(good, rows[ok], orbit[ok])
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
