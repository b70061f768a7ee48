"""Exhaustive score-vector analysis for small worker counts.

A score vector records how many tasks each worker has finished at some
instant.  For every cumulative type (histogram of scores) these routines
count how many of its score vectors let the master stop under a given
tolerance, and combine the counts with the latency law into the exact
completion-time CDF.  One loop decides every code: one score vector per
class the code cannot tell apart, weighted by the class size, which is a
type for a count rule, a rotation orbit for a code that turning the workers
only relabels (the circular-shift codes), and one vector otherwise.  The
orbits' smallest vectors come from a necklace walk that visits only the
prenecklaces; every other vector is walked by its flat index.  The vectors
go in slices to one release-rank call each, on the one block table built
per call, and their weights are binned by type.

The types of each (n_workers, max_score) come from one cached table (only
the last key's is kept, so a large table is freed by the next key's): a
counts matrix grown one score level at a time by array operations, without
recursion.  ``all_types``, ``success_table`` and ``completion_cdf`` read it;
a code whose score vectors or table cells pass the enumeration limit is
refused first.  The table also holds the necklaces of its key, walked once
and sorted into type rows on the first rotation code's call, so a later
call at that key only decides its own code's vectors.

This module owns the cumulative type: ``CumulativeType`` stores its counts,
highest score first, as every row of the type table does, and
``_type_probabilities`` takes the one product over score levels, of the
per-worker law ``latency.prob_exactly``, that gives ``completion_cdf`` its
types' probabilities over blocks of times.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .blocks import DECODE_PEEL, ComputationAssignment
from .decoding import _block_tables, _recovered, recovery_threshold
from .latency import LatencyModel, prob_exactly


# Most score vectors success_table enumerates, (max_score + 1) ** n_workers,
# and most cells of the type table it reads, types x (max_score + 1).
_MAX_SCORE_VECTORS = 10**7
# Score vectors decided per release-rank call, so memory stays bounded.  At
# 9 workers with scores 0-2, 512 ran faster than 256 or 1,024 by a sixth.
# The necklace walk also extends at most this many prefixes at a time, so
# a cold walk holds one such block besides the necklaces it fills.
_VECTORS_PER_CALL = 512
# Most (type, time) cells completion_cdf holds in one array (8 MB of
# floats); a longer time grid is taken in blocks of times.
_CDF_CELLS = 2**20


@dataclass(frozen=True)
class CumulativeType:
    """Histogram of worker scores: counts[i] workers completed max_score - i tasks.

    Counts are stored in descending score order (N_max, ..., N_0), matching
    the usual tabulation of straggler states.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        # type(c) is int first: the ABC check costs most of a type's build.
        if not all(type(c) is int or isinstance(c, numbers.Integral) for c in self.counts):
            raise ValueError(f"type counts must be integers, got {self.counts}")
        if not self.counts or any(c < 0 for c in self.counts):
            raise ValueError(f"invalid type counts {self.counts}")

    @property
    def max_score(self) -> int:
        return len(self.counts) - 1

    @property
    def worker_count(self) -> int:
        return sum(self.counts)

    def count_for_score(self, score: int) -> int:
        if not 0 <= score <= self.max_score:
            raise ValueError(f"score must lie in [0, {self.max_score}], got {score}")
        return self.counts[self.max_score - score]


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


class _TypeTable:
    """Every cumulative type of n_workers workers with scores 0..max_score,
    in ``all_types`` order: the counts matrix (types x score levels, the
    highest score first) in the smallest unsigned dtype that holds
    n_workers.  The other parts are derived from it on first use, since
    only ``success_table`` reads them: the ``CumulativeType`` objects, the
    exact totals as Python ints, and each type's scores in descending order
    with its key, those scores read as base-(max_score + 1) digits.  The
    keys fit in int64 only under the enumeration limit.  ``necklaces`` holds
    every rotation orbit's smallest vector in ``_necklaces`` order, as
    (digits, orbit sizes, type rows) in the smallest dtypes that hold them,
    filled block by block from the walk: about 20 MB at the limit.
    Arrays are read-only, because one table serves every caller.

    The counts grow one score level at a time, without recursion.  Each
    prefix of levels with k workers left places k, k - 1, ..., 0 of them at
    the next level (the lowest level takes all k), and a prefix that leaves
    k workers to m more levels heads comb(k + m - 1, m - 1) types, so each
    level's column is its prefixes' counts repeated that many times.
    """

    def __init__(self, n_workers: int, max_score: int) -> None:
        for name, value in (("n_workers", n_workers), ("max_score", max_score)):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        rows = math.comb(n_workers + max_score, max_score)
        columns = np.empty((max_score + 1, rows), dtype=np.min_scalar_type(n_workers))
        left = np.array([n_workers])
        for level in range(max_score + 1):
            more = max_score - level
            if more:
                width = left + 1
                placed = np.repeat(left, width)
                left = np.arange(len(placed)) - np.repeat(np.cumsum(width) - width, width)
                placed -= left
            else:
                placed, left = left, np.zeros_like(left)
            heads = [math.comb(k + more - 1, more - 1) if more else 1 for k in range(n_workers + 1)]
            columns[level] = np.repeat(placed, np.array(heads)[left])
        self.n_workers, self.max_score = n_workers, max_score
        self.counts = columns.T
        self.counts.flags.writeable = False

    @functools.cached_property
    def types(self) -> tuple[CumulativeType, ...]:
        # A block of rows at a time, so no Python list of every row is held.
        blocks = (self.counts[at : at + 4096].tolist() for at in range(0, len(self.counts), 4096))
        return tuple(CumulativeType(tuple(row)) for block in blocks for row in block)

    @functools.cached_property
    def totals(self) -> tuple[int, ...]:
        return tuple(total_vectors(ctype) for ctype in self.types)

    @functools.cached_property
    def scores(self) -> np.ndarray:
        levels = np.arange(self.max_score, -1, -1, dtype=np.min_scalar_type(self.max_score))
        scores = np.repeat(np.tile(levels, len(self.counts)), self.counts.ravel())
        scores = scores.reshape(len(self.counts), self.n_workers)
        scores.flags.writeable = False
        return scores

    @functools.cached_property
    def keys(self) -> np.ndarray:
        base = self.max_score + 1
        keys = self.scores @ base ** np.arange(self.n_workers - 1, -1, -1, dtype=np.int64)
        keys.flags.writeable = False
        return keys

    def type_rows(self, scores: np.ndarray) -> np.ndarray:
        """The type row of each score vector: its scores sorted in ascending
        order take the powers 1, ..., base ** (n_workers - 1), which gives
        its type's key, and the keys strictly decrease down the table."""
        powers = (self.max_score + 1) ** np.arange(self.n_workers, dtype=np.int64)
        return np.searchsorted(-self.keys, -(np.sort(scores, axis=1) @ powers))

    @functools.cached_property
    def necklaces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Burnside: the orbits average the strings each rotation fixes.
        base, n = self.max_score + 1, self.n_workers
        count = sum(base ** math.gcd(i, n) for i in range(n)) // n
        digits = np.empty((count, n), dtype=np.min_scalar_type(-base))
        orbit = np.empty(count, dtype=np.min_scalar_type(n))
        rows = np.empty(count, dtype=np.min_scalar_type(len(self.counts)))
        at = 0
        for part, size in _necklaces(base, n):
            end = at + len(size)
            digits[at:end], orbit[at:end], rows[at:end] = part, size, self.type_rows(part)
            at = end
        for array in (digits, orbit, rows):
            array.flags.writeable = False
        return digits, orbit, rows


@functools.lru_cache(maxsize=1)
def _type_table(n_workers: int, max_score: int) -> _TypeTable:
    """The type table of (n_workers, max_score), built once per key.  Only
    the last key's is kept, so a large table goes with the next key's call."""
    return _TypeTable(n_workers, max_score)


def all_types(n_workers: int, max_score: int) -> list[CumulativeType]:
    """Every cumulative type for n_workers workers, in descending-score
    lexicographic order (fully finished first)."""
    return list(_type_table(n_workers, max_score).types)


def _successes(assignment: ComputationAssignment, scores, q: float, tables) -> np.ndarray:
    """Whether the master can stop at each row of a (vectors, n_workers)
    score array, once every worker has sent the messages its score reaches.
    tables are the :func:`_block_tables` of at least as many vectors; the
    first columns, one per worker of each vector, are read."""
    done = np.array([msg.tasks_done for msg in assignment.messages])[None, :, None]
    sent = done <= np.asarray(scores)[:, None, :]
    columns = len(sent) * assignment.n_workers
    recovered = _recovered(assignment, sent, [(m, table[:, :columns]) for m, table in tables])
    return np.count_nonzero(recovered, axis=1) >= recovery_threshold(assignment.k_total, q)


def successful_score_vector(
    assignment: ComputationAssignment, scores: Sequence[int], q: float
) -> bool:
    """Whether the master can stop once the workers reach these scores."""
    if len(scores) != assignment.n_workers:
        raise ValueError(f"expected {assignment.n_workers} scores, got {len(scores)}")
    return bool(_successes(assignment, [scores], q, _block_tables(assignment, 1))[0])


def total_vectors(ctype: CumulativeType) -> int:
    """Number of distinct score vectors of the type (multinomial count)."""
    count = math.factorial(ctype.worker_count)
    for c in ctype.counts:
        count //= math.factorial(c)
    return count


def _symmetry(assignment: ComputationAssignment) -> str:
    """Which score vectors ``success_table`` decides once for a whole class.

    "types" for a count rule, which sees only how many workers sent each
    message: one sorted vector decides its type.  "turns" for a peel code
    that turning the workers by one only relabels: worker (w + 1) % n's task
    of every order holds the blocks of worker w's, each block b turned to
    (b // n) * n + (b % n + 1) % n within its group of n, so one vector
    decides its rotation orbit.  "none" otherwise: every vector is decided.
    """
    if assignment.decode != DECODE_PEEL:
        return "types"
    n = assignment.n_workers
    turns = assignment.k_total % n == 0 and all(
        np.array_equal(
            np.sort(ids // n * n + (ids % n + 1) % n, axis=1),
            np.sort(np.roll(ids, -1, axis=0), axis=1),
        )
        for ids in assignment.support
    )
    return "turns" if turns else "none"


def _necklaces(base: int, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The smallest string of every rotation orbit of the base-``base``
    strings of length n, with its orbit size, in increasing flat-index order:
    (digits, orbit) blocks of any length, some empty.

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
    while todo:
        prefix, period, t = todo.pop()
        if t == n:
            kept = n % period == 0
            yield prefix[kept], period[kept]
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


def _flat_vectors(base: int, n: int) -> Iterator[np.ndarray]:
    """Every base-``base`` string of length n, worker 0 the leading digit, in
    flat-index order, in chunks of ``_VECTORS_PER_CALL`` rows."""
    weights = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    count = base**n
    for start in range(0, count, _VECTORS_PER_CALL):
        index = np.arange(start, min(start + _VECTORS_PER_CALL, count), dtype=np.int64)
        yield index[:, None] // weights % base


def success_table(
    assignment: ComputationAssignment, q: float
) -> list[tuple[CumulativeType, int, int]]:
    """(type, successful vectors, total vectors) for every cumulative type.

    One loop decides every code, each vector weighted by the vectors it
    stands for (``_symmetry``): a count rule's sorted score row of each type
    by the type's total; the smallest vector of each rotation orbit, worker
    0 the leading base-(max_score + 1) digit, as the type table's cached
    necklaces hold them, by its orbit size; any other code's every vector,
    in flat-index order, by 1.  Each slice of at most ``_VECTORS_PER_CALL``
    vectors goes to one release-rank call on the call's one block table,
    and ``np.bincount`` sums the successes' weights by type, exact below 2**53.
    A vector's type row is the row of its scores sorted in descending order
    (``_TypeTable.type_rows``).

    Raises:
        ValueError: if the (max_score + 1) ** n_workers score vectors, or
            the type table's comb(n_workers + max_score, n_workers) types x
            (max_score + 1) levels, are more than the limit of 10**7.
    """
    base, n = assignment.max_score + 1, assignment.n_workers
    count, cells = base**n, math.comb(n + base - 1, n) * base
    if max(count, cells) > _MAX_SCORE_VECTORS:
        raise ValueError(
            f"enumeration needs {count} score vectors ({base}^{n}) and a type "
            f"table of {cells} cells, above the limit of {_MAX_SCORE_VECTORS}"
        )
    table = _type_table(n, base - 1)
    size = _VECTORS_PER_CALL
    symmetry = _symmetry(assignment)
    if symmetry == "none":
        # Up to 10**7 vectors, so they are streamed a chunk at a time.
        sources = ((s, np.ones(len(s), dtype=np.int64), table.type_rows(s)) for s in _flat_vectors(base, n))
    elif symmetry == "turns":
        sources = [table.necklaces]
    else:
        sources = [(table.scores, np.array(table.totals, dtype=np.int64), np.arange(len(table.counts)))]
    tables = _block_tables(assignment, size)
    good = np.zeros(len(table.counts))
    for scores, weight, rows in sources:
        for at in range(0, len(rows), size):
            ok = _successes(assignment, scores[at : at + size], q, tables)
            good += np.bincount(rows[at : at + size][ok], weight[at : at + size][ok], minlength=len(good))
    return [(ctype, int(g), total) for ctype, g, total in zip(table.types, good, table.totals)]


def _type_probabilities(counts: np.ndarray, times, model: LatencyModel, task_cost: float) -> np.ndarray:
    """(types, times) probabilities of one score vector of each type, for a
    (types, score levels) counts array, highest score first: the product
    over scores s, lowest first, of P(exactly s by t) ** (workers at s), a
    score no worker reached giving p ** 0 == 1.0.  Each factor is a Python
    float, so the bits are those of the same product taken in Python."""
    top, most = counts.shape[1] - 1, int(counts.max(initial=0))
    prob = np.ones((len(counts), len(times)))
    for s in range(top + 1):
        p = [prob_exactly(s, time, model, task_cost, max_tasks=top) for time in times]
        prob *= np.array([[x**c for x in p] for c in range(most + 1)])[counts[:, top - s]]
    return prob


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

    The result has the bits of summing good * (the type's probability at
    that one time) over the successful types in table order: each cell of
    ``_type_probabilities`` is computed alone, so taking arrays of types x
    times, a block of times at a time so an array holds at most
    ``_CDF_CELLS``, changes no bits, and the sum over types runs in order,
    from 0.0.
    """
    good = np.array([g for _, g, _ in success_table(assignment, q)])
    hit = np.flatnonzero(good)
    counts = _type_table(assignment.n_workers, assignment.max_score).counts[hit]
    weights = good[hit].astype(float)[:, None]
    times = np.asarray(t, dtype=float)
    flat = times.ravel().tolist()
    total = np.zeros(len(flat))
    # Each time's column is computed alone, so blocks of times change no bits.
    size = max(1, _CDF_CELLS // max(len(hit), 1))
    for at in range(0, len(flat), size):
        prob = _type_probabilities(counts, flat[at : at + size], model, assignment.task_cost)
        prob *= weights
        # Row by row, as Python's sum adds: NumPy sums a (types, 1) array pairwise.
        part = total[at : at + size]
        for row in prob:
            part += row
    if np.ndim(t) == 0:
        return float(total[0])
    return total.reshape(times.shape)
