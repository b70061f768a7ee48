"""Simulation of coded-computation iterations, decided in batches of trials,
and Monte Carlo aggregation over them.

Each worker draws a single per-unit latency for the iteration; its messages
arrive at schedule * unit time and are ranked in time order, ties broken by
message then worker index.  The master stops once the tolerance threshold is
met, which gives the completion time and the messages received (ties with
the final arrival included).

Every decode rule and every source is decided for a batch of trials with
array operations: ``decoding._release_ranks`` gives each block's release
key, the arrival time at which the block becomes recoverable, and the stop
is the threshold-th smallest.  Release keys are picked by min and max,
which commute with the non-decreasing map from arrival rank to arrival
time, so time keys decide a trial exactly as ranks would unless another
arrival ties the stop time.  Only such a trial is ranked, by the stable
sort so that ties break by message then worker, and decided again on its
ranks; a trial without one sorts nothing.  Each batch builds its per-order
block tables (``decoding._block_tables``) once, for the release sweeps (a
second one, on ranks, if a trial ties) and the pending count alike.  A
count rule (``mds``, ``threshold``) releases every block at once: it stops
at the ``needed``-th smallest first-message arrival time.

Trial t draws from the stream ``SeedSequence((seed, t))`` of
:func:`trial_rng`.  :func:`_batches`, the one trial loop behind
:func:`monte_carlo` and ``regression.train``, hashes the seed words of many
trials in one array pass (:func:`_stream_states` re-derives NumPy's
``SeedSequence`` hash).  One word source per block (:class:`_StreamWords`)
hands the rows to PCG64 in trial order, and a trial builds only its
``PCG64`` and ``Generator``, so it draws the same numbers without running
NumPy's hash or building a seed object per trial.  A source is a fixed
``ComputationAssignment``, which every trial runs, or a redrawn
circular-shift code (``schemes.CircularShiftSource``) whose rules and layout
are fixed once.  Per trial, the stream gives the shift permutations first
(a redrawn code only), shuffled in place in the batch's pool array, then one
standard exponential per worker, written into the batch's array; one
``LatencyModel.unit_times`` call turns a batch's exponentials into unit
times, and one gather of shift-grid rows (``CircularShiftSource.blocks``)
gives its block ids in the decoder's (d_j, trials, workers) layout.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .blocks import DECODE_PEEL, ComputationAssignment
from .decoding import (
    _block_tables,
    _count_stop,
    _release_ranks,
    _workers_needed,
    recovery_threshold,
)
from .latency import LatencyModel
from .schemes import CircularShiftSource

AssignmentSource = Union[ComputationAssignment, CircularShiftSource]

# Trials per batch.  Memory grows with the batch, not the trial count; at
# rcs K=40, batches of 64 trials run as fast as batches of 256 and hold a
# quarter of the arrays.
_CHUNK = 64
# Trials whose streams are hashed together.  The hash is a fixed number of
# array operations, so its per-trial cost falls with the block (3.4 us at 64
# trials, 0.2 us at 1,024 on a 2-vCPU x86-64 VM); its output is 32 bytes
# per trial.
_SEED_BLOCK = 1024
# Trial t's stream hashes t as one 32-bit word, so a run has at most 2**32
# trials.
_MAX_TRIALS = 2**32

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 2**32 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class _CountState:
    """All-or-nothing decoder: everything unlocks at a worker-count threshold."""

    def __init__(self, k_total: int, workers_needed: int):
        self._k, self._needed, self._workers = k_total, workers_needed, set()

    def ingest_message(self, worker: int, msg_index: int) -> None:
        self._workers.add(worker)

    @property
    def recovered_count(self) -> int:
        return self._k if len(self._workers) >= self._needed else 0

    @property
    def redundant(self) -> int:
        return max(0, len(self._workers) - self._needed)

    def mask(self) -> np.ndarray:
        return np.full(self._k, self.recovered_count > 0)


def make_decode_state(assignment: ComputationAssignment) -> _CountState:
    """Fresh message-by-message decoder of a count rule (``mds`` or
    ``threshold``).  A peel code's tasks go to ``PeelingDecoder`` instead."""
    if assignment.decode == DECODE_PEEL:
        raise ValueError("a peel code has no count state; feed its tasks to PeelingDecoder")
    return _CountState(assignment.k_total, _workers_needed(assignment))


def message_times(assignment: ComputationAssignment, unit_times: np.ndarray) -> np.ndarray:
    """Arrival time of every message given per-worker unit times.

    unit_times has shape (..., n_workers), any leading axes being trials.
    Returns an (..., n_messages, n_workers) array: entry [..., m, w] is when
    worker w's m-th message reaches the master.
    """
    unit_times = np.asarray(unit_times, dtype=float)
    return unit_times[..., None, :] * assignment.schedule()[:, None]


def _arrival_ranks(flat: np.ndarray) -> np.ndarray:
    """Rank of every arrival in its row of flat (trials, arrivals), ties
    broken by column: the stable sort's order.  Ranks are floats, ready to
    meet infinity in the release keys."""
    order = np.argsort(flat, axis=1, kind="stable")
    ranks = np.empty(flat.shape)
    ranks[np.arange(flat.shape[0])[:, None], order] = np.arange(flat.shape[1])
    return ranks


def _trials(assignment: ComputationAssignment, blocks, unit_times: np.ndarray, threshold: int):
    """Outcomes of a batch of trials, one row of per-worker unit times each.

    blocks are the per-order block ids ``decoding._block_tables`` takes.
    Returns the per-trial arrays (completion times, messages received,
    redundant tasks, recovered-block masks of shape (trials, k_total),
    completed flags).  A trial that never reaches the threshold ingests
    every message and has an infinite completion time.
    """
    n_trials = unit_times.shape[0]
    if threshold == 0:
        zeros = np.zeros(n_trials, dtype=int)
        masks = np.zeros((n_trials, assignment.k_total), dtype=bool)
        return np.zeros(n_trials), zeros, zeros, masks, np.ones(n_trials, dtype=bool)
    arrivals = message_times(assignment, unit_times)
    flat = arrivals.reshape(n_trials, -1)
    if assignment.decode != DECODE_PEEL:
        # Everything unlocks at the needed-th first-message arrival, which
        # needs no ranks; no worker is past the needed count, so none is
        # redundant.
        stop = _count_stop(assignment, arrivals[:, 0])
        completed = stop < np.inf
        masks = np.repeat(completed[:, None], assignment.k_total, axis=1)
        redundant = np.zeros(n_trials, dtype=int)
    else:
        # Arrival times are the keys: a block's release key is the time it
        # becomes recoverable, and the stop is the threshold-th smallest.  A
        # message has arrived, and a block is recovered, when its key is at
        # most the cut: the stop, or the largest float for an incomplete
        # trial, which ingests every message and keeps every block it
        # releases.  Time keys decide a trial as ranks do unless another
        # arrival ties the stop; only such trials are keyed again, by rank.
        tables = _block_tables(assignment, n_trials, blocks)
        release = _release_ranks(assignment, tables, arrivals)
        stop = np.partition(release, threshold - 1, axis=1)[:, threshold - 1]
        completed = stop < np.inf
        keys, cut = arrivals, np.minimum(stop, np.finfo(float).max)
        tied = np.flatnonzero(np.count_nonzero(flat == stop[:, None], axis=1) > 1)
        if tied.size:
            keys = arrivals.copy()  # flat, a view of arrivals, still counts the messages
            keys[tied] = _arrival_ranks(flat[tied]).reshape((tied.size,) + arrivals.shape[1:])
            release = _release_ranks(assignment, tables, keys)  # the same where untied
            cut[tied] = np.partition(release[tied], threshold - 1, axis=1)[:, threshold - 1]
        masks = release <= cut[:, None]
        # Ingested tasks are pending (two or more blocks still unknown), the
        # source of one recovered block each, or redundant.
        recovered = masks.ravel()
        ingested = pending = 0
        for m, table in tables:
            arrived = keys[:, m] <= cut[:, None]
            ingested = ingested + arrived.sum(axis=1)
            if len(table) > 1:
                known = recovered[table].sum(axis=0).reshape(n_trials, -1)
                pending = pending + (arrived & (known <= len(table) - 2)).sum(axis=1)
        redundant = ingested - pending - masks.sum(axis=1)
    messages = (flat <= stop[:, None]).sum(axis=1)
    return stop, messages, redundant, masks, completed


@dataclass
class MonteCarloResult:
    """Per-trial arrays plus summary statistics of repeated iterations."""

    trials: int
    seed: int
    times: np.ndarray
    messages: np.ndarray
    redundant: np.ndarray
    recovered: np.ndarray
    completed: np.ndarray

    @property
    def mean_time(self) -> float:
        return float(np.mean(self.times))

    @property
    def mean_messages(self) -> float:
        return float(np.mean(self.messages))

    @property
    def completion_rate(self) -> float:
        return float(np.mean(self.completed))

    def time_percentiles(self, qs=(5, 25, 50, 75, 95)) -> dict[str, float]:
        """Completion-time percentiles, bit for bit ``np.percentile``'s
        linear ones.  One whose higher neighbour is infinite (an incomplete
        trial) is infinite; the others interpolate the capped times, so no
        arithmetic meets an infinity.  NumPy's interpolation is redone from
        one sort, since ``np.percentile`` imports ``numpy.ma`` when first
        called; one outside [0, 100], or NaN, raises its ValueError."""
        percent = np.array(qs, dtype=float)
        if not np.all((percent >= 0) & (percent <= 100)):
            raise ValueError("Percentiles must be in the range [0, 100]")
        ordered = np.sort(self.times)
        capped = np.minimum(ordered, np.finfo(float).max)
        index = (len(ordered) - 1) * (percent / 100)
        below = np.floor(index).astype(int)
        a, b = capped[below], capped[np.minimum(below + 1, len(ordered) - 1)]
        gamma = index - below
        lerp = np.where(gamma < 0.5, a + (b - a) * gamma, b - (b - a) * (1 - gamma))
        values = np.where(np.isinf(ordered[np.ceil(index).astype(int)]), np.inf, lerp)
        return {f"p{p}": float(v) for p, v in zip(qs, values)}

    def summary(self) -> dict:
        """Run statistics for JSON output.  A statistic that is not finite
        (a mean or percentile over incomplete trials) is None."""
        stats = {
            "trials": self.trials,
            "seed": self.seed,
            "mean_time": self.mean_time,
            "mean_messages": self.mean_messages,
            "mean_redundant": float(np.mean(self.redundant)),
            "mean_recovered": float(np.mean(self.recovered)),
            "completion_rate": self.completion_rate,
            **self.time_percentiles(),
        }
        return {
            key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in stats.items()
        }


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic per-trial stream: reseeding trial t always replays it."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(trial))))


def _stream_states(seed: int, trials) -> np.ndarray:
    """``SeedSequence((seed, t)).generate_state(4, np.uint64)`` for every
    trial index t, shape (len(trials), 4).

    The entropy is the seed's little-endian 32-bit words followed by t.  The
    pool-of-4 hash runs in uint32 array arithmetic, which wraps as NumPy's
    does; the hash constants advance with the step, not with the data, so
    they stay Python ints.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    t = np.asarray(trials).ravel()
    if t.size and (t.min() < 0 or t.max() > _MASK32):
        raise ValueError("trial indices must lie in [0, 2**32)")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    entropy = [np.full(t.shape, w, dtype=np.uint32) for w in words] + [t.astype(np.uint32)]

    def hasher(const, mult):
        def hash_words(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & _MASK32
            value = value * np.uint32(const)
            return value ^ value >> 16

        return hash_words

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ value >> 16

    hashmix = hasher(_INIT_A, _MULT_A)
    # A pool word past the entropy hashes zero.
    pool = [hashmix(word) for word in (entropy + [np.zeros(t.shape, np.uint32)] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(extra))
    output = hasher(_INIT_B, _MULT_B)
    out = np.stack([output(pool[i % 4]) for i in range(8)], axis=1)
    return out.astype("<u4").view("<u8").astype(np.uint64)


class _StreamWords(ISeedSequence):
    """Rows of :func:`_stream_states`, served in order: each PCG64 seeded
    from this source asks for ``SeedSequence((seed, t))``'s four words and
    gets the next row, so one source seeds a whole block's trials in trial
    order.  Any other request, or one past the last row, raises, so a NumPy
    that seeds PCG64 differently fails instead of drawing other streams."""

    def __init__(self, words: np.ndarray):
        # PCG64 reads a row's memory directly, so the rows must be contiguous.
        self._rows = iter(np.ascontiguousarray(words, dtype=np.uint64).reshape(-1, 4))

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(f"holds 4 uint64 words, asked for {n_words} of {np.dtype(dtype)}")
        row = next(self._rows, None)
        if row is None:
            raise ValueError("every row of words has seeded a generator")
        return row


def _check_integers(**values) -> None:
    """Raise TypeError for the first value that is a bool or not an integer."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")


def _source_layout(source: AssignmentSource) -> ComputationAssignment:
    """The assignment every trial of source matches in all but its supports."""
    if isinstance(source, CircularShiftSource):
        return source.layout
    if isinstance(source, ComputationAssignment):
        return source
    raise TypeError(
        "source must be a ComputationAssignment or a CircularShiftSource, "
        f"got {type(source).__name__}"
    )


def _batches(source: AssignmentSource, q: float, model: LatencyModel, trials: int, seed: int):
    """Decide trials 0 .. trials - 1 in batches of ``_CHUNK``.

    Yields, per batch, the per-trial arrays of :func:`_trials`: (completion
    times, messages received, redundant tasks, recovered-block masks,
    completed flags).  Trial t draws from the stream of
    ``trial_rng(seed, t)``: the words of ``_SEED_BLOCK`` trials are hashed
    at a time, and one :class:`_StreamWords` per block hands them to PCG64
    row by row in trial order.  A trial draws first the shift pools of a
    :class:`~codedcomp.schemes.CircularShiftSource`, shuffled in place in
    the batch's pool array (a fixed ``ComputationAssignment`` draws
    nothing), then one standard exponential per worker, written into the
    batch's exponential array.  One ``model.unit_times`` call maps a whole
    batch's exponentials to unit times.

    Raises:
        TypeError: if source is of neither accepted type, or trials or the
            seed is a bool or not an integer (NumPy integers are accepted).
        ValueError: if trials is not positive or above ``_MAX_TRIALS`` (the
            trial streams index at most 2**32 trials), or the seed is
            negative.
    """
    _check_integers(trials=trials, seed=seed)
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {_MAX_TRIALS}], got {trials}")
    layout = _source_layout(source)
    redrawn = isinstance(source, CircularShiftSource)
    threshold = recovery_threshold(layout.k_total, q)
    hashed_words = (
        _stream_states(seed, range(start, min(start + _SEED_BLOCK, trials)))
        for start in range(0, trials, _SEED_BLOCK)
    )
    rngs = (
        np.random.Generator(np.random.PCG64(stream))
        for words in hashed_words
        for stream in itertools.repeat(_StreamWords(words), len(words))
    )
    for start in range(0, trials, _CHUNK):
        size = min(_CHUNK, trials - start)
        exponentials = np.empty((size, layout.n_workers))
        batch_rngs = itertools.islice(rngs, size)
        if redrawn:
            pools = source.pools(size)
            for pool, row, rng in zip(pools, exponentials, batch_rngs):
                source.draw(rng, pool)
                rng.standard_exponential(out=row)
            blocks = source.blocks(pools[:, source.rows, source.place])
        else:
            for row, rng in zip(exponentials, batch_rngs):
                rng.standard_exponential(out=row)
            blocks = None
        yield _trials(layout, blocks, model.unit_times(exponentials), threshold)


def monte_carlo(
    source: AssignmentSource,
    q: float,
    model: LatencyModel,
    trials: int,
    seed: int,
) -> MonteCarloResult:
    """Run many independent iterations and collect their outcomes.

    Args:
        source: a fixed ``ComputationAssignment``, which every trial runs,
            or a ``schemes.CircularShiftSource``, from which every trial
            draws its shifts.
        q: tolerance (fraction of blocks allowed to be missing).
        model: straggler latency model.
        trials: number of iterations.
        seed: base seed; trial t uses the stream (seed, t).

    Returns:
        MonteCarloResult with one entry per trial.

    Raises:
        TypeError: if source is of neither accepted type, or trials or the
            seed is a bool or not an integer.
        ValueError: if trials is not in [1, 2**32] or the seed is negative.

    Trials run in batches of ``_CHUNK`` (:func:`_batches`), each decided
    with array operations at once; ``train`` consumes the same batches.
    """
    parts = [
        (times, messages, redundant, masks.sum(axis=1), completed)
        for times, messages, redundant, masks, completed in _batches(source, q, model, trials, seed)
    ]
    return MonteCarloResult(trials, int(seed), *map(np.concatenate, zip(*parts)))
