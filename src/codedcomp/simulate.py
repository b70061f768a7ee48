"""Simulation of one coded-computation iteration and Monte Carlo aggregation
over many iterations.

Each worker draws a single per-unit latency for the iteration; its messages
arrive at schedule * unit time, in time order with ties broken by message
then worker index.  The master stops once the tolerance threshold is met,
which gives the iteration completion time and the number of messages it had
to receive (ties with the final arrival included).

Where no peeling cascade can occur the stop has a closed form, computed for
a batch of trials at once with array operations:

* count rules (``mds``, ``threshold``): everything unlocks at the
  ``needed``-th earliest worker, an order statistic of the workers' first
  arrivals;
* peel codes whose tasks all have degree 1 (uc-mmc): a block is recovered by
  the first message that carries it, so the stop is the arrival at which the
  count of distinct blocks reaches the threshold.

Peel codes with coded tasks (rcs, rcs-general, hybrid) replay the arrivals
into the peeling decoder one message at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .blocks import DECODE_MDS, DECODE_PEEL, DECODE_THRESHOLD, ComputationAssignment
from .decoding import PeelingDecoder, recovery_threshold
from .latency import LatencyModel

AssignmentSource = Union[ComputationAssignment, Callable[[np.random.Generator], ComputationAssignment]]

# Trials per batch of the closed form, so its memory does not grow with the
# trial count.
_CHUNK = 256


@dataclass(frozen=True)
class IterationOutcome:
    """Result of one simulated iteration."""

    completion_time: float
    messages_received: int
    recovered_mask: np.ndarray
    redundant_messages: int
    completed: bool

    @property
    def recovered_count(self) -> int:
        return int(np.count_nonzero(self.recovered_mask))


class _PeelState:
    """Peeling decoder adapter used during replay: feeds the assignment's
    cached block-id lists to the decoder, with no task objects."""

    def __init__(self, assignment: ComputationAssignment):
        self._ids = assignment.block_ids
        self._orders = [msg.orders for msg in assignment.messages]
        self._dec = PeelingDecoder(assignment.k_total)

    def ingest_message(self, worker: int, msg_index: int) -> None:
        for order in self._orders[msg_index]:
            self._dec.ingest_ids(self._ids[order][worker])

    @property
    def recovered_count(self) -> int:
        return self._dec.recovered_count

    @property
    def redundant(self) -> int:
        return self._dec.redundant_messages

    def mask(self) -> np.ndarray:
        return self._dec.recovered_mask()


class _CountState:
    """All-or-nothing decoder: everything unlocks at a worker-count threshold."""

    def __init__(self, k_total: int, workers_needed: int):
        self._k = k_total
        self._needed = workers_needed
        self._workers: set[int] = set()

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


def _workers_needed(assignment: ComputationAssignment) -> int:
    """Complete workers a count rule waits for."""
    if assignment.decode == DECODE_MDS:
        return assignment.kbar
    return assignment.n_workers - assignment.n_orders + 1


def make_decode_state(assignment: ComputationAssignment):
    """Fresh decoder state implementing the assignment's recovery rule."""
    if assignment.decode == DECODE_PEEL:
        return _PeelState(assignment)
    if assignment.decode in (DECODE_MDS, DECODE_THRESHOLD):
        return _CountState(assignment.k_total, _workers_needed(assignment))
    raise ValueError(f"unknown decode rule {assignment.decode!r}")


def message_times(assignment: ComputationAssignment, unit_times: np.ndarray) -> np.ndarray:
    """Arrival time of every message given per-worker unit times.

    Returns an (n_messages, n_workers) array: entry [m, w] is when worker w's
    m-th message reaches the master.
    """
    unit_times = np.asarray(unit_times, dtype=float)
    return np.outer(assignment.schedule(), unit_times)


def _closed_form(assignment: ComputationAssignment) -> bool:
    """Whether no peeling cascade can occur: a count rule, or a peel code
    whose every task is a single block."""
    return assignment.decode != DECODE_PEEL or all(ids.shape[1] == 1 for ids in assignment.support)


def _closed_form_trials(assignment: ComputationAssignment, threshold: int, unit_times: np.ndarray):
    """Outcomes of a batch of trials of an assignment with no peeling cascade.

    unit_times has one row of per-worker unit times per trial.  Returns the
    per-trial arrays (completion times, messages received, redundant tasks,
    recovered-block masks of shape (trials, k_total), completed flags), equal
    to replaying each trial's arrivals into :func:`make_decode_state`.
    """
    n_trials, n_workers = unit_times.shape
    k_total = assignment.k_total
    if threshold == 0:
        zeros = np.zeros(n_trials, dtype=int)
        masks = np.zeros((n_trials, k_total), dtype=bool)
        return np.zeros(n_trials), zeros, zeros, masks, np.ones(n_trials, dtype=bool)
    # arrivals[t, m, w] is the same product message_times gives for trial t.
    arrivals = assignment.schedule()[None, :, None] * unit_times[:, None, :]
    if assignment.decode != DECODE_PEEL:
        # A worker counts from its first message; the stop is the arrival
        # that brings the count to `needed` (the first one if needed < 1).
        needed = _workers_needed(assignment)
        hit = max(needed, 1)
        done = hit <= n_workers
        if done:
            stop = np.partition(arrivals[:, 0], hit - 1, axis=1)[:, hit - 1]
        else:
            stop = np.full(n_trials, np.inf)
        completed = np.full(n_trials, done)
        redundant = np.full(n_trials, hit - needed if done else 0)
        masks = np.full((n_trials, k_total), done)
    else:
        # Each task is one block carried by one message of the flattened
        # (message, worker) grid.  A block is recovered by the earliest
        # message, in arrival order, that carries it; the stop is the
        # threshold-th block to be recovered.
        flat = arrivals.reshape(n_trials, -1)
        n_flat = flat.shape[1]
        tasks = [(m, j) for m, message in enumerate(assignment.messages) for j in message.orders]
        msg = np.concatenate([m * n_workers + np.arange(n_workers) for m, _ in tasks])
        block = np.concatenate([assignment.support[j][:, 0] for _, j in tasks])
        by_block = np.argsort(block, kind="stable")
        covered, starts = np.unique(block[by_block], return_index=True)
        order = np.argsort(flat, axis=1, kind="stable")
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(n_flat), axis=1)
        first = np.minimum.reduceat(rank[:, msg[by_block]], starts, axis=1)
        completed = np.full(n_trials, threshold <= len(covered))
        if threshold <= len(covered):
            stop_rank = np.partition(first, threshold - 1, axis=1)[:, threshold - 1]
            stop_msg = np.take_along_axis(order, stop_rank[:, None], axis=1)
            stop = np.take_along_axis(flat, stop_msg, axis=1)[:, 0]
        else:
            stop_rank = np.full(n_trials, n_flat - 1)
            stop = np.full(n_trials, np.inf)
        masks = np.zeros((n_trials, k_total), dtype=bool)
        masks[:, covered] = first <= stop_rank[:, None]
        tasks_of = np.bincount(msg, minlength=n_flat)
        ingested = np.where(rank <= stop_rank[:, None], tasks_of, 0).sum(axis=1)
        redundant = ingested - np.count_nonzero(masks, axis=1)
    messages = np.count_nonzero(arrivals <= stop[:, None, None], axis=(1, 2))
    return stop, messages, redundant, masks, completed


def simulate_iteration(
    assignment: ComputationAssignment,
    q: float,
    model: LatencyModel,
    rng: np.random.Generator,
) -> IterationOutcome:
    """Simulate one iteration and stop at the tolerance threshold.

    The master stops once ceil((1-q) * k_total) blocks are recoverable from
    the messages received in arrival order (ties broken by message then
    worker index).  The outcome reports the stop time, how many messages had
    arrived by then (ties included), and the recovered-block mask.  If even
    all messages cannot meet the threshold the outcome is flagged incomplete
    with an infinite completion time.

    Count rules and peel codes of degree 1 take the closed form of
    :func:`_closed_form_trials` on a one-trial batch; other peel codes replay
    the arrivals into the peeling decoder.
    """
    threshold = recovery_threshold(assignment.k_total, q)
    unit_times = model.sample_unit_times(rng, assignment.n_workers)
    if _closed_form(assignment):
        stop, messages, redundant, masks, completed = _closed_form_trials(
            assignment, threshold, unit_times[None, :]
        )
        return IterationOutcome(
            completion_time=float(stop[0]),
            messages_received=int(messages[0]),
            recovered_mask=masks[0],
            redundant_messages=int(redundant[0]),
            completed=bool(completed[0]),
        )
    if threshold == 0:
        return IterationOutcome(
            completion_time=0.0,
            messages_received=0,
            recovered_mask=np.zeros(assignment.k_total, dtype=bool),
            redundant_messages=0,
            completed=True,
        )
    arrivals = message_times(assignment, unit_times)
    order = np.argsort(arrivals, axis=None, kind="stable")
    state = _PeelState(assignment)
    n_workers = assignment.n_workers
    stop_time = np.inf
    completed = False
    for flat in order.tolist():
        m, w = divmod(flat, n_workers)
        state.ingest_message(w, m)
        if state.recovered_count >= threshold:
            stop_time = float(arrivals[m, w])
            completed = True
            break
    messages = int(np.count_nonzero(arrivals <= stop_time))
    return IterationOutcome(
        completion_time=stop_time,
        messages_received=messages,
        recovered_mask=state.mask(),
        redundant_messages=state.redundant,
        completed=completed,
    )


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
        return {f"p{p}": float(np.percentile(self.times, p)) for p in qs}

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


def monte_carlo(
    source: AssignmentSource,
    q: float,
    model: LatencyModel,
    trials: int,
    seed: int,
) -> MonteCarloResult:
    """Run many independent iterations and collect their outcomes.

    Args:
        source: either a fixed assignment or a factory called with the
            per-trial generator, so randomized constructions are redrawn
            every trial.
        q: tolerance (fraction of blocks allowed to be missing).
        model: straggler latency model.
        trials: number of iterations.
        seed: base seed; trial t uses the stream (seed, t).

    Returns:
        MonteCarloResult with one entry per trial.

    A fixed assignment with no peeling cascade (a count rule, or a peel code
    of degree 1) runs its trials through the closed form, in batches of
    ``_CHUNK`` trials; factories and other peel codes simulate one trial at
    a time.  Both draw trial t's latencies from ``trial_rng(seed, t)`` and
    give the same arrays.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    times = np.empty(trials)
    messages = np.empty(trials, dtype=int)
    redundant = np.empty(trials, dtype=int)
    recovered = np.empty(trials, dtype=int)
    completed = np.empty(trials, dtype=bool)
    fixed = None if callable(source) else source
    if fixed is not None and _closed_form(fixed):
        threshold = recovery_threshold(fixed.k_total, q)
        for start in range(0, trials, _CHUNK):
            batch = slice(start, min(start + _CHUNK, trials))
            unit_times = np.array([
                model.sample_unit_times(trial_rng(seed, t), fixed.n_workers)
                for t in range(batch.start, batch.stop)
            ])
            times[batch], messages[batch], redundant[batch], masks, completed[batch] = (
                _closed_form_trials(fixed, threshold, unit_times)
            )
            recovered[batch] = np.count_nonzero(masks, axis=1)
    else:
        for t in range(trials):
            rng = trial_rng(seed, t)
            assignment = source(rng) if fixed is None else fixed
            out = simulate_iteration(assignment, q, model, rng)
            times[t] = out.completion_time
            messages[t] = out.messages_received
            redundant[t] = out.redundant_messages
            recovered[t] = out.recovered_count
            completed[t] = out.completed
    return MonteCarloResult(
        trials=trials,
        seed=int(seed),
        times=times,
        messages=messages,
        redundant=redundant,
        recovered=recovered,
        completed=completed,
    )
