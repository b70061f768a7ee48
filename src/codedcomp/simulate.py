"""Simulation of one coded-computation iteration and Monte Carlo aggregation
over many iterations.

Each worker draws a single per-unit latency for the iteration; its messages
arrive at schedule * unit time and are ranked in time order, ties broken by
message then worker index.  The master stops once the tolerance threshold is
met, which gives the completion time and the messages received (ties with
the final arrival included).

One function decides every decode rule and every source, for a batch of
trials with array operations: :func:`_release_ranks` gives each block's
release rank, the arrival rank at which the block becomes recoverable, and
the stop is the threshold-th smallest.  For a peel code the ranks are the
fixed point of ``R[b] = min over tasks t holding b of max(rank(t), R of the
other blocks of t)``, iterated from infinity (peeling is a closure, and a
stopping set stays infinite).  For a count rule (``mds``, ``threshold``)
every block is released at the ``needed``-th smallest first-message rank.
Exact enumeration and the config's finish check use the same ranks, with 0
for a sent message and infinity for an unsent one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .blocks import DECODE_PEEL, DECODE_MDS, ComputationAssignment
from .decoding import recovery_threshold
from .latency import LatencyModel

AssignmentSource = Union[ComputationAssignment, Callable[[np.random.Generator], ComputationAssignment]]

# Trials per batch.  Memory grows with the batch, not the trial count; at
# rcs K=40, batches of 64 trials run as fast as batches of 256 and hold a
# quarter of the arrays.
_CHUNK = 64


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


def _workers_needed(assignment: ComputationAssignment) -> int:
    """Complete workers a count rule waits for."""
    if assignment.decode == DECODE_MDS:
        return assignment.kbar
    return assignment.n_workers - assignment.n_orders + 1


def make_decode_state(assignment: ComputationAssignment) -> _CountState:
    """Fresh message-by-message decoder of a count rule (``mds`` or
    ``threshold``).  A peel code's tasks go to ``PeelingDecoder`` instead."""
    if assignment.decode == DECODE_PEEL:
        raise ValueError("a peel code has no count state; feed its tasks to PeelingDecoder")
    return _CountState(assignment.k_total, _workers_needed(assignment))


def message_times(assignment: ComputationAssignment, unit_times: np.ndarray) -> np.ndarray:
    """Arrival time of every message given per-worker unit times.

    Returns an (n_messages, n_workers) array: entry [m, w] is when worker w's
    m-th message reaches the master.
    """
    unit_times = np.asarray(unit_times, dtype=float)
    return np.outer(assignment.schedule(), unit_times)


def _orders(assignment: ComputationAssignment, supports):
    """(message index, block ids) of every order, the ids shaped (1 or
    n_trials, n_workers, d_j) so they broadcast over the trials."""
    return [
        (m, supports[j].reshape((-1,) + supports[j].shape[-2:]))
        for m, msg in enumerate(assignment.messages)
        for j in msg.orders
    ]


def _max_of_others(values: np.ndarray) -> np.ndarray:
    """For every row of a (d, n) array, the elementwise max of the other rows
    (-inf where there is none): prefix maxima, then suffix maxima folded in."""
    out = np.empty_like(values)
    out[0] = -np.inf
    for i in range(1, len(values)):
        np.maximum(out[i - 1], values[i - 1], out=out[i])
    behind = values[-1].copy()
    for i in range(len(values) - 2, -1, -1):
        np.maximum(out[i], behind, out=out[i])
        np.maximum(behind, values[i], out=behind)
    return out


def _release_ranks(assignment: ComputationAssignment, supports, ranks: np.ndarray) -> np.ndarray:
    """Release rank of every block in a batch of trials, shape (B, k_total).

    supports holds one block-id array per order: (n_workers, d_j) when all
    trials share the code, (B, n_workers, d_j) for one drawn code per trial.
    ranks[b, m, w] is the arrival rank of worker w's message m in trial b
    (infinity for a message that never arrives).  A block is recoverable
    from the messages ranked r or earlier exactly when its release rank is at
    most r; a block that is never recoverable has rank infinity.
    """
    n_trials, k = ranks.shape[0], assignment.k_total
    if assignment.decode != DECODE_PEEL:
        hit = max(_workers_needed(assignment), 1)
        first = np.full(n_trials, np.inf)
        if hit <= assignment.n_workers:
            first = np.partition(ranks[:, 0], hit - 1, axis=1)[:, hit - 1]
        return np.repeat(first[:, None], k, axis=1)
    # Entries are laid out (d_j, trials * workers) with flat index
    # trial * k + block, so the max over a task's other blocks works on whole
    # rows.  Each sweep updates the ranks in place, one order at a time.
    offset = k * np.arange(n_trials)[:, None, None]
    tasks = []
    for m, ids in _orders(assignment, supports):
        flat = (ids + offset).transpose(2, 0, 1).reshape(ids.shape[2], -1)
        tasks.append((flat, flat.ravel(), ranks[:, m].ravel()))
    release = np.full(n_trials * k, np.inf)
    while True:
        before = release.copy()
        for flat, entries, rank in tasks:
            offers = _max_of_others(release[flat])
            np.maximum(rank, offers, out=offers)
            np.minimum.at(release, entries, offers.ravel())
        if np.array_equal(release, before):
            return release.reshape(n_trials, k)


def _trials(assignment: ComputationAssignment, supports, unit_times: np.ndarray, threshold: int):
    """Outcomes of a batch of trials, one row of per-worker unit times each.

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
    # arrivals[t, m, w] is the same product message_times gives for trial t.
    arrivals = assignment.schedule()[None, :, None] * unit_times[:, None, :]
    flat = arrivals.reshape(n_trials, -1)
    order = np.argsort(flat, axis=1, kind="stable")
    trial = np.arange(n_trials)
    ranks = np.empty(flat.shape)
    ranks[trial[:, None], order] = np.arange(flat.shape[1])
    ranks = ranks.reshape(arrivals.shape)
    release = _release_ranks(assignment, supports, ranks)
    stop = np.partition(release, threshold - 1, axis=1)[:, threshold - 1]
    completed = stop < np.inf
    stop_rank = np.where(completed, stop, flat.shape[1] - 1).astype(int)
    masks = release <= stop_rank[:, None]
    if assignment.decode == DECODE_PEEL:
        # Ingested tasks are pending (two or more blocks still unknown), the
        # source of one recovered block each, or redundant.
        ingested = pending = 0
        for m, ids in _orders(assignment, supports):
            arrived = ranks[:, m] <= stop_rank[:, None]
            ingested = ingested + arrived.sum(axis=1)
            if ids.shape[2] > 1:
                unknown = ids.shape[2] - masks[trial[:, None, None], ids].sum(axis=2)
                pending = pending + (arrived & (unknown >= 2)).sum(axis=1)
        redundant = ingested - pending - masks.sum(axis=1)
    else:
        # Everything unlocks at the hit-th worker, so the workers past the
        # needed count are redundant.
        needed = _workers_needed(assignment)
        redundant = np.where(completed, max(needed, 1) - needed, 0)
    times = np.where(completed, flat[trial, order[trial, stop_rank]], np.inf)
    messages = (flat <= times[:, None]).sum(axis=1)
    return times, messages, redundant, masks, completed


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

    This is the release-rank decision of :func:`monte_carlo` on a batch of
    one trial, for every decode rule.
    """
    threshold = recovery_threshold(assignment.k_total, q)
    unit_times = model.sample_unit_times(rng, assignment.n_workers)
    times, messages, redundant, masks, completed = _trials(
        assignment, assignment.support, unit_times[None, :], threshold
    )
    return IterationOutcome(
        float(times[0]), int(messages[0]), masks[0], int(redundant[0]), bool(completed[0])
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
        """Linearly interpolated completion-time percentiles.  A percentile
        that falls among incomplete trials (infinite times) is infinite; the
        others are interpolated with those times capped, so no arithmetic
        meets an infinity."""
        capped = np.minimum(self.times, np.finfo(float).max)
        return {
            f"p{p}": math.inf
            if np.isinf(np.percentile(self.times, p, method="higher"))
            else float(np.percentile(capped, p))
            for p in qs
        }

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


def _layout(asn: ComputationAssignment) -> tuple:
    """What a batch of drawn codes must share to be decided together."""
    shapes = tuple(ids.shape for ids in asn.support)
    return asn.n_workers, asn.k_total, asn.messages, asn.decode, asn.kbar, asn.task_cost, shapes


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

    Raises:
        ValueError: if a factory's codes differ in workers, blocks,
            messages, decode rule or degrees within the run.

    Trials run in batches of ``_CHUNK``, each decided by one release-rank
    computation.  Trial t draws the factory's code, then the latencies, from
    ``trial_rng(seed, t)``, so it equals :func:`simulate_iteration` there.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    first, parts = None, []
    for start in range(0, trials, _CHUNK):
        rngs = [trial_rng(seed, t) for t in range(start, min(start + _CHUNK, trials))]
        drawn = [source(rng) for rng in rngs] if callable(source) else [source] * len(rngs)
        unit_times = [model.sample_unit_times(rng, asn.n_workers) for rng, asn in zip(rngs, drawn)]
        first = drawn[0] if first is None else first
        supports = first.support
        if callable(source):
            if any(_layout(asn) != _layout(first) for asn in drawn):
                raise ValueError(
                    "assignment factory changed workers, blocks, messages, "
                    "decode rule or degrees within one run"
                )
            supports = tuple(np.stack(ids) for ids in zip(*(asn.support for asn in drawn)))
        threshold = recovery_threshold(first.k_total, q)
        times, messages, redundant, masks, completed = _trials(
            first, supports, np.array(unit_times), threshold
        )
        parts.append((times, messages, redundant, masks.sum(axis=1), completed))
    return MonteCarloResult(trials, int(seed), *map(np.concatenate, zip(*parts)))
