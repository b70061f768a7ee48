"""Event-driven simulation of one coded-computation iteration and Monte Carlo
aggregation over many iterations.

Each worker draws a single per-unit latency for the iteration; its messages
arrive at schedule * unit time.  Arrivals are replayed in time order into the
scheme's decoder until the tolerance threshold is met, which gives the
iteration completion time and the number of messages the master had to
receive (ties with the final arrival included).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .blocks import DECODE_MDS, DECODE_PEEL, DECODE_THRESHOLD, ComputationAssignment
from .decoding import PeelingDecoder, recovery_threshold
from .latency import LatencyModel

AssignmentSource = Union[ComputationAssignment, Callable[[np.random.Generator], ComputationAssignment]]


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


def make_decode_state(assignment: ComputationAssignment):
    """Fresh decoder state implementing the assignment's recovery rule."""
    if assignment.decode == DECODE_PEEL:
        return _PeelState(assignment)
    if assignment.decode == DECODE_MDS:
        return _CountState(assignment.k_total, assignment.kbar)
    if assignment.decode == DECODE_THRESHOLD:
        needed = assignment.n_workers - assignment.n_orders + 1
        return _CountState(assignment.k_total, needed)
    raise ValueError(f"unknown decode rule {assignment.decode!r}")


def message_times(assignment: ComputationAssignment, unit_times: np.ndarray) -> np.ndarray:
    """Arrival time of every message given per-worker unit times.

    Returns an (n_messages, n_workers) array: entry [m, w] is when worker w's
    m-th message reaches the master.
    """
    unit_times = np.asarray(unit_times, dtype=float)
    return np.outer(assignment.schedule(), unit_times)


def simulate_iteration(
    assignment: ComputationAssignment,
    q: float,
    model: LatencyModel,
    rng: np.random.Generator,
) -> IterationOutcome:
    """Simulate one iteration and stop at the tolerance threshold.

    Messages are replayed in arrival order (ties broken by message then
    worker index) until ceil((1-q) * k_total) blocks are recoverable.  The
    outcome reports the stop time, how many messages had arrived by then
    (ties included), and the recovered-block mask.  If even all messages
    cannot meet the threshold the outcome is flagged incomplete with an
    infinite completion time.
    """
    threshold = recovery_threshold(assignment.k_total, q)
    unit_times = model.sample_unit_times(rng, assignment.n_workers)
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
    state = make_decode_state(assignment)
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
        return {
            "trials": self.trials,
            "seed": self.seed,
            "mean_time": self.mean_time,
            "mean_messages": self.mean_messages,
            "mean_redundant": float(np.mean(self.redundant)),
            "mean_recovered": float(np.mean(self.recovered)),
            "completion_rate": self.completion_rate,
            **self.time_percentiles(),
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
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    times = np.empty(trials)
    messages = np.empty(trials, dtype=int)
    redundant = np.empty(trials, dtype=int)
    recovered = np.empty(trials, dtype=int)
    completed = np.empty(trials, dtype=bool)
    fixed = None if callable(source) else source
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
