"""Core domain types for coded distributed matrix-vector multiplication.

A data matrix is split row-wise into equal blocks, which codes name by id.
Workers receive coded tasks (sparse linear combinations of blocks), compute
them against the current parameter vector, and stream back one message per
completed task group.  The master stops as soon as a tolerated fraction of
the blocks is recoverable.

An assignment stores its tasks as arrays, one (workers x degree) array of
block ids and one of coefficients per order, which every command reads;
``CodedTask`` objects are views built on demand for tests and the replay.
The per-order degrees are the widths of those arrays; the rules a
circular-shift code's degrees must follow are stated in
``schemes.circular_shift_violations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

MODE_COMPUTATION = "computation"
MODE_COMMUNICATION = "communication"

DECODE_PEEL = "peel"
DECODE_MDS = "mds"
DECODE_THRESHOLD = "threshold"


@dataclass(frozen=True)
class CodedTask:
    """One coded computation: a sparse linear combination of blocks.

    support and coefficients are aligned; the task value is
    sum(coefficients[i] * block[support[i]]).  Binary schemes use all-one
    coefficients.  Construction keeps the given support order (useful when
    printing assignments); callers must not pass duplicate support entries.
    """

    support: tuple[int, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("coded task must combine at least one block")
        if len(self.support) != len(self.coefficients):
            raise ValueError("support and coefficients must have equal length")

    @classmethod
    def of_blocks(cls, blocks: Iterable[int]) -> "CodedTask":
        support = tuple(int(b) for b in blocks)
        return cls(support, (1.0,) * len(support))

    @property
    def degree(self) -> int:
        return len(self.support)


class Message(NamedTuple):
    """One transmission slot of a worker.

    tasks_done: worker-local number of tasks finished when the message goes
    out (the send time is tasks_done * task_cost * per-unit latency).
    orders: indices of the grid rows whose results the message carries.
    """

    tasks_done: int
    orders: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ComputationAssignment:
    """Complete description of what every worker computes and sends.

    Tasks are stored as one pair of arrays per order: support[j] is an int
    array of shape (n_workers, d_j) whose row w holds the block ids of worker
    w's order-j task, and coefficients[j] holds the matching weights (all
    ones for binary schemes).  Every order has a single degree d_j, so no
    padding is needed.  The arrays are shared, not copied, and must not be
    modified.  tasks[j][w] is the same task as a CodedTask, built on first
    use (for printing and tests); the decoders read the arrays.

    messages is the shared send schedule (identical for all workers).  mode
    records whether coding is applied before computation ("computation":
    each task is one matrix-vector product on a coded block) or after
    ("communication": each task is one uncoded partial computation and
    coding happens at message time).
    task_cost scales a single task relative to one full-size block product
    (e.g. 1/group_count when blocks are split into smaller groups).
    decode names the recovery rule: "peel" for sparse peeling, "mds" for
    any-kbar-workers group decoding, "threshold" for exact-sum schemes that
    need a fixed number of complete workers.  kbar, the complete workers an
    MDS code waits for, lies in [1, n_workers] and is None for any other
    rule; a threshold code waits for n_workers - n_orders + 1 >= 1.  A peel
    code's coefficients must be nonzero, since peeling reads a task's support
    as the blocks it holds; MDS codes keep their zeros (an evaluation point 0 gives some).
    Assignments hold arrays, so they compare by identity.
    """

    n_workers: int
    k_total: int
    support: tuple[np.ndarray, ...]
    coefficients: tuple[np.ndarray, ...]
    messages: tuple[Message, ...]
    mode: str = MODE_COMPUTATION
    task_cost: float = 1.0
    decode: str = DECODE_PEEL
    kbar: int | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1 or self.k_total < 1:
            raise ValueError("need at least one worker and one block")
        if self.mode not in (MODE_COMPUTATION, MODE_COMMUNICATION):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.decode not in (DECODE_PEEL, DECODE_MDS, DECODE_THRESHOLD):
            raise ValueError(f"unknown decode rule {self.decode!r}")
        if self.decode == DECODE_MDS and not 1 <= (self.kbar or 0) <= self.n_workers:
            raise ValueError(f"an MDS code needs kbar in [1, {self.n_workers}], got {self.kbar}")
        if self.decode != DECODE_MDS and self.kbar is not None:
            raise ValueError(f"kbar applies to MDS codes only, not to a {self.decode} code")
        if self.decode == DECODE_THRESHOLD and self.n_orders > self.n_workers:
            raise ValueError(f"threshold code: {self.n_orders} orders exceed {self.n_workers} workers")
        if len(self.coefficients) != len(self.support):
            raise ValueError("support and coefficients must have one array per order")
        for ids, coefs in zip(self.support, self.coefficients):
            if ids.ndim != 2 or ids.shape[0] != self.n_workers:
                raise ValueError("task grid must have one task per worker per order")
            if ids.dtype.kind not in "iu":
                raise ValueError(f"block ids must be integers, got {ids.dtype}")
            if ids.shape[1] == 0:
                raise ValueError("coded task must combine at least one block")
            if coefs.shape != ids.shape:
                raise ValueError("support and coefficients must have equal length")
            if self.decode == DECODE_PEEL and not np.all(coefs):
                raise ValueError(
                    "a peeling code needs nonzero coefficients: a zero-weight "
                    "block is in a task's support but not in its value"
                )
        if self.support:
            ids = np.concatenate([ids.ravel() for ids in self.support])
            if ids.min() < 0 or ids.max() >= self.k_total:
                raise ValueError(f"task support outside [0, {self.k_total})")
        prev = 0
        seen: set[int] = set()
        for msg in self.messages:
            if msg.tasks_done <= prev:
                raise ValueError("message schedule must be strictly increasing")
            prev = msg.tasks_done
            for order in msg.orders:
                if not 0 <= order < self.n_orders or order in seen:
                    raise ValueError("each order must appear in exactly one message")
                seen.add(order)
        if len(seen) != self.n_orders:
            raise ValueError("every order must be carried by some message")
        if self.task_cost <= 0:
            raise ValueError("task_cost must be positive")

    @cached_property
    def tasks(self) -> tuple[tuple[CodedTask, ...], ...]:
        """tasks[j][w]: worker w's order-j task as a CodedTask."""
        return tuple(
            tuple(CodedTask(tuple(s), tuple(c)) for s, c in zip(ids.tolist(), coefs.tolist()))
            for ids, coefs in zip(self.support, self.coefficients)
        )

    @property
    def n_orders(self) -> int:
        return len(self.support)

    @property
    def max_score(self) -> int:
        """Number of tasks a worker can complete in total."""
        return self.messages[-1].tasks_done

    def schedule(self) -> np.ndarray:
        """Cumulative work (in full-size computation units) at each send."""
        return np.array([m.tasks_done for m in self.messages], dtype=float) * self.task_cost

    def worker_tasks(self, worker: int) -> list[CodedTask]:
        return [row[worker] for row in self.tasks]
