"""Core domain types for coded distributed matrix-vector multiplication.

A data matrix is split row-wise into equal blocks.  Workers receive coded
tasks (sparse linear combinations of blocks), compute them against the
current parameter vector, and stream back one message per completed task
group.  The master stops as soon as a tolerated fraction of the blocks is
recoverable.

An assignment stores its tasks as arrays, one (workers x degree) array of
block ids and one of coefficients per order; ``CodedTask`` objects are views
built on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

MODE_COMPUTATION = "computation"
MODE_COMMUNICATION = "communication"

DECODE_PEEL = "peel"
DECODE_MDS = "mds"
DECODE_THRESHOLD = "threshold"


@dataclass(frozen=True)
class BlockPartition:
    """Row-wise split of a matrix into equally sized contiguous blocks.

    Blocks are numbered 0..total_blocks-1 from top to bottom.  With
    group_count > 1 the blocks are additionally organized into consecutive
    groups of equal size; block b belongs to group b // group_size.
    """

    blocks: tuple[np.ndarray, ...]
    rows_per_block: int
    group_count: int = 1

    def __post_init__(self) -> None:
        if len(self.blocks) % self.group_count:
            raise ValueError(
                f"{len(self.blocks)} blocks cannot form {self.group_count} equal groups"
            )

    @property
    def total_blocks(self) -> int:
        return len(self.blocks)

    @property
    def group_size(self) -> int:
        return len(self.blocks) // self.group_count

    def group_of(self, block: int) -> int:
        return block // self.group_size

    def concatenated(self) -> np.ndarray:
        """Stack the blocks back into the original matrix."""
        return np.concatenate(self.blocks, axis=0)


def partition_matrix(matrix, block_count: int, group_count: int = 1) -> BlockPartition:
    """Split ``matrix`` into ``block_count * group_count`` equal row blocks.

    Args:
        matrix: 1-D or 2-D array; rows are distributed over the blocks.
        block_count: number of blocks per group.
        group_count: number of groups (1 for the ungrouped schemes).

    Returns:
        BlockPartition with the blocks in top-to-bottom order.

    Raises:
        ValueError: if the row count is not divisible by the total block count.
    """
    matrix = np.asarray(matrix)
    if block_count < 1 or group_count < 1:
        raise ValueError("block_count and group_count must be positive")
    rows = matrix.shape[0]
    total = block_count * group_count
    if rows % total:
        raise ValueError(
            f"matrix with {rows} rows cannot be split into {total} equal blocks "
            f"({block_count} per group x {group_count} groups)"
        )
    per = rows // total
    blocks = tuple(matrix[i * per : (i + 1) * per] for i in range(total))
    return BlockPartition(blocks=blocks, rows_per_block=per, group_count=group_count)


@dataclass(frozen=True)
class DegreeVector:
    """Per-order degrees of the coded tasks handed to every worker.

    degrees[j] is the number of blocks combined in a worker's order-(j+1)
    task.  Two design rules are enforced: the first task is uncoded
    (criterion (i): degrees[0] == 1) and degrees never decrease with the
    order (criterion (ii)), so early messages stay cheap to decode.
    """

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        errors = degree_vector_violations(self.degrees)
        if errors:
            raise ValueError("; ".join(errors))

    def __len__(self) -> int:
        return len(self.degrees)

    @property
    def order_count(self) -> int:
        return len(self.degrees)

    @property
    def total(self) -> int:
        """Total number of assignment rows consumed (sum of degrees)."""
        return sum(self.degrees)

    def cumulative(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.degrees))


def degree_vector_violations(degrees: Sequence[int]) -> list[str]:
    """Return human-readable violations of the degree-vector design rules."""
    errors: list[str] = []
    degrees = tuple(int(d) for d in degrees)
    if not degrees:
        return ["degree vector must be non-empty"]
    if any(d < 1 for d in degrees):
        errors.append(f"degrees must be positive integers, got {list(degrees)}")
        return errors
    if degrees[0] != 1:
        errors.append(
            f"criterion (i) violated: first degree must be 1 so the first "
            f"message is uncoded, got {degrees[0]}"
        )
    if any(b < a for a, b in zip(degrees, degrees[1:])):
        errors.append(
            f"criterion (ii) violated: degrees must be non-decreasing, "
            f"got {list(degrees)}"
        )
    return errors


def validate_degree_vector(degrees: Sequence[int] | DegreeVector) -> DegreeVector:
    """Coerce ``degrees`` to a DegreeVector, raising on design-rule violations."""
    if isinstance(degrees, DegreeVector):
        return degrees
    return DegreeVector(tuple(int(d) for d in degrees))


@dataclass(frozen=True)
class CumulativeType:
    """Histogram of worker scores: counts[i] workers completed max_score - i tasks.

    Counts are stored in descending score order (N_max, ..., N_0), matching
    the usual tabulation of straggler states.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts or any(c < 0 for c in self.counts):
            raise ValueError(f"invalid type counts {self.counts}")

    @property
    def max_score(self) -> int:
        return len(self.counts) - 1

    @property
    def worker_count(self) -> int:
        return sum(self.counts)

    def count_for_score(self, score: int) -> int:
        return self.counts[self.max_score - score]

    def label(self) -> str:
        return "(" + ",".join(str(c) for c in self.counts) + ")"


def type_of(scores: Sequence[int], max_score: int) -> CumulativeType:
    """Histogram a score vector into its cumulative type.

    Args:
        scores: per-worker number of completed tasks.
        max_score: largest score a worker can reach.

    Returns:
        CumulativeType with counts ordered (N_max, ..., N_0).
    """
    counts = [0] * (max_score + 1)
    for s in scores:
        s = int(s)
        if not 0 <= s <= max_score:
            raise ValueError(f"score {s} outside [0, {max_score}]")
        counts[max_score - s] += 1
    return CumulativeType(tuple(counts))


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

    def coeff_map(self) -> dict[int, float]:
        return dict(zip(self.support, self.coefficients))


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
    need a fixed number of complete workers.  Assignments hold arrays, so
    they compare by identity.
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
    eval_points: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1 or self.k_total < 1:
            raise ValueError("need at least one worker and one block")
        if self.mode not in (MODE_COMPUTATION, MODE_COMMUNICATION):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.decode not in (DECODE_PEEL, DECODE_MDS, DECODE_THRESHOLD):
            raise ValueError(f"unknown decode rule {self.decode!r}")
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
