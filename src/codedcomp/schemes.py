"""Builders for the computation-assignment schemes.

Five families are provided:

* circular-shift codes (``build_rcs`` / ``build_rcs_assignment`` + ``rcs_encode``):
  each assignment row is the block sequence 1..K circularly shifted by a
  randomly drawn offset, and consecutive rows are summed per worker into
  tasks of increasing degree;
* grouped circular-shift codes (``build_generalized_rcs``): blocks are split
  into equal groups of reduced size and every assignment row draws its shift
  within one group, trading more messages for smaller unit computations;
* MDS-coded computation (``build_mcc``): interleaved block groups combined
  with Vandermonde coefficients; any ``kbar`` complete workers recover
  everything, nothing is recovered before that;
* uncoded multi-message (``build_uc_mmc``): cyclically shifted raw blocks,
  one message per block;
* exact-sum coding for additive partial results (``build_gc``): cyclic
  uncoded partial computations, a single coded message per worker, and a
  fixed complete-worker threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocks import (
    DECODE_MDS,
    DECODE_PEEL,
    DECODE_THRESHOLD,
    MODE_COMMUNICATION,
    MODE_COMPUTATION,
    CodedTask,
    ComputationAssignment,
    DegreeVector,
    Message,
    validate_degree_vector,
)


@dataclass(frozen=True)
class AssignmentMatrix:
    """Row-shifted block assignment prior to encoding.

    grid[i, w] is the 0-based block id sitting in row i of worker w's
    column.  offsets keeps the drawn 1-based shift parameters in row order
    (offset 1 means no shift).  groups[i] is the 0-based group the row was
    drawn in; plain constructions use a single group 0.
    """

    grid: np.ndarray
    offsets: tuple[int, ...]
    groups: tuple[int, ...]
    group_count: int = 1

    @property
    def n_rows(self) -> int:
        return self.grid.shape[0]

    @property
    def n_workers(self) -> int:
        return self.grid.shape[1]


@dataclass(frozen=True)
class GroupPlan:
    """Group layout for the grouped circular-shift construction.

    group_count groups of equal size; row_groups[i] is the 1-based group in
    which assignment row i draws its shift.  No group may be used more than
    K times (offsets within a group are drawn without replacement).
    """

    group_count: int
    row_groups: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.group_count < 1:
            raise ValueError("group_count must be positive")
        bad = [g for g in self.row_groups if not 1 <= g <= self.group_count]
        if bad:
            raise ValueError(
                f"row groups {bad} outside [1, {self.group_count}]"
            )


def _shift_row(k: int, offset: int) -> np.ndarray:
    """Block sequence 0..k-1 circularly shifted to start at offset-1."""
    return (np.arange(k) + (offset - 1)) % k


def _check_offsets(offsets: Sequence[int], k: int, count: int) -> tuple[int, ...]:
    offsets = tuple(int(o) for o in offsets)
    if len(offsets) != count:
        raise ValueError(f"expected {count} offsets, got {len(offsets)}")
    if any(not 1 <= o <= k for o in offsets):
        raise ValueError(f"offsets must lie in [1, {k}], got {list(offsets)}")
    if len(set(offsets)) != len(offsets):
        raise ValueError(f"offsets must be distinct, got {list(offsets)}")
    return offsets


def build_rcs_assignment(
    k: int,
    degrees: Sequence[int] | DegreeVector,
    rng: np.random.Generator | None = None,
    offsets: Sequence[int] | None = None,
) -> AssignmentMatrix:
    """Draw the row-shift assignment of a circular-shift code: the one-group
    case of :func:`build_generalized_assignment`.

    Args:
        k: number of workers (= blocks).
        degrees: per-order degrees; their sum L fixes the number of rows.
        rng: source of randomness for the offset draw (ignored when offsets
            are given explicitly).
        offsets: optional 1-based shift parameters, one per row, distinct.

    Returns:
        AssignmentMatrix with L rows; row i is 1..K shifted by offsets[i]-1.

    Raises:
        ValueError: if L exceeds k, or offsets are invalid/duplicated.
    """
    plan = GroupPlan(1, (1,) * validate_degree_vector(degrees).total)
    return build_generalized_assignment(k, plan, degrees, rng, offsets)


def rcs_encode(
    matrix: AssignmentMatrix,
    degrees: Sequence[int] | DegreeVector,
    mode: str = MODE_COMPUTATION,
) -> ComputationAssignment:
    """Sum consecutive assignment rows into per-worker coded tasks.

    Worker w's order-j task combines rows cum(j-1)..cum(j)-1 of column w
    with all-one coefficients.  In "computation" mode the worker computes
    each coded task as one unit and sends a message per task; in
    "communication" mode the worker computes every row as one unit and the
    order-j message leaves after cum(j) units.

    Returns:
        ComputationAssignment decodable by peeling.
    """
    dv = validate_degree_vector(degrees)
    if dv.total != matrix.n_rows:
        raise ValueError(
            f"degree vector sums to {dv.total} but assignment has {matrix.n_rows} rows"
        )
    k = matrix.n_workers
    cums = dv.cumulative()
    rows = []
    for j, d in enumerate(dv.degrees):
        lo = cums[j] - d
        chunk = matrix.grid[lo : cums[j]]
        rows.append(
            tuple(CodedTask.of_blocks(chunk[:, w].tolist()) for w in range(k))
        )
    if mode == MODE_COMPUTATION:
        messages = tuple(Message(j + 1, (j,)) for j in range(len(dv)))
    elif mode == MODE_COMMUNICATION:
        messages = tuple(Message(cums[j], (j,)) for j in range(len(dv)))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ComputationAssignment(
        n_workers=k,
        k_total=k * matrix.group_count,
        tasks=tuple(rows),
        messages=messages,
        mode=mode,
        task_cost=1.0 / matrix.group_count,
        decode=DECODE_PEEL,
    )


def build_rcs(
    k: int,
    degrees: Sequence[int] | DegreeVector,
    rng: np.random.Generator | None = None,
    offsets: Sequence[int] | None = None,
    mode: str = MODE_COMPUTATION,
) -> ComputationAssignment:
    """Draw and encode a circular-shift code in one call."""
    return rcs_encode(build_rcs_assignment(k, degrees, rng, offsets), degrees, mode)


def build_generalized_assignment(
    k: int,
    plan: GroupPlan,
    degrees: Sequence[int] | DegreeVector,
    rng: np.random.Generator | None = None,
    offsets: Sequence[int] | None = None,
) -> AssignmentMatrix:
    """Draw a grouped row-shift assignment.

    Row i lives in group plan.row_groups[i]; its shifted sequence addresses
    that group's K blocks (global ids group*K .. group*K+K-1).  Shifts are
    drawn without replacement within each group, so no worker ever sees the
    same block twice.
    """
    dv = validate_degree_vector(degrees)
    total = dv.total
    if len(plan.row_groups) != total:
        raise ValueError(
            f"plan assigns {len(plan.row_groups)} rows but degrees sum to {total}"
        )
    for g in range(1, plan.group_count + 1):
        used = sum(1 for x in plan.row_groups if x == g)
        if used > k:
            raise ValueError(
                f"group {g} used by {used} rows but only {k} distinct shifts exist"
            )
    if offsets is None:
        if rng is None:
            rng = np.random.default_rng()
        pools = {
            g: iter(rng.permutation(k) + 1) for g in range(1, plan.group_count + 1)
        }
        offsets = tuple(int(next(pools[g])) for g in plan.row_groups)
    else:
        offsets = tuple(int(o) for o in offsets)
        if len(offsets) != total:
            raise ValueError(f"expected {total} offsets, got {len(offsets)}")
        for g in range(1, plan.group_count + 1):
            own = [o for o, rg in zip(offsets, plan.row_groups) if rg == g]
            _check_offsets(own, k, len(own))
    rows = []
    for off, g in zip(offsets, plan.row_groups):
        rows.append((g - 1) * k + _shift_row(k, off))
    return AssignmentMatrix(
        grid=np.stack(rows),
        offsets=offsets,
        groups=tuple(g - 1 for g in plan.row_groups),
        group_count=plan.group_count,
    )


def build_generalized_rcs(
    k: int,
    plan: GroupPlan,
    degrees: Sequence[int] | DegreeVector,
    rng: np.random.Generator | None = None,
    offsets: Sequence[int] | None = None,
    mode: str = MODE_COMPUTATION,
) -> ComputationAssignment:
    """Draw and encode a grouped circular-shift code in one call.

    The returned assignment addresses k * plan.group_count blocks and each
    task costs 1/plan.group_count of a full-size computation.
    """
    matrix = build_generalized_assignment(k, plan, degrees, rng, offsets)
    return rcs_encode(matrix, degrees, mode)


def default_eval_points(k: int) -> tuple[float, ...]:
    """Distinct evaluation points for the MDS construction: 1, 2, 4, ..."""
    return tuple(float(2**i) for i in range(k))


def build_mcc(
    k: int,
    kbar: int,
    eval_points: Sequence[float] | None = None,
) -> ComputationAssignment:
    """MDS-coded computation: interleaved groups, Vandermonde coefficients.

    Blocks are padded to r*kbar with zero blocks (r = ceil(k/kbar)) and
    interleaved into r groups {g, g+r, g+2r, ...}.  Worker i's order-g task
    combines group g with coefficients x_i^0 .. x_i^(kbar-1); all r tasks
    travel in a single message once the worker finishes.  Any kbar complete
    workers recover every block; fewer recover nothing.  kbar == k
    degenerates to the uncoded one-block-per-worker assignment.

    Raises:
        ValueError: if kbar is outside [1, k] or eval points repeat.
    """
    if not 1 <= kbar <= k:
        raise ValueError(f"kbar must lie in [1, {k}], got {kbar}")
    if eval_points is None:
        eval_points = default_eval_points(k)
    eval_points = tuple(float(x) for x in eval_points)
    if len(eval_points) < k:
        raise ValueError(f"need {k} evaluation points, got {len(eval_points)}")
    if len(set(eval_points)) != len(eval_points):
        raise ValueError("evaluation points must be distinct")
    r = math.ceil(k / kbar)
    if kbar == k:
        rows = [tuple(CodedTask((w,), (1.0,)) for w in range(k))]
    else:
        rows = []
        for g in range(r):
            row = []
            for w in range(k):
                support = []
                coeffs = []
                for p in range(kbar):
                    block = g + p * r
                    if block < k:
                        support.append(block)
                        coeffs.append(eval_points[w] ** p)
                row.append(CodedTask(tuple(support), tuple(coeffs)))
            rows.append(tuple(row))
    return ComputationAssignment(
        n_workers=k,
        k_total=k,
        tasks=tuple(rows),
        messages=(Message(r, tuple(range(r))),),
        mode=MODE_COMPUTATION,
        decode=DECODE_MDS,
        kbar=kbar,
        eval_points=eval_points,
    )


def build_uc_mmc(k: int, load: int) -> ComputationAssignment:
    """Uncoded multi-message assignment: cyclic raw blocks, one message each.

    Worker w's order-j task is block (w + j) mod k, so any ``load``
    consecutive workers jointly cover disjoint windows of blocks.
    """
    if not 1 <= load <= k:
        raise ValueError(f"load must lie in [1, {k}], got {load}")
    rows = tuple(
        tuple(CodedTask(((w + j) % k,), (1.0,)) for w in range(k))
        for j in range(load)
    )
    return ComputationAssignment(
        n_workers=k,
        k_total=k,
        tasks=rows,
        messages=tuple(Message(j + 1, (j,)) for j in range(load)),
        mode=MODE_COMPUTATION,
        decode=DECODE_PEEL,
    )


def build_gc(k: int, load: int) -> ComputationAssignment:
    """Exact-sum coding: cyclic partial computations, one coded message.

    Worker w computes the ``load`` cyclically consecutive partial results
    starting at w, then sends a single combination chosen so that any
    k - load + 1 complete workers reconstruct the full sum.  Partial results
    below that threshold are useless, and the tolerance parameter cannot
    relax the scheme.
    """
    if not 1 <= load <= k:
        raise ValueError(f"load must lie in [1, {k}], got {load}")
    rows = tuple(
        tuple(CodedTask(((w + j) % k,), (1.0,)) for w in range(k))
        for j in range(load)
    )
    return ComputationAssignment(
        n_workers=k,
        k_total=k,
        tasks=rows,
        messages=(Message(load, tuple(range(load))),),
        mode=MODE_COMMUNICATION,
        decode=DECODE_THRESHOLD,
    )


def hybrid_example() -> ComputationAssignment:
    """Hand-crafted four-worker benchmark assignment with partial recovery.

    Round one is uncoded (worker w computes block w); round two gives each
    worker a degree-2 combination avoiding its own block: {3,4}, {1,3},
    {2,4}, {1,2} (1-based).  Every block appears once per round across the
    workers, which makes small success counts easy to tabulate by hand.
    """
    second = ((2, 3), (0, 2), (1, 3), (0, 1))
    rows = (
        tuple(CodedTask((w,), (1.0,)) for w in range(4)),
        tuple(CodedTask.of_blocks(s) for s in second),
    )
    return ComputationAssignment(
        n_workers=4,
        k_total=4,
        tasks=rows,
        messages=(Message(1, (0,)), Message(2, (1,))),
        mode=MODE_COMPUTATION,
        decode=DECODE_PEEL,
    )


def order_uniform(matrix: AssignmentMatrix, degrees: Sequence[int] | DegreeVector) -> bool:
    """Check order-wise balance of an encoded row-shift assignment.

    For every order j and block b, b must appear in exactly as many of the
    K order-j tasks as there are order-j rows drawn in b's group (equal to
    the degree for single-group constructions).
    """
    dv = validate_degree_vector(degrees)
    k = matrix.n_workers
    cums = dv.cumulative()
    for j, d in enumerate(dv.degrees):
        lo = cums[j] - d
        chunk = matrix.grid[lo : cums[j]]
        expected = np.zeros(k * matrix.group_count, dtype=int)
        for g in matrix.groups[lo : cums[j]]:
            expected[g * k : (g + 1) * k] += 1
        counts = np.bincount(chunk.ravel(), minlength=k * matrix.group_count)
        if not np.array_equal(counts, expected):
            return False
    return True


def worker_uniform(matrix: AssignmentMatrix) -> bool:
    """Check that no worker is ever assigned the same block twice."""
    for w in range(matrix.n_workers):
        col = matrix.grid[:, w]
        if len(set(col.tolist())) != len(col):
            return False
    return True
