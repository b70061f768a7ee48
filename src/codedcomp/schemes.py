"""Builders for the computation-assignment schemes, and their rules.

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
* uncoded multi-message (``build_uc_mmc``): the circular-shift code with
  ``load`` degree-1 orders and consecutive shifts, one message per block;
* exact-sum coding for additive partial results (``build_gc``): the same
  cyclic placement coded at send time, a single message per worker, and a
  fixed complete-worker threshold.

Each construction rule is stated once, in ``circular_shift_violations``,
``mds_violations`` or ``load_violations``, as messages prefixed with the field
at fault: the builders raise them and config validation lists them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .blocks import (
    DECODE_MDS,
    DECODE_PEEL,
    DECODE_THRESHOLD,
    MODE_COMMUNICATION,
    MODE_COMPUTATION,
    ComputationAssignment,
    DegreeVector,
    Message,
    degree_vector_violations,
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


def _check(errors: list[str]) -> None:
    if errors:
        raise ValueError("; ".join(errors))


def circular_shift_violations(
    k: int,
    degrees: Sequence[int] | DegreeVector,
    groups: int,
    z: Sequence[int] | None,
    offsets: Sequence[int] | None,
) -> list[str]:
    """Violations of the circular-shift rules, each prefixed with its field.

    z=None is the one-group code, whose degree sum the k distinct shifts
    bound; otherwise each group of z is bounded.  Offsets are distinct per group.
    """
    if isinstance(degrees, DegreeVector):
        degrees = degrees.degrees
    errors = [f"degrees: {v}" for v in degree_vector_violations(degrees)]
    total = sum(degrees)
    if z is None:
        if total > k:
            errors.append(f"degrees: sum {total} exceeds the {k} available distinct shifts")
        z = (1,) * total
    else:
        if len(z) != total:
            errors.append(f"z: expected {total} entries (sum of degrees), got {len(z)}")
        bad = [g for g in z if not 1 <= g <= groups]
        if bad:
            errors.append(f"z: entries {bad} outside [1, {groups}]")
        for g, used in sorted(Counter(z).items()):
            if used > k and 1 <= g <= groups:
                errors.append(f"z: group {g} used {used} times but only {k} distinct shifts exist")
    if offsets is not None:
        offsets = [int(o) for o in offsets]
        if len(offsets) != total:
            errors.append(f"offsets: expected {total} entries (sum of degrees), got {len(offsets)}")
        if any(not 1 <= o <= k for o in offsets):
            errors.append(f"offsets: must lie in [1, {k}], got {offsets}")
        pairs = set(zip(z, offsets))
        if len(pairs) < min(len(z), len(offsets)):
            errors.append(f"offsets: must be distinct within a group, got {offsets}")
    return errors


def _shift_assignment(k, degrees, groups, z, rng, offsets) -> AssignmentMatrix:
    _check(circular_shift_violations(k, degrees, groups, z, offsets))
    if z is None:
        z = (1,) * validate_degree_vector(degrees).total
    if offsets is None:
        if rng is None:
            rng = np.random.default_rng()
        # One permutation per group, in group order, then offsets in row
        # order: this draw order fixes every seeded construction stream.
        pools = [iter(rng.permutation(k) + 1) for _ in range(groups)]
        offsets = [next(pools[g - 1]) for g in z]
    offsets = tuple(int(o) for o in offsets)
    row_groups = np.asarray(z) - 1
    grid = row_groups[:, None] * k + (np.arange(k) + np.asarray(offsets)[:, None] - 1) % k
    return AssignmentMatrix(
        grid=grid,
        offsets=offsets,
        groups=tuple(g - 1 for g in z),
        group_count=groups,
    )


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
        ValueError: listing every :func:`circular_shift_violations`.
    """
    return _shift_assignment(k, degrees, 1, None, rng, offsets)


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
    support = tuple(matrix.grid[c - d : c].T for c, d in zip(cums, dv.degrees))
    if mode == MODE_COMPUTATION:
        messages = tuple(Message(j + 1, (j,)) for j in range(len(dv)))
    elif mode == MODE_COMMUNICATION:
        messages = tuple(Message(cums[j], (j,)) for j in range(len(dv)))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ComputationAssignment(
        n_workers=k,
        k_total=k * matrix.group_count,
        support=support,
        coefficients=tuple(np.ones(ids.shape) for ids in support),
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
    return _shift_assignment(k, degrees, plan.group_count, plan.row_groups, rng, offsets)


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


def mds_violations(k: int, kbar: int, eval_points: Sequence[float] | None) -> list[str]:
    """Violations of the MDS construction rules, each prefixed with its
    config field: kbar in [1, k], and at least k finite, distinct points."""
    errors = []
    if not 1 <= kbar <= k:
        errors.append(f"kbar: must lie in [1, {k}], got {kbar}")
    if eval_points is not None:
        points = [float(x) for x in eval_points]
        if len(points) < k:
            errors.append(f"eval_points: need {k} points, got {len(points)}")
        if not all(math.isfinite(x) for x in points):
            errors.append(f"eval_points: must be finite, got {points}")
        elif len(set(points)) != len(points):
            errors.append("eval_points: points must be distinct")
    return errors


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
        ValueError: listing every :func:`mds_violations`.
    """
    _check(mds_violations(k, kbar, eval_points))
    if eval_points is None:
        eval_points = default_eval_points(k)
    eval_points = tuple(float(x) for x in eval_points)
    r = math.ceil(k / kbar)
    if kbar == k:
        support = (np.arange(k)[:, None],)
        coefficients = (np.ones((k, 1)),)
    else:
        # Group g holds blocks g, g + r, g + 2r, ...; the powers stay Python
        # floats so an overflow raises instead of turning into infinity.
        groups = [np.arange(g, k, r) for g in range(r)]
        support = tuple(np.tile(ids, (k, 1)) for ids in groups)
        coefficients = tuple(
            np.array([[x**p for p in range(len(ids))] for x in eval_points[:k]])
            for ids in groups
        )
    return ComputationAssignment(
        n_workers=k,
        k_total=k,
        support=support,
        coefficients=coefficients,
        messages=(Message(r, tuple(range(r))),),
        mode=MODE_COMPUTATION,
        decode=DECODE_MDS,
        kbar=kbar,
        eval_points=eval_points,
    )


def load_violations(k: int, load: int) -> list[str]:
    """Violation of the cyclic-load rule of uc-mmc and gc: load in [1, k]."""
    return [] if 1 <= load <= k else [f"load: must lie in [1, {k}], got {load}"]


def build_uc_mmc(k: int, load: int) -> ComputationAssignment:
    """Uncoded multi-message assignment: the circular-shift code with
    ``load`` degree-1 orders and consecutive shifts 1..load.

    Worker w's order-j task is block (w + j) mod k, so any ``load``
    consecutive workers jointly cover disjoint windows of blocks.
    """
    _check(load_violations(k, load))
    return build_rcs(k, (1,) * load, offsets=range(1, load + 1))


def build_gc(k: int, load: int) -> ComputationAssignment:
    """Exact-sum coding: the uc-mmc placement, coded at send time.

    Worker w computes the ``load`` cyclically consecutive partial results
    starting at w, then sends a single combination chosen so that any
    k - load + 1 complete workers reconstruct the full sum.  Partial results
    below that threshold are useless, and the tolerance parameter cannot
    relax the scheme.
    """
    return replace(
        build_uc_mmc(k, load),
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
    support = (np.arange(4)[:, None], np.array([[2, 3], [0, 2], [1, 3], [0, 1]]))
    return ComputationAssignment(
        n_workers=4,
        k_total=4,
        support=support,
        coefficients=tuple(np.ones(ids.shape) for ids in support),
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
