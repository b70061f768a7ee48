"""Builders for the computation-assignment schemes, and their rules.

Five families are provided:

* circular-shift codes (``build_rcs``): each row of the shift grid is the
  block sequence 1..K circularly shifted by a randomly drawn offset, and
  consecutive rows are summed per worker into tasks of increasing degree.
  With ``groups`` > 1 the blocks are split into equal groups of reduced size
  and row i draws its shift within group ``z[i]``, trading more messages for
  smaller unit computations.  ``CircularShiftSource`` is the one builder of
  these codes: its rules and layout are fixed once, a trial draws only its
  shifts, and ``build_rcs`` checks the rules, then returns one draw of the
  source or the source at the given offsets;
* MDS-coded computation (``build_mcc``): interleaved block groups combined
  with Vandermonde coefficients; any ``kbar`` complete workers recover
  everything, nothing is recovered before that;
* uncoded multi-message (``build_uc_mmc``): the circular-shift code with
  ``load`` degree-1 orders and consecutive shifts, one message per block;
* exact-sum coding for additive partial results (``build_gc``): the same
  cyclic placement coded at send time, a single message per worker, and a
  fixed complete-worker threshold.

Each construction rule is stated once, in ``circular_shift_violations``,
``mds_violations``, ``load_violations`` or ``hybrid_example``, as messages
prefixed with the config field at fault.  The builders raise them together
as one :class:`ConfigError`, and config validation lists them from the one
build it makes.  The balance a drawn code keeps is a property the tests
check, not a rule.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import replace
from typing import NamedTuple, Sequence, Union

import numpy as np

from .blocks import (
    DECODE_MDS,
    DECODE_PEEL,
    DECODE_THRESHOLD,
    MODE_COMMUNICATION,
    MODE_COMPUTATION,
    ComputationAssignment,
    Message,
)


class ConfigError(ValueError):
    """Carries every violation found in a config or in a builder's
    arguments, each prefixed with the config field at fault."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _check(errors: list[str]) -> None:
    if errors:
        raise ConfigError(errors)


def circular_shift_violations(
    k: int,
    degrees: Sequence[int],
    groups: int,
    z: Sequence[int] | None,
    offsets: Sequence[int] | None,
) -> list[str]:
    """Violations of the circular-shift rules, each prefixed with its field.

    degrees[j] is the number of rows summed into a worker's order-(j+1) task.
    The first task is uncoded (criterion (i): degrees[0] == 1) and degrees
    never decrease (criterion (ii)), so early messages stay cheap to decode.
    z=None is the one-group code, whose degree sum the k distinct shifts
    bound; otherwise each group of z is bounded.  Offsets are distinct per group.
    """
    errors = []
    ints = [int(d) for d in degrees]
    if not ints:
        errors.append("degrees: degree vector must be non-empty")
    elif any(d < 1 for d in ints):
        errors.append(f"degrees: degrees must be positive integers, got {ints}")
    else:
        if ints[0] != 1:
            errors.append(
                f"degrees: criterion (i) violated: first degree must be 1 so the "
                f"first message is uncoded, got {ints[0]}"
            )
        if any(b < a for a, b in zip(ints, ints[1:])):
            errors.append(f"degrees: criterion (ii) violated: degrees must be non-decreasing, got {ints}")
    if groups < 1:
        errors.append(f"groups: must be >= 1, got {groups}")
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


def build_rcs(
    k: int,
    degrees: Sequence[int],
    rng: np.random.Generator | None = None,
    offsets: Sequence[int] | None = None,
    mode: str = MODE_COMPUTATION,
    groups: int = 1,
    z: Sequence[int] | None = None,
) -> ComputationAssignment:
    """Draw a circular-shift code and sum its rows into per-worker tasks.

    The shift grid has L = sum(degrees) rows.  Row i lives in group z[i]
    (1-based; z=None puts every row in group 1) and is that group's blocks
    1..k shifted by offsets[i]-1, so worker w holds 0-based block
    (z[i]-1)*k + (w + offsets[i]-1) mod k.  Shifts are drawn without
    replacement within each group, so no worker sees a block twice.  Worker
    w's order-j task sums the next degrees[j] rows of its column with all-one
    coefficients.  In "computation" mode each coded task is one unit of work
    and goes out in its own message; in "communication" mode each row is one
    unit and the order-j message leaves after degrees[0] + ... + degrees[j]
    units.  Drawn offsets give a draw of :class:`CircularShiftSource`
    (``source(rng)``); given ones build the code alone, as ``source.at`` does.

    Args:
        k: number of workers (= blocks per group).
        degrees: per-order degrees.
        rng: source of randomness for the offset draw (ignored when offsets
            are given explicitly).
        offsets: optional 1-based shift parameters, one per row, distinct
            within each group.
        mode: "computation" or "communication".
        groups: number of block groups; the code addresses k * groups blocks
            and each task costs 1/groups of a full-size computation.
        z: optional 1-based group of each row.

    Returns:
        ComputationAssignment decodable by peeling.

    Raises:
        ConfigError: listing every :func:`circular_shift_violations`.
    """
    if offsets is None:
        source = CircularShiftSource.of(k, degrees, mode, groups, z)
        return source(rng if rng is not None else np.random.default_rng())
    _check(circular_shift_violations(k, degrees, groups, z, offsets))
    rows = np.zeros(sum(degrees), dtype=np.int64) if z is None else np.asarray(z, dtype=np.int64) - 1
    return _circular_code(k, degrees, mode, groups, rows, np.asarray(offsets, dtype=np.int64) - 1)


def _circular_code(k, degrees, mode, groups, rows, shifts) -> ComputationAssignment:
    """The circular-shift code whose row i gives worker w the block
    rows[i] * k + (w + shifts[i]) mod k, for 0-based groups and shifts."""
    grid = rows[:, None] * k + (np.arange(k) + shifts[:, None]) % k
    ends = list(itertools.accumulate(int(d) for d in degrees))
    support = tuple(grid[start:end].T for start, end in zip([0] + ends, ends))
    sends = ends if mode == MODE_COMMUNICATION else range(1, len(ends) + 1)
    return ComputationAssignment(
        n_workers=k,
        k_total=k * groups,
        support=support,
        coefficients=tuple(np.ones(ids.shape) for ids in support),
        messages=tuple(Message(n, (j,)) for j, n in enumerate(sends)),
        mode=mode,
        task_cost=1.0 / groups,
        decode=DECODE_PEEL,
    )


class CircularShiftSource(NamedTuple):
    """A circular-shift code redrawn every trial, with its layout fixed once.

    Built by :meth:`of`, which checks the rules and fixes everything a draw
    does not change: each row's 0-based group (``rows``) and place in its
    group's pool of shifts (``place``, the number of earlier rows in the same
    group), the degrees, every row a grid can hold (``shift_rows``: row
    g * k + s is group g's blocks shifted by s), and ``layout``, one valid
    draw that carries the messages, mode and task cost.  A batch holds its
    trials' shift pools in one int array (:meth:`pools`), a trial shuffles
    only its own row of it (:meth:`draw`), and :meth:`blocks` gathers the
    batch's grid rows in the decoder's layout; one code (:meth:`at`) is
    built as ``build_rcs`` builds given offsets.  Called with a generator it
    returns the same assignment as ``build_rcs(..., rng)``.
    """

    degrees: tuple[int, ...]
    groups: int
    rows: np.ndarray
    place: np.ndarray
    shift_rows: np.ndarray
    layout: ComputationAssignment

    @classmethod
    def of(
        cls,
        k: int,
        degrees: Sequence[int],
        mode: str = MODE_COMPUTATION,
        groups: int = 1,
        z: Sequence[int] | None = None,
    ) -> "CircularShiftSource":
        """Check the rules of ``build_rcs(k, degrees, mode=mode, groups=groups,
        z=z)`` with drawn offsets, and fix the layout of its draws.

        Raises:
            ConfigError: listing every :func:`circular_shift_violations`.
        """
        _check(circular_shift_violations(k, degrees, groups, z, None))
        degrees = tuple(int(d) for d in degrees)
        rows = np.zeros(sum(degrees), dtype=np.int64) if z is None else np.asarray(z, dtype=np.int64) - 1
        place = np.tril(rows[:, None] == rows, -1).sum(axis=1)
        # Row g * k + s shifts group g by s, so a batch's grid is a gather of whole rows.
        index = np.arange(groups * k)[:, None]
        shift_rows = index // k * k + (np.arange(k) + index) % k
        return cls(degrees, groups, rows, place, shift_rows, _circular_code(k, degrees, mode, groups, rows, place))

    def pools(self, trials: int) -> np.ndarray:
        """Unshuffled shift pools of a batch, shape (trials, groups, k):
        every row holds 0 .. k - 1, ready for :meth:`draw`."""
        return np.tile(np.arange(self.layout.n_workers), (trials, self.groups, 1))

    def draw(self, rng: np.random.Generator, pools: np.ndarray) -> np.ndarray:
        """Shuffle one trial's unshuffled pools, shape (groups, k), in place
        and return them: one permutation of the k shifts per group, in group
        order, as ``rng.permutation(k)`` draws it; row i takes the shift at
        its place in its group's pool.  This draw order fixes every seeded
        construction stream."""
        for pool in pools:
            rng.shuffle(pool)
        return pools

    def blocks(self, shifts: np.ndarray) -> tuple[np.ndarray, ...]:
        """The per-order block ids, (d_j, B, k) as ``decoding._block_tables``
        takes them, of B codes given each row's 0-based shift, (B, rows):
        slices of one grid, gathered rows first from ``shift_rows``."""
        k = self.shift_rows.shape[1]
        grid = self.shift_rows[self.rows[:, None] * k + shifts.T]
        ends = itertools.accumulate(self.degrees)
        return tuple(grid[end - d : end] for end, d in zip(ends, self.degrees))

    def at(self, offsets: Sequence[int]) -> ComputationAssignment:
        """The code with the given 1-based shift of each row, unchecked."""
        shifts = np.asarray(offsets, dtype=np.int64) - 1
        return _circular_code(self.layout.n_workers, self.degrees, self.layout.mode, self.groups, self.rows, shifts)

    def __call__(self, rng: np.random.Generator) -> ComputationAssignment:
        """One drawn code, equal to ``build_rcs(..., rng)``."""
        return self.at(self.draw(rng, self.pools(1)[0])[self.rows, self.place] + 1)


AssignmentSource = Union[ComputationAssignment, CircularShiftSource]
# Trial t's stream hashes t as one 32-bit word, so a run has at most 2**32
# trials.
_MAX_TRIALS = 2**32


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


def mds_violations(k: int, kbar: int, eval_points: Sequence[float] | None) -> list[str]:
    """Violations of the MDS construction rules, each prefixed with its
    config field: kbar in [1, k], and exactly k finite, distinct points."""
    errors = []
    if not 1 <= kbar <= k:
        errors.append(f"kbar: must lie in [1, {k}], got {kbar}")
    if eval_points is not None:
        points = [float(x) for x in eval_points]
        if len(points) != k:
            errors.append(f"eval_points: need {k} points, one per worker, got {len(points)}")
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

    Blocks are interleaved into r = ceil(k/kbar) groups {g, g+r, g+2r, ...}
    of at most kbar blocks.  Worker i's order-g task combines group g's
    blocks with coefficients x_i^0, x_i^1, ..., where the points x_i default
    to 1, 2, 4, ...; all r tasks travel in a single message once the worker
    finishes.  Any kbar complete workers recover every block; fewer recover
    nothing.  kbar == k degenerates to the uncoded one-block-per-worker
    assignment.

    Raises:
        ConfigError: listing every :func:`mds_violations`.
    """
    _check(mds_violations(k, kbar, eval_points))
    if eval_points is None:
        eval_points = [2**i for i in range(k)]
    eval_points = [float(x) for x in eval_points]
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
            np.array([[x**p for p in range(len(ids))] for x in eval_points])
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


def hybrid_example(k: int = 4) -> ComputationAssignment:
    """Hand-crafted four-worker benchmark assignment with partial recovery.

    Round one is uncoded (worker w computes block w); round two gives each
    worker a degree-2 combination avoiding its own block: {3,4}, {1,3},
    {2,4}, {1,2} (1-based).  Every block appears once per round across the
    workers, which makes small success counts easy to tabulate by hand.

    Raises:
        ConfigError: if k, the number of workers, is not 4.
    """
    _check([] if k == 4 else [f"workers: scheme 'hybrid-example' is fixed at 4 workers, got {k}"])
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
