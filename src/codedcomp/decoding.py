"""Which blocks a master recovers, and their values.

:func:`_release_ranks` decides which blocks are recoverable, for every
decode rule and for a whole batch of trials at once: each block's release
key is the arrival key at which it becomes recoverable.  The keys may be
arrival ranks, times or sent flags: the release keys are built from min
and max alone, which commute with any non-decreasing map of the keys, so
all give the same decision.  For a peel code the keys are the fixed point
of ``R[b] = min over tasks t holding b of max(key(t), R of the other blocks
of t)``, iterated from infinity or an integer dtype's largest value (a
stopping set keeps that start).  The sweeps drop dead tasks, those keyed
at or above the release key of every block they hold: release keys only
fall and a task's offer is never below its key, so a dead task can never
lower a key again and dropping it leaves the fixed point unchanged, bit for
bit.  For a count rule every block is released at the ``needed``-th
smallest first-message key.  The simulator, exact enumeration and the
config's finish check all read these keys, through the per-order block
tables of :func:`_block_tables`.

:func:`decode_blocks` is the one value path, for peel and MDS codes alike:
``_recovered`` names the recovered blocks from one-byte keys, 0 for a sent
message and 1 for any other (a block is recovered at release key 0), and
one least-squares solve gives their values.

``PeelingDecoder`` (symbolic, one task at a time) and the exact rational
oracle ``rref_recoverable``, which upper-bounds what any linear decoder
could recover, are the references the release keys are tested against.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .blocks import DECODE_MDS, DECODE_PEEL, DECODE_THRESHOLD, CodedTask, ComputationAssignment

_ROUND_GUARD = 1e-9

# Largest condition number of a value solve decode_blocks trusts; a small
# solve residual says nothing about the error beyond it.
_MAX_CONDITION = 1e12


def recovery_threshold(k_total: int, q: float) -> int:
    """Number of blocks that must be recovered under tolerance q.

    The target is ceil((1 - q) * k_total).  Products such as 0.85 * 40 fall
    a few ulps below their exact value, so results within 1e-9 of an integer
    are rounded to it before the ceiling is applied.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"tolerance must lie in [0, 1], got {q}")
    if k_total < 0:
        raise ValueError("k_total must be non-negative")
    value = (1.0 - q) * k_total
    nearest = round(value)
    if abs(value - nearest) < _ROUND_GUARD:
        return int(nearest)
    return int(math.ceil(value))


def _workers_needed(assignment: ComputationAssignment) -> int:
    """Complete workers a count rule waits for."""
    if assignment.decode == DECODE_MDS:
        return assignment.kbar
    return assignment.n_workers - assignment.n_orders + 1


def _count_stop(assignment: ComputationAssignment, first: np.ndarray) -> np.ndarray:
    """Where a count rule stops, per trial: the hit-th smallest of each row
    of first, the (trials, n_workers) first-message times or ranks, with
    hit the needed workers, in [1, n_workers] for every buildable code."""
    hit = _workers_needed(assignment)
    return np.partition(first, hit - 1, axis=1)[:, hit - 1]


def _block_tables(assignment: ComputationAssignment, n_trials: int, blocks=None):
    """(message index, block table) of every order in a batch of n_trials
    trials.  blocks holds one block-id array per order, (d_j, n_trials,
    n_workers) as ``CircularShiftSource.blocks`` gathers them; None shares
    the assignment's own supports.  Entry [i, t * n_workers + w] of an
    order's table is t * k_total + b for the i-th block b of worker w's task
    in trial t, so one index into a flat per-block array gathers a whole
    order's tasks."""
    if blocks is None:
        blocks = [ids.T[:, None] for ids in assignment.support]
    offset = assignment.k_total * np.arange(n_trials)[:, None]
    return [
        (m, (blocks[j] + offset).reshape(len(blocks[j]), -1))
        for m, msg in enumerate(assignment.messages)
        for j in msg.orders
    ]


def _offers(values: np.ndarray, key: np.ndarray) -> np.ndarray:
    """max(key, the elementwise max of the other rows) for every row of a
    (d, n) array, as a new contiguous array: prefix maxima started from the
    key, then suffix maxima.  For d == 2 the other row is the swapped one."""
    if len(values) == 2:
        return np.maximum(key, values[::-1])
    out = np.empty_like(values)
    out[0] = key
    for i in range(1, len(values)):
        np.maximum(out[i - 1], values[i - 1], out=out[i])
    behind = values[-1].copy()
    for i in range(len(values) - 2, -1, -1):
        np.maximum(out[i], behind, out=out[i])
        np.maximum(behind, values[i], out=behind)
    return out


def _release_ranks(assignment: ComputationAssignment, tables, keys: np.ndarray) -> np.ndarray:
    """Release key of every block in a batch of B trials, shape (B, k_total).

    tables are the batch's :func:`_block_tables`.  keys[b, m, w] is the
    arrival rank or time of worker w's message m in trial b (infinity for
    one that never arrives), or an integer key.  A block is recoverable
    from the messages keyed k or earlier exactly when its release key is at
    most k; one never recoverable keeps the start, infinity or an integer
    dtype's largest value.  Release keys are picked by min and max, so a
    non-decreasing map of the keys (ranks to times) maps them alike.  Degree-1
    orders settle before the sweeps, and a code without coded orders
    (uc-mmc) runs no sweep.  In a sweep each coded order gathers its live
    tasks' keys and computes their offers, and scatters them only if some
    offer is below the key it would replace; the loop ends after a sweep in
    which no order scattered, which is the sweep that leaves every key
    unchanged.  A task is live while its key is below the release key of
    some block it holds.  A dead one offers every block at least its key,
    which is at least the block's release key, and keys only fall, so it
    stays dead and never scatters: each order keeps its live tasks (by
    :func:`_live`) once after the degree-1 settle and once after the first
    sweep, which leaves about a sixth of the coded tasks at rcs K=40.
    """
    n_trials, k = keys.shape[0], assignment.k_total
    if assignment.decode != DECODE_PEEL:
        return np.repeat(_count_stop(assignment, keys[:, 0])[:, None], k, axis=1)
    # Entries are laid out (d_j, trials * workers) with flat index
    # trial * k + block, so a task's offers work on whole rows.  A degree-1
    # task always offers its own key, so those orders settle once, before
    # the sweeps; each sweep updates the keys in place, one coded order at a
    # time.
    top = np.inf if keys.dtype.kind == "f" else np.iinfo(keys.dtype).max
    release = np.full(n_trials * k, top, dtype=keys.dtype)
    coded = []
    for m, table in tables:
        if len(table) == 1:
            np.minimum.at(release, table[0], keys[:, m].ravel())
        else:
            coded.append((table, keys[:, m].ravel()))
    coded = _live(release, coded)
    moved, first = bool(coded), True
    while moved:
        moved = False
        for table, key in coded:
            gathered = release[table]
            offers = _offers(gathered, key)
            if (offers < gathered).any():
                np.minimum.at(release, table.ravel(), offers.ravel())
                moved = True
        if first:
            coded, first = _live(release, coded), False
    return release.reshape(n_trials, k)


def _live(release: np.ndarray, coded):
    """The (table, key) of every coded order's live tasks, those keyed below
    the release key of some block they hold; an order with none is dropped.
    np.take gives the kept columns C-contiguous, so a sweep's ravel of them
    is a view."""
    live = []
    for table, key in coded:
        cols = np.flatnonzero(key < release[table].max(axis=0))
        if cols.size:
            live.append((np.take(table, cols, axis=1), key[cols]))
    return live


def _recovered(assignment: ComputationAssignment, sent, tables=None) -> np.ndarray:
    """Which blocks each of B sets of sent messages recovers, shape (B, k_total):
    sent[b, m, w] says whether worker w's message m is in set b.  The uint8
    keys are 0 for a sent message and 1 for any other, so a block is
    recovered when its release key is 0.  tables are the B sets'
    :func:`_block_tables`, built here when None."""
    keys = np.logical_not(sent).view(np.uint8)
    if tables is None:
        tables = _block_tables(assignment, len(keys))
    return _release_ranks(assignment, tables, keys) == 0


def decode_blocks(assignment: ComputationAssignment, arrived, payloads) -> dict[int, np.ndarray]:
    """Values of every block the arrived messages recover.

    ``_recovered`` names the blocks the arrived messages recover.  One
    least-squares solve gives their values: its rows are the arrived tasks
    whose blocks are all recovered, restricted to the recovered columns.

    Args:
        assignment: a peel or MDS code.
        arrived: bool array of shape (n_messages, n_workers); entry [m, w]
            says whether worker w's message m reached the master.
        payloads: one array of shape (n_workers, ...) per order, the task
            results, with one trailing (block) shape for every order.  Rows
            of tasks that did not arrive are never read.

    Raises:
        ValueError: for a ``threshold`` code, whose messages carry exact sums
            rather than blocks; for arrays of the wrong shape; or when the
            system's rank is below the recovered count or its condition
            number is above 1e12, so its solution cannot be trusted.
    """
    if assignment.decode == DECODE_THRESHOLD:
        raise ValueError("a threshold code sends exact sums, not blocks: no block has a value")
    n, shape = assignment.n_workers, (len(assignment.messages), assignment.n_workers)
    arrived = np.asarray(arrived)
    payloads = [np.asarray(p, dtype=float) for p in payloads]
    errors = []
    if arrived.dtype != bool or arrived.shape != shape:
        errors.append(
            f"arrived: expected a bool array of shape {shape}, got {arrived.dtype} {arrived.shape}"
        )
    if len(payloads) != assignment.n_orders:
        errors.append(
            f"payloads: expected {assignment.n_orders} arrays, one per order, got {len(payloads)}"
        )
    if any(p.shape[:1] != (n,) for p in payloads) or len({p.shape[1:] for p in payloads}) > 1:
        shown = ", ".join(str(p.shape) for p in payloads)
        errors.append(f"payloads: expected shapes ({n}, ...) with one trailing shape, got {shown}")
    if errors:
        raise ValueError("; ".join(errors))
    mask = _recovered(assignment, arrived[None])[0]
    recovered = np.flatnonzero(mask)
    if not recovered.size:
        return {}
    column, block_shape = np.cumsum(mask) - 1, payloads[0].shape[1:]
    rows, rhs = [], []
    for m, msg in enumerate(assignment.messages):
        for j in msg.orders:
            ids = assignment.support[j]
            used = arrived[m] & mask[ids].all(axis=1)
            row = np.zeros((np.count_nonzero(used), recovered.size))
            where = (np.arange(len(row))[:, None], column[ids[used]])
            np.add.at(row, where, assignment.coefficients[j][used])
            rows.append(row)
            rhs.append(payloads[j][used].reshape(len(row), math.prod(block_shape)))
    values, _, rank, singular = np.linalg.lstsq(
        np.concatenate(rows), np.concatenate(rhs), rcond=None
    )
    condition = singular[0] / singular[-1] if singular[-1] else math.inf
    if rank < recovered.size or not condition <= _MAX_CONDITION:
        raise ValueError(
            f"the system of the {recovered.size} recovered blocks has rank {rank} and "
            f"condition number {condition:.3g}; below full rank or above {_MAX_CONDITION:g}, "
            "its solution cannot be trusted"
        )
    return {int(b): value.reshape(block_shape) for b, value in zip(recovered, values)}


class PeelingDecoder:
    """Incremental peeling decoder over coded tasks.

    Every stored residual is the set of its task's still unknown blocks, and
    every block lists the residuals it occurs in.  Recovering a block removes
    it from each of its residuals, and a residual left with one block
    releases that block, so releases cascade.  The decoder names blocks
    only; :func:`decode_blocks` gives their values.

    Attributes:
        k_total: number of distinct blocks in play.
        messages_ingested: count of tasks fed in.
    """

    def __init__(self, k_total: int):
        if k_total < 1:
            raise ValueError("k_total must be positive")
        self.k_total = k_total
        self._recovered: set[int] = set()
        self._residuals: list[set[int]] = []
        self._by_block: list[list[int]] = [[] for _ in range(k_total)]
        self._pending = 0
        self.messages_ingested = 0

    @property
    def recovered(self) -> set[int]:
        return set(self._recovered)

    @property
    def recovered_count(self) -> int:
        return len(self._recovered)

    @property
    def pending_count(self) -> int:
        return self._pending

    @property
    def redundant_messages(self) -> int:
        """Tasks whose content was already implied by earlier ones.

        Every ingested task ends up pending, as the source of exactly one
        recovered block, or redundant, so the count follows from the others.
        """
        return self.messages_ingested - self._pending - len(self._recovered)

    def recovered_mask(self) -> np.ndarray:
        mask = np.zeros(self.k_total, dtype=bool)
        mask[list(self._recovered)] = True
        return mask

    def meets_tolerance(self, q: float) -> bool:
        return self.recovered_count >= recovery_threshold(self.k_total, q)

    def ingest(self, task: CodedTask) -> set[int]:
        """Feed one task into the decoder.

        Returns:
            The set of newly recovered block ids (possibly empty).
        """
        unknown = set(task.support)
        if any(not 0 <= b < self.k_total for b in unknown):
            raise ValueError(f"task support {task.support} outside [0, {self.k_total})")
        self.messages_ingested += 1
        unknown -= self._recovered
        if len(unknown) == 1:
            return self._release(unknown.pop())
        if unknown:
            for b in unknown:
                self._by_block[b].append(len(self._residuals))
            self._residuals.append(unknown)
            self._pending += 1
        return set()

    def _release(self, block: int) -> set[int]:
        """Recover block and cascade: every residual left with one unknown
        block releases it."""
        stack = [block]
        newly: set[int] = set()
        while stack:
            block = stack.pop()
            if block in self._recovered:
                continue
            self._recovered.add(block)
            newly.add(block)
            for rid in self._by_block[block]:
                residual = self._residuals[rid]
                residual.remove(block)
                if len(residual) == 1:
                    self._pending -= 1
                    stack.extend(residual)
        return newly


def rref_recoverable(tasks: Iterable[CodedTask], k_total: int) -> set[int]:
    """Blocks recoverable by full Gaussian elimination over the rationals.

    Builds the coefficient matrix of the given tasks, reduces it to reduced
    row-echelon form with exact Fraction arithmetic, and returns the block
    ids whose rows end up as unit vectors.  This is the best any linear
    decoder can do, so the peeling result is always a subset.
    """
    from fractions import Fraction  # here: a simulate process never needs it

    rows: list[list[Fraction]] = []
    for task in tasks:
        row = [Fraction(0)] * k_total
        for b, c in zip(task.support, task.coefficients):
            if not 0 <= b < k_total:
                raise ValueError(f"block {b} outside [0, {k_total})")
            row[b] += Fraction(c)
        rows.append(row)
    pivot_row = 0
    pivots: list[int] = []
    for col in range(k_total):
        target = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                target = r
                break
        if target is None:
            continue
        rows[pivot_row], rows[target] = rows[target], rows[pivot_row]
        inv = Fraction(1) / rows[pivot_row][col]
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    recoverable: set[int] = set()
    for r, col in enumerate(pivots):
        if sum(1 for x in rows[r] if x != 0) == 1:
            recoverable.add(col)
    return recoverable
