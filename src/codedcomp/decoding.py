"""Recovery rules: tolerance threshold, peeling decoder, exact-elimination oracle.

The peeling decoder is the workhorse for sparse binary codes: every incoming
task is immediately reduced by the already-recovered blocks, degree-one
residuals release new blocks, and releases cascade until no residual has
degree one.  A residual is the coefficient map of its unknown blocks and its
reduced payload, so one left with one block names and values it.  It decodes
payloads and is the reference for the simulator, which decides when blocks
become recoverable from release ranks without replaying messages.  An
exact rational row-reduction oracle (``rref_recoverable``) upper-bounds what
any linear decoder could recover and is used to sanity-check the peeling
results.  Dense MDS groups and exact-sum schemes decode at a complete-worker
count instead (the count rules in ``simulate``); ``mcc_decode_values``
recovers the values of an MDS-coded assignment.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .blocks import CodedTask, ComputationAssignment

_ROUND_GUARD = 1e-9

# Largest condition number of the Vandermonde system mcc_decode_values
# trusts; a small solve residual says nothing about the error beyond it.
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


class _Residual:
    """Coefficients of a stored task's unknown blocks, and its reduced payload or None."""

    __slots__ = ("coeffs", "payload")

    def __init__(self, coeffs: dict[int, float], payload: np.ndarray | None):
        self.coeffs = coeffs
        self.payload = payload


class PeelingDecoder:
    """Incremental peeling decoder over coded tasks.

    Every stored residual keeps the coefficients of its still unknown blocks
    and its reduced payload; every block lists the residuals it occurs in.
    Recovering a block removes it from each of its residuals and reduces
    their payloads by its value, and a residual left with one block releases
    that block, valued when its payload is known, so releases cascade.
    Recovered block values can be read back with :meth:`decode_values`.

    Attributes:
        k_total: number of distinct blocks in play.
        messages_ingested: count of tasks fed in.
    """

    def __init__(self, k_total: int):
        if k_total < 1:
            raise ValueError("k_total must be positive")
        self.k_total = k_total
        self._values: dict[int, np.ndarray | None] = {}
        self._residuals: list[_Residual] = []
        self._by_block: list[list[int]] = [[] for _ in range(k_total)]
        self._pending = 0
        self.messages_ingested = 0

    @property
    def recovered(self) -> set[int]:
        return set(self._values)

    @property
    def recovered_count(self) -> int:
        return len(self._values)

    @property
    def pending_count(self) -> int:
        return self._pending

    @property
    def redundant_messages(self) -> int:
        """Tasks whose content was already implied by earlier ones.

        Every ingested task ends up pending, as the source of exactly one
        recovered block, or redundant, so the count follows from the others.
        """
        return self.messages_ingested - self._pending - len(self._values)

    def recovered_mask(self) -> np.ndarray:
        mask = np.zeros(self.k_total, dtype=bool)
        if self._values:
            mask[list(self._values)] = True
        return mask

    def meets_tolerance(self, q: float) -> bool:
        return self.recovered_count >= recovery_threshold(self.k_total, q)

    def ingest(self, task: CodedTask, payload=None) -> set[int]:
        """Feed one task (optionally with its computed value) into the decoder.

        Args:
            task: sparse combination of blocks.
            payload: optional numeric result of the task.

        Returns:
            The set of newly recovered block ids (possibly empty).
        """
        coeffs = dict(zip(task.support, task.coefficients))
        if any(not 0 <= b < self.k_total for b in coeffs):
            raise ValueError(f"task support {task.support} outside [0, {self.k_total})")
        self.messages_ingested += 1
        if payload is not None:
            payload = np.asarray(payload, dtype=float).copy()
        for b in [b for b in coeffs if b in self._values]:
            known = self._values[b]
            c = coeffs.pop(b)
            payload = None if payload is None or known is None else payload - c * known
        if len(coeffs) == 1:
            ((block, coef),) = coeffs.items()
            return self._release(block, None if payload is None else payload / coef)
        if coeffs:
            for b in coeffs:
                self._by_block[b].append(len(self._residuals))
            self._residuals.append(_Residual(coeffs, payload))
            self._pending += 1
        return set()

    def _release(self, block: int, value) -> set[int]:
        """Recover block (with value, or None) and cascade: every residual
        left with one unknown block releases it."""
        values, residuals = self._values, self._residuals
        stack = [(block, value)]
        newly: set[int] = set()
        while stack:
            block, value = stack.pop()
            if block in values:
                continue
            values[block] = value
            newly.add(block)
            for rid in self._by_block[block]:
                res = residuals[rid]
                c = res.coeffs.pop(block)
                if res.payload is not None:
                    res.payload = None if value is None else res.payload - c * value
                if len(res.coeffs) == 1:
                    self._pending -= 1
                    ((last, coef),) = res.coeffs.items()
                    stack.append((last, None if res.payload is None else res.payload / coef))
        return newly

    def decode_values(self) -> dict[int, np.ndarray]:
        """Numeric values of every recovered block.

        Raises:
            ValueError: if any recovered block lacks a payload because some
                contributing task was ingested without one.
        """
        missing = [b for b, v in self._values.items() if v is None]
        if missing:
            raise ValueError(
                f"no payloads available for recovered blocks {sorted(missing)}"
            )
        return {b: v for b, v in self._values.items()}


def rref_recoverable(tasks: Iterable[CodedTask], k_total: int) -> set[int]:
    """Blocks recoverable by full Gaussian elimination over the rationals.

    Builds the coefficient matrix of the given tasks, reduces it to reduced
    row-echelon form with exact Fraction arithmetic, and returns the block
    ids whose rows end up as unit vectors.  This is the best any linear
    decoder can do, so the peeling result is always a subset.
    """
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


def mcc_decode_values(
    assignment: ComputationAssignment,
    payloads: Mapping[int, Sequence[np.ndarray]],
) -> dict[int, np.ndarray]:
    """Recover all blocks of an MDS-coded assignment from complete workers.

    Args:
        assignment: assignment built by :func:`codedcomp.schemes.build_mcc`.
        payloads: worker id -> list of its task results, one per order.

    Returns:
        Block id -> value for every one of the k_total blocks.

    Raises:
        ValueError: if a worker id lies outside [0, n_workers) or a worker's
            payload list does not hold one result per order, if fewer than
            kbar complete workers are available, or if their Vandermonde
            system is too ill-conditioned to trust.
    """
    kbar = assignment.kbar
    if kbar is None or assignment.eval_points is None:
        raise ValueError("assignment does not carry MDS decoding metadata")
    n, r = assignment.n_workers, assignment.n_orders
    bad = [f"worker id {w!r} outside [0, {n})" for w in payloads if not 0 <= w < n]
    bad += [
        f"worker {w!r} has {len(p)} payloads, expected {r}"
        for w, p in payloads.items()
        if len(p) != r
    ]
    if bad:
        raise ValueError("; ".join(bad))
    workers = sorted(payloads)
    if len(workers) < kbar:
        raise ValueError(f"need {kbar} complete workers, got {len(workers)}")
    workers = workers[:kbar]
    k = assignment.k_total
    if kbar == k:
        return {w: np.asarray(payloads[w][0], dtype=float) for w in workers}
    points = np.array([assignment.eval_points[w] for w in workers])
    vander = np.vander(points, kbar, increasing=True)
    condition = np.linalg.cond(vander)
    if not condition <= _MAX_CONDITION:
        raise ValueError(
            f"the Vandermonde system of workers {workers} has condition number "
            f"{condition:.3g}, above {_MAX_CONDITION:g}: its solution cannot be trusted"
        )
    values: dict[int, np.ndarray] = {}
    for g in range(r):
        rhs = np.stack([np.asarray(payloads[w][g], dtype=float).ravel() for w in workers])
        sol = np.linalg.solve(vander, rhs)
        shape = np.asarray(payloads[workers[0]][g]).shape
        for p in range(kbar):
            block = g + p * r
            if block < k:
                values[block] = sol[p].reshape(shape)
    return values
