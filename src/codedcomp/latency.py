"""Shifted-exponential straggler model for per-worker computation speed.

A worker needs alpha + E time units per full-size computation, where E is
exponential with rate mu and drawn once per worker per iteration (a slow
worker is slow for the whole iteration).  Finishing s computations therefore
takes s * (alpha + E), which yields a closed-form law for the number of
computations finished by any deadline: :func:`prob_at_least` and
:func:`prob_exactly`, for one worker.  The probability of a whole score
vector, a product of these over the levels of its cumulative type, is taken
in ``enumeration``.

A trial draws one standard exponential per worker from its stream; the
model maps them to unit times (:meth:`LatencyModel.unit_times`), for one
trial or for a whole batch of trials at once.  ``alpha + (1 / mu) * E`` is
the value NumPy's ``exponential(1 / mu)`` gives for the same draw, so both
ways of sampling give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LatencyModel:
    """Per-computation latency alpha + Exp(mu)."""

    mu: float = 10.0
    alpha: float = 0.01

    def __post_init__(self) -> None:
        if not (0 < self.mu < math.inf and 0 < self.alpha < math.inf):
            raise ValueError(f"mu and alpha must be positive and finite, got {self.mu}, {self.alpha}")

    def unit_times(self, exponentials: np.ndarray) -> np.ndarray:
        """Per-unit computation times from standard exponential draws, one
        per worker, of any shape."""
        return self.alpha + (1.0 / self.mu) * exponentials

    def sample_unit_times(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw per-unit computation times for n workers."""
        return self.unit_times(rng.standard_exponential(n))


def prob_at_least(s: int, t: float, model: LatencyModel, task_cost: float = 1.0) -> float:
    """P(a worker finishes at least s tasks by time t); each task costs
    task_cost * (alpha + E)."""
    if s <= 0:
        return 1.0
    slack = t / (s * task_cost) - model.alpha
    if slack < 0:
        return 0.0
    return 1.0 - math.exp(-model.mu * slack)


def prob_exactly(
    s: int,
    t: float,
    model: LatencyModel,
    task_cost: float = 1.0,
    max_tasks: int | None = None,
) -> float:
    """P(a worker finishes exactly s tasks by time t).

    With max_tasks set, a worker stops after that many tasks, so the top
    count accumulates all faster outcomes; otherwise the worker keeps
    computing indefinitely.
    """
    if s < 0:
        return 0.0
    if max_tasks is not None:
        if s > max_tasks:
            return 0.0
        if s == max_tasks:
            return prob_at_least(s, t, model, task_cost)
    return prob_at_least(s, t, model, task_cost) - prob_at_least(s + 1, t, model, task_cost)
