"""Linear-regression training with partial gradient recovery.

The gradient of the least-squares loss L(theta) = (1/2n) * sum (y_i - x_i
theta)^2 factors through the Gram matrix: grad = (X'X theta - X'y) / n.
Splitting X'X row-wise into blocks turns each gradient block into one coded
computation, so an iteration can update exactly the coordinates whose blocks
the master recovered before stopping.

A Dataset's arrays are read-only, so its Gram pieces are computed once, on
the first :func:`gram` call, and every training run on it reuses them.

A step multiplies only the rows of W that its recovered blocks need, as
the master receives only those blocks of W theta.  The loss after each
step reads all of X.  No step depends on a loss, so training takes the
losses of several steps at a time, from one pass over X in cache-sized row
blocks (after Goto and van de Geijn, "Anatomy of high-performance matrix
multiplication", ACM TOMS 2008).  Both products run over the row ranges of
:func:`_row_spans`, so at one BLAS thread each step and loss keeps the
whole product's bits.  Every product a training run's bytes depend on (the
labels, the Gram pieces, the steps and the losses) runs under
:func:`_one_blas_thread`, so where NumPy bundles OpenBLAS the bytes do not
depend on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .blocks import DECODE_THRESHOLD, MODE_COMPUTATION
from .latency import LatencyModel
from .simulate import AssignmentSource, _batches, _check_integers, _source_layout

# Loss evaluation: the bytes of thetas waiting for their losses, with their
# predictions (10 steps at 2,000 dimensions and 4,000 samples), and of X per
# row block (32 rows there), small enough to stay in a core's L2 cache while
# each waiting theta multiplies it.  A larger buffer is faster still, but
# raises the peak memory of a training run.
_LOSS_BUFFER_BYTES = 2**19
_LOSS_BLOCK_BYTES = 2**19


@cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that NumPy's
    wheels bundle, found with ctypes; None for any other BLAS."""
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*scipy_openblas*"), *root.glob(".dylibs/*scipy_openblas*")]):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            if get is not None:
                return get, getattr(lib, "scipy_openblas_set_num_threads" + suffix)
    return None


@contextmanager
def _one_blas_thread():
    """Run the enclosed products on one BLAS thread, then restore the count.
    With several, OpenBLAS splits a product's rows among them, and the bits
    depend on the split.  Under another BLAS this changes nothing."""
    if _openblas_threads() is None:
        yield
        return
    get, set_threads = _openblas_threads()
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


@dataclass(frozen=True)
class Dataset:
    """Synthetic regression data drawn from a two-component Gaussian mixture.

    x, y and theta_star are stored as read-only views of the given arrays
    (no copy), so a write through the dataset raises ValueError.  The
    caller's own arrays stay writeable and must not be modified afterwards:
    the Gram pieces cached by :func:`gram` would no longer match them.
    """

    x: np.ndarray
    y: np.ndarray
    theta_star: np.ndarray

    def __post_init__(self) -> None:
        x, y, theta_star = (np.shape(getattr(self, name)) for name in ("x", "y", "theta_star"))
        if len(x) != 2 or y != x[:1] or theta_star != x[1:]:
            raise ValueError(
                "x must be 2-D, y of shape (n_samples,) and theta_star of shape "
                f"(dim,); got x {x}, y {y} and theta_star {theta_star}"
            )
        for name in ("x", "y", "theta_star"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @cached_property
    @_one_blas_thread()
    def _gram(self) -> tuple[np.ndarray, np.ndarray]:
        w, c = self.x.T @ self.x, self.x.T @ self.y
        w.flags.writeable = False
        c.flags.writeable = False
        return w, c

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def generate_dataset(
    n_samples: int,
    dim: int,
    rng: np.random.Generator,
    theta_star: np.ndarray | None = None,
    noise_std: float = 0.01,
) -> Dataset:
    """Draw a synthetic regression problem.

    The ground truth theta* has uniform [0, 1] entries (unless given).  Each
    sample comes from an equal mixture of N(mu, I) and N(-mu, I) with
    mu = (1.5 / dim) * theta*, and labels are y = x . theta* + noise, with
    noise drawn from N(0, noise_std^2) (noise_std = 0 gives noiseless labels).

    Raises:
        TypeError: if n_samples or dim is a bool or not an integer (NumPy
            integers are accepted).
        ValueError: if n_samples or dim is below 1, noise_std is negative or
            not finite, or theta_star does not have shape (dim,).
    """
    _check_integers(n_samples=n_samples, dim=dim)
    if n_samples < 1 or dim < 1:
        raise ValueError("n_samples and dim must be positive")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    # Allocated before any draw, so a size NumPy refuses fails at once.
    x = np.empty((n_samples, dim))
    if theta_star is None:
        theta_star = rng.uniform(0.0, 1.0, dim)
    else:
        theta_star = np.asarray(theta_star, dtype=float)
        if theta_star.shape != (dim,):
            raise ValueError(f"theta_star must have shape ({dim},)")
    mu = (1.5 / dim) * theta_star
    signs = rng.integers(0, 2, n_samples) * 2 - 1
    rng.standard_normal(out=x)
    # x + (-mu) equals x - mu bit for bit, so adding or subtracting mu in
    # place by sign gives x + signs * mu without a (samples, dim) temporary.
    positive = signs[:, None] > 0
    np.add(x, mu, out=x, where=positive)
    np.subtract(x, mu, out=x, where=~positive)
    with _one_blas_thread():
        y = x @ theta_star + noise_std * rng.standard_normal(n_samples)
    return Dataset(x=x, y=y, theta_star=theta_star)


def gram(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Precomputable pieces of the gradient: W = X'X and c = X'y.

    Computed on the first call for a dataset and cached on it; every later
    call returns the same two read-only arrays.
    """
    return dataset._gram


def loss(dataset: Dataset, theta: np.ndarray) -> float:
    """Mean squared residual halved: (1/2n) * sum (y_i - x_i theta)^2."""
    residual = dataset.y - dataset.x @ theta
    return float(residual @ residual / (2.0 * dataset.n_samples))


def partial_gd_step(
    theta: np.ndarray,
    recovered_mask: np.ndarray,
    block_values: Mapping[int, np.ndarray],
    c: np.ndarray,
    eta: float,
) -> np.ndarray:
    """Gradient step restricted to the recovered coordinate blocks.

    The parameter vector is split into len(recovered_mask) equal blocks.
    For every recovered block b (with supplied value (W theta)_b) the update
    theta_b - eta * ((W theta)_b - c_b) is applied; unrecovered blocks keep
    their current value bit-for-bit.

    Args:
        theta: current parameters.
        recovered_mask: boolean per-block recovery flags.
        block_values: block id -> recovered value of (W theta) on that block.
        c: precomputed X'y, same length as theta.
        eta: step size (scale by 1/n outside when W and c are unnormalized).

    Returns:
        Updated copy of theta.
    """
    theta = np.asarray(theta, dtype=float)
    recovered_mask = np.asarray(recovered_mask, dtype=bool)
    k_total = recovered_mask.shape[0]
    dim = theta.shape[0]
    if dim % k_total:
        raise ValueError(f"dimension {dim} not divisible into {k_total} blocks")
    rows = dim // k_total
    wanted = {int(b) for b in np.nonzero(recovered_mask)[0]}
    if set(block_values) != wanted:
        raise ValueError(
            f"block values {sorted(block_values)} do not match recovered "
            f"blocks {sorted(wanted)}"
        )
    out = theta.copy()
    for b in wanted:
        sl = slice(b * rows, (b + 1) * rows)
        value = np.asarray(block_values[b], dtype=float)
        if value.shape != (rows,):
            raise ValueError(f"block {b} value must have shape ({rows},)")
        out[sl] = theta[sl] - eta * (value - c[sl])
    return out


@dataclass
class TrainResult:
    """Per-iteration training trajectory."""

    losses: np.ndarray
    times: np.ndarray
    messages: np.ndarray
    recovered_fraction: np.ndarray
    theta: np.ndarray

    @property
    def total_time(self) -> float:
        return float(np.sum(self.times))


def train(
    dataset: Dataset,
    source: AssignmentSource,
    q: float,
    model: LatencyModel,
    eta: float,
    iterations: int,
    seed: int,
) -> TrainResult:
    """Run gradient descent where each step waits only for a tolerated
    fraction of the gradient blocks.

    Iteration t is trial t of :func:`~codedcomp.simulate.monte_carlo` with
    the same seed and source, a fixed ``ComputationAssignment`` or a
    ``schemes.CircularShiftSource`` that redraws its shifts every iteration.
    It simulates the straggler race, and the step updates exactly the
    recovered blocks of theta using the true (W theta) values; unrecovered
    coordinates carry over unchanged.  theta starts at zero.  W and c come
    from :func:`gram`, so only the first run on a dataset computes them.

    Raises:
        TypeError: if source is of neither accepted type, or iterations or
            the seed is a bool or not an integer (NumPy integers are
            accepted).
        ValueError: before any iteration is simulated, if iterations is
            below 1, eta is not finite and positive, the assignment is not a
            matrix-vector scheme (exact-sum coding recovers only the
            aggregated gradient, not blocks) or the dimension does not split
            evenly over the blocks; also if iterations is above 2**32, one
            trial stream per iteration, or if q is NaN or outside [0, 1].
    """
    _check_descent(eta, iterations)
    layout = _source_layout(source)
    if layout.decode == DECODE_THRESHOLD or layout.mode != MODE_COMPUTATION:
        raise ValueError(
            "training needs a matrix-vector scheme whose recovered blocks map "
            "to coordinate ranges; exact-sum/communication schemes do not"
        )
    k_total = layout.k_total
    if dataset.dim % k_total:
        raise ValueError(
            f"dimension {dataset.dim} not divisible into {k_total} blocks"
        )
    batches = list(_batches(source, q, model, iterations, seed))
    times, messages, masks = (np.concatenate([batch[i] for batch in batches]) for i in (0, 1, 3))
    losses, theta = _descend(dataset, eta, masks)
    return TrainResult(
        losses=losses,
        times=times,
        messages=messages,
        recovered_fraction=masks.sum(axis=1) / k_total,
        theta=theta,
    )


def _check_descent(eta: float, iterations: int) -> None:
    """The checks :func:`train` and :func:`centralized_gd` share."""
    _check_integers(iterations=iterations)
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if not (eta > 0 and math.isfinite(eta)):
        raise ValueError(f"eta must be finite and positive, got {eta!r}")


@_one_blas_thread()
def _descend(dataset: Dataset, eta: float, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descent from theta = 0, step t updating the blocks masks[t] marks (as
    :func:`partial_gd_step` does); the loss after each step, and final theta.

    A step takes ``W theta`` only over the row spans of its recovered
    blocks.  No step reads a loss, so the thetas of a few steps (as many as
    fit in ``_LOSS_BUFFER_BYTES`` with their predictions) wait, and one
    pass over X gives all their losses.
    """
    w_full, c = gram(dataset)
    step = eta / dataset.n_samples
    rows = dataset.dim // masks.shape[1]
    unsplit = -(-dataset.dim // 4) * 4  # a span size no run of W exceeds
    width = max(1, _LOSS_BUFFER_BYTES // (8 * (dataset.dim + dataset.n_samples)))
    theta = np.zeros(dataset.dim)
    product = np.empty(dataset.dim)
    waiting: list[np.ndarray] = []
    losses: list[float] = []
    for mask in masks:
        need = np.repeat(mask, rows)
        for a, b in _row_spans(need, unsplit):
            np.matmul(w_full[a:b], theta, out=product[a:b])
        stepped = theta.copy()
        stepped[need] = theta[need] - step * (product[need] - c[need])
        theta = stepped
        waiting.append(theta)
        if len(waiting) == width:
            losses += _losses(dataset, waiting)
            waiting = []
    losses += _losses(dataset, waiting)
    return np.array(losses), theta


def _losses(dataset: Dataset, thetas: list[np.ndarray]) -> list[float]:
    """``loss(dataset, theta)`` for each theta, bit for bit, from one pass
    over X.

    Each row block of X (:func:`_row_spans` of every row), of about
    ``_LOSS_BLOCK_BYTES``, stays in cache while every theta's
    ``x[a:b] @ theta`` is written into its prediction row.
    """
    x, n = dataset.x, dataset.n_samples
    size = max(4, _LOSS_BLOCK_BYTES // (8 * max(dataset.dim, 1)) // 4 * 4)
    predictions = np.empty((len(thetas), n))
    for a, b in _row_spans(np.ones(n, dtype=bool), size):
        for theta, prediction in zip(thetas, predictions):
            np.matmul(x[a:b], theta, out=prediction[a:b])
    residuals = np.subtract(dataset.y, predictions, out=predictions)
    return [float(r @ r / (2.0 * n)) for r in residuals]


def _row_spans(need: np.ndarray, size: int) -> list[tuple[int, int]]:
    """Row ranges [a, b), in order, that cover every row ``need`` marks.

    Each range starts on a multiple of 4 rows and holds at most ``size``
    rows (a positive multiple of 4), a multiple of 4 unless it ends at the
    last row; a 1-row tail joins the range before it, which then holds one
    row more (NumPy computes a 1-row product as a dot product, not a
    matrix-vector product).  With one BLAS thread, OpenBLAS computes each
    row of a matrix-vector product taken over such a range as the whole
    product does; with several, each product splits its rows among the
    threads, and the bits depend on that split.
    """
    n_rows = len(need)
    groups = np.zeros(-(-n_rows // 4) * 4, dtype=bool)
    groups[:n_rows] = need
    groups = groups.reshape(-1, 4).any(axis=1)
    tail = n_rows % 4 == 1 and len(groups) > 1 and groups[-1]
    if tail:
        groups[-2] = True
    edges = np.flatnonzero(np.diff(groups, prepend=False, append=False))
    spans = []
    for first, last in zip(edges[::2].tolist(), edges[1::2].tolist()):
        starts = range(4 * first, 4 * last, size)
        spans += [(a, min(a + size, 4 * last, n_rows)) for a in starts]
    if tail and spans[-1][1] - spans[-1][0] == 1:
        spans[-2:] = [(spans[-2][0], n_rows)]
    return spans


def centralized_gd(dataset: Dataset, eta: float, iterations: int) -> TrainResult:
    """Reference full-gradient descent on the same objective.

    Shares the dataset's cached :func:`gram` pieces with :func:`train`.

    Raises:
        TypeError: if iterations is a bool or not an integer (NumPy integers
            are accepted).
        ValueError: if iterations is below 1 or eta is not finite and
            positive.
    """
    _check_descent(eta, iterations)
    losses, theta = _descend(dataset, eta, np.ones((iterations, 1), dtype=bool))
    return TrainResult(
        losses=losses,
        times=np.zeros(iterations),
        messages=np.zeros(iterations, dtype=int),
        recovered_fraction=np.ones(iterations),
        theta=theta,
    )
