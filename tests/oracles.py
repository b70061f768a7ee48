"""Property checks and reference walks the tests compare the library
against; not collected as tests.

A circular-shift code draws its shifts without replacement, so every block
appears equally often in each order and no worker holds a block twice.
These checks state those properties directly on the task arrays.
``orbit_representatives`` finds the rotation-orbit representatives that
``enumeration._necklaces`` walks by filtering every flat index.
``type_walk`` lists the cumulative types by the recursive walk that the
enumeration's type table replaced, and ``scalar_type_probability`` takes a
type's probability by the scalar loop that the array product replaced.
``count_rule_mean`` and ``count_rule_cdf`` are the exact completion laws of
a count rule at q = 0, stated from the latency law alone.
``per_iteration_descend`` is the training descent with each step taking
the whole ``W theta`` and each loss taken by
:func:`~codedcomp.regression.loss` right after its step, as it was before
steps multiplied only the recovered rows of W and losses were taken from
cache-sized row blocks of X.
"""

import math

import numpy as np

from codedcomp.latency import prob_exactly
from codedcomp.regression import gram, loss


def order_uniform(assignment) -> bool:
    """Check order-wise balance of a circular-shift code.

    For every order j and block b, b must appear in exactly as many of the
    K order-j tasks as there are order-j rows drawn in b's group (equal to
    the degree for single-group constructions).  A row's group is read from
    its first entry: block id // K.
    """
    k = assignment.n_workers
    for ids in assignment.support:
        expected = np.zeros(assignment.k_total, dtype=int)
        for g in ids[0] // k:
            expected[g * k : (g + 1) * k] += 1
        counts = np.bincount(ids.ravel(), minlength=assignment.k_total)
        if not np.array_equal(counts, expected):
            return False
    return True


def worker_uniform(assignment) -> bool:
    """Check that no worker is ever assigned the same block twice."""
    held = np.sort(np.concatenate(assignment.support, axis=1), axis=1)
    return not np.any(held[:, 1:] == held[:, :-1])


def orbit_representatives(start: int, stop: int, base: int, n: int, turns: int):
    """The flat indices in [start, stop) that are the smallest of their orbit
    under ``turns`` turns, and each one's orbit size.

    A turn moves the leading base-``base`` digit of an n-digit index to the
    end.  An index drops out at the first turn that makes it smaller, and a
    kept one's orbit size is ``turns`` over the number of turns that fix it.
    """
    index = np.arange(start, stop, dtype=np.int64)
    turned, fixed, top = index, np.ones_like(index), base ** (n - 1)
    for _ in range(turns - 1):
        turned = turned % top * base + turned // top
        kept = turned >= index
        index, turned, fixed = index[kept], turned[kept], fixed[kept]
        fixed += turned == index
    return index, turns // fixed


def type_walk(n_workers: int, max_score: int) -> list[tuple[tuple[int, ...], int]]:
    """Every cumulative type's counts (highest score first) and its number of
    score vectors, in descending-score lexicographic order: a recursive walk
    that places n_workers, n_workers - 1, ..., 0 workers at the top score
    and walks the rest over the lower scores.  The total is a product of
    binomials, one per score level."""
    results = []

    def walk(prefix, remaining, slots):
        if slots == 1:
            counts = tuple(prefix + [remaining])
            total, left = 1, n_workers
            for c in counts:
                total, left = total * math.comb(left, c), left - c
            results.append((counts, total))
            return
        for c in range(remaining, -1, -1):
            walk(prefix + [c], remaining - c, slots - 1)

    walk([], n_workers, max_score + 1)
    return results


def scalar_type_probability(ctype, t, model, task_cost=1.0) -> float:
    """Probability of one specific score vector of the type at time t: the
    product over scores s, lowest first, of P(exactly s tasks by t) raised
    to the number of workers at s, skipping a score no worker reached and
    stopping at a zero factor."""
    prob = 1.0
    for s in range(ctype.max_score + 1):
        n = ctype.count_for_score(s)
        if n:
            p = prob_exactly(s, t, model, task_cost, max_tasks=ctype.max_score)
            if p == 0.0:
                return 0.0
            prob *= p**n
    return prob


def _count_rule(assignment) -> tuple[int, float]:
    """A count rule's complete workers needed at q = 0 (kbar for an MDS
    code, n - load + 1 for a threshold code) and the work s each worker does
    before its one send."""
    n = assignment.n_workers
    needed = assignment.kbar if assignment.decode == "mds" else n - assignment.n_orders + 1
    return needed, float(assignment.schedule()[0])


def count_rule_mean(assignment, model) -> float:
    """Exact mean completion time of a count rule at q = 0.

    Worker w sends at s * (alpha + E_w), E_w ~ Exp(mu), and the master stops
    at the needed-th send.  The i-th spacing of n exponential order
    statistics is Exp(mu * (n - i)), so the mean is
    s * (alpha + sum over i < needed of 1 / (mu * (n - i))).
    """
    needed, s = _count_rule(assignment)
    n = assignment.n_workers
    return s * (model.alpha + sum(1.0 / (model.mu * (n - i)) for i in range(needed)))


def count_rule_cdf(assignment, t, model) -> float:
    """Exact P(a count rule finishes by t) at q = 0: P(Bin(n, F(t / s)) >=
    needed), F(x) = 1 - exp(-mu * (x - alpha)) for x >= alpha the law of one
    worker's unit time."""
    needed, s = _count_rule(assignment)
    n, x = assignment.n_workers, t / s
    f = 1.0 - math.exp(-model.mu * (x - model.alpha)) if x >= model.alpha else 0.0
    return sum(math.comb(n, k) * f**k * (1.0 - f) ** (n - k) for k in range(needed, n + 1))


def per_iteration_descend(dataset, eta, masks) -> tuple[np.ndarray, np.ndarray]:
    """Descent from theta = 0, step t updating the coordinate blocks
    masks[t] marks, with the loss of each step taken before the next; the
    losses and the final theta."""
    w_full, c = gram(dataset)
    step = eta / dataset.n_samples
    rows = dataset.dim // masks.shape[1]
    theta = np.zeros(dataset.dim)
    losses = np.empty(len(masks))
    for it, mask in enumerate(masks):
        theta = np.where(np.repeat(mask, rows), theta - step * (w_full @ theta - c), theta)
        losses[it] = loss(dataset, theta)
    return losses, theta
