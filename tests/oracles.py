"""Property checks the tests assert on drawn codes; not collected as tests.

A circular-shift code draws its shifts without replacement, so every block
appears equally often in each order and no worker holds a block twice.
These checks state those properties directly on the task arrays.
"""

import numpy as np


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
