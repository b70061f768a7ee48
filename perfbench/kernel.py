"""Calibration kernels: fixed work that does not use the program.

The machines this benchmark runs on slow a CPU down by up to a factor of 1.8
for seconds at a time, as another tenant starts and stops on the same
physical core.  Every raw timing moves with it.  The benchmark therefore
times a kernel next to each timed interval, on the same CPU, and reports the
interval relative to the kernel (bench.Clock).  A change to the program
moves the ratio; a change in machine speed moves kernel and program alike.

Different work slows down by different amounts, so each kernel resembles
what it calibrates:

* ``calibration_kernel`` runs in the benchmark's process and calibrates the
  in-process library calls.  It mixes interpreted Python (dict and set
  updates, small NumPy sorts and draws) with BLAS (a small matmul and a
  matvec larger than cache) in the workload's proportion.
* ``process_kernel`` spawns a fresh interpreter that imports NumPy and runs
  the same kernel, then exits.  It calibrates the fresh-process timings (set
  up and CLI wall time), which spend much of their time starting up.

Usage as a script: python3 perfbench/kernel.py <blas share>
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random(120)
_SQUARE = _RNG.random((250, 250))
_TALL = _RNG.random((2000, 1000))
_VECTOR = _RNG.random(1000)


def calibration_kernel(blas_share: float) -> float:
    """Seconds for a fixed mix of Python and BLAS work; blas_share is the
    BLAS part of the mix."""
    python_share = 1.0 - blas_share
    start = time.perf_counter()
    table: dict[int, int] = {}
    seen: set[int] = set()
    for i in range(round(60000 * python_share)):
        table[i & 1023] = table.get(i & 1023, 0) + i
        seen.add(i % 777)
        if i % 3 == 0:
            seen.discard(i % 777)
    for _ in range(round(2250 * python_share)):
        np.argsort(_SMALL, kind="stable")
        _RNG.exponential(1.0, 40)
    for _ in range(round(21 * blas_share)):
        _SQUARE @ _SQUARE
    for _ in range(round(29 * blas_share)):
        _TALL @ _VECTOR
    return time.perf_counter() - start


def process_kernel(blas_share: float) -> float:
    """Seconds from spawning this file as a fresh process to its exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__)), str(blas_share)], check=True)
    return time.perf_counter() - start


if __name__ == "__main__":
    calibration_kernel(float(sys.argv[1]))
