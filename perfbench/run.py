"""codedcomp benchmark: one workload per run, closed loop, one call at a time.

Run from the repository root:

    python3 perfbench/run.py --workload mc-rcs --seed 1729 --seconds 25 --trace 0

Workloads (see workloads.py): mc-rcs, mc-baselines, train-rcs, enum-rcs.

--trace 0 measures the end-to-end metrics.  It repeats rounds until
--seconds have passed (at least three rounds).  Each round runs:

* one set-up probe, a fresh process timed from spawn to ready (setup_s);
* the workload's CLI commands, each in a fresh process (wall_s is their
  summed wall time, peak_rss_mb the largest peak resident set);
* the same commands' main library call in this process (work_per_s:
  trials, iterations or score vectors per second).

Each metric is the median over rounds.  Times are in reference seconds:
each interval is scaled by the speed of a calibration kernel timed around
it (kernel.py and bench.Clock; README.md gives the reason).

--trace 1 replays the main calls from the program's public functions with a
span around every call into a layer (replay.py), alternating with untraced
calls, and reports the per-layer metrics.  The spans are written to
.perfbench_out/ when the run ends.

Both modes check the outputs (checks.py).  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def prepare_process() -> None:
    """Pin this process and its children to one CPU and cap BLAS threads at
    that CPU, before NumPy is first imported.

    One CPU, so the calibration kernels (kernel.py) time the CPU the
    program runs on: the two CPUs of a small virtual machine slow down
    independently of each other.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the smoke test only"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "codedcomp" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    prepare_process()
    from bench import run

    return run(args)


if __name__ == "__main__":
    sys.exit(main())
