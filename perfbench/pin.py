"""Regenerate reference.json: every workload's CLI output at the default seed.

Run from the repository root, only when a change to the outputs is intended:

    python3 perfbench/pin.py

The enumerate output does not depend on the seed (its offsets are given), so
its reference holds at every seed.  Training losses go through BLAS, so their
reference holds bit for bit only with the same BLAS kernels.
"""

import argparse
import json
import shutil

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    run.prepare_process()
    import bench
    import checks

    references = {}
    for name in WORKLOADS:
        ctx = bench.Context(argparse.Namespace(workload=name, seed=DEFAULT_SEED, smoke=False))
        for cmd in ctx.commands:
            _, _, values = bench.run_cli(ctx, cmd)
            references[cmd.key()] = {
                "seed": None if cmd.sub == "enumerate" else DEFAULT_SEED,
                "sha256": checks.digest(cmd, values),
                "summary": checks.summary(cmd, values),
            }
        shutil.rmtree(ctx.out)
    checks.REFERENCE_PATH.write_text(
        json.dumps(references, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
