"""Set-up probe: a fresh process that gets one workload ready, then says so.

The benchmark times it from spawn to the ``ready`` line.  That covers the
interpreter start, importing the program, ``parse_config``, the first
assignment, and for training the dataset and its Gram matrix, which the CLI
also builds before its main call.

Usage: python3 perfbench/probe.py <workload> <seed> [--smoke]
(with the program's ``src`` directory on PYTHONPATH).
"""

import sys

from workloads import DATA_TAG, WORKLOADS, smoke


def main(argv: list[str]) -> int:
    import numpy as np

    from codedcomp import assignment_source, generate_dataset, gram, parse_config
    from codedcomp.simulate import trial_rng

    workload = WORKLOADS[argv[0]]
    seed = int(argv[1])
    if "--smoke" in argv[2:]:
        workload = smoke(workload)
    for cmd in workload.commands:
        cfg = parse_config(cmd.config(seed))
        source = assignment_source(cfg)
        if callable(source):
            source(trial_rng(seed, 0))
        if cfg.train is not None:
            rng = np.random.default_rng(np.random.SeedSequence((seed, DATA_TAG)))
            s = cfg.train
            gram(generate_dataset(s.samples, s.dim, rng, noise_std=s.noise_std))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
