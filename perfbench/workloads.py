"""The benchmark's workloads: which CLI commands each one runs, at what size.

Each command is the flag set of one ``codedcomp`` CLI invocation.  The same
flags drive the CLI subprocess (``argv``), the in-process library call
(``config``) and the set-up probe, so all three see identical inputs.  The
seed is the only input that varies between runs.

This module uses the standard library only: the set-up probe imports it,
and everything the probe imports counts as set-up time.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1729

# The CLI derives the training dataset from SeedSequence((seed, DATA_TAG)).
DATA_TAG = 4294967294

_TRAIN_KEYS = ("dim", "samples", "eta", "iterations")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand plus the flags a user would type."""

    name: str
    sub: str
    flags: tuple[tuple[str, object], ...]

    def argv(self, seed: int, out: str) -> list[str]:
        args = [self.sub]
        for key, value in self.flags:
            args += [f"--{key}", str(value)]
        return args + ["--seed", str(seed), "--out", out]

    def key(self) -> str:
        """Seed-free identity of the command, used to look up references."""
        return " ".join([self.sub] + [f"--{k} {v}" for k, v in self.flags])

    def config(self, seed: int) -> dict:
        """The same flags as a config mapping for ``parse_config``."""
        data: dict = {"seed": seed}
        train = {}
        for key, value in self.flags:
            if key in _TRAIN_KEYS:
                train[key] = value
            else:
                data[key] = value
        if train:
            data["train"] = train
        return data

    def flag(self, key: str):
        return dict(self.flags)[key]


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    commands: tuple[Command, ...]

    @property
    def kind(self) -> str:
        """The CLI subcommand all the workload's commands run."""
        return self.commands[0].sub


def _cmd(name: str, sub: str, **flags) -> Command:
    return Command(name, sub, tuple(flags.items()))


# Sizes: every run repeats each command several times within --seconds, so a
# command is sized to take half a second to a second in the main call.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-rcs",
            "trials",
            (_cmd("rcs", "simulate", scheme="rcs", workers=40, degrees="1,2,4",
                  q=0.15, trials=500),),
        ),
        Workload(
            "mc-baselines",
            "trials",
            (
                _cmd("uc-mmc", "simulate", scheme="uc-mmc", workers=40, load=3,
                     q=0.15, trials=1000),
                _cmd("mcc", "simulate", scheme="mcc", workers=40, kbar=14, q=0,
                     trials=2500),
                _cmd("gc", "simulate", scheme="gc", workers=40, load=6, q=0,
                     mode="communication", trials=2500),
            ),
        ),
        Workload(
            "train-rcs",
            "iterations",
            (_cmd("rcs", "train", scheme="rcs", workers=40, degrees="1,2,3",
                  q=0.3, eta=0.1, dim=2000, samples=4000),),
        ),
        Workload(
            "enum-rcs",
            "vectors",
            (_cmd("rcs", "enumerate", scheme="rcs", workers=9, degrees="1,2",
                  offsets="1,3,5", q=0),),
        ),
    )
}

# Tiny sizes for the smoke test: same schemes, a fraction of the work.
_SMOKE_FLAGS = {
    "trials": 40,
    "dim": 80,
    "samples": 160,
    "iterations": 4,
}
_SMOKE_ENUM = {"workers": 5, "offsets": "1,2,4"}


def smoke(workload: Workload) -> Workload:
    """The workload shrunk to a size that runs in well under a second."""
    shrink = _SMOKE_ENUM if workload.kind == "enumerate" else _SMOKE_FLAGS
    commands = tuple(
        Command(c.name, c.sub, tuple((k, shrink.get(k, v)) for k, v in c.flags))
        for c in workload.commands
    )
    if workload.kind == "train":
        commands = tuple(
            Command(c.name, c.sub, c.flags + (("iterations", shrink["iterations"]),))
            for c in commands
        )
    return Workload(workload.name, workload.work_unit, commands)
