"""Output checks: parse what the CLI wrote and test it.

Three kinds of check, each returning a list of failure messages:

* exact: at the default seed, the parsed per-trial, per-iteration and
  per-type values must equal the references pinned in ``reference.json``
  (the same config and seed give the same output);
* statistical: at any seed, Monte Carlo means must fall within the frozen
  acceptance-suite targets and tolerances (criterion 3 for rcs, uc-mmc and
  mcc, criterion 4 for gc), and count-rule schemes must take exactly their
  threshold of messages;
* agreement: the in-process library call and its traced replay must
  reproduce the CLI's values exactly.

Standard library plus NumPy only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Command

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Acceptance targets (tests/test_acceptance.py): scheme -> (mean time,
# mean messages or None, relative tolerance, exact messages per trial).
TARGETS = {
    "rcs": (0.0936, 42.38, 0.10, None),  # criterion 3, degrees 1,2,4, q=0.15
    "uc-mmc": (0.1170, 51.16, 0.05, None),  # criterion 3, load 3, q=0.15
    "mcc": (0.1572, None, 0.05, 14),  # criterion 3, kbar 14, q=0
    "gc": (1.2575, None, 0.05, 35),  # criterion 4, load 6, q=0
}

TRIAL_COLUMNS = ("times", "messages", "redundant", "recovered", "completed")
TRAIN_COLUMNS = ("losses", "times", "messages", "recovered_fraction")


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# config: "):
        raise ValueError(f"{path.name}: no embedded config line")
    return list(csv.reader(lines[2:]))


def read_output(cmd: Command, out_dir: Path):
    """Parse the file the command wrote into the form the library returns."""
    if cmd.sub == "simulate":
        rows = _rows(out_dir / "trials.csv")
        return {
            "times": np.array([float(r[1]) for r in rows]),
            "messages": np.array([int(r[2]) for r in rows]),
            "redundant": np.array([int(r[3]) for r in rows]),
            "recovered": np.array([int(r[4]) for r in rows]),
            "completed": np.array([r[5] == "1" for r in rows]),
        }
    if cmd.sub == "train":
        rows = _rows(out_dir / "training.csv")
        return {
            "losses": np.array([float(r[1]) for r in rows]),
            "times": np.array([float(r[2]) for r in rows]),
            "messages": np.array([int(r[3]) for r in rows]),
            "recovered_fraction": np.array([float(r[4]) for r in rows]),
        }
    rows = _rows(out_dir / "success_counts.csv")
    return [(tuple(int(x) for x in r[:-2]), int(r[-2]), int(r[-1])) for r in rows]


def from_monte_carlo(result) -> dict[str, np.ndarray]:
    return {k: np.asarray(getattr(result, k)) for k in TRIAL_COLUMNS}


def from_train(result) -> dict[str, np.ndarray]:
    return {k: np.asarray(getattr(result, k)) for k in TRAIN_COLUMNS}


def from_success_table(table) -> list[tuple[tuple[int, ...], int, int]]:
    """The rows the CLI writes: types with at least one successful vector."""
    return [(ctype.counts, good, total) for ctype, good, total in table if good]


def digest(cmd: Command, values) -> str:
    """sha256 of the output columns in canonical JSON (floats as exact repr)."""
    if cmd.sub != "enumerate":
        columns = TRIAL_COLUMNS if cmd.sub == "simulate" else TRAIN_COLUMNS
        values = {k: np.asarray(values[k]).tolist() for k in columns}
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


def summary(cmd: Command, values) -> dict:
    if cmd.sub == "enumerate":
        return {"types": len(values), "successful": sum(g for _, g, _ in values)}
    columns = TRIAL_COLUMNS if cmd.sub == "simulate" else TRAIN_COLUMNS
    return {
        "rows": int(len(values["times"])),
        **{f"mean_{k}": float(np.mean(values[k])) for k in columns},
    }


def same(a, b) -> bool:
    """Exact equality of two parsed outputs (dict of arrays, or rows)."""
    if isinstance(a, dict):
        return a.keys() <= b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
    return list(a) == list(b)


def check_reference(cmd: Command, seed: int, values, references: dict) -> list[str]:
    ref = references.get(cmd.key())
    if ref is None or ref["seed"] not in (None, seed):
        return []
    got = digest(cmd, values)
    if got != ref["sha256"]:
        return [
            f"{cmd.name}: output differs from the pinned reference at seed {seed} "
            f"(got {summary(cmd, values)}, pinned {ref['summary']})"
        ]
    return []


def check_values(cmd: Command, values, statistical: bool) -> list[str]:
    """Invariants that hold at any seed."""
    errors = []
    if cmd.sub == "simulate":
        if not values["completed"].all():
            errors.append(f"{cmd.name}: {np.count_nonzero(~values['completed'])} incomplete trials")
        t_ref, m_ref, tol, exact = TARGETS[cmd.name]
        if exact is not None and not np.all(values["messages"] == exact):
            errors.append(f"{cmd.name}: messages per trial not all {exact}")
        if statistical:
            for label, got, want in (
                ("mean time", float(np.mean(values["times"])), t_ref),
                ("mean messages", float(np.mean(values["messages"])), m_ref),
            ):
                if want is not None and abs(got - want) > tol * want:
                    errors.append(f"{cmd.name}: {label} {got:.5g} vs target {want} (tol {tol:.0%})")
    elif cmd.sub == "train":
        losses = values["losses"]
        workers, q = int(cmd.flag("workers")), float(cmd.flag("q"))
        needed = math.ceil(round((1 - q) * workers, 9)) / workers
        if not np.all(np.isfinite(losses)) or not losses[-1] < losses[0]:
            errors.append(f"{cmd.name}: loss did not fall ({losses[0]:.6g} -> {losses[-1]:.6g})")
        if np.any(values["recovered_fraction"] < needed):
            errors.append(f"{cmd.name}: an iteration stopped below the tolerance threshold")
        if np.any(values["messages"] < 1):
            errors.append(f"{cmd.name}: an iteration received no message")
    else:
        for counts, good, total in values:
            expected = math.factorial(sum(counts)) // math.prod(math.factorial(c) for c in counts)
            if total != expected or not 0 < good <= total:
                errors.append(
                    f"{cmd.name}: type {counts} has {good}/{total} (multinomial {expected})"
                )
    return errors


def load_references() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
