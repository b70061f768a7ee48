"""Command-line front end.

Four subcommands cover the library's capabilities:

* ``encode``     dump a concrete assignment's task arrays (who computes what) as JSON;
* ``enumerate``  tabulate successful score vectors per straggler type (CSV);
* ``simulate``   Monte Carlo completion time / message statistics (CSV + JSON);
* ``train``      linear-regression training under partial recovery (CSV).

Besides ``--config`` and ``--out``, each flag is made from one config field's
declaration (``--eval-points`` sets ``eval_points``), and its text goes through
that field's parser, as a config file's value does, also when it starts with
``-`` (``--mu -1e3``).

Every output embeds the fully resolved config (seed included), so a result
file alone suffices to rerun the experiment.  All randomness flows from the
seed; rerunning a command reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import Field, fields
from functools import partial
from importlib import import_module
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    TrainSettings,
    assignment_source,
    concrete_assignment,
    parse_config,
)

_DATA_TAG = 4294967294
_CONFIG_PREFIX = "# config: "
# The library calls of the commands, by their module, each loaded on first
# use (PEP 562), so a process imports only its own command's modules.  The
# commands call them as attributes of this module (``_cli.monte_carlo``),
# which a caller may replace.
_CALLS = {
    "monte_carlo": "simulate",
    "success_table": "enumeration",
    "train": "regression",
    "generate_dataset": "regression",
    "gram": "regression",
    "_openblas_threads": "regression",
}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _CALLS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_CALLS[name]}", __package__), name)
    return value


def read_embedded_config(path: str | Path) -> dict:
    """Recover the resolved config embedded in an output file."""
    path = Path(path)
    if path.suffix == ".json":
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)["config"]
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    if not first.startswith(_CONFIG_PREFIX):
        raise ValueError(f"{path} carries no embedded config")
    return json.loads(first[len(_CONFIG_PREFIX) :])


def _write_csv(path: Path, cfg: ExperimentConfig, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_CONFIG_PREFIX + json.dumps(cfg.to_dict(), sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_columns(path: Path, cfg: ExperimentConfig, columns: dict) -> None:
    """A CSV of equal-length columns, each under its header."""
    _write_csv(path, cfg, list(columns), zip(*columns.values()))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _cmd_encode(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    asn = concrete_assignment(cfg)
    support = [ids.tolist() for ids in asn.support]
    coefficients = [coefs.tolist() for coefs in asn.coefficients]
    workers = [
        {
            "worker": w + 1,
            "tasks": [
                {"order": j + 1, "blocks": [b + 1 for b in ids[w]], "coefficients": coefs[w]}
                for j, (ids, coefs) in enumerate(zip(support, coefficients))
            ],
        }
        for w in range(asn.n_workers)
    ]
    payload = {
        "config": cfg.to_dict(),
        "assignment": {
            "workers": asn.n_workers,
            "blocks": asn.k_total,
            "mode": asn.mode,
            "decode": asn.decode,
            "task_cost": asn.task_cost,
            "messages": [
                {"after_tasks": m.tasks_done, "orders": [o + 1 for o in m.orders]}
                for m in asn.messages
            ],
            "per_worker": workers,
        },
    }
    path = out_dir / "assignment.json"
    _write_json(path, payload)
    return [path]


def _cmd_enumerate(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    asn = concrete_assignment(cfg)
    try:
        table = _cli.success_table(asn, cfg.q)
    except ValueError as exc:
        raise ConfigError([f"workers: {exc}"]) from exc
    header = [f"workers_at_{s}" for s in range(asn.max_score, -1, -1)]
    header += ["successful_vectors", "total_vectors"]
    rows = []
    for ctype, good, total in table:
        if good:
            rows.append(list(ctype.counts) + [good, total])
    path = out_dir / "success_counts.csv"
    _write_csv(path, cfg, header, rows)
    return [path]


def _cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    start = time.perf_counter()
    result = _cli.monte_carlo(
        assignment_source(cfg), cfg.q, cfg.model(), cfg.trials, cfg.seed
    )
    elapsed = time.perf_counter() - start
    trials_path = out_dir / "trials.csv"
    _write_columns(trials_path, cfg, {
        "trial": range(result.trials),
        "completion_time": map(repr, result.times.tolist()),
        "messages": result.messages.tolist(),
        "redundant": result.redundant.tolist(),
        "recovered_blocks": result.recovered.tolist(),
        "completed": result.completed.astype(int).tolist(),
    })
    summary_path = out_dir / "summary.json"
    _write_json(summary_path, {"config": cfg.to_dict(), "results": result.summary()})
    print(
        f"simulate: {cfg.scheme} q={cfg.q} trials={cfg.trials} "
        f"mean_time={result.mean_time:.6f} mean_messages={result.mean_messages:.3f} "
        f"({elapsed:.1f}s)"
    )
    return [trials_path, summary_path]


def _cmd_train(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    settings = cfg.train
    if settings is None:
        raise ConfigError(["train: section required for the train command"])
    if _cli._openblas_threads() is None:
        message = "NumPy's BLAS is not its bundled OpenBLAS; the output depends on its thread count"
        print("train: " + message, file=sys.stderr)
    data_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _DATA_TAG)))
    try:
        dataset = _cli.generate_dataset(
            settings.samples, settings.dim, data_rng, noise_std=settings.noise_std
        )
        _cli.gram(dataset)  # cached on the dataset, which train reuses
    except MemoryError as exc:
        raise ConfigError([f"train: cannot build the dataset: {exc}"]) from exc
    result = _cli.train(
        dataset,
        assignment_source(cfg),
        cfg.q,
        cfg.model(),
        settings.eta,
        settings.iterations,
        cfg.seed,
    )
    path = out_dir / "training.csv"
    _write_columns(path, cfg, {
        "iteration": range(1, settings.iterations + 1),
        "loss": map(repr, result.losses.tolist()),
        "iteration_time": map(repr, result.times.tolist()),
        "messages": result.messages.tolist(),
        "recovered_fraction": map(repr, result.recovered_fraction.tolist()),
    })
    print(
        f"train: {cfg.scheme} q={cfg.q} iterations={settings.iterations} "
        f"final_loss={result.losses[-1]:.6e} total_time={result.total_time:.4f}"
    )
    return [path]


_COMMANDS = {
    "encode": _cmd_encode,
    "enumerate": _cmd_enumerate,
    "simulate": _cmd_simulate,
    "train": _cmd_train,
}


def _field_flags() -> dict[str, Field]:
    """Every config field that has a flag, by its flag: ``--`` and the name
    with ``_`` as ``-``."""
    return {
        "--" + f.name.replace("_", "-"): f
        for f in (*fields(ExperimentConfig), *fields(TrainSettings))
        if f.name != "train"
    }


def _attach_values(argv) -> list[str]:
    """argv with every config-field flag joined to a following value that
    starts with one ``-``: ``--mu -1e3`` becomes ``--mu=-1e3``.  argparse
    reads such a value as a flag unless it looks like ``-5`` or ``-.5``, so
    ``-1e3`` or ``-inf`` would end in its usage error instead of reaching
    the field's parser."""
    flags, joined = _field_flags(), []
    for token in argv:
        if joined and joined[-1] in flags and token.startswith("-") and not token.startswith("--"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def build_parser() -> argparse.ArgumentParser:
    # Flags are spelled out in full, so a new field cannot re-bind an abbreviation.
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    # No type or choices: the field's parser reads the text, so every bad flag is a violation.
    for flag, f in _field_flags().items():
        common.add_argument(flag, dest=f.name, help="override: " + f.metadata["help"])

    parser = argparse.ArgumentParser(
        prog="codedcomp",
        description="Coded distributed computation with partial recovery",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = partial(sub.add_parser, parents=[common], allow_abbrev=False)
    command("encode", help="dump a concrete assignment as JSON")
    command("enumerate", help="tabulate successful score vectors (CSV)")
    command("simulate", help="Monte Carlo timing statistics (CSV + JSON)")
    command("train", help="regression training under partial recovery (CSV)")
    return parser


def _overrides_from(args: argparse.Namespace) -> dict:
    """The config-field flags that were given; train flags form a partial
    ``train`` section."""
    given = {key: value for key, value in vars(args).items() if value is not None}
    values = {f.name: given[f.name] for f in fields(ExperimentConfig) if f.name in given}
    train = {f.name: given[f.name] for f in fields(TrainSettings) if f.name in given}
    return {**values, "train": train} if train else values


def _report(violations) -> int:
    """List violations on stderr; the exit status of bad input."""
    for violation in violations:
        print(f"  - {violation}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = parse_config(args.config or {}, _overrides_from(args))
    except ConfigError as exc:
        print("invalid configuration:", file=sys.stderr)
        return _report(exc.violations)
    out_dir = Path(args.out)
    # Made before the run, so an unusable path fails fast; a command that
    # then rejects its input writes nothing and leaves no directory behind.
    made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _report([f"out: cannot create directory {args.out!r}: {exc.strerror}"])
    try:
        paths = _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        for path in made:
            path.rmdir()
        return _report(exc.violations)
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
