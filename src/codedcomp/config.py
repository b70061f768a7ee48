"""Experiment configuration: parsing, full validation, assignment sources.

Configs are plain JSON objects.  Each field is declared once, on
ExperimentConfig or TrainSettings, together with its parser, its default and
the help text of its command-line flag, and parse_config is the one place
that reads a config file and merges it with overrides.  A flag's text goes
through the same field parser as a file's value (the numeric parsers read a
string as the number it spells), so a file may also write ``"workers": "8"``.
Each scheme is stated once, in the table ``_SCHEMES``: the construction
fields it reads, how many of them it requires, the mode its builder fixes,
and its builder, which returns the code's source: a drawn circular-shift
code's CircularShiftSource, else the one fixed assignment.  The table
decides which fields a config may set and echo, and a config is validated
by the one build parse_config makes from it, whose rules the builder raises.
Parsing never stops at the first problem: every violation is collected (with
its field name) and reported at once via ConfigError.  A parsed config
resolves all defaults, serializes back to an equal dict, and builds the
assignment source used by the simulator.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .blocks import MODE_COMMUNICATION, MODE_COMPUTATION, ComputationAssignment
from .decoding import _recovered, recovery_threshold
from .latency import LatencyModel
from .schemes import (
    _MAX_TRIALS,
    AssignmentSource,
    CircularShiftSource,
    ConfigError,
    _source_layout,
    build_gc,
    build_mcc,
    build_rcs,
    build_uc_mmc,
    hybrid_example,
)

DEFAULT_SEED = 1729

_ALIASES = {
    "d": "degrees",
    "m": "degrees",
    "r": "load",
    "n": "groups",
    "N": "groups",
    "k": "workers",
    "K": "workers",
    "Kbar": "kbar",
}
_TRAIN_ALIASES = {"d": "dim", "n": "samples"}
_MODE_ALIASES = {
    "coded-computation": MODE_COMPUTATION,
    "coded-communication": MODE_COMMUNICATION,
}
_CONSTRUCTION_TAG = 4294967295
# Field parsers: each takes (key, value, violations), returns the parsed
# value, or records a violation and returns None.


def _spelled(value):
    """A string as the number it spells (an int, else a float), if it does."""
    if isinstance(value, str):
        for kind in (int, float):
            try:
                return kind(value)
            except ValueError:
                pass
    return value


def _as_number(key, value, violations, integer=False, minimum=None, maximum=None) -> float | None:
    """A number in [minimum, maximum]: an integer (``2.0`` is 2), which never
    passes through float, so it may have any size, or else a finite float."""
    value = _spelled(value)
    if integer and isinstance(value, float) and value.is_integer():
        value = int(value)
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        violations.append(f"{key}: expected {'an integer' if integer else 'a number'}, got {value!r}")
        return None
    try:
        value = int(value) if integer else float(value)
    except OverflowError:
        violations.append(f"{key}: must be finite, got an integer too large for a float")
        return None
    if not integer and not math.isfinite(value):
        violations.append(f"{key}: must be finite, got {value}")
        return None
    if minimum is not None and value < minimum:
        violations.append(f"{key}: must be >= {minimum}, got {value}")
        return None
    if maximum is not None and value > maximum:
        violations.append(f"{key}: must be <= {maximum}, got {value}")
        return None
    return value


_as_int = partial(_as_number, integer=True)
_as_count = partial(_as_number, integer=True, minimum=1)
_as_trials = partial(_as_number, integer=True, minimum=1, maximum=_MAX_TRIALS)
_as_nonnegative = partial(_as_number, minimum=0)


def _as_positive(key, value, violations) -> float | None:
    value = _as_number(key, value, violations)
    if value is not None and value <= 0:
        violations.append(f"{key}: must be positive, got {value}")
        return None
    return value


def _as_tolerance(key, value, violations) -> float | None:
    value = _as_number(key, value, violations)
    if value is not None and not 0.0 <= value <= 1.0:
        violations.append(f"{key}: tolerance must lie in [0, 1], got {value}")
        return None
    return value


def _as_int_list(key, value, violations) -> tuple[int, ...] | None:
    """Each element read by :func:`_as_int`'s rule, so ``2.0`` is 2; a
    string inside a list is not a number, as in :func:`_as_number_list`."""
    raw = value
    if isinstance(value, str):
        value = [_spelled(part) for part in value.split(",") if part.strip()]
    if isinstance(value, (list, tuple)):
        ints = [None if isinstance(v, str) else _as_int(key, v, []) for v in value]
        if None not in ints:
            return tuple(ints)
    violations.append(f"{key}: expected a list of integers, got {raw!r}")
    return None


def _as_number_list(key, value, violations) -> tuple[float, ...] | None:
    raw = value
    try:
        if isinstance(value, str):
            value = [float(p) for p in value.split(",") if p.strip()]
        elif any(isinstance(v, (bool, str)) for v in value):
            raise TypeError("booleans and strings are not numbers")
        return tuple(float(v) for v in value)
    except OverflowError:
        violations.append(f"{key}: must be finite, got an integer too large for a float")
        return None
    except (TypeError, ValueError):
        violations.append(f"{key}: expected a list of numbers, got {raw!r}")
        return None


def _as_bool(key, value, violations) -> bool | None:
    if isinstance(value, str):
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
    if not isinstance(value, bool):
        violations.append(f"{key}: expected true or false, got {value!r}")
        return None
    return value


class _Scheme(NamedTuple):
    """What a config of one scheme may set, and how its code is built."""

    fields: tuple[str, ...]  # the construction fields its builder reads
    required: int  # how many of fields, from the first, must be set
    fixed_mode: tuple[str, str] | None  # (the mode its builder fixes, why)
    build: Callable[["ExperimentConfig"], AssignmentSource]  # the code's checked source


def _circular_shift(cfg: ExperimentConfig, groups: int, z: tuple[int, ...] | None) -> AssignmentSource:
    """The source of cfg's circular-shift code over groups with row groups z:
    drawn without offsets, else the one code at cfg's offsets."""
    if cfg.offsets is None:
        return CircularShiftSource.of(cfg.workers, cfg.degrees, cfg.mode, groups, z)
    return build_rcs(cfg.workers, cfg.degrees, None, cfg.offsets, cfg.mode, groups, z)


# In the order the ``scheme:`` violation lists them.
_SCHEMES = {
    "rcs": _Scheme(
        ("degrees", "offsets", "redraw"), 1, None,
        lambda cfg: _circular_shift(cfg, 1, None),
    ),
    "rcs-general": _Scheme(
        ("degrees", "z", "groups", "offsets", "redraw"), 2, None,
        lambda cfg: _circular_shift(cfg, cfg.groups, cfg.z),
    ),
    "mcc": _Scheme(
        ("kbar", "eval_points"), 1, (MODE_COMPUTATION, "codes before computation"),
        lambda cfg: build_mcc(cfg.workers, cfg.kbar, cfg.eval_points),
    ),
    "uc-mmc": _Scheme(
        ("load",), 1, (MODE_COMPUTATION, "sends its blocks uncoded"),
        lambda cfg: build_uc_mmc(cfg.workers, cfg.load),
    ),
    "gc": _Scheme(
        ("load",), 1, (MODE_COMMUNICATION, "codes after computation"),
        lambda cfg: build_gc(cfg.workers, cfg.load),
    ),
    "hybrid-example": _Scheme(
        (), 0, (MODE_COMPUTATION, "has a fixed computation schedule"),
        lambda cfg: hybrid_example(cfg.workers),
    ),
}
SCHEMES = tuple(_SCHEMES)
# Every scheme's construction fields, in the order unused ones are listed.
_CONSTRUCTION_FIELDS = ("degrees", "offsets", "groups", "z", "kbar", "eval_points", "load", "redraw")


def _unused_fields(name: str, offsets) -> dict[str, str]:
    """Construction fields a config of scheme name does not read, each with
    why; explicit offsets fix the code, so ``redraw`` goes unread next to them."""
    used = _SCHEMES[name].fields
    unused = {k: f"not used by scheme {name!r}" for k in _CONSTRUCTION_FIELDS if k not in used}
    if offsets is not None and "redraw" in used:
        unused["redraw"] = "not used with explicit offsets"
    return unused


def _as_scheme(key, value, violations) -> str | None:
    if value not in SCHEMES:
        violations.append(
            f"{key}: unknown value {value!r} (expected one of {', '.join(SCHEMES)})"
        )
        return None
    return value


def _as_mode(key, value, violations) -> str | None:
    if isinstance(value, str):
        value = _MODE_ALIASES.get(value, value)
    if value not in (MODE_COMPUTATION, MODE_COMMUNICATION):
        violations.append(
            f"{key}: unknown value {value!r} (expected {MODE_COMPUTATION} or {MODE_COMMUNICATION})"
        )
        return None
    return value


def _as_train(key, value, violations) -> TrainSettings | None:
    if not isinstance(value, Mapping):
        violations.append(f"{key}: expected an object, got {value!r}")
        return None
    sub: list[str] = []
    values = _parse_fields(TrainSettings, value, key + ".", sub)
    violations.extend(sub)
    return None if sub else TrainSettings(**values)


def _field(parse, default=MISSING, help=""):
    """A config field: its parser, its default and its flag's help, declared together."""
    return field(default=default, metadata={"parse": parse, "help": help})


@dataclass(frozen=True)
class TrainSettings:
    dim: int = _field(_as_count, help="train parameter dimension")
    samples: int = _field(_as_count, help="train sample count")
    eta: float = _field(_as_positive, 0.1, "train step size")
    iterations: int = _field(_as_trials, 50, "train iterations")
    noise_std: float = _field(_as_nonnegative, 0.01, "train label noise standard deviation (>= 0)")


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str = _field(_as_scheme, help="scheme name")
    workers: int = _field(_as_count, help="number of workers")
    mode: str = _field(_as_mode, MODE_COMPUTATION, "computation | communication")
    degrees: tuple[int, ...] | None = _field(_as_int_list, None, "comma-separated degrees, e.g. 1,2,3")
    load: int | None = _field(_as_count, None, "per-worker load (uc-mmc / gc)")
    kbar: int | None = _field(_as_count, None, "recovery threshold (mcc)")
    groups: int = _field(_as_count, 1, "block groups (rcs-general)")
    z: tuple[int, ...] | None = _field(_as_int_list, None, "comma-separated row groups (rcs-general)")
    offsets: tuple[int, ...] | None = _field(_as_int_list, None, "comma-separated 1-based shifts")
    eval_points: tuple[float, ...] | None = _field(_as_number_list, None, "comma-separated points (mcc)")
    q: float = _field(_as_tolerance, 0.0, "tolerance in [0, 1]")
    mu: float = _field(_as_positive, 10.0, "straggling rate")
    alpha: float = _field(_as_positive, 0.01, "per-unit setup time")
    trials: int = _field(_as_trials, 10000, "Monte Carlo trials")
    seed: int = _field(partial(_as_int, minimum=0), DEFAULT_SEED, "base seed")
    redraw: bool = _field(_as_bool, True, "true | false: redraw randomized codes every trial")
    train: TrainSettings | None = _field(_as_train, None)

    @property
    def k_total(self) -> int:
        return self.workers * self.groups

    def model(self) -> LatencyModel:
        return LatencyModel(mu=self.mu, alpha=self.alpha)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready fields; unset optional fields and the construction
        fields the config does not read are left out."""
        unused = _unused_fields(self.scheme, self.offsets)
        data: dict[str, Any] = {}
        for key, value in asdict(self).items():
            if value is None or key in unused:
                continue
            data[key] = list(value) if isinstance(value, tuple) else value
        return data


def _parse_fields(
    cls, values: Mapping[str, Any], prefix: str, violations: list[str]
) -> dict[str, Any]:
    """Parse every field of a config dataclass from values.

    Unknown keys and missing required fields are recorded as violations.  An
    absent or invalid field takes its declared default (None if it has
    none), so cross-field checks still see usable values.
    """
    declared = fields(cls)
    names = {f.name for f in declared}
    violations.extend(f"{prefix}{key}: unknown field" for key in values if key not in names)
    parsed: dict[str, Any] = {}
    for f in declared:
        value = None
        if f.name in values:
            value = f.metadata["parse"](prefix + f.name, values[f.name], violations)
        elif f.default is MISSING:
            violations.append(f"{prefix}{f.name}: required field is missing")
        if value is None and f.default is not MISSING:
            value = f.default
        parsed[f.name] = value
    return parsed


def _merge(sources) -> dict[str, Any]:
    """Later sources win key by key, also inside ``train``; None means unset."""
    merged: dict[str, Any] = {}
    for source in sources:
        for key, value in source.items():
            if value is None:
                continue
            key = _ALIASES.get(key, key)
            if key == "train" and isinstance(value, Mapping):
                earlier = merged.get("train")
                value = {
                    **(earlier if isinstance(earlier, Mapping) else {}),
                    **{_TRAIN_ALIASES.get(k, k): v for k, v in value.items()},
                }
            merged[key] = value
    return merged


def parse_config(
    data: Mapping[str, Any] | str | Path,
    overrides: Mapping[str, Any] | None = None,
) -> ExperimentConfig:
    """Parse and fully validate an experiment config.

    Args:
        data: a mapping, or a path to a JSON file.
        overrides: values taking precedence over the file contents (CLI
            flags); a ``train`` mapping overrides the file's ``train``
            section key by key.

    Returns:
        A resolved ExperimentConfig.

    Raises:
        ConfigError: listing every violation found, each prefixed with the
            offending field (``config`` for an unreadable file).
    """
    if isinstance(data, (str, Path)):
        try:
            with open(data, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError([f"config: cannot read {data}: {exc.strerror}"]) from exc
        except ValueError as exc:
            raise ConfigError([f"config: {data} is not valid JSON: {exc}"]) from exc
    if not isinstance(data, Mapping):
        raise ConfigError(["config: expected a JSON object"])
    merged = _merge((data, overrides or {}))

    violations: list[str] = []
    values = _parse_fields(ExperimentConfig, merged, "", violations)
    name = values["scheme"]
    scheme = _SCHEMES.get(name)
    unset = []
    if scheme is not None:
        unused = _unused_fields(name, values["offsets"])
        violations.extend(f"{key}: {why}" for key, why in unused.items() if key in merged)
        # A required field that was given but failed to parse is already a violation.
        unset = [key for key in scheme.fields[: scheme.required] if values[key] is None]
        violations.extend(
            f"{key}: required for scheme {name!r}" for key in unset if key not in merged
        )
        if scheme.fixed_mode is not None:
            mode, why = scheme.fixed_mode
            if "mode" not in merged:
                values["mode"] = mode
            elif values["mode"] != mode:
                violations.append(f"mode: scheme {name!r} {why}; use {mode!r}")
    cfg = ExperimentConfig(**values)

    # A drawn code is checked on its source's layout, which recovers what
    # every draw recovers; no generator is built and nothing is drawn.
    asn = None
    if scheme is not None and not unset and cfg.workers is not None:
        try:
            asn = _source_layout(scheme.build(cfg))
        except ConfigError as exc:
            violations.extend(exc.violations)
        except (ValueError, OverflowError, MemoryError) as exc:
            violations.append(f"scheme: cannot construct assignment: {exc}")
    if cfg.train is not None:
        if cfg.mode == MODE_COMMUNICATION:
            violations.append(
                "train: requires a matrix-vector scheme in computation mode "
                "(exact-sum coding recovers no coordinate blocks)"
            )
        if cfg.workers is not None and cfg.train.dim % cfg.k_total:
            violations.append(
                f"train.dim: {cfg.train.dim} is not divisible into {cfg.k_total} blocks"
            )
    # An invalid q is already a violation; its default says nothing.
    if asn is not None and not any(v.startswith("q:") for v in violations):
        violations.extend(_tolerance_violations(asn, cfg.q))
    if violations:
        raise ConfigError(violations)
    return cfg


def _tolerance_violations(asn: ComputationAssignment, q: float) -> list[str]:
    """A ``q:`` violation if even every message together recovers fewer
    blocks than the tolerance needs: every trial would then run to the end
    without a result.  One assignment decides it, a drawn code's layout
    among them, since a circular-shift code recovers the same whole groups
    whatever its offsets."""
    every_message = np.ones((1, len(asn.messages), asn.n_workers), dtype=bool)
    recovered = int(np.count_nonzero(_recovered(asn, every_message)))
    needed = recovery_threshold(asn.k_total, q)
    if recovered >= needed:
        return []
    return [
        f"q: all messages together recover {recovered} of "
        f"{asn.k_total} blocks, but tolerance {q} needs {needed}"
    ]


def assignment_source(cfg: ExperimentConfig) -> AssignmentSource:
    """Assignment source for the simulator: with redraw enabled, the
    scheme's build (a drawn code's
    :class:`~codedcomp.schemes.CircularShiftSource`, whose trials each draw
    only their shifts, or one fixed assignment), else one fixed
    :func:`concrete_assignment`."""
    return _SCHEMES[cfg.scheme].build(cfg) if cfg.redraw else concrete_assignment(cfg)


def concrete_assignment(cfg: ExperimentConfig) -> ComputationAssignment:
    """One reproducible assignment: a drawn source is drawn once from the
    config's construction stream, and a fixed build is returned as it is."""
    source = _SCHEMES[cfg.scheme].build(cfg)
    if isinstance(source, CircularShiftSource):
        return source(np.random.default_rng(np.random.SeedSequence((cfg.seed, _CONSTRUCTION_TAG))))
    return source
