"""Experiment configuration: parsing, full validation, assignment factories.

Configs are plain JSON objects.  Each field is declared once, on
ExperimentConfig or TrainSettings, together with its parser and default, and
parse_config is the one place that reads a config file and merges it with
overrides.  Parsing never stops at the first problem: every violation is
collected (with its field name) and reported at once via ConfigError.  A
parsed config resolves all defaults, serializes back to an equal dict, and
can build the assignment factory used by the simulator.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .blocks import MODE_COMMUNICATION, MODE_COMPUTATION, ComputationAssignment
from .decoding import recovery_threshold
from .latency import LatencyModel
from .schemes import (
    GroupPlan,
    build_gc,
    build_generalized_rcs,
    build_mcc,
    build_rcs,
    build_uc_mmc,
    circular_shift_violations,
    hybrid_example,
    load_violations,
    mds_violations,
)
from .simulate import _release_ranks

DEFAULT_SEED = 1729
SCHEMES = ("rcs", "rcs-general", "mcc", "uc-mmc", "gc", "hybrid-example")

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
_REQUIRED = {
    "rcs": ("degrees",),
    "rcs-general": ("degrees", "z"),
    "mcc": ("kbar",),
    "uc-mmc": ("load",),
    "gc": ("load",),
}
# Schemes whose builder fixes the mode: (the mode, why).
_FIXED_MODES = {
    "mcc": (MODE_COMPUTATION, "codes before computation"),
    "uc-mmc": (MODE_COMPUTATION, "sends its blocks uncoded"),
    "hybrid-example": (MODE_COMPUTATION, "has a fixed computation schedule"),
    "gc": (MODE_COMMUNICATION, "codes after computation"),
}


class ConfigError(ValueError):
    """Carries every validation violation found in a config."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# Field parsers: each takes (key, value, violations), returns the parsed
# value, or records a violation and returns None.


def _as_int(key, value, violations, minimum=None) -> int | None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        if isinstance(value, float) and float(value).is_integer():
            value = int(value)
        else:
            violations.append(f"{key}: expected an integer, got {value!r}")
            return None
    value = int(value)
    if minimum is not None and value < minimum:
        violations.append(f"{key}: must be >= {minimum}, got {value}")
        return None
    return value


def _as_number(key, value, violations, positive=False) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        violations.append(f"{key}: expected a number, got {value!r}")
        return None
    try:
        value = float(value)
    except OverflowError:
        violations.append(f"{key}: must be finite, got an integer too large for a float")
        return None
    if not math.isfinite(value):
        violations.append(f"{key}: must be finite, got {value}")
        return None
    if positive and value <= 0:
        violations.append(f"{key}: must be positive, got {value}")
        return None
    return value


_as_count = partial(_as_int, minimum=1)
_as_positive = partial(_as_number, positive=True)


def _as_tolerance(key, value, violations) -> float | None:
    value = _as_number(key, value, violations)
    if value is not None and not 0.0 <= value <= 1.0:
        violations.append(f"{key}: tolerance must lie in [0, 1], got {value}")
        return None
    return value


def _as_int_list(key, value, violations) -> tuple[int, ...] | None:
    raw = value
    if isinstance(value, str):
        try:
            value = [int(part) for part in value.split(",") if part.strip()]
        except ValueError:
            violations.append(f"{key}: could not parse integer list from {raw!r}")
            return None
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in value
    ):
        violations.append(f"{key}: expected a list of integers, got {value!r}")
        return None
    return tuple(int(v) for v in value)


def _as_number_list(key, value, violations) -> tuple[float, ...] | None:
    raw = value
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    try:
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


def _field(parse, default=MISSING):
    """A config field: its parser and its default, declared together."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class TrainSettings:
    dim: int = _field(_as_count)
    samples: int = _field(_as_count)
    eta: float = _field(_as_positive, 0.1)
    iterations: int = _field(_as_count, 50)
    noise_std: float = _field(_as_number, 0.01)


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str = _field(_as_scheme)
    workers: int = _field(_as_count)
    mode: str = _field(_as_mode, MODE_COMPUTATION)
    degrees: tuple[int, ...] | None = _field(_as_int_list, None)
    load: int | None = _field(_as_count, None)
    kbar: int | None = _field(_as_count, None)
    groups: int = _field(_as_count, 1)
    z: tuple[int, ...] | None = _field(_as_int_list, None)
    offsets: tuple[int, ...] | None = _field(_as_int_list, None)
    eval_points: tuple[float, ...] | None = _field(_as_number_list, None)
    q: float = _field(_as_tolerance, 0.0)
    mu: float = _field(_as_positive, 10.0)
    alpha: float = _field(_as_positive, 0.01)
    trials: int = _field(_as_count, 10000)
    seed: int = _field(partial(_as_int, minimum=0), DEFAULT_SEED)
    redraw: bool = _field(_as_bool, True)
    train: TrainSettings | None = _field(_as_train, None)

    @property
    def k_total(self) -> int:
        return self.workers * (self.groups if self.scheme == "rcs-general" else 1)

    def model(self) -> LatencyModel:
        return LatencyModel(mu=self.mu, alpha=self.alpha)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready fields; unset optional fields and unused groups are left out."""
        data: dict[str, Any] = {}
        for key, value in asdict(self).items():
            if value is None or (key == "groups" and self.scheme != "rcs-general"):
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
    scheme = values["scheme"]
    if scheme in _FIXED_MODES and "mode" not in merged:
        values["mode"] = _FIXED_MODES[scheme][0]
    if scheme is not None and values["workers"] is not None:
        _validate_scheme(violations, values)
    if violations:
        raise ConfigError(violations)
    if scheme != "rcs-general":
        values["groups"] = 1
    cfg = ExperimentConfig(**values)

    if cfg.train is not None:
        if cfg.mode == MODE_COMMUNICATION:
            raise ConfigError([
                "train: requires a matrix-vector scheme in computation mode "
                "(exact-sum coding recovers no coordinate blocks)"
            ])
        if cfg.train.dim % cfg.k_total:
            raise ConfigError([
                f"train.dim: {cfg.train.dim} is not divisible into {cfg.k_total} blocks"
            ])
    try:
        asn = build_assignment(cfg, np.random.default_rng(0))
    except (ValueError, OverflowError) as exc:
        raise ConfigError([f"scheme: cannot construct assignment: {exc}"]) from exc
    violations = _tolerance_violations(asn, cfg.q)
    if violations:
        raise ConfigError(violations)
    return cfg


def _tolerance_violations(asn: ComputationAssignment, q: float) -> list[str]:
    """A ``q:`` violation if even every message together recovers fewer
    blocks than the tolerance needs: every trial would then run to the end
    without a result.  One drawn assignment decides it, since a
    circular-shift code recovers the same whole groups whatever its offsets."""
    every_message = np.zeros((1, len(asn.messages), asn.n_workers))
    recovered = int(np.count_nonzero(_release_ranks(asn, asn.support, every_message) < np.inf))
    needed = recovery_threshold(asn.k_total, q)
    if recovered >= needed:
        return []
    return [
        f"q: all messages together recover {recovered} of "
        f"{asn.k_total} blocks, but tolerance {q} needs {needed}"
    ]


def _validate_scheme(violations, values) -> None:
    """Required fields, allowed modes and fixed sizes; the construction rules
    themselves come from the schemes module."""
    scheme, workers = values["scheme"], values["workers"]
    missing = [name for name in _REQUIRED.get(scheme, ()) if values[name] is None]
    violations.extend(f"{name}: required for scheme {scheme!r}" for name in missing)
    if not missing and scheme in ("rcs", "rcs-general"):
        z = values["z"] if scheme == "rcs-general" else None
        violations.extend(circular_shift_violations(
            workers, values["degrees"], values["groups"], z, values["offsets"]
        ))
    elif not missing and scheme == "mcc":
        violations.extend(mds_violations(workers, values["kbar"], values["eval_points"]))
    elif not missing and scheme in ("uc-mmc", "gc"):
        violations.extend(load_violations(workers, values["load"]))
    fixed, reason = _FIXED_MODES.get(scheme, (values["mode"], ""))
    if values["mode"] != fixed:
        violations.append(f"mode: scheme {scheme!r} {reason}; use {fixed!r}")
    if scheme == "hybrid-example" and workers != 4:
        violations.append(f"workers: scheme 'hybrid-example' is fixed at 4 workers, got {workers}")


def build_assignment(
    cfg: ExperimentConfig, rng: np.random.Generator | None = None
) -> ComputationAssignment:
    """Construct the assignment described by the config (one draw)."""
    if cfg.scheme == "rcs":
        return build_rcs(cfg.workers, cfg.degrees, rng, cfg.offsets, cfg.mode)
    if cfg.scheme == "rcs-general":
        plan = GroupPlan(cfg.groups, cfg.z)
        return build_generalized_rcs(cfg.workers, plan, cfg.degrees, rng, cfg.offsets, cfg.mode)
    if cfg.scheme == "mcc":
        return build_mcc(cfg.workers, cfg.kbar, cfg.eval_points)
    if cfg.scheme == "uc-mmc":
        return build_uc_mmc(cfg.workers, cfg.load)
    if cfg.scheme == "gc":
        return build_gc(cfg.workers, cfg.load)
    if cfg.scheme == "hybrid-example":
        return hybrid_example()
    raise ValueError(f"unknown scheme {cfg.scheme!r}")


def assignment_source(cfg: ExperimentConfig):
    """Assignment source for the simulator.

    Randomized constructions with redraw enabled return a factory (fresh
    draw per trial); everything else returns one fixed assignment built from
    a dedicated construction stream.
    """
    randomized = cfg.scheme in ("rcs", "rcs-general") and cfg.offsets is None
    if randomized and cfg.redraw:
        return lambda rng: build_assignment(cfg, rng)
    return concrete_assignment(cfg)


def concrete_assignment(cfg: ExperimentConfig) -> ComputationAssignment:
    """One reproducible assignment drawn from the config's construction stream."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _CONSTRUCTION_TAG)))
    return build_assignment(cfg, rng)
