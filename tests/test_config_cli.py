"""Config parsing/validation and the command-line front end."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codedcomp
from codedcomp import ComputationAssignment, ConfigError, assignment_source, parse_config
from codedcomp import cli
from codedcomp.cli import _overrides_from, _write_json, build_parser, main, read_embedded_config
from codedcomp.config import _SCHEMES, SCHEMES, ExperimentConfig, TrainSettings
from codedcomp.regression import _openblas_threads
from codedcomp.schemes import CircularShiftSource

# Group 2 only occurs in the degree-2 order, so no message ever releases one
# of its blocks: half of the 12 blocks stay unknown.
UC_MMC_FLAGS = ["--scheme", "uc-mmc", "--workers", "4", "--load", "2"]
UNFINISHABLE = {"scheme": "rcs-general", "workers": 6, "degrees": [1, 1, 2], "groups": 2, "z": [1, 1, 2, 2]}

TABLE_CONFIG = {
    "scheme": "rcs",
    "workers": 40,
    "degrees": [1, 2, 3],
    "q": 0.15,
    "mu": 10,
    "alpha": 0.01,
    "trials": 10000,
}


def _optional(draw, data, key, strategy):
    if draw(st.booleans()):
        data[key] = draw(strategy)


def _recoverable_groups(degrees, z):
    """Groups a grouped circular-shift code recovers once every message is
    in: a group is released by an order with exactly one row outside the
    groups already recovered, starting from the degree-1 first order."""
    cums = list(itertools.accumulate(degrees))
    orders = [z[c - d : c] for c, d in zip(cums, degrees)]
    known: set[int] = set()
    while True:
        unknown = [[g for g in rows if g not in known] for rows in orders]
        new = {rows[0] for rows in unknown if len(rows) == 1}
        if not new:
            return known
        known |= new


@st.composite
def valid_configs(draw):
    """Valid config mappings for every scheme, optional fields present or
    not.  Each scheme gets only the construction fields it reads; any other
    one is a violation."""
    scheme = draw(st.sampled_from(SCHEMES))
    workers = 4 if scheme == "hybrid-example" else draw(st.integers(1, 12))
    data = {"scheme": scheme, draw(st.sampled_from(["workers", "k", "K"])): workers}
    groups = draw(st.integers(1, 3)) if scheme == "rcs-general" else 1
    computation = scheme != "gc"
    min_q = 0.0
    if scheme in ("rcs", "rcs-general"):
        degrees = [1]
        for step in draw(st.lists(st.integers(0, 2), max_size=3)):
            if sum(degrees) + degrees[-1] + step > workers * groups:
                break
            degrees.append(degrees[-1] + step)
        data["degrees"] = degrees
        rows = sum(degrees)
        z = [1] * rows
        if scheme == "rcs-general":
            pool = [g for g in range(1, groups + 1) for _ in range(workers)]
            z = draw(st.permutations(pool))[:rows]
            data.update(groups=groups, z=z)
            # The tolerance must cover the groups no message can release.
            lost = 1 - len(_recoverable_groups(degrees, z)) / groups
            min_q = lost + 1e-6 if lost else 0.0
        if draw(st.booleans()):
            pools = {
                g: iter(draw(st.permutations(range(1, workers + 1))))
                for g in range(1, groups + 1)
            }
            data["offsets"] = [next(pools[g]) for g in z]
        mode = draw(st.sampled_from([None, "computation", "communication"]))
        if mode is not None:
            data["mode"] = mode
            computation = mode == "computation"
    elif scheme == "mcc":
        data["kbar"] = draw(st.integers(1, workers))
        _optional(draw, data, "eval_points", st.lists(
            st.floats(-1e3, 1e3), min_size=workers, max_size=workers, unique=True
        ))
    elif scheme in ("uc-mmc", "gc"):
        data["load"] = draw(st.integers(1, workers))
    if min_q:
        data["q"] = draw(st.floats(min_q, 1.0))
    else:
        _optional(draw, data, "q", st.floats(0.0, 1.0))
    _optional(draw, data, "mu", st.floats(1e-3, 1e3))
    _optional(draw, data, "alpha", st.floats(1e-3, 1e3))
    _optional(draw, data, "trials", st.integers(1, 10**6))
    _optional(draw, data, "seed", st.integers(0, 2**64))
    if scheme in ("rcs", "rcs-general") and "offsets" not in data:
        _optional(draw, data, "redraw", st.booleans())
    if computation and draw(st.booleans()):
        train = {
            "dim": workers * groups * draw(st.integers(1, 5)),
            "samples": draw(st.integers(1, 10**4)),
        }
        _optional(draw, train, "eta", st.floats(1e-6, 10.0))
        _optional(draw, train, "iterations", st.integers(1, 1000))
        _optional(draw, train, "noise_std", st.floats(0.0, 1e3))
        data["train"] = train
    return data


class TestParseConfig:
    def test_valid_timing_config(self):
        cfg = parse_config(TABLE_CONFIG)
        assert cfg.scheme == "rcs"
        assert cfg.workers == 40
        assert cfg.degrees == (1, 2, 3)
        assert cfg.q == 0.15
        assert cfg.k_total == 40
        assert cfg.mode == "computation"

    def test_numpy_scalars_are_numbers(self):
        cfg = parse_config({
            **TABLE_CONFIG, "workers": np.int64(40), "degrees": [np.int64(1), 2, 3],
            "q": np.int64(0), "mu": np.int64(10), "alpha": np.float32(0.5),
        })
        assert (cfg.workers, cfg.degrees, cfg.q, cfg.mu, cfg.alpha) == (40, (1, 2, 3), 0.0, 10.0, 0.5)
        for flag in (True, np.True_):
            with pytest.raises(ConfigError) as err:
                parse_config({**TABLE_CONFIG, "mu": flag})
            assert err.value.violations == [f"mu: expected a number, got {flag!r}"]

    def test_degree_criterion_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"scheme": "rcs", "workers": 10, "d": [2, 3]})
        assert any("criterion (i)" in v for v in err.value.violations)

    def test_alias_spellings_accepted(self):
        a = parse_config({"scheme": "rcs", "workers": 10, "d": [1, 2]})
        b = parse_config({"scheme": "rcs", "workers": 10, "m": [1, 2]})
        c = parse_config({"scheme": "rcs", "workers": 10, "degrees": [1, 2]})
        assert a.degrees == b.degrees == c.degrees == (1, 2)

    def test_uppercase_key_aliases(self):
        cfg = parse_config({"scheme": "rcs", "K": 40, "d": [1, 2, 3], "q": 0.15})
        assert cfg.workers == 40
        grouped = parse_config(
            {
                "scheme": "rcs-general",
                "K": 4,
                "N": 2,
                "degrees": [1, 1],
                "z": [1, 2],
            }
        )
        assert grouped.groups == 2
        mds = parse_config({"scheme": "mcc", "K": 4, "Kbar": 2})
        assert mds.kbar == 2

    def test_mode_value_aliases(self):
        long_form = parse_config(
            {"scheme": "rcs", "workers": 6, "d": [1, 2], "mode": "coded-communication"}
        )
        assert long_form.mode == "communication"
        assert (
            parse_config(
                {"scheme": "rcs", "workers": 6, "d": [1, 2], "mode": "coded-computation"}
            ).mode
            == "computation"
        )

    def test_train_section_aliases(self):
        cfg = parse_config(
            {
                "scheme": "rcs",
                "workers": 4,
                "d": [1, 1],
                "train": {"d": 400, "n": 2000},
            }
        )
        assert cfg.train.dim == 400
        assert cfg.train.samples == 2000

    def test_empty_config_lists_required_fields(self):
        with pytest.raises(ConfigError) as err:
            parse_config({})
        text = "\n".join(err.value.violations)
        assert "scheme" in text
        assert "workers" in text

    def test_all_violations_collected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(
                {"scheme": "rcs", "workers": 10, "degrees": [2, 1], "q": 1.5, "mu": -2}
            )
        text = "\n".join(err.value.violations)
        assert "criterion (i)" in text
        assert "criterion (ii)" in text
        assert "q:" in text
        assert "mu:" in text

    def test_unknown_field_flagged(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"scheme": "uc-mmc", "workers": 4, "load": 2, "wat": 1})
        assert any(v.startswith("wat:") for v in err.value.violations)

    def test_scheme_requirements(self):
        with pytest.raises(ConfigError, match="kbar"):
            parse_config({"scheme": "mcc", "workers": 4})
        with pytest.raises(ConfigError, match="load"):
            parse_config({"scheme": "uc-mmc", "workers": 4})
        with pytest.raises(ConfigError, match="z"):
            parse_config(
                {"scheme": "rcs-general", "workers": 4, "degrees": [1, 1], "groups": 2}
            )

    def test_gc_mode_fixed(self):
        cfg = parse_config({"scheme": "gc", "workers": 6, "load": 2})
        assert cfg.mode == "communication"
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"scheme": "gc", "workers": 6, "load": 2, "mode": "computation"})

    def test_gc_train_rejected(self):
        with pytest.raises(ConfigError, match="train: requires"):
            parse_config({"scheme": "gc", "workers": 4, "load": 2, "train": {"dim": 8, "samples": 10}})

    def test_grouped_config(self):
        cfg = parse_config(
            {
                "scheme": "rcs-general",
                "workers": 40,
                "degrees": [1, 1, 4, 8],
                "groups": 2,
                "z": [1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2],
            }
        )
        assert cfg.k_total == 80

    def test_z_length_checked(self):
        with pytest.raises(ConfigError, match="z:"):
            parse_config(
                {
                    "scheme": "rcs-general",
                    "workers": 40,
                    "degrees": [1, 1, 4, 8],
                    "groups": 2,
                    "z": [1, 2, 1],
                }
            )

    def test_overrides_take_precedence(self):
        cfg = parse_config(TABLE_CONFIG, {"q": 0.3, "seed": 99})
        assert cfg.q == 0.3
        assert cfg.seed == 99

    def test_round_trip(self):
        cfg = parse_config(TABLE_CONFIG)
        assert parse_config(cfg.to_dict()) == cfg

    def test_round_trip_with_train(self):
        cfg = parse_config(
            {
                **TABLE_CONFIG,
                "train": {"dim": 400, "samples": 2000, "eta": 0.1, "iterations": 50},
            }
        )
        assert parse_config(cfg.to_dict()) == cfg

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(valid_configs())
    def test_round_trip_property(self, data):
        cfg = parse_config(data)
        assert parse_config(cfg.to_dict()) == cfg

    def test_train_override_merges_key_by_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TABLE_CONFIG, "train": {"d": 400, "samples": 2000}}))
        cfg = parse_config(path, {"train": {"iterations": 5, "n": 100}})
        assert (cfg.train.dim, cfg.train.samples, cfg.train.iterations) == (400, 100, 5)

    @pytest.mark.parametrize(
        "contents, message",
        [(None, "cannot read"), ("{not json", "not valid JSON")],
        ids=["missing", "malformed"],
    )
    def test_unreadable_file(self, tmp_path, contents, message):
        path = tmp_path / "cfg.json"
        if contents is not None:
            path.write_text(contents)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.violations[0].startswith("config: ")
        assert message in err.value.violations[0]

    @pytest.mark.parametrize(
        "overrides, violation",
        [
            ({"seed": -1}, "seed: must be >= 0, got -1"),
            ({"mode": ["computation"]}, "mode: unknown value"),
            (
                {"scheme": "rcs-general", "groups": 0, "degrees": [1, 1], "z": [1, 1]},
                "groups: must be >= 1, got 0",
            ),
            (
                {"scheme": "mcc", "workers": 9, "kbar": 3, "eval_points": [1e200] + list(range(2, 10))},
                "scheme: cannot construct assignment",
            ),
            ({"mu": float("nan")}, "mu: must be finite, got nan"),
            ({"alpha": float("inf")}, "alpha: must be finite, got inf"),
            ({"train": {"dim": 40, "samples": 10, "eta": float("inf")}}, "train.eta: must be finite"),
            (
                {"train": {"dim": 40, "samples": 10, "noise_std": float("nan")}},
                "train.noise_std: must be finite",
            ),
            (
                {"train": {"dim": 40, "samples": 10, "noise_std": -0.5}},
                "train.noise_std: must be >= 0, got -0.5",
            ),
            (
                {"scheme": "mcc", "workers": 3, "kbar": 2, "eval_points": [1, float("nan"), 2]},
                "eval_points: must be finite",
            ),
            ({"scheme": "rcs", "workers": 10, "degrees": [1, 1], "offsets": [3, 3]}, "offsets: must be distinct"),
            ({"scheme": "rcs", "workers": 10, "degrees": [1, 1], "offsets": [0, 11]}, "offsets: must lie in [1, 10]"),
            (
                {"scheme": "rcs-general", "workers": 4, "degrees": [1, 1], "groups": 2, "z": [1, 1], "offsets": [2, 2]},
                "offsets: must be distinct within a group",
            ),
            ({"scheme": "uc-mmc", "workers": 4, "load": 2, "mode": "communication"}, "mode: scheme 'uc-mmc'"),
            ({"scheme": "hybrid-example", "workers": 4, "mode": "communication"}, "mode: scheme 'hybrid-example'"),
            (
                {"scheme": "mcc", "workers": 4, "kbar": 2, "eval_points": [True, False, 2, 3]},
                "eval_points: expected a list of numbers, got [True, False, 2, 3]",
            ),
            (
                {"scheme": "mcc", "workers": 8, "kbar": 3, "eval_points": [str(x) for x in range(1, 9)]},
                "eval_points: expected a list of numbers, got ['1', '2', '3', '4', '5', '6', '7', '8']",
            ),
            # NumPy refuses these allocations at once, before touching memory.
            ({"workers": 10**15, "degrees": [1]}, "scheme: cannot construct assignment: "),
            ({"scheme": "uc-mmc", "workers": 10**15, "load": 1}, "scheme: cannot construct assignment: "),
        ],
        ids=[
            "negative-seed", "unhashable-mode", "zero-groups", "overflowing-points",
            "nan-mu", "inf-alpha", "inf-eta", "nan-noise-std", "negative-noise-std", "nan-eval-point",
            "duplicate-offsets", "out-of-range-offsets", "duplicate-grouped-offsets",
            "uc-mmc-communication", "hybrid-communication", "boolean-eval-points",
            "string-eval-points", "huge-rcs", "huge-uc-mmc",
        ],
    )
    def test_bad_values_are_violations(self, overrides, violation):
        # A case that switches scheme starts without the rcs degrees, which
        # that scheme would reject as unused.
        base = TABLE_CONFIG
        if not overrides.get("scheme", "rcs").startswith("rcs"):
            base = {k: v for k, v in TABLE_CONFIG.items() if k != "degrees"}
        with pytest.raises(ConfigError) as err:
            parse_config(base, overrides)
        assert any(v.startswith(violation) for v in err.value.violations)

    @pytest.mark.parametrize(
        "data, unused",
        [
            (
                {"scheme": "rcs", "workers": 10, "degrees": [1, 2], "z": [5, 5, 5], "kbar": 99, "load": 3},
                ["z", "kbar", "load"],
            ),
            ({"scheme": "rcs", "workers": 10, "degrees": [1, 2], "groups": 1}, ["groups"]),
            ({"scheme": "rcs", "workers": 10, "degrees": [1, 2], "eval_points": [1, 2]}, ["eval_points"]),
            (
                {"scheme": "rcs-general", "workers": 4, "degrees": [1, 1], "groups": 2, "z": [1, 2], "load": 2},
                ["load"],
            ),
            ({"scheme": "mcc", "workers": 4, "kbar": 2, "degrees": [1, 2], "offsets": [1, 2, 3]}, ["degrees", "offsets"]),
            ({"scheme": "uc-mmc", "workers": 4, "load": 2, "kbar": 2}, ["kbar"]),
            ({"scheme": "gc", "workers": 4, "load": 2, "N": 2, "z": [1]}, ["groups", "z"]),
            ({"scheme": "hybrid-example", "workers": 4, "degrees": [1, 2], "load": 2}, ["degrees", "load"]),
            ({"scheme": "mcc", "workers": 4, "kbar": 2, "redraw": False, "degrees": [1, 2]}, ["degrees", "redraw"]),
            ({"scheme": "gc", "workers": 4, "load": 2, "redraw": True}, ["redraw"]),
        ],
        ids=[
            "rcs", "rcs-groups", "rcs-eval-points", "rcs-general", "mcc", "uc-mmc", "gc-alias", "hybrid",
            "mcc-redraw", "gc-redraw",
        ],
    )
    def test_unused_construction_fields_are_violations(self, data, unused):
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        scheme = data["scheme"]
        assert err.value.violations == [f"{name}: not used by scheme {scheme!r}" for name in unused]

    def test_unused_field_exit_code(self, tmp_path, capsys):
        code = main([
            "simulate", "--scheme", "mcc", "--workers", "8", "--kbar", "4",
            "--degrees", "1,2", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "  - degrees: not used by scheme 'mcc'" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize(
        "data",
        [
            {"scheme": "rcs", "workers": 4, "degrees": [1, 2]},
            {"scheme": "rcs-general", "workers": 4, "degrees": [1, 1], "groups": 2, "z": [1, 2]},
        ],
        ids=["rcs", "rcs-general"],
    )
    def test_redraw_echoed_only_by_circular_shift_codes(self, data):
        assert parse_config({**data, "redraw": False}).to_dict()["redraw"] is False
        assert "redraw" not in parse_config({"scheme": "uc-mmc", "workers": 4, "load": 2}).to_dict()

    @pytest.mark.parametrize(
        "data",
        [
            {"scheme": "rcs", "workers": 4, "degrees": [1, 2], "offsets": [1, 2, 3]},
            {
                "scheme": "rcs-general", "workers": 4, "degrees": [1, 1], "groups": 2,
                "z": [1, 2], "offsets": [3, 1],
            },
        ],
        ids=["rcs", "rcs-general"],
    )
    def test_redraw_with_offsets_is_violation(self, data):
        assert "redraw" not in parse_config(data).to_dict()
        for redraw in (True, False):
            with pytest.raises(ConfigError) as err:
                parse_config({**data, "redraw": redraw})
            assert err.value.violations == ["redraw: not used with explicit offsets"]

    @pytest.mark.parametrize("q, finishes", [(0.0, False), (0.5, True)])
    def test_unfinishable_config_rejected(self, q, finishes):
        # Group 2 only occurs in the degree-2 order, so no message ever
        # releases one of its blocks: half of the 12 blocks stay unknown.
        data = {"scheme": "rcs-general", "workers": 6, "degrees": [1, 1, 2],
                "groups": 2, "z": [1, 1, 2, 2], "q": q}
        if finishes:
            assert parse_config(data).q == q
        else:
            with pytest.raises(ConfigError) as err:
                parse_config(data)
            assert err.value.violations == [
                "q: all messages together recover 6 of 12 blocks, but tolerance 0.0 needs 12"
            ]

    @pytest.mark.parametrize(
        "data, violations",
        [
            (
                {"scheme": "rcs", "workers": 8, "degrees": [1, 2], "mode": "communication",
                 "train": {"dim": 81, "samples": 10}},
                [
                    "train: requires a matrix-vector scheme in computation mode "
                    "(exact-sum coding recovers no coordinate blocks)",
                    "train.dim: 81 is not divisible into 8 blocks",
                ],
            ),
            (
                {**UNFINISHABLE, "mu": -2},
                [
                    "mu: must be positive, got -2.0",
                    "q: all messages together recover 6 of 12 blocks, but tolerance 0.0 needs 12",
                ],
            ),
            # An invalid tolerance is reported as such, not checked as its default.
            ({**UNFINISHABLE, "q": 1.5}, ["q: tolerance must lie in [0, 1], got 1.5"]),
        ],
        ids=["train", "tolerance", "invalid-tolerance"],
    )
    def test_late_checks_listed_with_the_others(self, data, violations):
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.violations == violations

    def test_circular_shift_rules_checked_once(self, monkeypatch):
        calls = []
        rules = codedcomp.schemes.circular_shift_violations

        def counting(*args):
            calls.append(args)
            return rules(*args)

        # Patched wherever parsing could look the rules up.
        for module in (codedcomp.schemes, codedcomp.config):
            monkeypatch.setattr(module, "circular_shift_violations", counting, raising=False)
        parse_config(TABLE_CONFIG)
        assert len(calls) == 1

    def test_trial_counts_bounded_by_the_streams(self):
        # Trial t's stream hashes t as one 32-bit word, so a run has at most
        # 2**32 trials (or training iterations); more is a violation.
        mcc = {"scheme": "mcc", "workers": 8, "kbar": 3}
        train = {"dim": 16, "samples": 10}
        assert parse_config({**mcc, "trials": 2**32}).trials == 2**32
        assert parse_config({**mcc, "train": {**train, "iterations": 2**32}}).train.iterations == 2**32
        with pytest.raises(ConfigError) as err:
            parse_config({**mcc, "trials": 2**32 + 5})
        assert err.value.violations == ["trials: must be <= 4294967296, got 4294967301"]
        with pytest.raises(ConfigError) as err:
            parse_config({**mcc, "trials": 2**40, "train": {**train, "iterations": 2**32 + 1}})
        assert err.value.violations == [
            "trials: must be <= 4294967296, got 1099511627776",
            "train.iterations: must be <= 4294967296, got 4294967297",
        ]

    def test_train_dimension_checked(self):
        with pytest.raises(ConfigError, match="train.dim"):
            parse_config(
                {**TABLE_CONFIG, "train": {"dim": 401, "samples": 2000}}
            )

    def test_file_input(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TABLE_CONFIG))
        assert parse_config(path) == parse_config(TABLE_CONFIG)

    def test_string_lists_parsed(self):
        cfg = parse_config({"scheme": "rcs", "workers": 10, "degrees": "1,2,3"})
        assert cfg.degrees == (1, 2, 3)

    @pytest.mark.parametrize("degrees", [[1, 2.0], (1.0, 2), [1, np.float64(2)], "1,2.0", "1.0, 2"])
    def test_integral_floats_in_int_lists(self, degrees):
        # An integer list reads each element as an integer field reads its value.
        cfg = parse_config({"scheme": "rcs", "workers": 10, "degrees": degrees})
        assert cfg.degrees == (1, 2) and all(type(d) is int for d in cfg.degrees)
        assert cfg == parse_config({"scheme": "rcs", "workers": 10, "degrees": [1, 2]})

    @pytest.mark.parametrize(
        "data, violation",
        [
            ({"scheme": "rcs", "workers": 10, "degrees": [1, 2.5]}, "degrees: expected a list of integers, got [1, 2.5]"),
            ({"scheme": "rcs", "workers": 10, "degrees": ["1", "2"]}, "degrees: expected a list of integers, got ['1', '2']"),
            ({"scheme": "rcs", "workers": 10, "degrees": "1,x"}, "degrees: expected a list of integers, got '1,x'"),
            ({"scheme": "rcs", "workers": 10, "degrees": [True, 2]}, "degrees: expected a list of integers, got [True, 2]"),
            ({"scheme": "uc-mmc", "workers": 4, "load": "two"}, "load: expected an integer, got 'two'"),
            (
                {"scheme": "rcs-general", "workers": 4, "degrees": [1, 1], "groups": 2, "z": "1,b"},
                "z: expected a list of integers, got '1,b'",
            ),
        ],
        ids=["fraction", "strings-in-list", "bad-text", "boolean", "load", "rcs-general-z"],
    )
    def test_unparsable_required_field_reported_once(self, data, violation):
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.violations == [violation]

    def test_absent_required_field_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"scheme": "rcs-general", "workers": 4, "degrees": [1, 1], "groups": 2})
        assert err.value.violations == ["z: required for scheme 'rcs-general'"]


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        code = self.run(
            "simulate", "--scheme", "rcs", "--workers", "10",
            "--degrees", "2,3", "--out", str(tmp_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "criterion (i)" in err

    def test_unallocatable_assignment_exit_code(self, tmp_path, capsys):
        code = self.run(
            "simulate", "--scheme", "rcs", "--workers", str(10**15),
            "--degrees", "1", "--out", str(tmp_path),
        )
        assert code == 2
        assert "scheme: cannot construct assignment: " in capsys.readouterr().err

    def test_unallocatable_dataset_exit_code(self, tmp_path, capsys):
        # NumPy refuses the 45 PiB sample matrix at once, before any draw.
        out = tmp_path / "fresh" / "out"
        code = self.run(
            "train", "--scheme", "rcs", "--workers", "8", "--degrees", "1,2",
            "--dim", "80000000", "--samples", "80000000", "--out", str(out),
        )
        assert code == 2
        assert "  - train: cannot build the dataset: " in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()

    def test_one_flag_per_config_field(self):
        names = [
            f.name for f in (*fields(ExperimentConfig), *fields(TrainSettings)) if f.name != "train"
        ]
        argv = ["simulate"]
        for name in names:
            argv += ["--" + name.replace("_", "-"), name]
        args = vars(build_parser().parse_args(argv))
        assert args == {"command": "simulate", "config": None, "out": "out", **{n: n for n in names}}

    @pytest.mark.parametrize(
        "key, text, value",
        [("workers", "8.0", 8), ("trials", "1e3", 1000), ("redraw", "yes", True),
         ("q", "0.15", 0.15), ("mu", "10", 10)],
    )
    def test_flag_text_parsed_as_file_value(self, key, text, value):
        base = {"scheme": "rcs", "workers": 8, "degrees": [1, 2]}
        args = build_parser().parse_args(["simulate", "--" + key, text])
        from_flag = parse_config(base, _overrides_from(args)).to_dict()
        assert from_flag == parse_config({**base, key: text}).to_dict()
        assert from_flag == parse_config({**base, key: value}).to_dict()

    def test_every_bad_flag_listed(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = self.run(
            "simulate", "--scheme", "rcs", "--workers", "abc", "--degrees", "1,2",
            "--q", "x", "--redraw", "maybe", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "invalid configuration:",
            "  - workers: expected an integer, got 'abc'",
            "  - q: expected a number, got 'x'",
            "  - redraw: expected true or false, got 'maybe'",
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, violation",
        [
            (UC_MMC_FLAGS + ["--mu", "-1e3"], "mu: must be positive, got -1000.0"),
            (UC_MMC_FLAGS + ["--mu=-1e3"], "mu: must be positive, got -1000.0"),
            (UC_MMC_FLAGS + ["--q", "-1e-3"], "q: tolerance must lie in [0, 1], got -0.001"),
            (UC_MMC_FLAGS + ["--q=-1e-3"], "q: tolerance must lie in [0, 1], got -0.001"),
            (UC_MMC_FLAGS + ["--alpha", "-inf"], "alpha: must be finite, got -inf"),
            (
                ["--scheme", "rcs", "--workers", "4", "--degrees", "-1,2"],
                "degrees: degrees must be positive integers, got [-1, 2]",
            ),
        ],
        ids=["mu", "mu-attached", "q", "q-attached", "alpha-inf", "degrees"],
    )
    def test_dash_leading_flag_value_reaches_the_field_parser(self, tmp_path, capsys, flags, violation):
        # argparse alone reads "-1e3" after --mu as another flag.
        out = tmp_path / "out"
        assert self.run("simulate", *flags, "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == ["invalid configuration:", f"  - {violation}"]
        assert not out.exists()

    def test_integral_float_list_flag(self, tmp_path):
        args = build_parser().parse_args(["simulate", "--degrees", "1,2.0"])
        base = {"scheme": "rcs", "workers": 8}
        assert parse_config(base, _overrides_from(args)) == parse_config({**base, "degrees": [1, 2]})

    @pytest.mark.parametrize("below", [False, True], ids=["existing-file", "under-a-file"])
    def test_out_must_be_a_directory(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "sub" if below else taken
        code = self.run(
            "simulate", "--scheme", "uc-mmc", "--workers", "4", "--load", "2",
            "--trials", "5", "--out", str(out),
        )
        assert code == 2
        assert f"  - out: cannot create directory {str(out)!r}: " in capsys.readouterr().err
        assert taken.read_text() == "kept"

    def test_encode_pinned_assignment(self, tmp_path, capsys):
        code = self.run(
            "encode", "--scheme", "rcs", "--workers", "20",
            "--degrees", "1,2,3", "--offsets", "1,4,11,15,6,18",
            "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "assignment.json").read_text())
        worker1 = payload["assignment"]["per_worker"][0]
        assert [t["blocks"] for t in worker1["tasks"]] == [[1], [4, 11], [15, 6, 18]]
        assert payload["config"]["seed"] == 1729  # fixed default

    def test_enumerate_outputs_expected_rows(self, tmp_path):
        code = self.run(
            "enumerate", "--scheme", "hybrid-example", "--workers", "4",
            "--q", "0", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "success_counts.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "workers_at_2,workers_at_1,workers_at_0,successful_vectors,total_vectors"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 9
        assert rows[0] == ["4", "0", "0", "1", "1"]
        assert rows[-1] == ["0", "4", "0", "1", "1"]

    def test_simulate_deterministic_outputs(self, tmp_path, capsys):
        args = [
            "simulate", "--scheme", "uc-mmc", "--workers", "8", "--load", "2",
            "--q", "0.25", "--trials", "50", "--seed", "7",
        ]
        code = self.run(*args, "--out", str(tmp_path / "a"))
        assert code == 0
        code = self.run(*args, "--out", str(tmp_path / "b"))
        assert code == 0
        for name in ("trials.csv", "summary.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_embedded_config_round_trips(self, tmp_path):
        self.run(
            "simulate", "--scheme", "uc-mmc", "--workers", "8", "--load", "2",
            "--q", "0.25", "--trials", "20", "--seed", "7", "--out", str(tmp_path),
        )
        for name in ("trials.csv", "summary.json"):
            embedded = read_embedded_config(tmp_path / name)
            cfg = parse_config(embedded)
            assert cfg.to_dict() == embedded

    def test_summary_contents(self, tmp_path):
        self.run(
            "simulate", "--scheme", "mcc", "--workers", "8", "--kbar", "4",
            "--trials", "30", "--out", str(tmp_path),
        )
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["results"]["trials"] == 30
        assert summary["results"]["mean_messages"] == 4.0
        assert summary["results"]["completion_rate"] == 1.0

    def test_train_command(self, tmp_path):
        code = self.run(
            "train", "--scheme", "rcs", "--workers", "8", "--degrees", "1,2",
            "--q", "0.25", "--dim", "40", "--samples", "100",
            "--eta", "0.1", "--iterations", "5", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "training.csv").read_text().splitlines()
        assert lines[1] == "iteration,loss,iteration_time,messages,recovered_fraction"
        assert len(lines) == 2 + 5
        losses = [float(line.split(",")[1]) for line in lines[2:]]
        assert losses[-1] < losses[0]
        embedded = read_embedded_config(tmp_path / "training.csv")
        assert embedded["train"]["dim"] == 40

    @pytest.mark.skipif(_openblas_threads() is None, reason="NumPy's BLAS is not its bundled OpenBLAS")
    def test_train_reports_nothing_under_bundled_openblas(self, tmp_path, capsys):
        code = self.run(
            "train", "--scheme", "rcs", "--workers", "4", "--degrees", "1,2",
            "--dim", "8", "--samples", "10", "--iterations", "2", "--out", str(tmp_path),
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_train_reports_thread_dependent_bytes_under_another_blas(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        code = self.run(
            "train", "--scheme", "rcs", "--workers", "4", "--degrees", "1,2",
            "--dim", "8", "--samples", "10", "--iterations", "2", "--out", str(tmp_path),
        )
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "train: NumPy's BLAS is not its bundled OpenBLAS; the output depends on its thread count"
        ]

    def test_abbreviated_flags_rejected(self, tmp_path, capsys):
        # argparse would read these as --workers 4 --load 2 --trials 5.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            self.run("simulate", *UC_MMC_FLAGS[:2], "--work", "4", "--lo", "2", "--tri", "5", "--out", str(out))
        assert exc.value.code == 2
        assert "unrecognized arguments: --work 4 --lo 2 --tri 5" in capsys.readouterr().err
        assert not out.exists()

    def test_train_requires_section(self, tmp_path, capsys):
        code = self.run(
            "train", "--scheme", "rcs", "--workers", "8", "--degrees", "1,2",
            "--out", str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--scheme", "rcs", "--workers", "8", "--degrees", "1,2"],
            ["enumerate", "--scheme", "rcs", "--workers", "15", "--degrees", "1,2"],
            [
                "encode", "--scheme", "rcs", "--workers", "20", "--degrees", "1,2,3",
                "--offsets", "1,4,11,15,6,18", "--redraw", "false",
            ],
            ["simulate", "--scheme", "mcc", "--workers", "8", "--kbar", "3", "--trials", "4294967297"],
        ],
        ids=["train-without-section", "enumerate-too-large", "redraw-with-offsets", "trials-beyond-streams"],
    )
    def test_failed_command_leaves_no_directory(self, tmp_path, argv):
        out = tmp_path / "fresh" / "out"
        assert self.run(*argv, "--out", str(out)) == 2
        assert not (tmp_path / "fresh").exists()

    def test_enumerate_too_large_is_violation(self, tmp_path, capsys):
        code = self.run(
            "enumerate", "--scheme", "uc-mmc", "--workers", "40", "--load", "3",
            "--out", str(tmp_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "  - workers: enumeration needs 1208925819614629174706176 score vectors" in err
        assert not (tmp_path / "success_counts.csv").exists()

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ("rcs --workers 20 --degrees 1,2,3", "c6765cff47c582063258a6fd095ace513f56023f7300de9bdbda06e029feebf8"),
            (
                "rcs --workers 20 --degrees 1,2,3 --offsets 1,4,11,15,6,18",
                "44f31ad13ebdd6ee4020dbc30506110f857a72e76398dce1d84b66e2894bfbaf",
            ),
            (
                "rcs-general --workers 40 --degrees 1,1,4,8 --groups 2 --z 1,2,1,1,2,2,1,1,1,1,2,2,2,2",
                "4863768b61326e775fe121e30ae8fb64b5bb05c6fd32985c833dfb11377940e6",
            ),
            ("mcc --workers 8 --kbar 4", "880377d814905c86d0fdda94491b4725d73b9d0f285551c46daec2855d0e3beb"),
            ("uc-mmc --workers 8 --load 3", "925de0100f1efc184dba9b9df0ca30f36f772a130f94eec600957455672e30e2"),
            ("gc --workers 8 --load 3", "a83b834d1c6064f1948979c75b2c7c031c9dee76064747a67ccba492a1c05235"),
            ("hybrid-example --workers 4", "4b91853bec5aaf0af06bd002fc6033154af2eb104a9bd7aa4bb2dddd2baf54d2"),
        ],
        ids=["rcs-drawn", "rcs-offsets", "rcs-general", "mcc", "uc-mmc", "gc", "hybrid-example"],
    )
    def test_encode_bytes_pinned(self, tmp_path, flags, digest):
        """The sha256 of every scheme's assignment.json, recorded before the
        scheme table replaced the per-scheme validation and build code; the
        same config and seed must keep giving the same bytes.  The mcc,
        uc-mmc, gc and hybrid-example digests were re-recorded when those
        schemes stopped echoing ``redraw``, which they never read, and the
        rcs-offsets digest when explicit offsets stopped echoing it."""
        assert self.run("encode", "--scheme", *flags.split(), "--out", str(tmp_path)) == 0
        assert hashlib.sha256((tmp_path / "assignment.json").read_bytes()).hexdigest() == digest

    def test_simulate_config_line_pinned(self, tmp_path):
        """The resolved config an mcc simulate embeds, recorded before the
        scheme table replaced the per-scheme echo rules, less the ``redraw``
        key that mcc never reads."""
        self.run(
            "simulate", "--scheme", "mcc", "--workers", "8", "--kbar", "4",
            "--trials", "50", "--out", str(tmp_path),
        )
        assert (tmp_path / "trials.csv").read_text().splitlines()[0] == (
            '# config: {"alpha": 0.01, "kbar": 4, "mode": "computation", "mu": 10.0, '
            '"q": 0.0, "scheme": "mcc", "seed": 1729, "trials": 50, "workers": 8}'
        )

    def test_json_output_is_strict(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "summary.json", {"mean_time": float("inf")})
        _write_json(tmp_path / "summary.json", {"mean_time": None})
        assert json.loads((tmp_path / "summary.json").read_text()) == {"mean_time": None}

    def test_400_digit_seed_runs(self, tmp_path):
        # An integer field never passes through float, so a seed of any
        # size is an integer, not an overflow.
        seed = int("7" * 400)
        assert parse_config({**TABLE_CONFIG, "seed": seed}).seed == seed
        assert parse_config({**TABLE_CONFIG, "seed": float(10**300)}).seed == int(float(10**300))
        code = self.run(
            "simulate", "--scheme", "rcs", "--workers", "8", "--degrees", "1,2",
            "--trials", "70", "--seed", str(seed), "--out", str(tmp_path),
        )
        assert code == 0
        assert read_embedded_config(tmp_path / "trials.csv")["seed"] == seed
        assert json.loads((tmp_path / "summary.json").read_text())["results"]["seed"] == seed

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = self.run(
            "simulate", "--scheme", "uc-mmc", "--workers", "4", "--load", "2",
            "--seed", "-1", "--out", str(tmp_path),
        )
        assert code == 2
        assert "seed: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, config",
        [
            ("mu", {"scheme": "rcs", "workers": 4, "degrees": [1], "mu": 10**400}),
            ("q", {"scheme": "rcs", "workers": 4, "degrees": [1], "q": 10**400}),
            ("eval_points", {"scheme": "mcc", "workers": 4, "kbar": 2, "eval_points": [1, 2, 10**400, 4]}),
        ],
        ids=["mu", "q", "eval_points"],
    )
    def test_huge_integer_is_violation(self, tmp_path, capsys, key, config):
        # JSON integers have no size limit; one too large for a float is
        # reported like infinity, not as a traceback.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = self.run("simulate", "--config", str(path), "--out", str(tmp_path))
        assert code == 2
        assert f"  - {key}: must be finite" in capsys.readouterr().err

    def test_surplus_eval_points_exit_code(self, tmp_path, capsys):
        # a point past the workers' count was once echoed and never used
        out = tmp_path / "encode"
        code = self.run(
            "encode", "--scheme", "mcc", "--workers", "3", "--kbar", "2",
            "--eval-points", "1,2,3,99", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines()[1:] == [
            "  - eval_points: need 3 points, one per worker, got 4"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "contents", [None, "{not json", "[1, 2]"], ids=["missing", "malformed", "not-an-object"]
    )
    def test_unreadable_config_file(self, tmp_path, capsys, contents):
        path = tmp_path / "cfg.json"
        if contents is not None:
            path.write_text(contents)
        code = self.run(
            "train", "--config", str(path), "--iterations", "3", "--out", str(tmp_path),
        )
        assert code == 2
        assert "  - config: " in capsys.readouterr().err

    def test_config_file_train_section_with_flag(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scheme": "rcs", "workers": 8, "degrees": [1, 2],
            "train": {"dim": 40, "n": 100, "iterations": 50},
        }))
        code = self.run(
            "train", "--config", str(path), "--iterations", "3",
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        embedded = read_embedded_config(tmp_path / "out" / "training.csv")
        assert embedded["train"]["dim"] == 40
        assert embedded["train"]["samples"] == 100
        assert embedded["train"]["iterations"] == 3

    def test_noise_std_flag_matches_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scheme": "rcs", "workers": 8, "degrees": [1, 2], "q": 0.25,
            "train": {"dim": 40, "samples": 100, "iterations": 5, "noise_std": 0.5},
        }))
        assert self.run("train", "--config", str(path), "--out", str(tmp_path / "file")) == 0
        code = self.run(
            "train", "--scheme", "rcs", "--workers", "8", "--degrees", "1,2", "--q", "0.25",
            "--dim", "40", "--samples", "100", "--iterations", "5", "--noise-std", "0.5",
            "--out", str(tmp_path / "flag"),
        )
        assert code == 0
        flag = (tmp_path / "flag" / "training.csv").read_bytes()
        assert flag == (tmp_path / "file" / "training.csv").read_bytes()
        assert read_embedded_config(tmp_path / "flag" / "training.csv")["train"]["noise_std"] == 0.5

    def test_negative_noise_std_exit_code(self, tmp_path, capsys):
        out = tmp_path / "fresh" / "out"
        code = self.run(
            "train", "--scheme", "rcs", "--workers", "4", "--degrees", "1,2", "--dim", "8",
            "--samples", "10", "--iterations", "2", "--noise-std", "-1", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines()[1:] == ["  - train.noise_std: must be >= 0, got -1.0"]
        assert not (tmp_path / "fresh").exists()

    def test_zero_noise_std_accepted(self, tmp_path):
        code = self.run(
            "train", "--scheme", "rcs", "--workers", "4", "--degrees", "1,2", "--dim", "8",
            "--samples", "10", "--iterations", "2", "--noise-std", "0", "--out", str(tmp_path),
        )
        assert code == 0
        assert read_embedded_config(tmp_path / "training.csv")["train"]["noise_std"] == 0.0

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TABLE_CONFIG, "trials": 10}))
        code = self.run(
            "simulate", "--config", str(path), "--trials", "15",
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        embedded = read_embedded_config(tmp_path / "out" / "summary.json")
        assert embedded["trials"] == 15
        assert embedded["q"] == 0.15  # from the file


@pytest.mark.parametrize("scheme", SCHEMES)
def test_assignment_source_redraws_when_the_scheme_reads_redraw(scheme, monkeypatch):
    construction = {
        "rcs": {"degrees": [1, 2]},
        "rcs-general": {"degrees": [1, 1, 2], "groups": 2, "z": [1, 2, 1, 2]},
        "mcc": {"kbar": 3},
        "uc-mmc": {"load": 2},
        "gc": {"load": 2},
        "hybrid-example": {},
    }[scheme]
    cfg = parse_config({"scheme": scheme, "workers": 4 if scheme == "hybrid-example" else 8, **construction})
    reads = "redraw" in _SCHEMES[scheme].fields
    assert reads == (scheme in ("rcs", "rcs-general"))
    offsets = (1, 1, 3, 3) if scheme == "rcs-general" else (1, 3, 5)
    calls, seed_sequence = [], np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", lambda *args: calls.append(args) or seed_sequence(*args))
    for given, redraw in itertools.product((None, offsets), (True, False)):
        calls.clear()
        source = assignment_source(replace(cfg, offsets=given, redraw=redraw))
        drawn = reads and given is None and redraw
        assert isinstance(source, CircularShiftSource) == drawn, (given, redraw)
        assert isinstance(source, ComputationAssignment) != drawn
        # Only a code drawn once hashes the construction stream.
        assert len(calls) == (reads and given is None and not redraw), (given, redraw)


@pytest.mark.parametrize(
    "data, violations",
    [
        ({"scheme": "rcs", "workers": 40, "degrees": [1, 2, 4], "q": 0.15}, None),
        (
            {
                "scheme": "rcs-general", "workers": 40, "degrees": [1, 1, 4, 8], "groups": 2,
                "z": [1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2], "mode": "communication", "q": 0.15,
            },
            None,
        ),
        (
            {"scheme": "rcs", "workers": 4, "degrees": [2], "q": 0.5},
            ["degrees: criterion (i) violated: first degree must be 1 so the first message is uncoded, got 2"],
        ),
        (
            {"scheme": "rcs-general", "workers": 8, "degrees": [1], "groups": 2, "z": [1], "q": 0.15},
            ["q: all messages together recover 8 of 16 blocks, but tolerance 0.15 needs 14"],
        ),
    ],
    ids=["rcs", "rcs-general", "rcs-rules", "rcs-general-tolerance"],
)
def test_a_drawn_code_is_checked_without_a_generator(data, violations, monkeypatch):
    # The rules and the tolerance of a drawn code are checked on its
    # source's layout, so parsing builds no generator and draws nothing.
    def refuse(*args, **kwargs):
        raise AssertionError("parse_config built a generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    if violations is None:
        assert parse_config(data).scheme == data["scheme"]
    else:
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.violations == violations


@pytest.mark.skipif(_openblas_threads() is None, reason="NumPy's BLAS is not its bundled OpenBLAS")
def test_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    # At 2 threads OpenBLAS splits a product's rows between them; training
    # pins its products to one thread, so both runs write the same bytes.
    src = str(Path(codedcomp.__file__).resolve().parents[1])
    argv = ["train", "--scheme", "rcs", "--workers", "40", "--degrees", "1,2,3", "--q", "0.3",
            "--dim", "2000", "--samples", "4000"]
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "codedcomp.cli", *argv, "--out", str(out)],
                       env=env, capture_output=True, check=True)
        digests.append(hashlib.sha256((out / "training.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_simulate_imports_neither_numpy_ma_nor_fractions(tmp_path):
    # numpy.ma comes in through np.unique (np.percentile's linear method)
    # and fractions through the exact oracle's module; a simulate process
    # needs neither.
    env = dict(os.environ)
    src = str(Path(codedcomp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["simulate", "--scheme", "rcs", "--workers", "40", "--degrees", "1,2,4", "--q", "0.15",
            "--trials", "200", "--out", str(tmp_path / "out")]
    code = (
        "import sys\n"
        "from codedcomp.cli import main\n"
        f"status = main({argv!r})\n"
        "print(status, sorted({'numpy.ma', 'fractions'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "summary.json").is_file()
