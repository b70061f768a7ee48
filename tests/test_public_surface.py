"""The package's public surface is exactly the names listed here.

A name added to or dropped from ``codedcomp.__all__`` must change this list
too, so the surface only moves on purpose.
"""

import importlib

import pytest

import codedcomp

PUBLIC_NAMES = [
    "CodedTask",
    "ComputationAssignment",
    "ConfigError",
    "DEFAULT_SEED",
    "Dataset",
    "ExperimentConfig",
    "LatencyModel",
    "Message",
    "MonteCarloResult",
    "PeelingDecoder",
    "TrainSettings",
    "all_types",
    "assignment_source",
    "build_gc",
    "build_mcc",
    "build_rcs",
    "build_uc_mmc",
    "centralized_gd",
    "completion_cdf",
    "concrete_assignment",
    "decode_blocks",
    "generate_dataset",
    "gram",
    "hybrid_example",
    "loss",
    "monte_carlo",
    "parse_config",
    "partial_gd_step",
    "recovery_threshold",
    "rref_recoverable",
    "success_table",
    "successful_score_vector",
    "train",
]


def test_exports_are_the_listed_names():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert codedcomp.__all__ == PUBLIC_NAMES


def test_every_export_imports():
    missing = [name for name in PUBLIC_NAMES if not hasattr(codedcomp, name)]
    assert not missing


def test_dir_and_star_import_cover_the_exports():
    assert set(PUBLIC_NAMES) <= set(dir(codedcomp))
    namespace = {}
    exec("from codedcomp import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"codedcomp.{codedcomp._EXPORTS[name]}")
    value = getattr(codedcomp, name)
    assert value is getattr(home, name)
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'codedcomp' has no attribute 'no_such_name'"):
        codedcomp.no_such_name
    with pytest.raises(ImportError):
        from codedcomp import no_such_name  # noqa: F401
