"""The package's public surface is exactly the names listed here.

A name added to or dropped from ``codedcomp.__all__`` must change this list
too, so the surface only moves on purpose.
"""

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
