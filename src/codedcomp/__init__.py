"""Coded distributed computation with partial recovery.

Tools for straggler-tolerant distributed matrix-vector multiplication where
the master may stop after recovering only a tolerated fraction of the result
blocks: randomized circular-shift code constructions and classical baselines,
a peeling decoder with an exact-elimination oracle, a batched straggler
simulator with exact small-system enumeration, and a linear-regression
training harness driven by the simulated iterations.
"""

from .blocks import CodedTask, ComputationAssignment, Message
from .config import (
    DEFAULT_SEED,
    ConfigError,
    ExperimentConfig,
    TrainSettings,
    assignment_source,
    concrete_assignment,
    parse_config,
)
from .decoding import (
    PeelingDecoder,
    decode_blocks,
    recovery_threshold,
    rref_recoverable,
)
from .enumeration import (
    all_types,
    completion_cdf,
    success_table,
    successful_score_vector,
)
from .latency import LatencyModel
from .regression import (
    Dataset,
    centralized_gd,
    generate_dataset,
    gram,
    loss,
    partial_gd_step,
    train,
)
from .schemes import (
    build_gc,
    build_mcc,
    build_rcs,
    build_uc_mmc,
    hybrid_example,
)
from .simulate import MonteCarloResult, monte_carlo

__version__ = "0.1.0"

__all__ = [
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
