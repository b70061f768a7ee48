"""Coded distributed computation with partial recovery.

Tools for straggler-tolerant distributed matrix-vector multiplication where
the master may stop after recovering only a tolerated fraction of the result
blocks: randomized circular-shift code constructions and classical baselines,
a peeling decoder with an exact-elimination oracle, a batched straggler
simulator with exact small-system enumeration, and a linear-regression
training harness driven by the simulated iterations.

Each export loads its module on first use (PEP 562), so importing the
package, or one command's modules, loads no other module's code.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every export, by the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "blocks": "CodedTask ComputationAssignment Message",
        "config": "DEFAULT_SEED ExperimentConfig TrainSettings assignment_source concrete_assignment parse_config",
        "decoding": "PeelingDecoder decode_blocks recovery_threshold rref_recoverable",
        "enumeration": "all_types completion_cdf success_table successful_score_vector",
        "latency": "LatencyModel",
        "regression": "Dataset centralized_gd generate_dataset gram loss partial_gd_step train",
        "schemes": "ConfigError build_gc build_mcc build_rcs build_uc_mmc hybrid_example",
        "simulate": "MonteCarloResult monte_carlo",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
