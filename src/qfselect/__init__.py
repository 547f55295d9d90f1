"""Feature selection by evolving sampled quantum circuits.

A shallow circuit over rotation gates is mutated generation by generation;
its sampled output distribution over feature-mask bitstrings is scored by
a classical classifier, and an elitist (mu + lambda) loop keeps the best
circuits.  See README.md for the full tour.

Importing the package loads none of its modules; each exported name
loads its module on first use.  Every matrix product qfselect makes is
small enough that OpenBLAS computes it on one thread, so NumPy is loaded
here with one BLAS thread, which spares the start of an idle thread pool,
unless NumPy is already loaded or the caller set a thread count.
"""

import importlib
import os
import sys

_THREAD_COUNTS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in sys.modules and not any(name in os.environ for name in _THREAD_COUNTS):
    # OpenBLAS reads the count once, when NumPy loads it; the variable is
    # removed again so that child processes see the caller's environment.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

# The names each module exports, in __all__'s order.
_MODULE_NAMES = {
    "simulator": (
        "Circuit", "Gate", "GateKind", "SampledDistribution", "SupportState",
        "depth", "quasi_probabilities", "sample", "simulate",
    ),
    "masks": ("index_to_mask", "mask_to_index", "validate_mask"),
    "dataset": ("Dataset", "SplitDataset", "load_csv", "stratified_split", "wine_csv_path"),
    "classifier": ("EvaluatorSpec", "ExternalEvaluator", "make_evaluator"),
    "objective": ("empirical_auc", "fitness", "predicted_total_evaluations"),
    "evolution": ("EvolutionConfig", "Individual", "MutationConfig", "evolve", "mutate", "select"),
    "records": (
        "DistributionRow", "GenerationEntry", "OracleRecord", "RunRecord", "RunTotals",
        "dumps_canonical", "read_oracle_record", "read_run_record",
        "write_oracle_record", "write_run_record",
    ),
    "errors": (
        "QfselectError", "DatasetError", "DegenerateTrainingError", "EvaluatorError",
        "FitnessError", "InsufficientDataError", "InvalidGateError", "MaskError",
        "OracleLimitError", "RecordError", "StateSizeError",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    """Load the module behind an exported name on first use, then keep the value."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
