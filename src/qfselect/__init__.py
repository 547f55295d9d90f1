"""Feature selection by evolving sampled quantum circuits.

A shallow circuit over rotation gates is mutated generation by generation;
its sampled output distribution over feature-mask bitstrings is scored by
a classical classifier, and an elitist (mu + lambda) loop keeps the best
circuits.  See README.md for the full tour.
"""

from .classifier import (
    EvaluatorSpec,
    ExternalEvaluator,
    make_evaluator,
)
from .dataset import (
    Dataset,
    SplitDataset,
    load_csv,
    stratified_split,
    wine_csv_path,
)
from .errors import (
    DatasetError,
    DegenerateTrainingError,
    EvaluatorError,
    FitnessError,
    InsufficientDataError,
    InvalidGateError,
    MaskError,
    OracleLimitError,
    QfselectError,
    RecordError,
    StateSizeError,
)
from .evolution import (
    EvolutionConfig,
    Individual,
    MutationConfig,
    evolve,
    mutate,
    select,
)
from .masks import index_to_mask, mask_to_index, validate_mask
from .objective import (
    EvaluationLedger,
    empirical_auc,
    fitness,
    predicted_total_evaluations,
)
from .records import (
    DistributionRow,
    GenerationEntry,
    OracleRecord,
    RunRecord,
    RunTotals,
    dumps_canonical,
    read_oracle_record,
    read_run_record,
    write_oracle_record,
    write_run_record,
)
from .simulator import (
    Circuit,
    Gate,
    GateKind,
    SampledDistribution,
    SupportState,
    depth,
    quasi_probabilities,
    sample,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # circuits and simulation
    "Circuit",
    "Gate",
    "GateKind",
    "SampledDistribution",
    "SupportState",
    "depth",
    "quasi_probabilities",
    "sample",
    "simulate",
    # feature masks
    "index_to_mask",
    "mask_to_index",
    "validate_mask",
    # datasets
    "Dataset",
    "SplitDataset",
    "load_csv",
    "stratified_split",
    "wine_csv_path",
    # mask scoring
    "EvaluatorSpec",
    "ExternalEvaluator",
    "make_evaluator",
    # objective bookkeeping
    "EvaluationLedger",
    "empirical_auc",
    "fitness",
    "predicted_total_evaluations",
    # evolution
    "EvolutionConfig",
    "Individual",
    "MutationConfig",
    "evolve",
    "mutate",
    "select",
    # run records
    "DistributionRow",
    "GenerationEntry",
    "OracleRecord",
    "RunRecord",
    "RunTotals",
    "dumps_canonical",
    "read_oracle_record",
    "read_run_record",
    "write_oracle_record",
    "write_run_record",
    # errors
    "QfselectError",
    "DatasetError",
    "DegenerateTrainingError",
    "EvaluatorError",
    "FitnessError",
    "InsufficientDataError",
    "InvalidGateError",
    "MaskError",
    "OracleLimitError",
    "RecordError",
    "StateSizeError",
]
