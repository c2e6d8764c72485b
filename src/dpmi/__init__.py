"""dpmi: differentially private one-vs-all mutual information ranking."""

from .aggregate import (
    Accumulator,
    accumulate,
    build_probability_tables,
    release_aggregate_table,
)
from .dp import (
    BudgetAccountant,
    BudgetExceededError,
    CellRng,
    CensoringPolicy,
    bound_contributions,
    censor_threshold,
    clamp,
    laplace_noise,
    release_sums,
)
from .evaluation import (
    RankComparison,
    compare_rankings,
    epsilon_sweep,
    head_tail_stability,
    runtime_compare,
    synth_generate,
)
from .mi import (
    FoldSpec,
    binary_rank,
    calc_mi,
    calc_single_mi,
    direction,
    flip,
    nfold,
    rank,
    rank_records,
)
from .model import (
    AggregateTable,
    Direction,
    PrivacyConfig,
    ProbabilityTriple,
    RankedResult,
    Record,
    Rejection,
    validate_record,
)

__version__ = "0.1.0"

__all__ = [
    "Accumulator",
    "AggregateTable",
    "BudgetAccountant",
    "BudgetExceededError",
    "CellRng",
    "CensoringPolicy",
    "Direction",
    "FoldSpec",
    "PrivacyConfig",
    "ProbabilityTriple",
    "RankComparison",
    "RankedResult",
    "Record",
    "Rejection",
    "accumulate",
    "binary_rank",
    "bound_contributions",
    "build_probability_tables",
    "calc_mi",
    "calc_single_mi",
    "censor_threshold",
    "clamp",
    "compare_rankings",
    "direction",
    "epsilon_sweep",
    "flip",
    "head_tail_stability",
    "laplace_noise",
    "nfold",
    "rank",
    "rank_records",
    "release_aggregate_table",
    "release_sums",
    "runtime_compare",
    "synth_generate",
    "validate_record",
]
