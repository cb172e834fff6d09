"""Coded sequential distributed matrix-vector multiplication toolkit.

Encodes prioritised row blocks with real-valued systematic MDS codes so that
any ell of L workers determine the first ell blocks, simulates straggler
latencies, and drives a sequential-approximation proximal-gradient lasso
solver whose early phases use low-rank truncations served by fewer workers.
"""
from .cluster import LatencyModel, SeededRng, order_stat_mean, sample_round, simulate_wait
from .codec import (
    InfeasibleConfiguration,
    InsufficientResults,
    PackingFailure,
    RowTag,
    SystematicGenerator,
    WorkerMatrix,
    WorkerResult,
    decode_prefix,
    encode_all,
    make_generator,
    worker_multiply,
)
from .feasibility import (
    Configuration,
    RowBudget,
    check_feasible,
    feasible_configs,
    min_rows_oracle,
    row_count_s,
)
from .harness import (
    ExperimentConfig,
    ExperimentSummary,
    make_preset,
    parse_config_file,
    run_experiment,
)
from .problems import DesignedProblem, designed_problem, gaussian_problem
from .solver import (
    ApproxSchedule,
    CodedMatvecSystem,
    LassoProblem,
    Phase,
    RunTrace,
    SvdFactors,
    optimality_residual,
    reference_solution,
    run_baseline,
    run_sequential,
    sequential_matvec,
    soft_threshold,
    truncate_svd,
)

__version__ = "0.1.0"
