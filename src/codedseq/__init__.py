"""Coded sequential distributed matrix-vector multiplication toolkit.

Encodes prioritised row blocks with real-valued systematic MDS codes so that
any ell of L workers determine the first ell blocks, simulates straggler
latencies, and drives a sequential-approximation proximal-gradient lasso
solver whose early phases use low-rank truncations served by fewer workers.
"""
import os as _os

# BLAS products round differently at different thread counts, so a trace's
# bytes would depend on the machine's core count.  Pin one thread unless the
# caller set a count; this holds only when codedseq is imported before numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
del _os, _var

from .cluster import LatencyModel, SeededRng, order_stat_mean, sample_round, simulate_wait
from .codec import (
    InfeasibleConfiguration,
    InsufficientResults,
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
    auto_configuration,
    check_feasible,
    first_feasible,
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
    run_sequential,
    sequential_matvec,
    soft_threshold,
)

__version__ = "0.1.0"
