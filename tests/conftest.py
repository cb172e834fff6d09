import dataclasses
from pathlib import Path

import numpy as np
import pytest

from codedseq.harness import ExperimentConfig, make_preset, parse_config_file, run_experiment

WIDE8_INI = Path(__file__).resolve().parents[1] / "bench" / "inputs" / "wide8.ini"

# Experiments whose seed-3 traces several tests read: name -> (config, replications).
SEED3_EXPERIMENTS = {
    "example1": (lambda: make_preset("example1"), 2),
    "wide8": (lambda: parse_config_file(WIDE8_INI), 1),
    "wide8-charged": (lambda: dataclasses.replace(parse_config_file(WIDE8_INI),
                                                  charge_second_round=True), 1),
    "designed-150x5000": (lambda: ExperimentConfig(
        label="wide", n=40, rows=150, cols=5000, rank=150, phases=((10, 3), (150, 4)),
        configuration=(0, 0, 10, 140), baseline_iterations=5), 1),
    "gaussian": (lambda: ExperimentConfig(
        label="gaussian", rows=20, cols=60, rank=20, gamma=1.0, source="gaussian",
        phases=((8, 20), (20, 60)), configuration=(0, 4, 0, 16), baseline_iterations=80), 1),
    "deterministic": (lambda: ExperimentConfig(
        label="deterministic", latency_kind="deterministic", latency_value=0.75,
        phases=((6, 20), (38, 60)), configuration=(0, 0, 6, 32), baseline_iterations=80), 1),
}


def spectral_norm_power(M, seed=0, iters=20000, tol=1e-14):
    """Largest singular value by power iteration on M^T M.

    Independent of any SVD routine; used as the oracle for truncation-error
    checks.
    """
    M = np.asarray(M, dtype=float)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(iters):
        w = M.T @ (M @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        est = np.sqrt(norm)
        if abs(est - last) <= tol * max(est, 1.0):
            return float(np.linalg.norm(M @ v))
        last = est
    return float(np.linalg.norm(M @ v))


def truncated_dense(svd, rank):
    """The dense rank-``rank`` truncation U_r diag(sigma_r) V_r^T of SVD factors."""
    return svd.U[:, :rank] @ (svd.sigma[:rank, None] * svd.V[:, :rank].T)


@pytest.fixture(scope="session")
def seed3_trace(tmp_path_factory):
    """A function giving (config, replications, trace path, summary) of the
    named SEED3_EXPERIMENTS entry, run once per session at seed 3."""
    made = {}

    def trace(name):
        if name not in made:
            make_config, replications = SEED3_EXPERIMENTS[name]
            config = make_config()
            path = tmp_path_factory.mktemp(name) / "trace.csv"
            summary = run_experiment(config, seed=3, replications=replications, output=path)
            made[name] = config, replications, path, summary
        return made[name]

    return trace
