"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``); the
assertion carries the same verdict into the pytest result.
"""
import subprocess
import sys
from itertools import combinations

import numpy as np

from conftest import spectral_norm_power

from codedseq.cluster import LatencyModel, SeededRng, order_stat_mean, sample_round
from codedseq.codec import decode_prefix, encode_all, worker_multiply
from codedseq.feasibility import (
    Configuration,
    check_feasible,
    min_rows_oracle,
    row_count_s,
)
from codedseq.harness import make_preset, read_trace_csv, run_experiment
from codedseq.problems import designed_problem
from codedseq.solver import (
    SvdFactors,
    baseline_schedule,
    reference_solution,
    run_sequential,
    soft_threshold,
    truncate_svd,
)


def check(criterion: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    print(f"[acceptance] {criterion}: {status}  {detail}")
    assert condition, f"{criterion}: {detail}"


def minimal_n(k: tuple[int, ...]) -> int:
    L = len(k)
    total = sum(row_count_s(i, k_i, L) for i, k_i in enumerate(k, start=1))
    return max(1, -(-total // L))


def roundtrip_error(cfg: Configuration, m: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((sum(cfg.k), m))
    workers = encode_all(A, cfg)
    z = rng.standard_normal(m)
    results = [worker_multiply(w, z) for w in workers]
    h = (0, *cfg.cumulative_ranks())
    worst = 0.0
    for ell in range(1, cfg.L + 1):
        for subset in combinations(range(cfg.L), ell):
            decoded = decode_prefix([results[i] for i in subset], cfg)
            for a, b in zip(h, h[1 : ell + 1]):
                block, truth = decoded[a:b], A[a:b] @ z
                if truth.size:
                    err = np.abs(block - truth).max() / max(1.0, np.abs(truth).max())
                    worst = max(worst, float(err))
    return worst


def test_criterion_1_coding_roundtrip():
    """Round-trip over feasible configurations, every worker subset, m=10.

    Exhaustive in k for L <= 3 (k_i <= 8); seeded 70-configuration samples
    plus corner cases for L in {4, 5} keep the sweep within seconds.
    """
    worst = 0.0
    n_checked = 0
    for L in (1, 2, 3):
        for k in np.ndindex(*([9] * L)):
            cfg = Configuration(L=L, n=minimal_n(tuple(k)), k=tuple(k))
            worst = max(worst, roundtrip_error(cfg, m=10, seed=n_checked))
            n_checked += 1
    rng = np.random.default_rng(2024)
    for L in (4, 5):
        corner = [
            (8,) * L,
            (0,) * (L - 1) + (8,),
            (8,) + (0,) * (L - 1),
            tuple(range(1, L + 1)),
        ]
        sampled = [tuple(int(v) for v in rng.integers(0, 9, size=L))
                   for _ in range(70)]
        for k in corner + sampled:
            cfg = Configuration(L=L, n=minimal_n(k), k=k)
            worst = max(worst, roundtrip_error(cfg, m=10, seed=n_checked))
            n_checked += 1
    check(
        "criterion 1 (coding round-trip)",
        worst <= 1e-8,
        f"{n_checked} configurations, max relative error {worst:.2e}",
    )


def test_criterion_2_formula_oracle_consistency():
    """row_count_s == min_rows_oracle exhaustively for L <= 5, k <= 12."""
    mismatches = []
    n_checked = 0
    for L in range(1, 6):
        for i in range(1, L + 1):
            for k_i in range(0, 13):
                n_checked += 1
                if row_count_s(i, k_i, L) != min_rows_oracle(L, i, k_i):
                    mismatches.append((L, i, k_i))
    check(
        "criterion 2 (formula vs brute-force oracle)",
        not mismatches,
        f"{n_checked} cases exhaustive, mismatches: {mismatches}",
    )


def test_criterion_3_reference_configurations_tight():
    budgets = {
        (4, 3, (0, 3, 3, 1)): 12,
        (4, 10, (0, 0, 6, 32)): 40,
        (4, 10, (5, 10, 0, 0)): 40,
    }
    ok = True
    details = []
    for (L, n, k), expected in budgets.items():
        budget = check_feasible(Configuration(L=L, n=n, k=k))
        good = budget.feasible and budget.total == expected == budget.capacity
        ok = ok and good
        details.append(f"{k}: {budget.total}/{budget.capacity}")
    check("criterion 3 (reference configurations tight)", ok, "; ".join(details))


def test_criterion_4_order_statistic_means():
    model = LatencyModel.exponential(1.0)
    analytic = [order_stat_mean(model, 4, ell) for ell in range(1, 5)]
    two_dp_ok = [round(v, 2) for v in analytic] == [0.25, 0.58, 1.08, 2.08]

    n = 100_000
    root = SeededRng(777)
    samples = np.empty((n, 4))
    for r in range(n):
        samples[r] = np.sort(sample_round(model, 4, root.spawn(r)))
    mc_ok = True
    details = [f"analytic {np.round(analytic, 4).tolist()}"]
    for ell in range(1, 5):
        col = samples[:, ell - 1]
        stderr = col.std(ddof=1) / np.sqrt(n)
        gap = abs(col.mean() - analytic[ell - 1])
        mc_ok = mc_ok and gap <= 3 * stderr
        details.append(f"ell={ell}: |gap|={gap:.2e} vs 3SE={3 * stderr:.2e}")
    check(
        "criterion 4 (order-statistic means)",
        two_dp_ok and mc_ok,
        "; ".join(details),
    )


def test_criterion_5_example1_speedup(tmp_path):
    summary = run_experiment(
        make_preset("example1"), seed=2024, replications=50,
        output=tmp_path / "example1.csv",
    )
    reached = (
        summary.reached_sequential == 50 and summary.reached_baseline == 50
    )
    saving = summary.time_saving
    check(
        "criterion 5 (example 1 speedup to 1e-3)",
        reached and saving >= 0.15,
        f"reached {summary.reached_sequential}/{summary.reached_baseline} of 50, "
        f"mean times seq {summary.mean_time_sequential:.2f} vs base "
        f"{summary.mean_time_baseline:.2f}, saving {saving:.1%} (need >= 15%)",
    )


def test_criterion_6_example2_plateau_and_speedup(tmp_path):
    out = tmp_path / "example2.csv"
    summary = run_experiment(
        make_preset("example2"), seed=2024, replications=50, output=out
    )
    finals = {}
    plateau_flat = True
    for row in read_trace_csv(out):
        if row["algorithm"] == "sequential":
            finals.setdefault(row["run_id"], []).append(
                (row["iteration"], row["suboptimality"])
            )
    final_values = []
    for recs in finals.values():
        recs.sort()
        tail = [s for _, s in recs[-30:]]
        final_values.append(recs[-1][1])
        if max(tail) - min(tail) > 0.1 * max(tail):
            plateau_flat = False
    in_window = all(0.02 <= v <= 0.2 for v in final_values)
    speedup = summary.speedup
    check(
        "criterion 6 (example 2 plateau and speedup to 0.2)",
        in_window and plateau_flat and speedup >= 1.5
        and summary.reached_sequential == 50,
        f"final suboptimality in [{min(final_values):.4f}, {max(final_values):.4f}]"
        f" (need [0.02, 0.2]), speedup {speedup:.2f}x (need >= 1.5)",
    )


def test_criterion_7_solver_fidelity():
    designed = designed_problem(SeededRng(99))
    problem = designed.problem
    svd = SvdFactors.from_matrix(problem.F)
    x_star, residual = reference_solution(problem)

    # full-rank sequential run, all workers, fixed latency, vs in-memory ISTA
    schedule = baseline_schedule(4, 10, svd.rank, 200)
    trace = run_sequential(
        problem, schedule, LatencyModel.deterministic(1.0), 0,
        svd=svd, x_star=x_star, keep_iterates=True,
    )
    t = 1.0 / svd.sigma[0] ** 2
    h = problem.F.T @ problem.b
    x = np.zeros(problem.cols)
    max_gap = 0.0
    for got in trace.iterates:
        x = soft_threshold(
            x - t * (problem.F.T @ (problem.F @ x) - h), t * problem.gamma
        )
        gap = np.linalg.norm(got - x) / max(1.0, np.linalg.norm(x))
        max_gap = max(max_gap, float(gap))

    # per-phase objective descent on a two-phase run
    preset = make_preset("example1")
    cfg = Configuration(L=4, n=10, k=preset.configuration)
    from codedseq.solver import ApproxSchedule

    sched2 = ApproxSchedule.build(cfg, preset.phases)
    trace2 = run_sequential(
        problem, sched2, LatencyModel.exponential(1.0), 1,
        svd=svd, x_star=x_star, keep_iterates=True,
    )
    monotone = True
    for idx, phase in enumerate(sched2.phases, start=1):
        Fr = truncate_svd(svd, phase.rank).dense()
        vals = [
            0.5 * np.sum((Fr @ xk - problem.b) ** 2) + problem.gamma * np.abs(xk).sum()
            for xk in trace2.iterates[trace2.phase == idx]
        ]
        for a, b in zip(vals, vals[1:]):
            if b > a + 1e-9 * max(1.0, abs(a)):
                monotone = False
    check(
        "criterion 7 (solver fidelity)",
        max_gap <= 1e-8 and monotone and residual <= 1e-10,
        f"max iterate gap {max_gap:.2e} over 200 iterations (need <= 1e-8), "
        f"phase objectives monotone: {monotone}, reference residual "
        f"{residual:.2e} (need <= 1e-10)",
    )


def test_criterion_8_eckart_young():
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((20, 40))
        svd = SvdFactors.from_matrix(F)
        for r in range(1, svd.rank):
            E = F - truncate_svd(svd, r).dense()
            gap = abs(spectral_norm_power(E, seed=r) - svd.sigma[r])
            worst = max(worst, float(gap))
        full_err = np.abs(F - truncate_svd(svd, svd.rank).dense()).max()
        worst = max(worst, float(full_err))
    check(
        "criterion 8 (truncation error equals next singular value)",
        worst <= 1e-8,
        f"max |power-iteration norm - sigma_(r+1)| = {worst:.2e} over 3 matrices",
    )


CUSTOM_INI = """\
[cluster]
L = 4
n = 10

[latency]
kind = exponential
rate = 1.0

[problem]
rows = 38
cols = 500
rank = 38
gamma = 5.0
source = designed

[schedule]
phases = 6:10, 38:40
baseline_iterations = 50

[configuration]
k = 0,0,6,32
"""


def test_criterion_9_process_level_determinism(tmp_path):
    cfg_path = tmp_path / "custom.ini"
    cfg_path.write_text(CUSTOM_INI)
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "codedseq.cli", "experiment", "custom",
                "--config", str(cfg_path), "--seed", "31415",
                "--replications", "2", "--output", str(out),
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    check(
        "criterion 9 (byte-identical traces across processes)",
        outputs[0] == outputs[1] and len(outputs[0]) > 0,
        f"{len(outputs[0])} bytes per trace file",
    )
