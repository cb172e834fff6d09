"""Trace-equivalence oracle: the library's solver engine against a reference
copy of the per-round loop.

``reference_run`` is the loop ``run_sequential`` runs one round at a time:
draw one round of worker finish times, multiply the responders' coded rows,
decode them with the layout's decode matrix, complete the product user-side
and take one ISTA step.  Any engine must give the same trace on the same
seed: run ids, phases, iterations and simulated times bit for bit, and
objective, suboptimality and iterates within the bounds below, which leave
room for rounding-level changes in how the products are formed.
"""
import math

import numpy as np
import pytest

from conftest import SEED3_EXPERIMENTS

from codedseq.cluster import SeededRng
from codedseq.codec import encode_all, make_layout, support_product
from codedseq.harness import read_trace_csv, validate_experiment
from codedseq.solver import SvdFactors, reference_solution, run_sequential

OBJECTIVE_RTOL = 1e-14
SUBOPTIMALITY_ATOL = 1e-12
ITERATE_ATOL = 1e-12


def reference_wait(model, L, ell, rng):
    """One round of L worker finish times: T_(ell) and the sorted ids of the
    ell fastest workers, ties to the lower id."""
    if model.kind == "deterministic":
        times = np.full(L, model.value)
    else:
        times = -np.log(1.0 - rng.generator.random(L)) / model.rate
        if model.kind == "shifted-exponential":
            times = times + model.shift
    order = times.argsort(kind="stable")
    return float(times[order[ell - 1]]), tuple(sorted(int(w) + 1 for w in order[:ell]))


def reference_round(x, phase, cfg, workers, svd, model, rng):
    """One coded round: (H_(r) x, T_(ell)) from the ell fastest workers."""
    elapsed, responders = reference_wait(model, cfg.L, phase.ell, rng)
    y = np.concatenate([support_product(workers[w - 1].rows, x) for w in responders])
    t = make_layout(cfg).decoder(responders).dot(y)
    r = phase.rank
    return svd.V[:, :r].dot(svd.sigma[:r] ** 2 * t[:r]), elapsed


def reference_run(problem, schedule, model, rng, svd, x_star, charge_second_round):
    """One row (phase, iter_time, cum_time, objective, suboptimality, iterate)
    per iteration; phase p draws its rounds on rng.spawn(p, 0) and its
    transpose rounds on rng.spawn(p, 1)."""
    cfg = schedule.config
    workers = encode_all(svd.V[:, : sum(cfg.k)].T, cfg)
    x_norm = float(np.linalg.norm(x_star))
    denom = x_norm if x_norm > 0 else 1.0
    step = 1.0 / float(svd.sigma[0] ** 2)
    theta = step * problem.gamma
    x = np.zeros(problem.cols)
    rows, now = [], 0.0
    for p, phase in enumerate(schedule.phases, start=1):
        offset = svd.gradient_offset(problem.b, phase.rank)
        clock, second_clock = rng.spawn(p, 0), rng.spawn(p, 1)
        for _ in range(phase.iterations):
            g, elapsed = reference_round(x, phase, cfg, workers, svd, model, clock)
            if charge_second_round:
                elapsed += reference_wait(model, cfg.L, phase.ell, second_clock)[0]
            v = x - step * (g - offset)
            x = np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)
            residual = support_product(problem.F, x) - problem.b
            objective = (0.5 * float(residual.dot(residual))
                         + problem.gamma * float(np.abs(x).sum()))
            d = x - x_star
            now += elapsed
            rows.append((p, elapsed, now, objective, math.sqrt(d.dot(d)) / denom, x))
    return rows


def reference_experiment(config, seed, replications):
    """The trace rows of run_experiment from the reference engine, and the
    run_sequential arguments and the iterates of replication 0's sequential
    run."""
    schedule, baseline, draw = validate_experiment(config)
    model = config.latency
    root = SeededRng(seed)
    trace = []
    for rep in range(replications):
        problem = draw(root.spawn(rep, 0))
        svd = SvdFactors.from_matrix(problem.F)
        x_star, _ = reference_solution(problem, svd=svd)
        tag = f"{config.label}-r{rep:03d}"
        for run_id, algorithm, sched, key, charge in (
            (f"{tag}-base", "baseline", baseline, 2, False),
            (f"{tag}-seq", "sequential", schedule, 1, config.charge_second_round),
        ):
            rows = reference_run(problem, sched, model, root.spawn(rep, key), svd, x_star,
                                 charge)
            trace += [(run_id, algorithm, k, *row[:5]) for k, row in enumerate(rows, start=1)]
            if rep == 0 and algorithm == "sequential":
                first = ((problem, sched, model, root.spawn(rep, key)),
                         dict(svd=svd, x_star=x_star, charge_second_round=charge),
                         np.array([row[5] for row in rows]))
    return trace, first


@pytest.mark.parametrize("name", SEED3_EXPERIMENTS)
def test_library_engine_matches_reference(seed3_trace, name):
    config, replications, out, _ = seed3_trace(name)
    got = read_trace_csv(out)
    want, (args, options, iterates) = reference_experiment(config, 3, replications)

    exact = ("run_id", "algorithm", "iteration", "phase", "iter_time", "cum_time")
    assert [tuple(row[column] for column in exact) for row in got] == [row[:6] for row in want]
    objective = np.array([row["objective"] for row in got])
    want_objective = np.array([row[6] for row in want])
    assert np.all(np.abs(objective - want_objective) <= OBJECTIVE_RTOL * np.abs(want_objective))
    suboptimality = np.array([row["suboptimality"] for row in got])
    assert np.all(np.abs(suboptimality - np.array([row[7] for row in want]))
                  <= SUBOPTIMALITY_ATOL)

    kept = run_sequential(*args, keep_iterates=True, **options)
    assert kept.iterates.shape == iterates.shape
    assert np.abs(kept.iterates - iterates).max() <= ITERATE_ATOL
