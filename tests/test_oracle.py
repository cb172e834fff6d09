"""Trace-equivalence oracle: the library's solver engine against a reference
copy of the per-round loop.

``reference_run`` is the loop ``run_sequential`` runs one round at a time:
draw one round of worker finish times, multiply the responders' coded rows,
decode them with the layout's decode matrix, complete the product user-side
and take one ISTA step.  Any engine must give the same trace on the same
seed: run ids, phases, iterations and simulated times bit for bit, and
objective, suboptimality and iterates within the bounds below, which leave
room for rounding-level changes in how the products are formed.

The reference keeps its own coder, the identity-over-Cauchy generator and
the decode-matrix assembly, so a change to the library's code cannot move
the reference along with it.  It reads only the layout's geometry from
``make_layout``: its blocks, their homes and slots, and its starts and
offsets.
"""
import math
from functools import lru_cache

import numpy as np
import pytest

from conftest import SEED3_EXPERIMENTS

from codedseq.cluster import SeededRng
from codedseq.codec import make_layout, support_product
from codedseq.harness import read_trace_csv, validate_experiment
from codedseq.solver import SvdFactors, reference_solution, run_sequential

OBJECTIVE_RTOL = 1e-14
SUBOPTIMALITY_ATOL = 1e-12
ITERATE_ATOL = 1e-12


def reference_generator(rows_in, rows_out):
    """rows_out x rows_in systematic MDS generator: the identity over the
    Cauchy block 1 / (r - c), r in rows_in..rows_out-1, c in 0..rows_in-1."""
    r = np.arange(rows_in, rows_out, dtype=float)[:, None]
    c = np.arange(rows_in, dtype=float)[None, :]
    return np.vstack([np.eye(rows_in), 1.0 / (r - c)])


def reference_encode(A, layout):
    """Each worker's coded rows: every block's generator times its source rows,
    coded row r stored as row slots[r] of worker homes[r] (0-based)."""
    starts = layout.starts
    W = np.empty((starts[-1], A.shape[1]))
    for blocks in layout.levels:
        for blk in blocks:
            W[[starts[w] + s for w, s in zip(blk.homes, blk.slots)]] = (
                reference_generator(blk.rows_in, blk.rows_out)
                @ A[blk.start : blk.start + blk.rows_in])
    return [W[starts[w] : starts[w + 1]] for w in range(len(starts) - 1)]


@lru_cache(maxsize=None)
def reference_decoder(layout, responders):
    """The matrix taking the ascending responders' concatenated outputs to the
    first offsets[ell] entries of A z: per block, the inverse of the generator
    rows of its lowest-indexed coded rows among the responders."""
    column, width = {}, 0  # worker index -> column of its first row
    for w in responders:
        column[w - 1] = width
        width += layout.starts[w] - layout.starts[w - 1]
    ell = len(responders)
    D = np.zeros((layout.offsets[ell], width))
    for blocks in layout.levels[:ell]:
        for blk in blocks:
            got = [(r, column[w] + s) for r, (w, s) in enumerate(zip(blk.homes, blk.slots))
                   if w in column]
            idx, cols = map(list, zip(*got[: blk.rows_in]))
            D[blk.start : blk.start + blk.rows_in, cols] = np.linalg.inv(
                reference_generator(blk.rows_in, blk.rows_out)[idx])
    return D


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
    y = np.concatenate([support_product(workers[w - 1], x) for w in responders])
    t = reference_decoder(make_layout(cfg), responders).dot(y)
    r = phase.rank
    return svd.V[:, :r].dot(svd.sigma[:r] ** 2 * t[:r]), elapsed


def reference_run(problem, schedule, model, rng, svd, x_star, charge_second_round):
    """One row (phase, iter_time, cum_time, objective, suboptimality, iterate)
    per iteration; phase p draws its rounds on rng.spawn(p, 0) and its
    transpose rounds on rng.spawn(p, 1)."""
    cfg = schedule.config
    workers = reference_encode(svd.V[:, : sum(cfg.k)].T, make_layout(cfg))
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
        problem, _, _ = draw(root.spawn(rep, 0))  # the factors and x* are ours
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
