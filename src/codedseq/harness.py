"""Experiment harness: configuration, presets, trace persistence, summaries."""
from __future__ import annotations

import configparser
import csv
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .cluster import LatencyModel, SeededRng
from .feasibility import Configuration, feasible_configs
from .problems import designed_problem, gaussian_problem
from .solver import (
    ApproxSchedule,
    LassoProblem,
    RunTrace,
    SvdFactors,
    baseline_schedule,
    reference_solution,
    run_baseline,
    run_sequential,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentSummary",
    "TRACE_HEADER",
    "make_preset",
    "parse_config_file",
    "resolve_configuration",
    "run_experiment",
    "summarize_trace_file",
    "write_trace_csv",
    "read_trace_csv",
]

TRACE_HEADER = (
    "run_id,algorithm,iteration,phase,iter_time,cum_time,objective,suboptimality"
)

PRESET_NAMES = ("example1", "example2")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment (cluster, problem, schedule)."""

    label: str
    L: int = 4
    n: int = 10
    latency_kind: str = "exponential"
    latency_rate: float = 1.0
    latency_value: float = 1.0
    latency_shift: float = 0.0
    rows: int = 38
    cols: int = 500
    rank: int = 38
    gamma: float = 5.0
    source: str = "designed"
    source_path: str | None = None
    phases: tuple[tuple[int, int], ...] = ()
    configuration: tuple[int, ...] | None = None
    baseline_iterations: int = 500
    charge_second_round: bool = False
    summary_threshold: float = 1e-3

    def latency_model(self) -> LatencyModel:
        return LatencyModel(
            kind=self.latency_kind,
            rate=self.latency_rate,
            value=self.latency_value,
            shift=self.latency_shift,
        )


def make_preset(name: str) -> ExperimentConfig:
    """The two reference experiments, parameters fixed."""
    if name == "example1":
        return ExperimentConfig(
            label="example1",
            phases=((6, 30), (38, 400)),
            configuration=(0, 0, 6, 32),
            summary_threshold=1e-3,
        )
    if name == "example2":
        return ExperimentConfig(
            label="example2",
            phases=((5, 30), (15, 120)),
            configuration=(5, 10, 0, 0),
            summary_threshold=0.2,
        )
    raise ValueError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")


def resolve_configuration(config: ExperimentConfig) -> Configuration:
    """The explicit level counts, or an automatic feasible pick for 'auto'.

    Automatic selection takes the lexicographically first nondecreasing
    assignment of responder counts to the phase ranks that some feasible
    configuration supports, then the lexicographically first such k.
    """
    if config.configuration is not None:
        return Configuration(L=config.L, n=config.n, k=config.configuration)

    L, ranks = config.L, [rank for rank, _ in config.phases]

    def first_fit(ells: list[int]) -> list[Configuration]:
        # sorted by rank, so phases sharing an ell keep the largest rank
        targets = {ell: rank for rank, ell in sorted(zip(ranks, ells))}
        return feasible_configs(L, config.n, targets, limit=1)

    ells = [L] * len(ranks)
    if not first_fit(ells):
        raise ValueError(f"no feasible configuration supports phase ranks "
                         f"{ranks} on (L={L}, n={config.n})")
    # Giving a phase more responders only moves its target to a later level,
    # so feasibility never gets harder as an ell grows: fixing each phase's
    # smallest workable ell in turn, later phases still at L, yields the
    # lexicographically first feasible assignment.
    for idx in range(len(ranks)):
        ells[idx] = next(
            e for e in range(ells[idx - 1] if idx else 1, L + 1)
            if first_fit(ells[:idx] + [e] + ells[idx + 1:])
        )
    return first_fit(ells)[0]


def validate_experiment(config: ExperimentConfig) -> ApproxSchedule:
    """Resolve and validate everything the run depends on; returns the schedule."""
    if config.label in PRESET_NAMES and config != make_preset(config.label):
        raise ValueError(
            f"label {config.label!r} is reserved for the fixed preset; "
            "custom parameters must use a different label"
        )
    if config.source not in ("designed", "gaussian", "file"):
        raise ValueError(f"unknown problem source {config.source!r}")
    if config.source == "file":
        if not config.source_path:
            raise ValueError("source 'file' needs source_path")
        F, b = _load_source(config.source_path)
        if F.shape != (config.rows, config.cols) or b.shape != (config.rows,):
            raise ValueError(
                f"source_path holds F {F.shape} and b {b.shape}, the config "
                f"needs F ({config.rows}, {config.cols}) and b ({config.rows},)"
            )
    if not config.phases:
        raise ValueError("schedule needs at least one phase")
    if config.rank > min(config.rows, config.cols):
        raise ValueError(
            f"rank {config.rank} exceeds min(rows, cols) = "
            f"{min(config.rows, config.cols)}"
        )
    if max(rank for rank, _ in config.phases) > config.rank:
        raise ValueError("phase ranks exceed the problem rank")
    config.latency_model()
    cfg = resolve_configuration(config)
    schedule = ApproxSchedule.build(cfg, config.phases)
    # run_baseline builds the same schedule, but only after a replication's set-up
    baseline_schedule(config.L, config.n, config.rank, config.baseline_iterations)
    return schedule


def _load_source(path: str) -> tuple[np.ndarray, np.ndarray]:
    """F and b from an .npz archive; any defect raises ValueError."""
    try:
        with np.load(path) as data:  # a lone .npy array is no context manager
            return data["F"], data["b"]
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise ValueError(f"cannot read F and b from source_path {path!r}: {exc}") from exc


def _build_problem(config: ExperimentConfig, rng: SeededRng) -> LassoProblem:
    if config.source == "designed":
        return designed_problem(
            rng, rows=config.rows, cols=config.cols, gamma=config.gamma
        ).problem
    if config.source == "gaussian":
        return gaussian_problem(
            rng, rows=config.rows, cols=config.cols, gamma=config.gamma
        )
    F, b = _load_source(config.source_path)
    return LassoProblem(F=F, b=b, gamma=config.gamma)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def trace_rows(run_id: str, algorithm: str, trace: RunTrace) -> list[list[str]]:
    columns = zip(trace.phase.tolist(), trace.iter_time.tolist(), trace.cum_time.tolist(),
                  trace.objective.tolist(), trace.suboptimality.tolist())
    return [[run_id, algorithm, str(k), str(phase), *map(_fmt, values)]
            for k, (phase, *values) in enumerate(columns, start=1)]


def write_trace_csv(path: "str | Path", rows: Iterable[list[str]]) -> None:
    """Atomic write: full temp file then rename."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            csv.writer(fh, lineterminator="\n").writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_trace_csv(path: "str | Path") -> list[dict[str, object]]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != TRACE_HEADER.split(","):
            raise ValueError(f"unexpected trace header {reader.fieldnames}")
        for row in reader:
            out.append(
                {
                    "run_id": row["run_id"],
                    "algorithm": row["algorithm"],
                    "iteration": int(row["iteration"]),
                    "phase": int(row["phase"]),
                    "iter_time": float(row["iter_time"]),
                    "cum_time": float(row["cum_time"]),
                    "objective": float(row["objective"]),
                    "suboptimality": float(row["suboptimality"]),
                }
            )
    return out


@dataclass(frozen=True)
class ExperimentSummary:
    """Replication-mean statistics, recomputed from the written trace file."""

    label: str
    replications: int
    threshold: float
    reached_sequential: int
    reached_baseline: int
    mean_time_sequential: float
    mean_time_baseline: float
    mean_final_suboptimality: float
    mean_final_suboptimality_baseline: float

    @property
    def speedup(self) -> float:
        return self.mean_time_baseline / self.mean_time_sequential

    @property
    def time_saving(self) -> float:
        return 1.0 - self.mean_time_sequential / self.mean_time_baseline

    def lines(self) -> list[str]:
        # a mean time is nan when no replication of that algorithm reached it
        times = ["n/a" if np.isnan(t) else f"{t:.4f}"
                 for t in (self.mean_time_sequential, self.mean_time_baseline)]
        speedup = "not reached"
        if self.reached_sequential and self.reached_baseline:
            speedup = "n/a"  # a zero mean time leaves the ratio undefined
            if self.mean_time_sequential and self.mean_time_baseline:
                speedup = f"{self.speedup:.3f}x  (time saving {self.time_saving:.1%})"
        return [
            f"experiment {self.label}: {self.replications} replications",
            f"  threshold suboptimality: {self.threshold:g}",
            f"  sequential: reached {self.reached_sequential}/{self.replications}, "
            f"mean time {times[0]}",
            f"  baseline:   reached {self.reached_baseline}/{self.replications}, "
            f"mean time {times[1]}",
            f"  speedup: {speedup}",
            f"  mean final suboptimality: sequential "
            f"{self.mean_final_suboptimality:.6g}, baseline "
            f"{self.mean_final_suboptimality_baseline:.6g}",
        ]


def summarize_trace_file(
    path: "str | Path", label: str, threshold: float
) -> ExperimentSummary:
    """Aggregate a trace file into replication means (no hidden state)."""
    rows = read_trace_csv(path)
    runs: dict[str, list[dict[str, object]]] = {}
    for row in rows:
        runs.setdefault(str(row["run_id"]), []).append(row)

    times = {"sequential": [], "baseline": []}
    finals = {"sequential": [], "baseline": []}
    for run_rows in runs.values():
        run_rows.sort(key=lambda r: r["iteration"])
        alg = str(run_rows[0]["algorithm"])
        hit = next(
            (r["cum_time"] for r in run_rows if r["suboptimality"] <= threshold),
            None,
        )
        times[alg].append(hit)
        finals[alg].append(run_rows[-1]["suboptimality"])

    n_rep = len(times["sequential"])
    reached_seq = [t for t in times["sequential"] if t is not None]
    reached_base = [t for t in times["baseline"] if t is not None]
    return ExperimentSummary(
        label=label,
        replications=n_rep,
        threshold=threshold,
        reached_sequential=len(reached_seq),
        reached_baseline=len(reached_base),
        mean_time_sequential=float(np.mean(reached_seq)) if reached_seq else float("nan"),
        mean_time_baseline=float(np.mean(reached_base)) if reached_base else float("nan"),
        mean_final_suboptimality=float(np.mean(finals["sequential"])),
        mean_final_suboptimality_baseline=float(np.mean(finals["baseline"])),
    )


def run_experiment(
    config: ExperimentConfig,
    seed: int,
    replications: int,
    output: "str | Path",
) -> ExperimentSummary:
    """Paired sequential-vs-baseline replications; traces to CSV, then summary.

    Each replication draws one problem instance and runs both algorithms on
    it with distinct derived latency streams (variance reduction for the
    speedup estimate).  The summary is recomputed from the written file.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    schedule_template = validate_experiment(config)
    model = config.latency_model()
    root = SeededRng(seed)

    all_rows: list[list[str]] = []
    for rep in range(replications):
        problem = _build_problem(config, root.spawn(rep, 0))
        svd = SvdFactors.from_matrix(problem.F)
        if svd.rank != config.rank:
            raise RuntimeError(
                f"replication {rep}: problem rank {svd.rank} != {config.rank}"
            )
        x_star, _ = reference_solution(problem, svd=svd)
        base = run_baseline(
            problem, config.L, config.n, model, root.spawn(rep, 2),
            config.baseline_iterations, svd=svd, x_star=x_star,
        )
        seq = run_sequential(
            problem, schedule_template, model, root.spawn(rep, 1),
            svd=svd, x_star=x_star,
            charge_second_round=config.charge_second_round,
        )
        run_tag = f"{config.label}-r{rep:03d}"
        all_rows.extend(trace_rows(f"{run_tag}-base", "baseline", base))
        all_rows.extend(trace_rows(f"{run_tag}-seq", "sequential", seq))

    write_trace_csv(output, all_rows)
    return summarize_trace_file(output, config.label, config.summary_threshold)


def parse_config_file(path: "str | Path") -> ExperimentConfig:
    """Read an INI experiment description; any defect raises ValueError."""
    try:
        return _read_config(path)
    except KeyError as exc:
        raise ValueError(f"config file missing section or key {exc}") from exc
    except configparser.Error as exc:
        raise ValueError(f"malformed config file: {exc}") from exc


def _read_config(path: "str | Path") -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if not parser.read(path):
        raise ValueError(f"cannot read config file {path}")
    known = {
        "cluster": {"l", "n"},
        "latency": {"kind", "rate", "value", "shift"},
        "problem": {"rows", "cols", "rank", "gamma", "source", "source_path"},
        "schedule": {"phases", "baseline_iterations", "charge_second_round"},
        "configuration": {"k"},
        "summary": {"threshold"},
    }
    if parser.defaults():  # its keys would show up in every section
        raise ValueError(f"unknown section [{parser.default_section}]")
    for name in parser.sections():
        if name not in known:
            raise ValueError(f"unknown section [{name}]")
        unknown = sorted(set(parser[name]) - known[name])  # keys are lower-cased
        if unknown:
            raise ValueError(f"unknown key {', '.join(unknown)} in [{name}]")
    sections = ("cluster", "latency", "problem", "schedule", "configuration")
    cluster, latency, problem, schedule, configuration = (parser[s] for s in sections)

    phases = []
    for item in schedule["phases"].split(","):
        rank_s, iters_s = item.strip().split(":")
        phases.append((int(rank_s), int(iters_s)))

    k_raw = configuration["k"].strip()
    if k_raw == "auto":
        k = None
    else:
        k = tuple(int(v) for v in k_raw.split(","))

    default = ExperimentConfig(label="custom")
    return ExperimentConfig(
        label="custom",
        L=int(cluster["L"]),
        n=int(cluster["n"]),
        latency_kind=latency.get("kind", default.latency_kind),
        latency_rate=latency.getfloat("rate", default.latency_rate),
        latency_value=latency.getfloat("value", default.latency_value),
        latency_shift=latency.getfloat("shift", default.latency_shift),
        rows=problem.getint("rows", default.rows),
        cols=problem.getint("cols", default.cols),
        rank=problem.getint("rank", default.rank),
        gamma=problem.getfloat("gamma", default.gamma),
        source=problem.get("source", default.source),
        source_path=problem.get("source_path", default.source_path),
        phases=tuple(phases),
        configuration=k,
        baseline_iterations=schedule.getint(
            "baseline_iterations", default.baseline_iterations),
        charge_second_round=schedule.getboolean(
            "charge_second_round", default.charge_second_round),
        summary_threshold=parser.getfloat(
            "summary", "threshold", fallback=default.summary_threshold),
    )
