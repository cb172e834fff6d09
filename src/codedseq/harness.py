"""Experiment harness: configuration, presets, trace persistence, summaries."""
from __future__ import annotations

import configparser
import csv
import os
import zipfile
from dataclasses import dataclass
from itertools import groupby, islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn

import numpy as np

from .cluster import LatencyModel, SeededRng
from .feasibility import Configuration, first_feasible
from .problems import HIDDEN_MODE, designed_problem, gaussian_problem
from .solver import (
    ApproxSchedule,
    LassoProblem,
    RunTrace,
    SvdFactors,
    baseline_schedule,
    reference_solution,
    run_sequential,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentSummary",
    "TRACE_COLUMNS",
    "TRACE_HEADER",
    "make_preset",
    "parse_config_file",
    "resolve_configuration",
    "run_experiment",
    "summarize_trace_file",
    "write_trace_csv",
    "read_trace_csv",
]

# The trace's columns in file order, each with the type its text parses as.
# The columns after ``iteration`` are the RunTrace attributes of the same name.
TRACE_COLUMNS: tuple[tuple[str, Callable[[str], object]], ...] = (
    ("run_id", str),
    ("algorithm", str),
    ("iteration", int),
    ("phase", int),
    ("iter_time", float),
    ("cum_time", float),
    ("objective", float),
    ("suboptimality", float),
)
_TRACE_NAMES = [name for name, _ in TRACE_COLUMNS]
TRACE_HEADER = ",".join(_TRACE_NAMES)

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

    L, n, ranks = config.L, config.n, [rank for rank, _ in config.phases]
    # Giving a phase more responders only moves its target to a later level,
    # so feasibility never gets harder as an ell grows: fixing each phase's
    # smallest workable ell in turn, later phases still at L, yields the
    # lexicographically first feasible assignment.
    ells = [L] * len(ranks)
    found = first_feasible(L, n, ())
    for idx in range(len(ranks)):
        for e in range(ells[idx - 1] if idx else 1, L + 1):
            ells[idx] = e
            found = first_feasible(L, n, zip(ells, ranks))
            if found is not None:
                break
        else:
            raise ValueError(f"no feasible configuration supports phase ranks "
                             f"{ranks} on (L={L}, n={n})")
    return found


def validate_experiment(
    config: ExperimentConfig,
) -> tuple[ApproxSchedule, ApproxSchedule, Callable[[SeededRng], LassoProblem]]:
    """Decide everything the run depends on before its first replication.

    Returns the sequential schedule, the baseline schedule and ``draw``, which
    gives one replication's problem from that replication's stream.  A file
    source is read here once and every draw returns it; a generated source
    looks its generator up by name at each draw.
    """
    if config.label in PRESET_NAMES and config != make_preset(config.label):
        raise ValueError(
            f"label {config.label!r} is reserved for the fixed preset; "
            "custom parameters must use a different label"
        )
    if not config.summary_threshold >= 0:  # suboptimality is >= 0; NaN fails too
        raise ValueError(
            f"[summary] threshold must be >= 0, got {config.summary_threshold}")
    # a file's rank is known only after its SVD, a designed F has rank rows
    # and a gaussian one full rank
    full_rank = min(config.rows, config.cols)
    shape = {"rows": config.rows, "cols": config.cols, "gamma": config.gamma}
    if config.source == "file":
        if not config.source_path:
            raise ValueError("source 'file' needs source_path")
        F, b = _load_source(config.source_path)
        if F.shape != (config.rows, config.cols) or b.shape != (config.rows,):
            raise ValueError(
                f"source_path holds F {F.shape} and b {b.shape}, the config "
                f"needs F ({config.rows}, {config.cols}) and b ({config.rows},)"
            )
        if config.rank > full_rank:
            raise ValueError(
                f"rank {config.rank} exceeds min(rows, cols) = {full_rank}"
            )
        problem = LassoProblem(F=F, b=b, gamma=config.gamma)

        def draw(rng: SeededRng) -> LassoProblem:
            return problem
    elif config.source == "designed":
        if config.rows > config.cols:
            raise ValueError(f"source 'designed' needs rows <= cols, "
                             f"got {config.rows} x {config.cols}")
        if config.rows < HIDDEN_MODE:
            raise ValueError(f"source 'designed' needs rows >= {HIDDEN_MODE}, "
                             f"got {config.rows}")

        def draw(rng: SeededRng) -> LassoProblem:
            return designed_problem(rng, **shape).problem
    elif config.source == "gaussian":

        def draw(rng: SeededRng) -> LassoProblem:
            return gaussian_problem(rng, **shape)
    else:
        raise ValueError(f"unknown problem source {config.source!r}")
    if config.source != "file" and config.rank != full_rank:
        raise ValueError(
            f"source {config.source!r} gives rank {full_rank}, "
            f"the config says {config.rank}"
        )
    config.latency_model()
    schedule = ApproxSchedule.build(resolve_configuration(config), config.phases)
    if schedule.phases[-1].rank > config.rank:  # phase ranks increase
        raise ValueError("phase ranks exceed the problem rank")
    baseline = baseline_schedule(
        config.L, config.n, config.rank, config.baseline_iterations)
    return schedule, baseline, draw


def _load_source(path: str) -> tuple[np.ndarray, np.ndarray]:
    """F and b from an .npz archive; any defect raises ValueError."""
    try:
        with np.load(path) as data:  # a lone .npy array is no context manager
            F, b = data["F"], data["b"]
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise ValueError(f"cannot read F and b from source_path {path!r}: {exc}") from exc
    for name, array in (("F", F), ("b", b)):
        if array.dtype.kind not in "iuf":
            raise ValueError(f"source_path {path!r} holds {name} of dtype "
                             f"{array.dtype}, expected integers or reals")
        if not np.isfinite(array).all():
            raise ValueError(f"source_path {path!r} holds a non-finite value in {name}")
    return F, b


def trace_rows(run_id: str, algorithm: str, trace: RunTrace) -> list[list[str]]:
    """One run's CSV rows, fields in TRACE_COLUMNS order."""
    fmt = "%.17g".__mod__  # for a float, the same text as f"{v:.17g}"
    columns = [map(fmt if parse is float else str, getattr(trace, name).tolist())
               for name, parse in TRACE_COLUMNS[3:]]
    return [[run_id, algorithm, str(k), *values]
            for k, values in enumerate(zip(*columns), start=1)]


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


# Rows the trace reader parses at a time: enough to parse column by column,
# few enough that the text held at once stays far below the trace's size.
_CHUNK_ROWS = 128


def _trace_chunks(path: "str | Path") -> Iterator[list[list]]:
    """A trace file's data rows, blank lines skipped, in chunks of up to
    _CHUNK_ROWS rows, each chunk as one parsed list per TRACE_COLUMNS column.
    A wrong header, a row with the wrong field count or a field that does not
    parse raises ValueError naming the line."""
    parsers = [parse for _, parse in TRACE_COLUMNS]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _TRACE_NAMES:
            raise ValueError(f"unexpected trace header {header}")
        rows = filter(None, reader)  # a blank line reads as []
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            if set(map(len, chunk)) != {len(parsers)}:
                _raise_first_defect(path)
            try:
                columns = [list(map(parse, texts))
                           for parse, texts in zip(parsers, zip(*chunk))]
            except ValueError:
                _raise_first_defect(path)
            yield columns


def _raise_first_defect(path: "str | Path") -> NoReturn:
    """Re-read a trace row by row; raise the ValueError naming its first bad line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in filter(None, reader):
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"trace line {reader.line_num} has {len(row)} fields, "
                                 f"expected {len(TRACE_COLUMNS)}")
            for (name, parse), text in zip(TRACE_COLUMNS, row):
                try:
                    parse(text)
                except ValueError:
                    form = _INTEGER if parse is int else _NUMBER
                    raise ValueError(f"trace line {reader.line_num} {name} "
                                     f"{text!r} is not {form}") from None
    raise ValueError(f"trace file {path} changed while it was read")


def read_trace_csv(path: "str | Path") -> list[dict[str, object]]:
    """Trace rows as dicts keyed by TRACE_COLUMNS' names, values parsed; a
    malformed trace raises ValueError naming the line."""
    return [dict(zip(_TRACE_NAMES, record))
            for columns in _trace_chunks(path) for record in zip(*columns)]


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
    """Aggregate a trace file into replication means (no hidden state).

    Each run is folded while the file is read: its first iteration at or below
    the threshold (the earliest row among equal iterations) with that row's
    cum_time, and its last iteration's suboptimality (the latest row among
    equal iterations), so rows may come in any order.  A run naming more than
    one algorithm, an unknown algorithm, or a trace that does not pair
    sequential and baseline runs raises ValueError.
    """
    # run id -> [algorithm, hit iteration, hit cum_time, last iteration, final]
    runs: dict[str, list] = {}
    pick = itemgetter(*map(_TRACE_NAMES.index, (
        "run_id", "algorithm", "iteration", "cum_time", "suboptimality")))
    for columns in _trace_chunks(path):
        run_ids, algorithms, *numbers = pick(columns)
        iteration, cum_time, sub = map(np.array, numbers)
        end = 0
        for run_id, same in groupby(run_ids):  # one stretch of consecutive rows
            start, end = end, end + len(list(same))
            run = runs.setdefault(run_id, [algorithms[start], None, None, None, None])
            names = {run[0], *algorithms[start:end]}
            if len(names) > 1:
                raise ValueError(f"trace run {run_id!r} names more than one algorithm: "
                                 f"{', '.join(map(repr, sorted(names)))}")
            its = iteration[start:end]
            hits = np.flatnonzero(sub[start:end] <= threshold)  # nan never hits
            if hits.size:
                j = start + hits[its[hits].argmin()]  # the first of the lowest
                if run[1] is None or iteration[j] < run[1]:
                    run[1], run[2] = iteration[j], cum_time[j]
            k = end - 1 - its[::-1].argmax()  # the last of the highest
            if run[3] is None or iteration[k] >= run[3]:
                run[3], run[4] = iteration[k], sub[k]

    times = {"sequential": [], "baseline": []}
    finals = {"sequential": [], "baseline": []}
    for run_id, (alg, _, hit, _, final) in runs.items():
        if alg not in times:
            raise ValueError(f"trace run {run_id!r} has unknown algorithm {alg!r}")
        times[alg].append(hit)
        finals[alg].append(final)

    n_rep = len(times["sequential"])
    if not n_rep or n_rep != len(times["baseline"]):
        raise ValueError(
            f"trace holds {n_rep} sequential and {len(times['baseline'])} "
            "baseline runs; a summary pairs at least one of each, one to one")
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
    schedule, baseline, draw = validate_experiment(config)
    model = config.latency_model()
    root = SeededRng(seed)

    runs: list[tuple[str, str, RunTrace]] = []
    for rep in range(replications):
        problem = draw(root.spawn(rep, 0))
        svd = SvdFactors.from_matrix(problem.F)
        if svd.rank != config.rank:
            raise RuntimeError(
                f"replication {rep}: problem rank {svd.rank} != {config.rank}"
            )
        x_star, _ = reference_solution(problem, svd=svd)
        # only the sequential run charges the transpose round: the baseline
        # waits once per iteration, as bench/layers.py counts cluster.wait
        base = run_sequential(
            problem, baseline, model, root.spawn(rep, 2), svd=svd, x_star=x_star,
        )
        seq = run_sequential(
            problem, schedule, model, root.spawn(rep, 1),
            svd=svd, x_star=x_star,
            charge_second_round=config.charge_second_round,
        )
        run_tag = f"{config.label}-r{rep:03d}"
        runs += [(f"{run_tag}-base", "baseline", base),
                 (f"{run_tag}-seq", "sequential", seq)]

    # formatting one run at a time as the file is written keeps at most one
    # run's rows as text
    write_trace_csv(output, (row for run in runs for row in trace_rows(*run)))
    return summarize_trace_file(output, config.label, config.summary_threshold)


def parse_config_file(path: "str | Path") -> ExperimentConfig:
    """Read an INI experiment description; any defect raises ValueError."""
    try:
        return _read_config(path)
    except KeyError as exc:
        raise ValueError(f"config file missing section or key {exc}") from exc
    except configparser.Error as exc:
        raise ValueError(f"malformed config file: {exc}") from exc


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


_INTEGER, _NUMBER = "an integer", "a number"
# ExperimentConfig field: the section and key that set it, the form its value
# must have and the conversion.  [cluster] L and n are required (a missing one
# raises KeyError); any other key left out takes the ExperimentConfig default.
_SCALARS: dict[str, tuple[str, str, str, Callable[[str], object]]] = {
    "L": ("cluster", "L", _INTEGER, int),
    "n": ("cluster", "n", _INTEGER, int),
    "latency_kind": ("latency", "kind", "text", str),
    "latency_rate": ("latency", "rate", _NUMBER, float),
    "latency_value": ("latency", "value", _NUMBER, float),
    "latency_shift": ("latency", "shift", _NUMBER, float),
    "rows": ("problem", "rows", _INTEGER, int),
    "cols": ("problem", "cols", _INTEGER, int),
    "rank": ("problem", "rank", _INTEGER, int),
    "gamma": ("problem", "gamma", _NUMBER, float),
    "source": ("problem", "source", "text", str),
    "source_path": ("problem", "source_path", "text", str),
    "baseline_iterations": ("schedule", "baseline_iterations", _INTEGER, int),
    "charge_second_round": ("schedule", "charge_second_round", "a boolean", _boolean),
    "summary_threshold": ("summary", "threshold", _NUMBER, float),
}


def _read_config(path: "str | Path") -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if not parser.read(path):
        raise ValueError(f"cannot read config file {path}")
    known = {"schedule": {"phases"}, "configuration": {"k"}}
    for section, key, _, _ in _SCALARS.values():
        known.setdefault(section, set()).add(key.lower())
    if parser.defaults():  # its keys would show up in every section
        raise ValueError(f"unknown section [{parser.default_section}]")
    for name in parser.sections():
        if name not in known:
            raise ValueError(f"unknown section [{name}]")
        unknown = sorted(set(parser[name]) - known[name])  # keys are lower-cased
        if unknown:
            raise ValueError(f"unknown key {', '.join(unknown)} in [{name}]")
    for name in ("cluster", "latency", "problem", "schedule", "configuration"):
        if not parser.has_section(name):
            raise ValueError(f"config file missing section [{name}]")

    phases = _items(parser["schedule"]["phases"], "[schedule] phases",
                    "rank:iterations", _rank_iterations)
    k_raw = parser["configuration"]["k"].strip()
    k = None if k_raw == "auto" else _items(k_raw, "[configuration] k", _INTEGER, int)

    values = {
        field: _scalar(parser[section][key], f"[{section}] {key}", form, convert)
        for field, (section, key, form, convert) in _SCALARS.items()
        if section == "cluster" or parser.has_option(section, key)
    }
    return ExperimentConfig(label="custom", phases=phases, configuration=k, **values)


def _scalar(text: str, key: str, form: str, convert: Callable[[str], object],
            what: str = "value") -> object:
    """A config value (or one ``what`` of a list value) converted; one that
    does not convert raises a ValueError naming the key and the value."""
    text = text.strip()
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{key} {what} {text!r} is not {form}") from None


def _items(text: str, key: str, form: str, convert: Callable[[str], object]) -> tuple:
    """The comma-separated items of a config value, each converted by _scalar."""
    return tuple(_scalar(item, key, form, convert, "item") for item in text.split(","))


def _rank_iterations(item: str) -> tuple[int, int]:
    rank, iterations = item.split(":")
    return int(rank), int(iterations)
