"""Experiment harness: configuration, presets, trace persistence, summaries."""
from __future__ import annotations

import configparser
import csv
import io
import os
import secrets
import zipfile
from dataclasses import dataclass
from itertools import chain, groupby
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .cluster import LatencyModel, SeededRng
from .codec import make_layout
from .feasibility import Configuration, as_count, auto_configuration
from .problems import DesignedProblem, designed_problem, gaussian_problem
from .solver import (
    ApproxSchedule,
    LassoProblem,
    RunTrace,
    SvdFactors,
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment (cluster, problem, schedule)."""

    label: str
    L: int = 4
    n: int = 10
    latency: LatencyModel = LatencyModel()
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


# The reference experiments: each preset's fields, the rest at their defaults.
_PRESETS: dict[str, dict[str, object]] = {
    "example1": {"phases": ((6, 30), (38, 400)), "configuration": (0, 0, 6, 32),
                 "summary_threshold": 1e-3},
    "example2": {"phases": ((5, 30), (15, 120)), "configuration": (5, 10, 0, 0),
                 "summary_threshold": 0.2},
}
PRESET_NAMES = tuple(_PRESETS)


def make_preset(name: str) -> ExperimentConfig:
    """The two reference experiments, parameters fixed."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    return ExperimentConfig(label=name, **_PRESETS[name])


def resolve_configuration(config: ExperimentConfig) -> Configuration:
    """The explicit level counts, or feasibility.auto_configuration's pick
    for the phase ranks when the config says 'auto'."""
    if config.configuration is not None:
        return Configuration(L=config.L, n=config.n, k=config.configuration)
    return auto_configuration(config.L, config.n, [rank for rank, _ in config.phases])


# One replication's problem, the SVD factors of its F and its optimum x*.
_Instance = tuple[LassoProblem, SvdFactors, np.ndarray]


def _solved(problem: LassoProblem, rank: int) -> _Instance:
    """The problem with its factors and reference optimum; an F whose rank is
    not ``rank`` raises ValueError naming both."""
    svd = SvdFactors.from_matrix(problem.F)
    if svd.rank != rank:
        raise ValueError(f"F has rank {svd.rank}, the config says {rank}")
    return problem, svd, reference_solution(problem, svd=svd)[0]


def validate_experiment(
    config: ExperimentConfig,
) -> tuple[ApproxSchedule, ApproxSchedule, Callable[[SeededRng], _Instance]]:
    """Decide everything the run depends on before its first replication,
    gamma included (run_experiment decides the seed and output first).

    Returns the sequential schedule, the baseline schedule and ``draw``, which
    gives one replication's (problem, SVD factors, x*) from that replication's
    stream.  A generated source looks its generator up by name at each draw,
    then factors and solves the fresh instance.  A file source is read, then,
    as the last step and only if every cheaper check passed, factored, its
    rank checked and solved, once: every draw returns that one instance.  A
    LinAlgError from that solve is a numerical failure, raised as
    RuntimeError.
    """
    if config.label in PRESET_NAMES and config != make_preset(config.label):
        raise ValueError(
            f"label {config.label!r} is reserved for the fixed preset; "
            "custom parameters must use a different label"
        )
    if not config.summary_threshold >= 0:  # suboptimality is >= 0; NaN fails too
        raise ValueError(
            f"[summary] threshold must be >= 0, got {config.summary_threshold}")
    LassoProblem.check_gamma(config.gamma)
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
            raise ValueError(f"rank {config.rank} exceeds min(rows, cols) = {full_rank}")
        problem = LassoProblem(F=F, b=b, gamma=config.gamma)
    elif config.source == "designed":
        DesignedProblem.check_shape(config.rows, config.cols)

        def draw(rng: SeededRng) -> _Instance:
            return _solved(designed_problem(rng, **shape).problem, config.rank)
    elif config.source == "gaussian":

        def draw(rng: SeededRng) -> _Instance:
            return _solved(gaussian_problem(rng, **shape), config.rank)
    else:
        raise ValueError(f"unknown problem source {config.source!r}")
    if config.source != "file" and config.source_path:
        raise ValueError(f"source {config.source!r} generates its problem; "
                         f"it ignores source_path = {config.source_path}")
    if config.source != "file" and config.rank != full_rank:
        raise ValueError(
            f"source {config.source!r} gives rank {full_rank}, "
            f"the config says {config.rank}"
        )
    schedule = ApproxSchedule(resolve_configuration(config), config.phases)
    if schedule.phases[-1].rank > config.rank:  # phase ranks increase
        raise ValueError("phase ranks exceed the problem rank")
    coded = make_layout(schedule.config).offsets[-1]  # h_L, the source rows coded
    if coded > config.rank:
        raise ValueError(f"configuration {schedule.config.k} codes h_L = {coded} rows, "
                         f"more than the problem rank {config.rank}")
    try:  # the exact scheme is the one-phase case of the same rule
        exact = auto_configuration(config.L, config.n, [config.rank])
    except ValueError as exc:
        raise ValueError(f"baseline: {exc}") from None
    baseline = ApproxSchedule(exact, [(config.rank, config.baseline_iterations)])
    if config.source == "file":  # the costliest check, so the last
        try:
            solved = _solved(problem, config.rank)
        except np.linalg.LinAlgError as exc:  # a ValueError, but the input is valid
            raise RuntimeError(str(exc)) from exc
        return schedule, baseline, lambda rng: solved
    return schedule, baseline, draw


def _load_source(path: str) -> tuple[np.ndarray, np.ndarray]:
    """F and b from an .npz archive; any defect raises ValueError."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"expected an .npz archive, got a {type(data).__name__}")
        with data:
            F, b = data["F"], data["b"]
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ValueError(f"cannot read F and b from source_path {path!r}: {exc}") from exc
    for name, array in (("F", F), ("b", b)):
        if array.dtype.kind not in "iuf":
            raise ValueError(f"source_path {path!r} holds {name} of dtype "
                             f"{array.dtype}, expected integers or reals")
        if not np.isfinite(array).all():
            raise ValueError(f"source_path {path!r} holds a non-finite value in {name}")
    return F, b


# Rows a trace run is formatted in per % operation (see write_trace_csv).
_BLOCK_ROWS = 32


def _run_text(run_id: str, algorithm: str, trace: RunTrace) -> Iterator[str]:
    """One run's CSV text, fields in TRACE_COLUMNS order, _BLOCK_ROWS rows at
    a time."""
    quoted = io.StringIO()
    csv.writer(quoted, lineterminator="\n").writerow([run_id, algorithm])
    labels = quoted.getvalue()[:-1].replace("%", "%%")
    row = ",".join([labels] + ["%d" if parse is int else "%.17g"
                               for _, parse in TRACE_COLUMNS[2:]]) + "\n"
    table = np.empty((len(trace), len(TRACE_COLUMNS) - 2))
    table[:, 0] = np.arange(1, len(trace) + 1)
    for j, (name, _) in enumerate(TRACE_COLUMNS[3:], start=1):
        table[:, j] = getattr(trace, name)
    block = row * _BLOCK_ROWS
    for start in range(0, len(table), _BLOCK_ROWS):
        values = table[start : start + _BLOCK_ROWS]
        fmt = block if len(values) == _BLOCK_ROWS else row * len(values)
        yield fmt % tuple(values.ravel().tolist())


def _write_atomically(path: "str | Path", chunks: Iterable[str]) -> None:
    """Write the text chunks to ``path`` atomically.  They go to a temp file
    beside it whose name no other file or writer holds (the process id and a
    random token, ending ".tmp"), renamed onto ``path`` only after the last
    chunk is written.  On any exception, raised by the chunks or by the file
    system, that temp file is removed and ``path`` keeps whatever it held, so
    no reader ever sees a partial file.  The file is made by a plain open, not
    tempfile.mkstemp, so ``path`` gets the usual mode rather than 0600."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "x", newline="")  # if this raises, there is nothing to remove
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trace_csv(
    path: "str | Path", runs: Iterable[tuple[str, str, RunTrace]]
) -> None:
    """Write the ``(run_id, algorithm, trace)`` runs as one trace CSV, in the
    order given, through _write_atomically.

    The bytes are those csv.writer(..., lineterminator="\\n") writes for the
    rows ``[run_id, algorithm, iteration, phase, *columns]``, with integers as
    str gives them and floats as "%.17g" does (the f"{v:.17g}" text).  The two
    labels are quoted by that very writer, once per run, and then
    %-escaped; a number's text never holds a comma, a quote or a line break,
    so csv.writer would write it bare.  Each block of at most _BLOCK_ROWS
    rows is one % operation on one format string.  A whole run in one
    operation holds the run's full text and a tuple of all its numbers at
    once: the benchmark's example1 peak RSS read 45.0-45.1 MiB that way,
    against 43.7-43.9 MiB with 64-row blocks.  Over 40 wide8 invocations in
    one process, 64-row blocks still let the peak creep to 44.4 MiB against
    the per-row writer's 44.0, while 8- to 32-row blocks ended at 43.8-43.9;
    32 rows cost about 0.3 ms more than 64 per 10-replication example1 write.
    """
    _write_atomically(path, chain([TRACE_HEADER + "\n"],
                                  chain.from_iterable(_run_text(*run) for run in runs)))


def _trace_runs(path: "str | Path") -> Iterator[tuple[str, str, list[list]]]:
    """A trace file's runs in file order, as write_trace_csv writes them: one
    ``(run_id, algorithm, columns)`` per run, ``columns`` one parsed list per
    TRACE_COLUMNS column.  Only one run's rows are held at a time.

    Raises ValueError on a wrong header, naming the line on a row with the
    wrong field count, the line and column on a field that does not parse,
    and the run and the line on a run whose rows are not consecutive, whose
    iterations are not 1, 2, ... in file order, or that names two algorithms.
    """
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _TRACE_NAMES:
            raise ValueError(f"unexpected trace header {header}")
        numbered = ((reader.line_num, row) for row in reader if row)  # blank: []
        for run_id, group in groupby(numbered, key=lambda item: item[1][0]):
            lines, rows = zip(*group)
            try:  # strict: a row with the wrong field count raises as well
                columns = [list(map(parse, texts)) for (_, parse), texts
                           in zip(TRACE_COLUMNS, zip(*rows, strict=True), strict=True)]
            except ValueError:
                for line, row in zip(lines, rows):  # name the first bad line
                    if len(row) != len(TRACE_COLUMNS):
                        raise ValueError(f"trace line {line} has {len(row)} fields, "
                                         f"expected {len(TRACE_COLUMNS)}") from None
                    for (name, parse), text in zip(TRACE_COLUMNS, row):
                        try:
                            parse(text)
                        except ValueError:
                            form = _INTEGER if parse is int else _NUMBER
                            raise ValueError(f"trace line {line} {name} "
                                             f"{text!r} is not {form}") from None
            if run_id in seen:
                raise ValueError(f"trace run {run_id!r} resumes at line {lines[0]} "
                                 "after other runs; a run's rows must be consecutive")
            seen.add(run_id)
            _, algorithms, iterations, *_ = columns
            if (algorithms.count(algorithms[0]) != len(rows)
                    or iterations != list(range(1, len(rows) + 1))):
                for j, (line, alg, k) in enumerate(zip(lines, algorithms, iterations), 1):
                    if alg != algorithms[0]:
                        raise ValueError(f"trace run {run_id!r} names more than one "
                                         f"algorithm: {algorithms[0]!r}, {alg!r} at line {line}")
                    if k != j:
                        raise ValueError(f"trace run {run_id!r} has iteration {k} at line "
                                         f"{line}, expected {j}")
            yield run_id, algorithms[0], columns


def read_trace_csv(path: "str | Path") -> list[dict[str, object]]:
    """Trace rows as dicts keyed by TRACE_COLUMNS' names, values parsed, from
    the run-at-a-time reader: a trace it refuses (see _trace_runs) raises
    ValueError naming the line."""
    return [dict(zip(_TRACE_NAMES, record))
            for _, _, columns in _trace_runs(path) for record in zip(*columns)]


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

    The file is read one run at a time, in the order write_trace_csv writes
    it; a trace that breaks that order is refused (see _trace_runs).  A run
    reaches the threshold at the cum_time of its first iteration at or below
    it and ends at its last iteration's suboptimality.  An unknown algorithm,
    or a trace that does not pair sequential and baseline runs, raises
    ValueError.
    """
    cum_at, sub_at = _TRACE_NAMES.index("cum_time"), _TRACE_NAMES.index("suboptimality")
    times = {"sequential": [], "baseline": []}
    finals = {"sequential": [], "baseline": []}
    for run_id, alg, columns in _trace_runs(path):
        if alg not in times:
            raise ValueError(f"trace run {run_id!r} has unknown algorithm {alg!r}")
        sub = columns[sub_at]
        hits = np.flatnonzero(np.array(sub) <= threshold)  # nan never hits
        times[alg].append(columns[cum_at][hits[0]] if hits.size else None)
        finals[alg].append(sub[-1])

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

    Each replication takes its problem, factors and x* from validation's
    ``draw`` and runs both algorithms on them with distinct derived latency
    streams (variance reduction for the speedup estimate).  The summary is
    recomputed from the written file.

    A ValueError is invalid input, raised before the first replication, as
    is an OSError naming ``output`` when it is a directory or its directory
    is missing.  The cheap checks come first, in this order: the replication
    count, the seed, then ``output``; validate_experiment runs last, so a
    bad seed or output is refused before a file source is factored.  A
    numerical failure raises RuntimeError: while validation solves a file
    source, or during the run, where a ValueError (LinAlgError included) is
    re-raised as one.  A failed write raises OSError.
    """
    if as_count("replications", replications) < 1:
        raise ValueError("need at least one replication")
    root = SeededRng(seed)
    output = Path(output)
    if not output.parent.is_dir():
        raise FileNotFoundError(f"cannot write {output}: no directory {output.parent}")
    if output.is_dir():
        raise IsADirectoryError(f"cannot write {output}: it is a directory")
    schedule, baseline, draw = validate_experiment(config)  # may solve a file source
    runs: list[tuple[str, str, RunTrace]] = []
    try:
        for rep in range(replications):
            problem, svd, x_star = draw(root.spawn(rep, 0))
            # only the sequential run charges the transpose round: the baseline
            # waits once per iteration, as bench/layers.py counts cluster.wait
            base = run_sequential(
                problem, baseline, config.latency, root.spawn(rep, 2), svd=svd, x_star=x_star,
            )
            seq = run_sequential(
                problem, schedule, config.latency, root.spawn(rep, 1),
                svd=svd, x_star=x_star,
                charge_second_round=config.charge_second_round,
            )
            run_tag = f"{config.label}-r{rep:03d}"
            runs += [(f"{run_tag}-base", "baseline", base),
                     (f"{run_tag}-seq", "sequential", seq)]

        # the writer holds one run's numbers and at most _BLOCK_ROWS rows of
        # text at a time, so memory grows with replications only by the kept
        # runs: 27.6 KB per example1 replication (tracemalloc peak, 2 against
        # 10 replications), against the 105.6 KB of CSV it writes; the write
        # itself peaks 148 KB above its start (470 KB with per-row lists)
        write_trace_csv(output, runs)
        return summarize_trace_file(output, config.label, config.summary_threshold)
    except ValueError as exc:  # the input was decided valid, so the run failed
        raise RuntimeError(str(exc)) from exc


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
# ExperimentConfig field, or LatencyModel field for [latency]: the section and
# key that set it, the form its value must have and the conversion.  [cluster]
# L and n are required (a missing one raises KeyError); any other key left out
# takes the default of its dataclass.
_SCALARS: dict[str, tuple[str, str, str, Callable[[str], object]]] = {
    "L": ("cluster", "L", _INTEGER, int),
    "n": ("cluster", "n", _INTEGER, int),
    "kind": ("latency", "kind", "text", str),
    "rate": ("latency", "rate", _NUMBER, float),
    "value": ("latency", "value", _NUMBER, float),
    "shift": ("latency", "shift", _NUMBER, float),
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
    latency = LatencyModel(**{field: values.pop(field) for field, (section, *_)
                              in _SCALARS.items() if section == "latency" and field in values})
    return ExperimentConfig(label="custom", latency=latency, phases=phases,
                            configuration=k, **values)


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
