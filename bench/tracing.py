"""In-memory span tracing for the benchmark's traced run, and its arithmetic.

``Tracer.install`` replaces the public functions each codedseq layer exposes,
under the name the calling module sees (``codedseq.solver.decode_prefix`` is
what ``sequential_matvec`` calls, ``codedseq.harness.reference_solution`` is
what ``run_experiment`` calls).  Every call records one span: name, start,
end, parent span and replication id.  Spans are kept in flat arrays while the
run is timed and are only aggregated or written out after it.

Spans come from one thread and nest like a call stack, so the direct children
of a span never overlap one another: a span's self time is its duration minus
the summed durations of its direct children.
"""
from __future__ import annotations

import csv
import functools
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

INVOCATION = "cli.main"
REPLICATION = "harness.replication"

# (module, attribute, span name).  A function called from two modules is
# wrapped under both names, so a call through either one is recorded.
FUNCTION_SPANS = (
    ("codedseq.harness", "resolve_configuration", "feasibility.resolve"),
    ("codedseq.harness", "designed_problem", "problems.generate"),
    ("codedseq.harness", "gaussian_problem", "problems.generate"),
    ("codedseq.harness", "reference_solution", "solver.reference"),
    ("codedseq.solver", "reference_solution", "solver.reference"),
    ("codedseq.harness", "run_sequential", "solver.run"),
    ("codedseq.solver", "run_sequential", "solver.run"),
    ("codedseq.solver", "sequential_matvec", "solver.round"),
    ("codedseq.solver", "soft_threshold", "solver.prox"),
    ("codedseq.solver", "encode_all", "codec.encode"),
    ("codedseq.solver", "worker_multiply", "codec.multiply"),
    ("codedseq.solver", "decode_prefix", "codec.decode"),
    ("codedseq.solver", "simulate_wait", "cluster.wait"),
    ("codedseq.harness", "write_trace_csv", "harness.csv_write"),
    ("codedseq.harness", "summarize_trace_file", "harness.summary"),
)

# Every this many rounds the coded product is compared with the dense one.
ERROR_CHECK_EVERY = 16


class Tracer:
    """Records spans of wrapped codedseq calls; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rep = array("q")
        self._stack: list[int] = []
        self._replication: int | None = None  # index of the open replication span
        self.replications = 0
        self.rep_id = -1
        # counts taken at the span boundaries
        self.multiply_rows = 0
        self.multiply_bytes = 0
        self.useful_rows = 0
        self.expected_multiplies = 0
        self.rel_err_max = 0.0
        self.rel_err_checks = 0
        self.check_ns = 0  # time spent on the accuracy check, not on the program
        self.resolved: list[tuple[int, ...]] = []
        self._rounds = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rep.append(self.rep_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def begin_replication(self) -> None:
        """Close the open replication span, if any, and open the next one.

        ``run_experiment`` has no per-replication function to wrap; each
        replication starts by generating its problem instance, so the
        problem-generation wrapper marks the boundary.
        """
        self.end_replication()
        self.rep_id = self.replications
        self.replications += 1
        self._replication = self.open(REPLICATION)

    def end_replication(self) -> None:
        if self._replication is not None:
            self.close(self._replication)
        self._replication = None
        self.rep_id = -1

    def span(self, name: str, fn, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- per-call counts -------------------------------------------------
    def _after_multiply(self, args, result) -> None:
        rows, cols = len(result.y), len(args[1])
        self.multiply_rows += rows
        self.multiply_bytes += rows * cols * 8

    def _after_round(self, args, result) -> None:
        x, phase, system = args[0], args[1], args[2]
        self.useful_rows += phase.rank
        self.expected_multiplies += phase.ell
        self._rounds += 1
        if self._rounds % ERROR_CHECK_EVERY:
            return
        t0 = perf_counter_ns()
        V, sigma = system.svd.V[:, : phase.rank], system.svd.sigma[: phase.rank]
        dense = V @ (sigma**2 * (V.T @ x))
        norm = float(np.linalg.norm(dense))
        if norm > 0.0:
            err = float(np.linalg.norm(result[0] - dense)) / norm
            self.rel_err_max = max(self.rel_err_max, err)
            self.rel_err_checks += 1
        self.check_ns += perf_counter_ns() - t0

    def _after_resolve(self, args, result) -> None:
        self.resolved.append(tuple(result.k))

    # -- installing the wrappers ----------------------------------------
    def install(self) -> None:
        """Wrap the layer entry points; ``uninstall`` puts the originals back."""
        import importlib

        from codedseq import cli
        from codedseq.cluster import SeededRng
        from codedseq.solver import LassoProblem, SvdFactors

        main = cli.main

        @functools.wraps(main)
        def invocation(*args, **kwargs):
            idx = self.open(INVOCATION)
            try:
                return main(*args, **kwargs)
            finally:
                self.end_replication()
                self.close(idx)

        self._patch(cli, "main", invocation)

        hooks = {
            "codec.multiply": {"after": self._after_multiply},
            "solver.round": {"after": self._after_round},
            "feasibility.resolve": {"after": self._after_resolve},
            "problems.generate": {"before": self.begin_replication},
            "harness.csv_write": {"before": self.end_replication},
        }
        for module_name, attr, span_name in FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patch(module, attr, self.span(span_name, original, **hooks.get(span_name, {})))

        objective = LassoProblem.objective
        self._patch(LassoProblem, "objective", self.span("solver.objective", objective))

        from_matrix = SvdFactors.__dict__["from_matrix"]
        self._patch(
            SvdFactors, "from_matrix",
            classmethod(self.span("solver.svd", from_matrix.__func__)),
        )

        generator = SeededRng.__dict__["generator"]
        build = self.span("cluster.rng_build", generator.fget)

        def materialise(rng):
            # only the first access builds the stream; later ones return it
            if getattr(rng, "_gen", None) is None:
                return build(rng)
            return generator.fget(rng)

        self._patch(SeededRng, "generator", property(materialise))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "rep": np.frombuffer(self.rep, dtype=np.int64),
            "self_ns": self_times(start, end, parent),
        }

    def write_csv(self, path: Path) -> None:
        """One row per span, times in ns from the first span's start."""
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["span", "name", "start_ns", "end_ns", "parent", "replication"])
            for i in range(len(self.start)):
                out.writerow(
                    [i, self.names[self.name[i]], self.start[i] - t0,
                     self.end[i] - t0, self.parent[i], self.rep[i]]
                )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    start = np.asarray(start, dtype=np.int64)
    dur = np.asarray(end, dtype=np.int64) - start
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered.astype(np.int64)


# Candidate tail percentiles, in thousandths, highest first.
TAIL_PERMILLE = (999, 990, 900)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it."""
    for q in TAIL_PERMILLE:
        rank = -(-q * n // 1000)  # nearest-rank position, ceil(q n / 1000)
        if n - rank >= 10:
            return q / 10
    return None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the smallest sample with q% at or below it)."""
    return float(np.percentile(np.asarray(values, dtype=float), q, method="inverted_cdf"))


def describe(values) -> dict[str, object]:
    """Median, the highest tail percentile the sample supports, and the count."""
    n = len(values)
    out: dict[str, object] = {"n": n, "p50": percentile(values, 50) if n else None}
    q = tail_percentile(n)
    out["tail_q"] = q
    out["tail"] = percentile(values, q) if q is not None else None
    return out
