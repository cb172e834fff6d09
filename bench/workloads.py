"""The benchmark's workloads, one experiment invocation, and its output checks.

Each experiment is one ``codedseq experiment ...`` invocation made in-process
through ``codedseq.cli.main``.  Its replications are the unit of failure: a
replication fails when the invocation raised or exited non-zero (then all of
them fail), or when one of the checks on the written trace file rejects it.
"""
from __future__ import annotations

import contextlib
import csv
import io
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

# Acceptance criterion 5 bound on the example1 time saving.
EXAMPLE1_MIN_SAVING = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str  # a preset name, or "custom" with ``config_file``
    replications: int  # per experiment invocation
    config_file: Path | None = None
    min_time_saving: float | None = None

    def config(self):
        from codedseq.harness import make_preset, parse_config_file

        if self.preset == "custom":
            return parse_config_file(self.config_file)
        return make_preset(self.preset)

    def argv(self, seed: int, output: Path) -> list[str]:
        argv = ["experiment", self.preset, "--seed", str(seed),
                "--replications", str(self.replications), "--output", str(output)]
        if self.config_file is not None:
            argv += ["--config", str(self.config_file)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("example1", "example1", replications=10,
                 min_time_saving=EXAMPLE1_MIN_SAVING),
        Workload("wide8", "custom", replications=8,
                 config_file=INPUTS / "wide8.ini"),
        Workload("bigf", "custom", replications=1,
                 config_file=INPUTS / "bigf.ini"),
    )
}


def experiment_seeds(seed: int):
    """The experiment seeds a workload seed stands for, in invocation order."""
    i = 0
    while True:
        yield seed * 100_000 + i
        i += 1


@dataclass
class ExperimentResult:
    wall_s: float
    attempted: int
    failed: int
    reasons: list[str] = field(default_factory=list)
    csv_bytes: int = 0


_RUN_ID = re.compile(r"-r(\d+)-(base|seq)$")


def check_trace(path: Path, config, replications: int,
                min_time_saving: float | None) -> tuple[set[int], list[str]]:
    """Replication indices the trace file fails on, and why.

    Parsed here with the csv module rather than the program's own reader, so a
    defect there cannot hide one in the file.
    """
    seq_iters = sum(iters for _, iters in config.phases)
    expected = {"seq": seq_iters, "base": config.baseline_iterations}
    threshold = config.summary_threshold
    runs: dict[tuple[int, str], list[tuple[float, float]]] = {}
    failed: set[int] = set()
    reasons: list[str] = []
    total = 0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            total += 1
            match = _RUN_ID.search(row["run_id"])
            if match is None:
                reasons.append(f"unexpected run id {row['run_id']!r}")
                failed.update(range(replications))
                continue
            key = (int(match.group(1)), match.group(2))
            runs.setdefault(key, []).append(
                (float(row["cum_time"]), float(row["suboptimality"]))
            )

    want = replications * (seq_iters + config.baseline_iterations)
    if total != want:
        reasons.append(f"{total} trace rows, expected {want}")
        failed.update(range(replications))
    hit_times: dict[str, list[float]] = {"seq": [], "base": []}
    for rep in range(replications):
        for alg in ("seq", "base"):
            rows = runs.get((rep, alg), [])
            if len(rows) != expected[alg]:
                reasons.append(f"replication {rep} {alg}: {len(rows)} rows, "
                                f"expected {expected[alg]}")
                failed.add(rep)
            hit = next((t for t, sub in rows if sub <= threshold), None)
            if hit is None:
                reasons.append(f"replication {rep} {alg}: threshold {threshold:g} "
                                "not reached")
                failed.add(rep)
            else:
                hit_times[alg].append(hit)
    if min_time_saving is not None and not failed:
        base = sum(hit_times["base"]) / replications
        seq = sum(hit_times["seq"]) / replications
        saving = 1.0 - seq / base
        if saving < min_time_saving:
            reasons.append(f"time saving {saving:.1%} below {min_time_saving:.0%}")
            failed.update(range(replications))
    return failed, reasons


def run_experiment_once(workload: Workload, config, seed: int,
                        output: Path) -> ExperimentResult:
    """One timed ``codedseq experiment`` invocation, then its output checks."""
    from codedseq import cli, codec

    # a CLI invocation starts in a fresh process with no generators built
    codec.make_generator.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    reps = workload.replications
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(workload.argv(seed, output))
    except Exception as exc:  # a raising replication fails the invocation
        wall = time.perf_counter() - t0
        return ExperimentResult(wall, reps, reps, [f"raised {exc!r}"])
    wall = time.perf_counter() - t0
    if code != 0:
        return ExperimentResult(
            wall, reps, reps, [f"exit code {code}: {err.getvalue().strip()}"]
        )
    try:
        size = output.stat().st_size
        failed, reasons = check_trace(output, config, reps, workload.min_time_saving)
    finally:
        output.unlink(missing_ok=True)
    return ExperimentResult(wall, reps, len(failed), reasons, size)
