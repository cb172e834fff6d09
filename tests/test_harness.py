import csv
import dataclasses
import math
import random
import re
import tracemalloc
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from conftest import SEED3_EXPERIMENTS

import codedseq.cli as cli_module
import codedseq.harness as harness_module
from codedseq.cli import main
from codedseq.cluster import LatencyModel, order_stat_mean
from codedseq.codec import InfeasibleConfiguration, encode_all, make_layout
from codedseq.feasibility import Configuration, first_feasible
from codedseq.harness import (
    ExperimentConfig,
    ExperimentSummary,
    TRACE_COLUMNS,
    TRACE_HEADER,
    make_preset,
    parse_config_file,
    read_trace_csv,
    resolve_configuration,
    run_experiment,
    summarize_trace_file,
    validate_experiment,
    write_trace_csv,
)
from codedseq.solver import ApproxSchedule, RunTrace, SvdFactors

FAST_CUSTOM = """
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
phases = 6:10, 38:60
baseline_iterations = 80

[configuration]
k = 0,0,6,32

[summary]
threshold = 0.05
"""


def readme_config_text():
    """The INI block of the README's "Custom experiment config" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Custom experiment config", 1)[1]
    return section.split("```\n", 2)[1]


def write_source(path, F, b=None):
    arrays = {"F": F} if b is None else {"F": F, "b": b}
    np.savez(path, **arrays)
    return path


def file_experiment(npz, **changes):
    """A file-source experiment on a 6 x 12 archive, fields changed as given."""
    config = ExperimentConfig(
        label="file", L=2, n=5, rows=6, cols=12, rank=6, source="file",
        source_path=str(npz), phases=((3, 5), (6, 20)), configuration=(3, 3))
    return dataclasses.replace(config, **changes)


def counting(name, real, events):
    """``real``, appending ``name`` to ``events`` at each call."""
    def wrapper(*args, **kwargs):
        events.append(name)
        return real(*args, **kwargs)

    return wrapper


def sorted_summary(path, label, threshold):
    """Reference summary: groups every row by run, sorts each run by
    iteration and reads the first row at or below the threshold and the last
    row."""
    runs = {}
    for row in read_trace_csv(path):
        runs.setdefault(str(row["run_id"]), []).append(row)
    times = {"sequential": [], "baseline": []}
    finals = {"sequential": [], "baseline": []}
    for run_rows in runs.values():
        run_rows.sort(key=lambda r: r["iteration"])
        alg = str(run_rows[0]["algorithm"])
        times[alg].append(next(
            (r["cum_time"] for r in run_rows if r["suboptimality"] <= threshold), None))
        finals[alg].append(run_rows[-1]["suboptimality"])
    reached_seq = [t for t in times["sequential"] if t is not None]
    reached_base = [t for t in times["baseline"] if t is not None]
    return ExperimentSummary(
        label=label,
        replications=len(times["sequential"]),
        threshold=threshold,
        reached_sequential=len(reached_seq),
        reached_baseline=len(reached_base),
        mean_time_sequential=float(np.mean(reached_seq)) if reached_seq else float("nan"),
        mean_time_baseline=float(np.mean(reached_base)) if reached_base else float("nan"),
        mean_final_suboptimality=float(np.mean(finals["sequential"])),
        mean_final_suboptimality_baseline=float(np.mean(finals["baseline"])),
    )


def reference_trace_rows(run_id, algorithm, trace):
    """The per-row renderer write_trace_csv replaced, verbatim: one run's
    CSV rows as lists of text, fields in TRACE_COLUMNS order."""
    fmt = "%.17g".__mod__  # for a float, the same text as f"{v:.17g}"
    columns = [map(fmt if parse is float else str, getattr(trace, name).tolist())
               for name, parse in TRACE_COLUMNS[3:]]
    return [[run_id, algorithm, str(k), *values]
            for k, values in enumerate(zip(*columns), start=1)]


def write_rows(path, rows):
    """A trace file of rows of text, rendered by the csv.writer dialect whose
    bytes write_trace_csv reproduces: the header, then one line per row."""
    with open(path, "w", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


def assert_summary_matches_sorted(path, label, threshold):
    # astuple compares a nan mean equal to a nan mean
    np.testing.assert_equal(
        dataclasses.astuple(summarize_trace_file(path, label, threshold)),
        dataclasses.astuple(sorted_summary(path, label, threshold)),
    )


@pytest.fixture()
def custom_config_file(tmp_path):
    path = tmp_path / "custom.ini"
    path.write_text(FAST_CUSTOM)
    return path


class TestPresets:
    def test_example1_parameters(self):
        cfg = make_preset("example1")
        assert (cfg.L, cfg.n) == (4, 10)
        assert (cfg.rows, cfg.cols, cfg.rank) == (38, 500, 38)
        assert cfg.gamma == 5.0
        assert cfg.latency.kind == "exponential" and cfg.latency.rate == 1.0
        assert cfg.configuration == (0, 0, 6, 32)
        assert [rank for rank, _ in cfg.phases] == [6, 38]

    def test_example2_parameters(self):
        cfg = make_preset("example2")
        assert cfg.configuration == (5, 10, 0, 0)
        assert [rank for rank, _ in cfg.phases] == [5, 15]

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            make_preset("example3")

    def test_preset_label_guard(self):
        tampered = ExperimentConfig(
            label="example1",
            phases=((6, 30), (38, 400)),
            configuration=(0, 0, 6, 32),
            gamma=7.0,
        )
        with pytest.raises(ValueError):
            validate_experiment(tampered)

    def test_preset_schedules_validate(self):
        for name in ("example1", "example2"):
            validate_experiment(make_preset(name))


def scan_resolve(config):
    """Reference k = auto: scan every nondecreasing responder assignment."""
    ranks = [rank for rank, _ in config.phases]

    def assignments(prev, idx, acc):
        if idx == len(ranks):
            yield tuple(acc)
            return
        for ell in range(prev, config.L + 1):
            yield from assignments(ell, idx + 1, acc + [ell])

    for ells in assignments(1, 0, []):
        found = first_feasible(config.L, config.n, zip(ells, ranks))
        if found is not None:
            return found
    return None


class TestAutoConfiguration:
    def test_example1_auto_finds_reference_configuration(self):
        cfg = ExperimentConfig(
            label="auto1", phases=((6, 30), (38, 400)), configuration=None
        )
        assert resolve_configuration(cfg).k == (0, 0, 6, 32)

    def test_example2_auto_finds_reference_configuration(self):
        cfg = ExperimentConfig(
            label="auto2", phases=((5, 30), (15, 120)), configuration=None
        )
        assert resolve_configuration(cfg).k == (5, 10, 0, 0)

    def test_impossible_schedule(self):
        cfg = ExperimentConfig(
            label="nope", L=1, n=1, rows=4, cols=8, rank=4,
            phases=((4, 10),), configuration=None,
        )
        with pytest.raises(ValueError):
            resolve_configuration(cfg)

    def test_no_phases_rejected(self):
        config = ExperimentConfig(label="x", phases=(), configuration=None)
        with pytest.raises(ValueError, match="at least one phase"):
            validate_experiment(config)

    def test_wide8_schedule(self):
        cfg = ExperimentConfig(
            label="wide8", L=8, n=10, rows=40, cols=600, rank=40,
            phases=((4, 20), (12, 30), (24, 30), (40, 420)), configuration=None,
        )
        assert resolve_configuration(cfg).k == (4, 0, 0, 8, 0, 12, 0, 16)

    @pytest.mark.parametrize("L, n, ranks, k", [
        (4, 200, (10, 800), (0, 0, 0, 800)),
        (8, 100, (40, 400, 800), (0, 0, 0, 0, 0, 0, 0, 800)),
        (8, 1000, (1000, 3000, 6000), (0, 0, 1000, 0, 0, 0, 2000, 3000)),
    ])
    def test_large_final_rank(self, L, n, ranks, k):
        cfg = ExperimentConfig(label="big", L=L, n=n, phases=tuple((r, 5) for r in ranks),
                               configuration=None)
        assert resolve_configuration(cfg).k == k

    @pytest.mark.parametrize("k", [(0, 0, 6, 32), None], ids=["explicit", "auto"])
    def test_validation_resolves_the_schedule_once(self, monkeypatch, k):
        # the baseline reaches k = auto through feasibility, so the harness
        # entry the benchmark counts runs once per validation
        calls, real = [], harness_module.resolve_configuration

        def counting(config):
            calls.append(config)
            return real(config)

        monkeypatch.setattr(harness_module, "resolve_configuration", counting)
        config = ExperimentConfig(label="once", phases=((6, 30), (38, 400)),
                                  configuration=k)
        validate_experiment(config)
        assert len(calls) == 1, (
            f"validate_experiment called resolve_configuration {len(calls)} times, "
            "expected once")

    def test_matches_exhaustive_assignment_scan(self):
        rng = random.Random(7)
        for _ in range(150):
            L, n = rng.randint(1, 5), rng.randint(1, 6)
            count = rng.randint(1, min(4, n * L + 2))
            ranks = sorted(rng.sample(range(1, n * L + 3), count))
            cfg = ExperimentConfig(
                label="auto", L=L, n=n,
                phases=tuple((rank, 5) for rank in ranks), configuration=None,
            )
            want = scan_resolve(cfg)
            if want is None:
                with pytest.raises(ValueError):
                    resolve_configuration(cfg)
            else:
                assert resolve_configuration(cfg) == want, (L, n, ranks)


class TestTraceIO:
    def test_roundtrip_exact(self, tmp_path):
        rows = [
            ["a-base", "baseline", "1", "1", "0.12345678901234567", "0.5",
             "3.0000000000000004", "0.1"],
            ["a-base", "baseline", "2", "1", "1", "1.5", "2", "0.01"],
        ]
        path = tmp_path / "t.csv"
        write_rows(path, rows)
        back = read_trace_csv(path)
        assert back[0]["iter_time"] == 0.12345678901234567
        assert back[1]["objective"] == 2.0
        assert path.read_text().splitlines()[0] == TRACE_HEADER

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_trace_rows_format_like_fstring(self, tmp_path):
        values = np.array([-0.0, 5e-324, 1e308, 0.1, 3.0, 1 / 3, np.inf, np.nan])
        trace = RunTrace(lengths=(1,) * 8, iter_time=values, objective=values[::-1],
                         suboptimality=values)
        path = tmp_path / "t.csv"
        write_trace_csv(path, [("r", "sequential", trace)])
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [row[:4] for row in rows[:2]] == [["r", "sequential", "1", "1"],
                                                 ["r", "sequential", "2", "2"]]
        columns = (trace.iter_time, trace.cum_time, trace.objective, trace.suboptimality)
        assert [row[4:] for row in rows] == [[f"{v:.17g}" for v in floats]
                                            for floats in zip(*(c.tolist() for c in columns))]
        assert rows[0][4:] == ["-0", "-0", "nan", "-0"]
        assert [row[4] for row in rows[1:6]] == [
            "4.9406564584124654e-324", "1e+308", "0.10000000000000001", "3",
            "0.33333333333333331"]

    # labels that csv.writer quotes (comma, quote, line break), one that must
    # survive % formatting, and an empty one
    LABELS = [("a-base", "baseline"), ("r,1", 'say "seq"'), ("line\nbreak", "100%d"),
              ("%s%%", ""), ("", "sequential")]

    @pytest.mark.parametrize("rows", sorted({1, 63, 64, 65, 129, *(
        n * harness_module._BLOCK_ROWS + d for n in (1, 2) for d in (-1, 0, 1))}))
    def test_bytes_match_the_per_row_csv_writer(self, tmp_path, rows):
        runs = [(run_id, alg, special_trace(rows, shift))
                for shift, (run_id, alg) in enumerate(self.LABELS)]
        path, want = tmp_path / "t.csv", tmp_path / "want.csv"
        write_trace_csv(path, runs)
        write_rows(want, [row for run in runs for row in reference_trace_rows(*run)])
        assert path.read_bytes() == want.read_bytes()
        back = read_trace_csv(path)
        assert len(back) == rows * len(runs)
        assert [(row["run_id"], row["algorithm"]) for row in back[::rows]] == self.LABELS
        for name in ("iter_time", "cum_time", "objective", "suboptimality"):
            np.testing.assert_array_equal(
                [row[name] for row in back],
                np.concatenate([getattr(trace, name) for _, _, trace in runs]))

    def test_empty_run_writes_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(path, [("r", "baseline", special_trace(0))])
        assert path.read_text() == TRACE_HEADER + "\n"

    @pytest.mark.parametrize("fields", [6, 9], ids=["short", "long"])
    def test_wrong_field_count_names_the_line(self, tmp_path, fields):
        good = ["a-base", "baseline", "1", "1", "1", "1", "2", "0.1"]
        bad = (good + ["extra"])[:fields]
        path = tmp_path / "t.csv"
        path.write_text("\n".join([TRACE_HEADER, ",".join(good), ",".join(bad)]) + "\n")
        message = f"trace line 3 has {fields} fields, expected 8"
        with pytest.raises(ValueError, match=message):
            read_trace_csv(path)
        with pytest.raises(ValueError, match=message):
            summarize_trace_file(path, "custom", 1e-3)

    @pytest.mark.parametrize("algorithms, message", [
        (["other"], "'r0'.*'other'"),
        (["baseline"], "0 sequential and 1 baseline"),
        (["sequential"], "1 sequential and 0 baseline"),
        (["sequential", "baseline", "baseline"], "1 sequential and 2 baseline"),
        ([], "0 sequential and 0 baseline"),
    ], ids=["unknown-algorithm", "baseline-only", "sequential-only", "unequal", "empty"])
    def test_summary_rejects_unpaired_runs(self, tmp_path, algorithms, message):
        path = tmp_path / "t.csv"
        write_rows(path, [[f"r{i}", alg, "1", "1", "1", "1", "2", "0.1"]
                          for i, alg in enumerate(algorithms)])
        with pytest.raises(ValueError, match=message):
            summarize_trace_file(path, "custom", 1e-3)

    def test_summary_rejects_run_with_two_algorithms(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, [["r0", "baseline", "1", "1", "1", "1", "2", "0.1"],
                          ["r0", "sequential", "2", "1", "1", "2", "2", "0.1"],
                          ["r1", "sequential", "1", "1", "1", "1", "2", "0.1"]])
        message = ("trace run 'r0' names more than one algorithm: "
                   "'baseline', 'sequential' at line 3")
        with pytest.raises(ValueError, match=message):
            read_trace_csv(path)
        with pytest.raises(ValueError, match=message):
            summarize_trace_file(path, "custom", 1e-3)

    @pytest.mark.parametrize("column, text, form", [
        ("iteration", "1.5", "an integer"),
        ("phase", "one", "an integer"),
        ("cum_time", "", "a number"),
        ("suboptimality", "0.1x", "a number"),
    ])
    def test_unparsable_field_names_line_and_column(self, tmp_path, column, text, form):
        good = ["a-base", "baseline", "1", "1", "1", "1", "2", "0.1"]
        bad = list(good)
        bad[TRACE_HEADER.split(",").index(column)] = text
        path = tmp_path / "t.csv"
        write_rows(path, [good, bad])
        message = f"trace line 3 {column} {text!r} is not {form}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_trace_csv(path)
        with pytest.raises(ValueError, match=re.escape(message)):
            summarize_trace_file(path, "custom", 1e-3)

    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("earlier trace\n")

        def runs():  # fails after the first run's rows are written
            yield "r0-base", "baseline", special_trace(3)
            raise RuntimeError("replication failed")

        with pytest.raises(RuntimeError, match="replication failed"):
            write_trace_csv(path, runs())
        assert path.read_text() == "earlier trace\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


SPECIAL_VALUES = (-0.0, 5e-324, 1e308, np.nan, np.inf, 0.1, 1 / 3, 2.5e-17)


def special_trace(rows, shift=0):
    """A RunTrace of ``rows`` iterations in phases of at most 40 whose
    columns cycle through SPECIAL_VALUES, starting ``shift`` values in."""
    lengths = tuple(min(40, rows - start) for start in range(0, rows, 40))
    values = np.resize(np.roll(SPECIAL_VALUES, -shift), rows)
    return RunTrace(lengths=lengths, iter_time=values, objective=values[::-1].copy(),
                    suboptimality=np.roll(values, 1))


def trace_row(run_id, iteration, sub="0.1"):
    """A trace row of run ``run_id`` whose cum_time is its iteration."""
    alg = "sequential" if run_id.startswith("s") else "baseline"
    return [run_id, alg, str(iteration), "1", "1", str(iteration), "5", sub]


class TestSummaryFold:
    """summarize_trace_file reads one run at a time; sorted_summary is the
    list-and-sort reference it must agree with on every trace it accepts."""

    @pytest.mark.parametrize("name", ["example1", "wide8", "wide8-charged"])
    def test_matches_sorted_summary_on_real_traces(self, seed3_trace, name):
        config, _, out, summary = seed3_trace(name)
        assert summary == sorted_summary(out, config.label, config.summary_threshold)
        for threshold in (0.0, 1e-30, 1e-6, 0.05, 1.0, 1e9):
            assert_summary_matches_sorted(out, config.label, threshold)

    def test_matches_sorted_summary_on_hand_written_traces(self, tmp_path):
        # a nan suboptimality (never at or below a threshold), a run that ends
        # on nan, a value met again later, and thresholds one run never reaches
        subs = {"s0": ["0.5", "0.01", "0.005", "0.02"], "b0": ["nan", "0.2", "0.1"],
                "s1": ["nan"], "b1": ["0.05", "0.05", "nan"]}
        path = tmp_path / "t.csv"
        write_rows(path, [trace_row(run_id, k, sub) for run_id, run in subs.items()
                          for k, sub in enumerate(run, start=1)])
        for threshold in (0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0):
            assert_summary_matches_sorted(path, "custom", threshold)
        summary = summarize_trace_file(path, "custom", 0.01)
        # s0 reaches at iteration 2; s1 never
        assert (summary.reached_sequential, summary.mean_time_sequential) == (1, 2.0)
        # b1 ends on its nan row
        assert np.isnan(summary.mean_final_suboptimality_baseline)

    @pytest.mark.parametrize("seed", [1, 5, 128])
    def test_matches_sorted_summary_on_shuffled_traces(self, tmp_path, seed):
        # shuffling whole runs keeps a trace in written order; shuffling rows
        # breaks it, and such a trace is refused unless the shuffle undid itself
        rng = random.Random(seed)
        path = tmp_path / "t.csv"
        for _ in range(40):
            runs = [(f"{tag}{rep}", alg) for rep in range(rng.randint(1, 3))
                    for alg, tag in (("sequential", "s"), ("baseline", "b"))]
            rng.shuffle(runs)
            rows = []
            for run_id, alg in runs:
                for k in range(1, rng.randint(1, 12) + 1):
                    sub = rng.choice(["nan", "0", "1e-3", str(rng.random())])
                    rows.append([run_id, alg, str(k), "1", "1",
                                 repr(rng.uniform(0, 10)), "1", sub])
            write_rows(path, rows)
            for threshold in (0.0, 1e-3, 0.5, 2.0):
                assert_summary_matches_sorted(path, "custom", threshold)
            rng.shuffle(rows)
            write_rows(path, rows)
            try:
                read_trace_csv(path)
            except ValueError as err:
                assert str(err).startswith("trace run ")
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    summarize_trace_file(path, "custom", 0.5)
            else:
                assert_summary_matches_sorted(path, "custom", 0.5)

    @pytest.mark.parametrize("rows, message", [
        ([trace_row("s0", 1), trace_row("b0", 1), trace_row("s0", 2)],
         "trace run 's0' resumes at line 4 after other runs"),
        ([trace_row("s0", 1), trace_row("s0", 2), trace_row("s0", 2)],
         "trace run 's0' has iteration 2 at line 4, expected 3"),
        ([trace_row("b0", 1), trace_row("s0", 3), trace_row("s0", 1), trace_row("s0", 2)],
         "trace run 's0' has iteration 3 at line 3, expected 1"),
        ([trace_row("s0", 1), trace_row("s0", 2), trace_row("s0", 4)],
         "trace run 's0' has iteration 4 at line 4, expected 3"),
    ], ids=["not-consecutive", "duplicated", "shuffled", "gap"])
    def test_refuses_runs_out_of_written_order(self, tmp_path, rows, message):
        # the summary would otherwise need a rule for which of two rows counts
        path = tmp_path / "t.csv"
        write_rows(path, rows)
        with pytest.raises(ValueError, match=message):
            read_trace_csv(path)
        with pytest.raises(ValueError, match=message):
            summarize_trace_file(path, "custom", 1e-3)


def order_stat_var(model, L, ell):
    """Variance of T_(ell), the ell-th smallest of L i.i.d. latencies: the sum
    of 1/(j rate)^2 over j = L-ell+1..L for both exponential laws (the shift
    is constant), and 0 for deterministic."""
    if model.kind == "deterministic":
        return 0.0
    return sum(1.0 / (j * model.rate) ** 2 for j in range(L - ell + 1, L + 1))


class TestClosedFormTime:
    """A run's iterates do not depend on its latency draw, so its first
    iteration N* at or below the threshold (or its last) does not either.
    Its simulated time to N* is then a sum of independent order statistics:
    c * sum_{k <= N*} T_(ell(k)), with c = 2 when the transpose round is
    charged (sequential runs only) and 1 otherwise."""

    @pytest.mark.parametrize("name", SEED3_EXPERIMENTS)
    def test_simulated_time_matches_closed_form(self, seed3_trace, name):
        config, _, out, _ = seed3_trace(name)
        schedule, baseline, _ = validate_experiment(config)
        model, L = config.latency, schedule.config.L
        runs = groupby(read_trace_csv(out), key=lambda row: row["run_id"])
        for run_id, rows in runs:
            rows = list(rows)
            sequential = rows[0]["algorithm"] == "sequential"
            c = 2 if sequential and config.charge_second_round else 1
            phases = (schedule if sequential else baseline).phases
            ells = [phase.ell for phase in phases for _ in range(phase.iterations)]
            assert len(ells) == len(rows), run_id
            n_star = next((k for k, row in enumerate(rows)
                           if row["suboptimality"] <= config.summary_threshold),
                          len(rows) - 1)
            mean = c * sum(order_stat_mean(model, L, ell) for ell in ells[: n_star + 1])
            var = c * sum(order_stat_var(model, L, ell) for ell in ells[: n_star + 1])
            got = rows[n_star]["cum_time"]
            if var == 0:
                assert got == pytest.approx(mean, rel=1e-12, abs=0), run_id
            else:
                assert abs(got - mean) <= 4 * math.sqrt(var), (run_id, got, mean, var)


class TestRunExperiment:
    def test_custom_run_and_summary(self, tmp_path, custom_config_file):
        config = parse_config_file(custom_config_file)
        out = tmp_path / "trace.csv"
        summary = run_experiment(config, seed=7, replications=2, output=out)
        assert out.exists()
        rows = read_trace_csv(out)
        # 2 reps x (80 baseline + 70 sequential) iterations
        assert len(rows) == 2 * (80 + 10 + 60)
        assert summary.replications == 2
        assert summary.reached_sequential == 2
        # summary must equal a recomputation from the file
        again = summarize_trace_file(out, config.label, config.summary_threshold)
        assert again == summary

    def test_summary_without_reached_threshold_has_no_nan(
        self, tmp_path, custom_config_file
    ):
        config = parse_config_file(custom_config_file)
        out = tmp_path / "trace.csv"
        run_experiment(config, seed=7, replications=1, output=out)
        summary = summarize_trace_file(out, config.label, 1e-30)
        assert (summary.reached_sequential, summary.reached_baseline) == (0, 0)
        lines = summary.lines()
        assert "  speedup: not reached" in lines
        assert not any("nan" in line for line in lines)

    def test_zero_latency_summary_has_no_speedup(self, tmp_path, custom_config_file):
        text = custom_config_file.read_text()
        custom_config_file.write_text(
            text.replace("kind = exponential\nrate = 1.0", "kind = deterministic\nvalue = 0")
        )
        config = parse_config_file(custom_config_file)
        assert config.latency == LatencyModel.deterministic(0.0)
        summary = run_experiment(config, seed=7, replications=1,
                                 output=tmp_path / "trace.csv")
        assert summary.mean_time_sequential == summary.mean_time_baseline == 0.0
        assert "  speedup: n/a" in summary.lines()

    def test_summary_speedup_line(self):
        summary = ExperimentSummary(
            label="x", replications=2, threshold=1e-3, reached_sequential=2,
            reached_baseline=2, mean_time_sequential=2.0, mean_time_baseline=3.0,
            mean_final_suboptimality=1e-4, mean_final_suboptimality_baseline=1e-4,
        )
        assert "  speedup: 1.500x  (time saving 33.3%)" in summary.lines()

    def test_rows_sorted_and_cum_time_increasing(self, tmp_path, custom_config_file):
        config = parse_config_file(custom_config_file)
        out = tmp_path / "trace.csv"
        run_experiment(config, seed=3, replications=2, output=out)
        rows = read_trace_csv(out)
        keys = [(r["run_id"], r["iteration"]) for r in rows]
        assert keys == sorted(keys)
        by_run = {}
        for r in rows:
            by_run.setdefault(r["run_id"], []).append(r["cum_time"])
        for cum in by_run.values():
            assert all(b > a for a, b in zip(cum, cum[1:]))

    def test_memory_does_not_grow_with_trace_text(self, tmp_path):
        """A run keeps each run's trace as arrays until the one write, so the
        peak grows per replication by far less than the CSV text it writes."""
        config = ExperimentConfig(
            label="small", rows=16, cols=64, rank=16, gamma=1.0,
            phases=((4, 20), (16, 100)), configuration=None,
            baseline_iterations=120, summary_threshold=0.05,
        )
        out = tmp_path / "trace.csv"
        # a 1-replication peak depends on what the process imported before (a
        # prior `import hypothesis` took the 1-to-4 growth from 7.4 to 21.5 KB
        # per replication); the 2-to-10 growth reads 8.3 KB either way
        few, many = 2, 10
        # builds the generators, layouts and decode matrices every later run uses
        run_experiment(config, seed=0, replications=many, output=out)
        peak, size = {}, {}
        for reps in (few, many):
            tracemalloc.start()
            try:
                run_experiment(config, seed=0, replications=reps, output=out)
                peak[reps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size[reps] = out.stat().st_size
        growth = (peak[many] - peak[few]) / (many - few)
        csv_bytes = (size[many] - size[few]) / (many - few)
        assert growth < 0.5 * csv_bytes, (growth, csv_bytes)

    def test_memory_does_not_grow_with_responder_sets(self, tmp_path):
        """At L = 24 almost every round meets a new responder set, so the
        decode cache must be bounded for the peak not to grow by the decode
        matrices of every set each replication meets (about 5 MB per
        replication while every one was kept)."""
        level_counts = [0] * 24
        level_counts[1], level_counts[11] = 4, 36
        config = ExperimentConfig(
            label="wide24", L=24, n=6, rows=40, cols=600, rank=40,
            phases=((4, 10), (40, 150)), configuration=tuple(level_counts),
            baseline_iterations=150,
        )
        out = tmp_path / "trace.csv"
        run_experiment(config, seed=0, replications=1, output=out)  # fills the cache
        few, many = 1, 3
        peak = {}
        # fresh seeds, so each run meets sets the warm-up never built
        for reps, seed in ((few, 1), (many, 2)):
            tracemalloc.start()
            try:
                run_experiment(config, seed=seed, replications=reps, output=out)
                peak[reps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        growth = (peak[many] - peak[few]) / (many - few)
        assert growth < 1e6, growth

    def test_same_seed_byte_identical(self, tmp_path, custom_config_file):
        config = parse_config_file(custom_config_file)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(config, seed=11, replications=2, output=out1)
        run_experiment(config, seed=11, replications=2, output=out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_reference_takes_sigma_max_from_held_factors(
        self, tmp_path, custom_config_file, monkeypatch
    ):
        # the replication's SVD already holds sigma_max: one factorisation each
        calls = []
        from_matrix = harness_module.SvdFactors.from_matrix

        def counting(F):
            calls.append(1)
            return from_matrix(F)

        monkeypatch.setattr(harness_module.SvdFactors, "from_matrix", counting)
        config = parse_config_file(custom_config_file)
        summary = run_experiment(config, seed=7, replications=2,
                                 output=tmp_path / "trace.csv")
        assert summary.replications == 2
        assert len(calls) == 2

    def test_different_seed_differs(self, tmp_path, custom_config_file):
        config = parse_config_file(custom_config_file)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(config, seed=11, replications=1, output=out1)
        run_experiment(config, seed=12, replications=1, output=out2)
        assert out1.read_bytes() != out2.read_bytes()


class TestParseConfig:
    def test_full_parse(self, custom_config_file):
        config = parse_config_file(custom_config_file)
        assert config.label == "custom"
        assert config.phases == ((6, 10), (38, 60))
        assert config.configuration == (0, 0, 6, 32)
        assert config.baseline_iterations == 80
        assert config.summary_threshold == 0.05

    def test_auto_configuration(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(FAST_CUSTOM.replace("k = 0,0,6,32", "k = auto"))
        config = parse_config_file(path)
        assert config.configuration is None
        assert resolve_configuration(config).k == (0, 0, 6, 32)

    def test_charge_second_round_flag(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            FAST_CUSTOM.replace(
                "baseline_iterations = 80",
                "baseline_iterations = 80\ncharge_second_round = true",
            )
        )
        config = parse_config_file(path)
        assert config.charge_second_round
        out = tmp_path / "t.csv"
        run_experiment(config, seed=2, replications=1, output=out)
        rows = read_trace_csv(out)
        # sequential iterations cost two rounds; compare mean per-phase cost
        seq = [r for r in rows if r["algorithm"] == "sequential"
               and r["phase"] == 2]
        base = [r for r in rows if r["algorithm"] == "baseline"]
        seq_mean = np.mean([r["iter_time"] for r in seq])
        base_mean = np.mean([r["iter_time"] for r in base])
        assert seq_mean > 1.5 * base_mean

    def test_readme_example(self, tmp_path):
        # its values carry "; ..." inline comments
        path = tmp_path / "readme.ini"
        path.write_text(readme_config_text())
        assert parse_config_file(path) == dataclasses.replace(
            make_preset("example1"), label="custom")

    def test_defaults_come_from_experiment_config(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[cluster]\nL = 3\nn = 7\n[latency]\n[problem]\n"
                        "[schedule]\nphases = 3:5\n[configuration]\nk = 3,0,0\n")
        assert parse_config_file(path) == ExperimentConfig(
            label="custom", L=3, n=7, phases=((3, 5),), configuration=(3, 0, 0))

    def test_missing_section(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[cluster]\nL = 4\nn = 10\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError):
            parse_config_file(tmp_path / "absent.ini")

    def test_file_source(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        F = rng.standard_normal((6, 12))
        b = rng.standard_normal(6)
        npz = tmp_path / "problem.npz"
        np.savez(npz, F=F, b=b)
        ini = tmp_path / "file.ini"
        ini.write_text(
            "[cluster]\nL = 2\nn = 5\n\n"
            "[latency]\nkind = deterministic\nvalue = 1.0\n\n"
            "[problem]\nrows = 6\ncols = 12\nrank = 6\ngamma = 0.3\n"
            f"source = file\nsource_path = {npz}\n\n"
            "[schedule]\nphases = 3:5, 6:20\nbaseline_iterations = 25\n\n"
            "[configuration]\nk = 3,3\n"
        )
        config = parse_config_file(ini)
        # validation reads, factors and solves the archive once, before
        # replication 0, and every replication reuses them
        events = []
        for owner, attr, name in ((harness_module, "_load_source", "load"),
                                  (SvdFactors, "from_matrix", "svd"),
                                  (harness_module, "reference_solution", "reference"),
                                  (harness_module, "run_sequential", "run")):
            monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr), events))
        out = tmp_path / "trace.csv"
        summary = run_experiment(config, seed=1, replications=3, output=out)
        assert summary.replications == 3
        assert events == ["load", "svd", "reference"] + ["run"] * (2 * 3)
        assert len(read_trace_csv(out)) == 3 * (25 + 25)


    @pytest.mark.parametrize("make, message", [
        (lambda F, b: (F + 1j, b), "dtype complex128"),
        (lambda F, b: (np.where(F > 1, np.nan, F), b), "non-finite value in F"),
        (lambda F, b: (F, np.append(b[:-1], np.inf)), "non-finite value in b"),
    ], ids=["complex-F", "nan-in-F", "inf-in-b"])
    def test_file_source_must_be_real_and_finite(self, tmp_path, make, message):
        rng = np.random.default_rng(0)
        F, b = make(rng.standard_normal((6, 12)), rng.standard_normal(6))
        npz = write_source(tmp_path / "problem.npz", F, b)
        with pytest.raises(ValueError, match=f"source_path.*{message}"):
            validate_experiment(file_experiment(npz))

    @pytest.mark.parametrize("changes, message", [
        ({"source_path": None}, "source 'file' needs source_path"),
        ({"rank": 7}, r"rank 7 exceeds min\(rows, cols\) = 6"),
        ({"source": "csv"}, "unknown problem source 'csv'"),
        ({"configuration": (3, 4), "phases": ((3, 5), (7, 20))},
         r"configuration \(3, 4\) codes h_L = 7 rows, more than the problem rank 6"),
        ({"configuration": (9, 9)}, r"configuration \(9, 9\) is infeasible"),
        ({"n": 2, "configuration": (0, 3), "phases": ((3, 5),)},
         r"baseline: no feasible configuration supports phase ranks \[6\]"),
        ({"configuration": (3, 4)},
         r"configuration \(3, 4\) codes h_L = 7 rows, more than the problem rank 6"),
    ], ids=["no-path", "rank-above-shape", "unknown-source", "phase-above-rank",
            "infeasible-schedule", "infeasible-baseline", "rows-above-rank"])
    def test_file_source_refusals_do_not_factor(self, tmp_path, monkeypatch, changes,
                                                message):
        rng = np.random.default_rng(0)
        npz = write_source(tmp_path / "problem.npz", rng.standard_normal((6, 12)),
                           rng.standard_normal(6))

        def no_svd(F):
            raise AssertionError("F was factored before validation ended")

        monkeypatch.setattr(SvdFactors, "from_matrix", no_svd)
        with pytest.raises(ValueError, match=message):
            validate_experiment(file_experiment(npz, **changes))

    @pytest.mark.parametrize("source", ["designed", "gaussian"])
    def test_nan_gamma_is_decided_before_any_draw(self, source):
        # a generated source builds its first LassoProblem only in replication 0
        config = ExperimentConfig(label="nan", gamma=float("nan"), source=source,
                                  phases=((6, 10), (38, 60)), configuration=(0, 0, 6, 32))
        with pytest.raises(ValueError, match="gamma must be finite and >= 0, got nan"):
            validate_experiment(config)


def fail_svd_at_call(monkeypatch, failing_call):
    """Make SvdFactors.from_matrix raise LinAlgError at its failing_call-th
    call (from 1), once per replication; return the list of calls made."""
    calls, real = [], SvdFactors.from_matrix.__func__

    def from_matrix(cls, F):
        calls.append(1)
        if len(calls) == failing_call:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(cls, F)

    monkeypatch.setattr(SvdFactors, "from_matrix", classmethod(from_matrix))
    return calls


def count_draws(monkeypatch):
    """Count designed_problem calls, one per replication, and still draw."""
    calls, real = [], harness_module.designed_problem

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness_module, "designed_problem", counting)
    return calls


class TestFailureOwnership:
    def test_numerical_failure_in_a_run_is_a_runtime_error(
        self, tmp_path, monkeypatch, custom_config_file
    ):
        # LinAlgError subclasses ValueError, but the input was already valid
        fail_svd_at_call(monkeypatch, 1)
        out = tmp_path / "trace.csv"
        with pytest.raises(RuntimeError, match="SVD did not converge") as exc:
            run_experiment(parse_config_file(custom_config_file), 0, 1, out)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)
        assert not out.exists()

    def test_linalg_error_in_replication_2_exits_3_without_output(
        self, tmp_path, capsys, monkeypatch, custom_config_file
    ):
        calls = fail_svd_at_call(monkeypatch, 3)
        out = tmp_path / "trace.csv"
        out.write_text("earlier trace\n")
        code = main(["experiment", "custom", "--config", str(custom_config_file),
                     "--replications", "3", "--output", str(out)])
        assert code == 3
        assert "experiment failed: SVD did not converge" in capsys.readouterr().err
        assert len(calls) == 3
        assert out.read_text() == "earlier trace\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_linalg_error_solving_a_file_exits_3_without_output(
        self, tmp_path, capsys, monkeypatch
    ):
        # validation factors a file source, yet a numerical failure there is
        # not invalid input
        npz = write_source(tmp_path / "problem.npz",
                           np.random.default_rng(0).standard_normal((38, 500)), np.ones(38))
        ini = tmp_path / "file.ini"
        ini.write_text(FAST_CUSTOM.replace(
            "source = designed", f"source = file\nsource_path = {npz}"))
        calls = fail_svd_at_call(monkeypatch, 1)
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(ini), "--replications", "3",
                     "--output", str(out)])
        assert code == 3
        assert "experiment failed: SVD did not converge" in capsys.readouterr().err
        assert len(calls) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.ini", "problem.npz"]

    def test_zero_replications_exits_2_before_any_replication(
        self, tmp_path, capsys, monkeypatch
    ):
        draws = count_draws(monkeypatch)
        out = tmp_path / "trace.csv"
        code = main(["experiment", "example1", "--replications", "0",
                     "--output", str(out)])
        assert code == 2
        assert ("validation failed: replications must be >= 1, got 0"
                in capsys.readouterr().err)
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("field", ["rows", "cols", "rank"])
    def test_float_problem_shape_exits_2_before_any_replication(
        self, tmp_path, capsys, monkeypatch, field
    ):
        # an integral float used to pass validation and fail in replication 0
        preset = make_preset("example1")
        value = float(getattr(preset, field))
        monkeypatch.setattr(cli_module, "make_preset", lambda name: dataclasses.replace(
            preset, label="float-shape", **{field: value}))
        draws = count_draws(monkeypatch)
        out = tmp_path / "trace.csv"
        assert main(["experiment", "example1", "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"validation failed: {field} must be an integer, got {value!r}\n")
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("replications", [1.5, 2.0, np.float64(2.0)])
    def test_non_integer_replications_are_refused_before_validation(
        self, tmp_path, monkeypatch, replications
    ):
        def no_validation(config):
            raise AssertionError("validated before the replication count was checked")

        monkeypatch.setattr(harness_module, "validate_experiment", no_validation)
        out = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=re.escape(
                f"replications must be an integer, got {replications!r}")):
            run_experiment(make_preset("example1"), 0, replications, out)
        assert not out.exists()

    def test_rows_above_rank_exit_2_before_any_replication(
        self, tmp_path, capsys, monkeypatch
    ):
        # feasible at n = 10, but k codes 39 source rows of a rank-38 F
        draws = count_draws(monkeypatch)
        ini = tmp_path / "k39.ini"
        ini.write_text(FAST_CUSTOM.replace("6:10, 38:60", "3:10, 38:60")
                       .replace("k = 0,0,6,32", "k = 0,0,3,36"))
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(ini), "--output", str(out)])
        assert code == 2
        assert ("validation failed: configuration (0, 0, 3, 36) codes h_L = 39 rows, "
                "more than the problem rank 38") in capsys.readouterr().err
        assert draws == []
        assert [p.name for p in tmp_path.iterdir()] == ["k39.ini"]

    @pytest.mark.parametrize("k, seed, output, code, message", [
        ("0,0,6,32", "-1", "trace.csv", 2, "validation failed: seed must be >= 0, got -1"),
        ("9,9,9,9", "-1", "trace.csv", 2, "validation failed: seed must be >= 0, got -1"),
        ("9,9,9,9", "0", "nodir/trace.csv", 3, "experiment failed: cannot write"),
    ], ids=["seed", "seed-over-config", "output-over-config"])
    def test_seed_and_output_are_refused_before_the_file_solve(
        self, tmp_path, capsys, monkeypatch, k, seed, output, code, message
    ):
        npz = write_source(tmp_path / "problem.npz",
                           np.random.default_rng(0).standard_normal((38, 500)), np.ones(38))
        ini = tmp_path / "file.ini"
        ini.write_text(FAST_CUSTOM.replace("source = designed",
                                           f"source = file\nsource_path = {npz}")
                       .replace("k = 0,0,6,32", f"k = {k}"))

        def no_svd(F):
            raise AssertionError("F was factored before the seed and output were checked")

        monkeypatch.setattr(SvdFactors, "from_matrix", no_svd)
        assert main(["experiment", "custom", "--config", str(ini), "--seed", seed,
                     "--output", str(tmp_path / output)]) == code
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.ini", "problem.npz"]

    def test_negative_seed_exits_2_before_any_replication(
        self, tmp_path, capsys, monkeypatch
    ):
        draws = count_draws(monkeypatch)
        out = tmp_path / "trace.csv"
        code = main(["experiment", "example1", "--seed", "-1", "--replications", "1",
                     "--output", str(out)])
        assert code == 2
        assert "validation failed: seed must be >= 0, got -1" in capsys.readouterr().err
        assert draws == []
        assert not out.exists()

    def test_missing_output_directory_exits_3_before_any_replication(
        self, tmp_path, capsys, monkeypatch
    ):
        draws = count_draws(monkeypatch)
        out = tmp_path / "nodir" / "x.csv"
        code = main(["experiment", "example1", "--replications", "2",
                     "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"experiment failed: cannot write {out}" in err
        assert "Traceback" not in err
        assert draws == []
        assert list(tmp_path.rglob("*")) == []

        # an --output that is a directory is refused just as early
        out = tmp_path / "adir"
        out.mkdir()
        code = main(["experiment", "example1", "--replications", "2",
                     "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"experiment failed: cannot write {out}: it is a directory" in err
        assert draws == []
        assert list(tmp_path.rglob("*")) == [out]


# k = (9, 9, 9, 9) spends 36 + 19 + 12 + 9 coded rows on L = 4 workers of n = 10
INFEASIBLE = Configuration(L=4, n=10, k=(9, 9, 9, 9))
INFEASIBLE_MESSAGE = ("configuration (9, 9, 9, 9) is infeasible: "
                      "row budget 76 exceeds capacity 40")


class TestOneRefusal:
    """make_layout alone refuses an infeasible configuration, and every path
    that meets one gives its message."""

    @pytest.mark.parametrize("build", [
        make_layout,
        lambda cfg: ApproxSchedule(cfg, [(6, 5)]),
        lambda cfg: encode_all(np.zeros((36, 3)), cfg),
    ], ids=["make_layout", "ApproxSchedule", "encode_all"])
    def test_library_paths(self, build):
        with pytest.raises(InfeasibleConfiguration) as exc:
            build(INFEASIBLE)
        assert str(exc.value) == INFEASIBLE_MESSAGE

    def test_experiment_exits_2_before_any_replication(
        self, tmp_path, capsys, monkeypatch
    ):
        draws = count_draws(monkeypatch)
        ini = tmp_path / "k9.ini"
        ini.write_text(FAST_CUSTOM.replace("k = 0,0,6,32", "k = 9,9,9,9"))
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(ini), "--output", str(out)])
        assert code == 2
        assert f"validation failed: {INFEASIBLE_MESSAGE}" in capsys.readouterr().err
        assert draws == []
        assert [p.name for p in tmp_path.iterdir()] == ["k9.ini"]

    def test_demo_encode_exits_2(self, capsys):
        assert main(["demo-encode", "--L", "4", "--n", "10", "--k", "9,9,9,9"]) == 2
        captured = capsys.readouterr()
        assert f"validation failed: {INFEASIBLE_MESSAGE}" in captured.err
        assert captured.out == ""


class TestCli:
    def test_feasible_ok(self, capsys):
        assert main(["feasible", "--L", "4", "--n", "3", "--k", "0,3,3,1"]) == 0
        out = capsys.readouterr().out
        assert "total 12 capacity 12" in out
        assert "feasible: yes" in out

    def test_feasible_reference_example_one(self, capsys):
        assert main(["feasible", "--L", "4", "--n", "10", "--k", "0,0,6,32"]) == 0
        assert "total 40 capacity 40" in capsys.readouterr().out

    def test_infeasible_exit_code(self, capsys):
        assert main(["feasible", "--L", "4", "--n", "3", "--k", "4,0,0,0"]) == 2
        captured = capsys.readouterr()
        assert "feasible: no" in captured.out
        assert ("validation failed: configuration (4, 0, 0, 0) is infeasible"
                in captured.err)

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["feasible", "--L", "4"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["feasible", "--L", "4", "--n", "3", "--k", "1,x"])
        assert exc.value.code == 1
        assert "bad level counts '1,x'" in capsys.readouterr().err

    def test_demo_encode(self, tmp_path, capsys):
        out = tmp_path / "dump.csv"
        code = main([
            "demo-encode", "--L", "4", "--n", "3", "--k", "0,3,3,1",
            "--m", "7", "--seed", "1", "--output", str(out),
        ])
        assert code == 0
        assert "decode self-test: pass (15 subsets" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 12  # header + one line per coded row
        assert lines[:2] == ["worker_id,level,block,row,systematic,coefficients",
                             '1,2,0,0,1,"1 0"']

    def test_demo_encode_no_rows_prints_header(self, capsys):
        assert main(["demo-encode", "--L", "4", "--n", "3", "--k", "0,0,0,0",
                     "--m", "7"]) == 0
        assert capsys.readouterr().out == (
            "worker_id,level,block,row,systematic,coefficients\n"
            "decode self-test: pass (15 subsets, max relative error 0.000e+00)\n")

    def test_demo_encode_unwritable_output_exit_3(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dump.csv"
        code = main(["demo-encode", "--L", "4", "--n", "3", "--k", "0,3,3,1",
                     "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "cannot write --output" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["stdout", "new-file", "existing-file"])
    def test_demo_encode_failing_self_test_writes_nothing(
        self, tmp_path, capsys, monkeypatch, target
    ):
        # this configuration's worst decode is 8.0e-16 off, above a zero tolerance
        monkeypatch.setattr(cli_module, "SELF_TEST_TOLERANCE", 0.0)
        out = tmp_path / "dump.csv"
        if target == "existing-file":
            out.write_text("earlier dump\n")
        output = [] if target == "stdout" else ["--output", str(out)]
        code = main(["demo-encode", "--L", "4", "--n", "3", "--k", "0,3,3,1", *output])
        assert code == 3
        captured = capsys.readouterr()
        assert "demo-encode failed: decode self-test: FAIL (15 subsets" in captured.err
        assert captured.out == ""
        if target == "existing-file":
            assert out.read_text() == "earlier dump\n"
        else:
            assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_demo_encode_failed_write_keeps_the_old_file(self, tmp_path, capsys, monkeypatch):
        def no_rename(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(harness_module.os, "replace", no_rename)
        out = tmp_path / "dump.csv"
        out.write_text("earlier dump\n")
        code = main(["demo-encode", "--L", "4", "--n", "3", "--k", "0,3,3,1",
                     "--output", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert "demo-encode failed: cannot write --output: rename refused" in captured.err
        assert "decode self-test" not in captured.out
        assert out.read_text() == "earlier dump\n"
        assert [p.name for p in tmp_path.iterdir()] == ["dump.csv"]

    def test_write_keeps_a_users_tmp_file_and_the_usual_mode(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        theirs = tmp_path / "rows.csv.tmp"
        theirs.write_bytes(b"user data\n")
        with open(tmp_path / "plain.txt", "w"):
            pass
        code = main(["demo-encode", "--L", "4", "--n", "3", "--k", "0,3,3,1",
                     "--output", str(out)])
        assert code == 0, capsys.readouterr().err
        assert theirs.read_bytes() == b"user data\n"
        assert out.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "plain.txt", "rows.csv", "rows.csv.tmp"]

    def test_demo_encode_too_many_workers_exits_2_before_encoding(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(cli_module, "encode_all",
                            counting("encode", cli_module.encode_all, calls))
        L = cli_module.DEMO_MAX_WORKERS + 1
        out = tmp_path / "rows.csv"
        code = main(["demo-encode", "--L", str(L), "--n", "2",
                     "--k", ",".join(["0"] * (L - 1) + [str(L)]), "--output", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("validation failed: ")
        assert f"--L must be <= {L - 1}, got {L}" in captured.err
        assert captured.out == ""
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_demo_encode_single_row(self, capsys):
        assert main(["demo-encode", "--L", "1", "--n", "1", "--k", "1",
                     "--m", "1"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_demo_encode_infeasible(self, capsys):
        assert main(["demo-encode", "--L", "2", "--n", "1", "--k", "2,0"]) == 2

    @pytest.mark.parametrize("m", ["-1", "0"])
    def test_demo_encode_bad_column_count_exit_2(self, tmp_path, capsys, m):
        out = tmp_path / "dump.csv"
        code = main(["demo-encode", "--L", "4", "--n", "3", "--k", "0,3,3,1",
                     "--m", m, "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"validation failed: --m must be >= 1, got {m}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_demo_encode_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "dump.csv"
        code = main(["demo-encode", "--L", "4", "--n", "3", "--k", "0,3,3,1",
                     "--seed", "-1", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "validation failed: seed must be >= 0, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_oracle_check(self, capsys):
        assert main(["oracle-check", "--max-L", "3", "--max-k", "6"]) == 0
        assert "matches" in capsys.readouterr().out

    def test_oracle_check_mismatch_exits_3(self, capsys, monkeypatch):
        real = cli_module.row_count_s

        def off_by_one(i, k_i, L):  # wrong for one case only
            return real(i, k_i, L) + ((L, i, k_i) == (2, 1, 1))

        monkeypatch.setattr(cli_module, "row_count_s", off_by_one)
        assert main(["oracle-check", "--max-L", "2", "--max-k", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["MISMATCH L=2 i=1 k_i=1: formula 3, oracle 2"]
        assert captured.err.splitlines() == ["oracle-check failed: 1 mismatches in 6 cases"]

    @pytest.mark.parametrize("bounds", [["--max-L", "0"], ["--max-k", "-1"]])
    def test_oracle_check_empty_sweep_exit_2(self, capsys, bounds):
        assert main(["oracle-check", *bounds]) == 2
        captured = capsys.readouterr()
        assert "oracle guard" in captured.err
        assert "matches" not in captured.out

    @pytest.mark.parametrize("bounds", [["--max-L", "7", "--max-k", "12"],
                                        ["--max-L", "5", "--max-k", "25"]])
    def test_oracle_check_refuses_bounds_above_the_guard(
        self, capsys, monkeypatch, bounds
    ):
        def no_case(*args):
            raise AssertionError("a case was checked before the bounds were")

        monkeypatch.setattr(cli_module, "min_rows_oracle", no_case)
        assert main(["oracle-check", *bounds]) == 2
        captured = capsys.readouterr()
        assert "--max-L <= 6 and 0 <= --max-k <= 24 (the oracle guard)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bounds", [["--max-L", "6", "--max-k", "0"],
                                        ["--max-L", "1", "--max-k", "24"]])
    def test_oracle_check_accepts_the_guard_edges(self, capsys, bounds):
        assert main(["oracle-check", *bounds]) == 0
        assert "matches" in capsys.readouterr().out

    CONFIG_USAGE = "codedseq: error: --config FILE goes with the custom preset, and only with it"

    def test_experiment_preset_rejects_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(FAST_CUSTOM)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "example1", "--config", str(cfg)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: codedseq")
        assert err.splitlines()[-1] == self.CONFIG_USAGE

    def test_experiment_custom_needs_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "custom"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: codedseq")
        assert err.splitlines()[-1] == self.CONFIG_USAGE

    @pytest.mark.parametrize("argv", [
        ["feasible", "--L", "4", "--n", "3", "--k", "0,3,3,1"],
        ["demo-encode", "--L", "4", "--n", "3", "--k", "0,3,3,1"],
        ["demo-encode", "--L", "4", "--n", "3", "--k", "0,3,3,1", "--output", "{dir}/d.csv"],
        ["experiment", "custom", "--config", "{config}", "--replications", "1",
         "--output", "{dir}/t.csv"],
        ["oracle-check", "--max-L", "2", "--max-k", "2"],
    ], ids=["feasible", "demo-encode", "demo-encode-output", "experiment", "oracle-check"])
    def test_success_returns_the_int_zero(self, tmp_path, capsys, custom_config_file, argv):
        code = main([a.format(dir=tmp_path, config=custom_config_file) for a in argv])
        assert type(code) is int and code == 0
        assert capsys.readouterr().err == ""

    def test_experiment_custom_smoke(self, tmp_path, capsys, custom_config_file):
        out = tmp_path / "trace.csv"
        code = main([
            "experiment", "custom", "--config", str(custom_config_file),
            "--seed", "5", "--replications", "1", "--output", str(out),
        ])
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "speedup" in text
        assert "trace written" in text

    @pytest.mark.parametrize(
        "text",
        [
            FAST_CUSTOM.replace("L = 4\n", ""),
            FAST_CUSTOM.replace("phases = 6:10, 38:60\n", ""),
            "L = 4\nn = 10\n",
        ],
        ids=["missing-L", "missing-phases", "no-section-header"],
    )
    def test_experiment_malformed_config_exit_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        out = tmp_path / "trace.csv"
        code = main([
            "experiment", "custom", "--config", str(bad), "--output", str(out),
        ])
        assert code == 2
        assert "bad config file" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_baseline_exits_before_any_replication(
        self, tmp_path, capsys, monkeypatch
    ):
        # k = auto fits phases 5 and 15 on n = 5, but no configuration holds
        # the baseline's 38 rows
        def no_problem(*args, **kwargs):
            raise AssertionError("a problem was generated before validation ended")

        monkeypatch.setattr(harness_module, "designed_problem", no_problem)
        ini = tmp_path / "nobase.ini"
        ini.write_text(FAST_CUSTOM.replace("n = 10", "n = 5")
                       .replace("phases = 6:10, 38:60", "phases = 5:30, 15:120")
                       .replace("k = 0,0,6,32", "k = auto"))
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(ini), "--output", str(out)])
        assert code == 2
        assert ("baseline: no feasible configuration supports phase ranks [38]"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "edits,message",
        [
            ({"rank = 38": "rank = 30", "38:60": "30:60", "0,0,6,32": "0,0,6,24"},
             "source 'designed' gives rank 38, the config says 30"),
            ({"rows = 38": "rows = 60", "cols = 500": "cols = 40",
              "rank = 38": "rank = 40", "n = 10": "n = 12", "38:60": "40:60",
              "0,0,6,32": "0,0,6,34"},
             "source 'designed' needs rows <= cols, got 60 x 40"),
            ({"rank = 38": "rank = 30", "38:60": "30:60", "0,0,6,32": "0,0,6,24",
              "source = designed": "source = gaussian"},
             "source 'gaussian' gives rank 38, the config says 30"),
            # a generated source would ignore the archive
            ({"source = designed": "source = designed\nsource_path = /nonexistent/x.npz"},
             "source 'designed' generates its problem; "
             "it ignores source_path = /nonexistent/x.npz"),
            ({"source = designed": "source = gaussian\nsource_path = /nonexistent/x.npz"},
             "source 'gaussian' generates its problem; "
             "it ignores source_path = /nonexistent/x.npz"),
        ],
        ids=["designed-rank", "designed-tall", "gaussian-rank",
             "designed-source-path", "gaussian-source-path"],
    )
    def test_source_rank_mismatch_exits_before_any_replication(
        self, tmp_path, capsys, monkeypatch, edits, message
    ):
        def no_problem(*args, **kwargs):
            raise AssertionError("a problem was generated before validation ended")

        monkeypatch.setattr(harness_module, "designed_problem", no_problem)
        monkeypatch.setattr(harness_module, "gaussian_problem", no_problem)
        text = FAST_CUSTOM
        for old, new in edits.items():
            text = text.replace(old, new)
        ini = tmp_path / "rank.ini"
        ini.write_text(text)
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(ini), "--output", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_designed_source_too_few_rows_exits_before_any_replication(
        self, tmp_path, capsys, monkeypatch
    ):
        # a designed instance hides its fringe in mode HIDDEN_MODE (16), so it
        # needs at least that many rows
        def no_problem(*args, **kwargs):
            raise AssertionError("a problem was generated before validation ended")

        monkeypatch.setattr(harness_module, "designed_problem", no_problem)
        ini = tmp_path / "small.ini"
        ini.write_text(FAST_CUSTOM.replace("rows = 38", "rows = 12")
                       .replace("cols = 500", "cols = 60")
                       .replace("rank = 38", "rank = 12")
                       .replace("phases = 6:10, 38:60", "phases = 6:10, 12:60")
                       .replace("k = 0,0,6,32", "k = auto"))
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(ini), "--output", str(out)])
        assert code == 2
        assert "source 'designed' needs rows >= 16, got 12" in capsys.readouterr().err
        assert not out.exists()

    def test_unreachable_phase_rank_exits_2_without_output(
        self, tmp_path, capsys, monkeypatch
    ):
        # an explicit k whose levels hold 26 rows cannot serve the rank-38 phase
        def no_problem(*args, **kwargs):
            raise AssertionError("a problem was generated before validation ended")

        monkeypatch.setattr(harness_module, "designed_problem", no_problem)
        ini = tmp_path / "rank.ini"
        ini.write_text(FAST_CUSTOM.replace("k = 0,0,6,32", "k = 0,0,6,20")
                       .replace("phases = 6:10, 38:60", "phases = 6:30, 38:400"))
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(ini), "--output", str(out)])
        assert code == 2
        assert "no responder count reaches rank 38" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["rank.ini"]

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_unreachable_threshold_exits_before_any_replication(
        self, tmp_path, capsys, monkeypatch, value
    ):
        # suboptimality is >= 0, so such a threshold could never be reached
        def no_problem(*args, **kwargs):
            raise AssertionError("a problem was generated before validation ended")

        monkeypatch.setattr(harness_module, "designed_problem", no_problem)
        ini = tmp_path / "threshold.ini"
        ini.write_text(FAST_CUSTOM.replace("threshold = 0.05", f"threshold = {value}"))
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(ini), "--output", str(out)])
        assert code == 2
        assert "[summary] threshold must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_gamma_exits_2_without_output(self, tmp_path, capsys):
        ini = tmp_path / "gamma.ini"
        ini.write_text(FAST_CUSTOM.replace("gamma = 5.0", "gamma = nan"))
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(ini),
                     "--replications", "1", "--output", str(out)])
        assert code == 2
        assert "gamma must be finite and >= 0, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("phases = 6:10, 38:60", "phases = 6",
             "[schedule] phases item '6' is not rank:iterations"),
            ("phases = 6:10, 38:60", "phases = 6:10, 38:60:2",
             "[schedule] phases item '38:60:2' is not rank:iterations"),
            ("k = 0,0,6,32", "k = 0,0,x,32",
             "[configuration] k item 'x' is not an integer"),
        ],
        ids=["phase-without-colon", "phase-with-two-colons", "k-not-integer"],
    )
    def test_malformed_item_named_in_message(self, tmp_path, capsys, old, new, message):
        bad = tmp_path / "bad.ini"
        bad.write_text(FAST_CUSTOM.replace(old, new))
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(bad), "--output", str(out)])
        assert code == 2
        assert f"bad config file: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("L = 4", "L = x", "[cluster] L value 'x' is not an integer"),
            ("rows = 38", "rows = 3.5", "[problem] rows value '3.5' is not an integer"),
            ("rate = 1.0", "rate = fast", "[latency] rate value 'fast' is not a number"),
            ("baseline_iterations = 80",
             "baseline_iterations = 80\ncharge_second_round = maybe",
             "[schedule] charge_second_round value 'maybe' is not a boolean"),
        ],
        ids=["cluster-integer", "problem-integer", "latency-number", "boolean"],
    )
    def test_malformed_scalar_named_in_message(self, tmp_path, capsys, old, new, message):
        bad = tmp_path / "bad.ini"
        bad.write_text(FAST_CUSTOM.replace(old, new))
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(bad), "--output", str(out)])
        assert code == 2
        assert f"bad config file: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_latency_rate_exits_2_without_output(self, tmp_path, capsys, value):
        ini = tmp_path / "rate.ini"
        ini.write_text(FAST_CUSTOM.replace("rate = 1.0", f"rate = {value}"))
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(ini), "--output", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "rate must be finite and > 0" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_ignored_latency_parameter_exits_2_without_output(self, tmp_path, capsys):
        # the exponential kind reads only rate: a shift would change nothing
        ini = tmp_path / "shift.ini"
        ini.write_text(readme_config_text().replace(
            "rate = 1.0", "rate = 1.0\nshift = 0.5\nvalue = 7"))
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(ini), "--output", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert ("latency kind 'exponential' reads only rate; it ignores value = 7.0, "
                "shift = 0.5" in captured.err)
        assert captured.out == ""
        assert not out.exists()

    def test_tall_gaussian_source_runs(self, tmp_path, capsys):
        # rows > cols: the problem has rank cols
        ini = tmp_path / "tall.ini"
        ini.write_text(FAST_CUSTOM.replace("rows = 38", "rows = 60")
                       .replace("cols = 500", "cols = 38")
                       .replace("source = designed", "source = gaussian")
                       .replace("gamma = 5.0", "gamma = 1.0"))
        out = tmp_path / "trace.csv"
        code = main(["experiment", "custom", "--config", str(ini),
                     "--replications", "1", "--output", str(out)])
        assert code == 0, capsys.readouterr().err
        assert len(read_trace_csv(out)) == 80 + 70

    def test_file_rank_mismatch_exits_2_and_keeps_earlier_output(
        self, tmp_path, capsys, monkeypatch
    ):
        # F has the configured shape but rank 37, which only its SVD shows:
        # validation factors a file source, so the run never starts
        F = np.random.default_rng(0).standard_normal((38, 500))
        F[-1] = F[0]
        npz = write_source(tmp_path / "rank37.npz", F, np.ones(38))
        ini = tmp_path / "file.ini"
        ini.write_text(FAST_CUSTOM.replace(
            "source = designed", f"source = file\nsource_path = {npz}"))
        runs = []
        monkeypatch.setattr(harness_module, "run_sequential",
                            counting("run", harness_module.run_sequential, runs))
        out = tmp_path / "trace.csv"
        out.write_text("earlier trace\n")
        code = main([
            "experiment", "custom", "--config", str(ini), "--output", str(out),
        ])
        assert code == 2
        assert ("validation failed: F has rank 37, the config says 38"
                in capsys.readouterr().err)
        assert runs == []
        assert out.read_text() == "earlier trace\n"
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize(
        "old,new,name",
        [
            ("rate = 1.0", "valeu = 0.25", "valeu"),
            ("baseline_iterations = 80", "baseline_iteration = 30", "baseline_iteration"),
            ("[summary]", "[sumary]", "[sumary]"),
            ("[cluster]", "[DEFAULT]\nrows = 38\n[cluster]", "[DEFAULT]"),
        ],
        ids=["latency-key", "schedule-key", "section", "default-section"],
    )
    def test_experiment_unknown_key_exit_2(self, tmp_path, capsys, old, new, name):
        bad = tmp_path / "bad.ini"
        bad.write_text(FAST_CUSTOM.replace(old, new))
        out = tmp_path / "trace.csv"
        code = main([
            "experiment", "custom", "--config", str(bad), "--output", str(out),
        ])
        assert code == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_readme_example_runs(self, tmp_path, capsys):
        ini = tmp_path / "readme.ini"
        ini.write_text(readme_config_text())
        out = tmp_path / "trace.csv"
        code = main([
            "experiment", "custom", "--config", str(ini), "--seed", "1",
            "--replications", "1", "--output", str(out),
        ])
        assert code == 0, capsys.readouterr().err
        assert len(read_trace_csv(out)) == 500 + 430

    @pytest.mark.parametrize(
        "make, says",
        [
            (lambda d: d / "absent.npz", "source_path"),
            (lambda d: write_source(d / "no_b.npz", np.ones((38, 500))), "source_path"),
            (lambda d: write_source(d / "wide.npz", np.ones((38, 501)), np.ones(38)),
             "source_path"),
            (lambda d: write_source(d / "short_b.npz", np.ones((38, 500)), np.ones(37)),
             "source_path"),
            (lambda d: np.save(d / "plain.npy", np.ones((38, 500))) or d / "plain.npy",
             "expected an .npz archive"),
            (lambda d: write_source(d / "complex.npz", np.random.default_rng(0)
                                    .standard_normal((38, 500)) * (1 + 1j), np.ones(38)),
             "source_path"),
        ],
        ids=["missing-file", "missing-b", "wrong-F-shape", "wrong-b-shape", "not-npz",
             "complex-F"],
    )
    def test_experiment_bad_source_file_exit_2(self, tmp_path, capsys, make, says):
        ini = tmp_path / "file.ini"
        ini.write_text(FAST_CUSTOM.replace(
            "source = designed", f"source = file\nsource_path = {make(tmp_path)}"))
        out = tmp_path / "trace.csv"
        code = main([
            "experiment", "custom", "--config", str(ini), "--output", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "source_path" in err and says in err
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_experiment_bad_config_no_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(FAST_CUSTOM.replace("k = 0,0,6,32", "k = 9,9,9,9"))
        out = tmp_path / "trace.csv"
        code = main([
            "experiment", "custom", "--config", str(bad), "--output", str(out),
        ])
        assert code == 2
        assert not out.exists()
