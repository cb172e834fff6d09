import csv
import dataclasses
import random
from pathlib import Path

import numpy as np
import pytest

import codedseq.harness as harness_module
from codedseq.cli import main
from codedseq.cluster import LatencyModel
from codedseq.feasibility import Configuration, feasible_configs
from codedseq.harness import (
    ExperimentConfig,
    ExperimentSummary,
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
        assert cfg.latency_kind == "exponential" and cfg.latency_rate == 1.0
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
        targets = {ell: rank for rank, ell in zip(ranks, ells)}
        hits = feasible_configs(config.L, config.n, targets, limit=1)
        if hits:
            return hits[0]
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

    def test_wide8_schedule(self):
        cfg = ExperimentConfig(
            label="wide8", L=8, n=10, rows=40, cols=600, rank=40,
            phases=((4, 20), (12, 30), (24, 30), (40, 420)), configuration=None,
        )
        assert resolve_configuration(cfg).k == (4, 0, 0, 8, 0, 12, 0, 16)

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
        write_trace_csv(path, rows)
        back = read_trace_csv(path)
        assert back[0]["iter_time"] == 0.12345678901234567
        assert back[1]["objective"] == 2.0
        assert path.read_text().splitlines()[0] == TRACE_HEADER

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("earlier trace\n")
        with pytest.raises(csv.Error):
            write_trace_csv(path, [1])  # a row must be iterable
        assert path.read_text() == "earlier trace\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


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
        assert config.latency_model() == LatencyModel.deterministic(0.0)
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

    def test_same_seed_byte_identical(self, tmp_path, custom_config_file):
        config = parse_config_file(custom_config_file)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(config, seed=11, replications=2, output=out1)
        run_experiment(config, seed=11, replications=2, output=out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_reference_takes_sigma_max_from_held_factors(
        self, tmp_path, custom_config_file, monkeypatch
    ):
        def unused(*args):
            raise AssertionError("the replication's SVD already holds sigma_max")

        monkeypatch.setattr(np.linalg, "eigvalsh", unused)
        config = parse_config_file(custom_config_file)
        summary = run_experiment(config, seed=7, replications=1,
                                 output=tmp_path / "trace.csv")
        assert summary.replications == 1

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

    def test_file_source(self, tmp_path):
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
        out = tmp_path / "trace.csv"
        summary = run_experiment(config, seed=1, replications=1, output=out)
        assert summary.replications == 1
        assert len(read_trace_csv(out)) == 25 + 25


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
        assert "feasible: no" in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["feasible", "--L", "4"])
        assert exc.value.code == 1

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
        assert "--m must be >= 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_oracle_check(self, capsys):
        assert main(["oracle-check", "--max-L", "3", "--max-k", "6"]) == 0
        assert "matches" in capsys.readouterr().out

    def test_experiment_preset_rejects_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(FAST_CUSTOM)
        assert main(["experiment", "example1", "--config", str(cfg)]) == 1

    def test_experiment_custom_needs_config(self):
        assert main(["experiment", "custom"]) == 1

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
        # k = auto fits phases 5 and 15 on n = 5, but no single level holds
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
        assert "no single-level configuration supports rank 38" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_keeps_earlier_output(self, tmp_path, capsys):
        # F has the configured shape but rank 37, which the run finds only
        # after its SVD
        F = np.random.default_rng(0).standard_normal((38, 500))
        F[-1] = F[0]
        npz = write_source(tmp_path / "rank37.npz", F, np.ones(38))
        ini = tmp_path / "file.ini"
        ini.write_text(FAST_CUSTOM.replace(
            "source = designed", f"source = file\nsource_path = {npz}"))
        out = tmp_path / "trace.csv"
        out.write_text("earlier trace\n")
        code = main([
            "experiment", "custom", "--config", str(ini), "--output", str(out),
        ])
        assert code == 3
        assert "experiment failed" in capsys.readouterr().err
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
        "make",
        [
            lambda d: d / "absent.npz",
            lambda d: write_source(d / "no_b.npz", np.ones((38, 500))),
            lambda d: write_source(d / "wide.npz", np.ones((38, 501)), np.ones(38)),
            lambda d: write_source(d / "short_b.npz", np.ones((38, 500)), np.ones(37)),
            lambda d: np.save(d / "plain.npy", np.ones((38, 500))) or d / "plain.npy",
        ],
        ids=["missing-file", "missing-b", "wrong-F-shape", "wrong-b-shape", "not-npz"],
    )
    def test_experiment_bad_source_file_exit_2(self, tmp_path, capsys, make):
        ini = tmp_path / "file.ini"
        ini.write_text(FAST_CUSTOM.replace(
            "source = designed", f"source = file\nsource_path = {make(tmp_path)}"))
        out = tmp_path / "trace.csv"
        code = main([
            "experiment", "custom", "--config", str(ini), "--output", str(out),
        ])
        assert code == 2
        assert "source_path" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_bad_config_no_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(FAST_CUSTOM.replace("k = 0,0,6,32", "k = 9,9,9,9"))
        out = tmp_path / "trace.csv"
        code = main([
            "experiment", "custom", "--config", str(bad), "--output", str(out),
        ])
        assert code == 2
        assert not out.exists()
