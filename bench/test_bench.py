"""Tests of the benchmark's own arithmetic: python3 -m pytest bench -q"""
from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer, describe, percentile, self_times, tail_percentile  # noqa: E402
from workloads import Workload, check_trace, run_experiment_once  # noqa: E402

TINY_INI = """\
[cluster]
L = 4
n = 10
[latency]
kind = exponential
[problem]
rows = 20
cols = 60
rank = 20
[schedule]
phases = 6:20, 20:150
baseline_iterations = 150
[configuration]
k = 0,0,6,14
[summary]
threshold = 0.1
"""


def test_self_time_nested_children():
    # A [0,100] > B [10,50] > C [20,30]: only direct children are subtracted
    got = self_times([0, 10, 20], [100, 50, 30], [-1, 0, 1])
    assert got.tolist() == [60, 30, 10]


def test_self_time_back_to_back_children():
    # B and C share the instant 30; together they cover 50 of A's 100
    got = self_times([0, 10, 30], [100, 30, 60], [-1, 0, 0])
    assert got.tolist() == [50, 20, 30]


def test_tracer_records_parents_and_replications():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: inner())
    tracer.begin_replication()
    outer()
    tracer.begin_replication()
    outer()
    tracer.end_replication()
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    assert names == ["harness.replication", "outer", "inner"] * 2
    assert a["parent"].tolist() == [-1, 0, 1, -1, 3, 4]
    assert a["rep"].tolist() == [0, 0, 0, 1, 1, 1]
    assert (a["self_ns"] >= 0).all()
    assert a["self_ns"].sum() == (a["end"] - a["start"])[a["parent"] < 0].sum()


@pytest.mark.parametrize(
    "n, q",
    [(9, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q


def test_describe_reports_median_tail_and_count():
    d = describe(list(range(1, 101)))
    assert d == {"n": 100, "p50": 50.0, "tail_q": 90.0, "tail": 90.0}
    assert sum(v > d["tail"] for v in range(1, 101)) == 10
    assert describe([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0, "tail_q": None, "tail": None}
    assert percentile([5.0], 99) == 5.0


def _write_trace(path, rows):
    lines = ["run_id,algorithm,iteration,phase,iter_time,cum_time,objective,suboptimality"]
    lines += [",".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_check_trace_fails_only_the_replication_that_misses(tmp_path):
    cfg = SimpleNamespace(phases=((6, 2),), baseline_iterations=1, summary_threshold=0.1)
    rows = []
    for rep, subs in ((0, (0.5, 0.05)), (1, (0.5, 0.5))):
        rows.append([f"custom-r{rep:03d}-base", "baseline", 1, 1, 1, 1, 0, 0.01])
        for it, sub in enumerate(subs, start=1):
            rows.append([f"custom-r{rep:03d}-seq", "sequential", it, 1, 1, it, 0, sub])
    _write_trace(tmp_path / "trace.csv", rows)
    failed, reasons = check_trace(tmp_path / "trace.csv", cfg, 2, None)
    assert failed == {1}
    assert reasons == ["replication 1 seq: threshold 0.1 not reached"]

    _write_trace(tmp_path / "short.csv", rows[:-1])
    failed, _ = check_trace(tmp_path / "short.csv", cfg, 2, None)
    assert failed == {0, 1}  # the total row count is wrong, so all fail


@pytest.fixture
def tiny(tmp_path):
    (tmp_path / "tiny.ini").write_text(TINY_INI)
    workload = Workload("tiny", "custom", replications=3, config_file=tmp_path / "tiny.ini")
    return workload, workload.config(), tmp_path / "out.csv"


def test_passing_experiment_counts_no_failures(tiny):
    workload, config, out = tiny
    res = run_experiment_once(workload, config, 5, out)
    assert (res.attempted, res.failed, res.reasons) == (3, 0, [])
    assert res.csv_bytes > 0 and not out.exists()


def test_raising_replication_fails_the_invocation(tiny, monkeypatch):
    import codedseq.harness as harness

    workload, config, out = tiny
    calls = []
    real = harness.reference_solution

    def flaky(problem, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("replication 1 broke")
        return real(problem, **kwargs)

    monkeypatch.setattr(harness, "reference_solution", flaky)
    res = run_experiment_once(workload, config, 5, out)
    assert (res.attempted, res.failed) == (3, 3)
    assert "replication 1 broke" in res.reasons[0]
    assert res.failed / res.attempted == 1.0


def test_traced_invocation_matches_expected_counts(tiny):
    from layers import expected_calls, layer_metrics

    workload, config, out = tiny
    tracer = Tracer()
    tracer.install()
    try:
        res = run_experiment_once(workload, config, 5, out)
    finally:
        tracer.uninstall()
    assert res.failed == 0
    metrics, _, unmeasured = layer_metrics(
        tracer, config, 3, 1, generator_builds=2, csv_bytes=res.csv_bytes, overhead=0.05)
    assert unmeasured == {}
    assert metrics["solver.rounds"]["value"] == 3 * (170 + 150)
    assert metrics["codec.decode_calls"]["value"] == metrics["solver.rounds"]["value"]
    assert all(m["value"] is not None for m in metrics.values())
    assert metrics["solver.matvec_rel_err_max"]["value"] < 1e-8
    assert expected_calls(config, 3, 1, 0)["solver.reference"] == 3


def test_missing_calls_are_unmeasured_not_zero(tiny):
    import codedseq.codec as codec
    import codedseq.solver as solver
    from layers import layer_metrics

    workload, config, out = tiny
    tracer = Tracer()
    tracer.install()
    # as if the solver stopped calling decode_prefix through the wrapped name
    solver.decode_prefix = codec.decode_prefix
    try:
        run_experiment_once(workload, config, 5, out)
    finally:
        tracer.uninstall()
    assert solver.decode_prefix is codec.decode_prefix
    metrics, lines, unmeasured = layer_metrics(
        tracer, config, 3, 1, generator_builds=2, csv_bytes=1, overhead=0.0)
    assert set(unmeasured) == {"codec.decode"}
    assert metrics["codec.decode_s"]["value"] is None
    assert any("codec.decode_s" in line and "UNMEASURED" in line for line in lines)
    assert metrics["codec.multiply_s"]["value"] > 0
    assert np.isfinite(metrics["solver.round_us_p50"]["value"])
