"""Per-layer metrics from a traced run, with the count-integrity guard.

Times, call counts and byte counts are per experiment invocation (the run's
total over its traced invocations, divided by their number), so they do not
grow when a faster program fits more invocations into a run.  ``_s`` metrics
are self times; ``_us_pNN`` and ``_s_pNN`` are nearest-rank percentiles of
whole per-call durations.

The expected call count of every wrapped entry point follows from the
experiment configuration.  A layer whose recorded count differs, say because a
later version stops calling it through the wrapped name or calls it from a
worker process, is reported as unmeasured (value null), not as zero time.
"""
from __future__ import annotations

import numpy as np

from tracing import REPLICATION, percentile

ERROR_CHECKS = "solver.round accuracy checks"

# (metric, unit, span whose call count guards it, what it is)
METRICS = (
    ("feasibility.resolve_s", "s", "feasibility.resolve", "self"),
    ("feasibility.resolve_calls", "count", "feasibility.resolve", "calls"),
    ("codec.decode_s", "s", "codec.decode", "self"),
    ("codec.decode_calls", "count", "codec.decode", "calls"),
    ("codec.decode_us_p50", "us", "codec.decode", ("us", 50)),
    ("codec.decode_us_p99", "us", "codec.decode", ("us", 99)),
    ("codec.multiply_s", "s", "codec.multiply", "self"),
    ("codec.multiply_calls", "count", "codec.multiply", "calls"),
    ("codec.multiply_bytes_computed", "B", "codec.multiply", "bytes"),
    ("codec.useful_row_frac", "ratio", "codec.multiply", "useful"),
    ("codec.encode_s", "s", "codec.encode", "self"),
    ("codec.generator_builds", "count", None, "builds"),
    ("cluster.wait_s", "s", "cluster.wait", "self"),
    ("cluster.wait_calls", "count", "cluster.wait", "calls"),
    ("cluster.wait_us_p50", "us", "cluster.wait", ("us", 50)),
    ("cluster.rng_streams", "count", None, "streams"),
    ("cluster.rng_build_s", "s", None, "rng_self"),
    ("cluster.rng_build_us_p50", "us", None, "rng_us"),
    ("solver.rounds", "count", "solver.round", "calls"),
    ("solver.round_us_p50", "us", "solver.round", ("us", 50)),
    ("solver.round_us_p99", "us", "solver.round", ("us", 99)),
    ("solver.prox_s", "s", "solver.prox", "self"),
    ("solver.objective_s", "s", "solver.objective", "self"),
    ("solver.loop_self_s", "s", "solver.run", "self"),
    ("solver.reference_s", "s", "solver.reference", "self"),
    ("solver.svd_s", "s", "solver.svd", "self"),
    ("solver.matvec_rel_err_max", "ratio", ERROR_CHECKS, "rel_err"),
    ("problems.generate_s", "s", "problems.generate", "self"),
    ("harness.replication_s_p50", "s", REPLICATION, ("s", 50)),
    ("harness.replication_s_p90", "s", REPLICATION, ("s", 90)),
    ("harness.csv_write_s", "s", "harness.csv_write", "self"),
    ("harness.csv_bytes", "B", "harness.csv_write", "csv_bytes"),
    ("harness.summary_s", "s", "harness.summary", "self"),
    ("trace.overhead_frac", "ratio", None, "overhead"),
)


def expected_calls(config, replications: int, invocations: int,
                   multiplies: int) -> dict[str, int]:
    """Calls each wrapped entry point must see over the traced invocations."""
    seq = sum(iters for _, iters in config.phases)
    base = config.baseline_iterations
    reps = replications * invocations
    rounds = reps * (seq + base)
    return {
        "feasibility.resolve": invocations,
        "problems.generate": reps,
        REPLICATION: reps,
        "solver.svd": reps,
        "solver.reference": reps,
        "solver.run": 2 * reps,
        "codec.encode": 2 * reps,
        "solver.round": rounds,
        "codec.decode": rounds,
        "solver.objective": rounds,
        "solver.prox": rounds,  # those called from the solver loop
        "cluster.wait": reps * (seq * (2 if config.charge_second_round else 1) + base),
        "codec.multiply": multiplies,  # the responder counts of the recorded rounds
        "harness.csv_write": invocations,
        "harness.summary": invocations,
    }


def layer_metrics(tracer, config, replications: int, invocations: int, *,
                  generator_builds: int, csv_bytes: float, overhead: float):
    """(metrics for the result line, report lines, unmeasured layers)."""
    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    parent_name = np.where(a["parent"] >= 0, a["name"][a["parent"]], -1)
    dur = a["end"] - a["start"]

    def mask(span: str) -> np.ndarray:
        m = a["name"] == ids.get(span, -1)
        if span == "solver.prox":  # the reference solution's own prox steps are its time
            m &= parent_name == ids.get("solver.run", -1)
        return m

    expected = expected_calls(config, replications, invocations,
                              tracer.expected_multiplies)
    unmeasured = {}
    for span, want in expected.items():
        seen = int(mask(span).sum())
        if seen != want or want == 0:
            unmeasured[span] = {"seen": seen, "expected": want}
    if tracer.rel_err_checks == 0:
        unmeasured[ERROR_CHECKS] = {"seen": 0, "expected": ">= 1"}

    per = 1.0 / invocations
    rng = mask("cluster.rng_build")

    def value(span, kind):
        m = mask(span) if span else None
        if kind == "self":
            return a["self_ns"][m].sum() / 1e9 * per
        if kind == "calls":
            return m.sum() * per
        if isinstance(kind, tuple):
            unit, q = kind
            return percentile(dur[m] / (1e3 if unit == "us" else 1e9), q)
        return {
            "bytes": lambda: tracer.multiply_bytes * per,
            "useful": lambda: tracer.useful_rows / tracer.multiply_rows,
            "builds": lambda: generator_builds * per,
            "streams": lambda: rng.sum() * per,
            "rng_self": lambda: a["self_ns"][rng].sum() / 1e9 * per,
            "rng_us": lambda: percentile(dur[rng] / 1e3, 50),
            "rel_err": lambda: tracer.rel_err_max,
            "csv_bytes": lambda: csv_bytes,
            "overhead": lambda: overhead,
        }[kind]()

    metrics, lines = {}, []
    for name, unit, span, kind in METRICS:
        if span in unmeasured:
            metrics[name] = {"value": None, "unit": unit}
            u = unmeasured[span]
            lines.append(f"{name:<30} UNMEASURED ({span}: {u['seen']} calls recorded, "
                         f"{u['expected']} expected)")
            continue
        v = float(value(span, kind))
        metrics[name] = {"value": v, "unit": unit}
        note = ""
        if isinstance(kind, tuple):
            n, q = int(mask(span).sum()), kind[1]
            note = f"  n={n}"
            if q > 50 and n - -(-q * n // 100) < 10:
                note += ", fewer than 10 samples beyond it"
        lines.append(f"{name:<30} {v:.6g} {unit}{note}")

    lines.append("self time per invocation, by span, and share of traced wall time:")
    whole = dur[a["parent"] < 0].sum()
    for i, span in enumerate(tracer.names):
        m = a["name"] == i
        share = a["self_ns"][m].sum() / whole if whole else 0.0
        lines.append(f"  {span:<22} calls {m.sum() * per:>10.6g}  "
                     f"self {a['self_ns'][m].sum() / 1e9 * per:>9.4f} s  {share:6.1%}")
    return metrics, lines, unmeasured
