"""codedseq benchmark: end-to-end timings, or a traced run with per-layer metrics.

    python3 bench/run.py --workload example1 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root.  One client runs one experiment invocation at a
time (a closed loop) until ``--seconds`` have passed.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced invocations of the same experiment seed and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 8  # fresh interpreters per run at most; setup_s is their median
SETUP_SHARE = 0.15  # most of a run's elapsed time the probes may take
MATVEC_TOLERANCE = 1e-8  # bound on solver.matvec_rel_err_max


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict[str, object]:
    """What a later run must match to be compared with this one."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None  # without a git checkout, src_sha256 identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure_setup(workload) -> float:
    """One setup_s sample, from a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload.preset]
    if workload.config_file is not None:
        cmd.append(str(workload.config_file))
    done = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.split()[-1])


def closed_loop(seconds: float, seeds, step) -> None:
    """Call ``step(seed, elapsed)`` for successive seeds until ``seconds`` have passed."""
    start = time.perf_counter()
    for seed in seeds:
        step(seed, time.perf_counter() - start)
        if time.perf_counter() - start >= seconds:
            return


def fmt_describe(d, unit) -> str:
    tail = (f"p{d['tail_q']:g} {d['tail']:.6g} {unit}" if d["tail_q"]
            else "no tail percentile with >=10 samples beyond it")
    return f"median {d['p50']:.6g} {unit}, {tail}, n={d['n']}"


def run_untraced(workload, config, seed, seconds, output):
    from tracing import describe
    from workloads import experiment_seeds, run_experiment_once

    setup, results = [], []
    probing = 0.0  # wall time spent on set-up probes so far

    def step(s, elapsed):
        nonlocal probing
        # set-up probes are spread over the run, between invocations, and
        # take at most SETUP_SHARE of it, so a slow set-up (wide8) leaves
        # the run enough invocations
        if len(setup) < SETUP_PROBES and probing <= SETUP_SHARE * elapsed:
            t0 = time.perf_counter()
            setup.append(measure_setup(workload))
            probing += time.perf_counter() - t0
        results.append(run_experiment_once(workload, config, s, output))

    closed_loop(seconds, experiment_seeds(seed), step)
    walls = [r.wall_s for r in results]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "experiment_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MiB"},
    }
    detail = {"setup_s": setup, "experiment_s": walls}
    lines = [
        f"setup_s       {fmt_describe(describe(setup), 's')} (fresh interpreters)",
        f"experiment_s  {fmt_describe(describe(walls), 's')} "
        f"(invocations of {workload.replications} replications)",
        f"peak_rss_mb   {peak:.1f} MiB",
    ]
    return results, metrics, detail, lines


def run_traced(workload, config, seed, seconds, output):
    from codedseq import codec
    from layers import layer_metrics
    from tracing import Tracer
    from workloads import experiment_seeds, run_experiment_once

    tracer = Tracer()
    plain, traced, builds = [], [], []
    traced_walls = []

    def run_traced_once(s):
        check_ns = tracer.check_ns
        tracer.install()
        try:
            res = run_experiment_once(workload, config, s, output)
        finally:
            tracer.uninstall()
        builds.append(codec.make_generator.cache_info().misses)
        traced.append(res)
        traced_walls.append(res.wall_s - (tracer.check_ns - check_ns) / 1e9)

    def pair(s, elapsed):
        # alternate which side runs first, so drift within a pair cancels
        if len(plain) % 2:
            run_traced_once(s)
        plain.append(run_experiment_once(workload, config, s, output))
        if len(plain) % 2:
            run_traced_once(s)

    closed_loop(seconds, experiment_seeds(seed), pair)
    # the first pair pays the process's first-call costs on its untraced side
    ratios = [t / p.wall_s for t, p in zip(traced_walls, plain)]
    overhead = statistics.median(ratios[1:] or ratios) - 1.0
    metrics, lines, unmeasured = layer_metrics(
        tracer, config, workload.replications, len(traced),
        generator_builds=sum(builds),
        csv_bytes=statistics.mean(r.csv_bytes for r in traced),
        overhead=overhead,
    )
    if tracer.rel_err_max > MATVEC_TOLERANCE:
        for r in traced:
            r.failed = r.attempted
            r.reasons.append(f"solver.matvec_rel_err_max {tracer.rel_err_max:.3e} "
                             f"above {MATVEC_TOLERANCE:g}")
    spans = OUT / f"spans-{workload.name}.csv"
    tracer.write_csv(spans)
    lines.append(f"spans written to {spans.relative_to(ROOT)} "
                 f"({len(tracer.start)} spans, {len(traced)} traced invocations)")
    detail = {"unmeasured": unmeasured, "resolved_k": sorted(set(tracer.resolved)),
              "overhead_pairs": list(zip(traced_walls, [p.wall_s for p in plain]))}
    return plain + traced, metrics, detail, lines


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    config = workload.config()
    env = environment(seed)
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    output = OUT / f"trace-{name}-{os.getpid()}.csv"
    run = run_traced if trace else run_untraced
    results, metrics, detail, lines = run(workload, config, seed, seconds, output)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for line in lines:
        print(f"{name} {line}")
    print(f"{name} failed_frac   {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} replications)")
    for r in results:
        for reason in r.reasons:
            print(f"{name} FAILED: {reason}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail["failures"] = [reason for r in results for reason in r.reasons]
    record = dict(result, workload=name, trace=trace, seconds=seconds,
                  environment=env, detail=detail)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(names, seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own interpreter, so peak_rss_mb stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600,
        )
        out = done.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {done.returncode})")
            combined["correct"] = False
            status = 1
            continue
        status = status or done.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    # One BLAS thread.  With the library default on a 2-vCPU machine, BLAS
    # workers spin on the second vCPU between calls and compete with the
    # interpreter thread; example1 ran faster and steadier with one thread.
    # Set before numpy is first imported, and recorded with every result.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC / "codedseq" / "__init__.py").is_file():
        print(f"error: no codedseq sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import codedseq
    from workloads import WORKLOADS

    if not Path(codedseq.__file__).resolve().is_relative_to(SRC):
        print(f"error: codedseq imported from {codedseq.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    args = parse_args(argv, list(WORKLOADS))
    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
