"""Command-line interface.

Subcommands:
  feasible      check a configuration against the row-budget bound
  demo-encode   encode a configuration, dump per-row provenance, self-test
  experiment    run a preset or custom experiment, write traces, print summary
  oracle-check  sweep the closed-form row count against the brute-force oracle

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 runtime failure.
Every command leaves through main, the one place an exit code is chosen: a
command only prints its output or raises, and a command that writes a file
decides everything before it writes.
"""
from __future__ import annotations

import argparse
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from .cluster import SeededRng
from .codec import (
    DUMP_COLUMNS, dump_rows, decode_prefix, encode_all, make_layout, worker_multiply,
)
from .feasibility import Configuration, check_feasible, min_rows_oracle, row_count_s
from .feasibility import ORACLE_MAX_ROWS, ORACLE_MAX_WORKERS
from .harness import (
    PRESET_NAMES,
    _write_atomically,
    make_preset,
    parse_config_file,
    run_experiment,
)

USAGE_ERROR, VALIDATION_ERROR, RUNTIME_ERROR = 1, 2, 3
# the largest relative error demo-encode's self-test accepts from a decode
SELF_TEST_TOLERANCE = 1e-8
# the most workers demo-encode takes: its self-test decodes all 2^L - 1 subsets,
# 2.4-2.8 s at L = 16 (one BLAS thread, 2-core VM), and each added worker
# doubles that
DEMO_MAX_WORKERS = 16


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_k(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad level counts {text!r}") from exc


def _cmd_feasible(args) -> None:
    cfg = Configuration(L=args.L, n=args.n, k=args.k)
    budget = check_feasible(cfg)
    for i, (k_i, s_i) in enumerate(zip(cfg.k, budget.s), start=1):
        print(f"level {i}: k={k_i} s={s_i}")
    print(f"total {budget.total} capacity {budget.capacity}")
    print(f"feasible: {'yes' if budget.feasible else 'no'}")
    make_layout(cfg)  # refuses an infeasible configuration, as every command does


def _cmd_demo_encode(args) -> None:
    cfg = Configuration(L=args.L, n=args.n, k=args.k)
    if cfg.L > DEMO_MAX_WORKERS:
        raise ValueError(f"the self-test decodes all 2^L - 1 responder subsets, so "
                         f"--L must be <= {DEMO_MAX_WORKERS}, got {cfg.L}")
    h = make_layout(cfg).offsets  # level i is rows h[i-1]:h[i] of A
    if args.m < 1:
        raise ValueError(f"invalid column count: --m must be >= 1, got {args.m}")
    gen = SeededRng(args.seed).generator
    A = gen.standard_normal((h[-1], args.m))
    workers = encode_all(A, cfg)

    z = gen.standard_normal(args.m)
    results = [worker_multiply(w, z) for w in workers]
    truth = A @ z
    # each entry's level scale, max(1, max|truth|) over its level: max|x| / d
    # is max(|x| / d) exactly, so one vector step per subset gives its worst
    # relative error over the levels it decodes
    scale = np.repeat([max(1.0, np.abs(truth[a:b]).max(initial=0.0))
                       for a, b in zip(h, h[1:])], cfg.k)
    worst = 0.0
    checked = 0
    for ell in range(1, cfg.L + 1):
        for subset in combinations(range(cfg.L), ell):
            decoded = decode_prefix([results[i] for i in subset])
            err = np.abs(decoded - truth[: h[ell]]) / scale[: h[ell]]
            worst = max(worst, float(err.max(initial=0.0)))
            checked += 1
    outcome = f"({checked} subsets, max relative error {worst:.3e})"
    if not worst <= SELF_TEST_TOLERANCE:  # decided before anything is written
        raise RuntimeError(f"decode self-test: FAIL {outcome}")

    # the coefficients, the one text field, are quoted
    chunks = [",".join(DUMP_COLUMNS) + "\n"] + [
        ",".join(f'"{v}"' if isinstance(v, str) else str(v) for v in row) + "\n"
        for row in dump_rows(cfg)]
    if args.output:
        try:
            _write_atomically(args.output, chunks)
        except OSError as exc:
            raise OSError(f"cannot write --output: {exc}") from exc
    else:
        sys.stdout.writelines(chunks)
    print(f"decode self-test: pass {outcome}")


def _cmd_experiment(args) -> None:
    if args.config:  # main has checked that --config comes with custom alone
        try:
            config = parse_config_file(args.config)
        except ValueError as exc:
            raise ValueError(f"bad config file: {exc}") from exc
    else:
        config = make_preset(args.preset)

    summary = run_experiment(config, args.seed, args.replications, args.output)
    for line in summary.lines():
        print(line)
    print(f"trace written to {Path(args.output)}")


def _cmd_oracle_check(args) -> None:
    if not (1 <= args.max_L <= ORACLE_MAX_WORKERS and 0 <= args.max_k <= ORACLE_MAX_ROWS):
        raise ValueError(
            f"the sweep needs 1 <= --max-L <= {ORACLE_MAX_WORKERS} and 0 <= --max-k <= "
            f"{ORACLE_MAX_ROWS} (the oracle guard), got {args.max_L} and {args.max_k}")
    mismatches = 0
    checked = 0
    for L in range(1, args.max_L + 1):
        for i in range(1, L + 1):
            for k_i in range(0, args.max_k + 1):
                formula = row_count_s(i, k_i, L)
                oracle = min_rows_oracle(L, i, k_i)
                checked += 1
                if formula != oracle:
                    mismatches += 1
                    print(
                        f"MISMATCH L={L} i={i} k_i={k_i}: "
                        f"formula {formula}, oracle {oracle}"
                    )
    if mismatches:
        raise RuntimeError(f"{mismatches} mismatches in {checked} cases")
    print(f"checked {checked} cases: closed form matches the brute-force oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="codedseq",
        description="Coded sequential matrix-vector multiplication toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = argparse.ArgumentParser(add_help=False)  # the configuration's arguments
    cluster.add_argument("--L", type=int, required=True, help="number of workers")
    cluster.add_argument("--n", type=int, required=True, help="rows per worker")
    cluster.add_argument("--k", type=_parse_k, required=True,
                         help="comma-separated level counts, e.g. 0,3,3,1")

    p = sub.add_parser("feasible", help="check a configuration", parents=[cluster])
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("demo-encode", help="encode and self-test a configuration",
                       parents=[cluster])
    p.add_argument("--m", type=int, default=7, help="column count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=str, default=None,
                   help="provenance CSV path (default: stdout)")
    p.set_defaults(func=_cmd_demo_encode)

    p = sub.add_parser("experiment", help="run a preset or custom experiment")
    p.add_argument("preset", choices=list(PRESET_NAMES) + ["custom"])
    p.add_argument("--config", type=str, default=None,
                   help="experiment config file (custom preset only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replications", type=int, default=50)
    p.add_argument("--output", type=str, default="traces.csv")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("oracle-check",
                       help="row-count formula vs brute-force oracle sweep")
    p.add_argument("--max-L", type=int, default=5, help=f"at most {ORACLE_MAX_WORKERS}")
    p.add_argument("--max-k", type=int, default=12, help=f"at most {ORACLE_MAX_ROWS}")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: the CLI's one way out.  No command returns an exit
    code; this is the one place an outcome becomes one.  A command that
    returns has succeeded (0).  A ValueError is invalid input (2) and any
    other exception a failure while running (3), each with one stderr line.
    A usage error exits 1 through argparse, before any command runs."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiment" and (args.preset == "custom") != bool(args.config):
        parser.error("--config FILE goes with the custom preset, and only with it")
    del parser  # about 0.2 MB of argparse objects, freed before the run's peak memory
    try:
        args.func(args)
    except ValueError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except Exception as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
