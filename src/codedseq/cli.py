"""Command-line interface.

Subcommands:
  feasible      check a configuration against the row-budget bound
  demo-encode   encode a configuration, dump per-row provenance, self-test
  experiment    run a preset or custom experiment, write traces, print summary
  oracle-check  sweep the closed-form row count against the brute-force oracle

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from .cluster import SeededRng
from .codec import dump_rows, decode_prefix, encode_all, make_layout, worker_multiply
from .feasibility import Configuration, check_feasible, min_rows_oracle, row_count_s
from .feasibility import ORACLE_MAX_ROWS, ORACLE_MAX_WORKERS
from .harness import (
    PRESET_NAMES,
    make_preset,
    parse_config_file,
    run_experiment,
)

USAGE_ERROR, VALIDATION_ERROR, RUNTIME_ERROR = 1, 2, 3


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


def _cmd_feasible(args) -> int:
    cfg = Configuration(L=args.L, n=args.n, k=args.k)
    budget = check_feasible(cfg)
    for i, (k_i, s_i) in enumerate(zip(cfg.k, budget.s), start=1):
        print(f"level {i}: k={k_i} s={s_i}")
    print(f"total {budget.total} capacity {budget.capacity}")
    print(f"feasible: {'yes' if budget.feasible else 'no'}")
    return 0 if budget.feasible else VALIDATION_ERROR


def _cmd_demo_encode(args) -> int:
    cfg = Configuration(L=args.L, n=args.n, k=args.k)
    h = make_layout(cfg).offsets  # level i is rows h[i-1]:h[i] of A
    if args.m < 1:
        raise ValueError(f"invalid column count: --m must be >= 1, got {args.m}")
    gen = SeededRng(args.seed).generator
    A = gen.standard_normal((h[-1], args.m))
    workers = encode_all(A, cfg)

    lines = ["worker_id,level,block,row,systematic,coefficients"]
    for rec in dump_rows(cfg):
        lines.append(
            f"{rec['worker_id']},{rec['level']},{rec['block']},{rec['row']},"
            f"{rec['systematic']},\"{rec['coefficients']}\""
        )
    text = "\n".join(lines) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise OSError(f"cannot write --output: {exc}") from exc
    else:
        sys.stdout.write(text)

    z = gen.standard_normal(args.m)
    results = [worker_multiply(w, z) for w in workers]
    worst = 0.0
    checked = 0
    for ell in range(1, cfg.L + 1):
        for subset in combinations(range(cfg.L), ell):
            decoded = decode_prefix([results[i] for i in subset])
            for a, b in zip(h, h[1 : ell + 1]):
                block, truth = decoded[a:b], A[a:b] @ z
                denom = max(1.0, float(np.abs(truth).max()) if truth.size else 1.0)
                err = float(np.abs(block - truth).max()) / denom if truth.size else 0.0
                worst = max(worst, err)
            checked += 1
    ok = worst <= 1e-8
    print(f"decode self-test: {'pass' if ok else 'FAIL'} "
          f"({checked} subsets, max relative error {worst:.3e})")
    return 0 if ok else RUNTIME_ERROR


def _cmd_experiment(args) -> int:
    if args.preset == "custom":
        if not args.config:
            print("custom experiments need --config FILE", file=sys.stderr)
            return USAGE_ERROR
        try:
            config = parse_config_file(args.config)
        except ValueError as exc:
            raise ValueError(f"bad config file: {exc}") from exc
    else:
        if args.config:
            print(f"preset {args.preset!r} is fixed; --config is only for 'custom'",
                  file=sys.stderr)
            return USAGE_ERROR
        config = make_preset(args.preset)

    summary = run_experiment(config, args.seed, args.replications, args.output)
    for line in summary.lines():
        print(line)
    print(f"trace written to {Path(args.output)}")
    return 0


def _cmd_oracle_check(args) -> int:
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
        print(f"{mismatches} mismatches in {checked} cases")
        return RUNTIME_ERROR
    print(f"checked {checked} cases: closed form matches the brute-force oracle")
    return 0


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
    """Run one subcommand; the one place an exception becomes an exit code: a
    ValueError is invalid input (2), any other a failure while running (3)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except Exception as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
