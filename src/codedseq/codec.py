"""Systematic real-valued MDS coding for sequential distributed multiplication.

The source is one matrix A whose rows are in priority order: level i holds
rows h_(i-1)..h_i - 1, with h_i = k_1 + ... + k_i.  A configuration fixes one
block layout (``make_layout``): each level's rows are split into blocks of i
rows (plus a remainder block), every block is expanded with a systematic MDS
code whose parity part is a Cauchy matrix, and the coded rows are dealt across
the L workers so that any ell responders jointly determine the first h_ell
entries of A z.  All coded rows live in one stacked matrix, each worker's rows
a contiguous slice of it.  Encoding, decoding and the row dump all read that
layout.
Decoding from a responder set is one product with that set's decode matrix,
kept in one bounded cache shared by all layouts (``Layout.decoder``).
Products with a large matrix read only the columns on the vector's support
(``support_product``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .feasibility import Configuration, as_count, check_feasible, row_count_s

__all__ = [
    "InfeasibleConfiguration",
    "InsufficientResults",
    "WorkerMatrix",
    "WorkerResult",
    "make_generator",
    "make_layout",
    "encode_all",
    "worker_multiply",
    "decode_prefix",
    "DUMP_COLUMNS",
    "dump_rows",
]

# The keys of a dump_rows record, in the row dump's column order.
DUMP_COLUMNS = ("worker_id", "level", "block", "row", "systematic", "coefficients")

# support_product gates; see its docstring for the measurements behind them
SUPPORT_MIN_ENTRIES = 1 << 16
SUPPORT_COLS_PER_NONZERO = 16

# decode matrices kept by Layout.decoder, over all layouts; see its docstring
DECODER_CACHE_SIZE = 256

_FLOAT = np.dtype(float)
_WORKER_ID = attrgetter("worker_id")


class InfeasibleConfiguration(ValueError):
    """The configuration violates the row-budget bound."""


class InsufficientResults(RuntimeError):
    """Worker results lack coded rows that the layout places on the responders."""


@dataclass(frozen=True)
class WorkerMatrix:
    """One worker's stored coded rows, a view of the layout's stacked matrix."""

    worker_id: int
    rows: np.ndarray
    layout: Layout


class WorkerResult(NamedTuple):
    """One worker's multiplication output and the layout that placed its rows.

    A named tuple: one is built per responder per round, and a tuple is the
    cheapest immutable record to build."""

    worker_id: int
    y: np.ndarray
    layout: Layout


def _cauchy_parity(rows_in: int, parity: int) -> np.ndarray:
    # nodes rows_in..rows_in+parity-1 against 0..rows_in-1 are disjoint, so
    # every square submatrix of the Cauchy block is invertible
    r = np.arange(rows_in, rows_in + parity, dtype=float)[:, None]
    c = np.arange(rows_in, dtype=float)[None, :]
    return 1.0 / (r - c)


@lru_cache(maxsize=None, typed=True)  # typed, so a float such as 3.0 always misses
def make_generator(rows_in: int, rows_out: int) -> np.ndarray:
    """Deterministic systematic MDS generator: the read-only rows_out x rows_in
    array of the identity over a Cauchy parity block.

    Every square submatrix is invertible: its determinant is, up to sign, a
    square minor of the Cauchy block (see ``_cauchy_parity``).  So the code is
    MDS by construction and is not re-checked at run time; the tier-1 suite
    checks every code with at most 12 coded rows by the singular values of
    its square submatrices, 8,178 in all.  rows_out >= 1 and rows_in in
    1..rows_out are counts (``as_count``).
    """
    rows_in = as_count("rows_in", rows_in, 1, as_count("rows_out", rows_out, 1))
    coeffs = np.vstack(
        [np.eye(rows_in), _cauchy_parity(rows_in, rows_out - rows_in)]
    )
    coeffs.setflags(write=False)
    return coeffs


@dataclass(frozen=True)
class Block:
    """Rows start..start+rows_in-1 of the source A, all of one level, coded to
    rows_out rows.

    Coded row r is stored by worker homes[r] (0-based) as row slots[r] of that
    worker's matrix.
    """

    level: int
    index: int
    start: int
    rows_in: int
    rows_out: int
    homes: tuple[int, ...]
    slots: tuple[int, ...]

    @property
    def generator(self) -> np.ndarray:
        return make_generator(self.rows_in, self.rows_out)


@dataclass(frozen=True, eq=False)
class Layout:
    """Block geometry and row placement of one configuration (``make_layout``).

    ``levels[i-1]`` lists the blocks of level i; worker w+1 stores rows
    ``starts[w]:starts[w+1]`` of the stacked coded matrix; level i holds rows
    ``offsets[i-1]:offsets[i]`` of the source, so ell responders decode the
    first ``offsets[ell]`` entries of A z.

    ``decoder`` keeps the DECODER_CACHE_SIZE most recently used decode
    matrices of all layouts in one LRU cache, so memory stays bounded however
    many responder sets a run meets: at large L almost every round meets a
    new one.  256 is above the 177 responder sets the most varied benchmark
    workload can meet at all (wide8: 107 on its sequential layout, 70 on its
    baseline one), so none of them evicts.  At one BLAS thread a rebuilt
    matrix is bit-equal to the evicted one, so eviction never moves a trace.
    """

    levels: tuple[tuple[Block, ...], ...]
    starts: tuple[int, ...]
    offsets: tuple[int, ...]

    # the cache holds self, which costs nothing: make_layout already keeps
    # every layout for the life of the process
    @lru_cache(maxsize=DECODER_CACHE_SIZE)
    def decoder(self, responders: tuple[int, ...]) -> np.ndarray:
        """Decode matrix D_S mapping the outputs of the ascending worker ids S,
        concatenated, to the first offsets[|S|] entries of A z.  Per block it
        reads the lowest-indexed coded rows present and applies the inverse of
        that generator submatrix (an identity, inverted exactly, if systematic).

        The one owner of the responder-set rule: a key that is not distinct
        ascending ids in 1..L raises ValueError.  The key is checked only when
        its matrix is built, so a cached set costs nothing, and a refusal is
        not cached."""
        L = len(self.starts) - 1
        if len(set(responders)) != len(responders):
            raise ValueError(f"worker results must come from distinct workers, got {responders}")
        if list(responders) != sorted(responders):
            raise ValueError(f"worker ids must be ascending, got {responders}")
        if responders and not 1 <= responders[0] <= responders[-1] <= L:
            raise ValueError(f"worker ids must lie in 1..{L}, got {responders}")
        column: dict[int, int] = {}  # worker index -> column of its first row
        width = 0
        for w in responders:
            column[w - 1] = width
            width += self.starts[w] - self.starts[w - 1]
        ell = len(responders)
        D = np.zeros((self.offsets[ell], width))
        for blocks in self.levels[:ell]:
            for blk in blocks:
                got = [(r, column[w] + s) for r, (w, s) in enumerate(zip(blk.homes, blk.slots))
                       if w in column]
                idx, cols = map(list, zip(*got[: blk.rows_in]))
                D[blk.start : blk.start + blk.rows_in, cols] = np.linalg.inv(
                    blk.generator[idx])
        D.setflags(write=False)
        return D


@lru_cache(maxsize=None)
def make_layout(cfg: Configuration) -> Layout:
    """The block layout of a configuration, built once per configuration; the
    one place an infeasible configuration is refused (InfeasibleConfiguration).
    The cache is unbounded on purpose: decode_prefix checks that results share
    one layout object, which holds only while each configuration has one.

    Level i's source rows are split into consecutive blocks of i rows plus a
    remainder block; a block of rows_in rows is coded to
    row_count_s(i, rows_in, L) rows.
    Full-block row r goes to worker r+1.  Remainder-block rows go one each to
    the currently least-loaded workers (ties to the lower worker index),
    levels processed in increasing order.  A full block codes to one row per
    worker, so worker loads never differ by more than one and the largest is
    ceil(total / L) <= n on a feasible configuration.
    """
    budget = check_feasible(cfg)
    if not budget.feasible:
        raise InfeasibleConfiguration(
            f"configuration {cfg.k} is infeasible: row budget {budget.total} "
            f"exceeds capacity {budget.capacity}"
        )
    loads = [0] * cfg.L
    offsets = tuple(accumulate(cfg.k, initial=0))
    levels = []
    for level in range(1, cfg.L + 1):
        blocks = []
        for index, start in enumerate(range(offsets[level - 1], offsets[level], level)):
            rows_in = min(level, offsets[level] - start)
            rows_out = row_count_s(level, rows_in, cfg.L)
            order = range(cfg.L) if rows_in == level else sorted(
                range(cfg.L), key=lambda w: (loads[w], w))
            homes = tuple(order[:rows_out])
            slots = tuple(loads[w] for w in homes)
            for w in homes:
                loads[w] += 1
            blocks.append(Block(level, index, start, rows_in, rows_out, homes, slots))
        levels.append(tuple(blocks))
    return Layout(tuple(levels), tuple(accumulate(loads, initial=0)), offsets)


def encode_all(A: np.ndarray, cfg: Configuration) -> list[WorkerMatrix]:
    """Encode the source A, whose h_L rows are in level order, into one stacked
    coded matrix placed as the configuration's layout says; each worker's
    matrix is its slice of the stack."""
    layout = make_layout(cfg)
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != layout.offsets[-1]:
        raise ValueError(
            f"source of shape {A.shape} does not stack the {layout.offsets[-1]} "
            f"rows of configuration {cfg.k}"
        )
    starts = layout.starts
    W = np.empty((starts[-1], A.shape[1]))
    for blocks in layout.levels:
        for blk in blocks:
            W[[starts[w] + s for w, s in zip(blk.homes, blk.slots)]] = (
                blk.generator @ A[blk.start : blk.start + blk.rows_in])
    W.setflags(write=False)
    return [
        WorkerMatrix(worker_id=w + 1, rows=W[starts[w] : starts[w + 1]], layout=layout)
        for w in range(cfg.L)
    ]


def support_product(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A @ z, reading only the columns of A on the support of z when that pays.

    Lasso iterates are sparse: an optimum of a full-row-rank F has at most
    ``rows`` nonzeros.  The restricted product ``A[:, S] @ z[S]`` with
    S = {j : z_j != 0} is used only when A has at least SUPPORT_MIN_ENTRIES
    entries and SUPPORT_COLS_PER_NONZERO * |S| <= cols; otherwise the result
    is exactly ``A @ z``.  Full -> restricted product, one BLAS thread on a
    2-core Xeon VM, |S| = 9: 38x500 3.4 -> 6.1 us, 64x1000 10.8 -> 8.1 us,
    40x5000 45 -> 11 us, 150x5000 292 -> 16 us.  The column gather loses as
    the support fills: 40x5000 with |S| = cols/16 31 -> 24 us, with
    |S| = cols/4 45 -> 108 us.  Entries equal to -0.0 count as zero; a NaN
    on the support propagates.
    """
    if A.size >= SUPPORT_MIN_ENTRIES:
        z = np.asarray(z)
        support = np.flatnonzero(z != 0)
        if SUPPORT_COLS_PER_NONZERO * support.size <= A.shape[1]:
            return A[:, support].dot(z[support])
    return A.dot(z)


def worker_multiply(worker: WorkerMatrix, z: np.ndarray) -> WorkerResult:
    """One worker's subtask: multiply its stored rows by z."""
    if type(z) is not np.ndarray or z.dtype is not _FLOAT:  # else used as it is
        z = np.asarray(z, dtype=float)
    rows = worker.rows
    if z.ndim != 1 or z.shape[0] != rows.shape[1]:
        raise ValueError(
            f"vector of shape {z.shape} does not match worker matrix "
            f"with {rows.shape[1]} columns"
        )
    return WorkerResult(
        worker_id=worker.worker_id, y=support_product(rows, z), layout=worker.layout
    )


def decode_prefix(results: Sequence[WorkerResult]) -> np.ndarray:
    """The first h_ell entries of A z from the results of ell distinct workers,
    all placed by one layout: the one their results carry.

    They are one multiplication of the concatenated results by the responder
    set's cached decode matrix (``Layout.decoder``).  Results may come in any
    order; they are sorted by worker id first.  The decoder refuses ids that
    are not distinct or not in 1..L, so more than L results too, before the
    results' own checks: each must carry this layout and the row count it
    places on its worker.
    """
    if not results:
        raise ValueError("need at least one worker result")
    layout = results[0].layout
    starts = layout.starts  # worker w stores rows starts[w-1]:starts[w]
    ids = tuple(map(_WORKER_ID, results))
    if sorted(ids) != list(ids):  # simulate_wait's responders come ascending
        results = sorted(results, key=_WORKER_ID)
        ids = tuple(map(_WORKER_ID, results))
    D = layout.decoder(ids)  # refuses ids that are not distinct or not in 1..L
    for res in results:
        # make_layout keeps one layout per configuration for the life of the
        # process, so results of one configuration carry this very object
        w = res.worker_id
        if res.layout is not layout or len(res.y) != starts[w] - starts[w - 1]:
            raise InsufficientResults(
                f"worker {w}: result does not hold the coded rows the layout places there")
    return D.dot(np.concatenate([r.y for r in results]))


def dump_rows(cfg: Configuration) -> Iterator[tuple]:
    """Per-coded-row provenance records in storage order (for the CSV debug
    dump), each a tuple in DUMP_COLUMNS order, read from the configuration's
    layout."""
    placed = sorted(
        ((w, s), blk, r)
        for blocks in make_layout(cfg).levels
        for blk in blocks
        for r, (w, s) in enumerate(zip(blk.homes, blk.slots))
    )
    for (w, _), blk, r in placed:
        coefficients = " ".join(f"{c:.17g}" for c in blk.generator[r])
        yield w + 1, blk.level, blk.index, r, int(r < blk.rows_in), coefficients
