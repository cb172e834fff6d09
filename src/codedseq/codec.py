"""Systematic real-valued MDS coding for sequential distributed multiplication.

The source is one matrix A whose rows are in priority order: level i holds
rows h_(i-1)..h_i - 1, with h_i = k_1 + ... + k_i.  A configuration fixes one
block layout (``make_layout``): each level's rows are split into blocks of i
rows (plus a remainder block), every block is expanded with a systematic MDS
code whose parity part is a Cauchy matrix, and the coded rows are dealt across
the L workers so that any ell responders jointly determine the first h_ell
entries of A z.  Encoding, decoding and the row dump all read that layout.
Decoding from a responder set is one product with a decode matrix built the
first time that set responds.  Products with a large matrix
read only the columns on the vector's support (``support_product``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .feasibility import Configuration, check_feasible, row_count_s

__all__ = [
    "InfeasibleConfiguration",
    "PackingFailure",
    "InsufficientResults",
    "RowTag",
    "SystematicGenerator",
    "WorkerMatrix",
    "WorkerResult",
    "make_generator",
    "make_layout",
    "encode_all",
    "worker_multiply",
    "decode_prefix",
    "dump_rows",
]

MDS_CHECK_LIMIT = 12  # exhaustive submatrix check is O(C(rows_out, rows_in))

# support_product gates; see its docstring for the measurements behind them
SUPPORT_MIN_ENTRIES = 1 << 16
SUPPORT_COLS_PER_NONZERO = 16


class InfeasibleConfiguration(ValueError):
    """The configuration violates the row-budget bound."""


class PackingFailure(RuntimeError):
    """No remainder-row placement respects per-worker capacity."""


class InsufficientResults(RuntimeError):
    """Worker results lack coded rows that the layout places on the responders."""


@dataclass(frozen=True)
class RowTag:
    """Provenance of one coded row: level (1-based), block and row (0-based)."""

    level: int
    block: int
    row: int
    systematic: bool


@dataclass(frozen=True)
class SystematicGenerator:
    """rows_out x rows_in generator whose top square block is the identity."""

    rows_in: int
    rows_out: int
    coefficients: np.ndarray


@dataclass(frozen=True)
class WorkerMatrix:
    """One worker's stored coded rows with per-row provenance tags."""

    worker_id: int
    rows: np.ndarray
    tags: tuple[RowTag, ...]


@dataclass(frozen=True)
class WorkerResult:
    """One worker's multiplication output, tags preserved."""

    worker_id: int
    y: np.ndarray
    tags: tuple[RowTag, ...]


def _cauchy_parity(rows_in: int, parity: int) -> np.ndarray:
    # nodes rows_in..rows_in+parity-1 against 0..rows_in-1 are disjoint, so
    # every square submatrix of the Cauchy block is invertible
    r = np.arange(rows_in, rows_in + parity, dtype=float)[:, None]
    c = np.arange(rows_in, dtype=float)[None, :]
    return 1.0 / (r - c)


@lru_cache(maxsize=None)
def make_generator(rows_in: int, rows_out: int) -> SystematicGenerator:
    """Deterministic systematic MDS generator (identity over Cauchy parity).

    For rows_out <= MDS_CHECK_LIMIT every square submatrix is verified
    invertible; failure raises, since decoding correctness depends on it.
    """
    if not 1 <= rows_in <= rows_out:
        raise ValueError(f"need 1 <= rows_in <= rows_out, got ({rows_in}, {rows_out})")
    coeffs = np.vstack(
        [np.eye(rows_in), _cauchy_parity(rows_in, rows_out - rows_in)]
    )
    coeffs.setflags(write=False)
    gen = SystematicGenerator(rows_in=rows_in, rows_out=rows_out, coefficients=coeffs)
    if rows_out <= MDS_CHECK_LIMIT:
        for rows in combinations(range(rows_out), rows_in):
            sub = coeffs[list(rows)]
            sv = np.linalg.svd(sub, compute_uv=False)
            if sv[-1] <= 1e-10 * max(sv[0], 1.0):
                raise ArithmeticError(
                    f"MDS self-check failed for rows {rows} of generator "
                    f"({rows_in}, {rows_out})"
                )
    return gen


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
    def generator(self) -> SystematicGenerator:
        return make_generator(self.rows_in, self.rows_out)


@dataclass(frozen=True, eq=False)
class Layout:
    """Block geometry and row placement of one configuration (``make_layout``).

    ``levels[i-1]`` lists the blocks of level i; ``tags[w]`` lists the coded
    rows of worker w+1 in storage order; level i holds rows
    ``offsets[i-1]:offsets[i]`` of the source, so ell responders decode the
    first ``offsets[ell]`` entries of A z.  ``decoders`` caches one
    decode matrix per responder set.
    """

    levels: tuple[tuple[Block, ...], ...]
    tags: tuple[tuple[RowTag, ...], ...]
    offsets: tuple[int, ...]
    decoders: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict, repr=False)

    def decoder(self, responders: tuple[int, ...]) -> np.ndarray:
        """Decode matrix D_S mapping the outputs of the ascending worker ids S,
        concatenated, to the first offsets[|S|] entries of A z.  Per block it
        reads the lowest-indexed coded rows present: systematic rows are copied
        verbatim, otherwise the inverse of that generator submatrix is applied."""
        D = self.decoders.get(responders)
        if D is not None:
            return D
        column: dict[int, int] = {}  # worker index -> column of its first row
        width = 0
        for w in responders:
            column[w - 1] = width
            width += len(self.tags[w - 1])
        ell = len(responders)
        D = np.zeros((self.offsets[ell], width))
        for blocks in self.levels[:ell]:
            for blk in blocks:
                got = [(r, column[w] + s) for r, (w, s) in enumerate(zip(blk.homes, blk.slots))
                       if w in column]
                idx, cols = map(list, zip(*got[: blk.rows_in]))
                sub = blk.generator.coefficients[idx]  # the identity if idx is systematic
                D[blk.start : blk.start + blk.rows_in, cols] = (
                    sub if idx == list(range(blk.rows_in)) else np.linalg.inv(sub))
        D.setflags(write=False)
        self.decoders[responders] = D
        return D


@lru_cache(maxsize=None)
def make_layout(cfg: Configuration) -> Layout:
    """The block layout of a configuration, built once per configuration.

    Level i's source rows are split into consecutive blocks of i rows plus a
    remainder block; a block of rows_in rows is coded to
    row_count_s(i, rows_in, L) rows.
    Full-block row r goes to worker r+1.  Remainder-block rows go one each to
    the currently least-loaded workers (ties to the lower worker index),
    levels processed in increasing order.
    """
    budget = check_feasible(cfg)
    if not budget.feasible:
        raise InfeasibleConfiguration(
            f"row budget {budget.total} exceeds capacity {budget.capacity}"
        )
    tags: list[list[RowTag]] = [[] for _ in range(cfg.L)]
    offsets = (0, *cfg.cumulative_ranks())
    levels = []
    for level in range(1, cfg.L + 1):
        blocks = []
        for index, start in enumerate(range(offsets[level - 1], offsets[level], level)):
            rows_in = min(level, offsets[level] - start)
            rows_out = row_count_s(level, rows_in, cfg.L)
            order = range(cfg.L) if rows_in == level else sorted(
                range(cfg.L), key=lambda w: (len(tags[w]), w))
            homes = tuple(order[:rows_out])
            slots = tuple(len(tags[w]) for w in homes)
            for r, w in enumerate(homes):
                tags[w].append(RowTag(level=level, block=index, row=r, systematic=r < rows_in))
            blocks.append(Block(level, index, start, rows_in, rows_out, homes, slots))
        levels.append(tuple(blocks))
    for w, rows in enumerate(tags):
        if len(rows) > cfg.n:
            raise PackingFailure(f"worker {w + 1} holds {len(rows)} > n rows")
    return Layout(tuple(levels), tuple(map(tuple, tags)), offsets)


def encode_all(A: np.ndarray, cfg: Configuration) -> list[WorkerMatrix]:
    """Encode the source A, whose h_L rows are in level order, and deal the
    coded rows across L workers as the configuration's layout places them."""
    layout = make_layout(cfg)
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != layout.offsets[-1]:
        raise ValueError(
            f"source of shape {A.shape} does not stack the {layout.offsets[-1]} "
            f"rows of configuration {cfg.k}"
        )
    stored = [np.empty((len(tags), A.shape[1])) for tags in layout.tags]
    for blocks in layout.levels:
        for blk in blocks:
            coded = blk.generator.coefficients @ A[blk.start : blk.start + blk.rows_in]
            for w, slot, row in zip(blk.homes, blk.slots, coded):
                stored[w][slot] = row
    for rows in stored:
        rows.setflags(write=False)
    return [
        WorkerMatrix(worker_id=w + 1, rows=rows, tags=tags)
        for w, (rows, tags) in enumerate(zip(stored, layout.tags))
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
            return A[:, support] @ z[support]
    return A @ z


def worker_multiply(worker: WorkerMatrix, z: np.ndarray) -> WorkerResult:
    """One worker's subtask: multiply its stored rows by z."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.shape[0] != worker.rows.shape[1]:
        raise ValueError(
            f"vector of shape {z.shape} does not match worker matrix "
            f"with {worker.rows.shape[1]} columns"
        )
    return WorkerResult(
        worker_id=worker.worker_id, y=support_product(worker.rows, z), tags=worker.tags
    )


def decode_prefix(results: Sequence[WorkerResult], cfg: Configuration) -> np.ndarray:
    """The first h_ell entries of A z from the results of ell distinct workers.

    They are one multiplication of the concatenated results by the responder
    set's cached decode matrix (``Layout.decoder``).
    """
    ell = len(results)
    if ell == 0:
        raise ValueError("need at least one worker result")
    if ell > cfg.L:
        raise ValueError(f"got {ell} results for a cluster of {cfg.L} workers")
    ids = [r.worker_id for r in results]
    if len(set(ids)) != ell:
        raise ValueError(f"worker results must come from distinct workers, got {ids}")
    if not all(1 <= w <= cfg.L for w in ids):
        raise ValueError(f"worker ids must lie in 1..{cfg.L}, got {ids}")

    layout = make_layout(cfg)
    results = sorted(results, key=attrgetter("worker_id"))
    for res in results:
        if len(res.tags) != len(res.y):
            raise ValueError(
                f"worker {res.worker_id}: {len(res.y)} values for {len(res.tags)} tags"
            )
        expected = layout.tags[res.worker_id - 1]
        if res.tags is not expected and res.tags != expected:
            raise InsufficientResults(
                f"worker {res.worker_id}: coded rows differ from those of the layout")
    D = layout.decoder(tuple(r.worker_id for r in results))
    return D @ np.concatenate([r.y for r in results])


def dump_rows(
    workers: Iterable[WorkerMatrix], cfg: Configuration
) -> Iterator[dict[str, object]]:
    """Per-coded-row provenance records (for the CSV debug dump)."""
    layout = make_layout(cfg)
    for worker in workers:
        for tag in worker.tags:
            gen = layout.levels[tag.level - 1][tag.block].generator
            coeffs = " ".join(f"{c:.17g}" for c in gen.coefficients[tag.row])
            yield {
                "worker_id": worker.worker_id,
                "level": tag.level,
                "block": tag.block,
                "row": tag.row,
                "systematic": int(tag.systematic),
                "coefficients": coeffs,
            }
