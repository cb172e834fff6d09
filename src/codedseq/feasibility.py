"""Feasibility theory for sequential coded matrix-vector multiplication.

A cluster has L workers, each storing an encoded matrix of at most n rows.
A configuration assigns k_i source rows to level i, with the contract that
the first ell levels are recoverable from any ell responding workers.  This
module answers which configurations fit: a closed-form per-level row budget,
an aggregate capacity test, an independent brute-force oracle that
minimises the same row count by exhaustive search over integer allocations,
and the one rule that places a schedule's rows (``auto_configuration``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Configuration",
    "RowBudget",
    "row_count_s",
    "check_feasible",
    "ORACLE_MAX_WORKERS",
    "ORACLE_MAX_ROWS",
    "min_rows_oracle",
    "first_feasible",
    "auto_configuration",
]


@dataclass(frozen=True)
class Configuration:
    """Cluster shape (L workers, n rows each) plus per-level row counts."""

    L: int
    n: int
    k: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        k = tuple(int(v) for v in self.k)
        if len(k) != self.L:
            raise ValueError(f"expected {self.L} level counts, got {len(k)}")
        if any(v < 0 for v in k):
            raise ValueError(f"level counts must be non-negative, got {k}")
        object.__setattr__(self, "k", k)

    @property
    def capacity(self) -> int:
        """Total encoded rows the cluster can hold (n rows on L workers)."""
        return self.n * self.L


@dataclass(frozen=True)
class RowBudget:
    """Per-level encoded-row consumption and the capacity verdict."""

    s: tuple[int, ...]
    total: int
    capacity: int

    @property
    def feasible(self) -> bool:
        return self.total <= self.capacity


def row_count_s(i: int, k_i: int, L: int) -> int:
    """Encoded rows consumed by level i holding k_i source rows.

    Full blocks of i rows each cost L coded rows; a remainder block of
    (k_i mod i) rows costs L - i + (k_i mod i).
    """
    if not 1 <= i <= L:
        raise ValueError(f"level index {i} outside 1..{L}")
    if k_i < 0:
        raise ValueError(f"k_i must be non-negative, got {k_i}")
    full, rem = divmod(k_i, i)
    if rem == 0:
        return full * L
    return full * L + L - i + rem


def check_feasible(cfg: Configuration) -> RowBudget:
    """Aggregate row budget of a configuration against cluster capacity."""
    s = tuple(row_count_s(i, k_i, cfg.L) for i, k_i in enumerate(cfg.k, start=1))
    return RowBudget(s=s, total=sum(s), capacity=cfg.capacity)


def _nonincreasing_allocations(
    length: int, bound: int, best: list[int], partial: list[int], total: int
) -> Iterator[tuple[int, ...]]:
    """Yield nonincreasing integer vectors, pruning totals >= current best."""
    if total >= best[0]:
        return
    if len(partial) == length:
        yield tuple(partial)
        return
    cap = partial[-1] if partial else bound
    for v in range(cap, -1, -1):
        partial.append(v)
        yield from _nonincreasing_allocations(length, bound, best, partial, total + v)
        partial.pop()


# The brute-force oracle's guard: the largest L and k_i it will search.
ORACLE_MAX_WORKERS = 6
ORACLE_MAX_ROWS = 24


def min_rows_oracle(L: int, i: int, k_i: int) -> int:
    """Exact minimum of sum(n_ell) subject to every i-subset covering k_i rows.

    Brute force: worker symmetry lets the search range over nonincreasing
    allocations only, and no optimal allocation needs an entry above
    ceil(k_i / i) (an all-ceil allocation is already feasible, and any larger
    entry can be exchanged downward without breaking a subset constraint).
    Every size-i subset is then checked explicitly, so the result is an
    independent lower-bound witness for ``row_count_s``.  Instances above the
    guard (L > ORACLE_MAX_WORKERS or k_i > ORACLE_MAX_ROWS) raise ValueError.
    """
    if not 1 <= i <= L:
        raise ValueError(f"level index {i} outside 1..{L}")
    if k_i < 0:
        raise ValueError(f"k_i must be non-negative, got {k_i}")
    if L > ORACLE_MAX_WORKERS or k_i > ORACLE_MAX_ROWS:
        raise ValueError(
            f"instance (L={L}, k_i={k_i}) above the oracle guard "
            f"(L <= {ORACLE_MAX_WORKERS}, k_i <= {ORACLE_MAX_ROWS})"
        )
    if k_i == 0:
        return 0

    bound = math.ceil(k_i / i)
    best = [bound * L + 1]  # all-ceil allocation is feasible, so start above it
    subsets = list(combinations(range(L), i))
    for alloc in _nonincreasing_allocations(L, bound, best, [], 0):
        if all(sum(alloc[w] for w in subset) >= k_i for subset in subsets):
            total = sum(alloc)
            if total < best[0]:
                best[0] = total
    return best[0]


def first_feasible(
    L: int, n: int, targets: Iterable[tuple[int, int]]
) -> Configuration | None:
    """The lexicographically first feasible configuration meeting the targets.

    ``targets`` holds (ell, rank) pairs: the cumulative rank k_1 + ... + k_ell
    must reach rank by responder count ell, and a repeated ell keeps its
    largest rank.  Returns None when no feasible configuration meets them.
    """
    if L < 1 or n < 1:
        raise ValueError("L and n must be positive")
    capacity = n * L
    # cumulative requirement by each level (targets at earlier ell bind later)
    required = [0] * (L + 1)
    for ell, rank in targets:
        if not 1 <= ell <= L:
            raise ValueError(f"target level {ell} outside 1..{L}")
        if rank < 0:
            raise ValueError(f"target rank must be non-negative, got {rank}")
        required[ell] = max(required[ell], rank)
    for ell in range(1, L + 1):
        required[ell] = max(required[ell], required[ell - 1])

    R = required[L]
    # every source row costs at least one coded row, which also keeps R <= n*L
    if R > capacity:
        return None
    # least[level][c]: fewest coded rows levels level..L need to meet every
    # remaining target when c source rows (capped at R) precede the level;
    # inf when c already misses required[level - 1].
    least = [[]] * (L + 1) + [[math.inf] * R + [0]]
    for level in range(L, 0, -1):
        # s_i(k_i + i) = s_i(k_i) + L, so k_i is a remainder r < i plus whole
        # blocks, and whole[j] is the least cost of whole blocks from j on
        whole = least[level + 1][:]
        for j in range(R - level, -1, -1):
            whole[j] = min(whole[j], L + whole[j + level])
        part = [row_count_s(level, r, L) for r in range(level)]
        least[level] = [
            min(part[r] + whole[c + r] for r in range(min(level, R - c + 1)))
            if c >= required[level - 1] else math.inf
            for c in range(R + 1)
        ]
    if least[1][0] > capacity:
        return None
    # least is exact, so the smallest k_i that leaves room for the levels after
    # it is never undone; least[level][c] <= room means some k_i <= R - c does
    k: list[int] = []
    room = capacity
    for level in range(1, L + 1):
        c = sum(k)
        k.append(next(k_i for k_i in range(R - c + 1)
                      if row_count_s(level, k_i, L) + least[level + 1][c + k_i] <= room))
        room -= row_count_s(level, k[-1], L)
    return Configuration(L=L, n=n, k=tuple(k))


def auto_configuration(L: int, n: int, ranks: Sequence[int]) -> Configuration:
    """The configuration ``k = auto`` picks for increasing phase ranks.

    It takes the lexicographically first nondecreasing assignment of
    responder counts to the ranks that some feasible configuration supports,
    then the lexicographically first such k.  One rank is the exact scheme:
    all its rows on the smallest level that holds them.  Raises ValueError
    when no feasible configuration supports the ranks.
    """
    # Giving a phase more responders only moves its target to a later level,
    # so feasibility never gets harder as an ell grows: fixing each phase's
    # smallest workable ell in turn, later phases still at L, yields the
    # lexicographically first feasible assignment.
    ells = [L] * len(ranks)
    found = first_feasible(L, n, ())
    for idx in range(len(ranks)):
        for e in range(ells[idx - 1] if idx else 1, L + 1):
            ells[idx] = e
            found = first_feasible(L, n, zip(ells, ranks))
            if found is not None:
                break
        else:
            raise ValueError(f"no feasible configuration supports phase ranks "
                             f"{list(ranks)} on (L={L}, n={n})")
    return found
