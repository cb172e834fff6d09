"""Feasibility theory for sequential coded matrix-vector multiplication.

A cluster has L workers, each storing an encoded matrix of at most n rows.
A configuration assigns k_i source rows to level i, with the contract that
the first ell levels are recoverable from any ell responding workers.  This
module answers which configurations fit: a closed-form per-level row budget,
an aggregate capacity test, an independent brute-force oracle that
minimises the same row count by exhaustive search over integer allocations,
and the one rule that places a schedule's rows (``auto_configuration``).

In parity form the budget is s_i(k_i) = k_i + (L - i) * ceil(k_i / i): each
block of up to i rows on level i adds L - i parity rows.  Parity per row
falls as i grows, so the fewest coded rows that meet a set of cumulative
targets come from one greedy pass over the levels (``_least_rows``, which
gives the exchange argument), and ``first_feasible`` reads the
lexicographically first configuration off that pass one level at a time.
"""
from __future__ import annotations

import math
import operator
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


def as_count(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """value as an int, refusing with a ValueError naming it what is not an
    integer (a float, even 3.0; NumPy integers pass), then a value below
    ``least``, then one outside ``least..most``.  The one rule for the counts
    that configurations, seeds, clusters, schedules and experiments take."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if most is not None and not least <= value <= most:
        raise ValueError(f"{name} {value} outside {least}..{most}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


@dataclass(frozen=True)
class Configuration:
    """Cluster shape (L workers, n rows each) plus per-level row counts."""

    L: int
    n: int
    k: tuple[int, ...]

    def __post_init__(self) -> None:
        L, n = self.check_shape(self.L, self.n)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "n", n)
        k = tuple(as_count(f"k_{i}", v, 0) for i, v in enumerate(self.k, start=1))
        if len(k) != self.L:
            raise ValueError(f"expected {self.L} level counts, got {len(k)}")
        object.__setattr__(self, "k", k)

    @staticmethod
    def check_shape(L: int, n: int) -> tuple[int, int]:
        """L and n as counts (``as_count``), each >= 1; the one rule for a
        cluster's shape."""
        return as_count("L", L, 1), as_count("n", n, 1)

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

    The rows form ceil(k_i / i) blocks of at most i rows, and each block
    adds L - i parity rows: s_i(k_i) = k_i + (L - i) * ceil(k_i / i).  So a
    full block costs L coded rows, and a remainder block of (k_i mod i) rows
    costs L - i + (k_i mod i).  The arguments follow ``_level_args``.
    """
    i, k_i = _level_args(i, k_i, L)
    return k_i + (L - i) * -(-k_i // i)


def _level_args(i: int, k_i: int, L: int) -> tuple[int, int]:
    """i in 1..L (L >= 1) and k_i >= 0 as counts (``as_count``); the one rule
    for a level's arguments."""
    return as_count("level index", i, 1, as_count("L", L, 1)), as_count("k_i", k_i, 0)


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
    guard (L > ORACLE_MAX_WORKERS or k_i > ORACLE_MAX_ROWS) raise ValueError,
    and so do arguments ``row_count_s`` refuses: the oracle shares its
    argument rule, ``_level_args``, and never its value.
    """
    i, k_i = _level_args(i, k_i, L)
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


def _least_rows(L: int, required: Sequence[int], level: int, c: int) -> int:
    """Fewest coded rows levels level..L need to meet every target when
    c >= required[level - 1] source rows precede the level.

    One greedy pass is exact.  The levels hold exactly R - c source rows
    (R = required[L]; rows past R serve no target), so placements differ
    only in parity rows, and a block of up to i rows on level i carries
    L - i of them.  Moving a block from level i to level i + 1 saves one
    parity row while every later prefix holds at least as many rows, so a
    least placement opens on each level only the blocks its own target
    needs.  The spare rows of a level's last partial block are then free,
    and filling them never raises a later level's cost.
    """
    cost = 0
    for i in range(level, L + 1):
        if c < required[i]:
            k_i = min(-(-(required[i] - c) // i) * i, required[L] - c)
            cost += row_count_s(i, k_i, L)
            c += k_i
    return cost


def first_feasible(
    L: int, n: int, targets: Iterable[tuple[int, int]]
) -> Configuration | None:
    """The lexicographically first feasible configuration meeting the targets.

    ``targets`` holds (ell, rank) pairs: the cumulative rank k_1 + ... + k_ell
    must reach rank by responder count ell, and a repeated ell keeps its
    largest rank.  Returns None when no feasible configuration meets them.
    L and n follow ``Configuration.check_shape``; each ell is a count in
    1..L and each rank one >= 0 (``as_count``).
    """
    L, n = Configuration.check_shape(L, n)
    capacity = n * L
    # cumulative requirement by each level (targets at earlier ell bind later)
    required = [0] * (L + 1)
    for ell, rank in targets:
        ell = as_count("target level", ell, 1, L)
        required[ell] = max(required[ell], as_count("target rank", rank, 0))
    for ell in range(1, L + 1):
        required[ell] = max(required[ell], required[ell - 1])

    R = required[L]
    if _least_rows(L, required, 1, 0) > capacity:
        return None
    # _least_rows is exact, so the smallest k_i that leaves room for the levels
    # after it is never undone, and the greedy pass's own k_i always fits
    k: list[int] = []
    room = capacity
    for level in range(1, L + 1):
        c = sum(k)
        k.append(next(k_i for k_i in range(max(0, required[level] - c), R - c + 1)
                      if row_count_s(level, k_i, L)
                      + _least_rows(L, required, level + 1, c + k_i) <= room))
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
