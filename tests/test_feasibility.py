import math
import random
import re
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from codedseq import feasibility
from codedseq.feasibility import (
    Configuration,
    auto_configuration,
    check_feasible,
    first_feasible,
    min_rows_oracle,
    row_count_s,
)


class TestRowCount:
    def test_remainder_case_matches_oracle(self):
        assert row_count_s(2, 3, 4) == 7
        assert min_rows_oracle(4, 2, 3) == 7

    def test_divisible_case_matches_oracle(self):
        assert row_count_s(3, 3, 4) == 4
        assert min_rows_oracle(4, 3, 3) == 4

    def test_empty_level_costs_nothing(self):
        assert row_count_s(1, 0, 4) == 0

    def test_rejects_bad_level_index(self):
        with pytest.raises(ValueError):
            row_count_s(0, 1, 4)
        with pytest.raises(ValueError):
            row_count_s(5, 1, 4)
        with pytest.raises(ValueError):
            row_count_s(2, -1, 4)

    @pytest.mark.parametrize("i, k_i, message", [
        (2, 3.0, "k_i must be an integer, got 3.0"),
        (2.0, 3, "level index must be an integer, got 2.0"),
        (2, np.float64(3), "k_i must be an integer, got "),
    ])
    def test_rejects_non_integer_arguments(self, i, k_i, message):
        # the oracle shares the rule, so it refuses them with the same message
        for call in (lambda: row_count_s(i, k_i, 4), lambda: min_rows_oracle(4, i, k_i)):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    def test_numpy_integer_arguments_pass(self):
        assert row_count_s(np.int64(2), np.uint8(3), 4) == 7
        assert type(row_count_s(np.int64(2), np.uint8(3), 4)) is int

    def test_divisibility_exact(self):
        for L in range(1, 6):
            for i in range(1, L + 1):
                for mult in range(0, 5):
                    assert row_count_s(i, mult * i, L) == mult * L

    @given(
        L=st.integers(1, 6),
        i=st.integers(1, 6),
        k=st.integers(0, 30),
    )
    def test_monotone_in_rows(self, L, i, k):
        if i > L:
            return
        assert row_count_s(i, k, L) <= row_count_s(i, k + 1, L)


class TestCheckFeasible:
    def test_reference_example_is_tight(self):
        budget = check_feasible(Configuration(L=4, n=3, k=(0, 3, 3, 1)))
        assert budget.s == (0, 7, 4, 1)
        assert budget.total == 12
        assert budget.capacity == 12
        assert budget.feasible

    def test_single_code_special_case(self):
        budget = check_feasible(Configuration(L=4, n=3, k=(0, 0, 9, 0)))
        assert budget.s[2] == 12
        assert budget.feasible

    def test_overfull_level_one(self):
        budget = check_feasible(Configuration(L=4, n=3, k=(4, 0, 0, 0)))
        assert budget.s[0] == 16
        assert not budget.feasible

    def test_configuration_validation(self):
        with pytest.raises(ValueError):
            Configuration(L=0, n=3, k=())
        with pytest.raises(ValueError):
            Configuration(L=2, n=3, k=(1,))
        with pytest.raises(ValueError):
            Configuration(L=2, n=0, k=(1, 1))
        with pytest.raises(ValueError):
            Configuration(L=2, n=3, k=(1, -1))

    @pytest.mark.parametrize("L, n, k, message", [
        (4, 10, (0, 0, 6.9, 32), "k_3 must be an integer, got 6.9"),
        (4, 10, (0.0, 0, 6, 32), "k_1 must be an integer, got 0.0"),
        (4.0, 10, (0, 0, 6, 32), "L must be an integer, got 4.0"),
        (4, 10.5, (0, 0, 6, 32), "n must be an integer, got 10.5"),
        (4, "10", (0, 0, 6, 32), "n must be an integer, got '10'"),
    ], ids=["k-fraction", "k-integral-float", "L", "n", "n-text"])
    def test_counts_must_be_integers(self, L, n, k, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Configuration(L=L, n=n, k=k)

    def test_numpy_integer_counts_are_plain_ints(self):
        cfg = Configuration(L=np.int64(4), n=np.int32(10), k=np.array([0, 0, 6, 32]))
        assert cfg == Configuration(L=4, n=10, k=(0, 0, 6, 32))
        assert all(type(v) is int for v in (cfg.L, cfg.n, *cfg.k))


class TestOracle:
    def test_single_row_at_top_level(self):
        assert min_rows_oracle(4, 4, 1) == 1

    def test_divisible_case(self):
        assert min_rows_oracle(5, 3, 6) == 10

    def test_guard_rejects_large_instances(self):
        with pytest.raises(ValueError):
            min_rows_oracle(7, 2, 3)
        with pytest.raises(ValueError):
            min_rows_oracle(4, 2, 25)

    @pytest.mark.parametrize("i, k_i, message", [
        (0, 3, "level index 0 outside 1..4"),
        (5, 3, "level index 5 outside 1..4"),
        (2, -1, "k_i must be >= 0, got -1"),
    ])
    def test_rejects_bad_level_or_row_count(self, i, k_i, message):
        with pytest.raises(ValueError, match=message):
            min_rows_oracle(4, i, k_i)

    def test_matches_formula_small_sweep(self):
        for L in range(1, 5):
            for i in range(1, L + 1):
                for k in range(0, 9):
                    assert min_rows_oracle(L, i, k) == row_count_s(i, k, L), (
                        L, i, k,
                    )


class TestFeasibleConfigs:
    def test_contains_rank_schedule_witness(self):
        cfg = first_feasible(4, 10, [(3, 6), (4, 38)])
        assert cfg == Configuration(L=4, n=10, k=(0, 0, 6, 32))
        assert check_feasible(cfg).feasible

    def test_contains_two_level_witness(self):
        cfg = first_feasible(4, 10, [(1, 5), (2, 15)])
        assert cfg == Configuration(L=4, n=10, k=(5, 10, 0, 0))

    def test_impossible_target_yields_nothing(self):
        assert first_feasible(1, 1, [(1, 2)]) is None

    @pytest.mark.parametrize("L, n, targets", [
        (4, 10, [(0, 1)]), (4, 10, [(5, 1)]), (4, 10, [(2, -1)]),
        (0, 10, []), (4, 0, []),
    ])
    def test_rejects_bad_arguments(self, L, n, targets):
        with pytest.raises(ValueError):
            first_feasible(L, n, targets)

    @pytest.mark.parametrize("L, n, message", [
        (0, 10, "L must be >= 1, got 0"), (4, 0, "n must be >= 1, got 0"),
        (4.0, 10, "L must be an integer, got 4.0"), (4, 10.0, "n must be an integer, got 10.0"),
    ])
    def test_shape_follows_the_configuration_rule(self, L, n, message):
        # an explicit k and k = auto refuse a bad shape with the same message
        for call in (lambda: Configuration(L=L, n=n, k=(0,) * 4),
                     lambda: first_feasible(L, n, [(3, 6)]),
                     lambda: auto_configuration(L, n, [6, 38])):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    def test_numpy_integer_shape_gives_plain_ints(self):
        cfg = first_feasible(np.int64(4), np.int32(10), [(3, 6), (4, 38)])
        assert cfg == Configuration(L=4, n=10, k=(0, 0, 6, 32))
        shape = Configuration.check_shape(np.int64(4), np.uint8(10))
        assert shape == (4, 10) and all(type(v) is int for v in shape)

    @pytest.mark.parametrize("targets", [[(3, 6), (3, 2)], [(3, 2), (3, 6)]])
    def test_repeated_level_keeps_largest_rank(self, targets):
        assert first_feasible(4, 10, targets) == first_feasible(4, 10, [(3, 6)])

    def test_reference_configurations_tight(self):
        for n, k in ((10, (0, 0, 6, 32)), (10, (5, 10, 0, 0))):
            budget = check_feasible(Configuration(L=4, n=n, k=k))
            assert budget.feasible
            assert budget.total == budget.capacity == 40


def feasible_box(L, n):
    """Every feasible k on (L, n), by exhaustive lexicographic scan."""
    capacity = n * L
    ranges = [
        range(next(k for k in range(capacity + 2) if row_count_s(i, k, L) > capacity))
        for i in range(1, L + 1)
    ]
    configs = (Configuration(L=L, n=n, k=k) for k in product(*ranges))
    return [cfg for cfg in configs if check_feasible(cfg).feasible]


class TestFeasibleConfigsBruteForce:
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_matches_exhaustive_enumeration(self, L):
        rng = random.Random(L)
        for n in range(1, 5):
            box = feasible_box(L, n)
            cases = [{}] + [
                {rng.randint(1, L): rng.randint(0, n * L + 1)
                 for _ in range(rng.randint(1, 3))}
                for _ in range(12)
            ]
            for targets in cases:
                want = [
                    cfg for cfg in box
                    if all(list(accumulate(cfg.k))[ell - 1] >= rank
                           for ell, rank in targets.items())
                ]
                got = first_feasible(L, n, targets.items())
                assert got == (want[0] if want else None), (L, n, targets)

    def test_rank_above_capacity_yields_nothing(self):
        assert first_feasible(3, 2, [(3, 7)]) is None
        assert first_feasible(3, 2, [(3, 6)]) == Configuration(L=3, n=2, k=(0, 0, 6))


def reference_first_feasible(L, n, targets):
    """``first_feasible`` as an exact O(L^2 R) table computed it before the
    closed-form greedy pass replaced the table; kept as the reference."""
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


class TestAgainstReferenceTable:
    def test_first_feasible_matches_reference(self):
        # unsorted and repeated ell, and ranks past the capacity n*L
        rng = random.Random(24)
        verdicts = set()
        for _ in range(2000):
            L, n = rng.randint(1, 8), rng.randint(1, 15)
            targets = [(rng.randint(1, L), rng.randint(0, n * L + 2))
                       for _ in range(rng.randint(0, 5))]
            want = reference_first_feasible(L, n, targets)
            assert first_feasible(L, n, targets) == want, (L, n, targets)
            verdicts.add(want is None)
        assert verdicts == {True, False}

    def test_auto_configuration_matches_reference(self, monkeypatch):
        rng = random.Random(24)
        cases = []
        for _ in range(500):
            # capacity n*L near 18 at most keeps the reference table cheap
            L = rng.randint(1, 12)
            n = rng.randint(1, max(1, 18 // L))
            count = rng.randint(1, min(4, n * L + 2))
            cases.append((L, n, sorted(rng.sample(range(1, n * L + 3), count))))

        def picks():
            for L, n, ranks in cases:
                try:
                    yield auto_configuration(L, n, ranks)
                except ValueError:
                    yield None

        got = list(picks())
        monkeypatch.setattr(feasibility, "first_feasible", reference_first_feasible)
        assert got == list(picks())
        assert None in got


def single_level(L, n, rank):
    """All rank rows on the smallest level whose row budget holds them, by
    check_feasible alone; None when no level does."""
    for ell in range(1, L + 1):
        cfg = Configuration(L=L, n=n, k=[rank if i == ell else 0 for i in range(1, L + 1)])
        if check_feasible(cfg).feasible:
            return cfg
    return None


class TestAutoConfiguration:
    def test_one_phase_pick_is_the_smallest_single_level(self):
        # the exact baseline is the one-phase case of k = auto; one rank past
        # the capacity n*L fits nowhere
        for L in range(1, 9):
            for n in range(1, 13):
                for rank in range(1, n * L + 2):
                    want = single_level(L, n, rank)
                    if want is None:
                        with pytest.raises(ValueError, match=rf"ranks \[{rank}\]"):
                            auto_configuration(L, n, [rank])
                    else:
                        assert auto_configuration(L, n, [rank]) == want, (L, n, rank)
