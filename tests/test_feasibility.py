import random
from itertools import accumulate, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
