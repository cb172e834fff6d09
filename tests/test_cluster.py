import re
from types import SimpleNamespace

import numpy as np
import pytest

from codedseq.cluster import (
    LatencyModel,
    SeededRng,
    order_stat_mean,
    sample_round,
    simulate_wait,
)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(7).spawn(3).generator.random(10)
        b = SeededRng(7).spawn(3).generator.random(10)
        np.testing.assert_array_equal(a, b)

    def test_spawn_keys_give_independent_streams(self):
        a = SeededRng(7).spawn(1).generator.random(10)
        b = SeededRng(7).spawn(2).generator.random(10)
        assert not np.array_equal(a, b)

    def test_negative_seed_is_refused_before_any_draw(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            SeededRng(-1)

    @pytest.mark.parametrize("seed", [3.9, 3.0, np.float64(3.0), "3"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            SeededRng(seed)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3), np.int32(3)])
    def test_numpy_integer_seeds_draw_the_plain_seeds_stream(self, seed):
        got = SeededRng(seed).spawn(1)
        assert type(got.seed) is int
        np.testing.assert_array_equal(got.generator.random(4),
                                      SeededRng(3).spawn(1).generator.random(4))

    @pytest.mark.parametrize("key", [1.7, 1.0, np.float64(1.0), "1"])
    def test_spawn_key_must_be_an_integer(self, key):
        with pytest.raises(ValueError,
                           match=re.escape(f"spawn key must be an integer, got {key!r}")):
            SeededRng(3).spawn(0, key)

    @pytest.mark.parametrize("key", [(-1,), (2, -1)])
    def test_negative_spawn_key_is_refused_at_spawn(self, key):
        # SeedSequence would refuse it only at the first draw
        with pytest.raises(ValueError, match="^spawn key must be >= 0, got -1$"):
            SeededRng(3).spawn(*key)

    def test_numpy_integer_spawn_keys_draw_the_plain_keys_stream(self):
        got = SeededRng(3).spawn(np.int64(1), np.uint8(2))
        assert got._key == (1, 2) and all(type(k) is int for k in got._key)
        np.testing.assert_array_equal(got.generator.random(4),
                                      SeededRng(3).spawn(1, 2).generator.random(4))


class TestSampleRound:
    def test_deterministic_model(self):
        m = LatencyModel.deterministic(1.0)
        out = sample_round(m, 4, SeededRng(0))
        np.testing.assert_array_equal(out, np.ones(4))
        assert all(simulate_wait(m, 4, ell, SeededRng(0))[0] == 1.0 for ell in range(1, 5))

    def test_reproducible_draws(self):
        m = LatencyModel.exponential(1.0)
        a = sample_round(m, 4, SeededRng(5).spawn(1))
        b = sample_round(m, 4, SeededRng(5).spawn(1))
        np.testing.assert_array_equal(a, b)

    def test_rejects_no_workers(self):
        with pytest.raises(ValueError, match="L must be >= 1, got 0"):
            sample_round(LatencyModel.exponential(1.0), 0, SeededRng(0))

    def test_exponential_uses_inverse_cdf(self):
        # generator.random draws u in [0, 1); the latency is -log(1 - u) / rate,
        # bit for bit
        rate = 2.5
        u = SeededRng(9).spawn(0).generator.random(4)
        out = sample_round(LatencyModel.exponential(rate), 4, SeededRng(9).spawn(0))
        assert out.shape == (4,)
        np.testing.assert_array_equal(out, -np.log(1.0 - u) / rate)

    def test_latencies_are_finite(self):
        # a draw of exactly 0 maps to 1 - 0 = 1, so its latency is 0, not inf
        class ZeroDraws:
            generator = SimpleNamespace(random=np.zeros)

        for kind, shift in (("exponential", 0.0), ("shifted-exponential", 0.5)):
            m = LatencyModel(kind, rate=2.0, shift=shift)
            np.testing.assert_array_equal(sample_round(m, 3, ZeroDraws()), np.full(3, shift))
            out = sample_round(m, 10000, SeededRng(0))
            assert np.all(np.isfinite(out)) and np.all(out >= shift)

    def test_shifted_exponential(self):
        m = LatencyModel("shifted-exponential", rate=1.0, shift=0.5)
        out = sample_round(m, 100, SeededRng(3))
        assert np.all(out >= 0.5)

    def test_elapsed_nondecreasing(self):
        m = LatencyModel.exponential(1.0)
        elapsed = [simulate_wait(m, 6, ell, SeededRng(11))[0] for ell in range(1, 7)]
        assert elapsed == sorted(elapsed)
        assert elapsed == np.sort(sample_round(m, 6, SeededRng(11))).tolist()

    def test_order_is_permutation(self):
        # the responder sets of one round grow by one worker per ell, ending at all six
        m = LatencyModel.exponential(1.0)
        sets = [simulate_wait(m, 6, ell, SeededRng(4))[1] for ell in range(1, 7)]
        assert sets[-1] == tuple(range(1, 7))
        assert all(set(a) < set(b) for a, b in zip(sets, sets[1:]))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(kind="weibull")
        with pytest.raises(ValueError):
            LatencyModel.exponential(0.0)
        with pytest.raises(ValueError):
            LatencyModel.deterministic(-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "make,name",
        [
            (lambda v: LatencyModel.exponential(v), "rate"),
            (lambda v: LatencyModel("shifted-exponential", rate=v, shift=0.5), "rate"),
            (lambda v: LatencyModel.deterministic(v), "value"),
            (lambda v: LatencyModel("shifted-exponential", shift=v), "shift"),
        ],
        ids=["exponential-rate", "shifted-rate", "deterministic-value", "shift"],
    )
    def test_parameters_must_be_finite(self, make, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make(bad)

    @pytest.mark.parametrize("kind, name, value", [
        ("deterministic", "rate", 2.0),
        ("deterministic", "shift", 0.5),
        ("exponential", "value", 7.0),
        ("exponential", "shift", 0.5),
        ("shifted-exponential", "value", 7.0),
        ("exponential", "shift", float("nan")),
    ])
    def test_parameters_the_kind_ignores_must_keep_defaults(self, kind, name, value):
        with pytest.raises(ValueError, match=f"latency kind '{kind}' reads only .*; it ignores {name} = "):
            LatencyModel(kind, **{name: value})
        assert LatencyModel(kind) == LatencyModel(kind, **{name: getattr(LatencyModel, name)})


class TestOrderStatMean:
    @pytest.mark.parametrize(
        "ell,expected",
        [(1, 0.25), (2, 7 / 12), (3, 13 / 12), (4, 25 / 12)],
    )
    def test_closed_form(self, ell, expected):
        assert order_stat_mean(LatencyModel.exponential(1.0), 4, ell) == pytest.approx(
            expected
        )

    def test_reported_two_decimal_values(self):
        m = LatencyModel.exponential(1.0)
        assert round(order_stat_mean(m, 4, 1), 2) == 0.25
        assert round(order_stat_mean(m, 4, 2), 2) == 0.58
        assert round(order_stat_mean(m, 4, 3), 2) == 1.08
        assert round(order_stat_mean(m, 4, 4), 2) == 2.08

    def test_rate_scaling(self):
        m = LatencyModel.exponential(4.0)
        assert order_stat_mean(m, 4, 4) == pytest.approx(25 / 48)

    def test_deterministic_and_shifted_laws(self):
        shifted = LatencyModel("shifted-exponential", rate=2.0, shift=0.5)
        for ell in range(1, 5):
            assert order_stat_mean(LatencyModel.deterministic(1.5), 4, ell) == 1.5
            assert order_stat_mean(shifted, 4, ell) == 0.5 + order_stat_mean(
                LatencyModel.exponential(2.0), 4, ell)

    @pytest.mark.parametrize("model", [LatencyModel.deterministic(1.0),
                                       LatencyModel("shifted-exponential", shift=0.5)],
                             ids=lambda m: m.kind)
    def test_every_law_rejects_ell_outside_the_cluster(self, model):
        for ell in (0, 5):
            with pytest.raises(ValueError, match=re.escape(f"ell {ell} outside 1..4")):
                order_stat_mean(model, 4, ell)

    @pytest.mark.parametrize("ell", [0, 5])
    def test_rejects_ell_outside_the_cluster(self, ell):
        with pytest.raises(ValueError, match=re.escape(f"ell {ell} outside 1..4")):
            order_stat_mean(LatencyModel.exponential(1.0), 4, ell)

    def test_monte_carlo_agreement_shifted(self):
        # wide8's law: shift 0.5, rate 1, L = 8
        m = LatencyModel("shifted-exponential", rate=1.0, shift=0.5)
        clock = SeededRng(125)
        n = 20000
        samples = np.sort([sample_round(m, 8, clock) for _ in range(n)], axis=1)
        for ell in range(1, 9):
            col = samples[:, ell - 1]
            stderr = col.std(ddof=1) / np.sqrt(n)
            assert abs(col.mean() - order_stat_mean(m, 8, ell)) <= 3 * stderr


class TestSimulateWait:
    def test_wait_for_all(self):
        elapsed, responders = simulate_wait(
            LatencyModel.exponential(1.0), 4, 4, SeededRng(8).spawn(0)
        )
        out = sample_round(LatencyModel.exponential(1.0), 4, SeededRng(8).spawn(0))
        assert elapsed == out.max()
        assert responders == (1, 2, 3, 4)

    def test_wait_for_first(self):
        elapsed, responders = simulate_wait(
            LatencyModel.exponential(1.0), 4, 1, SeededRng(8).spawn(1)
        )
        out = sample_round(LatencyModel.exponential(1.0), 4, SeededRng(8).spawn(1))
        assert elapsed == out.min()
        assert len(responders) == 1

    def test_responders_exclude_slowest(self):
        rng = SeededRng(42).spawn(2)
        elapsed, responders = simulate_wait(LatencyModel.exponential(1.0), 4, 3, rng)
        out = sample_round(LatencyModel.exponential(1.0), 4, SeededRng(42).spawn(2))
        slowest = int(np.argmax(out)) + 1
        assert slowest not in responders
        assert len(responders) == 3
        assert elapsed == np.sort(out)[2]

    def test_tie_break_by_worker_index(self):
        _, responders = simulate_wait(LatencyModel.deterministic(2.0), 4, 2, SeededRng(0))
        assert responders == (1, 2)


LAWS = [
    LatencyModel.exponential(2.0),
    LatencyModel("shifted-exponential", rate=1.5, shift=0.5),
    LatencyModel.deterministic(0.7),
]


def phase_times(model, rounds, L, rng):
    """A phase's finish times as one (rounds, L) draw on the stream."""
    if model.kind == "deterministic":
        return np.full((rounds, L), model.value)
    return model.shift - np.log(1.0 - rng.generator.random((rounds, L))) / model.rate


class TestPhaseStream:
    """Successive rounds drawn from one stream, as run_sequential draws a phase."""

    @pytest.mark.parametrize("model", LAWS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("L", [1, 4, 7])
    def test_rounds_match_one_phase_draw(self, model, L):
        rounds = 50
        times = phase_times(model, rounds, L, SeededRng(21).spawn(L))
        for ell in range(1, L + 1):
            clock = SeededRng(21).spawn(L)
            for row in times:
                first = np.sort(np.argsort(row, kind="stable")[:ell]) + 1
                elapsed, responders = simulate_wait(model, L, ell, clock)
                assert type(elapsed) is float
                assert elapsed == np.sort(row)[ell - 1]
                assert responders == tuple(first.tolist())
                assert all(type(w) is int for w in responders)

    def test_same_stream_identical(self):
        m = LatencyModel.exponential(1.0)

        def phase(*key):
            clock = SeededRng(3).spawn(*key)
            return [simulate_wait(m, 6, 4, clock) for _ in range(200)]

        assert phase(1, 0) == phase(1, 0)
        assert phase(1, 0) != phase(1, 1)

    def test_mean_matches_order_statistic(self):
        m = LatencyModel.exponential(1.0)
        clock = SeededRng(124)
        n = 20000
        samples = np.array([np.sort(sample_round(m, 4, clock)) for _ in range(n)])
        for ell in range(1, 5):
            col = samples[:, ell - 1]
            stderr = col.std(ddof=1) / np.sqrt(n)
            assert abs(col.mean() - order_stat_mean(m, 4, ell)) <= 3 * stderr

    def test_rejects_bad_sizes(self):
        m = LatencyModel.exponential(1.0)
        with pytest.raises(ValueError):
            simulate_wait(m, 0, 1, SeededRng(0))
        for ell in (0, 5):
            with pytest.raises(ValueError):
                simulate_wait(m, 4, ell, SeededRng(0))

    def test_rejected_call_leaves_the_stream_alone(self):
        m = LatencyModel.exponential(1.0)
        rng = SeededRng(0)
        with pytest.raises(ValueError):
            simulate_wait(m, 4, 5, rng)
        assert simulate_wait(m, 4, 2, rng) == simulate_wait(m, 4, 2, SeededRng(0))
