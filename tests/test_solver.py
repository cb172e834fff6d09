import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import WIDE8_INI, spectral_norm_power, truncated_dense

import codedseq.codec as codec_module
import codedseq.solver as solver_module
from codedseq.cluster import LatencyModel, SeededRng, simulate_wait
from codedseq.codec import decode_prefix, encode_all, worker_multiply
from codedseq.feasibility import Configuration, auto_configuration
from codedseq.harness import make_preset, parse_config_file, resolve_configuration
from codedseq.problems import designed_problem, gaussian_problem
from codedseq.solver import (
    ApproxSchedule,
    CodedMatvecSystem,
    LassoProblem,
    Phase,
    SvdFactors,
    optimality_residual,
    reference_solution,
    run_sequential,
    sequential_matvec,
    soft_threshold,
    subgradient_residual,
)


def small_problem(seed=0, rows=8, cols=20, gamma=0.5):
    rng = np.random.default_rng(seed)
    return LassoProblem(
        F=rng.standard_normal((rows, cols)), b=rng.standard_normal(rows), gamma=gamma
    )


class TestLassoProblem:
    @pytest.mark.parametrize("gamma", [-1.0, np.nan, np.inf])
    def test_gamma_must_be_finite_and_nonnegative(self, gamma):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            LassoProblem(F=rng.standard_normal((4, 6)), b=rng.standard_normal(4), gamma=gamma)

    def test_zero_gamma_accepted(self):
        assert small_problem(gamma=0.0).gamma == 0.0

    def test_b_must_match_the_rows_of_f(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"inconsistent shapes: F \(4, 6\), b \(5,\)"):
            LassoProblem(F=rng.standard_normal((4, 6)), b=rng.standard_normal(5), gamma=1.0)


class TestSoftThreshold:
    def test_positive_shrink(self):
        assert soft_threshold(np.array([2.0]), 0.5)[0] == pytest.approx(1.5)

    def test_dead_zone(self):
        assert soft_threshold(np.array([-0.3]), 0.5)[0] == 0.0

    def test_negative_shrink(self):
        assert soft_threshold(np.array([-2.0]), 0.5)[0] == pytest.approx(-1.5)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0]), -0.1)

    @given(
        v=st.floats(-1e6, 1e6, allow_nan=False),
        theta=st.floats(0, 1e6, allow_nan=False),
    )
    def test_shrinks_magnitude_by_theta(self, v, theta):
        out = soft_threshold(np.array([v]), theta)[0]
        assert abs(out) == pytest.approx(max(abs(v) - theta, 0.0), abs=1e-9)
        assert out * v >= 0.0


class TestSvd:
    def test_full_rank_truncation_reconstructs(self):
        prob = small_problem(1)
        svd = SvdFactors.from_matrix(prob.F)
        full = truncated_dense(svd, svd.rank)
        err = np.linalg.norm(full - prob.F) / np.linalg.norm(prob.F)
        assert err <= 1e-12

    def test_orthonormal_factors(self):
        svd = SvdFactors.from_matrix(small_problem(2).F)
        np.testing.assert_allclose(svd.U.T @ svd.U, np.eye(svd.rank), atol=1e-10)
        np.testing.assert_allclose(svd.V.T @ svd.V, np.eye(svd.rank), atol=1e-10)

    def test_rank_one_error_is_second_singular_value(self):
        prob = small_problem(3)
        svd = SvdFactors.from_matrix(prob.F)
        E = prob.F - truncated_dense(svd, 1)
        assert spectral_norm_power(E, seed=3) == pytest.approx(
            svd.sigma[1], abs=1e-9
        )

    def test_truncation_error_eckart_young(self):
        prob = small_problem(4)
        svd = SvdFactors.from_matrix(prob.F)
        for r in range(1, svd.rank):
            E = prob.F - truncated_dense(svd, r)
            assert spectral_norm_power(E, seed=r) == pytest.approx(
                svd.sigma[r], abs=1e-8
            )

    def test_monotone_approximation(self):
        svd = SvdFactors.from_matrix(small_problem(5).F)
        gaps = svd.sigma**2  # ||H - H_(r)||_2 = sigma_{r+1}^2
        assert np.all(np.diff(gaps) <= 1e-12)

    def test_quadratic_truncation_gap_is_squared_singular_value(self):
        F = small_problem(6).F
        svd = SvdFactors.from_matrix(F)
        H = F.T @ F
        for r in (1, 3, 5):
            Fr = truncated_dense(svd, r)
            gap = spectral_norm_power(H - Fr.T @ Fr, seed=r)
            assert gap == pytest.approx(svd.sigma[r] ** 2, rel=1e-9)


def assert_factors_match_lapack(svd, F, tol):
    sigma = np.linalg.svd(F, compute_uv=False)
    np.testing.assert_allclose(svd.sigma, sigma[: svd.rank], rtol=tol, atol=0)
    eye = np.eye(svd.rank)
    assert np.abs(svd.U.T @ svd.U - eye).max() <= tol
    assert np.abs(svd.V.T @ svd.V - eye).max() <= tol
    dense = svd.U @ (svd.sigma[:, None] * svd.V.T)
    assert np.abs(dense - F).max() <= tol * np.abs(F).max()
    assert svd.V.flags.f_contiguous


def ill_conditioned_matrix():
    """38 x 500 with sigma spanning 1 ... 1e-7."""
    rng = np.random.default_rng(1)
    Q1, _ = np.linalg.qr(rng.standard_normal((38, 38)))
    Q2, _ = np.linalg.qr(rng.standard_normal((500, 38)))
    return Q1 @ (np.logspace(0, -7, 38)[:, None] * Q2.T)


class TestSvdPaths:
    @staticmethod
    def forbid_lapack(monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("the Gram route should have been certified")

        monkeypatch.setattr(np.linalg, "svd", unused)

    def test_gram_route(self, monkeypatch):
        F = designed_problem(SeededRng(4).spawn(0, 0)).problem.F
        self.forbid_lapack(monkeypatch)
        svd = SvdFactors.from_matrix(F)
        monkeypatch.undo()
        assert svd.rank == min(F.shape)
        assert_factors_match_lapack(svd, F, 1e-13)

    def test_rank_deficient_falls_back(self):
        F = np.random.default_rng(0).standard_normal((38, 500))
        F[-1] = F[0]
        svd = SvdFactors.from_matrix(F)
        assert svd.rank == 37
        assert_factors_match_lapack(svd, F, 1e-13)

    @pytest.mark.parametrize(
        "make",
        [
            ill_conditioned_matrix,
            lambda: gaussian_problem(SeededRng(5), rows=60, cols=20).F,
        ],
        ids=["ill-conditioned", "tall"],
    )
    def test_lapack_route(self, monkeypatch, make):
        F = make()
        calls = []
        lapack = np.linalg.svd

        def recording(*args, **kwargs):
            calls.append(1)
            return lapack(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        svd = SvdFactors.from_matrix(F)
        monkeypatch.undo()
        assert calls == [1]
        _, sigma, Vt = np.linalg.svd(F, full_matrices=False)
        np.testing.assert_array_equal(svd.sigma, sigma)
        np.testing.assert_array_equal(svd.V, Vt.T)
        assert svd.V.flags.f_contiguous

    def test_non_finite_matrix_raises(self):
        F = designed_problem(SeededRng(4).spawn(0, 0)).problem.F.copy()
        F[3, 7] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            SvdFactors.from_matrix(F)


def setup_decode(V, cfg, seed):
    """(t, z): every worker's coded product with V^T's rows, decoded, at a
    random z; t holds the first h_L entries of V^T z."""
    svd = SvdFactors(U=np.eye(V.shape[1]), sigma=np.ones(V.shape[1]), V=V)
    system = CodedMatvecSystem(cfg, svd)
    z = np.random.default_rng(seed).standard_normal(V.shape[0])
    return decode_prefix([worker_multiply(w, z) for w in system.workers]), z


class TestLevelBlocks:
    def test_reference_split_example_one(self):
        V = np.random.default_rng(0).standard_normal((50, 38))
        V, _ = np.linalg.qr(V)
        cfg = Configuration(L=4, n=10, k=(0, 0, 6, 32))
        t, z = setup_decode(V, cfg, 10)
        assert t.shape == (38,)
        np.testing.assert_allclose(t[:6], V[:, :6].T @ z, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(t[6:38], V[:, 6:38].T @ z, rtol=1e-10, atol=1e-12)

    def test_reference_split_example_two(self):
        V = np.linalg.qr(np.random.default_rng(1).standard_normal((40, 20)))[0]
        cfg = Configuration(L=4, n=10, k=(5, 10, 0, 0))
        t, z = setup_decode(V, cfg, 11)
        np.testing.assert_allclose(t[:5], V[:, :5].T @ z, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(t[5:15], V[:, 5:15].T @ z, rtol=1e-10, atol=1e-12)

    def test_single_level_takes_everything(self):
        V = np.linalg.qr(np.random.default_rng(2).standard_normal((12, 6)))[0]
        # level 1 replicates every row on both workers, so n = 6
        cfg = Configuration(L=2, n=6, k=(6, 0))
        t, z = setup_decode(V, cfg, 12)
        np.testing.assert_allclose(t, V.T @ z, rtol=1e-10, atol=1e-12)

    def test_rejects_overfull(self):
        V = np.linalg.qr(np.random.default_rng(3).standard_normal((12, 4)))[0]
        with pytest.raises(ValueError, match="does not stack the 5 rows"):
            setup_decode(V, Configuration(L=2, n=10, k=(3, 2)), 13)


class TestSchedule:
    def test_auto_ell(self):
        cfg = Configuration(L=4, n=10, k=(0, 0, 6, 32))
        sched = ApproxSchedule(cfg, [(6, 30), (38, 100)])
        assert [p.ell for p in sched.phases] == [3, 4]

    def test_rejects_nonincreasing_ranks(self):
        cfg = Configuration(L=4, n=10, k=(0, 0, 6, 32))
        with pytest.raises(ValueError):
            ApproxSchedule(cfg, [(38, 10), (6, 10)])

    def test_rejects_unreachable_rank(self):
        cfg = Configuration(L=4, n=10, k=(0, 0, 6, 32))
        with pytest.raises(ValueError, match="no responder count reaches rank 39"):
            ApproxSchedule(cfg, [(6, 5), (39, 5)])

    @pytest.mark.parametrize("k,specs,match", [
        ((0, 0, 6, 32), [], "at least one phase"),
        ((0, 0, 6, 32), [(6, 5), (38, 0)], "iteration count must be >= 1"),
        ((9, 9, 9, 9), [(6, 5)], "infeasible"),
    ], ids=["no-phase", "no-iterations", "infeasible"])
    def test_rejects_bad_schedule(self, k, specs, match):
        with pytest.raises(ValueError, match=match):
            ApproxSchedule(Configuration(L=4, n=10, k=k), specs)

    @pytest.mark.parametrize("specs, message", [
        ([(6.5, 30), (38, 400)], "phase rank must be an integer, got 6.5"),
        ([(6, 30.5), (38, 400)], "phase iterations must be an integer, got 30.5"),
        ([(6, 30), (38.0, 400)], "phase rank must be an integer, got 38.0"),
        ([(6, 30), (38, np.float64(400))], "phase iterations must be an integer, got "),
    ], ids=["rank", "iterations", "integral-float-rank", "numpy-float-iterations"])
    def test_rejects_non_integer_counts(self, specs, message):
        cfg = Configuration(L=4, n=10, k=(0, 0, 6, 32))
        with pytest.raises(ValueError, match=re.escape(message)):
            ApproxSchedule(cfg, specs)

    def test_numpy_integer_counts_are_plain_ints(self):
        cfg = Configuration(L=4, n=10, k=(0, 0, 6, 32))
        sched = ApproxSchedule(cfg, [(np.int64(6), np.int32(30)), (np.uint16(38), 40)])
        assert sched.phases == (Phase(6, 30, 3), Phase(38, 40, 4))
        assert all(type(v) is int for p in sched.phases for v in (p.rank, p.iterations))

    def test_takes_no_responder_count(self):
        cfg = Configuration(L=4, n=10, k=(5, 10, 0, 0))
        with pytest.raises(TypeError):
            ApproxSchedule(cfg, [(5, 5)], phases=(Phase(rank=5, iterations=5, ell=2),))

    @pytest.mark.parametrize("name", ["example1", "example2", "wide8"])
    def test_ell_is_the_least_covering_count(self, name):
        config = (parse_config_file(WIDE8_INI) if name == "wide8"
                  else make_preset(name))
        cfg = resolve_configuration(config)
        covering = [sum(cfg.k[:ell]) for ell in range(1, cfg.L + 1)]
        for rank in range(1, covering[-1] + 1):
            least = min(ell for ell in range(1, cfg.L + 1) if covering[ell - 1] >= rank)
            sched = ApproxSchedule(cfg, [(rank, 1)])
            assert sched.phases == (Phase(rank=rank, iterations=1, ell=least),)


def tiny_coded_setup(seed=0):
    """Problem whose SVD rank 6 fits a (L=3, n=3) cluster exactly."""
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((6, 15))
    problem = LassoProblem(F=F, b=rng.standard_normal(6), gamma=0.3)
    svd = SvdFactors.from_matrix(F)
    cfg = Configuration(L=3, n=3, k=(1, 2, 3))
    system = CodedMatvecSystem(cfg, svd)
    return problem, svd, cfg, system


class TestCodedMatvecSystem:
    def test_workers_are_the_encoded_top_singular_vectors(self):
        _, svd, cfg, system = tiny_coded_setup(3)
        want = encode_all(svd.V[:, : sum(cfg.k)].T, cfg)
        assert len(system.workers) == len(want) == cfg.L
        for got, ref in zip(system.workers, want):
            assert got.worker_id == ref.worker_id and got.layout is ref.layout
            np.testing.assert_array_equal(got.rows, ref.rows)

    def test_takes_no_workers(self):
        _, svd, cfg, system = tiny_coded_setup()
        with pytest.raises(TypeError):
            CodedMatvecSystem(cfg, svd, workers=system.workers)

    def test_squared_singular_values_are_fixed_at_build(self):
        _, svd, cfg, system = tiny_coded_setup()
        assert system.sigma2.tobytes() == (svd.sigma ** 2).tobytes()
        with pytest.raises(TypeError):
            CodedMatvecSystem(cfg, svd, sigma2=system.sigma2)


class TestSequentialMatvec:
    def test_zero_vector(self):
        _, _, cfg, system = tiny_coded_setup()
        phase = Phase(rank=6, iterations=1, ell=3)
        g, elapsed = sequential_matvec(
            np.zeros(15), phase, system, LatencyModel.exponential(1.0), SeededRng(0)
        )
        np.testing.assert_array_equal(g, np.zeros(15))
        assert elapsed > 0

    def test_full_rank_matches_dense(self):
        problem, svd, cfg, system = tiny_coded_setup(1)
        phase = Phase(rank=6, iterations=1, ell=3)
        x = np.random.default_rng(4).standard_normal(15)
        g, _ = sequential_matvec(
            x, phase, system, LatencyModel.exponential(1.0), SeededRng(1)
        )
        dense = problem.F.T @ (problem.F @ x)
        np.testing.assert_allclose(g, dense, rtol=1e-8, atol=1e-10)

    def test_partial_rank_matches_truncation(self):
        problem, svd, cfg, system = tiny_coded_setup(2)
        phase = Phase(rank=3, iterations=1, ell=2)
        x = np.random.default_rng(5).standard_normal(15)
        g, _ = sequential_matvec(
            x, phase, system, LatencyModel.exponential(1.0), SeededRng(2)
        )
        Fr = truncated_dense(svd, 3)
        np.testing.assert_allclose(g, Fr.T @ (Fr @ x), rtol=1e-8, atol=1e-10)

    def test_top_singular_vector_is_eigenvector(self):
        _, svd, cfg, system = tiny_coded_setup(3)
        v1 = svd.V[:, 0]
        for rank, ell in [(1, 1), (3, 2), (6, 3)]:
            phase = Phase(rank=rank, iterations=1, ell=ell)
            g, _ = sequential_matvec(
                v1, phase, system, LatencyModel.exponential(1.0), SeededRng(3)
            )
            np.testing.assert_allclose(g, svd.sigma[0] ** 2 * v1, rtol=1e-8)

    def test_linear_in_x(self):
        _, _, cfg, system = tiny_coded_setup(4)
        phase = Phase(rank=3, iterations=1, ell=2)
        model = LatencyModel.deterministic(1.0)
        rng = np.random.default_rng(6)
        x1, x2 = rng.standard_normal(15), rng.standard_normal(15)
        g1, _ = sequential_matvec(x1, phase, system, model, SeededRng(0))
        g2, _ = sequential_matvec(x2, phase, system, model, SeededRng(0))
        g12, _ = sequential_matvec(2.0 * x1 + x2, phase, system, model, SeededRng(0))
        np.testing.assert_allclose(g12, 2.0 * g1 + g2, rtol=1e-9, atol=1e-11)

    def test_rank_beyond_decoded_prefix_raises(self):
        # one responder decodes h_1 = 1 entry; the hand-built phase skips
        # ApproxSchedule's reachability check
        _, _, cfg, system = tiny_coded_setup()
        phase = Phase(rank=6, iterations=1, ell=1)
        with pytest.raises(RuntimeError, match="decoded 1 components, phase needs 6"):
            sequential_matvec(
                np.zeros(15), phase, system, LatencyModel.exponential(1.0), SeededRng(0)
            )

    @pytest.mark.parametrize("rank,ell", [(1, 1), (3, 2), (6, 3)])
    def test_every_responder_set_on_one_stream(self, rank, ell):
        problem, svd, cfg, system = tiny_coded_setup(5)
        phase = Phase(rank=rank, iterations=1, ell=ell)
        model = LatencyModel.exponential(1.0)
        x = np.random.default_rng(7).standard_normal(15)
        Fr = truncated_dense(svd, rank)
        clock, twin = SeededRng(6).spawn(ell), SeededRng(6).spawn(ell)
        seen = set()
        for _ in range(60):
            g, elapsed = sequential_matvec(x, phase, system, model, clock)
            want_elapsed, responders = simulate_wait(model, 3, ell, twin)
            assert elapsed == want_elapsed
            np.testing.assert_allclose(g, Fr.T @ (Fr @ x), rtol=1e-8, atol=1e-10)
            seen.add(responders)
        assert seen == set(combinations(range(1, 4), ell))


def ista_reference_iterates(problem, iters):
    """Plain in-memory ISTA from zero, constant step 1/sigma_max^2."""
    sigma = np.linalg.svd(problem.F, compute_uv=False)
    t = 1.0 / sigma[0] ** 2
    h = problem.F.T @ problem.b
    x = np.zeros(problem.cols)
    out = []
    for _ in range(iters):
        x = soft_threshold(
            x - t * (problem.F.T @ (problem.F @ x) - h), t * problem.gamma
        )
        out.append(x.copy())
    return out


def assert_same_columns(a, b):
    """Exact equality of every column of two run traces."""
    assert len(a) == len(b)
    for name in ("phase", "iter_time", "cum_time", "objective", "suboptimality"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestRunSequential:
    def test_matches_inmemory_ista_at_full_rank(self):
        problem, svd, cfg, _ = tiny_coded_setup(7)
        sched = ApproxSchedule(cfg, [(6, 50)])
        trace = run_sequential(
            problem, sched, LatencyModel.deterministic(1.0), SeededRng(0),
            svd=svd, x_star=np.zeros(15), keep_iterates=True,
        )
        ref = ista_reference_iterates(problem, 50)
        assert trace.iterates.shape == (50, 15)
        for got, want in zip(trace.iterates, ref):
            denom = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(got - want) / denom <= 1e-8

    def test_deterministic_latency_constant_iteration_cost(self):
        problem, svd, cfg, _ = tiny_coded_setup(8)
        sched = ApproxSchedule(cfg, [(6, 10)])
        trace = run_sequential(
            problem, sched, LatencyModel.deterministic(0.7), SeededRng(1),
            svd=svd, x_star=np.zeros(15),
        )
        assert np.all(trace.iter_time == 0.7)
        np.testing.assert_allclose(trace.cum_time, 0.7 * np.arange(1, 11))

    def test_same_seed_identical_traces(self):
        problem, svd, cfg, _ = tiny_coded_setup(9)
        sched = ApproxSchedule(cfg, [(3, 5), (6, 5)])
        kwargs = dict(svd=svd, x_star=np.zeros(15))
        t1 = run_sequential(problem, sched, LatencyModel.exponential(1.0), SeededRng(5), **kwargs)
        t2 = run_sequential(problem, sched, LatencyModel.exponential(1.0), SeededRng(5), **kwargs)
        assert_same_columns(t1, t2)

    def test_record_count_and_cum_time(self):
        problem, svd, cfg, _ = tiny_coded_setup(10)
        sched = ApproxSchedule(cfg, [(3, 4), (6, 3)])
        trace = run_sequential(
            problem, sched, LatencyModel.exponential(1.0), SeededRng(2),
            svd=svd, x_star=np.zeros(15),
        )
        assert len(trace) == 7
        assert np.all(np.diff(trace.cum_time) > 0)
        assert trace.lengths == (4, 3)  # the phase column is derived
        assert trace.phase.tolist() == [1] * 4 + [2] * 3
        running, cum = 0.0, []
        for t in trace.iter_time.tolist():
            running += t
            cum.append(running)
        assert trace.cum_time.tolist() == cum  # the loop's running sum, bit for bit

    def test_charge_second_round_doubles_expected_cost(self):
        problem, svd, cfg, _ = tiny_coded_setup(11)
        sched = ApproxSchedule(cfg, [(6, 6)])
        one = run_sequential(
            problem, sched, LatencyModel.deterministic(1.0), SeededRng(0),
            svd=svd, x_star=np.zeros(15),
        )
        two = run_sequential(
            problem, sched, LatencyModel.deterministic(1.0), SeededRng(0),
            svd=svd, x_star=np.zeros(15), charge_second_round=True,
        )
        assert float(two.cum_time[-1]) == pytest.approx(2 * float(one.cum_time[-1]))

    @pytest.mark.parametrize("charged", [False, True])
    def test_round_times_follow_phase_streams(self, charged):
        problem, svd, cfg, _ = tiny_coded_setup(13)
        sched = ApproxSchedule(cfg, [(3, 6), (6, 5)])
        model = LatencyModel("shifted-exponential", rate=1.5, shift=0.2)
        trace = run_sequential(
            problem, sched, model, SeededRng(4),
            svd=svd, x_star=np.zeros(15), charge_second_round=charged,
        )
        want = []
        for p, phase in enumerate(sched.phases, start=1):
            clock, second_clock = SeededRng(4).spawn(p, 0), SeededRng(4).spawn(p, 1)
            for _ in range(phase.iterations):
                t, _ = simulate_wait(model, 3, phase.ell, clock)
                if charged:
                    t += simulate_wait(model, 3, phase.ell, second_clock)[0]
                want.append(t)
        assert trace.iter_time.tolist() == want

    def test_clock_builds_two_streams_per_phase(self, monkeypatch):
        builds = []
        generator = SeededRng.generator

        def counting(rng):
            if rng._gen is None:
                builds.append(rng._key)
            return generator.fget(rng)

        monkeypatch.setattr(SeededRng, "generator", property(counting))
        problem, svd, cfg, _ = tiny_coded_setup(14)
        sched = ApproxSchedule(cfg, [(3, 6), (6, 5)])
        trace = run_sequential(
            problem, sched, LatencyModel.exponential(1.0), SeededRng(5).spawn(0, 1),
            svd=svd, x_star=np.zeros(15), charge_second_round=True,
        )
        assert len(trace) == 11
        assert sorted(builds) == [(0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 2, 0), (0, 1, 2, 1)]

    def test_phase_objective_descends(self):
        rng = SeededRng(77)
        designed = designed_problem(rng, rows=16, cols=60, gamma=1.0)
        problem = designed.problem
        svd = SvdFactors.from_matrix(problem.F)
        cfg = Configuration(L=3, n=7, k=(3, 4, 5))
        sched = ApproxSchedule(cfg, [(3, 25), (12, 25)])
        trace = run_sequential(
            problem, sched, LatencyModel.exponential(1.0), SeededRng(3),
            svd=svd, x_star=designed.planted_optimum, keep_iterates=True,
        )
        for phase in sched.phases:
            Fr = truncated_dense(svd, phase.rank)
            vals = [
                0.5 * np.sum((Fr @ x - problem.b) ** 2)
                + problem.gamma * np.abs(x).sum()
                for x in trace.iterates[trace.phase == sched.phases.index(phase) + 1]
            ]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-9 * max(1.0, abs(a))

    def test_phase_fixed_point(self):
        # a long single truncated phase settles at the truncated problem's optimum
        rng = SeededRng(78)
        designed = designed_problem(rng, rows=16, cols=50, gamma=1.0)
        problem = designed.problem
        svd = SvdFactors.from_matrix(problem.F)
        cfg = Configuration(L=2, n=13, k=(4, 6))
        sched = ApproxSchedule(cfg, [(4, 3000)])
        trace = run_sequential(
            problem, sched, LatencyModel.deterministic(1.0), SeededRng(0),
            svd=svd, x_star=designed.planted_optimum, keep_iterates=True,
        )
        x = trace.iterates[-1]
        Fr = truncated_dense(svd, 4)
        g = Fr.T @ (Fr @ x - problem.b)
        assert subgradient_residual(g, x, problem.gamma) <= 1e-8

    @pytest.mark.parametrize("planted", [True, False], ids=["x_star", "zero"])
    def test_suboptimality_is_relative_norm(self, planted):
        # x_star = 0 divides by 1 instead of its norm
        designed = designed_problem(SeededRng(79), rows=16, cols=60, gamma=1.0)
        x_star = designed.planted_optimum if planted else np.zeros(60)
        sched = ApproxSchedule(Configuration(L=3, n=7, k=(3, 4, 5)), [(3, 20), (12, 30)])
        trace = run_sequential(
            designed.problem, sched, LatencyModel.exponential(1.0), SeededRng(4),
            svd=SvdFactors.from_matrix(designed.problem.F), x_star=x_star,
            keep_iterates=True,
        )
        denom = float(np.linalg.norm(x_star)) if planted else 1.0
        want = [float(np.linalg.norm(x - x_star)) / denom for x in trace.iterates]
        assert trace.suboptimality.tolist() == want

    def test_support_products_leave_trace_unchanged(self, monkeypatch):
        # F (60 x 1500) and every worker (45 x 1500) pass the size gate, so
        # the worker products, objective and reference read only the support
        designed = designed_problem(SeededRng(5).spawn(0, 0), rows=60, cols=1500)
        problem = designed.problem
        svd = SvdFactors.from_matrix(problem.F)
        cfg = Configuration(L=4, n=45, k=(30, 30, 0, 0))
        sched = ApproxSchedule(cfg, [(20, 40), (60, 60)])
        system = CodedMatvecSystem(cfg, svd)
        assert problem.F.size >= codec_module.SUPPORT_MIN_ENTRIES
        assert all(w.rows.size >= codec_module.SUPPORT_MIN_ENTRIES for w in system.workers)

        def run():
            x_star, res = reference_solution(problem, svd=svd)
            assert res <= 1e-10
            x_opt = designed.planted_optimum
            assert np.linalg.norm(x_star - x_opt) / np.linalg.norm(x_opt) <= 1e-8
            return run_sequential(
                problem, sched, LatencyModel.exponential(1.0), SeededRng(6),
                svd=svd, x_star=x_star, keep_iterates=True,
            )

        sparse = run()
        nonzeros = max(np.count_nonzero(x) for x in sparse.iterates)
        assert codec_module.SUPPORT_COLS_PER_NONZERO * nonzeros <= problem.cols
        monkeypatch.setattr(codec_module, "SUPPORT_MIN_ENTRIES", np.iinfo(np.int64).max)
        dense = run()
        assert len(sparse) == len(dense) == 100
        for name in ("phase", "iter_time", "cum_time"):
            np.testing.assert_array_equal(getattr(sparse, name), getattr(dense, name))
        gap = np.abs(sparse.objective - dense.objective)
        assert np.all(gap <= 1e-12 * np.abs(dense.objective))
        assert np.all(np.abs(sparse.suboptimality - dense.suboptimality) <= 1e-12)


def exact_schedule(L, n, rank, iterations):
    """The baseline: one exact phase on the one-phase ``k = auto`` pick."""
    return ApproxSchedule(auto_configuration(L, n, [rank]), [(rank, iterations)])


class TestBaseline:
    def test_uses_cheapest_single_level(self):
        problem, svd, cfg, _ = tiny_coded_setup(12)
        trace = run_sequential(
            problem, exact_schedule(3, 3, svd.rank, 5),
            LatencyModel.deterministic(1.0), SeededRng(0), svd=svd, x_star=np.zeros(15),
        )
        # rank 6 on (L=3, n=3) needs all three workers: cost 1.0 each round
        assert trace.iter_time[0] == 1.0
        assert len(trace) == 5

    def test_reference_cluster_waits_for_all_four(self):
        rng = SeededRng(79)
        problem = designed_problem(rng).problem
        trace = run_sequential(
            problem, exact_schedule(4, 10, 38, 3), LatencyModel.deterministic(1.0),
            SeededRng(0), svd=SvdFactors.from_matrix(problem.F), x_star=np.zeros(500),
        )
        assert len(trace) == 3
        # (0,0,0,38) is feasible on (4,10), so ell*=4 and the run exists
        assert trace.iter_time[0] == 1.0

    def test_same_seed_identical(self):
        problem, svd, cfg, _ = tiny_coded_setup(13)
        schedule = exact_schedule(3, 3, svd.rank, 4)
        a = run_sequential(problem, schedule, LatencyModel.exponential(1.0), SeededRng(9),
                           svd=svd, x_star=np.zeros(15))
        b = run_sequential(problem, schedule, LatencyModel.exponential(1.0), SeededRng(9),
                           svd=svd, x_star=np.zeros(15))
        assert_same_columns(a, b)

    def test_mean_iteration_time_matches_order_statistic(self):
        # full-rank baseline on (L=4, n=10) waits for all four workers:
        # mean T_(4) = 25/12 under unit-rate exponential latency
        from codedseq.cluster import order_stat_mean

        rng = SeededRng(80)
        problem = designed_problem(rng).problem
        trace = run_sequential(
            problem, exact_schedule(4, 10, 38, 800), LatencyModel.exponential(1.0),
            SeededRng(17), svd=SvdFactors.from_matrix(problem.F), x_star=np.zeros(500),
        )
        times = trace.iter_time
        expected = order_stat_mean(LatencyModel.exponential(1.0), 4, 4)
        stderr = times.std(ddof=1) / np.sqrt(len(times))
        assert abs(times.mean() - expected) <= 4 * stderr


class TestReferenceSolution:
    def test_strong_regularisation_gives_zero(self):
        prob = small_problem(20, gamma=1.0)
        gamma_max = np.abs(prob.F.T @ prob.b).max()
        strong = LassoProblem(F=prob.F, b=prob.b, gamma=1.01 * gamma_max)
        x, res = reference_solution(strong, svd=SvdFactors.from_matrix(strong.F))
        np.testing.assert_array_equal(x, np.zeros(strong.cols))
        assert res <= 1e-10

    def test_unregularised_square_system(self):
        rng = np.random.default_rng(30)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        F = Q @ np.diag(np.linspace(1.0, 2.0, 6)) @ Q.T
        b = rng.standard_normal(6)
        prob = LassoProblem(F=F, b=b, gamma=0.0)
        x, _ = reference_solution(prob, svd=SvdFactors.from_matrix(prob.F))
        direct = np.linalg.solve(F, b)
        assert np.linalg.norm(x - direct) / np.linalg.norm(direct) <= 1e-8

    def test_residual_postcondition(self):
        prob = small_problem(31, gamma=0.8)
        x, res = reference_solution(prob, svd=SvdFactors.from_matrix(prob.F))
        assert res <= 1e-10
        assert optimality_residual(prob, x) <= 1e-10

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(solver_module, "REFERENCE_MAX_ITER", 3)
        prob = small_problem(32, gamma=0.5)
        with pytest.raises(RuntimeError):
            reference_solution(prob, svd=SvdFactors.from_matrix(prob.F))

    @pytest.mark.parametrize(
        "seed, shape",
        [(s, (38, 500)) for s in range(20)] + [(100, (60, 1500))],
    )
    def test_certified_planted_optimum(self, seed, shape):
        rows, cols = shape
        designed = designed_problem(SeededRng(seed).spawn(0, 0), rows=rows, cols=cols)
        problem = designed.problem
        x, res = reference_solution(problem, svd=SvdFactors.from_matrix(problem.F))
        assert res <= 1e-10
        assert optimality_residual(problem, x) == res
        x_opt = designed.planted_optimum
        assert np.linalg.norm(x - x_opt) / np.linalg.norm(x_opt) <= 1e-8

    @pytest.mark.parametrize("rep", range(3))
    @pytest.mark.parametrize("gamma", [0.1, 1.0])
    def test_gaussian_instances_certified(self, gamma, rep, monkeypatch):
        # the harness's draws for experiment seed 0; at gamma = 0.1 the
        # support keeps changing, and plain ISTA is still above tol at 200,000
        problem = gaussian_problem(SeededRng(0).spawn(rep, 0), rows=38, cols=500,
                                   gamma=gamma)
        monkeypatch.setattr(solver_module, "REFERENCE_MAX_ITER", 20000)
        x, res = reference_solution(problem, svd=SvdFactors.from_matrix(problem.F))
        assert res <= 1e-10
        assert optimality_residual(problem, x) == res

    def test_large_scale_certified_at_rounding_floor(self, monkeypatch):
        # gamma = 1e6 scales F^T b by about 1e5, and rounding alone then keeps
        # the residual above an absolute 1e-10; the test scales with |F^T b|
        designed = designed_problem(SeededRng(0).spawn(0, 0), gamma=1e6)
        problem = designed.problem
        floor = 64 * np.finfo(float).eps * np.abs(problem.F.T @ problem.b).max()
        monkeypatch.setattr(solver_module, "REFERENCE_MAX_ITER", 1000)
        x, res = reference_solution(problem, svd=SvdFactors.from_matrix(problem.F))
        assert 1e-10 < res <= floor
        assert optimality_residual(problem, x) == res
        x_opt = designed.planted_optimum
        assert np.linalg.norm(x - x_opt) / np.linalg.norm(x_opt) <= 1e-8

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        inner = getattr(solver_module, name)

        def counting(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(solver_module, name, counting)
        return calls

    def test_every_check_gives_same_point(self, monkeypatch):
        problem = designed_problem(SeededRng(0).spawn(0, 0)).problem
        svd = SvdFactors.from_matrix(problem.F)
        x50, _ = reference_solution(problem, svd=svd)
        iters = self.count_calls(monkeypatch, "soft_threshold")
        residuals = self.count_calls(monkeypatch, "optimality_residual")
        monkeypatch.setattr(solver_module, "REFERENCE_CHECK_EVERY", 1)
        x1, res = reference_solution(problem, svd=svd)
        assert res <= 1e-10
        assert np.linalg.norm(x1 - x50) / np.linalg.norm(x50) <= 1e-8
        # one residual per iterate, plus one per support candidate tried:
        # every early support was solved, rejected, and the iteration went on
        assert len(iters) > 1
        assert len(residuals) - len(iters) >= 2

    def test_singular_support_gram_rejected(self, monkeypatch):
        # columns 0 and 1 are equal, so the iterates keep both on the support
        # and F_S^T F_S is exactly singular; the iteration alone must reach the
        # residual
        rng = np.random.default_rng(2)
        F = rng.integers(-3, 4, size=(5, 8)).astype(float)
        F[:, 1] = F[:, 0]
        x0 = np.zeros(8)
        x0[[0, 1, 4]] = [2.0, 2.0, -1.0]
        problem = LassoProblem(F=F, b=F @ x0, gamma=0.5)
        singular = []
        solve = np.linalg.solve

        def recording(A, y):
            try:
                return solve(A, y)
            except np.linalg.LinAlgError:
                singular.append(A)
                raise

        monkeypatch.setattr(np.linalg, "solve", recording)
        x, res = reference_solution(problem, svd=SvdFactors.from_matrix(problem.F))
        assert singular
        assert res <= 1e-10
        assert optimality_residual(problem, x) == res
        assert x[0] > 0.0
        np.testing.assert_allclose(x[0], x[1], rtol=1e-12)

    def test_wide_support_not_solved(self, monkeypatch):
        # early iterates on a gaussian instance carry more than `rows`
        # nonzeros, which no lasso optimum of full-row-rank F does; solving
        # on such a support (up to 157 x 157 here) is wasted work
        problem = gaussian_problem(SeededRng(0), rows=38, cols=500, gamma=1.0)
        widths = []
        residual = solver_module.optimality_residual

        def recording(prob, x):
            widths.append(np.count_nonzero(x))
            return residual(prob, x)

        sizes = []
        solve = np.linalg.solve

        def sized(A, y):
            sizes.append(A.shape[0])
            return solve(A, y)

        monkeypatch.setattr(solver_module, "optimality_residual", recording)
        monkeypatch.setattr(np.linalg, "solve", sized)
        x, res = reference_solution(problem, svd=SvdFactors.from_matrix(problem.F))
        assert res <= 1e-10
        assert max(widths) > problem.rows
        assert sizes and max(sizes) <= problem.rows

    def test_caller_factors_replace_gram_spectrum(self, monkeypatch):
        problem = designed_problem(SeededRng(3).spawn(0, 0)).problem
        svd = SvdFactors.from_matrix(problem.F)
        with pytest.raises(TypeError):  # the factors have no default
            reference_solution(problem)

        def unused(*args):
            raise AssertionError("sigma_max is known from the caller's factors")

        monkeypatch.setattr(SvdFactors, "from_matrix", unused)
        x, res = reference_solution(problem, svd=svd)
        assert res <= 1e-10
        assert optimality_residual(problem, x) == res

    def test_rank_zero_factors_give_zero(self):
        problem = LassoProblem(F=np.zeros((4, 9)), b=np.ones(4), gamma=0.5)
        svd = SvdFactors.from_matrix(problem.F)
        assert svd.rank == 0
        x, res = reference_solution(problem, svd=svd)
        np.testing.assert_array_equal(x, np.zeros(9))
        assert res == 0.0

    def test_designed_support_certified_at_once(self, monkeypatch):
        # the first proximal step already has the planted support and signs
        problem = designed_problem(
            SeededRng(100).spawn(0, 0), rows=60, cols=1500
        ).problem
        iters = self.count_calls(monkeypatch, "soft_threshold")
        _, res = reference_solution(problem, svd=SvdFactors.from_matrix(problem.F))
        assert res <= 1e-10
        assert len(iters) <= 2

    def test_check_schedule(self, monkeypatch):
        # checks after iterations 1, 2, 4, ..., 32, then every 50; each check
        # and each solved support candidate computes one residual
        problem = gaussian_problem(SeededRng(0), rows=38, cols=500, gamma=1.0)
        iters = self.count_calls(monkeypatch, "soft_threshold")
        residuals = self.count_calls(monkeypatch, "optimality_residual")
        solved = []
        solve = np.linalg.solve

        def counting(A, y):
            z = solve(A, y)
            solved.append(1)
            return z

        monkeypatch.setattr(np.linalg, "solve", counting)
        _, res = reference_solution(problem, svd=SvdFactors.from_matrix(problem.F))
        assert res <= 1e-10
        assert len(iters) > 64
        assert len(residuals) == len(iters) // 50 + 6 + len(solved)

    def test_example1_instance_returns_early(self, monkeypatch):
        # plain ISTA needs about 1,000 iterations on this instance
        problem = designed_problem(SeededRng(0).spawn(0, 0)).problem
        iters = self.count_calls(monkeypatch, "soft_threshold")
        _, res = reference_solution(problem, svd=SvdFactors.from_matrix(problem.F))
        assert res <= 1e-10
        assert len(iters) <= 200


class TestOptimalityResidual:
    def test_matches_bruteforce(self):
        prob = small_problem(40, gamma=0.7)
        rng = np.random.default_rng(41)
        for _ in range(5):
            x = rng.standard_normal(prob.cols) * rng.choice(
                [0.0, 1.0], size=prob.cols
            )
            g = prob.F.T @ (prob.F @ x - prob.b)
            expected = 0.0
            for j in range(prob.cols):
                if x[j] > 0:
                    expected = max(expected, abs(g[j] + prob.gamma))
                elif x[j] < 0:
                    expected = max(expected, abs(g[j] - prob.gamma))
                else:
                    expected = max(expected, max(0.0, abs(g[j]) - prob.gamma))
            assert optimality_residual(prob, x) == pytest.approx(expected)

    def test_zero_at_strongly_regularised_origin(self):
        prob = small_problem(42)
        gamma_max = np.abs(prob.F.T @ prob.b).max()
        strong = LassoProblem(F=prob.F, b=prob.b, gamma=gamma_max)
        assert optimality_residual(strong, np.zeros(prob.cols)) == 0.0
