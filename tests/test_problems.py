import numpy as np
import pytest

from conftest import truncated_dense

from codedseq import problems
from codedseq.cluster import SeededRng
from codedseq.problems import designed_problem, gaussian_problem
from codedseq.solver import (
    GRAM_ORTHO_TOL,
    SvdFactors,
    optimality_residual,
    reference_solution,
    soft_threshold,
    subgradient_residual,
)


class TestDesigned:
    def test_planted_point_is_optimal(self):
        designed = designed_problem(SeededRng(0))
        res = optimality_residual(designed.problem, designed.planted_optimum)
        assert res <= 1e-9

    def test_reference_recovers_planted_optimum(self):
        designed = designed_problem(SeededRng(1))
        problem = designed.problem
        x_star, _ = reference_solution(problem, svd=SvdFactors.from_matrix(problem.F))
        gap = np.linalg.norm(x_star - designed.planted_optimum)
        assert gap / np.linalg.norm(designed.planted_optimum) <= 1e-8

    def test_shapes_and_rank(self):
        designed = designed_problem(SeededRng(2))
        prob = designed.problem
        assert prob.F.shape == (38, 500)
        assert prob.b.shape == (38,)
        svd = SvdFactors.from_matrix(prob.F)
        assert svd.rank == 38

    def test_truncation_drops_fringe(self):
        # rank-15 phase optimum differs from the full optimum by roughly
        # the planted fringe scale
        designed = designed_problem(SeededRng(3), fringe_scale=0.05)
        prob = designed.problem
        svd = SvdFactors.from_matrix(prob.F)
        Fr = truncated_dense(svd, 15)
        t = 1.0 / svd.sigma[0] ** 2
        h = Fr.T @ prob.b
        x = np.zeros(prob.cols)
        for _ in range(4000):
            x = soft_threshold(x - t * (Fr.T @ (Fr @ x) - h), t * prob.gamma)
        g = Fr.T @ (Fr @ x - prob.b)
        assert subgradient_residual(g, x, prob.gamma) <= 1e-6
        rel = np.linalg.norm(x - designed.planted_optimum) / np.linalg.norm(
            designed.planted_optimum
        )
        assert 0.02 <= rel <= 0.1

    def test_determinism(self):
        a = designed_problem(SeededRng(4))
        b = designed_problem(SeededRng(4))
        np.testing.assert_array_equal(a.problem.F, b.problem.F)
        np.testing.assert_array_equal(a.problem.b, b.problem.b)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            designed_problem(SeededRng(0), hidden_mode=1)
        with pytest.raises(ValueError):
            designed_problem(SeededRng(0), fringe_scale=0.0)
        for fringe_size in (0, -1, 500):  # 1..cols-1 fit beside the spike
            with pytest.raises(ValueError, match="fringe_size"):
                designed_problem(SeededRng(0), fringe_size=fringe_size)


def _lasso_data(designed):
    prob = designed.problem
    return prob.F.T @ prob.F, prob.F.T @ prob.b, np.linalg.norm(prob.b)


def _qr_shapes(monkeypatch, seed, rows, cols):
    """One designed draw and the shapes np.linalg.qr was called on: the
    (rows, rows) U factor always, the (cols, rows) one only on the fallback."""
    real_qr = np.linalg.qr
    shapes = []

    def counting_qr(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    return designed_problem(SeededRng(seed), rows=rows, cols=cols), shapes


class TestRightFactorRoute:
    """V comes from one certified Cholesky pass; Householder QR is only the
    fallback, and both routes give the same lasso problem."""

    @pytest.mark.parametrize("rows,cols", [(38, 500), (150, 5000)])
    def test_gram_route_skips_householder(self, monkeypatch, rows, cols):
        loss = []
        real_factor = problems._orthonormal_factor

        def spy(raw, order):
            V = real_factor(raw, order)
            loss.append(np.abs(V.T @ V - np.eye(rows)).max())
            return V

        monkeypatch.setattr(problems, "_orthonormal_factor", spy)
        _, shapes = _qr_shapes(monkeypatch, 5, rows, cols)
        assert shapes == [(rows, rows)]
        assert len(loss) == 1 and loss[0] <= GRAM_ORTHO_TOL

    @pytest.mark.parametrize("fallback", ["cholesky-raises", "certificate-fails"])
    def test_householder_fallback_is_the_same_problem(self, monkeypatch, fallback):
        gram = designed_problem(SeededRng(5), rows=38, cols=500)
        if fallback == "cholesky-raises":
            def not_positive_definite(a):
                raise np.linalg.LinAlgError("Matrix is not positive definite")

            monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
        else:
            monkeypatch.setattr(problems, "GRAM_ORTHO_TOL", 0.0)
        householder, shapes = _qr_shapes(monkeypatch, 5, 38, 500)
        assert shapes == [(500, 38), (38, 38)]
        np.testing.assert_array_equal(householder.planted_optimum, gram.planted_optimum)
        for got, want in zip(_lasso_data(householder), _lasso_data(gram)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "seed,rows,cols,qr_shapes",
        [(3, 16, 16, [(16, 16), (16, 16)]), (5, 150, 5000, [(150, 150)])],
        ids=["square-fallback", "bigf-gram"],
    )
    def test_planted_optimum_certified(self, monkeypatch, seed, rows, cols, qr_shapes):
        # seed 3's square raw has cond ~230 and fails the Gram certificate
        designed, shapes = _qr_shapes(monkeypatch, seed, rows, cols)
        assert shapes == qr_shapes
        res = optimality_residual(designed.problem, designed.planted_optimum)
        assert res <= 1e-13


class TestGaussian:
    def test_full_rank_and_shapes(self):
        prob = gaussian_problem(SeededRng(0), rows=20, cols=60)
        assert prob.F.shape == (20, 60)
        sv = np.linalg.svd(prob.F, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]

    def test_single_draw_without_svd(self, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("the harness checks the rank; the generator draws once")

        monkeypatch.setattr(np.linalg, "svd", unused)
        prob = gaussian_problem(SeededRng(2), rows=5, cols=9)
        gen = SeededRng(2).generator
        np.testing.assert_array_equal(prob.F, gen.standard_normal((5, 9)))
        np.testing.assert_array_equal(prob.b, gen.standard_normal(5))

    def test_determinism(self):
        a = gaussian_problem(SeededRng(1))
        b = gaussian_problem(SeededRng(1))
        np.testing.assert_array_equal(a.F, b.F)
