import tracemalloc

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
        designed = designed_problem(SeededRng(3))
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
        # the CLI's shape rule and text, checked before the first draw
        for rows, cols, message in [
            (17, 16, "source 'designed' needs rows <= cols, got 17 x 16"),
            (12, 60, "source 'designed' needs rows >= 16, got 12"),
            (12, 11, "source 'designed' needs rows <= cols, got 12 x 11"),  # in that order
        ]:
            rng = SeededRng(0)
            state = rng.generator.bit_generator.state
            with pytest.raises(ValueError) as err:
                designed_problem(rng, rows=rows, cols=cols)
            assert str(err.value) == message
            assert rng.generator.bit_generator.state == state


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


def reference_designed_problem(rng, *, rows=38, cols=500, gamma=5.0):
    """``designed_problem`` as it built each instance before the filler was
    drawn in row blocks and F reused the tall matrix's buffer: one
    ``column_stack`` of the whole draw, a separate F.  Kept as the reference
    the instances must equal bit for bit; the module's constants are read
    at call time, as there."""
    problems.DesignedProblem.check_shape(rows, cols)
    gen = rng.generator
    sigma = problems.SIGMA_TOP * problems.SIGMA_DECAY ** (np.arange(rows) / (rows - 1))

    j0 = int(gen.integers(cols))
    s0 = float(gen.choice([-1.0, 1.0]))
    others = np.setdiff1d(np.arange(cols), [j0])
    fringe = gen.choice(others, size=problems.FRINGE_SIZE, replace=False)
    fr_sign = gen.choice([-1.0, 1.0], size=problems.FRINGE_SIZE)
    fr_values = (
        problems.FRINGE_SCALE * problems.SPIKE / np.sqrt(problems.FRINGE_SIZE)
        * fr_sign * (0.7 + 0.6 * gen.random(problems.FRINGE_SIZE))
    )
    x_opt = np.zeros(cols)
    x_opt[j0] = problems.SPIKE * s0
    x_opt[fringe] = fr_values

    xi = gen.uniform(-problems.CERTIFICATE_BOX, problems.CERTIFICATE_BOX, size=cols)
    xi[j0] = s0
    xi[fringe] = np.sign(fr_values)
    xi_hidden = np.zeros(cols)
    xi_hidden[fringe] = np.sign(fr_values)
    xi_visible = xi - xi_hidden

    raw = np.column_stack(
        [xi_visible, xi_hidden, gen.standard_normal((cols, rows - 2))]
    )
    hidden = problems.HIDDEN_MODE
    order = [0] + list(range(2, hidden)) + [1] + list(range(hidden, rows))
    V = reference_orthonormal_factor(raw, order)
    alpha = V.T @ xi
    if np.linalg.norm(V @ alpha - xi) > 1e-9:
        raise ArithmeticError("certificate escaped the right-factor span")

    U_raw, _ = np.linalg.qr(gen.standard_normal((rows, rows)))
    F = (U_raw * sigma) @ V.T
    b = F @ x_opt + U_raw @ (gamma * alpha / sigma)
    return problems.DesignedProblem(
        problem=problems.LassoProblem(F=F, b=b, gamma=gamma), planted_optimum=x_opt
    )


def reference_orthonormal_factor(raw, order):
    """``_orthonormal_factor`` with ``np.linalg.norm``'s raw-sized temporaries."""
    raw /= np.linalg.norm(raw, axis=0)
    try:
        C = np.linalg.cholesky(raw.T @ raw)
    except np.linalg.LinAlgError:
        C = None
    if C is not None:
        V = raw @ np.linalg.inv(C).T[:, order]
        if np.abs(V.T @ V - np.eye(V.shape[1])).max() <= problems.GRAM_ORTHO_TOL:
            return V
    return np.linalg.qr(raw)[0][:, order]


class TestAgainstReference:
    """Each instance, and the stream it leaves behind, is the one the
    single-draw construction gives, bit for bit."""

    # 40 x 600 and 20 x 513 draw the filler in two blocks, 20 x 512 in one
    @pytest.mark.parametrize(
        "rows,cols", [(16, 16), (38, 500), (40, 600), (20, 512), (20, 513), (150, 5000)]
    )
    @pytest.mark.parametrize("route", ["gram", "householder"])
    def test_bit_identical(self, monkeypatch, rows, cols, route):
        if route == "householder":
            monkeypatch.setattr(problems, "GRAM_ORTHO_TOL", 0.0)
        got_rng, want_rng = SeededRng(6), SeededRng(6)
        got = designed_problem(got_rng, rows=rows, cols=cols)
        want = reference_designed_problem(want_rng, rows=rows, cols=cols)
        np.testing.assert_array_equal(got.problem.F, want.problem.F)
        np.testing.assert_array_equal(got.problem.b, want.problem.b)
        np.testing.assert_array_equal(got.planted_optimum, want.planted_optimum)
        np.testing.assert_array_equal(
            got_rng.generator.standard_normal(3), want_rng.generator.standard_normal(3)
        )

    def test_working_set_is_two_tall_arrays(self, monkeypatch):
        # bigf's shape; one cols x rows array of float64 is 5.72 MiB.  Until
        # the Gram factorisation the working set is the tall matrix plus one
        # filler block (no stacked copy, no squared copy for the norms);
        # after it, the tall matrix and V, with F written into the first.
        rows, cols = 150, 5000
        tall = 8 * rows * cols
        designed_problem(SeededRng(0), rows=rows, cols=cols)  # lazy imports
        before_gram = []
        real_cholesky = np.linalg.cholesky

        def spy(a):
            before_gram.append(tracemalloc.get_traced_memory()[1])
            return real_cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        tracemalloc.start()
        try:
            designed_problem(SeededRng(0), rows=rows, cols=cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert before_gram[0] <= 1.5 * tall, before_gram[0] / tall
        assert peak <= 2.5 * tall, peak / tall


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
