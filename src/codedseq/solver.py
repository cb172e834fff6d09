"""Sequential-approximation proximal-gradient lasso solver.

The solver minimises 0.5*||F x - b||^2 + gamma*||x||_1 through R phases.
Phase r replaces F by its rank-r_r SVD truncation; the per-iteration product
H_(r) x is obtained through the coded cluster (encode once, then per
iteration: wait for the ell(r) fastest workers, decode the singular-vector
inner products, finish the product user-side).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .cluster import LatencyModel, SeededRng, simulate_wait
from .codec import (
    WorkerMatrix,
    decode_prefix,
    encode_all,
    make_layout,
    support_product,
    worker_multiply,
)
from .feasibility import Configuration, as_count

__all__ = [
    "LassoProblem",
    "SvdFactors",
    "Phase",
    "ApproxSchedule",
    "CodedMatvecSystem",
    "RunTrace",
    "soft_threshold",
    "sequential_matvec",
    "run_sequential",
    "reference_solution",
    "optimality_residual",
    "subgradient_residual",
]


@dataclass(frozen=True)
class LassoProblem:
    """Data (F, b) and regularisation weight gamma of one lasso instance."""

    F: np.ndarray
    b: np.ndarray
    gamma: float

    def __post_init__(self) -> None:
        F = np.asarray(self.F, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if F.ndim != 2 or b.ndim != 1 or b.shape[0] != F.shape[0]:
            raise ValueError(
                f"inconsistent shapes: F {F.shape}, b {b.shape}"
            )
        self.check_gamma(self.gamma)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "b", b)

    @staticmethod
    def check_gamma(gamma: float) -> None:  # the one rule for a lasso weight
        if not (np.isfinite(gamma) and gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {gamma}")

    @property
    def rows(self) -> int:
        return self.F.shape[0]

    @property
    def cols(self) -> int:
        return self.F.shape[1]

    def objective(self, x: np.ndarray) -> float:
        r = support_product(self.F, x)
        r -= self.b
        return 0.5 * float(r.dot(r)) + self.gamma * float(np.abs(x).sum())


# Singular values at or below this fraction of the largest count as zero.
SVD_RCOND = 1e-12
# Factors taken through the Gram matrix are kept only when the derived V has
# max|V^T V - I| <= this.  V^T V - I is diag(1/sigma) E diag(1/sigma) for the
# eigensolver's residual E, so the bound caps each singular value's relative
# error and V's loss of orthogonality near 1e-13, while LAPACK's own SVD
# reaches about 1e-15 on these sizes.  Rounding in F F^T grows with cond(F)^2,
# so the check, not a condition-number threshold, decides: ill-conditioned F
# fails it and goes to LAPACK.  With sigma spaced geometrically from 1 to
# 1/cond between random orthonormal factors, every 38 x 500 F with cond <= 25
# passed, 2 of 10 passed at cond 50 and none from cond 80 on (at 150 x 5000:
# all up to cond 50, none at 80).  A `designed` F has cond(F) =
# 1/problems.SIGMA_DECAY, about 1.43.
GRAM_ORTHO_TOL = 1e-13
# The optimality residual reference_solution certifies, above its rounding floor,
# its iteration cap, and the spacing of its residual checks.
REFERENCE_TOL = 1e-10
REFERENCE_MAX_ITER = 10**6
REFERENCE_CHECK_EVERY = 50


def _gram_factors(
    F: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(U, sigma, V) of a wide F from the eigendecomposition of F F^T, or None
    for tall F and whenever GRAM_ORTHO_TOL cannot certify them."""
    if F.shape[0] > F.shape[1]:
        return None
    lam, W = np.linalg.eigh(F @ F.T)
    if lam.size == 0 or not lam[0] > 0.0:  # also catches NaN
        return None
    sigma = np.sqrt(lam[::-1])
    U = W[:, ::-1]  # eigh sorts ascending
    Vt = U.T @ F  # C order, so V = Vt.T is column-major
    Vt /= sigma[:, None]
    V = Vt.T
    if not np.abs(Vt @ V - np.eye(sigma.size)).max() <= GRAM_ORTHO_TOL:
        return None
    return U, sigma, V


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD F = U diag(sigma) V^T with positive singular values."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @classmethod
    def from_matrix(cls, F: np.ndarray) -> "SvdFactors":
        """Factors of F, sigma descending and V column-major.

        A wide (rows <= cols), well-conditioned, full-rank F is factored
        through the eigenvectors of F F^T and one product with F; tall F, and
        any result that fails the GRAM_ORTHO_TOL check, goes to LAPACK's SVD,
        which drops singular values at or below SVD_RCOND * sigma_1.
        """
        F = np.asarray(F, dtype=float)
        factors = _gram_factors(F)
        if factors is not None:
            return cls(*factors)
        U, s, Vt = np.linalg.svd(F, full_matrices=False)
        keep = s > SVD_RCOND * (s[0] if s.size else 0.0)
        return cls(U=U[:, keep], sigma=s[keep], V=Vt[keep].T)

    @property
    def rank(self) -> int:
        return int(self.sigma.shape[0])

    def gradient_offset(self, b: np.ndarray, rank: int) -> np.ndarray:
        """F_(r)^T b for the rank-r truncation."""
        return self.V[:, :rank] @ (self.sigma[:rank] * (self.U[:, :rank].T @ b))


def soft_threshold(v: np.ndarray, theta: float) -> np.ndarray:
    """Elementwise shrink toward zero by theta; the prox of theta*||.||_1."""
    if theta < 0:
        raise ValueError(f"threshold must be >= 0, got {theta}")
    out = np.absolute(v, dtype=float)  # one buffer; an int v gives floats, as before
    out -= theta
    np.maximum(out, 0.0, out=out)
    out *= np.sign(v)
    return out


@dataclass(frozen=True)
class Phase:
    """One approximation level: truncation rank, length, responder count."""

    rank: int
    iterations: int
    ell: int


@dataclass(frozen=True)
class ApproxSchedule:
    """The R phases of a sequential-approximation run over one configuration,
    from (rank, iterations) pairs; the exact scheme is the one-phase case.

    Phase r's ell is read off the configuration's layout (``make_layout``,
    which refuses an infeasible configuration): the least responder count
    whose cumulative rank ``offsets[ell]`` covers the phase's rank."""

    config: Configuration
    phase_specs: InitVar[Sequence[tuple[int, int]]]
    phases: tuple[Phase, ...] = field(init=False)

    def __post_init__(self, phase_specs: Sequence[tuple[int, int]]) -> None:
        if not phase_specs:
            raise ValueError("schedule needs at least one phase")
        offsets = make_layout(self.config).offsets
        phases = []
        prev_rank = 0
        for rank, iterations in phase_specs:
            rank = as_count("phase rank", rank)
            iterations = as_count("phase iterations", iterations)
            if iterations < 1:
                raise ValueError(f"phase iteration count must be >= 1, got {rank, iterations}")
            if rank <= prev_rank:
                raise ValueError(f"phase ranks must strictly increase, got {rank, iterations}")
            ell = bisect_left(offsets, rank)  # offsets[0] = 0 < rank
            if ell > self.config.L:
                raise ValueError(f"no responder count reaches rank {rank} "
                                 f"(cumulative ranks {offsets[1:]})")
            phases.append(Phase(rank, iterations, ell))
            prev_rank = rank
        object.__setattr__(self, "phases", tuple(phases))


@dataclass(frozen=True)
class CodedMatvecSystem:
    """Immutable encoded system shared by all phases of a run: the workers
    hold the coded rows v_1 .. v_(h_L) of ``svd``, in decreasing order of
    sigma, placed by the configuration's layout.  ``sigma2``, the squared
    singular values, is fixed here: a round of rank r completes its product
    with the first r columns of ``svd.V`` and the first r entries of
    ``sigma2``."""

    config: Configuration
    svd: SvdFactors
    workers: tuple[WorkerMatrix, ...] = field(init=False)
    sigma2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        h_L = make_layout(self.config).offsets[-1]
        workers = encode_all(self.svd.V[:, :h_L].T, self.config)
        object.__setattr__(self, "workers", tuple(workers))
        object.__setattr__(self, "sigma2", self.svd.sigma ** 2)


def sequential_matvec(
    x: np.ndarray,
    phase: Phase,
    system: CodedMatvecSystem,
    model: LatencyModel,
    rng: SeededRng,
) -> tuple[np.ndarray, float]:
    """One coded round: wait for ell(r) workers, decode, return (H_(r) x, T_(ell)).

    The decoded values t = [v_1^T x, ..., v_h^T x], h = h_ell, are completed
    user-side to H_(r) x = V_r diag(sigma_r^2) t_r using the first r = rank(r)
    components: V_r is the first r columns of ``system.svd.V`` and sigma_r^2
    the first r entries of ``system.sigma2``, both fixed for the run.
    """
    elapsed, responders = simulate_wait(model, system.config.L, phase.ell, rng)
    results = [
        worker_multiply(system.workers[w - 1], x) for w in responders
    ]
    t = decode_prefix(results)
    r = phase.rank
    if t.shape[0] < r:
        raise RuntimeError(f"decoded {t.shape[0]} components, phase needs {r}")
    t_r = t[:r]  # t is decode_prefix's fresh array
    t_r *= system.sigma2[:r]
    return system.svd.V[:, :r].dot(t_r), elapsed


@dataclass(eq=False)
class RunTrace:
    """Per-iteration columns of one simulated run; row k is iteration k + 1.

    ``lengths`` holds each phase's iteration count.  ``iterates`` is the
    (iterations, cols) array of iterates when the run keeps them.
    """

    lengths: tuple[int, ...]
    iter_time: np.ndarray
    objective: np.ndarray
    suboptimality: np.ndarray
    iterates: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.iter_time)

    @property
    def phase(self) -> np.ndarray:
        """1-based phase number of each iteration."""
        return np.repeat(np.arange(1, len(self.lengths) + 1), self.lengths)

    @property
    def cum_time(self) -> np.ndarray:
        """Running simulated time; accumulate adds in order, as a loop would."""
        return np.cumsum(self.iter_time)


def run_sequential(
    problem: LassoProblem,
    schedule: ApproxSchedule,
    model: LatencyModel,
    rng: SeededRng,
    *,
    svd: SvdFactors,
    x_star: np.ndarray,
    charge_second_round: bool = False,
    keep_iterates: bool = False,
) -> RunTrace:
    """Run the phased solver through the coded cluster simulation.

    The caller owns the stream ``rng``, the factors ``svd`` of problem.F and
    the optimum ``x_star``: run_experiment spawns ``(rep, 1)`` and ``(rep, 2)``
    and takes the factors and x* from validate_experiment's draw.  Phase r
    waits for ell(r) workers, the least count whose cumulative rank covers
    its rank.
    The iterate carries over at phase boundaries.  Every phase uses the step
    1/sigma_1(F)^2 (a truncation keeps the top singular value) and phase r
    the truncated offset F_(r)^T b, so each phase is plain ISTA on the rank-r
    problem; the final phase is exact when its rank equals the full rank.
    Per iteration the simulated cost is T_(ell(r)), doubled when
    ``charge_second_round`` also bills the transpose round.
    Latencies do not depend on the iterate, so phase p draws its rounds one
    after another from one stream, ``rng.spawn(p, 0)``, and its transpose
    rounds from ``rng.spawn(p, 1)``.
    """
    x_norm = float(np.linalg.norm(x_star))
    denom = x_norm if x_norm > 0 else 1.0
    system = CodedMatvecSystem(schedule.config, svd)

    lengths = tuple(phase.iterations for phase in schedule.phases)
    total = sum(lengths)
    trace = RunTrace(
        lengths=lengths,
        iter_time=np.empty(total),
        objective=np.empty(total),
        suboptimality=np.empty(total),
        iterates=np.empty((total, problem.cols)) if keep_iterates else None,
    )
    x = np.zeros(problem.cols)
    k = 0
    step = 1.0 / float(svd.sigma[0] ** 2)
    theta = step * problem.gamma
    for phase_idx, phase in enumerate(schedule.phases, start=1):
        offset = svd.gradient_offset(problem.b, phase.rank)
        clock = rng.spawn(phase_idx, 0)
        second_clock = rng.spawn(phase_idx, 1)
        for _ in range(phase.iterations):
            g, elapsed = sequential_matvec(x, phase, system, model, clock)
            if charge_second_round:
                second, _ = simulate_wait(
                    model, schedule.config.L, phase.ell, second_clock
                )
                elapsed += second
            g -= offset  # g is sequential_matvec's fresh array
            g *= step
            x = soft_threshold(x - g, theta)
            trace.iter_time[k] = elapsed
            trace.objective[k] = problem.objective(x)
            d = x - x_star  # sqrt(d . d) is what np.linalg.norm(d) computes
            trace.suboptimality[k] = math.sqrt(d.dot(d)) / denom
            if trace.iterates is not None:
                trace.iterates[k] = x
            k += 1
    return trace


def subgradient_residual(g: np.ndarray, x: np.ndarray, gamma: float) -> float:
    """Distance of -g from gamma * (subdifferential of ||x||_1), in max norm."""
    on = x != 0
    res = 0.0
    if np.any(on):
        res = float(np.abs(g[on] + gamma * np.sign(x[on])).max())
    if np.any(~on):
        res = max(res, float(np.maximum(np.abs(g[~on]) - gamma, 0.0).max()))
    return res


def optimality_residual(problem: LassoProblem, x: np.ndarray) -> float:
    """Lasso optimality violation of x (0 at a minimiser)."""
    g = problem.F.T @ (support_product(problem.F, x) - problem.b)
    return subgradient_residual(g, x, problem.gamma)


def reference_solution(
    problem: LassoProblem,
    *,
    svd: SvdFactors,
) -> tuple[np.ndarray, float]:
    """Accelerated proximal gradient on the exact F to a residual <= tol.

    FISTA (Beck & Teboulle 2009) with gradient restart (O'Donoghue & Candes
    2015): the momentum is dropped whenever it opposes the latest step.  The
    iterate finds the support S and signs s of the optimum long before it
    converges, often within its first few steps.  So the residual of x is
    checked after iterations 1, 2, 4, ... below ``REFERENCE_CHECK_EVERY`` and
    then every ``REFERENCE_CHECK_EVERY`` iterations, and each check above tol
    also tries the point that solves the stationarity equations on x's
    support, (F_S^T F_S) z = F_S^T b - gamma s, zero elsewhere.
    That point is returned only if it passes the same residual test; if not
    (wrong support, singular F_S^T F_S), the iteration goes on.
    The step is 1/sigma_max(F)^2, read from the caller's factors ``svd`` of F.
    Rounding keeps the computed residual of even the exact optimum near
    eps * ||F^T b||_inf: up to 11 times that for the planted optimum of
    designed 38 x 500 and 150 x 5000 instances with gamma 1e6 and 1e9.  So
    tol = max(REFERENCE_TOL, 64 * eps * ||F^T b||_inf), which is REFERENCE_TOL
    on every preset and benchmark instance.
    A designed instance's support solve is accepted within the first few
    iterations (SeededRng seeds 0-4 at the preset shape: after iteration 1
    in four, 8 in one).  A gaussian instance's support keeps changing at
    small gamma, and the restart is what certifies it: SeededRng seeds 0-2
    take 0.01-0.08 s at 38 x 500 with gamma 0.1 and 1, and 0.4-0.9 s at
    150 x 5000 with gamma 1 (one BLAS thread, 2-core Xeon VM), while plain
    ISTA had not certified two of the 38 x 500 ones at gamma 0.1 after
    200,000 iterations.

    Returns (x_star, residual).  Raises RuntimeError if the cap,
    ``REFERENCE_MAX_ITER`` iterations, is hit first.  The constants are read
    at each call.
    """
    F, b, gamma = problem.F, problem.b, problem.gamma
    if not svd.rank:
        return np.zeros(problem.cols), 0.0
    t = 1.0 / float(svd.sigma[0]) ** 2
    h = F.T @ b
    tol = max(REFERENCE_TOL, 64 * np.finfo(float).eps * float(np.abs(h).max()))
    x = y = np.zeros(problem.cols)  # the iterate and the extrapolated point
    momentum = 1.0  # FISTA's t_k
    for k in range(1, REFERENCE_MAX_ITER + 1):
        x_prev, x = x, soft_threshold(y - t * (F.T @ support_product(F, y) - h), t * gamma)
        if (y - x).dot(x - x_prev) > 0:  # the momentum opposes the step: restart
            momentum = 1.0
        momentum, prior = (1 + math.sqrt(1 + 4 * momentum**2)) / 2, momentum
        y = x + (prior - 1) / momentum * (x - x_prev)
        early = k < REFERENCE_CHECK_EVERY and k & (k - 1) == 0  # k a power of two
        if early or k % REFERENCE_CHECK_EVERY == 0:
            res = optimality_residual(problem, x)
            if res <= tol:
                return x, res
            support = np.flatnonzero(x)
            if not 0 < support.size <= problem.rows:
                continue
            F_S = F[:, support]
            try:
                z = np.linalg.solve(
                    F_S.T @ F_S, F_S.T @ b - gamma * np.sign(x[support])
                )
            except np.linalg.LinAlgError:
                continue
            candidate = np.zeros(problem.cols)
            candidate[support] = z
            res = optimality_residual(problem, candidate)
            if res <= tol:
                return candidate, res
    res = optimality_residual(problem, x)
    if res <= tol:
        return x, res
    raise RuntimeError(
        f"proximal gradient did not reach residual {tol} within {REFERENCE_MAX_ITER} "
        f"iterations (residual {res:.3e})"
    )
