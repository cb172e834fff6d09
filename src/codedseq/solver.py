"""Sequential-approximation proximal-gradient lasso solver.

The solver minimises 0.5*||F x - b||^2 + gamma*||x||_1 through R phases.
Phase r replaces F by its rank-r_r SVD truncation; the per-iteration product
H_(r) x is obtained through the coded cluster (encode once, then per
iteration: wait for the ell(r) fastest workers, decode the singular-vector
inner products, finish the product user-side).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cluster import LatencyModel, SeededRng, simulate_wait
from .codec import (
    WorkerMatrix,
    decode_prefix,
    encode_all,
    support_product,
    worker_multiply,
)
from .feasibility import Configuration, check_feasible

__all__ = [
    "LassoProblem",
    "SvdFactors",
    "Phase",
    "ApproxSchedule",
    "CodedMatvecSystem",
    "RunTrace",
    "soft_threshold",
    "truncate_svd",
    "sequential_matvec",
    "run_sequential",
    "run_baseline",
    "baseline_schedule",
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
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "b", b)

    @property
    def rows(self) -> int:
        return self.F.shape[0]

    @property
    def cols(self) -> int:
        return self.F.shape[1]

    def objective(self, x: np.ndarray) -> float:
        r = support_product(self.F, x) - self.b
        return 0.5 * float(r @ r) + self.gamma * float(np.abs(x).sum())


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD F = U diag(sigma) V^T with positive singular values."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @classmethod
    def from_matrix(cls, F: np.ndarray, rcond: float = 1e-12) -> "SvdFactors":
        U, s, Vt = np.linalg.svd(np.asarray(F, dtype=float), full_matrices=False)
        keep = s > rcond * (s[0] if s.size else 0.0)
        return cls(U=U[:, keep], sigma=s[keep], V=Vt[keep].T)

    @property
    def rank(self) -> int:
        return int(self.sigma.shape[0])

    def dense(self) -> np.ndarray:
        return self.U @ (self.sigma[:, None] * self.V.T)

    def gradient_offset(self, b: np.ndarray, rank: int | None = None) -> np.ndarray:
        """F_(r)^T b for the rank-r truncation (full rank by default)."""
        r = self.rank if rank is None else rank
        return self.V[:, :r] @ (self.sigma[:r] * (self.U[:, :r].T @ b))


def truncate_svd(svd: SvdFactors, rank: int) -> SvdFactors:
    """Leading-rank factor view (no densification)."""
    if not 1 <= rank <= svd.rank:
        raise ValueError(f"rank {rank} outside 1..{svd.rank}")
    return SvdFactors(U=svd.U[:, :rank], sigma=svd.sigma[:rank], V=svd.V[:, :rank])


def soft_threshold(v: np.ndarray, theta: float) -> np.ndarray:
    """Elementwise shrink toward zero by theta; the prox of theta*||.||_1."""
    if theta < 0:
        raise ValueError(f"threshold must be >= 0, got {theta}")
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


@dataclass(frozen=True)
class Phase:
    """One approximation level: truncation rank, length, responder count."""

    rank: int
    iterations: int
    ell: int


@dataclass(frozen=True)
class ApproxSchedule:
    """The R phases of a sequential-approximation run over one configuration."""

    config: Configuration
    phases: tuple[Phase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("schedule needs at least one phase")
        if not check_feasible(self.config).feasible:
            raise ValueError(f"configuration {self.config.k} is infeasible")
        h = self.config.cumulative_ranks()
        prev_rank, prev_ell = 0, 0
        for p in self.phases:
            if p.iterations < 1:
                raise ValueError(f"phase iteration count must be >= 1, got {p}")
            if p.rank <= prev_rank:
                raise ValueError(f"phase ranks must strictly increase, got {p}")
            if p.ell < prev_ell:
                raise ValueError(f"responder counts must not decrease, got {p}")
            if not 1 <= p.ell <= self.config.L:
                raise ValueError(f"ell={p.ell} outside 1..{self.config.L}")
            if h[p.ell - 1] < p.rank:
                raise ValueError(
                    f"phase rank {p.rank} unreachable with ell={p.ell} "
                    f"(cumulative ranks {h})"
                )
            prev_rank, prev_ell = p.rank, p.ell

    @classmethod
    def build(
        cls, config: Configuration, phase_specs: Sequence[tuple[int, int]]
    ) -> "ApproxSchedule":
        """Schedule from (rank, iterations) pairs; each phase's ell is the
        smallest responder count whose cumulative rank covers its rank."""
        h = config.cumulative_ranks()
        phases = []
        for rank, iters in phase_specs:
            ell = next((i + 1 for i, hv in enumerate(h) if hv >= rank), 0)
            if ell == 0:
                raise ValueError(
                    f"no responder count reaches rank {rank} (cumulative ranks {h})"
                )
            phases.append(Phase(rank=rank, iterations=iters, ell=ell))
        return cls(config=config, phases=tuple(phases))


@dataclass(frozen=True)
class CodedMatvecSystem:
    """Immutable encoded system shared by all phases of a run."""

    config: Configuration
    svd: SvdFactors
    workers: tuple[WorkerMatrix, ...]

    @classmethod
    def setup(cls, svd: SvdFactors, config: Configuration) -> "CodedMatvecSystem":
        # the source rows are v_1 .. v_(h_L), in decreasing order of sigma
        workers = tuple(encode_all(svd.V[:, : sum(config.k)].T, config))
        return cls(config=config, svd=svd, workers=workers)


def sequential_matvec(
    x: np.ndarray,
    phase: Phase,
    system: CodedMatvecSystem,
    model: LatencyModel,
    rng: SeededRng,
) -> tuple[np.ndarray, float]:
    """One coded round: wait for ell(r) workers, decode, return (H_(r) x, T_(ell)).

    The decoded values t = [v_1^T x, ..., v_h^T x], h = h_ell, are completed
    user-side to H_(r) x = V_r diag(sigma_r^2) t_r using the first rank(r)
    components.
    """
    elapsed, responders = simulate_wait(model, system.config.L, phase.ell, rng)
    results = [
        worker_multiply(system.workers[w - 1], x) for w in responders
    ]
    t = decode_prefix(results, system.config)
    if t.shape[0] < phase.rank:
        raise RuntimeError(
            f"decoded {t.shape[0]} components, phase needs {phase.rank}"
        )
    r = phase.rank
    g = system.svd.V[:, :r] @ (system.svd.sigma[:r] ** 2 * t[:r])
    return g, elapsed


@dataclass(eq=False)
class RunTrace:
    """Per-iteration columns of one simulated run; row k is iteration k + 1.

    ``phase`` holds 1-based phase numbers.  ``iterates`` is the
    (iterations, cols) array of iterates when the run keeps them.
    """

    phase: np.ndarray
    iter_time: np.ndarray
    objective: np.ndarray
    suboptimality: np.ndarray
    iterates: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.iter_time)

    @property
    def cum_time(self) -> np.ndarray:
        """Running simulated time; accumulate adds in order, as a loop would."""
        return np.cumsum(self.iter_time)


def _as_rng(seed: "int | SeededRng") -> SeededRng:
    return seed if isinstance(seed, SeededRng) else SeededRng(int(seed))


def run_sequential(
    problem: LassoProblem,
    schedule: ApproxSchedule,
    model: LatencyModel,
    seed: "int | SeededRng",
    *,
    svd: SvdFactors | None = None,
    x_star: np.ndarray | None = None,
    charge_second_round: bool = False,
    keep_iterates: bool = False,
) -> RunTrace:
    """Run the phased solver through the coded cluster simulation.

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
    svd = svd if svd is not None else SvdFactors.from_matrix(problem.F)
    if x_star is None:
        x_star, _ = reference_solution(problem, svd=svd)
    x_norm = float(np.linalg.norm(x_star))
    denom = x_norm if x_norm > 0 else 1.0
    system = CodedMatvecSystem.setup(svd, schedule.config)
    rng = _as_rng(seed)

    lengths = [phase.iterations for phase in schedule.phases]
    total = sum(lengths)
    trace = RunTrace(
        phase=np.repeat(np.arange(1, len(lengths) + 1), lengths),
        iter_time=np.empty(total),
        objective=np.empty(total),
        suboptimality=np.empty(total),
        iterates=np.empty((total, problem.cols)) if keep_iterates else None,
    )
    x = np.zeros(problem.cols)
    k = 0
    step = 1.0 / float(svd.sigma[0] ** 2)
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
            x = soft_threshold(x - step * (g - offset), step * problem.gamma)
            trace.iter_time[k] = elapsed
            trace.objective[k] = problem.objective(x)
            trace.suboptimality[k] = float(np.linalg.norm(x - x_star)) / denom
            if trace.iterates is not None:
                trace.iterates[k] = x
            k += 1
    return trace


def baseline_schedule(
    L: int, n: int, rank: int, iterations: int
) -> ApproxSchedule:
    """Single-phase exact schedule on the cheapest single-level configuration.

    Places all ``rank`` rows at the smallest level ell whose row budget fits,
    so the per-iteration cost is T_(ell) with the least possible ell.
    """
    for ell in range(1, L + 1):
        k = tuple(rank if i == ell else 0 for i in range(1, L + 1))
        cfg = Configuration(L=L, n=n, k=k)
        if check_feasible(cfg).feasible:
            return ApproxSchedule(
                config=cfg,
                phases=(Phase(rank=rank, iterations=iterations, ell=ell),),
            )
    raise ValueError(f"no single-level configuration supports rank {rank} on (L={L}, n={n})")


def run_baseline(
    problem: LassoProblem,
    L: int,
    n: int,
    model: LatencyModel,
    seed: "int | SeededRng",
    iterations: int,
    *,
    svd: SvdFactors | None = None,
    x_star: np.ndarray | None = None,
    keep_iterates: bool = False,
) -> RunTrace:
    """The non-sequential reference: one exact phase at full rank."""
    svd = svd if svd is not None else SvdFactors.from_matrix(problem.F)
    schedule = baseline_schedule(L, n, svd.rank, iterations)
    return run_sequential(
        problem, schedule, model, seed,
        svd=svd, x_star=x_star, keep_iterates=keep_iterates,
    )


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
    svd: SvdFactors | None = None,
    tol: float = 1e-10,
    max_iter: int = 10**6,
    check_every: int = 50,
) -> tuple[np.ndarray, float]:
    """Exact-matrix proximal gradient run to an optimality residual <= tol.

    Proximal gradient finds the support S and signs s of the optimum long
    before it converges.  So every ``check_every`` iterations whose residual
    is above tol also try the point that solves the stationarity equations on
    the iterate's support, (F_S^T F_S) z = F_S^T b - gamma s, zero elsewhere.
    That point is returned only if it passes the same residual test; if not
    (wrong support, singular F_S^T F_S), ISTA goes on from its own iterate.
    The step is 1/sigma_max(F)^2, taken from ``svd`` when the caller holds
    the factors of F and from the smaller Gram matrix otherwise.

    Returns (x_star, residual).  Raises if the cap is hit first.
    """
    F, b, gamma = problem.F, problem.b, problem.gamma
    if svd is not None:
        sigma_max_sq = float(svd.sigma[0]) ** 2 if svd.rank else 0.0
    else:
        gram = F @ F.T if problem.rows <= problem.cols else F.T @ F
        sigma_max_sq = float(np.linalg.eigvalsh(gram)[-1])
    if sigma_max_sq <= 0.0:
        return np.zeros(problem.cols), 0.0
    t = 1.0 / sigma_max_sq
    h = F.T @ b
    x = np.zeros(problem.cols)
    for k in range(1, max_iter + 1):
        x = soft_threshold(x - t * (F.T @ support_product(F, x) - h), t * gamma)
        if k % check_every == 0:
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
        f"proximal gradient did not reach residual {tol} within {max_iter} "
        f"iterations (residual {res:.3e})"
    )
