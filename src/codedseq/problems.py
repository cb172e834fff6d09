"""Random lasso instance generators for the experiment harness.

Two families:

* ``designed``: instances built backward from a planted optimum.  The
  certificate of optimality is embedded in the right singular vectors, with
  the part that pins a set of small "fringe" coordinates hidden in a tail
  mode.  Truncations below that mode therefore drop the fringe, which gives
  every low-rank phase a controlled solution offset (the suboptimality
  plateau of the figures) while the planted spike stays recoverable at every
  rank.  Spectrum and scales are chosen so per-coordinate convergence rates
  are nearly rank-independent, which is what makes cheap early phases pay.

* ``gaussian``: plain i.i.d. standard-normal F and b.  Kept as a generic
  source; low-rank truncations of such instances are poor approximations, so
  it does not reproduce the reference experiments.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import SeededRng
from .solver import GRAM_ORTHO_TOL, LassoProblem

__all__ = ["DesignedProblem", "designed_problem", "gaussian_problem"]

# The default tail mode that holds the fringe certificate; a designed instance
# needs at least this many rows.
HIDDEN_MODE = 16
# Planted spike size, half-width of the off-support certificate box (inside
# [-1, 1]) and smallest-to-largest singular value ratio: cond(F) = 1/SIGMA_DECAY.
SPIKE = 5.0
CERTIFICATE_BOX = 0.2
SIGMA_DECAY = 0.7


@dataclass(frozen=True)
class DesignedProblem:
    """A lasso instance with a known planted optimum."""

    problem: LassoProblem
    planted_optimum: np.ndarray


def designed_problem(
    rng: SeededRng,
    *,
    rows: int = 38,
    cols: int = 500,
    gamma: float = 5.0,
    fringe_size: int = 8,
    fringe_scale: float = 0.05,
    sigma_top: float = 4.0,
    hidden_mode: int = HIDDEN_MODE,
) -> DesignedProblem:
    """Instance with planted optimum: one spike plus a small hidden fringe.

    The optimum is ``SPIKE`` on one coordinate plus ``fringe_size`` small
    coordinates of relative size ``fringe_scale``.  The fringe's certificate
    lives entirely in right-singular mode ``hidden_mode`` (1-based), so any
    truncation of rank < hidden_mode solves the spike-only problem instead;
    the relative gap between the two optima is about ``fringe_scale``.

    The right factor V comes from one Cholesky pass over the Gram matrix of
    the tall ``(cols, rows)`` matrix it orthonormalises, certified with
    ``solver.GRAM_ORTHO_TOL``; Householder QR is the fallback.  The two
    differ only in the signs of V's columns.  A flipped column of V flips
    the matching entry of alpha and column of U_raw, so F^T F, F^T b and
    |b|, hence the lasso problem and each of its rank-r truncations, are
    the same on both routes up to rounding.
    """
    if not 2 <= hidden_mode <= rows:
        raise ValueError(f"hidden_mode {hidden_mode} outside 2..{rows}")
    if not 0 < fringe_scale < 1:
        raise ValueError(f"fringe_scale must be in (0, 1), got {fringe_scale}")
    if not 1 <= fringe_size < cols:
        raise ValueError(f"fringe_size {fringe_size} outside 1..{cols - 1}")
    gen = rng.generator
    sigma = sigma_top * SIGMA_DECAY ** (np.arange(rows) / (rows - 1))

    j0 = int(gen.integers(cols))
    s0 = float(gen.choice([-1.0, 1.0]))
    others = np.setdiff1d(np.arange(cols), [j0])
    fringe = gen.choice(others, size=fringe_size, replace=False)
    fr_sign = gen.choice([-1.0, 1.0], size=fringe_size)
    fr_values = (
        fringe_scale * SPIKE / np.sqrt(fringe_size)
        * fr_sign * (0.7 + 0.6 * gen.random(fringe_size))
    )
    x_opt = np.zeros(cols)
    x_opt[j0] = SPIKE * s0
    x_opt[fringe] = fr_values

    # optimality certificate: sign on the support, strict interior elsewhere
    xi = gen.uniform(-CERTIFICATE_BOX, CERTIFICATE_BOX, size=cols)
    xi[j0] = s0
    xi[fringe] = np.sign(fr_values)
    xi_hidden = np.zeros(cols)
    xi_hidden[fringe] = np.sign(fr_values)
    xi_visible = xi - xi_hidden

    # right factor: mode 1 spans the visible certificate part, mode
    # hidden_mode the fringe-pinning part, the rest Haar-orthogonal filler
    raw = np.column_stack(
        [xi_visible, xi_hidden, gen.standard_normal((cols, rows - 2))]
    )
    order = [0] + list(range(2, hidden_mode)) + [1] + list(range(hidden_mode, rows))
    V = _orthonormal_factor(raw, order)
    alpha = V.T @ xi
    if np.linalg.norm(V @ alpha - xi) > 1e-9:
        raise ArithmeticError("certificate escaped the right-factor span")

    U_raw, _ = np.linalg.qr(gen.standard_normal((rows, rows)))
    F = (U_raw * sigma) @ V.T
    # residual vector r with F^T r = gamma * xi makes x_opt exactly optimal
    b = F @ x_opt + U_raw @ (gamma * alpha / sigma)
    return DesignedProblem(
        problem=LassoProblem(F=F, b=b, gamma=gamma), planted_optimum=x_opt
    )


def _orthonormal_factor(raw: np.ndarray, order: list[int]) -> np.ndarray:
    """Q[:, order] for the thin QR raw = Q R, up to the signs of Q's columns;
    raw's columns are scaled to unit norm in place, which leaves Q as it is.

    Q = raw C^-T for the Cholesky factor C of raw^T raw, so the tall matrix
    is read by BLAS-3 products only and the column order is folded into the
    small C^-T.  That Q is kept only when max|Q^T Q - I| <= GRAM_ORTHO_TOL;
    otherwise, or when raw^T raw is not numerically positive definite,
    Householder QR decides.
    """
    raw /= np.linalg.norm(raw, axis=0)
    try:
        C = np.linalg.cholesky(raw.T @ raw)
    except np.linalg.LinAlgError:
        C = None
    if C is not None:
        V = raw @ np.linalg.inv(C).T[:, order]
        if np.abs(V.T @ V - np.eye(V.shape[1])).max() <= GRAM_ORTHO_TOL:
            return V
    return np.linalg.qr(raw)[0][:, order]


def gaussian_problem(
    rng: SeededRng,
    *,
    rows: int = 38,
    cols: int = 500,
    gamma: float = 5.0,
) -> LassoProblem:
    """i.i.d. standard-normal F, then b, in one draw; F has full rank with
    probability 1, and the harness checks the rank of every replication."""
    gen = rng.generator
    F = gen.standard_normal((rows, cols))
    b = gen.standard_normal(rows)
    return LassoProblem(F=F, b=b, gamma=gamma)
