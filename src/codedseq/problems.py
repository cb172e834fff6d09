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

# The tail mode (1-based) that holds the fringe certificate; a designed
# instance needs at least this many rows.
HIDDEN_MODE = 16
# Planted spike size, number of fringe coordinates and their size relative to
# the spike, and half-width of the off-support certificate box (inside [-1, 1]).
SPIKE = 5.0
FRINGE_SIZE = 8
FRINGE_SCALE = 0.05
CERTIFICATE_BOX = 0.2
# Largest singular value and smallest-to-largest ratio: cond(F) = 1/SIGMA_DECAY.
SIGMA_TOP = 4.0
SIGMA_DECAY = 0.7


@dataclass(frozen=True)
class DesignedProblem:
    """A lasso instance with a known planted optimum."""

    problem: LassoProblem
    planted_optimum: np.ndarray

    @staticmethod
    def check_shape(rows: int, cols: int) -> None:
        """Raise ValueError unless HIDDEN_MODE <= rows <= cols."""
        if rows > cols:
            raise ValueError(f"source 'designed' needs rows <= cols, got {rows} x {cols}")
        if rows < HIDDEN_MODE:
            raise ValueError(f"source 'designed' needs rows >= {HIDDEN_MODE}, got {rows}")


def designed_problem(
    rng: SeededRng,
    *,
    rows: int = 38,
    cols: int = 500,
    gamma: float = 5.0,
) -> DesignedProblem:
    """Instance with planted optimum: one spike plus a small hidden fringe.

    The optimum is ``SPIKE`` on one coordinate plus ``FRINGE_SIZE`` small
    coordinates of relative size ``FRINGE_SCALE``.  The fringe's certificate
    lives entirely in right-singular mode ``HIDDEN_MODE`` (1-based), so any
    truncation of rank < HIDDEN_MODE solves the spike-only problem instead;
    the relative gap between the two optima is about ``FRINGE_SCALE``.  The
    singular values fall geometrically from ``SIGMA_TOP`` to
    ``SIGMA_TOP * SIGMA_DECAY``; off the support the certificate is drawn
    from [-CERTIFICATE_BOX, CERTIFICATE_BOX].  The constants are read at
    each call.  ``DesignedProblem.check_shape`` refuses a shape before the
    first draw.

    The right factor V comes from one Cholesky pass over the Gram matrix of
    the tall ``(cols, rows)`` matrix it orthonormalises, certified with
    ``solver.GRAM_ORTHO_TOL``; Householder QR is the fallback.  The two
    differ only in the signs of V's columns.  A flipped column of V flips
    the matching entry of alpha and column of U_raw, so F^T F, F^T b and
    |b|, hence the lasso problem and each of its rank-r truncations, are
    the same on both routes up to rounding.
    """
    DesignedProblem.check_shape(rows, cols)
    gen = rng.generator
    sigma = SIGMA_TOP * SIGMA_DECAY ** (np.arange(rows) / (rows - 1))

    j0 = int(gen.integers(cols))
    s0 = float(gen.choice([-1.0, 1.0]))
    others = np.setdiff1d(np.arange(cols), [j0])
    fringe = gen.choice(others, size=FRINGE_SIZE, replace=False)
    fr_sign = gen.choice([-1.0, 1.0], size=FRINGE_SIZE)
    fr_values = (
        FRINGE_SCALE * SPIKE / np.sqrt(FRINGE_SIZE)
        * fr_sign * (0.7 + 0.6 * gen.random(FRINGE_SIZE))
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
    # HIDDEN_MODE the fringe-pinning part, the rest Haar-orthogonal filler
    raw = np.column_stack(
        [xi_visible, xi_hidden, gen.standard_normal((cols, rows - 2))]
    )
    order = [0] + list(range(2, HIDDEN_MODE)) + [1] + list(range(HIDDEN_MODE, rows))
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
