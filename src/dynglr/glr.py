"""Label-signal restoration by graph-Laplacian-regularized least squares.

The smoothed signal minimizes ||y - b||^2 + mu * b' L b, an unconstrained
convex quadratic whose unique minimizer solves (I + mu L) b = y. The system
is symmetric positive definite; choosing mu <= (kappa - 1) / (2 d_max) keeps
its spectral condition number at or below kappa, so plain conjugate gradients
converge fast and stably.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import SolverError, ValidationError
from .graphs import DENSE_NODE_GUARD, LaplacianSystem

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GlrParams:
    kappa: float = 60.0
    mu_fraction: float = 0.67
    solver_tol: float = 1e-10
    max_iter_factor: int = 10

    def __post_init__(self):
        if self.kappa <= 1:
            raise ValidationError("kappa must exceed 1")
        if not 0 < self.mu_fraction <= 1:
            raise ValidationError("mu_fraction must be in (0, 1]")


def mu_max(kappa: float, d_max: float) -> float:
    """Largest smoothness factor keeping cond(I + mu L) <= kappa."""
    if kappa <= 1:
        raise ValidationError("kappa must exceed 1")
    if d_max < 0:
        raise ValidationError("d_max must be nonnegative")
    if d_max == 0:
        return math.inf
    return (kappa - 1.0) / (2.0 * d_max)


def _conjugate_gradient(system: sp.csr_matrix, b: np.ndarray, x0: np.ndarray,
                        tol: float, max_iter: int,
                        residual_log: list | None = None) -> tuple[np.ndarray, bool]:
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), True
    x = x0.copy()
    r = b - system @ x
    d = r.copy()
    rr = float(r @ r)
    for _ in range(max_iter):
        if residual_log is not None:
            residual_log.append(math.sqrt(rr) / b_norm)
        if math.sqrt(rr) <= tol * b_norm:
            return x, True
        sd = system @ d
        alpha = rr / float(d @ sd)
        x += alpha * d
        r -= alpha * sd
        rr_next = float(r @ r)
        d = r + (rr_next / rr) * d
        rr = rr_next
    return x, math.sqrt(rr) <= tol * b_norm


def denoise(lap: LaplacianSystem, y_prev: np.ndarray, params: GlrParams,
            mu: float | None = None, residual_log: list | None = None) -> np.ndarray:
    """Solve (I + mu L) y = y_prev with mu = mu_fraction * mu_max.

    An explicit nonnegative mu overrides the params-derived one (mu = 0 is
    the identity). Edgeless graphs short-circuit to the identity. If CG fails
    to reach the relative-residual tolerance within max_iter_factor * N
    iterations, falls back to a dense direct solve with a warning, or raises
    SolverError above DENSE_NODE_GUARD nodes, where the dense matrix alone
    would take N^2 * 8 bytes.
    """
    y_prev = np.asarray(y_prev, dtype=np.float64)
    if not np.all(np.isfinite(y_prev)):
        raise ValidationError("input signal contains non-finite values")
    if mu is not None and mu < 0:
        raise ValidationError("mu must be nonnegative")
    if lap.d_max == 0.0 or mu == 0.0:
        return y_prev.copy()
    n = y_prev.shape[0]
    if mu is None:
        mu = params.mu_fraction * mu_max(params.kappa, lap.d_max)
    system = (sp.identity(n, format="csr") + mu * lap.laplacian).tocsr()
    x, converged = _conjugate_gradient(system, y_prev, y_prev,
                                       params.solver_tol, params.max_iter_factor * n,
                                       residual_log)
    if not converged:
        iters = params.max_iter_factor * n
        if n > DENSE_NODE_GUARD:
            residual = np.linalg.norm(y_prev - system @ x) / np.linalg.norm(y_prev)
            raise SolverError(
                f"CG did not converge on N={n} nodes in {iters} iterations (relative "
                f"residual {residual:.3g}); a dense fallback needs N <= {DENSE_NODE_GUARD}")
        logger.warning("CG did not converge in %d iterations; dense fallback", iters)
        x = np.linalg.solve(system.toarray(), y_prev)
    return x

