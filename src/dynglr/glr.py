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

import numpy as np
import scipy.sparse as sp

from .errors import SolverError, ValidationError
from .graphs import DENSE_NODE_GUARD

logger = logging.getLogger(__name__)

# the paper's condition bound, and the share of the largest mu it allows
KAPPA = 60.0
MU_FRACTION = 0.67
# CG stops at this relative residual, or after MAX_ITER_FACTOR * N iterations
SOLVER_TOL = 1e-10
MAX_ITER_FACTOR = 10


def mu_max(kappa: float, d_max: float) -> float:
    """Largest smoothness factor keeping cond(I + mu L) <= kappa."""
    if kappa <= 1:
        raise ValidationError("kappa must exceed 1")
    if d_max < 0:
        raise ValidationError("d_max must be nonnegative")
    if d_max == 0:
        return math.inf
    return (kappa - 1.0) / (2.0 * d_max)


def _conjugate_gradient(system: np.ndarray | sp.csr_matrix, b: np.ndarray, x0: np.ndarray,
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


def _system(laplacian: np.ndarray | sp.csr_matrix, mu: float) -> np.ndarray | sp.csr_matrix:
    """I + mu L in the backing of L, a dense array or a csr matrix."""
    if isinstance(laplacian, np.ndarray):
        system = mu * laplacian
        system[np.diag_indices(laplacian.shape[0])] += 1.0
        return system
    return (sp.identity(laplacian.shape[0], format="csr") + mu * laplacian).tocsr()


def denoise(laplacian: np.ndarray | sp.csr_matrix, y_prev: np.ndarray, mu: float | None = None,
            residual_log: list | None = None) -> np.ndarray:
    """Solve (I + mu L) y = y_prev with mu = MU_FRACTION * mu_max(KAPPA, d_max).

    L is a dense array or a csr matrix, and CG runs on I + mu L in the same
    backing. d_max is the largest diagonal entry of L, the largest degree.
    An explicit nonnegative mu overrides the derived one (mu = 0 is the
    identity). Edgeless graphs short-circuit to the identity. If CG fails to
    reach SOLVER_TOL within MAX_ITER_FACTOR * N iterations, falls back to a
    dense direct solve with a warning, or raises SolverError above
    DENSE_NODE_GUARD nodes, where the dense matrix alone would take N^2 * 8
    bytes.
    """
    y_prev = np.asarray(y_prev, dtype=np.float64)
    if not np.all(np.isfinite(y_prev)):
        raise ValidationError("input signal contains non-finite values")
    if mu is not None and mu < 0:
        raise ValidationError("mu must be nonnegative")
    d_max = float(laplacian.diagonal().max(initial=0.0))
    if d_max == 0.0 or mu == 0.0:
        return y_prev.copy()
    n = y_prev.shape[0]
    if mu is None:
        mu = MU_FRACTION * mu_max(KAPPA, d_max)
    system = _system(laplacian, mu)
    iters = MAX_ITER_FACTOR * n
    x, converged = _conjugate_gradient(system, y_prev, y_prev, SOLVER_TOL, iters,
                                       residual_log)
    if not converged:
        if n > DENSE_NODE_GUARD:
            residual = np.linalg.norm(y_prev - system @ x) / np.linalg.norm(y_prev)
            raise SolverError(
                f"CG did not converge on N={n} nodes in {iters} iterations (relative "
                f"residual {residual:.3g}); a dense fallback needs N <= {DENSE_NODE_GUARD}")
        logger.warning("CG did not converge in %d iterations; dense fallback", iters)
        x = np.linalg.solve(system if isinstance(system, np.ndarray) else system.toarray(),
                            y_prev)
    return x

