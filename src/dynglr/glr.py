"""Label-signal restoration by graph-Laplacian-regularized least squares.

The smoothed signal minimizes ||y - b||^2 + mu * b' L b, an unconstrained
convex quadratic whose unique minimizer solves (I + mu L) b = y. The system
is symmetric positive definite; choosing mu <= (kappa - 1) / (2 d_max) keeps
its spectral condition number at or below kappa, so plain conjugate gradients
converge fast and stably; a solve that fails to converge raises SolverError.
One CG loop solves each block of a block-diagonal graph with its own d_max,
mu, step sizes and residual test; a converged block steps by 0, as if alone.
On an edge list, (I + mu L) v is one np.bincount, adding rows as csr does.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import SolverError, ValidationError
from .graphs import EdgeLaplacian

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


def denoise(laplacian: np.ndarray | EdgeLaplacian, y_prev: np.ndarray,
            mu: float | None = None, residual_log: list | None = None) -> np.ndarray:
    """Solve (I + mu L) y = y_prev with mu = MU_FRACTION * mu_max(KAPPA, d_max).

    L is an EdgeLaplacian or a dense (C*b, b) stack of C blocks of b nodes,
    and CG runs on I + mu L in the same backing. Each block's d_max is its
    largest degree; an explicit nonnegative mu overrides every block's (0 is
    the identity), and edgeless blocks keep their signal. residual_log gets
    the largest relative residual of each residual test. Raises SolverError
    if a block misses SOLVER_TOL after MAX_ITER_FACTOR * b iterations.
    """
    y_prev = np.asarray(y_prev, dtype=np.float64)
    if not np.all(np.isfinite(y_prev)):
        raise ValidationError("input signal contains non-finite values")
    if mu is not None and not 0.0 <= mu < math.inf:
        raise ValidationError(f"mu must be finite and nonnegative, got {mu}")
    edge_list = isinstance(laplacian, EdgeLaplacian)
    n, b = (laplacian.n_nodes,) * 2 if edge_list else laplacian.shape
    if y_prev.shape != (n,):
        raise ValidationError(f"signal of shape {y_prev.shape} on a {n}-node Laplacian")
    c = n // b
    if edge_list:
        diag = laplacian.rows == laplacian.cols
        d_max = np.array([laplacian.values[diag].max(initial=0.0)])
    else:
        lap = laplacian.reshape(c, b * b)  # block k's diagonal: row k, every (b + 1)-th
        d_max = lap[:, ::b + 1].max(axis=1, initial=0.0)
    if not d_max.any() or mu == 0.0:
        return y_prev.copy()
    mu = np.full(c, mu) if mu is not None else np.array(
        [MU_FRACTION * mu_max(KAPPA, float(d)) if d else 0.0 for d in d_max])
    # one block runs on a vector with float steps (numpy's scalar fast path), a stack on rows
    shape = (c, b) if c > 1 else (n,)
    if edge_list:
        system = mu[0] * laplacian.values
        system[diag] += 1.0
        matvec = lambda v: np.bincount(laplacian.rows, system * v[laplacian.cols], minlength=n)
    else:
        system = mu[:, None] * lap
        system[:, ::b + 1] += 1.0
        matvec = functools.partial(np.matvec, system.reshape(shape[:-1] + (b, b)))
    col = (lambda a: a[:, None]) if c > 1 else float
    y = y_prev.reshape(shape)
    b_norm = np.sqrt(np.vecdot(y, y))
    bound = SOLVER_TOL * b_norm
    scale = np.where(b_norm > 0.0, b_norm, 1.0)
    x, r = y.copy(), y - matvec(y)
    d, rr = r.copy(), np.vecdot(r, r)
    iters = MAX_ITER_FACTOR * b
    # a converged block's step sizes may be 0/0 before they are zeroed
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(iters + 1):
            res = np.sqrt(rr)
            if residual_log is not None:
                residual_log.append(float((res / scale).max()))
            done = res <= bound
            n_done = np.count_nonzero(done)
            if n_done == c:
                return x.reshape(n)
            if it == iters:
                break
            sd = matvec(d)
            alpha = rr / np.vecdot(d, sd)
            if n_done:
                alpha[done] = 0.0
            x += col(alpha) * d
            r -= col(alpha) * sd
            rr_next = np.vecdot(r, r)
            beta = rr_next / rr
            if n_done:
                beta[done] = 0.0
            d = r + col(beta) * d
            rr = rr_next
    r = y - matvec(x)
    residual = (np.sqrt(np.vecdot(r, r)) / scale)[~done].max()
    raise SolverError(f"CG did not converge on N={b} nodes in {iters} iterations "
                      f"(relative residual {residual:.3g})")
