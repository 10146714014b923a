"""Label-signal restoration by graph-Laplacian-regularized least squares.

The smoothed signal minimizes ||y - b||^2 + mu * b' L b, an unconstrained
convex quadratic whose unique minimizer solves (I + mu L) b = y. The system
is symmetric positive definite; choosing mu <= (kappa - 1) / (2 d_max) keeps
its spectral condition number at or below kappa. A dense stack of blocks is
solved exactly by one batched np.linalg.solve, an edge list by conjugate
gradients, whose product (I + mu L) v is one np.bincount, adding rows as csr
does. A residual above SOLVER_TOL raises SolverError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError, ValidationError
from .graphs import EdgeLaplacian

# the paper's condition bound, and the share of the largest mu it allows
KAPPA = 60.0
MU_FRACTION = 0.67
# a solve must reach this relative residual; CG gets MAX_ITER_FACTOR * N iterations
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

    L is a dense (C*b, b) stack of C blocks of b nodes, each block solved
    directly to the bits it gets alone, or an EdgeLaplacian, solved by CG.
    Each block's d_max is its largest degree; an explicit nonnegative mu
    overrides every block's (0 is the identity), and edgeless blocks keep
    their signal. residual_log gets the largest relative residual over the
    blocks of each residual test: CG's, one per iteration; a direct solve's,
    one before it (a block that passes keeps its signal) and one after it.
    Raises SolverError if a block misses SOLVER_TOL (CG gets MAX_ITER_FACTOR * b
    iterations).
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
    log = residual_log.append if residual_log is not None else lambda residual: None
    if edge_list:  # conjugate gradients on one system, from x = y_prev
        system = mu[0] * laplacian.values
        system[diag] += 1.0
        matvec = lambda v: np.bincount(laplacian.rows, system * v[laplacian.cols], minlength=n)
        b_norm = np.sqrt(np.vecdot(y_prev, y_prev))
        scale = b_norm if b_norm > 0.0 else 1.0
        x, r = y_prev.copy(), y_prev - matvec(y_prev)
        d, rr = r.copy(), np.vecdot(r, r)
        iters = MAX_ITER_FACTOR * n
        for it in range(iters + 1):
            res = np.sqrt(rr)
            log(float(res / scale))
            if res <= SOLVER_TOL * b_norm:
                return x
            if it == iters:
                break
            sd = matvec(d)
            alpha = float(rr / np.vecdot(d, sd))
            x += alpha * d
            r -= alpha * sd
            rr_next = np.vecdot(r, r)
            d = r + float(rr_next / rr) * d
            rr = rr_next
        raise SolverError(f"CG did not converge on N={n} nodes in {iters} iterations "
                          f"(relative residual {np.linalg.norm(y_prev - matvec(x)) / scale:.3g})")
    system = mu[:, None] * lap
    system[:, ::b + 1] += 1.0
    system = system.reshape(c, b, b)
    y = y_prev.reshape(c, b)
    scale = np.sqrt(np.vecdot(y, y))
    scale[scale == 0.0] = 1.0

    def residual(x):
        r = y - np.matvec(system, x)
        res = np.sqrt(np.vecdot(r, r)) / scale
        log(float(res.max()))
        return res

    kept = residual(y) <= SOLVER_TOL
    if kept.all():
        return y_prev.copy()
    x = np.linalg.solve(system, y[..., None])[..., 0]  # LAPACK gesv, block by block
    x[kept] = y[kept]
    worst = residual(x).max()
    if not worst <= SOLVER_TOL:  # NaN included
        raise SolverError(f"direct solve failed on N={b} nodes (relative residual {worst:.3g})")
    return x.reshape(n)
