"""KNN graphs over embedding spaces.

Construction keeps, for node i, its gamma_i nearest neighbors by squared
Euclidean distance and symmetrizes with an OR rule. Selection finds each
node's neighbor set, not its order: a partition of each distance row bounds
the candidates, and only rows with ties at the bound are ranked. Edge
weights come from a Gaussian kernel whose scale maximizes the gap between
mean same-label and mean opposite-label edge weights; each undirected edge's
length and kernel value are computed once and mirrored onto both directions.
The paper's adjacency a_ij = max(w_ij e_ij, w_ji e_ji) is the weight matrix
itself, because the edge set is symmetric and the kernel gives w_ij = w_ji.
A graph is therefore the edge list of one symmetric weight matrix: its
nonzero entries in row-major order, each edge once per direction. The
combinatorial Laplacian L = D - A feeds the signal-restoration solver, and
the update rule recounts per-node degree budgets from edges that stayed
reliable after denoising.

Only the Laplacian is a matrix. build_laplacian forms it as a dense (n, n)
array for graphs of at most DENSE_BACKING_MAX nodes (the per-batch and
frozen-chain graphs) and as a csr matrix above (a train+val working set).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError

logger = logging.getLogger(__name__)

_DIST_CHUNK = 512
# largest graph for which the spectrum's dense (N, N) eigendecomposition runs
DENSE_NODE_GUARD = 4000
# largest graph whose Laplacian is a dense (n, n) array instead of a csr
# matrix. Batch graphs have 100 nodes and frozen-chain graphs 100-120; at
# that size scipy's per-call overhead outweighs the arithmetic. One Laplacian
# build and denoise (16-dim embeddings, gamma 10, BLAS on 1 thread, medians
# of three probes) took dense 0.25 vs csr 0.97 ms at 100 nodes, 0.49 vs 1.03
# at 150, 0.63 vs 1.11 at 200 and 1.07 vs 1.20 at 250; the two were even at
# 300 (1.57 ms). No workload graph has between 150 and 2,760 nodes.
DENSE_BACKING_MAX = 150


@dataclass(frozen=True)
class Graph:
    """Undirected graph: the nonzero entries of its symmetric weight matrix
    (unit weights before any kernel is assigned) in row-major order, each
    edge once per direction, and per-node neighbor budgets."""

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        rows, cols, weights = self.rows, self.cols, self.weights
        if not (rows.ndim == 1 and rows.shape == cols.shape == weights.shape
                and self.gamma.ndim == 1):
            raise ValidationError(
                "a graph needs equal-length 1-D rows, cols and weights and a 1-D gamma, got "
                f"shapes {rows.shape}, {cols.shape}, {weights.shape} and {self.gamma.shape}")

    @property
    def n_nodes(self) -> int:
        return self.gamma.shape[0]

    def _csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The (n, n) csr matrix with data on the graph's entries."""
        counts = np.bincount(self.rows, minlength=self.n_nodes)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return sp.csr_matrix((data, self.cols, indptr), shape=(self.n_nodes, self.n_nodes))

    @property
    def edges(self) -> sp.csr_matrix:
        """The int8 edge pattern as a csr matrix."""
        return self._csr(np.ones(self.cols.size, dtype=np.int8))

    @cached_property
    def upper(self) -> np.ndarray:
        """Mask of the upper-triangle entries, cols > rows: each undirected edge once."""
        return self.cols > self.rows

    @cached_property
    def laplacian(self) -> np.ndarray | sp.csr_matrix:
        """Built on first use: most frozen-chain graphs are reweighted
        before any denoising pass needs their Laplacian."""
        return build_laplacian(self)


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of a and rows of b."""
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    d = aa + bb - 2.0 * (a @ b.T)
    np.maximum(d, 0.0, out=d)
    return d


def nearest(d: np.ndarray, k: int) -> np.ndarray:
    """Each row's k smallest columns in ascending order, ties broken by
    column index: the first k columns of a stable argsort of the rows, found
    without sorting them. The k-th value of each row bounds its candidates;
    only those are sorted."""
    m, n = d.shape
    k = min(int(k), n)
    if k < 1:
        raise ValidationError("need k >= 1 and at least one column")
    kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
    # NaN compares false, so a NaN bound or entry stays a candidate
    rows, cols = np.divmod(np.flatnonzero(~(d > kth)), n)
    counts = np.bincount(rows, minlength=m)
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    # candidates in column order, padded with NaN, which sorts after every
    # value; the stable sort then orders each row by (distance, column)
    vals = np.full((m, counts.max(initial=0)), np.nan)
    vals[rows, slot] = d[rows, cols]
    idx = np.zeros(vals.shape, dtype=np.intp)
    idx[rows, slot] = cols
    order = np.argsort(vals, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(idx, order, axis=1)


def directed_knn(embeddings: np.ndarray, gamma) -> np.ndarray:
    """Flat row-major keys i * n + j of the selected pairs, ascending: row i
    selects its gamma_i nearest other rows, ties broken by index, and lists
    them by column, not by distance. Its gamma_i-th smallest distance bounds
    its candidates; only rows with more candidates (ties, NaN) are ranked."""
    n = embeddings.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 nodes to build a graph")
    gamma = np.full(n, gamma, dtype=np.int64)
    if gamma.min() < 1:
        raise ValidationError("every gamma_i must be >= 1")
    gamma = np.minimum(gamma, n - 1)
    keys = []
    for start in range(0, n, _DIST_CHUNK):
        stop = min(start + _DIST_CHUNK, n)
        m = stop - start
        d = pairwise_sq_dists(embeddings[start:stop], embeddings)
        d[np.arange(m), np.arange(start, stop)] = np.inf
        budget = gamma[start:stop]
        kmax = int(budget.max())
        # each row's kmax smallest distances, sorted only when budgets differ;
        # rebinding frees the (m, n) partition before the next chunk's distances
        bound = np.partition(d, kmax - 1, axis=1)[:, :kmax]
        if budget.min() < kmax:
            bound.sort(axis=1)
        bound = bound[np.arange(m), budget - 1]
        # candidates as flat keys (a 1-D search is faster than a 2-D one);
        # NaN compares false, so a NaN bound or entry stays one
        flat = np.flatnonzero(~(d > bound[:, None]))
        over = np.flatnonzero(np.bincount(flat // n, minlength=m) > budget)
        if over.size:
            ranked = nearest(d[over], int(budget[over].max()))
            chosen = np.arange(ranked.shape[1]) < budget[over][:, None]
            flat = np.sort(np.concatenate([flat[~np.isin(flat // n, over)],
                                           np.repeat(over * n, budget[over]) + ranked[chosen]]))
        keys.append(flat + start * n)
    return np.concatenate(keys)


def knn_edges(embeddings: np.ndarray, gamma) -> Graph:
    """Symmetric KNN graph: e_ij = 1 iff j in i's gamma_i nearest or vice
    versa."""
    keys = directed_knn(embeddings, gamma)
    n = embeddings.shape[0]
    # each undirected edge once per direction, in row-major order: the keys
    # and their transposes, sorted, repeats dropped (np.unique is 10x slower)
    rows, cols = np.divmod(keys, n)
    keys = np.sort(np.concatenate([keys, cols * n + rows]))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    rows, cols = np.divmod(keys, n)
    return Graph(rows, cols, np.ones(keys.size), np.full(n, gamma, dtype=np.int64))


def partition_edges(g: Graph, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-label (P) and opposite-label (Q) edges by the sign of endpoint
    labels, as masks over g's upper-triangle entries; 0-label edges go to
    neither set."""
    si, sj = np.sign(labels[g.rows[g.upper]]), np.sign(labels[g.cols[g.upper]])
    classified = (si != 0) & (sj != 0)
    return classified & (si == sj), classified & (si != sj)


def auto_sigma(g: Graph, sq: np.ndarray, same: np.ndarray, opposite: np.ndarray) -> float:
    """Kernel scale maximizing exp(-wP^2/2s^2) - exp(-wQ^2/2s^2).

    sq holds the squared embedding lengths of g's upper-triangle entries (g
    is read only for its size, by which perfbench's tracer tags the call),
    and wP/wQ are the mean lengths over the same/opposite-label edges that
    the masks select. The stationary point gives sigma^2 = (wQ^2 - wP^2) /
    (2 ln(wQ^2 / wP^2)) when wQ > wP; otherwise falls back to wP (or the
    mean edge length when a set is empty), flagged in the log.
    """
    d_same, d_opp = np.sqrt(sq[same]), np.sqrt(sq[opposite])
    if d_same.size == 0 or d_opp.size == 0:
        pooled = np.concatenate([d_same, d_opp])
        sigma = float(pooled.mean()) if pooled.size else 1.0
        logger.warning("empty edge class; falling back to mean edge distance sigma=%.4g", sigma)
        return max(sigma, 1e-12)
    w_p, w_q = float(d_same.mean()), float(d_opp.mean())
    if w_p < 1e-12:
        logger.warning("degenerate zero same-label distance; sigma := wQ/2")
        return max(w_q / 2.0, 1e-12)
    if w_q <= w_p:
        # expected while an embedding is still training; fallback, not a fault
        logger.info("wQ <= wP (%.4g <= %.4g); sigma := wP", w_q, w_p)
        return w_p
    return float(np.sqrt((w_q**2 - w_p**2) / (2.0 * np.log(w_q**2 / w_p**2))))


def assign_weights(g: Graph, embeddings: np.ndarray, same: np.ndarray,
                   opposite: np.ndarray) -> Graph:
    """Gaussian-kernel weights on the existing edge set, at the auto_sigma
    scale of the partition_edges masks. Each undirected edge's length and
    kernel value are computed once and mirrored onto both directions. Edges
    whose kernel value underflows to exactly 0 leave the graph."""
    i, j = g.rows[g.upper], g.cols[g.upper]
    diff = embeddings[i] - embeddings[j]
    sq = (diff * diff).sum(axis=1)
    kernel = np.exp(-sq / (2.0 * auto_sigma(g, sq, same, opposite)**2))
    # entry k of the lower triangle, in row-major order, is the transpose of
    # the k-th upper entry in column-major order
    values = np.empty(g.rows.size)
    values[g.upper] = kernel
    values[~g.upper] = kernel[np.argsort(j * g.n_nodes + i)]
    kept = values != 0
    return Graph(g.rows[kept], g.cols[kept], values[kept], g.gamma)


def build_laplacian(g: Graph) -> np.ndarray | sp.csr_matrix:
    """L = D - A, with the symmetric weight matrix as A: a dense array up to
    DENSE_BACKING_MAX nodes, a csr matrix above. The diagonal of L holds the
    degrees, since A has no self-loops."""
    n = g.n_nodes
    if n <= DENSE_BACKING_MAX:
        w = np.zeros((n, n))
        w[g.rows, g.cols] = g.weights
        lap = -w
        np.fill_diagonal(lap, w.sum(axis=1))
        return lap
    w = g._csr(g.weights)
    degrees = np.asarray(w.sum(axis=1)).ravel()
    return (sp.diags(degrees) - w).tocsr()


def surviving_edge_budgets(g: Graph, denoised: np.ndarray, beta: float) -> np.ndarray:
    """Per-node counts of edges that stayed reliable after denoising.

    An edge survives iff its endpoints share the sign of the denoised signal
    and its weight exceeds beta; opposite-sign or weak edges are removed, as
    are edges touching an exactly-zero (unlabeled) value. Budgets are floored
    at 1 (logged).
    """
    si = np.sign(denoised[g.rows])
    sj = np.sign(denoised[g.cols])
    survive = (si != 0) & (sj != 0) & (si == sj) & (g.weights > beta)
    budgets = np.bincount(g.rows[survive], minlength=g.n_nodes).astype(np.int64)
    floored = budgets < 1
    if floored.any():
        logger.info("floored %d node budgets to 1", int(floored.sum()))
        budgets = np.maximum(budgets, 1)
    return budgets


def graph_update(g: Graph, denoised: np.ndarray, embeddings_new: np.ndarray,
                 beta: float) -> Graph:
    """Recount budgets from surviving edges, then rebuild KNN in the new space.

    Returns an unweighted graph (weights identically 1) whose per-node budgets
    are the survivor counts.
    """
    return knn_edges(embeddings_new, surviving_edge_budgets(g, denoised, beta))


def gft_spectrum(laplacian: np.ndarray | sp.csr_matrix, signal: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of L (ascending) and |projection| of the signal on each mode.

    Dense eigendecomposition; refuses above the node guard so callers
    subsample instead of stalling.
    """
    n = laplacian.shape[0]
    if n > DENSE_NODE_GUARD:
        raise ValidationError(
            f"spectrum needs a dense eigendecomposition; N={n} exceeds the "
            f"{DENSE_NODE_GUARD}-node guard - subsample the graph first")
    dense = laplacian if isinstance(laplacian, np.ndarray) else laplacian.toarray()
    eigvals, eigvecs = np.linalg.eigh(dense)
    coefs = eigvecs.T @ np.asarray(signal, dtype=np.float64)
    return eigvals, np.abs(coefs)


def dump_spectrum(eigvals: np.ndarray, magnitudes: np.ndarray, path) -> None:
    lines = ["lambda,magnitude"]
    lines += [f"{lam:.12g},{mag:.12g}" for lam, mag in zip(eigvals, magnitudes)]
    Path(path).write_text("\n".join(lines) + "\n")
