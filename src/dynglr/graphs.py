"""KNN graphs over embedding spaces.

Construction keeps, for node i, its gamma_i nearest neighbors by squared
Euclidean distance and symmetrizes with an OR rule; edge weights come from a
Gaussian kernel whose scale maximizes the gap between mean same-label and
mean opposite-label edge weights. The paper's adjacency
a_ij = max(w_ij e_ij, w_ji e_ji) is the weight matrix itself, because the edge
set is symmetric and the kernel gives w_ij = w_ji, so a graph is one
symmetric weight matrix whose support is its edge set. The combinatorial
Laplacian L = D - A feeds the signal-restoration solver, and the update rule
recounts per-node degree budgets from edges that stayed reliable after
denoising.

A graph of at most DENSE_BACKING_MAX nodes (the per-batch and frozen-chain
graphs) keeps its weights in a dense (n, n) array; a larger one (a train+val
working set) in a csr matrix. knn_edges picks the backing by node count,
and every later function follows the type of Graph.weights.
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
# largest graph for which a dense (N, N) matrix is formed: the spectrum's
# eigendecomposition and the GLR solver's direct fallback
DENSE_NODE_GUARD = 4000
# largest graph whose weights are a dense (n, n) array instead of a csr
# matrix. Batch graphs have 100 nodes and frozen-chain graphs 100-120; at
# that size scipy's per-call overhead outweighs the arithmetic. One chain of
# KNN build, weights, denoise, update-net inputs, update and denoise (16-dim
# embeddings, gamma 10, BLAS on 1 thread, medians of three probes) took
# dense 2.7 vs csr 3.9 ms at 100 nodes and 4.5 vs 4.7 ms at 150; the two
# were even at 200 (6.5 ms each), and dense lost at 250 and 300 nodes
# (16.0 vs 12.5 ms at 300).
DENSE_BACKING_MAX = 150


def _nonzeros(w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the weight entries of either backing, in
    row-major order: a dense array's nonzeros, a csr matrix's stored
    entries."""
    if isinstance(w, np.ndarray):
        # a flat search of a boolean mask: np.nonzero on the 2-D array, or
        # on the floats themselves, is several times slower
        flat = np.flatnonzero(w != 0)
        rows, cols = np.divmod(flat, w.shape[1])
        return rows, cols, w.ravel()[flat]
    if not w.has_sorted_indices:
        w = w.sorted_indices()
    rows = np.repeat(np.arange(w.shape[0], dtype=w.indices.dtype), np.diff(w.indptr))
    return rows, w.indices, w.data


@dataclass(frozen=True)
class Graph:
    """Undirected graph: a symmetric weight matrix (unit weights before any
    kernel is assigned) whose nonzeros are the edges, and per-node neighbor
    budgets. The weights are a square float ndarray or a csr matrix."""

    weights: np.ndarray | sp.csr_matrix
    gamma: np.ndarray

    def __post_init__(self):
        w = self.weights
        dense = (isinstance(w, np.ndarray) and w.ndim == 2 and w.shape[0] == w.shape[1]
                 and w.dtype.kind == "f")
        if not (dense or (sp.issparse(w) and w.format == "csr")):
            raise ValidationError(
                "graph weights must be a csr matrix or a square 2-D float ndarray, got "
                f"{type(w).__name__} {getattr(w, 'dtype', '')} {getattr(w, 'shape', '')}")

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    @property
    def edges(self) -> sp.csr_matrix:
        """The int8 edge pattern of the weights, a csr matrix for either
        backing."""
        rows, cols, _ = _nonzeros(self.weights)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=self.n_nodes))))
        return sp.csr_matrix((np.ones(cols.size, dtype=np.int8), cols, indptr),
                             shape=self.weights.shape)

    @property
    def edge_pairs(self) -> np.ndarray:
        """Upper-triangle (i, j) pairs, i < j, one row per undirected edge,
        in row-major order."""
        rows, cols, _ = _nonzeros(self.weights)
        upper = cols > rows
        return np.column_stack([rows[upper], cols[upper]])

    @cached_property
    def laplacian(self) -> np.ndarray | sp.csr_matrix:
        """Built on first use: most frozen-chain graphs are reweighted
        before any denoising pass needs their Laplacian."""
        return build_laplacian(self)


@dataclass(frozen=True)
class EdgePartition:
    """Same-label (P) and opposite-label (Q) edge pairs; rows are (i, j)."""

    same: np.ndarray
    opposite: np.ndarray


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
    rows, cols = np.nonzero(~(d > kth))
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


def directed_knn(embeddings: np.ndarray, gamma) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the selected pairs: row i selects its gamma_i nearest
    other rows, ties broken by index. Pairs come row by row, nearest first."""
    n = embeddings.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 nodes to build a graph")
    gamma = np.broadcast_to(np.asarray(gamma, dtype=np.int64), (n,))
    if gamma.min() < 1:
        raise ValidationError("every gamma_i must be >= 1")
    gamma = np.minimum(gamma, n - 1)
    cols = []
    for start in range(0, n, _DIST_CHUNK):
        stop = min(start + _DIST_CHUNK, n)
        d = pairwise_sq_dists(embeddings[start:stop], embeddings)
        d[np.arange(stop - start), np.arange(start, stop)] = np.inf
        budget = gamma[start:stop]
        nn = nearest(d, budget.max())
        cols.append(nn[np.arange(nn.shape[1]) < budget[:, None]])
    return np.repeat(np.arange(n), gamma), np.concatenate(cols)


def knn_edges(embeddings: np.ndarray, gamma) -> Graph:
    """Symmetric KNN graph: e_ij = 1 iff j in i's gamma_i nearest or vice
    versa. Dense weights up to DENSE_BACKING_MAX nodes, csr above."""
    rows, cols = directed_knn(embeddings, gamma)
    n = embeddings.shape[0]
    if n <= DENSE_BACKING_MAX:
        weights = np.zeros((n, n))
        weights[rows, cols] = 1.0
        weights[cols, rows] = 1.0
    else:
        # each undirected edge once per direction, in row-major order (a sort
        # and a neighbour compare: np.unique is ten times slower)
        keys = np.sort(np.concatenate([rows * n + cols, cols * n + rows]))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        weights = sp.csr_matrix((np.ones(keys.size), keys % n, indptr), shape=(n, n))
    gamma_vec = np.broadcast_to(np.asarray(gamma, dtype=np.int64), (n,)).copy()
    return Graph(weights=weights, gamma=gamma_vec)


def partition_edges(g: Graph, labels: np.ndarray) -> EdgePartition:
    """Split edges by the sign of endpoint labels; 0-label edges go to neither set."""
    pairs = g.edge_pairs
    si = np.sign(labels[pairs[:, 0]])
    sj = np.sign(labels[pairs[:, 1]])
    classified = (si != 0) & (sj != 0)
    same = pairs[classified & (si == sj)]
    opposite = pairs[classified & (si != sj)]
    return EdgePartition(same=same, opposite=opposite)


def edge_distances(embeddings: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    if pairs.size == 0:
        return np.zeros(0)
    diff = embeddings[pairs[:, 0]] - embeddings[pairs[:, 1]]
    return np.sqrt((diff * diff).sum(axis=1))


def auto_sigma(embeddings: np.ndarray, part: EdgePartition) -> float:
    """Kernel scale maximizing exp(-wP^2/2s^2) - exp(-wQ^2/2s^2).

    wP/wQ are mean embedding distances over same/opposite-label edges. The
    stationary point gives sigma^2 = (wQ^2 - wP^2) / (2 ln(wQ^2 / wP^2)) when
    wQ > wP; otherwise falls back to wP (or the mean edge distance when a set
    is empty), flagged in the log.
    """
    d_same = edge_distances(embeddings, part.same)
    d_opp = edge_distances(embeddings, part.opposite)
    if d_same.size == 0 or d_opp.size == 0:
        pooled = np.concatenate([d_same, d_opp])
        sigma = float(pooled.mean()) if pooled.size else 1.0
        logger.warning("empty edge class; falling back to mean edge distance sigma=%.4g", sigma)
        return max(sigma, 1e-12)
    w_p = float(d_same.mean())
    w_q = float(d_opp.mean())
    if w_p < 1e-12:
        logger.warning("degenerate zero same-label distance; sigma := wQ/2")
        return max(w_q / 2.0, 1e-12)
    if w_q <= w_p:
        # expected while an embedding is still training; fallback, not a fault
        logger.info("wQ <= wP (%.4g <= %.4g); sigma := wP", w_q, w_p)
        return w_p
    return float(np.sqrt((w_q**2 - w_p**2) / (2.0 * np.log(w_q**2 / w_p**2))))


def assign_weights(g: Graph, embeddings: np.ndarray, sigma: float) -> Graph:
    """Gaussian-kernel weights on the existing edge set. Edges whose kernel
    value underflows to exactly 0 leave the graph."""
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    w = g.weights
    rows, cols, _ = _nonzeros(w)
    diff = embeddings[rows] - embeddings[cols]
    sq = (diff * diff).sum(axis=1)
    values = np.exp(-sq / (2.0 * sigma**2))
    if isinstance(w, np.ndarray):
        weights = np.zeros_like(w)
        weights[rows, cols] = values
    else:
        weights = sp.csr_matrix((values, cols, w.indptr), shape=w.shape, copy=True)
        weights.eliminate_zeros()
    return Graph(weights=weights, gamma=g.gamma)


def build_laplacian(g: Graph) -> np.ndarray | sp.csr_matrix:
    """L = D - A, with the symmetric weight matrix as A, in the graph's
    backing. The diagonal of L holds the degrees, since A has no
    self-loops."""
    w = g.weights
    if isinstance(w, np.ndarray):
        lap = -w
        np.fill_diagonal(lap, w.sum(axis=1))
        return lap
    degrees = np.asarray(w.sum(axis=1)).ravel()
    return (sp.diags(degrees) - w).tocsr()


def surviving_edge_budgets(g: Graph, denoised: np.ndarray, beta: float) -> np.ndarray:
    """Per-node counts of edges that stayed reliable after denoising.

    An edge survives iff its endpoints share the sign of the denoised signal
    and its weight exceeds beta; opposite-sign or weak edges are removed, as
    are edges touching an exactly-zero (unlabeled) value. Budgets are floored
    at 1 (logged).
    """
    rows, cols, values = _nonzeros(g.weights)
    si = np.sign(denoised[rows])
    sj = np.sign(denoised[cols])
    survive = (si != 0) & (sj != 0) & (si == sj) & (values > beta)
    budgets = np.bincount(rows[survive], minlength=g.n_nodes).astype(np.int64)
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
