"""Sparse KNN graphs over embedding spaces.

Construction keeps, for node i, its gamma_i nearest neighbors by squared
Euclidean distance and symmetrizes with an OR rule; edge weights come from a
Gaussian kernel whose scale maximizes the gap between mean same-label and
mean opposite-label edge weights. The combinatorial Laplacian L = D - A with
a_ij = max(w_ij e_ij, w_ji e_ji) feeds the signal-restoration solver, and the
update rule recounts per-node degree budgets from edges that stayed reliable
after denoising.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError

logger = logging.getLogger(__name__)

_DIST_CHUNK = 512
_GFT_NODE_GUARD = 4000


@dataclass(frozen=True)
class Graph:
    """Undirected graph: symmetric boolean edges, per-edge weights, budgets."""

    n_nodes: int
    edges: sp.csr_matrix
    weights: sp.csr_matrix
    gamma: np.ndarray

    @property
    def edge_pairs(self) -> np.ndarray:
        """Upper-triangle (i, j) pairs, i < j, one row per undirected edge."""
        coo = sp.triu(self.edges, k=1).tocoo()
        return np.column_stack([coo.row, coo.col])


@dataclass(frozen=True)
class LaplacianSystem:
    adjacency: sp.csr_matrix
    degrees: np.ndarray
    laplacian: sp.csr_matrix
    d_max: float


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


def directed_knn(embeddings: np.ndarray, gamma) -> sp.csr_matrix:
    """Row i selects its gamma_i nearest other rows; ties broken by index."""
    n = embeddings.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 nodes to build a graph")
    gamma = np.broadcast_to(np.asarray(gamma, dtype=np.int64), (n,))
    if gamma.min() < 1:
        raise ValidationError("every gamma_i must be >= 1")
    gamma = np.minimum(gamma, n - 1)
    rows, cols = [], []
    for start in range(0, n, _DIST_CHUNK):
        stop = min(start + _DIST_CHUNK, n)
        d = pairwise_sq_dists(embeddings[start:stop], embeddings)
        for local, i in enumerate(range(start, stop)):
            d[local, i] = np.inf
            order = np.argsort(d[local], kind="stable")
            chosen = order[: gamma[i]]
            rows.append(np.full(chosen.size, i, dtype=np.int64))
            cols.append(chosen.astype(np.int64))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.ones(rows.size, dtype=np.int8)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def knn_edges(embeddings: np.ndarray, gamma) -> Graph:
    """Symmetric KNN graph: e_ij = 1 iff j in i's gamma_i nearest or vice versa."""
    selected = directed_knn(embeddings, gamma)
    edges = selected.maximum(selected.T).tocsr()
    edges.data = np.ones_like(edges.data)
    n = embeddings.shape[0]
    weights = edges.astype(np.float64)
    gamma_vec = np.broadcast_to(np.asarray(gamma, dtype=np.int64), (n,)).copy()
    return Graph(n_nodes=n, edges=edges, weights=weights, gamma=gamma_vec)


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


def kernel_margin(sigma: float, w_p: float, w_q: float) -> float:
    """The objective auto_sigma maximizes, exposed for grid-search checks."""
    return float(np.exp(-(w_p**2) / (2 * sigma**2)) - np.exp(-(w_q**2) / (2 * sigma**2)))


def assign_weights(g: Graph, embeddings: np.ndarray, sigma: float) -> Graph:
    """Gaussian-kernel weights on the existing edge set (edges act as a mask)."""
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    coo = g.edges.tocoo()
    diff = embeddings[coo.row] - embeddings[coo.col]
    sq = (diff * diff).sum(axis=1)
    w = np.exp(-sq / (2.0 * sigma**2))
    weights = sp.csr_matrix((w, (coo.row, coo.col)), shape=g.edges.shape)
    return Graph(n_nodes=g.n_nodes, edges=g.edges, weights=weights, gamma=g.gamma)


def build_laplacian(g: Graph) -> LaplacianSystem:
    """L = D - A with a_ij = max over edge directions of masked weights."""
    masked = g.weights.multiply(g.edges).tocsr()
    adjacency = masked.maximum(masked.T).tocsr()
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    laplacian = (sp.diags(degrees) - adjacency).tocsr()
    d_max = float(degrees.max()) if degrees.size else 0.0
    return LaplacianSystem(adjacency=adjacency, degrees=degrees,
                           laplacian=laplacian, d_max=d_max)


def surviving_edge_budgets(g: Graph, lap: LaplacianSystem, denoised: np.ndarray,
                           beta: float) -> tuple[np.ndarray, sp.csr_matrix]:
    """Per-node counts of edges that stayed reliable after denoising.

    An edge survives iff its endpoints share the sign of the denoised signal
    and its adjacency entry exceeds beta; opposite-sign or weak edges are
    removed, as are edges touching an exactly-zero (unlabeled) value. Budgets
    are floored at 1 (logged).
    """
    coo = g.edges.tocoo()
    si = np.sign(denoised[coo.row])
    sj = np.sign(denoised[coo.col])
    a = np.asarray(lap.adjacency[coo.row, coo.col]).ravel()
    survive = (si != 0) & (sj != 0) & (si == sj) & (a > beta)
    survivors = sp.csr_matrix(
        (np.ones(int(survive.sum()), dtype=np.int8),
         (coo.row[survive], coo.col[survive])), shape=g.edges.shape)
    budgets = np.asarray(survivors.sum(axis=1)).ravel().astype(np.int64)
    floored = budgets < 1
    if floored.any():
        logger.info("floored %d node budgets to 1", int(floored.sum()))
        budgets = np.maximum(budgets, 1)
    return budgets, survivors


def graph_update(g: Graph, lap: LaplacianSystem, denoised: np.ndarray,
                 embeddings_new: np.ndarray, beta: float) -> Graph:
    """Recount budgets from surviving edges, then rebuild KNN in the new space.

    Returns an unweighted graph (weights identically 1) whose per-node budgets
    are the survivor counts.
    """
    budgets, _ = surviving_edge_budgets(g, lap, denoised, beta)
    return knn_edges(embeddings_new, budgets)


def gft_spectrum(lap: LaplacianSystem, signal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of L (ascending) and |projection| of the signal on each mode.

    Dense eigendecomposition; refuses above the node guard so callers
    subsample instead of stalling.
    """
    n = lap.laplacian.shape[0]
    if n > _GFT_NODE_GUARD:
        raise ValidationError(
            f"spectrum needs a dense eigendecomposition; N={n} exceeds the "
            f"{_GFT_NODE_GUARD}-node guard - subsample the graph first")
    eigvals, eigvecs = np.linalg.eigh(lap.laplacian.toarray())
    coefs = eigvecs.T @ np.asarray(signal, dtype=np.float64)
    return eigvals, np.abs(coefs)


def dump_spectrum(eigvals: np.ndarray, magnitudes: np.ndarray, path) -> None:
    lines = ["lambda,magnitude"]
    lines += [f"{lam:.12g},{mag:.12g}" for lam, mag in zip(eigvals, magnitudes)]
    Path(path).write_text("\n".join(lines) + "\n")
