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

A graph of C equal blocks of b nodes is C graphs built, weighted and
denoised in one pass: each node ranks its own block's nodes, each block
gets its own kernel scale, and a single graph is one block. The Laplacian
is the dense (b, b) blocks stacked into a (C*b, b) array for b up to
DENSE_BACKING_MAX (batch graphs and frozen-chain stacks), and an edge list,
its entries in csr's order, above (a train+val working set).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ValidationError

logger = logging.getLogger(__name__)

# rows of one distance product; it fixes the product's shape, and BLAS gives
# an entry other bits at another row count, so changing it moves results
_DIST_CHUNK = 512
# entries per slice of a distance product: at 2**16 (512 KiB) a 3,600-node KNN
# build took 138 ms, against 144-157 ms at 2**15 and at 2**17-2**19. It is at
# least DENSE_BACKING_MAX**2, so that a stack's slices hold whole blocks.
_SLICE_ENTRIES = 2**16
# largest graph for which the spectrum's dense (N, N) eigendecomposition runs
DENSE_NODE_GUARD = 4000
# largest block whose Laplacian is dense instead of an edge list, and of a
# graph of several blocks; batch graphs and frozen-chain blocks have 100-120
# nodes. One Laplacian build and denoise (16-dim embeddings, gamma 10, BLAS on
# 1 thread, medians of three probes of 20 calls) took dense 0.40 vs edge list
# 0.65 ms at 100 nodes and 0.49 vs 0.74 at 150; the two were even at 200-250,
# and the edge list was faster from 300. No workload graph has 151-2,758 nodes.
DENSE_BACKING_MAX = 150


@dataclass(frozen=True)
class Graph:
    """Undirected graph: the nonzero entries of its symmetric weight matrix
    (unit weights before any kernel is assigned) in row-major order, each
    edge once per direction, per-node neighbor budgets, and the number of
    equal diagonal blocks, which no edge joins."""

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    gamma: np.ndarray
    blocks: int = 1

    def __post_init__(self):
        rows, cols, weights = self.rows, self.cols, self.weights
        if not (rows.ndim == 1 and rows.shape == cols.shape == weights.shape
                and self.gamma.ndim == 1):
            raise ValidationError(
                "a graph needs equal-length 1-D rows, cols and weights and a 1-D gamma, got "
                f"shapes {rows.shape}, {cols.shape}, {weights.shape} and {self.gamma.shape}")
        block_size(self.n_nodes, self.blocks)

    @property
    def n_nodes(self) -> int:
        return self.gamma.shape[0]

    @property
    def edges(self):
        """The int8 edge pattern as a scipy csr matrix, which perfbench's tracer
        and the tests read; scipy is imported here so that a run does not load it."""
        import scipy.sparse as sp
        return sp.csr_matrix((np.ones(self.cols.size, dtype=np.int8), (self.rows, self.cols)),
                             shape=(self.n_nodes, self.n_nodes))

    @cached_property
    def upper(self) -> np.ndarray:
        """Mask of the upper-triangle entries, cols > rows: each undirected edge once."""
        return self.cols > self.rows

    @cached_property
    def laplacian(self) -> np.ndarray | EdgeLaplacian:
        """Built on first use: most frozen-chain graphs are reweighted
        before any denoising pass needs their Laplacian."""
        return build_laplacian(self)


@dataclass(frozen=True)
class EdgeLaplacian:
    """L = D - A of an n_nodes graph: its entries in row-major order, each diagonal
    entry in column order as in csr, an isolated node's an explicit 0."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    n_nodes: int


def block_size(n: int, blocks: int) -> int:
    """Nodes per block of n nodes in equal blocks; several blocks hold at
    most DENSE_BACKING_MAX nodes each, so that their Laplacian is dense."""
    if blocks < 1 or n % blocks or (blocks > 1 and n // blocks > DENSE_BACKING_MAX):
        raise ValidationError(f"{n} nodes do not split into {blocks} equal blocks of at "
                              f"most {DENSE_BACKING_MAX} nodes")
    return n // blocks


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray, visit=lambda k, r, s: None) -> np.ndarray:
    """Squared Euclidean distances between rows of a and rows of b, per slice of stacks:
    one product a @ b^T (its bits depend on its shape and on whether a is b),
    finished in place a slice of rows or of whole stacked matrices at a time;
    visit(k, r, s) reads each finished slice s (matrices k.., rows r..) in cache."""
    d = a @ b.swapaxes(-1, -2)
    aa = (a * a).sum(axis=-1)[..., :, None]
    bb = (b * b).sum(axis=-1)[..., None, :]
    d3, aa, bb = (x if d.ndim == 3 else x[None] for x in (d, aa, bb))
    rows = max(1, _SLICE_ENTRIES // max(1, d3.shape[2]))
    per = max(1, rows // max(1, d3.shape[1]))
    for k in range(0, d3.shape[0], per):
        for r in range(0, d3.shape[1], rows):
            s = d3[k:k + per, r:r + rows]
            s *= 2.0
            np.subtract(aa[k:k + per, r:r + rows] + bb[k:k + per], s, out=s)
            visit(k, r, np.maximum(s, 0.0, out=s))
    return d


def nearest_rows(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """nearest(pairwise_sq_dists(a, b), k), a product per _DIST_CHUNK rows, slice by slice."""
    parts = [np.empty((0, min(int(k), b.shape[0])), dtype=np.intp)]
    for start in range(0, a.shape[0], _DIST_CHUNK):
        pairwise_sq_dists(a[start:start + _DIST_CHUNK], b,
                          lambda _k, _r, s: parts.append(nearest(s[0], k)))
    return np.concatenate(parts)


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


def directed_knn(embeddings: np.ndarray, gamma, blocks: int = 1) -> np.ndarray:
    """Flat row-major keys i * n + j of the selected pairs, ascending: row i
    selects its gamma_i nearest other rows of its block, ties broken by
    index, and lists them by column, not by distance. Its gamma_i-th
    smallest distance bounds its candidates; only rows with more candidates
    (ties, NaN) are ranked. Per _DIST_CHUNK rows (a count that fixes the bits),
    all blocks' distances are one stacked product, selected slice by slice."""
    n = embeddings.shape[0]
    b = block_size(n, blocks)
    if b < 2:
        raise ValidationError("need at least 2 nodes to build a graph")
    gamma = np.full(n, gamma, dtype=np.int64)
    if gamma.min() < 1:
        raise ValidationError("every gamma_i must be >= 1")
    gamma = np.minimum(gamma, b - 1).reshape(blocks, b)
    stacked = embeddings.reshape(blocks, b, -1)
    keys = []

    def select(k, r, d):
        m, first = d.shape[1], start + r
        d[:, np.arange(m), np.arange(first, first + m)] = np.inf
        budget = gamma[k:k + len(d), first:first + m].ravel()
        # one row per (block, row of the slice), one column per node of the block
        d = d.reshape(-1, b)
        kmax = int(budget.max())
        # each row's kmax smallest distances, sorted only when budgets differ
        bound = np.partition(d, kmax - 1, axis=1)[:, :kmax]
        if budget.min() < kmax:
            bound.sort(axis=1)
        bound = bound[np.arange(d.shape[0]), budget - 1]
        # candidates as flat keys (a 1-D search is faster than a 2-D one);
        # NaN compares false, so a NaN bound or entry stays one
        flat = np.flatnonzero(~(d > bound[:, None]))
        over = np.flatnonzero(np.bincount(flat // b, minlength=d.shape[0]) > budget)
        if over.size:
            ranked = nearest(d[over], int(budget[over].max()))
            chosen = np.arange(ranked.shape[1]) < budget[over][:, None]
            flat = np.sort(np.concatenate([flat[~np.isin(flat // b, over)],
                                           np.repeat(over * b, budget[over]) + ranked[chosen]]))
        if blocks > 1:
            # blocks come whole, so row q of d is node k * b + q, in block k + q // b
            flat = flat + flat // b * (n - b) + flat // (b * b) * b + k * b * (n + 1)
        keys.append(flat + first * n)

    for start in range(0, b, _DIST_CHUNK):
        pairwise_sq_dists(stacked[:, start:start + _DIST_CHUNK], stacked, select)
    return np.concatenate(keys)


def knn_edges(embeddings: np.ndarray, gamma, blocks: int = 1) -> Graph:
    """Symmetric KNN graph: e_ij = 1 iff j in i's gamma_i nearest or vice
    versa, i and j in one of the graph's equal blocks."""
    keys = directed_knn(embeddings, gamma, blocks)
    n = embeddings.shape[0]
    # each undirected edge once per direction, in row-major order: the keys
    # and their transposes, sorted, repeats dropped (np.unique is 10x slower)
    rows, cols = np.divmod(keys, n)
    keys = np.sort(np.concatenate([keys, cols * n + rows]))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    rows, cols = np.divmod(keys, n)
    return Graph(rows, cols, np.ones(keys.size), np.full(n, gamma, dtype=np.int64), blocks)


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
    """Gaussian-kernel weights on the existing edge set, at each block's
    auto_sigma scale of the partition_edges masks. Each undirected edge's
    length and kernel value are computed once and mirrored onto both
    directions. Edges whose kernel underflows to exactly 0 leave the graph."""
    i, j = g.rows[g.upper], g.cols[g.upper]
    diff = embeddings[i] - embeddings[j]
    sq = (diff * diff).sum(axis=1)
    # a block's upper entries are contiguous, since its rows are
    ends = np.searchsorted(i, np.arange(g.blocks + 1) * (g.n_nodes // g.blocks)).tolist()
    kernel = np.empty(sq.size)
    for a, z in zip(ends, ends[1:]):
        kernel[a:z] = np.exp(-sq[a:z] / (2.0 * auto_sigma(g, sq[a:z], same[a:z], opposite[a:z])**2))
    # entry k of the lower triangle, in row-major order, is the transpose of
    # the k-th upper entry in column-major order
    values = np.empty(g.rows.size)
    values[g.upper] = kernel
    values[~g.upper] = kernel[np.argsort(j * g.n_nodes + i)]
    kept = values != 0
    return Graph(g.rows[kept], g.cols[kept], values[kept], g.gamma, g.blocks)


def build_laplacian(g: Graph) -> np.ndarray | EdgeLaplacian:
    """L = D - A, with the symmetric weight matrix as A: the dense (b, b)
    blocks stacked into a (C*b, b) array up to DENSE_BACKING_MAX nodes per
    block, an EdgeLaplacian above. Its diagonal holds the degrees (no self-loops),
    summed by np.add.reduceat, as scipy sums a csr row; bincount gives other bits."""
    n = g.n_nodes
    b = n // g.blocks
    if b <= DENSE_BACKING_MAX:
        w = np.zeros((n, b))
        w[g.rows, g.cols % b] = g.weights
        lap = -w
        lap.reshape(g.blocks, b * b)[:, ::b + 1] = w.sum(axis=1).reshape(g.blocks, b)
        return lap
    nodes = np.arange(n)
    starts = np.searchsorted(g.rows, nodes)
    linked = starts < np.append(starts[1:], g.rows.size)
    degrees = np.zeros(n)
    degrees[linked] = np.add.reduceat(g.weights, starts[linked])
    # each diagonal entry goes before the row's first entry right of it
    slots = np.searchsorted(g.rows * n + g.cols, nodes * (n + 1))
    return EdgeLaplacian(np.insert(g.rows, slots, nodes), np.insert(g.cols, slots, nodes),
                         np.insert(-g.weights, slots, degrees), n)


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
    return knn_edges(embeddings_new, surviving_edge_budgets(g, denoised, beta), g.blocks)


def gft_spectrum(laplacian: np.ndarray | EdgeLaplacian, signal: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of L (ascending) and |projection| of the signal on each mode.

    Dense eigendecomposition; refuses above the node guard so callers
    subsample instead of stalling, and a signal of another length.
    """
    edge_list = isinstance(laplacian, EdgeLaplacian)
    n = laplacian.n_nodes if edge_list else laplacian.shape[0]
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape != (n,):
        raise ValidationError(f"signal of shape {signal.shape} on a {n}-node Laplacian")
    if n > DENSE_NODE_GUARD:
        raise ValidationError(
            f"spectrum needs a dense eigendecomposition; N={n} exceeds the "
            f"{DENSE_NODE_GUARD}-node guard - subsample the graph first")
    if edge_list:
        dense = np.zeros((n, n))
        dense[laplacian.rows, laplacian.cols] = laplacian.values
        laplacian = dense
    eigvals, eigvecs = np.linalg.eigh(laplacian)
    coefs = eigvecs.T @ signal
    return eigvals, np.abs(coefs)


def dump_spectrum(eigvals: np.ndarray, magnitudes: np.ndarray, path) -> None:
    lines = ["lambda,magnitude"]
    lines += [f"{lam:.12g},{mag:.12g}" for lam, mag in zip(eigvals, magnitudes)]
    Path(path).write_text("\n".join(lines) + "\n")
