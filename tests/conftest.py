import numpy as np
import pytest
import scipy.sparse as sp

from dynglr import dataio
from dynglr.graphs import EdgeLaplacian, Graph, pairwise_sq_dists
from dynglr.metricnet import MetricNet
from dynglr.pipeline import ArchPreset, PipelineConfig

# Small everything: two hidden layers per net, a couple of epochs. Enough to
# exercise every stage without making the unit suite slow.
TINY_ARCH = ArchPreset(metric_hidden=(8, 4), update_hidden=(8, 4),
                       embed_lr=(0.02, 0.01), embed_epochs=2,
                       weight1_lr=(0.02, 0.01), weight1_epochs=2,
                       update_lr=(0.002, 0.001), update_epochs=2,
                       weight2_lr=(0.01, 0.002), weight2_epochs=2)


def tiny_config(variant="G-12312", seed=0, **overrides):
    defaults = dict(variant=variant, seed=seed, arch=TINY_ARCH, rank_sample_k=48,
                    rank_sample_batches=6, rank_coverage=1.0)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def dense(m) -> np.ndarray:
    """A graph's weight matrix or an EdgeLaplacian, scattered from its
    entries, or a dense or scipy sparse matrix, as a dense array."""
    if isinstance(m, (Graph, EdgeLaplacian)):
        w = np.zeros((m.n_nodes, m.n_nodes))
        w[m.rows, m.cols] = m.weights if isinstance(m, Graph) else m.values
        return w
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def edge_laplacian(lap) -> EdgeLaplacian:
    """A Laplacian's nonzero entries and every diagonal entry, zeros included,
    in row-major order: the edge-list form, which denoise solves by CG at any
    node count."""
    m = dense(lap)
    rows, cols = np.nonzero((m != 0) | np.eye(len(m), dtype=bool))
    return EdgeLaplacian(rows, cols, m[rows, cols], len(m))


def visited_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (C, m, n) distances of (C, m, f) and (C, n, f) stacks, assembled
    from the slices pairwise_sq_dists hands its visitor."""
    out = np.full((a.shape[0], a.shape[1], b.shape[1]), np.nan)

    def visit(k, r, s):
        out[k:k + s.shape[0], r:r + s.shape[1]] = s

    pairwise_sq_dists(a, b, visit)
    return out


def kernel_graph(g: Graph, emb: np.ndarray, sigma: float) -> Graph:
    """g with Gaussian-kernel weights at a chosen scale, each direction of an
    edge computed on its own; entries that underflow to 0 leave the graph.
    The oracle for tests that need a weighted graph at a fixed sigma."""
    diff = emb[g.rows] - emb[g.cols]
    values = np.exp(-(diff * diff).sum(axis=1) / (2.0 * sigma**2))
    kept = values != 0
    return Graph(g.rows[kept], g.cols[kept], values[kept], g.gamma, g.blocks)


def pair_graph(n: int, pairs) -> Graph:
    """The unweighted graph on n nodes whose undirected edges are pairs."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    keys = np.unique(np.concatenate([pairs[:, 0] * n + pairs[:, 1],
                                     pairs[:, 1] * n + pairs[:, 0]]))
    rows, cols = np.divmod(keys, n)
    return Graph(rows, cols, np.ones(keys.size), np.ones(n, dtype=np.int64))


def edge_pairs(g: Graph) -> np.ndarray:
    """Upper-triangle (i, j) pairs, i < j, in row-major order: each undirected
    edge once, in the order of the partition_edges masks."""
    return np.column_stack([g.rows[g.upper], g.cols[g.upper]])


def edge_sq(g: Graph, emb: np.ndarray) -> np.ndarray:
    """Squared embedding lengths of g's edge_pairs, the lengths auto_sigma reads."""
    pairs = edge_pairs(g)
    diff = emb[pairs[:, 0]] - emb[pairs[:, 1]]
    return (diff * diff).sum(axis=1)


def n_params(net: MetricNet) -> int:
    """Trainable parameter count of a net."""
    return sum(w.size for w in net.weights) + sum(b.size for b in net.biases)


def kernel_margin(sigma: float, w_p: float, w_q: float) -> float:
    """The objective auto_sigma maximizes: the gap between the Gaussian kernel
    weights at the mean same-label (w_p) and opposite-label (w_q) distances."""
    return float(np.exp(-(w_p**2) / (2 * sigma**2)) - np.exp(-(w_q**2) / (2 * sigma**2)))


def blob_dataset(n=300, dim=4, separation=4.0, seed=0, noise_rate=0.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    feats = np.vstack([rng.normal(-separation / 2, 1.0, (half, dim)),
                       rng.normal(separation / 2, 1.0, (n - half, dim))])
    labels = np.concatenate([-np.ones(half), np.ones(n - half)])
    ds = dataio.from_arrays(feats, labels, seed=seed)
    if noise_rate > 0:
        ds = dataio.inject_label_noise(ds, dataio.NoiseSpec(rate=noise_rate, seed=seed))
    else:
        ds = dataio.inject_label_noise(ds, dataio.NoiseSpec(rate=0.0, seed=seed))
    return ds


@pytest.fixture(scope="session")
def blobs():
    return blob_dataset()


@pytest.fixture(scope="session")
def noisy_blobs():
    return blob_dataset(noise_rate=0.2, seed=1)
