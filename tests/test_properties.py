"""Property tests of the graph layer every chain step builds on: the KNN
rule, the Laplacian, and the GLR denoiser."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dynglr.glr import GlrParams, denoise
from dynglr.graphs import assign_weights, build_laplacian, knn_edges

# fixed example sequence, so a failure reproduces on every run
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def point_sets(draw):
    """(embeddings, per-node budgets); coincident points are allowed."""
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 4))
    emb = draw(arrays(np.float64, (n, dim), elements=coords))
    gamma = draw(arrays(np.int64, n, elements=st.integers(1, 12)))
    return emb, gamma


def weighted_laplacian(emb, gamma, sigma):
    return build_laplacian(assign_weights(knn_edges(emb, gamma), emb, sigma))


def masked_max_adjacency(edges, emb, sigma):
    """The paper's a_ij = max(w_ij e_ij, w_ji e_ji): kernel weights on the
    edge mask, symmetrized by an elementwise max."""
    coo = edges.tocoo()
    diff = emb[coo.row] - emb[coo.col]
    w = np.exp(-(diff * diff).sum(axis=1) / (2.0 * sigma**2))
    masked = sp.csr_matrix((w, (coo.row, coo.col)), shape=edges.shape).multiply(edges).tocsr()
    return masked.maximum(masked.T).tocsr()


@PROPERTY
@given(point_sets())
def test_knn_symmetric_and_keeps_budgets(points):
    emb, gamma = points
    n = emb.shape[0]
    edges = knn_edges(emb, gamma).edges
    assert (edges != edges.T).nnz == 0
    assert edges.diagonal().sum() == 0
    assert (edges.getnnz(axis=1) >= np.minimum(gamma, n - 1)).all()


@PROPERTY
@given(point_sets(), st.floats(0.1, 5.0))
def test_adjacency_is_masked_max_of_weights(points, sigma):
    # small sigmas underflow far edges to 0, which leave both matrices
    emb, gamma = points
    g = knn_edges(emb, gamma)
    adjacency = build_laplacian(assign_weights(g, emb, sigma)).adjacency
    oracle = masked_max_adjacency(g.edges, emb, sigma)
    assert adjacency.nnz == oracle.nnz
    assert np.array_equal(adjacency.toarray(), oracle.toarray())


@PROPERTY
@given(point_sets(), st.floats(0.1, 5.0))
def test_laplacian_rows_sum_to_zero_and_psd(points, sigma):
    lap = weighted_laplacian(*points, sigma)
    dense = lap.laplacian.toarray()
    scale = max(1.0, lap.d_max)
    assert np.abs(dense.sum(axis=1)).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(dense).min() >= -1e-9 * scale


@PROPERTY
@given(point_sets(), st.floats(0.1, 5.0), st.data())
def test_denoise_stays_within_input_range(points, sigma, data):
    lap = weighted_laplacian(*points, sigma)
    y0 = data.draw(arrays(np.float64, lap.degrees.size, elements=st.floats(-1.0, 1.0)))
    out = denoise(lap, y0, GlrParams())
    # (I + mu L)^-1 is nonnegative and row-stochastic; CG stops at a
    # relative residual of 1e-10
    tol = 1e-8 * max(1.0, float(np.abs(y0).max()))
    assert out.min() >= y0.min() - tol
    assert out.max() <= y0.max() + tol
