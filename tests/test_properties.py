"""Property tests of the graph layer every chain step builds on: the KNN
rule, the Laplacian, and the GLR denoiser."""

import numpy as np
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
