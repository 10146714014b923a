"""Property tests of the graph layer every chain step builds on: the
neighbour-selection kernel and the KNN rule, the canonical edge list, the
kernel scale and weights, the Laplacian, the GLR denoiser, and the agreement
of the Laplacian's dense and edge-list backings."""

from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import dense, edge_pairs, edge_sq, kernel_graph, kernel_margin, pair_graph
from dynglr import graphs
from dynglr.glr import denoise
from dynglr.graphs import (EdgeLaplacian, assign_weights, auto_sigma, build_laplacian,
                           directed_knn, graph_update, knn_edges, nearest,
                           pairwise_sq_dists, partition_edges)

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


@st.composite
def tied_point_sets(draw):
    """(embeddings, per-node budgets) on a coarse integer lattice, so many
    distances tie, with budgets up to past n - 1. Sets of more than 512
    points span two distance chunks; they come from a drawn seed, because
    drawing each coordinate of so many points is slow."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        n = draw(st.integers(2, 30))
        emb = draw(arrays(np.float64, (n, dim), elements=st.integers(0, 3).map(float)))
        gamma = draw(arrays(np.int64, n, elements=st.integers(1, n + 2)))
        return emb, gamma
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(513, 560))
    emb = rng.integers(0, 4, size=(n, dim)).astype(np.float64)
    gamma = rng.integers(1, 12, size=n)
    gamma[rng.random(n) < 0.02] = n + 2
    return emb, gamma


@st.composite
def block_stacks(draw):
    """(embeddings, per-node budgets, block count): equal blocks on a coarse
    integer lattice, so many distances tie, with budgets up to past b - 1."""
    blocks = draw(st.integers(1, 6))
    b = draw(st.integers(2, 20))
    dim = draw(st.integers(1, 3))
    emb = draw(arrays(np.float64, (blocks * b, dim), elements=st.integers(0, 3).map(float)))
    gamma = draw(arrays(np.int64, blocks * b, elements=st.integers(1, b + 2)))
    return emb, gamma, blocks


def loop_directed_knn(emb, gamma):
    """The per-row selection kernel replaced: one stable argsort of each
    distance row, self excluded, first gamma_i columns, nearest first."""
    n = emb.shape[0]
    gamma = np.minimum(gamma, n - 1)
    rows, cols = [], []
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        d = pairwise_sq_dists(emb[start:stop], emb)
        for local, i in enumerate(range(start, stop)):
            d[local, i] = np.inf
            chosen = np.argsort(d[local], kind="stable")[: gamma[i]]
            rows.append(np.full(chosen.size, i, dtype=np.int64))
            cols.append(chosen.astype(np.int64))
    return np.concatenate(rows), np.concatenate(cols)


@contextmanager
def backing(kind):
    """build_laplacian builds every Laplacian in the named backing: "edges" or
    "dense"."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "DENSE_BACKING_MAX", 0 if kind == "edges" else 10**6)
        yield


def three_step_weights(g, emb, labels):
    """The weighting that assign_weights replaced, step by step: copied
    same- and opposite-label pair arrays, their lengths gathered apart, the
    closed-form scale with its fallbacks, then the kernel of every edge in
    both directions."""
    pairs = edge_pairs(g)
    si, sj = np.sign(labels[pairs[:, 0]]), np.sign(labels[pairs[:, 1]])
    classified = (si != 0) & (sj != 0)

    def lengths(p):
        diff = emb[p[:, 0]] - emb[p[:, 1]]
        return np.sqrt((diff * diff).sum(axis=1))

    d_same = lengths(pairs[classified & (si == sj)])
    d_opp = lengths(pairs[classified & (si != sj)])
    if d_same.size == 0 or d_opp.size == 0:
        pooled = np.concatenate([d_same, d_opp])
        sigma = max(float(pooled.mean()) if pooled.size else 1.0, 1e-12)
    else:
        w_p, w_q = float(d_same.mean()), float(d_opp.mean())
        if w_p < 1e-12:
            sigma = max(w_q / 2.0, 1e-12)
        elif w_q <= w_p:
            sigma = w_p
        else:
            sigma = float(np.sqrt((w_q**2 - w_p**2) / (2.0 * np.log(w_q**2 / w_p**2))))
    return kernel_graph(g, emb, sigma)


def weighted_laplacian(emb, gamma, sigma):
    return build_laplacian(kernel_graph(knn_edges(emb, gamma), emb, sigma))


def masked_max_adjacency(edges, emb, sigma):
    """The paper's a_ij = max(w_ij e_ij, w_ji e_ji): kernel weights on the
    edge mask, symmetrized by an elementwise max."""
    coo = edges.tocoo()
    diff = emb[coo.row] - emb[coo.col]
    w = np.exp(-(diff * diff).sum(axis=1) / (2.0 * sigma**2))
    masked = sp.csr_matrix((w, (coo.row, coo.col)), shape=edges.shape).multiply(edges).tocsr()
    return masked.maximum(masked.T).tocsr()


@PROPERTY
@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_nearest_is_stable_argsort_prefix(m, n, data):
    # few distinct values (many ties), +inf and NaN entries, and k up to past n
    values = st.integers(0, 3).map(float) | st.just(np.inf) | st.just(np.nan)
    d = data.draw(arrays(np.float64, (m, n), elements=values))
    k = data.draw(st.integers(1, n + 3))
    expected = np.argsort(d, axis=1, kind="stable")[:, :k]
    assert np.array_equal(nearest(d, k), expected)


@PROPERTY
@given(tied_point_sets(), st.data())
def test_directed_knn_matches_row_loop(points, data):
    """Each row selects the oracle's column set, listed in column order;
    NaN coordinates make NaN distances, which rank after every value."""
    emb, gamma = points
    nans = data.draw(st.lists(st.integers(0, emb.shape[0] - 1), max_size=3))
    emb[nans, 0] = np.nan
    rows, cols = np.divmod(directed_knn(emb, gamma), emb.shape[0])
    expected_rows, expected_cols = loop_directed_knn(emb, gamma)
    # the oracle lists a row nearest first; within a row, order it by column
    order = np.lexsort((expected_cols, expected_rows))
    assert np.array_equal(rows, expected_rows[order])
    assert np.array_equal(cols, expected_cols[order])


@PROPERTY
@given(tied_point_sets())
def test_knn_edges_match_sparse_constructions(points):
    """The OR-symmetric edge list and its upper-triangle pairs equal the
    scipy constructions they replaced, with intp indices and float64
    weights; its csr pattern equals them arrays and dtypes alike, and the
    list scatters to the same matrix."""
    emb, gamma = points
    n = emb.shape[0]
    rows, cols = loop_directed_knn(emb, gamma)
    selected = sp.csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n))
    expected = selected.maximum(selected.T).tocsr().astype(np.float64)
    g = knn_edges(emb, gamma)
    entries = expected.tocoo()
    assert g.rows.dtype == g.cols.dtype == np.intp and g.weights.dtype == np.float64
    for got, want in ((g.rows, entries.row), (g.cols, entries.col), (g.weights, entries.data)):
        assert np.array_equal(got, want)
    for name in ("indices", "indptr"):
        got, want = getattr(g.edges, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    coo = sp.triu(expected, k=1).tocoo()
    expected_pairs = np.column_stack([coo.row, coo.col])
    assert edge_pairs(g).dtype == np.intp
    assert np.array_equal(edge_pairs(g), expected_pairs)
    assert np.array_equal(dense(g), expected.toarray())


@PROPERTY
@given(block_stacks())
def test_knn_edges_of_a_stack_are_its_blocks_shifted(stack):
    """Each node ranks only its own block: the stack's edge list is the
    blocks' edge lists, each shifted by its block's first node."""
    emb, gamma, blocks = stack
    b = emb.shape[0] // blocks
    g = knn_edges(emb, gamma, blocks)
    alone = [knn_edges(emb[k * b:(k + 1) * b], gamma[k * b:(k + 1) * b]) for k in range(blocks)]
    assert g.blocks == blocks and np.array_equal(g.gamma, gamma)
    assert np.array_equal(g.rows, np.concatenate([a.rows + k * b for k, a in enumerate(alone)]))
    assert np.array_equal(g.cols, np.concatenate([a.cols + k * b for k, a in enumerate(alone)]))
    assert (g.weights == 1.0).all()


def assert_canonical(g):
    """The entries are row-major with no repeats, carry no self-loop, are
    closed under transpose with equal weights both ways, and all weigh more
    than 0; the csr pattern holds exactly them."""
    n = g.n_nodes
    keys = g.rows * n + g.cols
    assert (np.diff(keys) > 0).all()
    assert (g.rows != g.cols).all()
    mirrored = g.cols * n + g.rows
    order = np.argsort(mirrored)
    assert np.array_equal(mirrored[order], keys)
    assert np.array_equal(g.weights[order], g.weights)
    assert (g.weights > 0).all()
    assert g.edges.nnz == g.rows.size


@PROPERTY
@given(tied_point_sets() | point_sets(), st.floats(0.1, 5.0), st.floats(0.0, 1.0), st.data())
def test_edge_lists_are_canonical(points, sigma, beta, data):
    emb, gamma = points
    g = knn_edges(emb, gamma)
    assert_canonical(g)
    labels = data.draw(arrays(np.float64, emb.shape[0], elements=st.sampled_from([-1.0, 0.0, 1.0])))
    assert_canonical(assign_weights(g, emb, *partition_edges(g, labels)))
    gw = kernel_graph(g, emb, sigma)
    assert_canonical(gw)
    y = data.draw(arrays(np.float64, emb.shape[0], elements=st.floats(-1.0, 1.0)))
    assert_canonical(graph_update(gw, y, emb[::-1].copy(), beta))


@PROPERTY
@given(point_sets(), st.data())
def test_auto_sigma_beats_log_grid(points, data):
    """With wQ > wP, the closed-form scale is the maximizer of the kernel
    margin: no sigma on a log-spaced grid does better."""
    emb, _ = points
    n = emb.shape[0]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    g = pair_graph(n, data.draw(st.lists(pair, min_size=2, max_size=20, unique=True)))
    m = edge_pairs(g).shape[0]
    in_a = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    assume(in_a.any() and not in_a.all())
    sq = edge_sq(g, emb)
    w_a, w_b = (float(np.sqrt(sq[mask]).mean()) for mask in (in_a, ~in_a))
    assume(min(w_a, w_b) >= 1e-12 and w_a != w_b)
    same = in_a if w_a < w_b else ~in_a
    w_p, w_q = min(w_a, w_b), max(w_a, w_b)
    sigma = auto_sigma(g, sq, same, ~same)
    grid = np.logspace(np.log10(w_p) - 3, np.log10(w_q) + 3, 2001)
    best = max(kernel_margin(s, w_p, w_q) for s in grid)
    assert kernel_margin(sigma, w_p, w_q) >= best - 1e-12


@PROPERTY
@given(tied_point_sets() | point_sets(), st.data())
def test_assign_weights_equals_three_step_weighting(points, data):
    """One length gather and one kernel per undirected edge, mirrored onto
    both directions, give the old weighting bit for bit: same scale, same
    values, same entries dropped by underflow."""
    emb, gamma = points
    if data.draw(st.booleans()):
        # at the unit fallback scale, edges of a spread-out set underflow
        emb = emb * data.draw(st.sampled_from([1e-3, 1e3]))
    g = knn_edges(emb, gamma)
    labels = data.draw(arrays(np.float64, emb.shape[0],
                              elements=st.sampled_from([-1.0, 0.0, 0.0, 1.0, 2.5, -0.5])))
    got = assign_weights(g, emb, *partition_edges(g, labels))
    want = three_step_weights(g, emb, labels)
    for name in ("rows", "cols", "weights", "gamma"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.rows.dtype == want.rows.dtype and got.weights.dtype == want.weights.dtype


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
    # small sigmas underflow far edges to 0, which leave both matrices; the
    # Laplacian's adjacency is its diagonal (the degrees) minus itself
    emb, gamma = points
    g = knn_edges(emb, gamma)
    lap = dense(build_laplacian(kernel_graph(g, emb, sigma)))
    adjacency = np.diag(lap.diagonal()) - lap
    oracle = masked_max_adjacency(g.edges, emb, sigma)
    assert np.count_nonzero(adjacency) == oracle.nnz
    assert np.array_equal(adjacency, oracle.toarray())


@PROPERTY
@given(point_sets(), st.floats(0.1, 5.0))
def test_laplacian_rows_sum_to_zero_and_psd(points, sigma):
    lap = dense(weighted_laplacian(*points, sigma))
    scale = max(1.0, lap.diagonal().max())
    assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(lap).min() >= -1e-9 * scale


@PROPERTY
@given(point_sets(), st.floats(0.1, 5.0), st.data())
def test_denoise_stays_within_input_range(points, sigma, data):
    lap = weighted_laplacian(*points, sigma)
    y0 = data.draw(arrays(np.float64, lap.shape[0], elements=st.floats(-1.0, 1.0)))
    out = denoise(lap, y0)
    # (I + mu L)^-1 is nonnegative and row-stochastic; CG stops at a
    # relative residual of 1e-10
    tol = 1e-8 * max(1.0, float(np.abs(y0).max()))
    assert out.min() >= y0.min() - tol
    assert out.max() <= y0.max() + tol


@PROPERTY
@given(point_sets(), st.floats(0.1, 5.0), st.data())
def test_dense_and_edge_list_backings_agree(points, sigma, data):
    """The Laplacian of either backing, and the signal denoised on it,
    differ only by summation order."""
    emb, gamma = points
    y0 = data.draw(arrays(np.float64, emb.shape[0], elements=st.floats(-1.0, 1.0)))
    g = kernel_graph(knn_edges(emb, gamma), emb, sigma)
    with backing("edges"):
        lap_e = build_laplacian(g)
    with backing("dense"):
        lap_d = build_laplacian(g)
    assert isinstance(lap_e, EdgeLaplacian) and isinstance(lap_d, np.ndarray)
    assert np.abs(lap_d - dense(lap_e)).max() <= 1e-14 * dense(lap_e).diagonal().max(initial=0.0)
    y_e, y_d = denoise(lap_e, y0), denoise(lap_d, y0)
    assert np.linalg.norm(y_d - y_e) <= 1e-10 * np.linalg.norm(y_e)


def test_backing_switches_above_dense_backing_max():
    rng = np.random.default_rng(0)
    n = graphs.DENSE_BACKING_MAX
    assert isinstance(build_laplacian(knn_edges(rng.normal(size=(n, 3)), 5)), np.ndarray)
    assert isinstance(build_laplacian(knn_edges(rng.normal(size=(n + 1, 3)), 5)), EdgeLaplacian)
