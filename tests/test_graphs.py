import numpy as np
import pytest

from conftest import dense, edge_pairs, edge_sq, kernel_graph, kernel_margin, pair_graph
from dynglr import graphs
from dynglr.errors import ValidationError
from dynglr.graphs import (assign_weights, auto_sigma,
                           build_laplacian, directed_knn, gft_spectrum,
                           graph_update, knn_edges,
                           partition_edges, surviving_edge_budgets)


def brute_force_knn_sets(points, gamma):
    """Independent neighbor oracle: full pairwise distances, ties by index."""
    n = len(points)
    sets = []
    for i in range(n):
        dists = sorted((float(np.sum((points[i] - points[j]) ** 2)), j)
                       for j in range(n) if j != i)
        sets.append({j for _, j in dists[:gamma]})
    return sets


class TestKnnEdges:
    def test_line_points_or_rule(self):
        points = np.array([[0.0], [1.0], [3.0]])
        g = knn_edges(points, 1)
        pairs = {tuple(p) for p in edge_pairs(g)}
        assert pairs == {(0, 1), (1, 2)}

    def test_full_budget_gives_complete_graph(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(7, 3))
        g = knn_edges(points, 6)
        assert g.edges.nnz == 7 * 6

    def test_symmetry_random(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(30, 4))
        g = knn_edges(points, 4)
        assert (g.edges != g.edges.T).nnz == 0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(25, 3))
        gamma = 3
        oracle = brute_force_knn_sets(points, gamma)
        g = knn_edges(points, gamma)
        expected = set()
        for i, nbrs in enumerate(oracle):
            for j in nbrs:
                expected.add((min(i, j), max(i, j)))
        assert {tuple(p) for p in edge_pairs(g)} == expected

    def test_directed_selection_has_exact_degrees(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(40, 2))
        gamma = 5
        rows, cols = np.divmod(directed_knn(points, gamma), 40)
        assert (np.bincount(rows, minlength=40) == gamma).all()
        assert (rows != cols).all()

    def test_symmetrized_degree_at_least_gamma(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(40, 2))
        gamma = np.full(40, 3)
        gamma[::5] = 6
        g = knn_edges(points, gamma)
        degrees = np.asarray(g.edges.sum(axis=1)).ravel()
        assert (degrees >= g.gamma).all()

    def test_duplicate_points_tie_break_deterministic(self):
        points = np.zeros((5, 2))
        g1 = knn_edges(points, 2)
        g2 = knn_edges(points, 2)
        assert (g1.edges != g2.edges).nnz == 0
        # node 0's nearest two among identical points are the lowest indices
        rows, cols = np.divmod(directed_knn(points, 2), 5)
        assert set(cols[rows == 0]) == {1, 2}

    def test_no_self_loops(self):
        rng = np.random.default_rng(5)
        g = knn_edges(rng.normal(size=(12, 2)), 3)
        assert g.edges.diagonal().sum() == 0

    def test_rejects_zero_gamma(self):
        with pytest.raises(ValidationError):
            knn_edges(np.zeros((4, 1)), 0)

    @pytest.mark.parametrize("field, value", [
        ("rows", np.array([[0], [1]])), ("cols", np.array([[1], [0]])),
        ("weights", np.ones((2, 1))), ("rows", np.array([0, 1, 1])),
        ("weights", np.ones(3)), ("gamma", np.ones((2, 2), dtype=np.int64))],
        ids=["2d-rows", "2d-cols", "2d-weights", "long-rows", "long-weights", "2d-gamma"])
    def test_graph_refuses_malformed_edge_list(self, field, value):
        arrays = dict(rows=np.array([0, 1]), cols=np.array([1, 0]), weights=np.ones(2),
                      gamma=np.ones(2, dtype=np.int64))
        graphs.Graph(**arrays)
        with pytest.raises(ValidationError, match="equal-length 1-D rows, cols and weights"):
            graphs.Graph(**{**arrays, field: value})


class TestPartition:
    def test_basic_split(self):
        points = np.array([[0.0], [1.0], [3.0]])
        g = knn_edges(points, 1)
        same, opposite = partition_edges(g, np.array([1.0, 1.0, -1.0]))
        assert {tuple(p) for p in edge_pairs(g)[same]} == {(0, 1)}
        assert {tuple(p) for p in edge_pairs(g)[opposite]} == {(1, 2)}

    def test_uniform_labels_leave_q_empty(self):
        rng = np.random.default_rng(6)
        g = knn_edges(rng.normal(size=(10, 2)), 2)
        same, opposite = partition_edges(g, np.ones(10))
        assert not opposite.any()
        assert same.sum() == edge_pairs(g).shape[0]

    def test_zero_label_edges_unclassified(self):
        points = np.array([[0.0], [1.0], [3.0]])
        g = knn_edges(points, 1)
        same, opposite = partition_edges(g, np.array([1.0, 0.0, -1.0]))
        assert not same.any() and not opposite.any()

    def test_p_q_disjoint_and_cover_labeled_edges(self):
        rng = np.random.default_rng(7)
        g = knn_edges(rng.normal(size=(30, 3)), 3)
        labels = rng.choice([-1.0, 0.0, 1.0], size=30)
        same_mask, opposite_mask = partition_edges(g, labels)
        same = {tuple(p) for p in edge_pairs(g)[same_mask]}
        opp = {tuple(p) for p in edge_pairs(g)[opposite_mask]}
        assert not same & opp
        labeled_edges = {tuple(p) for p in edge_pairs(g)
                         if labels[p[0]] != 0 and labels[p[1]] != 0}
        assert same | opp == labeled_edges


def grid_search_sigma(w_p, w_q, resolution=1e-4, limit=None):
    """1-D grid maximizer of the kernel margin, the independent oracle."""
    limit = limit or 4.0 * w_q
    sigmas = np.arange(resolution, limit, resolution)
    margins = np.exp(-w_p**2 / (2 * sigmas**2)) - np.exp(-w_q**2 / (2 * sigmas**2))
    return float(sigmas[np.argmax(margins)])


# a same-label edge (0, 1) and an opposite-label edge (0, 2)
TRIANGLE_HALF = pair_graph(3, [(0, 1), (0, 2)])
P_AND_Q = (np.array([True, False]), np.array([False, True]))


def sigma_of(emb, g=TRIANGLE_HALF, part=P_AND_Q):
    return auto_sigma(g, edge_sq(g, emb), *part)


class TestAutoSigma:
    def test_closed_form_matches_grid_oracle_on_unit_case(self):
        # w_p=1, w_q=2: grid search at 1e-4 resolution gives 1.0402
        emb = np.array([[0.0], [1.0], [2.0]])
        sigma = sigma_of(emb)
        assert sigma == pytest.approx(np.sqrt(3.0 / (2.0 * np.log(4.0))), abs=1e-12)
        assert sigma == pytest.approx(grid_search_sigma(1.0, 2.0), abs=2e-4)
        assert sigma == pytest.approx(1.0402, abs=1e-4)

    def test_fallback_when_q_closer_than_p(self, caplog):
        emb = np.array([[0.0], [2.0], [1.0]])  # w_p=2, w_q=1
        with caplog.at_level("INFO", logger="dynglr.graphs"):
            assert sigma_of(emb) == pytest.approx(2.0)
        assert caplog.records[-1].getMessage() == "wQ <= wP (1 <= 2); sigma := wP"

    def test_margin_at_closed_form_beats_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            w_p = float(rng.uniform(0.2, 2.0))
            w_q = w_p + float(rng.uniform(0.1, 3.0))
            emb = np.array([[0.0], [w_p], [w_q]])
            sigma = sigma_of(emb)
            best_grid = grid_search_sigma(w_p, w_q)
            assert kernel_margin(sigma, w_p, w_q) >= kernel_margin(best_grid, w_p, w_q) - 1e-9

    def test_empty_partition_falls_back_to_mean_distance(self, caplog):
        g = pair_graph(2, [(0, 1)])
        part = (np.array([True]), np.array([False]))
        emb = np.array([[0.0], [3.0]])
        with caplog.at_level("WARNING"):
            assert sigma_of(emb, g, part) == pytest.approx(3.0)
        assert "empty edge class" in caplog.text

    def test_no_classified_edge_falls_back_to_unit_scale(self, caplog):
        g = pair_graph(2, [(0, 1)])
        part = partition_edges(g, np.zeros(2))
        with caplog.at_level("WARNING", logger="dynglr.graphs"):
            assert sigma_of(np.array([[0.0], [3.0]]), g, part) == 1.0
        assert caplog.records[-1].getMessage() == (
            "empty edge class; falling back to mean edge distance sigma=1")

    def test_coincident_same_label_ends_give_half_wq(self, caplog):
        emb = np.array([[0.0], [0.0], [3.0]])  # w_p=0, w_q=3
        with caplog.at_level("WARNING", logger="dynglr.graphs"):
            assert sigma_of(emb) == 1.5
        assert caplog.records[-1].getMessage() == (
            "degenerate zero same-label distance; sigma := wQ/2")


def unlabeled(g):
    """Masks with no classified edge: assign_weights then weights at
    auto_sigma's unit fallback scale."""
    return partition_edges(g, np.zeros(g.n_nodes))


class TestWeights:
    def test_zero_distance_edge_weight_one(self):
        emb = np.array([[0.0], [0.0], [5.0]])
        g = knn_edges(emb, 1)
        gw = assign_weights(g, emb, *unlabeled(g))
        assert dense(gw)[0, 1] == pytest.approx(1.0)

    def test_distance_sq_twice_sigma_sq(self):
        emb = np.array([[0.0], [np.sqrt(2.0)]])
        g = knn_edges(emb, 1)
        gw = assign_weights(g, emb, *unlabeled(g))  # sigma 1
        assert dense(gw)[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_monotone_decreasing_in_distance(self):
        emb = np.array([[0.0], [1.0], [2.5]])
        g = knn_edges(emb, 2)
        gw = assign_weights(g, emb, *unlabeled(g))
        assert dense(gw)[0, 1] > dense(gw)[0, 2]

    def test_weights_only_on_existing_edges(self):
        rng = np.random.default_rng(9)
        emb = rng.normal(size=(15, 2))
        g = knn_edges(emb, 2)
        gw = assign_weights(g, emb, *unlabeled(g))
        on_edges = dense(g.edges) != 0
        assert np.array_equal(dense(gw) != 0, on_edges)
        assert dense(gw)[on_edges].min() > 0
        assert dense(gw)[on_edges].max() <= 1.0

    def test_underflowed_edge_leaves_the_graph(self):
        # sigma = wQ/2 = 1.5 (coincident same-label ends); the unlabeled node
        # 3 lies 300 away, where the kernel exp(-2e4) is exactly 0
        emb = np.array([[0.0], [0.0], [3.0], [300.0]])
        g = pair_graph(4, [(0, 1), (0, 2), (0, 3)])
        gw = assign_weights(g, emb, *partition_edges(g, np.array([1.0, 1.0, -1.0, 0.0])))
        assert {tuple(p) for p in edge_pairs(gw)} == {(0, 1), (0, 2)}
        assert np.array_equal(dense(gw)[0], [0.0, 1.0, np.exp(-2.0), 0.0])
        assert np.array_equal(dense(gw), dense(gw).T)

    def test_stack_weights_each_block_at_its_own_scale(self, caplog):
        # block 1 carries one label only, so it has no opposite-label edge
        rng = np.random.default_rng(13)
        b, blocks = 25, 3
        emb = rng.normal(size=(blocks * b, 3))
        labels = rng.choice([-1.0, 1.0], size=blocks * b)
        labels[b:2 * b] = 1.0
        stack = knn_edges(emb, 4, blocks)
        with caplog.at_level("WARNING", logger="dynglr.graphs"):
            got = assign_weights(stack, emb, *partition_edges(stack, labels))
        assert [r.getMessage().startswith("empty edge class") for r in caplog.records] == [True]
        caplog.clear()
        alone = []
        with caplog.at_level("WARNING", logger="dynglr.graphs"):
            for k in range(blocks):
                part = slice(k * b, (k + 1) * b)
                g = knn_edges(emb[part], 4)
                alone.append(assign_weights(g, emb[part], *partition_edges(g, labels[part])))
        assert len(caplog.records) == 1
        assert got.blocks == blocks
        assert np.array_equal(got.rows, np.concatenate([g.rows + k * b for k, g in enumerate(alone)]))
        assert np.array_equal(got.cols, np.concatenate([g.cols + k * b for k, g in enumerate(alone)]))
        assert got.weights.tobytes() == np.concatenate([g.weights for g in alone]).tobytes()


class TestLaplacian:
    def test_stack_is_the_blocks_laplacians_stacked(self):
        rng = np.random.default_rng(14)
        b, blocks = 30, 4
        emb = rng.normal(size=(blocks * b, 2))
        stack = knn_edges(emb, 3, blocks)
        lap = build_laplacian(kernel_graph(stack, emb, 0.9))
        assert isinstance(lap, np.ndarray) and lap.shape == (blocks * b, b)
        for k in range(blocks):
            part = slice(k * b, (k + 1) * b)
            alone = build_laplacian(kernel_graph(knn_edges(emb[part], 3), emb[part], 0.9))
            assert lap[part].tobytes() == alone.tobytes(), k

    @pytest.mark.parametrize("n, blocks", [(10, 3), (10, 0),
                                           (2 * (graphs.DENSE_BACKING_MAX + 1), 2)])
    def test_blocks_must_be_equal_and_dense(self, n, blocks):
        with pytest.raises(ValidationError, match="equal blocks"):
            knn_edges(np.arange(float(n))[:, None], 1, blocks)

    def test_two_node_unit_weight(self):
        g = knn_edges(np.array([[0.0], [1.0]]), 1)
        lap = build_laplacian(g)
        np.testing.assert_allclose(dense(lap), [[1.0, -1.0], [-1.0, 1.0]])

    def test_edgeless_graph_zero_laplacian(self):
        none = np.zeros(0, dtype=np.int64)
        g = graphs.Graph(none, none, np.zeros(0), np.ones(3, dtype=np.int64))
        lap = build_laplacian(g)
        assert np.count_nonzero(dense(lap)) == 0
        assert lap.diagonal().max() == 0.0

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(10)
        emb = rng.normal(size=(25, 3))
        g = kernel_graph(knn_edges(emb, 4), emb, 1.0)
        lap = build_laplacian(g)
        adjacency = dense(g)
        for _ in range(5):
            x = rng.normal(size=25)
            direct = 0.5 * np.sum(adjacency * (x[:, None] - x[None, :]) ** 2)
            assert float(x @ (lap @ x)) == pytest.approx(direct, rel=1e-10)
            assert float(x @ (lap @ x)) >= 0

    def test_rows_sum_to_zero_and_symmetric(self):
        rng = np.random.default_rng(11)
        emb = rng.normal(size=(40, 2))
        g = kernel_graph(knn_edges(emb, 3), emb, 0.8)
        lap = build_laplacian(g)
        assert np.abs(np.asarray(lap.sum(axis=1))).max() < 1e-9
        assert (abs(lap - lap.T)).max() < 1e-12

    def test_psd_smallest_eigenvalue(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            emb = rng.normal(size=(30, 2))
            g = kernel_graph(knn_edges(emb, 3), emb, 1.0)
            lap = build_laplacian(g)
            eigvals = np.linalg.eigvalsh(dense(lap))
            assert eigvals.min() >= -1e-8


def survivor_mask(g, denoised, beta):
    """Dense oracle of the surviving edges: both endpoints carry the same
    nonzero sign and the weight exceeds beta."""
    s = np.sign(denoised)
    return (dense(g) > beta) & (s[:, None] == s[None, :]) & (s[:, None] != 0)


def checked_survivors(g, denoised, beta):
    """The oracle's survivors, after checking the budgets count them per row
    (floored at 1)."""
    survivors = survivor_mask(g, denoised, beta)
    budgets = surviving_edge_budgets(g, denoised, beta)
    assert budgets.dtype == np.int64
    assert np.array_equal(budgets, np.maximum(survivors.sum(axis=1), 1))
    return budgets, survivors


class TestGraphUpdate:
    def _weighted_toy(self):
        # 4 nodes, weights chosen to straddle beta = 0.1
        emb = np.array([[0.0, 0.0], [0.1, 0.0], [3.0, 0.0], [3.1, 0.0]])
        g = knn_edges(emb, 2)
        return g, emb

    def test_weak_opposite_edge_removed(self):
        g, emb = self._weighted_toy()
        gw = kernel_graph(g, emb, 0.6)
        denoised = np.array([1.0, 1.0, -1.0, -1.0])
        _, survivors = checked_survivors(gw, denoised, beta=0.1)
        # cross-cluster edges are opposite-label: none survive
        assert survivors[1, 2] == 0 and survivors[2, 1] == 0

    def test_strong_same_sign_edge_counts(self):
        g, emb = self._weighted_toy()
        gw = kernel_graph(g, emb, 0.6)
        denoised = np.array([1.0, 1.0, -1.0, -1.0])
        budgets, survivors = checked_survivors(gw, denoised, beta=0.1)
        assert survivors[0, 1] == 1
        assert budgets[0] >= 1

    def test_all_same_sign_strong_edges_keep_degree(self):
        # hand-traced: every edge same-label with a > beta -> budget = degree
        emb = np.array([[0.0], [0.2], [0.4], [0.6]])
        g = knn_edges(emb, 1)
        gw = kernel_graph(g, emb, 1.0)
        denoised = np.ones(4)
        budgets = surviving_edge_budgets(gw, denoised, beta=0.1)
        degrees = np.asarray(g.edges.sum(axis=1)).ravel()
        assert np.array_equal(budgets, degrees)
        updated = graph_update(gw, denoised, emb, beta=0.1)
        assert np.array_equal(updated.gamma, degrees)

    def test_zero_budget_floored_to_one(self, caplog):
        emb = np.array([[0.0], [1.0], [10.0]])
        g = knn_edges(emb, 1)
        gw = kernel_graph(g, emb, 0.5)
        denoised = np.array([1.0, -1.0, 1.0])  # every edge opposite or weak
        with caplog.at_level("INFO"):
            budgets = surviving_edge_budgets(gw, denoised, beta=0.1)
        assert (budgets >= 1).all()
        assert "floored" in caplog.text

    def test_update_never_increases_opposite_edges_on_survivors(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            emb = rng.normal(size=(30, 2))
            g = kernel_graph(knn_edges(emb, 4), emb, 1.0)
            denoised = rng.uniform(-1, 1, size=30)
            _, survivors = checked_survivors(g, denoised, beta=0.1)
            rows, cols = np.nonzero(survivors)
            signs = np.sign(denoised)
            assert (signs[rows] == signs[cols]).all()

    def test_zero_denoised_entries_excluded(self):
        emb = np.array([[0.0], [0.1], [0.2]])
        g = knn_edges(emb, 2)
        gw = kernel_graph(g, emb, 1.0)
        _, survivors = checked_survivors(gw, np.array([1.0, 0.0, 1.0]), beta=0.1)
        assert survivors[0, 1] == 0 and survivors[1, 2] == 0
        assert survivors[0, 2] == 1


class TestSpectrum:
    def test_constant_signal_energy_at_zero(self):
        rng = np.random.default_rng(14)
        emb = rng.normal(size=(12, 2))
        g = kernel_graph(knn_edges(emb, 11), emb, 2.0)  # connected
        lap = build_laplacian(g)
        eigvals, mags = gft_spectrum(lap, np.full(12, 3.0))
        assert eigvals[0] == pytest.approx(0.0, abs=1e-9)
        assert mags[0] == pytest.approx(3.0 * np.sqrt(12), rel=1e-9)
        assert mags[1:].max() < 1e-8

    def test_two_node_antisymmetric_signal(self):
        # L = [[w,-w],[-w,w]]; (1,-1)/sqrt(2) is the eigenvector at 2w
        emb = np.array([[0.0], [1.0]])
        g = kernel_graph(knn_edges(emb, 1), emb, 1.0)
        lap = build_laplacian(g)
        w = dense(g)[0, 1]
        eigvals, mags = gft_spectrum(lap, np.array([1.0, -1.0]))
        assert eigvals[1] == pytest.approx(2 * w, rel=1e-12)
        assert mags[1] == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert mags[0] == pytest.approx(0.0, abs=1e-12)

    def test_parseval_identity(self):
        rng = np.random.default_rng(15)
        for trial in range(5):
            emb = rng.normal(size=(20, 3))
            g = kernel_graph(knn_edges(emb, 3), emb, 1.0)
            lap = build_laplacian(g)
            signal = rng.normal(size=20)
            _, mags = gft_spectrum(lap, signal)
            assert np.sum(mags**2) == pytest.approx(np.sum(signal**2), abs=1e-6)

    @pytest.mark.parametrize("n", [20, graphs.DENSE_BACKING_MAX + 10], ids=["dense", "edges"])
    def test_short_signal_rejected(self, n):
        emb = np.random.default_rng(16).normal(size=(n, 3))
        lap = build_laplacian(kernel_graph(knn_edges(emb, 3), emb, 1.0))
        with pytest.raises(ValidationError, match=fr"signal of shape \({n - 1},\) on a {n}-node"):
            gft_spectrum(lap, np.zeros(n - 1))

    def test_stack_of_blocks_refused(self):
        emb = np.random.default_rng(17).normal(size=(30, 3))
        lap = build_laplacian(knn_edges(emb, 3, 3))
        assert lap.shape == (30, 10)
        with pytest.raises(ValidationError, match=r"one block, got a \(30, 10\) stack"):
            gft_spectrum(lap, np.zeros(30))

    @pytest.mark.parametrize("n", [20, graphs.DENSE_BACKING_MAX + 10], ids=["dense", "edges"])
    def test_one_block_spectrum_on_either_backing(self, n):
        rng = np.random.default_rng(18)
        emb = rng.normal(size=(n, 3))
        g = kernel_graph(knn_edges(emb, 3), emb, 1.0)
        signal = rng.normal(size=n)
        eigvals, mags = gft_spectrum(build_laplacian(g), signal)
        w = dense(g)
        np.testing.assert_allclose(eigvals, np.linalg.eigvalsh(np.diag(w.sum(axis=1)) - w),
                                   atol=1e-9)
        assert np.sum(mags**2) == pytest.approx(np.sum(signal**2), rel=1e-9)

    def test_node_guard(self):
        none = np.zeros(0, dtype=np.int64)
        big = graphs.Graph(none, none, np.zeros(0), np.ones(4001, dtype=np.int64))
        lap = build_laplacian(big)
        with pytest.raises(ValidationError, match="subsample"):
            gft_spectrum(lap, np.zeros(4001))


class TestDumps:
    def test_spectrum_dump(self, tmp_path):
        graphs.dump_spectrum(np.array([0.0, 1.0]), np.array([2.0, 3.0]),
                             tmp_path / "spec.csv")
        lines = (tmp_path / "spec.csv").read_text().splitlines()
        assert lines[0] == "lambda,magnitude"
        assert len(lines) == 3
