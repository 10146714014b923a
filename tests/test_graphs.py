import numpy as np
import pytest
import scipy.sparse as sp

from dynglr import graphs
from dynglr.errors import ValidationError
from dynglr.graphs import (EdgePartition, assign_weights, auto_sigma,
                           build_laplacian, directed_knn, gft_spectrum,
                           graph_update, kernel_margin, knn_edges,
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
        pairs = {tuple(p) for p in g.edge_pairs}
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
        assert {tuple(p) for p in g.edge_pairs} == expected

    def test_directed_selection_has_exact_degrees(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(40, 2))
        gamma = 5
        selected = directed_knn(points, gamma)
        assert (np.asarray(selected.sum(axis=1)).ravel() == gamma).all()

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
        assert set(directed_knn(points, 2)[0].indices) == {1, 2}

    def test_no_self_loops(self):
        rng = np.random.default_rng(5)
        g = knn_edges(rng.normal(size=(12, 2)), 3)
        assert g.edges.diagonal().sum() == 0

    def test_rejects_zero_gamma(self):
        with pytest.raises(ValidationError):
            knn_edges(np.zeros((4, 1)), 0)


class TestPartition:
    def test_basic_split(self):
        points = np.array([[0.0], [1.0], [3.0]])
        g = knn_edges(points, 1)
        part = partition_edges(g, np.array([1.0, 1.0, -1.0]))
        assert {tuple(p) for p in part.same} == {(0, 1)}
        assert {tuple(p) for p in part.opposite} == {(1, 2)}

    def test_uniform_labels_leave_q_empty(self):
        rng = np.random.default_rng(6)
        g = knn_edges(rng.normal(size=(10, 2)), 2)
        part = partition_edges(g, np.ones(10))
        assert part.opposite.size == 0
        assert part.same.shape[0] == g.edge_pairs.shape[0]

    def test_zero_label_edges_unclassified(self):
        points = np.array([[0.0], [1.0], [3.0]])
        g = knn_edges(points, 1)
        part = partition_edges(g, np.array([1.0, 0.0, -1.0]))
        assert part.same.size == 0 and part.opposite.size == 0

    def test_p_q_disjoint_and_cover_labeled_edges(self):
        rng = np.random.default_rng(7)
        g = knn_edges(rng.normal(size=(30, 3)), 3)
        labels = rng.choice([-1.0, 0.0, 1.0], size=30)
        part = partition_edges(g, labels)
        same = {tuple(p) for p in part.same}
        opp = {tuple(p) for p in part.opposite}
        assert not same & opp
        labeled_edges = {tuple(p) for p in g.edge_pairs
                         if labels[p[0]] != 0 and labels[p[1]] != 0}
        assert same | opp == labeled_edges


def grid_search_sigma(w_p, w_q, resolution=1e-4, limit=None):
    """1-D grid maximizer of the kernel margin, the independent oracle."""
    limit = limit or 4.0 * w_q
    sigmas = np.arange(resolution, limit, resolution)
    margins = np.exp(-w_p**2 / (2 * sigmas**2)) - np.exp(-w_q**2 / (2 * sigmas**2))
    return float(sigmas[np.argmax(margins)])


class TestAutoSigma:
    def test_closed_form_matches_grid_oracle_on_unit_case(self):
        # w_p=1, w_q=2: grid search at 1e-4 resolution gives 1.0402
        part = EdgePartition(same=np.array([[0, 1]]), opposite=np.array([[0, 2]]))
        emb = np.array([[0.0], [1.0], [2.0]])
        sigma = auto_sigma(emb, part)
        assert sigma == pytest.approx(np.sqrt(3.0 / (2.0 * np.log(4.0))), abs=1e-12)
        assert sigma == pytest.approx(grid_search_sigma(1.0, 2.0), abs=2e-4)
        assert sigma == pytest.approx(1.0402, abs=1e-4)

    def test_fallback_when_q_closer_than_p(self):
        part = EdgePartition(same=np.array([[0, 1]]), opposite=np.array([[0, 2]]))
        emb = np.array([[0.0], [2.0], [1.0]])  # w_p=2, w_q=1
        assert auto_sigma(emb, part) == pytest.approx(2.0)

    def test_margin_at_closed_form_beats_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            w_p = float(rng.uniform(0.2, 2.0))
            w_q = w_p + float(rng.uniform(0.1, 3.0))
            part = EdgePartition(same=np.array([[0, 1]]), opposite=np.array([[0, 2]]))
            emb = np.array([[0.0], [w_p], [w_q]])
            sigma = auto_sigma(emb, part)
            best_grid = grid_search_sigma(w_p, w_q)
            assert kernel_margin(sigma, w_p, w_q) >= kernel_margin(best_grid, w_p, w_q) - 1e-9

    def test_empty_partition_falls_back_to_mean_distance(self, caplog):
        part = EdgePartition(same=np.array([[0, 1]]), opposite=np.zeros((0, 2), dtype=int))
        emb = np.array([[0.0], [3.0]])
        with caplog.at_level("WARNING"):
            assert auto_sigma(emb, part) == pytest.approx(3.0)
        assert "empty edge class" in caplog.text


class TestWeights:
    def test_zero_distance_edge_weight_one(self):
        g = knn_edges(np.array([[0.0], [0.0], [5.0]]), 1)
        gw = assign_weights(g, np.array([[0.0], [0.0], [5.0]]), sigma=1.0)
        assert gw.weights[0, 1] == pytest.approx(1.0)

    def test_distance_sq_twice_sigma_sq(self):
        emb = np.array([[0.0], [np.sqrt(2.0)]])
        g = knn_edges(emb, 1)
        gw = assign_weights(g, emb, sigma=1.0)
        assert gw.weights[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_monotone_decreasing_in_distance(self):
        emb = np.array([[0.0], [1.0], [2.5]])
        g = knn_edges(emb, 2)
        gw = assign_weights(g, emb, sigma=1.3)
        assert gw.weights[0, 1] > gw.weights[0, 2]

    def test_weights_only_on_existing_edges(self):
        rng = np.random.default_rng(9)
        emb = rng.normal(size=(15, 2))
        g = knn_edges(emb, 2)
        gw = assign_weights(g, emb, sigma=1.0)
        assert (gw.weights.astype(bool) != g.edges.astype(bool)).nnz == 0
        assert gw.weights.data.min() > 0
        assert gw.weights.data.max() <= 1.0


class TestLaplacian:
    def test_two_node_unit_weight(self):
        g = knn_edges(np.array([[0.0], [1.0]]), 1)
        lap = build_laplacian(g)
        np.testing.assert_allclose(lap.laplacian.toarray(), [[1.0, -1.0], [-1.0, 1.0]])

    def test_edgeless_graph_zero_laplacian(self):
        g = graphs.Graph(n_nodes=3, edges=sp.csr_matrix((3, 3), dtype=np.int8),
                         weights=sp.csr_matrix((3, 3)), gamma=np.ones(3, dtype=np.int64))
        lap = build_laplacian(g)
        assert lap.laplacian.nnz == 0
        assert lap.d_max == 0.0

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(10)
        emb = rng.normal(size=(25, 3))
        g = assign_weights(knn_edges(emb, 4), emb, sigma=1.0)
        lap = build_laplacian(g)
        adjacency = lap.adjacency.toarray()
        for _ in range(5):
            x = rng.normal(size=25)
            direct = 0.5 * np.sum(adjacency * (x[:, None] - x[None, :]) ** 2)
            assert float(x @ (lap.laplacian @ x)) == pytest.approx(direct, rel=1e-10)
            assert float(x @ (lap.laplacian @ x)) >= 0

    def test_rows_sum_to_zero_and_symmetric(self):
        rng = np.random.default_rng(11)
        emb = rng.normal(size=(40, 2))
        g = assign_weights(knn_edges(emb, 3), emb, sigma=0.8)
        lap = build_laplacian(g)
        assert np.abs(np.asarray(lap.laplacian.sum(axis=1))).max() < 1e-9
        assert (abs(lap.laplacian - lap.laplacian.T)).max() < 1e-12

    def test_psd_smallest_eigenvalue(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            emb = rng.normal(size=(30, 2))
            g = assign_weights(knn_edges(emb, 3), emb, sigma=1.0)
            lap = build_laplacian(g)
            eigvals = np.linalg.eigvalsh(lap.laplacian.toarray())
            assert eigvals.min() >= -1e-8


class TestGraphUpdate:
    def _weighted_toy(self):
        # 4 nodes, weights chosen to straddle beta = 0.1
        emb = np.array([[0.0, 0.0], [0.1, 0.0], [3.0, 0.0], [3.1, 0.0]])
        g = knn_edges(emb, 2)
        return g, emb

    def test_weak_opposite_edge_removed(self):
        g, emb = self._weighted_toy()
        gw = assign_weights(g, emb, sigma=0.6)
        lap = build_laplacian(gw)
        denoised = np.array([1.0, 1.0, -1.0, -1.0])
        budgets, survivors = surviving_edge_budgets(gw, lap, denoised, beta=0.1)
        # cross-cluster edges are opposite-label: none survive
        assert survivors[1, 2] == 0 and survivors[2, 1] == 0

    def test_strong_same_sign_edge_counts(self):
        g, emb = self._weighted_toy()
        gw = assign_weights(g, emb, sigma=0.6)
        lap = build_laplacian(gw)
        denoised = np.array([1.0, 1.0, -1.0, -1.0])
        budgets, survivors = surviving_edge_budgets(gw, lap, denoised, beta=0.1)
        assert survivors[0, 1] == 1
        assert budgets[0] >= 1

    def test_all_same_sign_strong_edges_keep_degree(self):
        # hand-traced: every edge same-label with a > beta -> budget = degree
        emb = np.array([[0.0], [0.2], [0.4], [0.6]])
        g = knn_edges(emb, 1)
        gw = assign_weights(g, emb, sigma=1.0)
        lap = build_laplacian(gw)
        denoised = np.ones(4)
        budgets, _ = surviving_edge_budgets(gw, lap, denoised, beta=0.1)
        degrees = np.asarray(g.edges.sum(axis=1)).ravel()
        assert np.array_equal(budgets, degrees)
        updated = graph_update(gw, lap, denoised, emb, beta=0.1)
        assert np.array_equal(updated.gamma, degrees)

    def test_zero_budget_floored_to_one(self, caplog):
        emb = np.array([[0.0], [1.0], [10.0]])
        g = knn_edges(emb, 1)
        gw = assign_weights(g, emb, sigma=0.5)
        lap = build_laplacian(gw)
        denoised = np.array([1.0, -1.0, 1.0])  # every edge opposite or weak
        with caplog.at_level("INFO"):
            budgets, _ = surviving_edge_budgets(gw, lap, denoised, beta=0.1)
        assert (budgets >= 1).all()
        assert "floored" in caplog.text

    def test_update_never_increases_opposite_edges_on_survivors(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            emb = rng.normal(size=(30, 2))
            g = assign_weights(knn_edges(emb, 4), emb, sigma=1.0)
            lap = build_laplacian(g)
            denoised = rng.uniform(-1, 1, size=30)
            _, survivors = surviving_edge_budgets(g, lap, denoised, beta=0.1)
            coo = survivors.tocoo()
            signs = np.sign(denoised)
            assert (signs[coo.row] == signs[coo.col]).all()

    def test_zero_denoised_entries_excluded(self):
        emb = np.array([[0.0], [0.1], [0.2]])
        g = knn_edges(emb, 2)
        gw = assign_weights(g, emb, sigma=1.0)
        lap = build_laplacian(gw)
        budgets, survivors = surviving_edge_budgets(gw, lap, np.array([1.0, 0.0, 1.0]),
                                                    beta=0.1)
        assert survivors[0, 1] == 0 and survivors[1, 2] == 0
        assert survivors[0, 2] == 1


class TestSpectrum:
    def test_constant_signal_energy_at_zero(self):
        rng = np.random.default_rng(14)
        emb = rng.normal(size=(12, 2))
        g = assign_weights(knn_edges(emb, 11), emb, sigma=2.0)  # connected
        lap = build_laplacian(g)
        eigvals, mags = gft_spectrum(lap, np.full(12, 3.0))
        assert eigvals[0] == pytest.approx(0.0, abs=1e-9)
        assert mags[0] == pytest.approx(3.0 * np.sqrt(12), rel=1e-9)
        assert mags[1:].max() < 1e-8

    def test_two_node_antisymmetric_signal(self):
        # L = [[w,-w],[-w,w]]; (1,-1)/sqrt(2) is the eigenvector at 2w
        emb = np.array([[0.0], [1.0]])
        g = assign_weights(knn_edges(emb, 1), emb, sigma=1.0)
        lap = build_laplacian(g)
        w = g.weights[0, 1]
        eigvals, mags = gft_spectrum(lap, np.array([1.0, -1.0]))
        assert eigvals[1] == pytest.approx(2 * w, rel=1e-12)
        assert mags[1] == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert mags[0] == pytest.approx(0.0, abs=1e-12)

    def test_parseval_identity(self):
        rng = np.random.default_rng(15)
        for trial in range(5):
            emb = rng.normal(size=(20, 3))
            g = assign_weights(knn_edges(emb, 3), emb, sigma=1.0)
            lap = build_laplacian(g)
            signal = rng.normal(size=20)
            _, mags = gft_spectrum(lap, signal)
            assert np.sum(mags**2) == pytest.approx(np.sum(signal**2), abs=1e-6)

    def test_node_guard(self):
        big = graphs.Graph(n_nodes=4001, edges=sp.csr_matrix((4001, 4001), dtype=np.int8),
                           weights=sp.csr_matrix((4001, 4001)),
                           gamma=np.ones(4001, dtype=np.int64))
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
