import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import dense, edge_laplacian, kernel_graph
from dynglr import glr, graphs
from dynglr.errors import SolverError, ValidationError
from dynglr.glr import KAPPA, MU_FRACTION, SOLVER_TOL, denoise, mu_max
from dynglr.graphs import EdgeLaplacian, build_laplacian, knn_edges


def default_mu(lap):
    return MU_FRACTION * mu_max(KAPPA, dense(lap).diagonal().max())


def random_weighted_laplacian(rng, n, gamma=None, sigma=1.0):
    emb = rng.normal(size=(n, 3))
    gamma = gamma if gamma is not None else int(rng.integers(2, 9))
    g = kernel_graph(knn_edges(emb, gamma), emb, sigma)
    return build_laplacian(g)


class TestMuMax:
    def test_direct_substitution(self):
        assert mu_max(60.0, 10.0) == pytest.approx(2.95)

    def test_arithmetic(self):
        assert mu_max(60.0, 5.9) == pytest.approx(5.0)

    def test_edgeless_graph_returns_infinity(self):
        assert mu_max(60.0, 0.0) == math.inf

    def test_kappa_must_exceed_one(self):
        with pytest.raises(ValidationError):
            mu_max(1.0, 2.0)


class TestDenoise:
    def test_mu_zero_is_identity(self):
        rng = np.random.default_rng(0)
        lap = random_weighted_laplacian(rng, 20)
        y = rng.uniform(-1, 1, 20)
        out = denoise(lap, y, mu=0.0)
        assert np.array_equal(out, y)

    def test_two_node_hand_solve(self):
        # dense solve of [[1.5,-0.5],[-0.5,1.5]] Y = (1,-1) gives (0.5,-0.5)
        emb = np.array([[0.0], [1.0]])
        lap = build_laplacian(knn_edges(emb, 1))  # unit weight
        out = denoise(lap, np.array([1.0, -1.0]), mu=0.5)
        np.testing.assert_allclose(out, [0.5, -0.5], atol=1e-10)

    def test_constant_signal_preserved(self):
        rng = np.random.default_rng(1)
        lap = random_weighted_laplacian(rng, 30)
        out = denoise(lap, np.full(30, 0.7))
        np.testing.assert_allclose(out, 0.7, atol=1e-9)

    def test_edgeless_graph_short_circuits(self):
        emb = np.array([[0.0], [1.0]])
        g = knn_edges(emb, 1)
        lap = build_laplacian(dataclasses.replace(g, weights=0.0 * g.weights))
        y = np.array([0.3, -0.9])
        assert np.array_equal(denoise(lap, y), y)

    def test_non_finite_input_rejected(self):
        rng = np.random.default_rng(2)
        lap = random_weighted_laplacian(rng, 10)
        y = np.zeros(10)
        y[3] = np.nan
        with pytest.raises(ValidationError):
            denoise(lap, y)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(10, 200))
            lap = random_weighted_laplacian(rng, n)
            y = rng.uniform(-1, 1, n)
            system = np.eye(n) + default_mu(lap) * dense(lap)
            expected = np.linalg.solve(system, y)
            # the Laplacian's own backing, and CG on its edge-list form
            for got in (denoise(lap, y), denoise(edge_laplacian(lap), y)):
                rel = np.linalg.norm(got - expected) / np.linalg.norm(expected)
                assert rel <= 1e-8

    def test_output_bounded_by_input_range(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            lap = random_weighted_laplacian(rng, 50)
            y = rng.uniform(-1, 1, 50)
            out = denoise(lap, y)
            assert out.min() >= y.min() - 1e-9
            assert out.max() <= y.max() + 1e-9

    def test_smoothness_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lap = random_weighted_laplacian(rng, 40)
            y = rng.uniform(-1, 1, 40)
            out = denoise(lap, y)
            before = float(y @ (lap @ y))
            after = float(out @ (lap @ out))
            assert after <= before + 1e-9

    def test_conditioning_bound(self):
        rng = np.random.default_rng(6)
        assert KAPPA == 60.0
        for _ in range(5):
            lap = random_weighted_laplacian(rng, 60)
            system = np.eye(60) + default_mu(lap) * dense(lap)
            eigvals = np.linalg.eigvalsh(system)
            assert eigvals.min() >= 1.0 - 1e-6
            assert eigvals.max() <= KAPPA + 1e-6

    def test_residual_log_written(self):
        rng = np.random.default_rng(7)
        lap = random_weighted_laplacian(rng, 25)
        y = rng.uniform(-1, 1, 25)
        # CG on the edge-list form logs one residual test per iteration
        residuals = []
        denoise(edge_laplacian(lap), y, residual_log=residuals)
        assert len(residuals) > 2 and residuals[-1] <= min(residuals[0], SOLVER_TOL)
        # a direct solve logs its test before and after the solve
        residuals = []
        denoise(lap, y, residual_log=residuals)
        assert len(residuals) == 2 and residuals[-1] <= SOLVER_TOL

    @pytest.mark.parametrize("n", [graphs.DENSE_BACKING_MAX + 1], ids=["edges"])
    def test_unconverged_cg_raises(self, monkeypatch, caplog, n):
        monkeypatch.setattr(glr, "MAX_ITER_FACTOR", 0)  # CG stops before its first step
        rng = np.random.default_rng(8)
        lap = random_weighted_laplacian(rng, n)
        assert isinstance(lap, EdgeLaplacian)
        y = rng.uniform(-1, 1, n)
        # with no CG step the iterate is still y, so its residual is mu ||L y|| / ||y||
        residual = default_mu(lap) * np.linalg.norm(dense(lap) @ y) / np.linalg.norm(y)
        with pytest.raises(SolverError, match=fr"N={n} nodes in 0 iterations "
                                              fr"\(relative residual {residual:.3g}\)"):
            denoise(lap, y)
        assert not caplog.records

    @pytest.mark.parametrize("blocks", [1, 3], ids=["dense", "stack"])
    def test_nan_weight_fails_the_direct_solve(self, caplog, blocks):
        rng = np.random.default_rng(8)
        gs = [kernel_graph(knn_edges(emb, 4), emb, 1.0)
              for emb in rng.normal(size=(blocks, 30, 3))]
        bad = gs[blocks // 2]  # both directions of its first edge
        i, j = bad.rows[0], bad.cols[0]
        bad.weights[(bad.rows == i) & (bad.cols == j) | (bad.rows == j) & (bad.cols == i)] = np.nan
        lap = np.vstack([build_laplacian(g) for g in gs])
        residuals = []
        with pytest.raises(SolverError, match=r"direct solve failed on N=30 nodes "
                                              r"\(relative residual nan\)"):
            denoise(lap, rng.uniform(-1, 1, 30 * blocks), residual_log=residuals)
        assert len(residuals) == 2 and math.isnan(residuals[-1])
        assert not caplog.records


@pytest.mark.parametrize("n", [30, graphs.DENSE_BACKING_MAX + 50], ids=["dense", "edges"])
class TestBadInputs:
    """A bad mu or a signal of the wrong length is refused before any CG step."""

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mu_rejected(self, n, mu):
        lap = random_weighted_laplacian(np.random.default_rng(11), n)
        residuals = []
        with pytest.raises(ValidationError, match=f"mu must be finite and nonnegative, got {mu}"):
            denoise(lap, np.ones(n), mu=mu, residual_log=residuals)
        assert residuals == []

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_signal_length_must_match(self, n, delta):
        lap = random_weighted_laplacian(np.random.default_rng(12), n)
        residuals = []
        with pytest.raises(ValidationError, match=fr"signal of shape \({n + delta},\) "
                                                  fr"on a {n}-node Laplacian"):
            denoise(lap, np.ones(n + delta), residual_log=residuals)
        assert residuals == []


class TestStackedDenoise:
    """A (C*b, b) stack of dense Laplacians is solved block by block."""

    def test_stack_equals_blocks_solved_alone(self):
        rng = np.random.default_rng(9)
        b = 40
        laps = [random_weighted_laplacian(rng, b, gamma, sigma)
                for gamma, sigma in ((2, 0.3), (8, 3.0), (4, 1.0))]
        g = knn_edges(rng.normal(size=(b, 3)), 3)
        edgeless = build_laplacian(dataclasses.replace(g, weights=0.0 * g.weights))
        laps += [laps[0], edgeless]
        ys = [rng.uniform(-1, 1, b) for _ in laps]
        ys[3] = np.zeros(b)  # a zero signal on a graph with edges
        alone, lengths = [], []
        for lap, y in zip(laps, ys):
            residuals = []
            alone.append(denoise(lap, y, residual_log=residuals))
            lengths.append(len(residuals))
        # a direct solve logs a residual test before and after it; the zero
        # signal passes the first, and an edgeless graph needs none
        assert lengths == [2, 2, 2, 1, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residuals = []
            got = denoise(np.vstack(laps), np.concatenate(ys), residual_log=residuals)
        assert len(residuals) == max(lengths)
        for k, want in enumerate(alone):
            assert got[k * b:(k + 1) * b].tobytes() == want.tobytes(), k

    def test_signals_that_solve_their_block_come_back_unchanged(self):
        rng = np.random.default_rng(13)
        laps = [random_weighted_laplacian(rng, 40, 4) for _ in range(3)]
        # L 1 = 0, so a zero and a constant signal pass the first residual test
        ys = [rng.uniform(-1, 1, 40), np.zeros(40), np.full(40, 0.7)]
        got = denoise(np.vstack(laps), np.concatenate(ys))
        assert got[40:].tobytes() == np.concatenate(ys[1:]).tobytes()
        assert not np.array_equal(got[:40], ys[0])

    def test_explicit_mu_applies_to_every_block(self):
        rng = np.random.default_rng(10)
        laps = [random_weighted_laplacian(rng, 20) for _ in range(3)]
        ys = [rng.uniform(-1, 1, 20) for _ in laps]
        got = denoise(np.vstack(laps), np.concatenate(ys), mu=0.2)
        want = np.concatenate([denoise(lap, y, mu=0.2) for lap, y in zip(laps, ys)])
        assert got.tobytes() == want.tobytes()

