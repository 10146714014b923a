import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import dense, kernel_graph
from dynglr import glr, graphs
from dynglr.errors import SolverError, ValidationError
from dynglr.glr import KAPPA, MU_FRACTION, denoise, mu_max
from dynglr.graphs import build_laplacian, knn_edges


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
            got = denoise(lap, y)
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
        residuals = []
        denoise(lap, rng.uniform(-1, 1, 25), residual_log=residuals)
        assert residuals and residuals[-1] <= residuals[0]

    @pytest.mark.parametrize("n, blocks", [(30, 1), (graphs.DENSE_BACKING_MAX + 1, 1), (30, 3)],
                             ids=["dense", "edges", "stack"])
    def test_unconverged_cg_raises(self, monkeypatch, caplog, n, blocks):
        monkeypatch.setattr(glr, "MAX_ITER_FACTOR", 0)  # CG stops before its first step
        rng = np.random.default_rng(8)
        laps = [random_weighted_laplacian(rng, n) for _ in range(blocks)]
        assert isinstance(laps[0], np.ndarray) == (n <= graphs.DENSE_BACKING_MAX)
        ys = [rng.uniform(-1, 1, n) for _ in range(blocks)]
        # with no CG step the iterate is still y, so its residual is mu ||L y|| / ||y||;
        # a stack reports its worst block
        residual = max(default_mu(lap) * np.linalg.norm(dense(lap) @ y) / np.linalg.norm(y)
                       for lap, y in zip(laps, ys))
        lap = laps[0] if blocks == 1 else np.vstack(laps)
        with pytest.raises(SolverError, match=fr"N={n} nodes in 0 iterations "
                                              fr"\(relative residual {residual:.3g}\)"):
            denoise(lap, np.concatenate(ys))
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
        # the blocks stop at different iterations; the zero signal passes the
        # first residual test, and an edgeless graph needs none
        assert len(set(lengths[:3])) == 3 and lengths[3:] == [1, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residuals = []
            got = denoise(np.vstack(laps), np.concatenate(ys), residual_log=residuals)
        assert len(residuals) == max(lengths)
        for k, want in enumerate(alone):
            assert got[k * b:(k + 1) * b].tobytes() == want.tobytes(), k

    def test_explicit_mu_applies_to_every_block(self):
        rng = np.random.default_rng(10)
        laps = [random_weighted_laplacian(rng, 20) for _ in range(3)]
        ys = [rng.uniform(-1, 1, 20) for _ in laps]
        got = denoise(np.vstack(laps), np.concatenate(ys), mu=0.2)
        want = np.concatenate([denoise(lap, y, mu=0.2) for lap, y in zip(laps, ys)])
        assert got.tobytes() == want.tobytes()

