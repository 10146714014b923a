import math

import numpy as np
import pytest

from dynglr.errors import ValidationError
from dynglr.glr import GlrParams, denoise, mu_max
from dynglr.graphs import assign_weights, build_laplacian, knn_edges


def random_weighted_laplacian(rng, n, gamma=None, sigma=1.0):
    emb = rng.normal(size=(n, 3))
    gamma = gamma if gamma is not None else int(rng.integers(2, 9))
    g = assign_weights(knn_edges(emb, gamma), emb, sigma=sigma)
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
        out = denoise(lap, y, GlrParams(), mu=0.0)
        assert np.array_equal(out, y)

    def test_two_node_hand_solve(self):
        # dense solve of [[1.5,-0.5],[-0.5,1.5]] Y = (1,-1) gives (0.5,-0.5)
        emb = np.array([[0.0], [1.0]])
        lap = build_laplacian(knn_edges(emb, 1))  # unit weight
        out = denoise(lap, np.array([1.0, -1.0]), GlrParams(), mu=0.5)
        np.testing.assert_allclose(out, [0.5, -0.5], atol=1e-10)

    def test_constant_signal_preserved(self):
        rng = np.random.default_rng(1)
        lap = random_weighted_laplacian(rng, 30)
        out = denoise(lap, np.full(30, 0.7), GlrParams())
        np.testing.assert_allclose(out, 0.7, atol=1e-9)

    def test_edgeless_graph_short_circuits(self):
        emb = np.array([[0.0], [1.0]])
        g = knn_edges(emb, 1)
        g.weights.data[:] = 0.0
        lap = build_laplacian(g)
        y = np.array([0.3, -0.9])
        assert np.array_equal(denoise(lap, y, GlrParams()), y)

    def test_non_finite_input_rejected(self):
        rng = np.random.default_rng(2)
        lap = random_weighted_laplacian(rng, 10)
        y = np.zeros(10)
        y[3] = np.nan
        with pytest.raises(ValidationError):
            denoise(lap, y, GlrParams())

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        params = GlrParams()
        for _ in range(10):
            n = int(rng.integers(10, 200))
            lap = random_weighted_laplacian(rng, n)
            y = rng.uniform(-1, 1, n)
            mu = params.mu_fraction * mu_max(params.kappa, lap.d_max)
            system = np.eye(n) + mu * lap.laplacian.toarray()
            expected = np.linalg.solve(system, y)
            got = denoise(lap, y, params)
            rel = np.linalg.norm(got - expected) / np.linalg.norm(expected)
            assert rel <= 1e-8

    def test_output_bounded_by_input_range(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            lap = random_weighted_laplacian(rng, 50)
            y = rng.uniform(-1, 1, 50)
            out = denoise(lap, y, GlrParams())
            assert out.min() >= y.min() - 1e-9
            assert out.max() <= y.max() + 1e-9

    def test_smoothness_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lap = random_weighted_laplacian(rng, 40)
            y = rng.uniform(-1, 1, 40)
            out = denoise(lap, y, GlrParams())
            before = float(y @ (lap.laplacian @ y))
            after = float(out @ (lap.laplacian @ out))
            assert after <= before + 1e-9

    def test_conditioning_bound(self):
        rng = np.random.default_rng(6)
        params = GlrParams(kappa=60.0)
        for _ in range(5):
            lap = random_weighted_laplacian(rng, 60)
            mu = params.mu_fraction * mu_max(params.kappa, lap.d_max)
            system = np.eye(60) + mu * lap.laplacian.toarray()
            eigvals = np.linalg.eigvalsh(system)
            assert eigvals.min() >= 1.0 - 1e-6
            assert eigvals.max() <= params.kappa + 1e-6

    def test_residual_log_written(self):
        rng = np.random.default_rng(7)
        lap = random_weighted_laplacian(rng, 25)
        residuals = []
        denoise(lap, rng.uniform(-1, 1, 25), GlrParams(), residual_log=residuals)
        assert residuals and residuals[-1] <= residuals[0]


class TestParams:
    def test_invalid_kappa(self):
        with pytest.raises(ValidationError):
            GlrParams(kappa=0.5)

    def test_invalid_mu_fraction(self):
        with pytest.raises(ValidationError):
            GlrParams(mu_fraction=1.5)
