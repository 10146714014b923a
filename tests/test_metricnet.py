import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import n_params, tiny_config
from dynglr import dataio, pipeline
from dynglr.errors import ConfigError, SamplingError, TrainingError, ValidationError
from dynglr.metricnet import (AdamState, MetricNet, NetConfig, adam_step,
                              load_checkpoint, lr_at, node_attention_matrix,
                              sample_triplets, save_checkpoint, triplet_loss_E,
                              triplet_loss_W)
from dynglr.pipeline import PipelineConfig, PipelineState


def loop_forward_oracle(net, x):
    """Independent forward pass: explicit per-neuron dot products."""
    h = list(x)
    raw = list(x)
    for k in range(net.n_layers):
        if net.config.skip_to_layer == k:
            h = h + raw
        out = []
        for j in range(net.weights[k].shape[1]):
            acc = net.biases[k][j]
            for i, hi in enumerate(h):
                acc += hi * net.weights[k][i, j]
            out.append(acc)
        if k < net.n_layers - 1:
            out = [max(v, 0.0) for v in out]
        h = out
    return np.array(h)


def forward_one(net, x):
    """(embedding, shallow activations) of a single row vector."""
    emb, shallow = net.forward_batch(np.asarray(x, dtype=np.float64)[None, :])[:2]
    return emb[0], shallow[0]


def flat_params(net):
    return np.concatenate([p.ravel() for p in net.parameters()])


def set_flat_params(net, flat):
    offset = 0
    for p in net.parameters():
        p[...] = flat[offset:offset + p.size].reshape(p.shape)
        offset += p.size


def fd_gradient(net, flat_loss, step=1e-5):
    """Central finite differences of flat_loss() over all parameters."""
    base = flat_params(net).copy()
    grad = np.zeros_like(base)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + step
        set_flat_params(net, bumped)
        up = flat_loss()
        bumped[i] = base[i] - step
        set_flat_params(net, bumped)
        down = flat_loss()
        grad[i] = (up - down) / (2 * step)
    set_flat_params(net, base)
    return grad


def rel_err(a, b):
    return np.abs(a - b) / (np.maximum(np.abs(a), np.abs(b)) + 1e-8)


def kink_free_inputs(net, rng, n_rows, kink_gap=5e-4):
    """Draw inputs until no rectifier pre-activation sits within kink_gap of
    its kink, so the loss is smooth on the finite-difference interval."""
    for scale in (0.4, 0.35, 0.45, 0.3, 0.5, 0.25):
        x = rng.normal(size=(n_rows, net.in_dim)) * scale
        _, _, (_, pres) = net.forward_batch(x)
        if all(np.abs(z).min() > kink_gap for z in pres[:-1]):
            return x
    raise AssertionError("could not find kink-free inputs")


class TestForward:
    def test_zero_parameters_give_zero_embedding(self):
        net = MetricNet(3, NetConfig(layer_widths=(4,), embedding_dim=2))
        for p in net.parameters():
            p[...] = 0.0
        emb, _ = forward_one(net, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(emb, np.zeros(2))

    def test_identity_single_layer(self):
        net = MetricNet(2, NetConfig(layer_widths=(), embedding_dim=2))
        net.weights[0][...] = np.eye(2)
        net.biases[0][...] = 0.0
        emb, _ = forward_one(net, np.array([1.0, 2.0]))
        np.testing.assert_allclose(emb, [1.0, 2.0])

    @pytest.mark.parametrize("widths,skip", [((5, 3), None), ((4,), None), ((6, 4), 1)])
    def test_matches_loop_oracle(self, widths, skip):
        rng = np.random.default_rng(0)
        net = MetricNet(4, NetConfig(layer_widths=widths, embedding_dim=3,
                                     skip_to_layer=skip, seed=1))
        for _ in range(5):
            x = rng.normal(size=4)
            emb, _ = forward_one(net, x)
            np.testing.assert_allclose(emb, loop_forward_oracle(net, x), atol=1e-12)

    def test_shallow_tap_is_last_hidden_activation(self):
        net = MetricNet(3, NetConfig(layer_widths=(5, 4), embedding_dim=2, seed=2))
        x = np.array([0.1, -0.2, 0.3])
        _, shallow = forward_one(net, x)
        assert shallow.shape == (4,)
        assert (shallow >= 0).all()  # rectified hidden output

    def test_dimension_mismatch_raises(self):
        net = MetricNet(3, NetConfig(layer_widths=(2,), embedding_dim=2))
        with pytest.raises(ValidationError):
            forward_one(net, np.zeros(5))

    def test_batch_order_equivariance(self):
        rng = np.random.default_rng(3)
        net = MetricNet(4, NetConfig(layer_widths=(6,), embedding_dim=3, seed=4))
        x = rng.normal(size=(10, 4))
        perm = rng.permutation(10)
        emb, shallow = net.forward_batch(x)[:2]
        emb_p, shallow_p = net.forward_batch(x[perm])[:2]
        np.testing.assert_array_equal(emb[perm], emb_p)
        np.testing.assert_array_equal(shallow[perm], shallow_p)

    @pytest.mark.parametrize("preset", list(pipeline.PRESETS))
    def test_forward_does_not_depend_on_the_row_count(self, preset):
        # stacked prediction embeds many graphs in one product, so a row
        # must get the same bits whatever else shares its forward
        arch = pipeline.PRESETS[preset]
        d = dataio.SYNTHETIC_SHAPES[preset][1] if preset in dataio.SYNTHETIC_SHAPES else 8
        in_dims = {"embed": d, "weight1": d + arch.metric_hidden[-1],
                   "update": d + 2 + 2 * pipeline.UNET_NEIGHBORS,
                   "weight2": d + arch.update_hidden[-1]}
        cfg = PipelineConfig(arch=arch, seed=7)
        rng = np.random.default_rng(8)
        for stage, in_dim in in_dims.items():
            net = MetricNet(in_dim, cfg.net_config(stage))
            x = rng.normal(size=(1000, in_dim))
            whole = net.forward_batch(x)[:2]
            parts = [net.forward_batch(x[i:i + 100])[:2] for i in range(0, 1000, 100)]
            for k, out in enumerate(whole):
                assert out.tobytes() == np.vstack([p[k] for p in parts]).tobytes(), stage


class TestTripletLosses:
    def _fixed_embedding_net(self, mapping):
        # single linear layer mapping one-hot rows to prescribed embeddings
        n = len(mapping)
        d = len(mapping[0])
        net = MetricNet(n, NetConfig(layer_widths=(), embedding_dim=d))
        net.weights[0][...] = np.asarray(mapping, dtype=float)
        net.biases[0][...] = 0.0
        return net, np.eye(n)

    def test_margin_satisfied_clamps_to_zero(self):
        # a == p, d(a, n) = 16 > margin 10
        net, x = self._fixed_embedding_net([[0.0], [0.0], [4.0]])
        loss, grads = triplet_loss_E(net, x, np.array([[0, 1, 2]]), margin=10.0)
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads)

    def test_margin_violated_hinge_value(self):
        # a == p, d(a, n) = 4 -> loss 10 - 4 = 6
        net, x = self._fixed_embedding_net([[0.0], [0.0], [2.0]])
        loss, _ = triplet_loss_E(net, x, np.array([[0, 1, 2]]), margin=10.0)
        assert loss == pytest.approx(6.0)

    def test_empty_triplets_raise(self):
        # the training loop always draws TRIPLETS_PER_GRAPH triplets, so an
        # empty array is as malformed as a wrongly shaped one
        net, x = self._fixed_embedding_net([[0.0], [1.0]])
        empty = np.empty((0, 3), dtype=np.int64)
        with pytest.raises(ValidationError, match="nonempty"):
            triplet_loss_E(net, x, empty, margin=10.0)
        with pytest.raises(ValidationError, match="nonempty"):
            triplet_loss_W(net, x, empty, margin=10.0, attention=np.ones((2, 2)))

    def test_attention_all_ones_bitwise_equal_to_plain(self):
        rng = np.random.default_rng(5)
        net = MetricNet(4, NetConfig(layer_widths=(6, 3), embedding_dim=2, seed=6))
        x = rng.normal(size=(12, 4))
        trips = rng.integers(0, 12, size=(20, 3))
        ones = np.ones((12, 12))
        loss_e, grads_e = triplet_loss_E(net, x, trips, margin=10.0)
        loss_w, grads_w = triplet_loss_W(net, x, trips, margin=10.0, attention=ones)
        assert loss_e == loss_w
        for ge, gw in zip(grads_e, grads_w):
            assert np.array_equal(ge, gw)

    def test_zero_negative_attention_gives_margin_loss(self):
        # pi(a,n)=0, pi(a,p)=1, a == p -> hinge is exactly the margin
        net, x = self._fixed_embedding_net([[0.0], [0.0], [5.0]])
        att = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        loss, _ = triplet_loss_W(net, x, np.array([[0, 1, 2]]), margin=10.0, attention=att)
        assert loss == pytest.approx(10.0)

    def test_both_attentions_zero_drops_triplet(self):
        net, x = self._fixed_embedding_net([[0.0], [0.0], [5.0]])
        att = np.zeros((3, 3))
        loss, grads = triplet_loss_W(net, x, np.array([[0, 1, 2]]), margin=10.0,
                                     attention=att)
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads)

    def test_losses_nonnegative_random(self):
        rng = np.random.default_rng(7)
        net = MetricNet(3, NetConfig(layer_widths=(5,), embedding_dim=2, seed=8))
        for _ in range(10):
            x = rng.normal(size=(8, 3))
            trips = rng.integers(0, 8, size=(6, 3))
            loss, _ = triplet_loss_E(net, x, trips, margin=5.0)
            assert loss >= 0.0

    def test_node_attention_matrix_is_pairwise_min(self):
        phi = np.array([1.0, 0.0, 1.0])
        att = node_attention_matrix(phi)
        assert att[0, 2] == 1.0 and att[0, 1] == 0.0 and att[1, 1] == 0.0


class TestGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_plain_loss_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        widths = tuple(rng.integers(2, 7, size=rng.integers(1, 3)))
        net = MetricNet(3, NetConfig(layer_widths=widths, embedding_dim=2, seed=seed))
        assert n_params(net) <= 1000
        # inputs scaled so hinges stay active and away from their kink: the
        # loss is smooth there and central differences are trustworthy
        x = kink_free_inputs(net, rng, 9)
        trips = rng.integers(0, 9, size=(5, 3))
        _, grads = triplet_loss_E(net, x, trips, margin=10.0)
        analytic = np.concatenate([g.ravel() for g in grads])
        fd = fd_gradient(net, lambda: triplet_loss_E(net, x, trips, margin=10.0)[0])
        assert rel_err(analytic, fd).max() <= 1e-4

    @pytest.mark.parametrize("seed", range(10, 20))
    def test_attention_loss_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        skip = 1 if seed % 2 else None
        net = MetricNet(3, NetConfig(layer_widths=(4, 3), embedding_dim=2, seed=seed,
                                     skip_to_layer=skip))
        assert n_params(net) <= 1000
        x = kink_free_inputs(net, rng, 9)
        trips = rng.integers(0, 9, size=(6, 3))
        att = rng.integers(0, 2, size=(9, 9)).astype(float)
        _, grads = triplet_loss_W(net, x, trips, margin=10.0, attention=att)
        analytic = np.concatenate([g.ravel() for g in grads])
        fd = fd_gradient(
            net, lambda: triplet_loss_W(net, x, trips, margin=10.0, attention=att)[0])
        assert rel_err(analytic, fd).max() <= 1e-4


def three_pass_triplet_core(net, x, trips, margin, attention):
    """Reference triplet loss: the anchor, positive and negative rows each go
    through their own forward and backward pass, and the three gradient sets
    are summed. Also returns the largest entry of the three sets: the
    rounding error of that sum, in any order, scales with it."""
    x = np.asarray(x, dtype=np.float64)
    ia, ip, iq = trips[:, 0], trips[:, 1], trips[:, 2]
    emb_a, _, cache_a = net.forward_batch(x[ia])
    emb_p, _, cache_p = net.forward_batch(x[ip])
    emb_n, _, cache_n = net.forward_batch(x[iq])
    diff_ap = emb_a - emb_p
    diff_an = emb_a - emb_n
    d_ap = (diff_ap * diff_ap).sum(axis=1)
    d_an = (diff_an * diff_an).sum(axis=1)
    if attention is None:
        pi_ap = np.ones(trips.shape[0])
        pi_an = np.ones(trips.shape[0])
    else:
        pi_ap = attention[ia, ip]
        pi_an = attention[ia, iq]
    hinge = margin - pi_an * d_an + pi_ap * d_ap
    keep = ~((pi_ap == 0.0) & (pi_an == 0.0))
    active = (hinge > 0.0) & keep
    loss = float(hinge[active].sum())
    coef = active.astype(np.float64)
    g_ap = (2.0 * pi_ap * coef)[:, None] * diff_ap
    g_an = (2.0 * pi_an * coef)[:, None] * diff_an
    grads_a = net._backward(cache_a, g_ap - g_an)
    grads_p = net._backward(cache_p, -g_ap)
    grads_n = net._backward(cache_n, g_an)
    scale = max(float(np.abs(g).max()) for g in grads_a + grads_p + grads_n)
    return loss, [ga + gp + gn for ga, gp, gn in zip(grads_a, grads_p, grads_n)], scale


def add_at_triplet_core(net, x, trips, margin, attention):
    """Reference scatter of the batch-embedding triplet loss: one forward,
    the per-row gradients summed by three unbuffered np.add.at passes
    (anchor, positive, then negative terms), one backward."""
    ia, ip, iq = trips.T
    emb, _, cache = net.forward_batch(np.asarray(x, dtype=np.float64))
    diff_ap = emb[ia] - emb[ip]
    diff_an = emb[ia] - emb[iq]
    d_ap = (diff_ap * diff_ap).sum(axis=1)
    d_an = (diff_an * diff_an).sum(axis=1)
    if attention is None:
        pi_ap = pi_an = np.ones(trips.shape[0])
    else:
        pi_ap, pi_an = attention[ia, ip], attention[ia, iq]
    hinge = margin - pi_an * d_an + pi_ap * d_ap
    active = (hinge > 0.0) & ~((pi_ap == 0.0) & (pi_an == 0.0))
    coef = active.astype(np.float64)
    g_ap = (2.0 * pi_ap * coef)[:, None] * diff_ap
    g_an = (2.0 * pi_an * coef)[:, None] * diff_an
    d_emb = np.zeros_like(emb)
    np.add.at(d_emb, ia, g_ap - g_an)
    np.add.at(d_emb, ip, -g_ap)
    np.add.at(d_emb, iq, g_an)
    return float(hinge[active].sum()), net._backward(cache, d_emb)


@st.composite
def triplet_cases(draw, skip):
    """(net, x, triplets, attention or None). The first two triplets share
    their anchor, and the positive of one is the negative of the other."""
    widths = tuple(draw(st.lists(st.integers(1, 6), min_size=1 if skip else 0, max_size=3)))
    net = MetricNet(draw(st.integers(1, 5)), NetConfig(
        layer_widths=widths, embedding_dim=draw(st.integers(1, 4)),
        skip_to_layer=draw(st.integers(1, len(widths))) if skip else None,
        seed=draw(st.integers(0, 2**31 - 1))))
    n = draw(st.integers(3, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    x = rng.normal(size=(n, net.in_dim))
    rows = st.integers(0, n - 1)
    a, p, q = draw(st.lists(rows, min_size=3, max_size=3, unique=True))
    extra = draw(st.lists(st.tuples(rows, rows, rows), max_size=10))
    trips = np.array([(a, p, q), (a, q, p)] + extra, dtype=np.int64)
    attention = draw(st.sampled_from([None, "ones", "binary"]))
    if attention == "ones":
        attention = np.ones((n, n))
    elif attention == "binary":
        attention = rng.integers(0, 2, size=(n, n)).astype(np.float64)
        attention[a, q] = 0.0
    return net, x, trips, attention


class TestBatchTripletCore:
    @pytest.mark.parametrize("skip", [False, True])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_three_pass_reference(self, skip, data):
        net, x, trips, att = data.draw(triplet_cases(skip))
        if att is None:
            loss, grads = triplet_loss_E(net, x, trips, margin=10.0)
        else:
            loss, grads = triplet_loss_W(net, x, trips, margin=10.0, attention=att)
        ref_loss, ref_grads, scale = three_pass_triplet_core(net, x, trips, 10.0, att)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        assert len(grads) == len(ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape
            assert np.abs(g - ref).max() <= 1e-10 * scale

    @pytest.mark.parametrize("skip", [False, True])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bit_equal_to_add_at_scatter(self, skip, data):
        net, x, trips, att = data.draw(triplet_cases(skip))
        if att is None:
            loss, grads = triplet_loss_E(net, x, trips, margin=10.0)
        else:
            loss, grads = triplet_loss_W(net, x, trips, margin=10.0, attention=att)
        ref_loss, ref_grads = add_at_triplet_core(net, x, trips, 10.0, att)
        assert loss == ref_loss
        for g, ref in zip(grads, ref_grads, strict=True):
            assert np.array_equal(g, ref)
            assert np.array_equal(np.signbit(g), np.signbit(ref))
        # a forward of every row, passed in, gives the same bits
        shared = triplet_loss_W(net, x, trips, margin=10.0, attention=np.ones((len(x),) * 2)
                                if att is None else att, forward=net.forward_batch(x))
        assert shared[0] == loss
        for g, ref in zip(shared[1], grads, strict=True):
            assert np.array_equal(g, ref)

    @pytest.mark.parametrize("loss", ["E", "W"])
    def test_margin_is_checked_first(self, loss):
        net = MetricNet(2, NetConfig(layer_widths=(3,), embedding_dim=2))
        args = (net, np.zeros((4, 2)), np.array([0, 1, 2]), 0.0)
        with pytest.raises(ConfigError, match="margin must be positive"):
            triplet_loss_E(*args) if loss == "E" else triplet_loss_W(*args, np.ones((4, 4)))

    def test_triplets_must_be_index_rows(self):
        net = MetricNet(2, NetConfig(layer_widths=(3,), embedding_dim=2))
        with pytest.raises(ValidationError):
            triplet_loss_E(net, np.zeros((4, 2)), np.array([0, 1, 2]), margin=10.0)
        with pytest.raises(ValidationError):
            triplet_loss_E(net, np.zeros((4, 2)), np.array([[0, 1, -1]]), margin=10.0)


class TestSampleTriplets:
    def test_singleton_negative_class(self):
        trips = sample_triplets(np.array([1.0, 1.0, -1.0]), count=20, seed=0)
        assert trips.shape == (20, 3) and trips.dtype == np.int64
        anchors, positives, negatives = trips.T
        assert np.all(negatives == 2)
        assert np.isin(anchors, (0, 1)).all() and np.isin(positives, (0, 1)).all()
        assert np.all(anchors != positives)

    def test_count_zero_empty(self):
        trips = sample_triplets(np.array([1.0, -1.0, 1.0]), 0, seed=1)
        assert trips.shape == (0, 3) and trips.dtype == np.int64

    def test_deterministic_per_seed(self):
        labels = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 0.0])
        a = sample_triplets(labels, 15, seed=42)
        b = sample_triplets(labels, 15, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_labels_consistent(self):
        rng = np.random.default_rng(9)
        labels = rng.choice([-1.0, 0.0, 1.0], size=30)
        trips = sample_triplets(labels, 50, seed=3)
        for a, p, n in trips:
            assert labels[a] == labels[p] != 0
            assert labels[n] == -labels[a]

    def test_single_class_raises(self):
        with pytest.raises(SamplingError):
            sample_triplets(np.ones(5), 3, seed=0)

    def test_unlabeled_nodes_never_sampled(self):
        labels = np.array([0.0, 1.0, 1.0, -1.0, -1.0, 0.0])
        trips = sample_triplets(labels, 40, seed=4)
        used = set(trips.ravel().tolist())
        assert 0 not in used and 5 not in used

    @pytest.mark.parametrize("labels,count,seed,expected", [
        ([1, 1, -1, -1, 1, 0, -1, 1, 0, -1], 12, 42,
         [(4, 7, 9), (2, 3, 4), (4, 1, 6), (0, 4, 2), (1, 7, 2), (6, 3, 1),
          (1, 7, 3), (2, 3, 7), (3, 2, 1), (7, 4, 6), (6, 2, 7), (4, 7, 2)]),
        # one positive node: every anchor is negative
        ([-1, 1, -1, 0, -1, -1, 0], 8, 7,
         [(4, 2, 1), (2, 4, 1), (4, 5, 1), (0, 2, 1), (0, 5, 1), (4, 5, 1),
          (4, 5, 1), (2, 5, 1)]),
    ])
    def test_draws_pinned(self, labels, count, seed, expected):
        trips = sample_triplets(np.array(labels, dtype=np.float64), count, seed)
        np.testing.assert_array_equal(trips, np.array(expected, dtype=np.int64))


class TestOptimizer:
    def test_zero_gradients_leave_parameters_unchanged(self):
        net = MetricNet(2, NetConfig(layer_widths=(3,), embedding_dim=2, seed=10))
        before = [p.copy() for p in net.parameters()]
        state = AdamState.for_net(net)
        adam_step(net, [np.zeros_like(p) for p in net.parameters()], state, lr=0.1)
        for b, p in zip(before, net.parameters()):
            np.testing.assert_array_equal(b, p)

    def test_lr_linear_decay_midpoint(self):
        cfg = NetConfig(layer_widths=(2,), embedding_dim=1, lr_start=0.02,
                        lr_end=0.01, epochs=11)
        assert lr_at(cfg, 5) == pytest.approx(0.015)
        assert lr_at(cfg, 0) == pytest.approx(0.02)
        assert lr_at(cfg, 10) == pytest.approx(0.01)

    def test_quadratic_loss_converges(self):
        cfg = NetConfig(layer_widths=(), embedding_dim=1, lr_start=0.05,
                        lr_end=0.05, epochs=500, seed=11)
        net = MetricNet(1, cfg)
        state = AdamState.for_net(net)
        losses = []
        for epoch in range(cfg.epochs):
            w = net.weights[0][0, 0]
            losses.append((w - 3.0) ** 2)
            grads = [np.array([[2.0 * (w - 3.0)]]), np.zeros(1)]
            adam_step(net, grads, state, lr_at(cfg, epoch))
        assert abs(net.weights[0][0, 0] - 3.0) <= 1e-3
        assert len(losses) == 500 and losses[-1] < losses[0]

    def test_non_finite_loss_aborts_with_location(self, blobs):
        state = PipelineState.fresh(blobs, tiny_config("G-2", seed=3))
        inputs = blobs.features[state.work_ids]

        def step(net, pos, trips, epoch):
            return np.nan, [np.zeros_like(p) for p in net.parameters()]

        with pytest.raises(TrainingError, match="embed: non-finite loss at epoch 0, batch 0$"):
            pipeline._train_net(state, "embed", inputs, state.work_signal0, step)

    def test_skipped_batches_leave_net_unchanged(self, blobs):
        cfg = tiny_config("G-2", seed=16)
        state = PipelineState.fresh(blobs, cfg)
        inputs = blobs.features[state.work_ids]
        net = pipeline._train_net(state, "embed", inputs, state.work_signal0,
                                  lambda net, pos, trips, epoch: None)
        untrained = MetricNet(inputs.shape[1], cfg.net_config("embed"))
        assert state.stage_losses["embed"] == [0.0] * cfg.net_config("embed").epochs
        for got, init in zip(net.parameters(), untrained.parameters(), strict=True):
            np.testing.assert_array_equal(got, init)

    def test_parameters_stay_finite_through_training(self):
        rng = np.random.default_rng(12)
        cfg = NetConfig(layer_widths=(4,), embedding_dim=2, epochs=5, seed=13)
        net = MetricNet(3, cfg)
        x = rng.normal(size=(10, 3))
        labels = np.array([1.0] * 5 + [-1.0] * 5)
        batches = [sample_triplets(labels, 8, seed=k) for k in range(4)]
        state = AdamState.for_net(net)
        for epoch in range(cfg.epochs):
            for trips in batches:
                _, grads = triplet_loss_E(net, x, trips, 10.0)
                adam_step(net, grads, state, lr_at(cfg, epoch))
        assert all(np.all(np.isfinite(p)) for p in net.parameters())


class TestConfigValidation:
    def test_lr_ordering(self):
        with pytest.raises(ConfigError):
            NetConfig(layer_widths=(3,), embedding_dim=2, lr_start=0.01, lr_end=0.02)

    def test_skip_layer_bound(self):
        with pytest.raises(ConfigError):
            NetConfig(layer_widths=(3,), embedding_dim=2, skip_to_layer=0)


def write_checkpoint(path, meta, net):
    """A checkpoint file with the given meta block and net's parameters."""
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    arrays.update({f"w{k}": w for k, w in enumerate(net.weights)})
    arrays.update({f"b{k}": b for k, b in enumerate(net.biases)})
    np.savez(path, **arrays)


def older_v2_meta(net, **retired):
    """The version-2 meta of releases whose NetConfig also had a tap index
    and the adaptive-moment constants."""
    config = {**dataclasses.asdict(net.config), "shallow_tap_index": None,
              "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8, **retired}
    return {"version": 2, "in_dim": net.in_dim, "config": config}


def version_1_meta(net):
    """The flat meta of the first release, without weight decay."""
    return {"version": 1, "in_dim": net.in_dim, "layer_widths": list(net.config.layer_widths),
            "embedding_dim": net.config.embedding_dim, "shallow_tap_index": 0,
            "skip_to_layer": None, "lr_start": 0.02, "lr_end": 0.01, "epochs": 60,
            "seed": net.config.seed, "adam_t": 0, "rng_state": None}


def retired_meta(net, layout):
    """A meta block in a layout load_checkpoint refuses."""
    current = {"version": 2, "in_dim": net.in_dim, "config": dataclasses.asdict(net.config)}
    config = current["config"]
    return {"version-1": version_1_meta(net),
            "version-3": {**current, "version": 3},
            "adam-keys": {**current, "config": {**config, "adam_beta1": 0.9}},
            "missing-field": {**current, "config": {k: v for k, v in config.items()
                                                    if k != "weight_decay"}},
            "older-v2": older_v2_meta(net)}[layout]


RETIRED_LAYOUTS = ("version-1", "version-3", "adam-keys", "missing-field", "older-v2")


@st.composite
def net_configs(draw):
    widths = tuple(draw(st.lists(st.integers(1, 6), max_size=3)))
    skip = draw(st.none() | st.integers(1, len(widths))) if widths else None
    return NetConfig(layer_widths=widths, embedding_dim=draw(st.integers(1, 4)),
                     skip_to_layer=skip, seed=draw(st.integers(0, 2**31 - 1)))


class TestCheckpoint:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 6), net_configs())
    def test_roundtrip_property(self, in_dim, config):
        # perturbed parameters: a load that kept the seeded init would differ
        net = MetricNet(in_dim, config)
        rng = np.random.default_rng(config.seed)
        for p in net.parameters():
            p += rng.normal(size=p.shape)
        x = rng.normal(size=(5, in_dim))
        with tempfile.TemporaryDirectory() as tmp:
            save_checkpoint(net, Path(tmp) / "net.npz")
            loaded = load_checkpoint(Path(tmp) / "net.npz")
        assert loaded.config == config
        for got, want in zip(loaded.forward_batch(x)[:2], net.forward_batch(x)[:2]):
            assert np.array_equal(got, want)

    def test_tap_off_the_last_hidden_layer_refused(self, tmp_path):
        net = MetricNet(3, NetConfig(layer_widths=(4, 3), embedding_dim=2))
        write_checkpoint(tmp_path / "net.npz", older_v2_meta(net, shallow_tap_index=0), net)
        with pytest.raises(ConfigError, match="not a version-2 checkpoint"):
            load_checkpoint(tmp_path / "net.npz")

    @pytest.mark.parametrize("layout", RETIRED_LAYOUTS)
    def test_retired_layout_refused(self, tmp_path, layout):
        """Only the layout save_checkpoint writes loads: no other version, and
        a config with exactly NetConfig's fields."""
        net = MetricNet(3, NetConfig(layer_widths=(4,), embedding_dim=2, seed=17))
        write_checkpoint(tmp_path / "net.npz", retired_meta(net, layout), net)
        with pytest.raises(ConfigError, match="not a version-2 checkpoint"):
            load_checkpoint(tmp_path / "net.npz")

    def test_roundtrip(self, tmp_path):
        cfg = NetConfig(layer_widths=(4, 3), embedding_dim=2, seed=14, skip_to_layer=1)
        net = MetricNet(5, cfg)
        grads = [np.ones_like(p) for p in net.parameters()]
        adam_step(net, grads, AdamState.for_net(net), lr=0.01)
        path = tmp_path / "net.npz"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        for a, b in zip(net.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a, b)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(net.forward_batch(x)[0],
                                      loaded.forward_batch(x)[0])

    def test_pipeline_config_survives_roundtrip(self, tmp_path):
        cfg = PipelineConfig().net_config("weight2")
        net = MetricNet(7, cfg)
        save_checkpoint(net, tmp_path / "net.npz")
        assert load_checkpoint(tmp_path / "net.npz").config == net.config
