import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import blob_dataset, dense, kernel_graph, tiny_config
from dynglr import dataio, pipeline
from dynglr.dataio import TRAIN, VAL, TEST
from dynglr.errors import ConfigError, SamplingError, TrainingError, UsageError
from dynglr.graphs import Graph, knn_edges, surviving_edge_budgets
from dynglr.metricnet import MetricNet, node_attention_matrix
from dynglr.pipeline import (GAMMA_CANDIDATES, PipelineConfig, PipelineState, build_batches,
                             grid_search_gamma, load_state, node_phi, parse_variant,
                             predict, rank_sampling, run_chain, run_variant, save_state,
                             unet_inputs, _ordinal_rank)
from dynglr.seeds import substream


def attention(y_prev_i, y_cur_i, y_prev_j, y_cur_j, eps: float) -> int:
    """Scalar oracle: edge attention is the min of the endpoint reliability flags."""
    phi_i = 1 if abs(y_prev_i - y_cur_i) <= eps else 0
    phi_j = 1 if abs(y_prev_j - y_cur_j) <= eps else 0
    return min(phi_i, phi_j)


def loop_neighbor_ids(weights, k):
    """Row-by-row oracle of unet_inputs' neighbor lists: the k heaviest
    neighbors (equal weights in column order), a shorter list repeated
    cyclically, an isolated node repeated itself."""
    adj = dense(weights)
    ids = np.empty((adj.shape[0], k), dtype=np.int64)
    for i in range(adj.shape[0]):
        cols = np.flatnonzero(adj[i])
        chosen = cols[np.argsort(-adj[i, cols], kind="stable")[:k]]
        ids[i] = np.resize(chosen if chosen.size else np.array([i]), k)
    return ids


def knn_vote_oracle(emb_refs, labels_refs, emb_targets, gamma):
    """Brute-force vote of each target's gamma nearest references, ties by index."""
    votes = []
    for e in emb_targets:
        dists = sorted((float(np.sum((e - r) ** 2)), j) for j, r in enumerate(emb_refs))
        votes.append(sum(labels_refs[j] for _, j in dists[:gamma]))
    return np.array(votes)


def id_batches_oracle(ds, seed):
    """Batches as (dataset ids, labeled mask) drawn from the dataset's id
    pools, the form the pipeline drew before batches were working-set
    positions."""
    rng = substream(seed, "batches")
    pools = []
    for idx, per_graph in ((ds.indices(TRAIN), pipeline.LABELED_PER_GRAPH),
                           (ds.indices(VAL), pipeline.UNLABELED_PER_GRAPH)):
        need = pipeline.GRAPHS_PER_EPOCH * per_graph
        pools.append(rng.choice(idx, size=need, replace=idx.size < need))
    batches = []
    for k in range(pipeline.GRAPHS_PER_EPOCH):
        tr = pools[0][k * pipeline.LABELED_PER_GRAPH:(k + 1) * pipeline.LABELED_PER_GRAPH]
        va = pools[1][k * pipeline.UNLABELED_PER_GRAPH:(k + 1) * pipeline.UNLABELED_PER_GRAPH]
        labeled = np.zeros(tr.size + va.size, dtype=bool)
        labeled[:tr.size] = True
        batches.append((np.concatenate([tr, va]), labeled))
    return batches


def id_signal_oracle(ds, ids, labeled):
    """A batch's initial signal: noisy labels, 0 on its unlabeled nodes."""
    y = ds.noisy_labels[ids].copy()
    y[~labeled] = 0.0
    return y


def layout_dataset(n_train, n_val, n_test, seed):
    """A dataset whose split interleaves the three sets in a seeded order."""
    rng = np.random.default_rng(seed)
    split = rng.permutation(np.repeat(np.array([TRAIN, VAL, TEST], dtype=np.int8),
                                      [n_train, n_val, n_test]))
    labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=split.size)
    return dataio.Dataset(features=rng.normal(size=(split.size, 2)), clean_labels=labels,
                          noisy_labels=labels.astype(np.float64), split=split)


def work_split(ds):
    return ds.split[ds.split != TEST]


def pair_attention(y_prev, y_cur, eps):
    """Attention of the edge (0, 1) through node_phi and node_attention_matrix."""
    return node_attention_matrix(node_phi(np.array(y_prev), np.array(y_cur), eps))[0, 1]


class TestParseVariant:
    @pytest.mark.parametrize("name,chain,sampling", [
        ("G-2", "G-2", False), ("G-12s", "G-12", True),
        ("G-12312", "G-12312", False), ("G-12312s", "G-12312", True),
        ("DML-KNN", "DML-KNN", False), ("DML-KNN-s", "DML-KNN", True),
    ])
    def test_known_variants(self, name, chain, sampling):
        assert parse_variant(name) == (chain, sampling)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            parse_variant("G-99")


class TestAttention:
    def test_both_changes_under_threshold(self):
        assert attention(0.5, 0.0, 0.2, 0.0, eps=0.6) == 1
        assert pair_attention([0.5, 0.2], [0.0, 0.0], 0.6) == 1

    def test_one_endpoint_over_threshold_kills_edge(self):
        assert attention(0.7, 0.0, 0.0, 0.0, eps=0.6) == 0
        assert attention(0.7, 0.0, 0.5, 0.5, eps=0.6) == 0
        assert pair_attention([0.7, 0.0], [0.0, 0.0], 0.6) == 0
        assert pair_attention([0.7, 0.5], [0.0, 0.5], 0.6) == 0

    def test_zero_eps_unchanged_labels(self):
        assert attention(1.0, 1.0, -1.0, -1.0, eps=0.0) == 1
        assert pair_attention([1.0, -1.0], [1.0, -1.0], 0.0) == 1

    def test_node_phi_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        prev, cur = rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20)
        att = node_attention_matrix(node_phi(prev, cur, 0.3))
        for i in range(20):
            for j in range(20):
                assert att[i, j] == attention(prev[i], cur[i], prev[j], cur[j], 0.3)


class TestBatches:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_train=st.integers(1, 1500), n_val=st.integers(1, 400),
           n_test=st.integers(0, 50), layout_seed=st.integers(0, 2**16),
           seed=st.integers(0, 2**16))
    # both pools fill an epoch; only the train pool does; neither does
    @example(n_train=1300, n_val=330, n_test=20, layout_seed=1, seed=2)
    @example(n_train=1280, n_val=100, n_test=0, layout_seed=3, seed=4)
    @example(n_train=90, n_val=5, n_test=7, layout_seed=5, seed=6)
    def test_matches_id_oracle(self, n_train, n_val, n_test, layout_seed, seed):
        ds = layout_dataset(n_train, n_val, n_test, layout_seed)
        state = PipelineState.fresh(ds, tiny_config())
        batches = build_batches(work_split(ds), seed)
        oracle = id_batches_oracle(ds, seed)
        assert len(batches) == len(oracle) == 16
        for pos, (ids, labeled) in zip(batches, oracle):
            np.testing.assert_array_equal(state.work_ids[pos], ids)
            signal = id_signal_oracle(ds, ids, labeled)
            np.testing.assert_array_equal(state.work_signal0[pos], signal)
            assert (signal[~labeled] == 0).all() and (signal[labeled] != 0).all()

    def test_batch_composition(self, blobs):
        split = work_split(blobs)
        batches = build_batches(split, seed=3)
        assert len(batches) == 16
        for pos in batches:
            assert pos.size == 100
            assert (split[pos[:80]] == TRAIN).all()
            assert (split[pos[80:]] == VAL).all()

    def test_deterministic_per_seed(self, blobs):
        a = build_batches(work_split(blobs), seed=5)
        b = build_batches(work_split(blobs), seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_disjoint_when_split_large_enough(self):
        ds = blob_dataset(n=4000, seed=2)
        batches = build_batches(work_split(ds), seed=1)
        train_slots = np.concatenate([pos[:80] for pos in batches])
        assert train_slots.size == np.unique(train_slots).size == 1280

    def test_replacement_fallback_logged(self, blobs, caplog):
        with caplog.at_level("INFO"):
            build_batches(work_split(blobs), seed=0)
        assert "replacement" in caplog.text

    def test_empty_split_raises(self):
        # 2 rows per class split into 2 train, 0 val and 2 test nodes
        ds = dataio.from_arrays(np.arange(8.0).reshape(4, 2) * [1, 3], [0, 0, 1, 1])
        assert not (ds.split == VAL).any()
        with pytest.raises(SamplingError, match="empty val split; 320 slots"):
            build_batches(work_split(ds), seed=0)
        with pytest.raises(SamplingError, match="empty val split"):
            run_variant(ds, tiny_config("G-2"))


class TestGammaGrid:
    def test_separated_clusters_tie_break_smallest(self):
        rng = np.random.default_rng(4)
        emb = np.vstack([rng.normal(-10, 0.1, (30, 2)), rng.normal(10, 0.1, (30, 2))])
        labels = np.concatenate([-np.ones(30), np.ones(30)])
        train_pos = np.arange(0, 60, 2)
        val_pos = np.arange(1, 60, 2)
        picked = grid_search_gamma(emb, train_pos, labels[train_pos], val_pos, labels[val_pos])
        # every budget reaches perfect accuracy; brute-force confirms and the
        # tie breaks to the smallest of GAMMA_CANDIDATES
        d = ((emb[val_pos][:, None] - emb[train_pos][None]) ** 2).sum(axis=2)
        nn2 = np.argsort(d, axis=1)[:, :2]
        assert (np.sign(labels[train_pos][nn2].sum(axis=1)) == labels[val_pos]).all()
        assert picked == 2

    def test_budgets_past_the_train_count_tie_at_the_smallest(self):
        # two train nodes: every budget votes with both, so every accuracy ties
        emb = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([1.0, 1.0, -1.0, -1.0])
        assert grid_search_gamma(emb, np.array([0, 2]), labels[[0, 2]],
                                 np.array([1, 3]), labels[[1, 3]]) == GAMMA_CANDIDATES[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_a_per_budget_vote_loop(self, seed):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(90, 3))
        labels = np.where(rng.random(90) < 0.5, 1.0, -1.0)
        train_pos, val_pos = np.arange(60), np.arange(60, 90)
        d = ((emb[val_pos][:, None] - emb[train_pos][None]) ** 2).sum(axis=2)
        ranked = np.argsort(d, axis=1, kind="stable")
        best, best_acc, seen = None, -1.0, set()
        for gamma in GAMMA_CANDIDATES:
            votes = labels[train_pos][ranked[:, :gamma]].sum(axis=1)
            acc = np.mean(np.where(votes >= 0, 1.0, -1.0) == labels[val_pos])
            seen.add(acc)
            if acc > best_acc:
                best, best_acc = gamma, acc
        assert len(seen) > 1  # the budgets differ, so a wrong pick shows
        assert grid_search_gamma(emb, train_pos, labels[train_pos], val_pos,
                                 labels[val_pos]) == best

    @pytest.mark.parametrize("train_pos, val_pos", [([], [1]), ([0], [])])
    def test_empty_positions_rejected(self, train_pos, val_pos):
        train_pos, val_pos = np.array(train_pos, dtype=int), np.array(val_pos, dtype=int)
        with pytest.raises(SamplingError, match="gamma search"):
            grid_search_gamma(np.zeros((2, 1)), train_pos, np.ones(train_pos.size),
                              val_pos, np.ones(val_pos.size))


class TestUnetInputs:
    def test_shape_and_encoding(self):
        feats = np.zeros((3, 5))
        y = np.array([0.5, -0.3, 0.0])
        emb = np.arange(3.0)[:, None]
        g = knn_edges(emb, 2)
        out = unet_inputs(feats, y, kernel_graph(g, emb, 1.0), k=2)
        assert out.shape == (3, 5 + 2 + 4)
        np.testing.assert_allclose(out[0, 5:7], [0.5, 0.0])
        np.testing.assert_allclose(out[1, 5:7], [0.0, -0.3])
        np.testing.assert_allclose(out[2, 5:7], [0.0, 0.0])

    def test_padding_repeats_nearest(self, caplog):
        feats = np.zeros((2, 1))
        y = np.array([1.0, -1.0])
        emb = np.array([[0.0], [1.0]])
        g = knn_edges(emb, 1)
        with caplog.at_level("INFO"):
            out = unet_inputs(feats, y, kernel_graph(g, emb, 1.0), k=3)
        assert "padded" in caplog.text
        # node 0's single neighbor (node 1) is repeated across all three slots
        np.testing.assert_allclose(out[0, 3:5], out[0, 5:7])
        np.testing.assert_allclose(out[0, 5:7], out[0, 7:9])

    @pytest.mark.parametrize("k", [3, 6])
    def test_neighbor_lists_match_loop_oracle(self, k, caplog):
        rng = np.random.default_rng(31)
        n = 12
        emb = rng.normal(size=(n, 2))
        w = dense(kernel_graph(knn_edges(emb, 2), emb, 1.0))
        w[1, 2] = w[2, 1] = w[1, 3] = w[3, 1] = 0.5  # a tie, broken by column
        w[0, :] = w[:, 0] = 0.0  # node 0 isolated
        counts = (w != 0).sum(axis=1)
        assert counts[0] == 0 and ((counts > 0) & (counts < k)).any()
        feats = rng.normal(size=(n, 3))
        y = rng.uniform(-1, 1, n)  # distinct values: each encoding names its node
        oracle = loop_neighbor_ids(w, k)
        rows, cols = np.nonzero(w)
        g = Graph(rows, cols, w[rows, cols], np.full(n, 2))
        with caplog.at_level("INFO"):
            out = unet_inputs(feats, y, g, k)
        enc = out[:, 3:5]
        np.testing.assert_array_equal(out[:, :3], feats)
        np.testing.assert_array_equal(out[:, 5:].reshape(n, k, 2), enc[oracle] - enc[:, None])
        assert f"padded neighbor lists for {int((counts < k).sum())} nodes" in caplog.text


@pytest.fixture(scope="module")
def trained_full(blobs):
    cfg = tiny_config("G-12312", seed=7)
    return run_variant(blobs, cfg), cfg


@pytest.fixture(scope="module")
def trained_g12(blobs):
    cfg = tiny_config("G-12", seed=7)
    return run_variant(blobs, cfg), cfg


class TestRunVariant:
    def test_full_chain_records_three_iterations(self, trained_full):
        state, _ = trained_full
        assert len(state.stages) == 3
        assert set(state.nets) == {"embed", "weight1", "update", "weight2"}

    def test_exactly_two_denoising_passes_in_full_chain(self, trained_full):
        state, _ = trained_full
        # stage 0 records the raw signal; stages 1 and 2 are denoised outputs
        assert not np.array_equal(state.stages[1].y, state.stages[0].y)
        assert not np.array_equal(state.stages[2].y, state.stages[1].y)

    def test_initial_signal_matches_noisy_train_labels(self, trained_full, blobs):
        state, _ = trained_full
        split_work = blobs.split[state.work_ids]
        y0 = state.stages[0].y
        train_sel = split_work == TRAIN
        assert np.array_equal(y0[train_sel],
                              blobs.noisy_labels[state.work_ids][train_sel])
        assert (y0[split_work == VAL] == 0).all()

    def test_stage_isolation_g2_vs_g12(self, blobs):
        a = run_variant(blobs, tiny_config("G-2", seed=9))
        b = run_variant(blobs, tiny_config("G-12", seed=9))
        assert a.gamma0 == b.gamma0
        assert (a.stages[0].graph.edges != b.stages[0].graph.edges).nnz == 0
        for pa, pb in zip(a.nets["embed"].parameters(), b.nets["embed"].parameters(),
                          strict=True):
            np.testing.assert_array_equal(pa, pb)

    def test_g1232_second_pass_on_unweighted_updated_graph(self, blobs):
        state = run_variant(blobs, tiny_config("G-1232", seed=21))
        assert set(state.nets) == {"embed", "weight1", "update"}
        assert len(state.stages) == 3
        # the updated graph enters the second pass unweighted, with budgets
        # recounted from the edges that survived the first pass
        rec1, rec2 = state.stages[1], state.stages[2]
        assert (rec2.graph.weights == 1.0).all()
        budgets = surviving_edge_budgets(rec1.graph, rec1.y, pipeline.BETA)
        assert np.array_equal(rec2.graph.gamma, budgets)
        pred = predict(state, blobs.indices(TEST)[:20], state.config)
        assert set(np.unique(pred)) <= {-1, 1}

    def test_g2_skips_weighting_nets(self, blobs):
        state = run_variant(blobs, tiny_config("G-2", seed=11))
        assert set(state.nets) == {"embed"}
        assert len(state.stages) == 2
        # unweighted: every stored weight is exactly 1
        assert (state.stages[1].graph.weights == 1.0).all()

    def test_clean_run_flags_few_unreliable_train_nodes(self, blobs):
        # 0% injected noise: under the default threshold the denoised signal
        # moves almost every train label by less than eps1
        cfg = tiny_config("G-12", seed=13)
        state = run_variant(blobs, cfg)
        split_work = blobs.split[state.work_ids]
        phi = node_phi(state.stages[0].y, state.stages[1].y, pipeline.EPS1)
        phi_train = phi[split_work == TRAIN]
        assert (phi_train == 0).mean() < 0.10

    def test_dml_knn_trains_embed_only(self, blobs):
        state = run_variant(blobs, tiny_config("DML-KNN", seed=5))
        assert set(state.nets) == {"embed"}
        assert len(state.stages) == 1  # the KNN step's record marks it trained

    def test_stage_losses_recorded_per_epoch(self, trained_full):
        state, cfg = trained_full
        assert set(state.stage_losses) == {"embed", "weight1", "update", "weight2"}
        for stage, losses in state.stage_losses.items():
            assert len(losses) == cfg.net_config(stage).epochs
            assert all(np.isfinite(v) and v >= 0 for v in losses)

    def test_non_finite_loss_names_stage(self, blobs, monkeypatch):
        def nan_loss(net, x, triplets, margin, attention, forward=None):
            return float("nan"), [np.zeros_like(p) for p in net.parameters()]

        monkeypatch.setattr(pipeline, "triplet_loss_W", nan_loss)
        with pytest.raises(TrainingError, match="weight1: non-finite loss at epoch 0, batch 0$"):
            run_variant(blobs, tiny_config("G-12", seed=7))


def logged(caplog, template):
    """The arguments of each dynglr.pipeline record with the given message template."""
    return [r.args for r in caplog.records if r.name == "dynglr.pipeline" and r.msg == template]


class TestStageTraining:
    """The skip paths every stage's training shares: a skipped batch is logged
    by the templates perfbench counts, takes no step, and an epoch whose
    batches were all skipped records a 0.0 loss."""

    def test_single_class_signal_skips_every_batch(self, blobs, caplog):
        ds = dataclasses.replace(blobs, noisy_labels=np.ones(blobs.n_nodes))
        cfg = tiny_config("G-2", seed=3)
        state = PipelineState.fresh(ds, cfg)
        inputs = ds.features[state.work_ids]
        untrained = MetricNet(inputs.shape[1], cfg.net_config("embed"))
        with caplog.at_level("INFO", logger="dynglr.pipeline"):
            net = pipeline.run_stage_gnet(state, inputs)
        epochs = cfg.net_config("embed").epochs
        assert logged(caplog, "%s: single-class batch skipped (epoch %d)") == [
            ("embed", e) for e in range(epochs) for _ in range(pipeline.GRAPHS_PER_EPOCH)]
        assert state.stage_losses["embed"] == [0.0] * epochs
        assert state.nets["embed"] is net
        for got, init in zip(net.parameters(), untrained.parameters(), strict=True):
            assert np.array_equal(got, init)

    def test_weighting_batch_without_opposite_edges_skipped(self, blobs, caplog):
        cfg = tiny_config("G-12", seed=3)
        state = PipelineState.fresh(blobs, cfg)
        y_prev = blobs.noisy_labels[state.work_ids]
        # the classes 100 apart and one neighbor each: every edge joins one class
        emb = 100.0 * y_prev[:, None] + np.random.default_rng(3).normal(size=(y_prev.size, 2))
        gamma = np.ones(y_prev.size, dtype=np.int64)
        with caplog.at_level("INFO", logger="dynglr.pipeline"):
            pipeline.run_stage_wnet(state, 1, blobs.features[state.work_ids], emb, gamma, y_prev)
        epochs = cfg.net_config("weight1").epochs
        assert logged(caplog, "%s: batch without both edge classes skipped (epoch %d)") == [
            ("weight1", e) for e in range(epochs) for _ in range(pipeline.GRAPHS_PER_EPOCH)]
        assert not logged(caplog, "%s: single-class batch skipped (epoch %d)")
        assert state.stage_losses["weight1"] == [0.0] * epochs


class TestChain:
    @pytest.mark.parametrize("chain", ["G-2", "G-12", "G-1232", "G-12312"])
    def test_replay_reproduces_training_records(self, blobs, chain):
        cfg = tiny_config(chain, seed=23)
        state = run_variant(blobs, cfg)
        replayed = run_chain(state, chain, blobs.features[state.work_ids],
                             state.work_signal0)
        assert len(replayed) == len(state.stages)
        for r, rec in enumerate(replayed):
            assert np.array_equal(rec.y, state.stages[r].y)
            assert (rec.graph.edges != state.stages[r].graph.edges).nnz == 0
            assert np.array_equal(rec.graph.weights, state.stages[r].graph.weights)
            assert np.array_equal(rec.graph.gamma, state.stages[r].graph.gamma)

    def test_frozen_chain_rejects_missing_net(self, trained_g12, blobs):
        state, cfg = trained_g12
        with pytest.raises(UsageError, match="update"):
            run_chain(state, "G-1232", blobs.features[state.work_ids],
                      state.work_signal0)


class TestPredict:
    def test_zero_total_signal_predicts_plus_one(self, monkeypatch):
        """A graph chain labels +1 where the signal summed over the reference
        sets is >= 0, exact zeros of either sign and a cancelling pair
        included, and -1 below it."""
        cfg = tiny_config("G-12s")
        state = PipelineState(cfg, dataset=None, work_ids=None, stages=[None])
        signals = iter([np.array([0.0, -0.0, 0.25, 1e-300, -1e-300, -0.5]),
                        np.array([0.0, -0.0, -0.25, 0.0, 0.0, 0.25])])
        monkeypatch.setattr(pipeline, "_reference_sets", lambda *a: [None, None])
        monkeypatch.setattr(pipeline, "_transduce", lambda *a: next(signals))
        pred = predict(state, np.arange(6), cfg)
        assert pred.dtype == np.int8
        assert pred.tolist() == [1, 1, 1, 1, -1, -1]

    def test_predictions_are_signs(self, trained_full, blobs):
        state, cfg = trained_full
        test_idx = blobs.indices(TEST)[:40]
        pred = predict(state, test_idx, cfg)
        assert set(np.unique(pred)) <= {-1, 1}
        assert pred.size == 40

    def test_easy_blobs_better_than_chance(self, trained_full, blobs):
        state, cfg = trained_full
        test_idx = blobs.indices(TEST)
        pred = predict(state, test_idx, cfg)
        acc = np.mean(pred == blobs.clean_labels[test_idx])
        assert acc > 0.9

    def test_all_positive_references_predict_positive(self, trained_g12, blobs,
                                                      monkeypatch):
        state, cfg = trained_g12
        refs = blobs.indices(TRAIN)[blobs.clean_labels[blobs.indices(TRAIN)] > 0][:80]
        monkeypatch.setattr(pipeline, "_reference_sets", lambda *a, **k: [refs])
        pred = predict(state, blobs.indices(TEST)[:30], cfg)
        assert (pred == 1).all()

    def test_duplicate_of_training_node_follows_it(self, blobs, monkeypatch):
        state = run_variant(blobs, tiny_config("G-12", seed=15))
        cfg = state.config
        train_idx = blobs.indices(TRAIN)
        anchor = train_idx[blobs.clean_labels[train_idx] > 0][0]
        # graft a test node whose features duplicate a +1 training node
        feats = blobs.features.copy()
        test_node = blobs.indices(TEST)[0]
        feats[test_node] = feats[anchor]
        ds2 = dataio.Dataset(features=feats, clean_labels=blobs.clean_labels,
                             noisy_labels=blobs.noisy_labels, split=blobs.split)
        state.dataset = ds2
        refs = np.concatenate([[anchor], train_idx[train_idx != anchor][:79]])
        monkeypatch.setattr(pipeline, "_reference_sets", lambda *a, **k: [refs])
        pred = predict(state, np.array([test_node]), cfg)
        assert pred[0] == 1

    def test_averaging_identical_reference_sets_is_identity(self, trained_g12, blobs,
                                                            monkeypatch):
        state, cfg = trained_g12
        rng = np.random.default_rng(17)
        refs = rng.choice(blobs.indices(TRAIN), 80, replace=False)
        test_idx = blobs.indices(TEST)[:25]
        monkeypatch.setattr(pipeline, "_reference_sets", lambda *a, **k: [refs])
        single = predict(state, test_idx, cfg)
        monkeypatch.setattr(pipeline, "_reference_sets", lambda *a, **k: [refs] * 6)
        six = predict(state, test_idx, cfg)
        assert np.array_equal(single, six)

    def test_stacked_transduction_equals_per_chunk_chain(self, trained_full, blobs,
                                                         monkeypatch):
        """Every target gets the signal of its own chunk's chain, bit for bit,
        when the chunks run as blocks of one stack; the short last chunk is a
        stack of its own."""
        state, cfg = trained_full
        refs = np.random.default_rng(23).choice(blobs.indices(TRAIN), 30, replace=False)
        targets = blobs.indices(TEST)[:67]
        assert targets.size == 67  # three chunks of 20, then one of 7
        stacks = []
        run_chain = pipeline.run_chain
        monkeypatch.setattr(pipeline, "run_chain",
                            lambda *a, **k: stacks.append(k["layout"].shape) or run_chain(*a, **k))
        signal = pipeline._transduce(state, "G-12312", refs, targets)
        assert stacks == [(3, 50), (1, 37)]
        for start in range(0, targets.size, pipeline.UNLABELED_PER_GRAPH):
            chunk = slice(start, start + pipeline.UNLABELED_PER_GRAPH)
            nodes = np.concatenate([refs, targets[chunk]])
            y0 = np.concatenate([blobs.noisy_labels[refs], np.zeros(nodes.size - refs.size)])
            final = run_chain(state, "G-12312", blobs.features[nodes], y0)[-1]
            assert signal[chunk].tobytes() == final.y[refs.size:].tobytes(), start

    def test_untrained_state_rejected(self, blobs):
        cfg = tiny_config()
        state = PipelineState.fresh(blobs, cfg)
        with pytest.raises(UsageError):
            predict(state, blobs.indices(TEST)[:5], cfg)

    def test_sampling_variant_predicts(self, blobs):
        cfg = tiny_config("G-12s", seed=19)
        state = run_variant(blobs, cfg)
        pred = predict(state, blobs.indices(TEST)[:30], cfg)
        assert set(np.unique(pred)) <= {-1, 1}

    @pytest.mark.parametrize("variant", ["DML-KNN", "DML-KNN-s"])
    def test_dml_knn_matches_brute_force_vote(self, blobs, variant):
        cfg = tiny_config(variant, seed=5, rank_sample_k=60)
        state = run_variant(blobs, cfg)
        test_idx = blobs.indices(TEST)
        ref_sets = pipeline._reference_sets(state, cfg, "DML-KNN", variant.endswith("s"))
        if variant == "DML-KNN":
            assert len(ref_sets) == 1 and np.array_equal(ref_sets[0], blobs.indices(TRAIN))
        net = state.nets["embed"]
        emb_test = net.forward_batch(blobs.features[test_idx])[0]
        votes = np.zeros(test_idx.size)
        for refs in ref_sets:
            emb_refs = net.forward_batch(blobs.features[refs])[0]
            votes += np.sign(knn_vote_oracle(emb_refs, blobs.noisy_labels[refs], emb_test,
                                             state.gamma0))
        pred = predict(state, test_idx, cfg)
        assert np.array_equal(pred, np.where(votes >= 0, 1, -1))

    def test_dml_knn_predicts_well_on_blobs(self, blobs):
        cfg = tiny_config("DML-KNN", seed=5)
        state = run_variant(blobs, cfg)
        test_idx = blobs.indices(TEST)
        pred = predict(state, test_idx, cfg)
        assert np.mean(pred == blobs.clean_labels[test_idx]) > 0.9


class TestRankSampling:
    def test_ordinal_rank_top_k_example(self):
        scores = np.array([0.9, 0.5, 0.7])
        ranks = _ordinal_rank(-scores)  # higher score -> smaller rank
        top2 = np.argsort(ranks, kind="stable")[:2]
        assert set(top2) == {0, 2}

    def test_clamp_rule(self, blobs, trained_g12):
        state, cfg = trained_g12
        # train size 120: k > M -> largest multiple of 6 at or below 72
        selected = rank_sampling(state, dataclasses.replace(cfg, rank_sample_k=504))
        assert selected.size == 72

    def test_returns_sorted_train_subset(self, blobs, trained_g12):
        state, cfg = trained_g12
        selected = rank_sampling(state, dataclasses.replace(cfg, rank_sample_k=48))
        assert selected.size == 48
        assert np.array_equal(selected, np.sort(selected))
        assert np.isin(selected, blobs.indices(TRAIN)).all()

    def test_clamp_to_zero_raises(self, blobs, trained_g12):
        state, _ = trained_g12
        # 120 train nodes: 0.6 * 120 = 72 holds no batch of 80 references
        cfg = tiny_config("G-12s", seed=7, rank_sample_k=160, rank_sample_batches=80)
        with pytest.raises(SamplingError, match="fewer than"):
            rank_sampling(state, cfg)

    def test_empty_reference_batch_raises(self):
        # each class is dealt from batch 0, so one node of each fills only batch 0
        rng = substream(0, "test")
        with pytest.raises(SamplingError, match=r"keeps k=2 train nodes \(1 positive, 1 "
                           r"negative\), so reference batch 1 of batches 0-1 would be empty"):
            pipeline._stratified_batches(np.array([3, 8]), np.array([1.0, -1.0]), 2, rng)
        batches = pipeline._stratified_batches(np.array([3, 5, 8]), np.array([1.0, 1.0, -1.0]),
                                               2, rng)
        assert [b.size for b in batches] == [2, 1]

    def test_deterministic(self, blobs, trained_g12):
        state, cfg = trained_g12
        cfg = dataclasses.replace(cfg, rank_sample_k=24)
        a = rank_sampling(state, cfg)
        b = rank_sampling(state, cfg)
        assert np.array_equal(a, b)


class TestPersistence:
    def test_state_roundtrip_preserves_predictions(self, trained_full, blobs,
                                                   tmp_path):
        state, cfg = trained_full
        test_idx = blobs.indices(TEST)[:30]
        before = predict(state, test_idx, cfg)
        save_state(state, tmp_path / "run")
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "manifest.json", "net_embed.npz", "net_update.npz", "net_weight1.npz",
            "net_weight2.npz"]
        reloaded = load_state(tmp_path / "run", blobs, cfg)
        after = predict(reloaded, test_idx, cfg)
        assert np.array_equal(before, after)
        for r, rec in enumerate(state.stages):
            assert np.array_equal(reloaded.stages[r].y, rec.y)
        # older run directories also stored the chain name beside the variant
        meta_path = tmp_path / "run" / "manifest.json"
        meta = json.loads(meta_path.read_text())
        assert "trained_chain" not in meta
        meta_path.write_text(json.dumps({**meta, "trained_chain": "G-12312"}))
        older = load_state(tmp_path / "run", blobs, cfg)
        assert np.array_equal(predict(older, test_idx, cfg), before)
        assert len(older.stages) == len(state.stages)

    def test_run_manifest_written(self, trained_full, blobs, tmp_path):
        state, cfg = trained_full
        manifest = dataio.dataset_manifest(blobs, seed=0)
        save_state(state, tmp_path, extra={"dataset": manifest, "test_error_rate": 1.0})
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["variant"] == cfg.variant
        assert payload["thresholds"]["eps1"] == pipeline.EPS1
        assert payload["gamma0"] == state.gamma0
        assert payload["dataset"] == manifest and payload["test_error_rate"] == 1.0


class TestConfig:
    def test_settable_fields_pinned(self):
        # a new knob needs a deliberate edit here; the method's fixed values
        # are module constants
        assert tuple(f.name for f in dataclasses.fields(PipelineConfig)) == (
            "variant", "rank_sample_k", "rank_sample_batches", "rank_coverage", "arch",
            "seed")

    def test_run_manifest_payload_pinned(self, tmp_path):
        # save_state reads only the config and the neighbor budget of a state without nets
        cfg = PipelineConfig.for_dataset("spambase")
        save_state(PipelineState(cfg, dataset=None, work_ids=None, gamma0=6), tmp_path,
                   extra={"dataset": {"id": "ds"}})
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        expected = {
            "batching": {"graphs_per_epoch": 16, "labeled_per_graph": 80,
                         "unlabeled_per_graph": 20},
            "dataset": {"id": "ds"},
            "embedding_dim": 16,
            "gamma0": 6,
            "gamma_candidates": [2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
            "glr": {"kappa": 60.0, "mu_fraction": 0.67, "solver_tol": 1e-10},
            "margins": {"triplet": 10.0, "weighted": 10.0},
            "numpy": {"version": np.__version__, "blas": f"{blas['name']} {blas['version']}"},
            "rank_sampling": {"batches": 6, "k": 480},
            "seed": 0,
            "thresholds": {"beta": 0.1, "eps1": 0.6, "eps2": 0.15},
            "variant": "G-12312",
        }
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        assert (tmp_path / "manifest.json").read_text() == (
            json.dumps(expected, indent=2, sort_keys=True) + "\n")

    def test_rank_batch_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            PipelineConfig(rank_sample_k=50, rank_sample_batches=6)

    def test_presets_cover_known_datasets(self):
        for name in ("phoneme", "magic", "spambase"):
            cfg = PipelineConfig.for_dataset(name)
            assert cfg.arch.metric_hidden
            for stage in ("embed", "weight1", "update", "weight2"):
                assert cfg.net_config(stage).epochs >= 1
