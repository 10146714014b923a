"""The distance product and the selections that read it slice by slice.

pairwise_sq_dists takes one product per 512 rows and finishes it in place,
a slice at a time, and directed_knn, the gamma search and the DML-KNN vote
select from each slice as it is finished. These tests hold the result to the
whole-matrix code it replaced, run on the same 512-row chunks and kept here
as the oracle, bit for bit: BLAS gives an entry other bits when the
product's row count changes, so a product split the wrong way shows as a
changed byte. They also bound the memory a selection holds.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import blob_dataset, tiny_config, visited_sq_dists
from dynglr import graphs, pipeline
from dynglr.dataio import TEST, TRAIN
from dynglr.graphs import directed_knn, nearest, nearest_rows
from dynglr.metricnet import MetricNet
from dynglr.pipeline import PipelineState, grid_search_gamma


def whole_sq_dists(a, b):
    """The one-expression distances: aa + bb - 2 ab as whole arrays, floored at 0."""
    aa = (a * a).sum(axis=-1)[..., :, None]
    bb = (b * b).sum(axis=-1)[..., None, :]
    d = aa + bb - 2.0 * (a @ b.swapaxes(-1, -2))
    np.maximum(d, 0.0, out=d)
    return d


def chunked_sq_dists(a, b):
    """whole_sq_dists of each 512-row chunk of the (C, m, f) stack a, joined."""
    return np.concatenate([whole_sq_dists(a[:, s:s + 512], b)
                           for s in range(0, a.shape[1], 512)], axis=1)


def whole_directed_knn(embeddings, gamma, blocks=1):
    """directed_knn as it selected from whole 512-row chunks of whole_sq_dists."""
    n = embeddings.shape[0]
    b = n // blocks
    gamma = np.minimum(np.full(n, gamma, dtype=np.int64), b - 1).reshape(blocks, b)
    stacked = embeddings.reshape(blocks, b, -1)
    keys = []
    for start in range(0, b, 512):
        stop = min(start + 512, b)
        m = stop - start
        d = whole_sq_dists(stacked[:, start:stop], stacked)
        d[:, np.arange(m), np.arange(start, stop)] = np.inf
        d = d.reshape(blocks * m, b)
        budget = gamma[:, start:stop].ravel()
        kmax = int(budget.max())
        bound = np.partition(d, kmax - 1, axis=1)[:, :kmax]
        if budget.min() < kmax:
            bound.sort(axis=1)
        bound = bound[np.arange(d.shape[0]), budget - 1]
        flat = np.flatnonzero(~(d > bound[:, None]))
        over = np.flatnonzero(np.bincount(flat // b, minlength=d.shape[0]) > budget)
        if over.size:
            ranked = nearest(d[over], int(budget[over].max()))
            chosen = np.arange(ranked.shape[1]) < budget[over][:, None]
            flat = np.sort(np.concatenate([flat[~np.isin(flat // b, over)],
                                           np.repeat(over * b, budget[over]) + ranked[chosen]]))
        if blocks > 1:
            flat = flat + flat // b * (n - b) + flat // (b * b) * b
        keys.append(flat + start * n)
    return np.concatenate(keys)


def embedding_with_ties(n, dim, seed):
    """Gaussian rows, every seventh a copy of an earlier one, so that
    distances tie, and per-node budgets of 1 to 29."""
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(n, dim))
    copies = np.arange(7, n, 7)
    emb[copies] = emb[rng.integers(0, 7, copies.size)]
    return emb, rng.integers(1, 30, n)


def same_bytes(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestOracle:
    def test_working_set_equals_whole_matrix_code(self):
        """A 2,759 x 16 working set: six 512-row chunks, each finished and
        selected in slices of 23 rows."""
        emb, gamma = embedding_with_ties(2759, 16, seed=0)
        assert same_bytes(visited_sq_dists(emb[None], emb[None]),
                          chunked_sq_dists(emb[None], emb[None]))
        assert same_bytes(directed_knn(emb, gamma), whole_directed_knn(emb, gamma))

    def test_stack_equals_whole_matrix_code(self):
        """Ten 100-node blocks, two slices of whole blocks."""
        emb, gamma = embedding_with_ties(1000, 16, seed=1)
        stacked = emb.reshape(10, 100, 16)
        assert same_bytes(visited_sq_dists(stacked, stacked), whole_sq_dists(stacked, stacked))
        assert same_bytes(directed_knn(emb, gamma, 10), whole_directed_knn(emb, gamma, 10))

    def test_stack_in_slices_of_whole_blocks(self, monkeypatch):
        """Slices of one block and of two, the last one short."""
        emb, gamma = embedding_with_ties(700, 4, seed=2)
        expected = whole_directed_knn(emb, gamma, 7)
        for entries in (10_000, 25_000):
            monkeypatch.setattr(graphs, "_SLICE_ENTRIES", entries)
            assert same_bytes(directed_knn(emb, gamma, 7), expected)

    def test_gamma_search_product_equals_whole_matrix_code(self):
        emb, _ = embedding_with_ties(2759, 16, seed=3)
        val, train = emb[::5], np.delete(emb, np.s_[::5], axis=0)
        assert same_bytes(visited_sq_dists(val[None], train[None]),
                          chunked_sq_dists(val[None], train[None]))


class TestSlicedNearest:
    @pytest.mark.parametrize("entries", [1, 700, 2**16])
    def test_equals_nearest_of_whole_matrix(self, monkeypatch, entries):
        """Slices of one row, of several rows with a short last one, and one slice."""
        monkeypatch.setattr(graphs, "_SLICE_ENTRIES", entries)
        emb, _ = embedding_with_ties(300, 3, seed=4)
        a, b = emb[:130], emb[130:]
        for k in (1, 7, 170, 400):
            assert same_bytes(nearest_rows(a, b, k), nearest(whole_sq_dists(a, b), k))

    def test_gamma_search_equals_whole_matrix_vote(self, monkeypatch):
        monkeypatch.setattr(graphs, "_SLICE_ENTRIES", 500)
        emb, _ = embedding_with_ties(600, 2, seed=5)
        labels = np.where(emb[:, 0] + 0.5 * np.sin(3 * emb[:, 1]) > 0, 1.0, -1.0)
        labels[::11] *= -1
        train_pos = np.arange(0, 600, 3)
        val_pos = np.setdiff1d(np.arange(600), train_pos)
        candidates = range(1, 60)
        order = nearest(whole_sq_dists(emb[val_pos], emb[train_pos]), max(candidates))
        acc = [np.mean(np.where(labels[train_pos][order[:, :g]].sum(axis=1) >= 0, 1.0, -1.0)
                       == labels[val_pos]) for g in candidates]
        expected = candidates[int(np.argmax(acc))]
        assert grid_search_gamma(emb, train_pos, labels[train_pos], val_pos,
                                 labels[val_pos], candidates) == expected
        assert len(set(acc)) > 5  # the vote depends on the order, so a wrong row shows

    def test_dml_knn_vote_equals_whole_matrix_vote(self, monkeypatch):
        monkeypatch.setattr(graphs, "_SLICE_ENTRIES", 900)
        ds = blob_dataset(n=600, seed=6, noise_rate=0.3)
        cfg = tiny_config("DML-KNN", seed=6)
        state = PipelineState.fresh(ds, cfg)
        net = MetricNet(ds.features.shape[1], cfg.net_config("embed"))
        state.nets["embed"], state.gamma0 = net, 9
        refs, targets = ds.indices(TRAIN), ds.indices(TEST)
        emb_refs = net.forward_batch(ds.features[refs])[0]
        emb_targets = net.forward_batch(ds.features[targets])[0]
        nn = nearest(whole_sq_dists(emb_targets, emb_refs), 9)
        signal, neighbor_sum = pipeline._transduce(state, "DML-KNN", refs, targets)
        assert same_bytes(signal, np.sign(ds.noisy_labels[refs][nn].sum(axis=1)))
        assert not neighbor_sum.any()


def traced_peak(fn, *args):
    """Largest traced allocation above the start while fn(*args) runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """A selection holds its one product and slice-sized temporaries."""

    def test_working_set_knn_holds_one_chunk(self):
        emb, gamma = embedding_with_ties(3000, 16, seed=7)
        product = graphs._DIST_CHUNK * 3000 * 8
        assert traced_peak(directed_knn, emb, gamma) < 1.3 * product

    def test_gamma_search_holds_its_product(self):
        emb, _ = embedding_with_ties(3500, 16, seed=8)
        labels = np.where(emb[:, 0] > 0, 1.0, -1.0)
        train_pos, val_pos = np.arange(2000), np.arange(2000, 3500)
        product = 1500 * 2000 * 8
        peak = traced_peak(grid_search_gamma, emb, train_pos, labels[train_pos], val_pos,
                           labels[val_pos], range(1, 41))
        assert peak < 1.3 * product

    def test_gamma_search_holds_one_chunk(self):
        """1,500 val rows against 2,000 train rows: three 512-row products, one at a time."""
        emb, _ = embedding_with_ties(3500, 16, seed=8)
        labels = np.where(emb[:, 0] > 0, 1.0, -1.0)
        train_pos, val_pos = np.arange(2000), np.arange(2000, 3500)
        product = graphs._DIST_CHUNK * 2000 * 8
        peak = traced_peak(grid_search_gamma, emb, train_pos, labels[train_pos], val_pos,
                           labels[val_pos], range(1, 41))
        assert peak < 1.3 * product

    def test_dml_knn_vote_holds_one_chunk(self):
        """2,000 test targets voted by 2,000 train references, 512 targets at a time."""
        ds = blob_dataset(n=5000, seed=9)
        cfg = tiny_config("DML-KNN", seed=9)
        state = PipelineState.fresh(ds, cfg)
        state.nets["embed"], state.gamma0 = MetricNet(ds.features.shape[1], cfg.net_config("embed")), 9
        refs, targets = ds.indices(TRAIN), ds.indices(TEST)
        assert refs.size == targets.size == 2000
        product = graphs._DIST_CHUNK * refs.size * 8
        assert traced_peak(pipeline._transduce, state, "DML-KNN", refs, targets) < 1.3 * product
