"""Staged training and transductive prediction.

The full chain trains four networks in sequence: an embedding net whose
metric space defines the initial KNN graph, a first weighting net that
assigns kernel weights for label denoising, an update net whose refined
embedding space rebuilds the graph with per-node budgets recounted from
edges that survived denoising, and a second weighting net for the final
denoising pass. Ablation variants stop the chain early:

    G-2      embedding net + denoise on the unweighted graph
    G-12     + learned edge weighting before denoising
    G-1232   + graph update, second denoise on the updated unweighted graph
    G-12312  + reweighting of the updated graph before the second denoise

A trailing "s" (e.g. "G-12s") switches prediction to rank-sampled reference
batches. "DML-KNN" trains the embedding net only and predicts by
nearest-neighbor vote, the natural baseline of the ablation ladder.

Each variant is one ordered list of steps (CHAIN_STEPS), and run_chain
applies it to any node set: to the train+val working set during training,
where each net is trained just before the step that first uses it, and
again when a saved run is reloaded; and to small reference graphs joined by
test nodes whose labels are set to 0, to classify them. Training batches
draw 80 labeled train nodes and 20 unlabeled validation nodes per graph, 16
graphs per epoch; test nodes never appear in training.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import dataio
from .dataio import TRAIN, VAL, Dataset
from .errors import ConfigError, SamplingError, UsageError
from .glr import GlrParams, denoise
from .graphs import (Graph, LaplacianSystem, assign_weights, auto_sigma,
                     build_laplacian, graph_update, knn_edges,
                     pairwise_sq_dists, partition_edges)
from .metricnet import (MetricNet, NetConfig, load_checkpoint, node_attention_matrix,
                        sample_triplets, save_checkpoint, train, triplet_loss_E,
                        triplet_loss_W)
from .seeds import substream, substream_seed

logger = logging.getLogger(__name__)

# "embed" builds the KNN graph in the embedding net's space, "weightN"
# reweights the current graph with net N's kernel, "update" rebuilds it in
# the update net's space with recounted budgets, and "denoise" runs one GLR
# pass over the current signal.
CHAIN_STEPS = {
    "DML-KNN": ("embed",),
    "G-2": ("embed", "denoise"),
    "G-12": ("embed", "weight1", "denoise"),
    "G-1232": ("embed", "weight1", "denoise", "update", "denoise"),
    "G-12312": ("embed", "weight1", "denoise", "update", "weight2", "denoise"),
}
VARIANT_LADDER = ("DML-KNN", "DML-KNN-s", "G-2", "G-12", "G-12s",
                  "G-1232", "G-12312", "G-12312s")


def parse_variant(variant: str) -> tuple[str, bool]:
    """Split a variant name into (chain, rank-sampling flag)."""
    sampling = variant.endswith("s") and variant not in CHAIN_STEPS
    chain = variant[:-1].removesuffix("-") if sampling else variant
    if chain not in CHAIN_STEPS:
        raise ConfigError(f"unknown variant {variant!r}; known: {VARIANT_LADDER}")
    return chain, sampling


@dataclass(frozen=True)
class ArchPreset:
    """Per-dataset widths and schedules; tuples are (lr_start, lr_end)."""

    metric_hidden: tuple
    update_hidden: tuple
    embed_lr: tuple = (0.02, 0.01)
    embed_epochs: int = 60
    weight1_lr: tuple = (0.02, 0.01)
    weight1_epochs: int = 80
    update_lr: tuple = (0.002, 0.001)
    update_epochs: int = 60
    weight2_lr: tuple = (0.01, 0.002)
    weight2_epochs: int = 40


PRESETS = {
    "phoneme": ArchPreset((256, 64), (256, 6), (0.02, 0.01), 160, (0.02, 0.01), 320,
                          (0.002, 0.001), 120, (0.01, 0.002), 60),
    "magic": ArchPreset((128, 32), (128, 4), (0.02, 0.01), 160, (0.02, 0.01), 320,
                        (0.002, 0.001), 180, (0.01, 0.002), 40),
    "spambase": ArchPreset((32, 32), (64, 6), (0.02, 0.01), 60, (0.02, 0.012), 80,
                           (0.002, 0.001), 100, (0.02, 0.01), 40),
    "default": ArchPreset((64, 32), (64, 8)),
}


@dataclass(frozen=True)
class PipelineConfig:
    variant: str = "G-12312"
    margin_e: float = 10.0
    margin_w: float = 10.0
    eps1: float = 0.6
    eps2: float = 0.15
    beta: float = 0.1
    glr: GlrParams = field(default_factory=GlrParams)
    graphs_per_epoch: int = 16
    labeled_per_graph: int = 80
    unlabeled_per_graph: int = 20
    triplets_per_graph: int = 80
    unet_neighbors: int = 6
    rank_sample_k: int = 480
    rank_sample_batches: int = 6
    rank_coverage: float = 3.0
    gamma_candidates: tuple = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
    embedding_dim: int = 16
    arch: ArchPreset = field(default_factory=lambda: PRESETS["default"])
    # the per-dataset schedules were published for convolutional stacks; the
    # dense stacks need smaller adaptive-moment steps or they memorize label
    # noise instead of the majority structure
    lr_scale: float = 0.03
    weight_decay: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        parse_variant(self.variant)
        if self.rank_sample_k % self.rank_sample_batches != 0:
            raise ConfigError("rank_sample_k must divide into rank_sample_batches")
        if self.labeled_per_graph + self.unlabeled_per_graph != 100:
            raise ConfigError("each batch graph must hold 100 nodes (80 labeled + 20 unlabeled)")

    @classmethod
    def for_dataset(cls, dataset_id: str, **overrides) -> "PipelineConfig":
        arch = overrides.pop("arch", PRESETS.get(dataset_id, PRESETS["default"]))
        return cls(arch=arch, **overrides)

    def net_config(self, stage: str) -> NetConfig:
        arch = self.arch
        seed = substream_seed(self.seed, "net", stage)
        common = dict(seed=seed, weight_decay=self.weight_decay)

        def lrs(pair):
            return self.lr_scale * pair[0], self.lr_scale * pair[1]

        if stage == "embed":
            return NetConfig(arch.metric_hidden, self.embedding_dim,
                             *lrs(arch.embed_lr), arch.embed_epochs, **common)
        if stage == "weight1":
            return NetConfig(arch.metric_hidden, self.embedding_dim,
                             *lrs(arch.weight1_lr), arch.weight1_epochs, **common)
        if stage == "update":
            return NetConfig(arch.update_hidden, self.embedding_dim,
                             *lrs(arch.update_lr), arch.update_epochs, **common)
        if stage == "weight2":
            hidden = arch.metric_hidden
            skip = len(hidden) - 1 if len(hidden) >= 2 else (1 if hidden else None)
            return NetConfig(hidden, self.embedding_dim,
                             *lrs(arch.weight2_lr), arch.weight2_epochs,
                             skip_to_layer=skip, **common)
        raise ConfigError(f"unknown stage {stage!r}")


# ---------------------------------------------------------------------------
# attention

def node_phi(y_prev: np.ndarray, y_cur: np.ndarray, eps: float) -> np.ndarray:
    """Per-node reliability: 1 where the denoising pass moved the value <= eps.

    Edge attention is the min of the endpoint flags (node_attention_matrix)."""
    return (np.abs(np.asarray(y_prev) - np.asarray(y_cur)) <= eps).astype(np.float64)


# ---------------------------------------------------------------------------
# batches

@dataclass(frozen=True)
class Batch:
    ids: np.ndarray
    labeled: np.ndarray


def build_batches(ds: Dataset, cfg: PipelineConfig, seed: int) -> list[Batch]:
    """16 batch graphs of 80 train + 20 val nodes, disjoint within the epoch.

    If a split cannot cover the epoch without reuse, nodes are drawn with
    replacement (logged once per call).
    """
    rng = substream(seed, "batches")
    pools = []
    for idx, per_graph in ((ds.indices(TRAIN), cfg.labeled_per_graph),
                           (ds.indices(VAL), cfg.unlabeled_per_graph)):
        need = cfg.graphs_per_epoch * per_graph
        if idx.size >= need:
            pool = rng.choice(idx, size=need, replace=False)
        else:
            logger.info("split of %d cannot fill %d slots; sampling with replacement",
                        idx.size, need)
            pool = rng.choice(idx, size=need, replace=True)
        pools.append(pool)
    batches = []
    for k in range(cfg.graphs_per_epoch):
        tr = pools[0][k * cfg.labeled_per_graph:(k + 1) * cfg.labeled_per_graph]
        va = pools[1][k * cfg.unlabeled_per_graph:(k + 1) * cfg.unlabeled_per_graph]
        ids = np.concatenate([tr, va])
        labeled = np.zeros(ids.size, dtype=bool)
        labeled[: tr.size] = True
        batches.append(Batch(ids=ids, labeled=labeled))
    return batches


def batch_signal(ds: Dataset, batch: Batch) -> np.ndarray:
    y = ds.noisy_labels[batch.ids].copy()
    y[~batch.labeled] = 0.0
    return y


# ---------------------------------------------------------------------------
# state

@dataclass
class StageRecord:
    """A graph of the chain, the signal on it, and the embeddings that last
    built or weighted it."""

    graph: Graph
    y: np.ndarray
    embeddings: np.ndarray | None = None
    _laplacian: LaplacianSystem | None = None

    @property
    def laplacian(self) -> LaplacianSystem:
        """Built on first use: most frozen-chain graphs are reweighted
        before any denoising pass needs their Laplacian."""
        if self._laplacian is None:
            self._laplacian = build_laplacian(self.graph)
        return self._laplacian


@dataclass
class PipelineState:
    config: PipelineConfig
    dataset: Dataset
    work_ids: np.ndarray
    work_pos: np.ndarray
    nets: dict = field(default_factory=dict)
    gamma0: int | None = None
    stages: dict = field(default_factory=dict)
    stage_losses: dict = field(default_factory=dict)
    trained_chain: str | None = None

    @classmethod
    def fresh(cls, ds: Dataset, cfg: PipelineConfig) -> "PipelineState":
        work_ids = np.flatnonzero(ds.split != dataio.TEST)
        work_pos = np.full(ds.n_nodes, -1, dtype=np.int64)
        work_pos[work_ids] = np.arange(work_ids.size)
        return cls(config=cfg, dataset=ds, work_ids=work_ids, work_pos=work_pos)

    def positions(self, node_ids: np.ndarray) -> np.ndarray:
        pos = self.work_pos[node_ids]
        if (pos < 0).any():
            raise UsageError("node outside the train/val working set")
        return pos

    @property
    def work_signal0(self) -> np.ndarray:
        """Initial signal: noisy train labels, 0 on validation nodes."""
        y = self.dataset.noisy_labels[self.work_ids].copy()
        y[self.dataset.split[self.work_ids] == VAL] = 0.0
        return y


# ---------------------------------------------------------------------------
# gamma grid search

def grid_search_gamma(embeddings: np.ndarray, train_pos: np.ndarray,
                      train_labels: np.ndarray, val_pos: np.ndarray,
                      val_labels: np.ndarray, candidates) -> int:
    """Neighbor budget maximizing KNN-vote accuracy on validation nodes.

    Train nodes vote with their (noisy) labels; accuracy is measured against
    the (noisy) validation labels. Ties prefer the smaller candidate.
    """
    candidates = sorted(int(c) for c in candidates)
    if not candidates:
        raise ConfigError("gamma candidate set is empty")
    d = pairwise_sq_dists(embeddings[val_pos], embeddings[train_pos])
    order = np.argsort(d, axis=1, kind="stable")
    best_gamma, best_acc = None, -1.0
    for gamma in candidates:
        nn = order[:, : min(gamma, train_pos.size)]
        votes = train_labels[nn].sum(axis=1)
        pred = np.where(votes >= 0, 1.0, -1.0)
        acc = float(np.mean(pred == np.sign(val_labels)))
        if acc > best_acc:
            best_gamma, best_acc = gamma, acc
    return best_gamma


# ---------------------------------------------------------------------------
# stage training

def _train_net(state: PipelineState, stage: str, net: MetricNet, loss_of_batch) -> None:
    """Fit net on fresh batch graphs each epoch and store it under stage."""
    cfg = state.config

    def batches(epoch):
        return build_batches(state.dataset, cfg, substream_seed(cfg.seed, stage, "epoch", epoch))

    state.stage_losses[stage] = train(net, batches, loss_of_batch, stage)
    state.nets[stage] = net


def _triplets_or_skip(labels: np.ndarray, cfg: PipelineConfig, stage: str, epoch: int,
                      b_idx: int):
    """The batch's triplets, or None (logged) when a class lacks members."""
    try:
        return sample_triplets(labels, cfg.triplets_per_graph,
                               substream_seed(cfg.seed, stage, "trip", epoch, b_idx))
    except SamplingError:
        logger.info("%s: single-class batch skipped (epoch %d)", stage, epoch)
        return None


def run_stage_gnet(state: PipelineState, inputs: np.ndarray) -> MetricNet:
    """Train the embedding net and grid-search the neighbor budget on its
    embedding of the working-set inputs."""
    cfg, ds = state.config, state.dataset
    net = MetricNet(inputs.shape[1], cfg.net_config("embed"))

    def loss_of_batch(batch, epoch, b_idx):
        trips = _triplets_or_skip(batch_signal(ds, batch), cfg, "embed", epoch, b_idx)
        if trips is None:
            return None
        return triplet_loss_E(net, ds.features[batch.ids], trips, cfg.margin_e)

    _train_net(state, "embed", net, loss_of_batch)
    emb_work, _ = net.forward_batch(inputs)
    split_work = ds.split[state.work_ids]
    labels_work = ds.noisy_labels[state.work_ids]
    train_pos = np.flatnonzero(split_work == TRAIN)
    val_pos = np.flatnonzero(split_work == VAL)
    state.gamma0 = grid_search_gamma(emb_work, train_pos, labels_work[train_pos], val_pos,
                                     labels_work[val_pos], cfg.gamma_candidates)
    return net


def run_stage_wnet(state: PipelineState, r: int, inputs: np.ndarray,
                   embeddings: np.ndarray, gamma: np.ndarray, y_prev: np.ndarray
                   ) -> MetricNet:
    """Train weighting net r on working-set batch graphs: KNN in the preceding
    net's space (embeddings, per-node budgets gamma), learned kernel weights,
    denoise of y_prev, attention from the signal change, one loss step."""
    cfg = state.config
    eps = cfg.eps1 if r == 1 else cfg.eps2
    stage = f"weight{r}"
    net = MetricNet(inputs.shape[1], cfg.net_config(stage))

    def loss_of_batch(batch, epoch, b_idx):
        pos = state.positions(batch.ids)
        x_in, y_b = inputs[pos], y_prev[pos]
        g_b = knn_edges(embeddings[pos], gamma[pos])
        part = partition_edges(g_b, y_b)
        if part.same.size == 0 or part.opposite.size == 0:
            logger.info("%s: batch without both edge classes skipped (epoch %d)", stage, epoch)
            return None
        emb_c, _ = net.forward_batch(x_in)
        lap = build_laplacian(assign_weights(g_b, emb_c, auto_sigma(emb_c, part)))
        att = node_attention_matrix(node_phi(y_b, denoise(lap, y_b, cfg.glr), eps))
        trips = _triplets_or_skip(y_b, cfg, stage, epoch, b_idx)
        if trips is None:
            return None
        return triplet_loss_W(net, x_in, trips, cfg.margin_w, att)

    _train_net(state, stage, net, loss_of_batch)
    return net


def unet_inputs(features: np.ndarray, y: np.ndarray, adjacency: sp.csr_matrix,
                k: int) -> np.ndarray:
    """Per-node update-net encoding: raw features, the two-slot label encoding
    of the denoised value, and its differences to the k largest-weight
    neighbors' encodings.

    The encoding of value v is (v, 0) for v > 0 and (0, v) otherwise. Nodes
    with fewer than k neighbors repeat their nearest available neighbor
    (isolated nodes repeat themselves), logged.
    """
    m = features.shape[0]
    enc = np.zeros((m, 2))
    posv = y > 0
    enc[posv, 0] = y[posv]
    enc[~posv, 1] = y[~posv]
    adj = adjacency.tocsr()
    adj.sort_indices()
    neighbor_ids = np.empty((m, k), dtype=np.int64)
    padded = 0
    for i in range(m):
        row = slice(adj.indptr[i], adj.indptr[i + 1])
        cols = adj.indices[row]
        w = adj.data[row]
        order = np.argsort(-w, kind="stable")
        chosen = cols[order[:k]]
        if chosen.size == 0:
            chosen = np.array([i], dtype=np.int64)
            padded += 1
        elif chosen.size < k:
            padded += 1
        reps = np.resize(chosen, k) if chosen.size < k else chosen
        neighbor_ids[i] = reps
    if padded:
        logger.info("padded neighbor lists for %d nodes with fewer than %d neighbors",
                    padded, k)
    diffs = enc[neighbor_ids] - enc[:, None, :]
    return np.hstack([features, enc, diffs.reshape(m, 2 * k)])


def run_stage_unet(state: PipelineState, inputs: np.ndarray, y: np.ndarray,
                   phi: np.ndarray) -> MetricNet:
    """Train the update net on neighborhood-encoded inputs, with triplets
    labeled by the sign of the denoised signal y and gated by the per-node
    reliability phi of the first denoising pass."""
    cfg = state.config
    net = MetricNet(inputs.shape[1], cfg.net_config("update"))

    def loss_of_batch(batch, epoch, b_idx):
        pos = state.positions(batch.ids)
        att = node_attention_matrix(phi[pos])
        trips = _triplets_or_skip(y[pos], cfg, "update", epoch, b_idx)
        if trips is None:
            return None
        return triplet_loss_W(net, inputs[pos], trips, cfg.margin_w, att)

    _train_net(state, "update", net, loss_of_batch)
    return net


# ---------------------------------------------------------------------------
# the frozen chain

def run_chain(state: PipelineState, chain: str, features: np.ndarray, y0: np.ndarray,
              cfg: PipelineConfig, train_missing: bool = False) -> list[StageRecord]:
    """Run a variant's steps (CHAIN_STEPS) on a node set with signal y0.

    Returns one record after the KNN step and one after each denoising pass.
    With train_missing, the node set must be the train+val working set, and
    each net not yet in state.nets is trained there just before the step
    that first uses it.
    """
    graph = lap = emb = shallow = None
    y = y0
    records = []
    for step in CHAIN_STEPS[chain]:
        if step == "denoise":
            if lap is None:
                lap = build_laplacian(graph)
            y_prev, y = y, denoise(lap, y, cfg.glr)
            records.append(StageRecord(graph, y, emb, lap))
            continue
        if step == "embed":
            x = features
        elif step == "update":
            x = unet_inputs(features, y, lap.adjacency, cfg.unet_neighbors)
        else:
            x = np.hstack([features, shallow])
        if step not in state.nets:
            if not train_missing:
                raise UsageError(f"chain {chain} needs the untrained {step} net")
            if step == "embed":
                run_stage_gnet(state, x)
            elif step == "update":
                run_stage_unet(state, x, y, node_phi(y_prev, y, cfg.eps1))
            else:
                run_stage_wnet(state, int(step[-1]), x, emb, graph.gamma, y)
        emb, tap = state.nets[step].forward_batch(x)
        if step == "embed":
            graph, shallow = knn_edges(emb, state.gamma0), tap
            records.append(StageRecord(graph, y, emb))
        elif step == "update":
            graph, shallow = graph_update(graph, lap, y, emb, cfg.beta), tap
        else:
            graph = assign_weights(graph, emb, auto_sigma(emb, partition_edges(graph, y)))
        lap = None
    return records


def _work_stages(state: PipelineState, chain: str, cfg: PipelineConfig,
                 train_missing: bool = False) -> dict:
    features = state.dataset.features[state.work_ids]
    records = run_chain(state, chain, features, state.work_signal0, cfg, train_missing)
    return dict(enumerate(records))


def run_variant(ds: Dataset, cfg: PipelineConfig) -> PipelineState:
    """Train every net the configured variant needs and record per-iteration
    artifacts on the train+val working set."""
    chain, _ = parse_variant(cfg.variant)
    state = PipelineState.fresh(ds, cfg)
    state.stages = _work_stages(state, chain, cfg, train_missing=True)
    state.trained_chain = chain
    return state


# ---------------------------------------------------------------------------
# transduction

def _stratified_train_sample(ds: Dataset, size: int, rng) -> np.ndarray:
    """Class-proportional draw of train node ids, without replacement.

    Stratification uses the noisy working labels; clean labels stay
    diagnostics-only."""
    train_idx = ds.indices(TRAIN)
    labels = ds.noisy_labels[train_idx]
    pos = train_idx[labels > 0]
    neg = train_idx[labels < 0]
    n_pos = int(round(size * pos.size / train_idx.size))
    n_pos = min(max(n_pos, 1), size - 1)
    take_pos = rng.choice(pos, size=min(n_pos, pos.size), replace=False)
    take_neg = rng.choice(neg, size=min(size - n_pos, neg.size), replace=False)
    return np.concatenate([take_pos, take_neg])


def _stratified_batches(ids: np.ndarray, labels: np.ndarray, n_batches: int,
                        rng) -> list[np.ndarray]:
    """Deal ids into n_batches groups, class-balanced, shuffled per class."""
    groups = [[] for _ in range(n_batches)]
    for cls in (1, -1):
        members = ids[labels == cls]
        members = members[rng.permutation(members.size)]
        for k, node in enumerate(members):
            groups[k % n_batches].append(node)
    return [np.asarray(g, dtype=np.int64) for g in groups]


def _reference_sets(state: PipelineState, cfg: PipelineConfig, sampling: bool
                    ) -> list[np.ndarray]:
    ds = state.dataset
    if not sampling:
        rng = substream(cfg.seed, "predict", "refs")
        return [_stratified_train_sample(ds, cfg.labeled_per_graph, rng)]
    top = rank_sampling(ds, state, cfg.rank_sample_k, cfg)
    rng = substream(cfg.seed, "predict", "rank-batches")
    return _stratified_batches(top, ds.noisy_labels[top], cfg.rank_sample_batches, rng)


def _chunks(n: int, size: int):
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def _joined_final(state: PipelineState, chain: str, refs: np.ndarray,
                  targets: np.ndarray, cfg: PipelineConfig) -> StageRecord:
    """Final chain record of a reference set joined by target nodes.

    References carry their noisy labels and targets carry 0; the targets
    are the rows after the first refs.size."""
    ds = state.dataset
    nodes = np.concatenate([refs, targets])
    y0 = np.concatenate([ds.noisy_labels[refs], np.zeros(targets.size)])
    return run_chain(state, chain, ds.features[nodes], y0, cfg)[-1]


def predict(state: PipelineState, test_indices, cfg: PipelineConfig | None = None
            ) -> np.ndarray:
    """Classify nodes by joining them to reference graphs of training nodes.

    The frozen chain runs end to end on each joined graph and the prediction
    is the sign of the final signal, averaged over reference batches in
    sampling mode. Exact zeros fall back to the sign of the accumulated
    weighted-neighbor signal, then +1.
    """
    cfg = cfg or state.config
    if state.trained_chain is None:
        raise UsageError("predict called before the pipeline was trained")
    chain, sampling = parse_variant(cfg.variant)
    test_indices = np.asarray(test_indices, dtype=np.int64)
    if chain == "DML-KNN":
        return _predict_dml_knn(state, test_indices, cfg, sampling)
    ref_sets = _reference_sets(state, cfg, sampling)
    total = np.zeros(test_indices.size)
    neighbor_total = np.zeros(test_indices.size)
    for chunk in _chunks(test_indices.size, cfg.unlabeled_per_graph):
        for refs in ref_sets:
            final = _joined_final(state, chain, refs, test_indices[chunk], cfg)
            total[chunk] += final.y[refs.size:]
            neighbor_total[chunk] += np.asarray(
                final.laplacian.adjacency[refs.size:] @ final.y).ravel()
    avg = total / len(ref_sets)
    pred = np.sign(avg)
    ties = pred == 0
    pred[ties] = np.sign(neighbor_total[ties])
    pred[pred == 0] = 1.0
    return pred.astype(np.int8)


def _knn_vote(emb_refs: np.ndarray, labels_refs: np.ndarray, emb_targets: np.ndarray,
              gamma: int) -> np.ndarray:
    d = pairwise_sq_dists(emb_targets, emb_refs)
    order = np.argsort(d, axis=1, kind="stable")[:, : min(gamma, emb_refs.shape[0])]
    return labels_refs[order].sum(axis=1)


def _predict_dml_knn(state: PipelineState, test_indices: np.ndarray,
                     cfg: PipelineConfig, sampling: bool) -> np.ndarray:
    """Nearest-neighbor vote in the embedding space (the ladder's baseline)."""
    ds = state.dataset
    net = state.nets["embed"]
    emb_test, _ = net.forward_batch(ds.features[test_indices])
    if sampling:
        ref_sets = _reference_sets(state, cfg, True)
    else:
        ref_sets = [ds.indices(TRAIN)]
    votes = np.zeros(test_indices.size)
    for refs in ref_sets:
        emb_refs, _ = net.forward_batch(ds.features[refs])
        votes += np.sign(_knn_vote(emb_refs, ds.noisy_labels[refs], emb_test,
                                   state.gamma0))
    pred = np.where(votes >= 0, 1, -1)
    return pred.astype(np.int8)


# ---------------------------------------------------------------------------
# rank sampling

def _batch_accuracy(state: PipelineState, chain: str, refs: np.ndarray,
                    target_ids: np.ndarray, target_labels: np.ndarray,
                    cfg: PipelineConfig) -> float:
    ds = state.dataset
    if chain == "DML-KNN":
        emb_refs, _ = state.nets["embed"].forward_batch(ds.features[refs])
        emb_t, _ = state.nets["embed"].forward_batch(ds.features[target_ids])
        votes = _knn_vote(emb_refs, ds.noisy_labels[refs], emb_t, state.gamma0)
        pred = np.where(votes >= 0, 1.0, -1.0)
        return float(np.mean(pred == target_labels))
    hits = 0
    for chunk in _chunks(target_ids.size, cfg.unlabeled_per_graph):
        final = _joined_final(state, chain, refs, target_ids[chunk], cfg)
        pred = np.sign(final.y[refs.size:])
        pred[pred == 0] = 1.0
        hits += int((pred == target_labels[chunk]).sum())
    return hits / target_ids.size


def rank_sampling(ds: Dataset, state: PipelineState, k: int | None = None,
                  cfg: PipelineConfig | None = None) -> np.ndarray:
    """Top-k trusted training nodes by rank-fused accuracy and stability.

    Accuracy: each train node inherits the validation accuracy of the random
    reference batches it appeared in (measured against noisy validation
    labels). Stability: small change of the node's signal across the last two
    denoising passes. Equal-weight rank fusion, deterministic per seed; for
    the baseline without recorded signals, accuracy alone ranks.
    """
    cfg = cfg or state.config
    if state.trained_chain is None:
        raise UsageError("rank sampling needs a trained pipeline")
    chain, _ = parse_variant(cfg.variant)
    k = cfg.rank_sample_k if k is None else int(k)
    train_ids = ds.indices(TRAIN)
    m = train_ids.size
    if k > m:
        clamped = (int(0.6 * m) // cfg.rank_sample_batches) * cfg.rank_sample_batches
        logger.info("rank_sampling k=%d exceeds train size %d; clamped to %d", k, m, clamped)
        k = clamped
    if k < cfg.rank_sample_batches:
        raise SamplingError(f"rank sampling keeps {k} of {m} train nodes, fewer than "
                            f"its {cfg.rank_sample_batches} reference batches")
    val_ids = ds.indices(VAL)
    val_labels = np.sign(ds.noisy_labels[val_ids])
    rounds = max(1, math.ceil(cfg.rank_coverage * m / cfg.labeled_per_graph))
    acc_sum = np.zeros(m)
    acc_cnt = np.zeros(m)
    train_rank = np.full(ds.n_nodes, -1, dtype=np.int64)
    train_rank[train_ids] = np.arange(m)
    for rnd in range(rounds):
        rng = substream(cfg.seed, "rank", rnd)
        refs = _stratified_train_sample(ds, cfg.labeled_per_graph, rng)
        acc = _batch_accuracy(state, chain, refs, val_ids, val_labels, cfg)
        members = train_rank[refs]
        acc_sum[members] += acc
        acc_cnt[members] += 1
    seen = acc_cnt > 0
    acc_score = np.full(m, acc_sum[seen].sum() / acc_cnt[seen].sum() if seen.any() else 0.0)
    acc_score[seen] = acc_sum[seen] / acc_cnt[seen]

    recorded = sorted(state.stages)
    if len(recorded) >= 2:
        last, prev = recorded[-1], recorded[-2]
        delta = np.abs(state.stages[last].y - state.stages[prev].y)
        train_pos_work = state.positions(train_ids)
        instability = delta[train_pos_work]
        rank_acc = _ordinal_rank(-acc_score)
        rank_stab = _ordinal_rank(instability)
        fused = rank_acc + rank_stab
    else:
        fused = _ordinal_rank(-acc_score)
    order = np.lexsort((np.arange(m), fused))
    return np.sort(train_ids[order[:k]])


def _ordinal_rank(values: np.ndarray) -> np.ndarray:
    """Smaller value gets smaller rank; ties broken by position (stable)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.arange(values.size)
    return ranks


# ---------------------------------------------------------------------------
# persistence

def write_run_manifest(path, cfg: PipelineConfig, ds_manifest: dict,
                       extra: dict | None = None) -> None:
    payload = {
        "variant": cfg.variant,
        "seed": cfg.seed,
        "margins": {"triplet": cfg.margin_e, "weighted": cfg.margin_w},
        "thresholds": {"eps1": cfg.eps1, "eps2": cfg.eps2, "beta": cfg.beta},
        "glr": {"kappa": cfg.glr.kappa, "mu_fraction": cfg.glr.mu_fraction,
                "solver_tol": cfg.glr.solver_tol},
        "batching": {"graphs_per_epoch": cfg.graphs_per_epoch,
                     "labeled_per_graph": cfg.labeled_per_graph,
                     "unlabeled_per_graph": cfg.unlabeled_per_graph},
        "rank_sampling": {"k": cfg.rank_sample_k, "batches": cfg.rank_sample_batches},
        "gamma_candidates": list(cfg.gamma_candidates),
        "embedding_dim": cfg.embedding_dim,
        "dataset": ds_manifest,
    }
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_state(state: PipelineState, run_dir) -> None:
    """Run directory: state.json plus one checkpoint per net. load_state
    rebuilds every stage record by replaying the chain."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, net in state.nets.items():
        save_checkpoint(net, run_dir / f"net_{name}.npz")
    meta = {"gamma0": state.gamma0, "trained_chain": state.trained_chain,
            "variant": state.config.variant, "seed": state.config.seed}
    (run_dir / "state.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_state(run_dir, ds: Dataset, cfg: PipelineConfig) -> PipelineState:
    """Reload a saved run on its dataset: the nets and the neighbor budget
    from save_state's files, then the stage records by replaying the trained
    chain on the working set. Other files in the directory are ignored."""
    run_dir = Path(run_dir)
    meta = json.loads((run_dir / "state.json").read_text())
    state = PipelineState.fresh(ds, cfg)
    state.gamma0 = meta["gamma0"]
    state.trained_chain = meta["trained_chain"]
    for path in sorted(run_dir.glob("net_*.npz")):
        state.nets[path.stem.removeprefix("net_")] = load_checkpoint(path)
    state.stages = _work_stages(state, state.trained_chain, cfg)
    return state
