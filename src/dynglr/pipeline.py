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
test nodes whose labels are set to 0, to classify them. Every net is fit
by one loop (_train_net): 16 batch graphs per epoch of 80 labeled train and
20 unlabeled validation nodes, a triplet draw per graph, and one
adaptive-moment step per graph; test nodes never appear in training. A saved
run is one checkpoint per net plus manifest.json (save_state).
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataio, glr, graphs
from .dataio import TRAIN, VAL, Dataset
from .errors import ConfigError, SamplingError, TrainingError, UsageError
from .glr import denoise
from .graphs import (Graph, assign_weights, graph_update, knn_edges, nearest_rows,
                     partition_edges)
from .metricnet import (AdamState, MetricNet, NetConfig, adam_step, load_checkpoint, lr_at,
                        node_attention_matrix, sample_triplets, save_checkpoint,
                        triplet_loss_E, triplet_loss_W)
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


# The paper's fixed values: triplet hinge margins of the embedding (E) and
# weighted (W) losses, the attention thresholds of the two weighting rounds,
# and the weight an edge must exceed to count toward its endpoints' budgets.
MARGIN_E = 10.0
MARGIN_W = 10.0
EPS1 = 0.6
EPS2 = 0.15
BETA = 0.1
# batch graphs per epoch; each holds 80 labeled train and 20 unlabeled val nodes
GRAPHS_PER_EPOCH = 16
LABELED_PER_GRAPH = 80
UNLABELED_PER_GRAPH = 20
# most nodes in a stack of frozen-chain graphs; predict time is flat from
# about 8 blocks of 100 nodes, and bigger stacks only raise peak memory
STACK_NODES = 1000
TRIPLETS_PER_GRAPH = 80
# neighbors whose label encodings the update net sees
UNET_NEIGHBORS = 6
# neighbor budgets the gamma search tries, in increasing order
GAMMA_CANDIDATES = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
EMBEDDING_DIM = 16
# the per-dataset schedules were published for convolutional stacks; the
# dense stacks need smaller adaptive-moment steps or they memorize label
# noise instead of the majority structure
LR_SCALE = 0.03
WEIGHT_DECAY = 1e-3


@dataclass(frozen=True)
class PipelineConfig:
    variant: str = "G-12312"
    rank_sample_k: int = 480
    rank_sample_batches: int = 6
    rank_coverage: float = 3.0
    arch: ArchPreset = field(default_factory=lambda: PRESETS["default"])
    seed: int = 0

    def __post_init__(self):
        parse_variant(self.variant)
        if not isinstance(self.arch, ArchPreset):
            raise ConfigError(f"arch must be an ArchPreset, not {type(self.arch).__name__}")
        if min(self.rank_sample_k, self.rank_sample_batches) < 1:
            raise ConfigError("rank_sample_k and rank_sample_batches must be at least 1")
        if self.rank_sample_k % self.rank_sample_batches != 0:
            raise ConfigError("rank_sample_k must divide into rank_sample_batches")
        cov = self.rank_coverage
        if isinstance(cov, bool) or not (isinstance(cov, numbers.Real) and 0 < cov < math.inf):
            raise ConfigError(f"rank_coverage must be a finite number above 0, not {cov!r}")

    @classmethod
    def for_dataset(cls, dataset_id: str, **overrides) -> "PipelineConfig":
        arch = overrides.pop("arch", PRESETS.get(dataset_id, PRESETS["default"]))
        return cls(arch=arch, **overrides)

    def net_config(self, stage: str) -> NetConfig:
        if stage not in ("embed", "weight1", "update", "weight2"):
            raise ConfigError(f"unknown stage {stage!r}")
        arch = self.arch
        hidden = arch.update_hidden if stage == "update" else arch.metric_hidden
        skip = None
        if stage == "weight2":
            skip = len(hidden) - 1 if len(hidden) >= 2 else (1 if hidden else None)
        lr_start, lr_end = getattr(arch, f"{stage}_lr")
        return NetConfig(hidden, EMBEDDING_DIM, LR_SCALE * lr_start, LR_SCALE * lr_end,
                         getattr(arch, f"{stage}_epochs"), skip_to_layer=skip,
                         seed=substream_seed(self.seed, "net", stage),
                         weight_decay=WEIGHT_DECAY)


# ---------------------------------------------------------------------------
# attention

def node_phi(y_prev: np.ndarray, y_cur: np.ndarray, eps: float) -> np.ndarray:
    """Per-node reliability: 1 where the denoising pass moved the value <= eps.

    Edge attention is the min of the endpoint flags (node_attention_matrix)."""
    return (np.abs(np.asarray(y_prev) - np.asarray(y_cur)) <= eps).astype(np.float64)


# ---------------------------------------------------------------------------
# batches

def build_batches(split: np.ndarray, seed: int) -> list[np.ndarray]:
    """16 batch graphs of working-set positions, 80 train then 20 val,
    disjoint within the epoch; split is the working set's split array.

    If a split cannot cover the epoch without reuse, nodes are drawn with
    replacement (logged once per call); an empty split raises SamplingError.
    """
    rng = substream(seed, "batches")
    pools = []
    for code, per_graph in ((TRAIN, LABELED_PER_GRAPH), (VAL, UNLABELED_PER_GRAPH)):
        pos = np.flatnonzero(split == code)
        need = GRAPHS_PER_EPOCH * per_graph
        if pos.size == 0:
            raise SamplingError(f"empty {dataio.SPLIT_NAMES[code]} split; {need} slots to fill")
        if pos.size < need:
            logger.info("split of %d cannot fill %d slots; sampling with replacement",
                        pos.size, need)
        pools.append(rng.choice(pos, size=need, replace=pos.size < need))
    train, val = pools
    return [np.concatenate([train[k * LABELED_PER_GRAPH:(k + 1) * LABELED_PER_GRAPH],
                            val[k * UNLABELED_PER_GRAPH:(k + 1) * UNLABELED_PER_GRAPH]])
            for k in range(GRAPHS_PER_EPOCH)]


# ---------------------------------------------------------------------------
# state

@dataclass
class StageRecord:
    """A graph of the chain and the signal on it."""

    graph: Graph
    y: np.ndarray


@dataclass
class PipelineState:
    config: PipelineConfig
    dataset: Dataset
    work_ids: np.ndarray
    nets: dict = field(default_factory=dict)
    gamma0: int | None = None
    stages: list = field(default_factory=list)
    stage_losses: dict = field(default_factory=dict)

    @classmethod
    def fresh(cls, ds: Dataset, cfg: PipelineConfig) -> "PipelineState":
        return cls(config=cfg, dataset=ds, work_ids=np.flatnonzero(ds.split != dataio.TEST))

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
                      val_labels: np.ndarray) -> int:
    """The budget of GAMMA_CANDIDATES maximizing KNN-vote accuracy on validation nodes.

    Train nodes vote with their (noisy) labels; accuracy is measured against
    the (noisy) validation labels. Ties prefer the smaller budget. The
    val x train distances are taken _DIST_CHUNK val rows at a time.
    """
    if not (len(train_pos) and len(val_pos)):
        raise SamplingError(f"gamma search: {len(train_pos)} train, {len(val_pos)} val nodes")
    order = nearest_rows(embeddings[val_pos], embeddings[train_pos], GAMMA_CANDIDATES[-1])
    acc = [np.mean(np.where(train_labels[order[:, :gamma]].sum(axis=1) >= 0, 1.0, -1.0)
                   == np.sign(val_labels)) for gamma in GAMMA_CANDIDATES]
    return GAMMA_CANDIDATES[int(np.argmax(acc))]  # the first of equal maxima


# ---------------------------------------------------------------------------
# stage training

def _train_net(state: PipelineState, stage: str, inputs: np.ndarray, labels: np.ndarray,
               step) -> MetricNet:
    """Fit the stage's net on fresh batch graphs each epoch and store it and its
    mean loss per epoch (0.0 if every batch was skipped) under stage. A batch's
    triplets are drawn from labels[pos] (a single-class batch is skipped, logged),
    then step(net, pos, triplets, epoch) returns its loss and gradients, or None to
    skip it; a non-finite loss raises TrainingError naming stage, epoch and batch."""
    cfg = state.config
    split = state.dataset.split[state.work_ids]
    net = MetricNet(inputs.shape[1], cfg.net_config(stage))
    adam = AdamState.for_net(net)
    epoch_losses = []
    for epoch in range(net.config.epochs):
        losses = []
        batches = build_batches(split, substream_seed(cfg.seed, stage, "epoch", epoch))
        for b_idx, pos in enumerate(batches):
            try:
                trips = sample_triplets(labels[pos], TRIPLETS_PER_GRAPH,
                                        substream_seed(cfg.seed, stage, "trip", epoch, b_idx))
            except SamplingError:
                logger.info("%s: single-class batch skipped (epoch %d)", stage, epoch)
                continue
            result = step(net, pos, trips, epoch)
            if result is None:
                continue
            loss, grads = result
            if not np.isfinite(loss):
                raise TrainingError(f"{stage}: non-finite loss at epoch {epoch}, batch {b_idx}")
            losses.append(loss)
            adam_step(net, grads, adam, lr_at(net.config, epoch))
        epoch_losses.append(float(np.mean(losses)) if losses else 0.0)
    state.stage_losses[stage] = epoch_losses
    state.nets[stage] = net
    return net


def run_stage_gnet(state: PipelineState, inputs: np.ndarray) -> MetricNet:
    """Train the embedding net on the working-set inputs."""
    return _train_net(state, "embed", inputs, state.work_signal0,
                      lambda net, pos, trips, _: triplet_loss_E(net, inputs[pos], trips, MARGIN_E))


def _search_work_gamma(state: PipelineState, emb_work: np.ndarray) -> int:
    """The neighbor budget grid-searched on the working set's embedding."""
    split, labels = state.dataset.split[state.work_ids], state.dataset.noisy_labels[state.work_ids]
    train, val = np.flatnonzero(split == TRAIN), np.flatnonzero(split == VAL)
    return grid_search_gamma(emb_work, train, labels[train], val, labels[val])


def run_stage_wnet(state: PipelineState, r: int, inputs: np.ndarray,
                   embeddings: np.ndarray, gamma: np.ndarray, y_prev: np.ndarray
                   ) -> MetricNet:
    """Train weighting net r on working-set batch graphs: KNN in the preceding
    net's space (embeddings, per-node budgets gamma), learned kernel weights,
    denoise of y_prev, attention from the signal change, one loss step."""
    eps = EPS1 if r == 1 else EPS2
    stage = f"weight{r}"

    def step(net, pos, trips, epoch):
        x_in, y_b = inputs[pos], y_prev[pos]
        g_b = knn_edges(embeddings[pos], gamma[pos])
        same, opposite = partition_edges(g_b, y_b)
        if not (same.any() and opposite.any()):
            logger.info("%s: batch without both edge classes skipped (epoch %d)", stage, epoch)
            return None
        # the loss reuses the forward that weighted the graph
        forward = net.forward_batch(x_in)
        g_w = assign_weights(g_b, forward[0], same, opposite)
        att = node_attention_matrix(node_phi(y_b, denoise(g_w.laplacian, y_b), eps))
        return triplet_loss_W(net, x_in, trips, MARGIN_W, att, forward)

    return _train_net(state, stage, inputs, y_prev, step)


def unet_inputs(features: np.ndarray, y: np.ndarray, g: Graph, k: int) -> np.ndarray:
    """Per-node update-net encoding: raw features, the two-slot label encoding
    of the denoised value, and its differences to the k largest-weight
    neighbors' encodings (equal weights in column order).

    The encoding of value v is (v, 0) for v > 0 and (0, v) otherwise. Nodes
    with fewer than k neighbors cycle through their neighbor list from the
    heaviest (isolated nodes repeat themselves), logged.
    """
    m = features.shape[0]
    enc = np.zeros((m, 2))
    posv = y > 0
    enc[posv, 0] = y[posv]
    enc[~posv, 1] = y[~posv]
    rows, cols = g.rows, g.cols
    counts = np.bincount(rows, minlength=m)
    starts = np.cumsum(counts) - counts
    # each node's negated weights in one row, padded with +inf: a stable sort
    # along the rows ranks its neighbors, equal weights in column order
    key = np.full((m, max(int(counts.max(initial=0)), 1)), np.inf)
    key[rows, np.arange(rows.size) - starts[rows]] = -g.weights
    ranked = np.argsort(key, axis=1, kind="stable")
    # slot s of a node holds its (s mod count)-th heaviest neighbor
    slot = np.take_along_axis(ranked, np.arange(k) % np.maximum(counts, 1)[:, None], axis=1)
    neighbor_ids = np.repeat(np.arange(m)[:, None], k, axis=1)
    linked = counts > 0
    neighbor_ids[linked] = cols[(starts[:, None] + slot)[linked]]
    padded = int((counts < k).sum())
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
    return _train_net(state, "update", inputs, y, lambda net, pos, trips, _: triplet_loss_W(
        net, inputs[pos], trips, MARGIN_W, node_attention_matrix(phi[pos])))


# ---------------------------------------------------------------------------
# the frozen chain

def run_chain(state: PipelineState, chain: str, features: np.ndarray, y0: np.ndarray,
              train_missing: bool = False, layout: np.ndarray | None = None
              ) -> list[StageRecord]:
    """Run a variant's steps (CHAIN_STEPS) on a node set with signal y0.

    Returns one record after the KNN step and one after each denoising pass.
    With train_missing, the node set must be the train+val working set, and
    each net not yet in state.nets is trained there just before the step
    that first uses it (a new embedding net's working-set embedding then sets
    state.gamma0). A (C, b) layout of row indices into features and y0 runs
    it on C graphs at once, graph k on the rows layout[k], and the
    records hold their C * b nodes in order. The nets forward each row once
    until the first denoising pass, before which its input is block-free.
    """
    layout = np.arange(features.shape[0])[None] if layout is None else layout
    nodes = layout.ravel()
    graph = emb = shallow = y_prev = None
    y = y0[nodes]
    records = []
    for step in CHAIN_STEPS[chain]:
        if step == "denoise":
            y_prev, y = y, denoise(graph.laplacian, y)
            records.append(StageRecord(graph, y))
            continue
        if step == "embed":
            x = features
        elif step == "update":
            x = unet_inputs(features[nodes], y, graph, UNET_NEIGHBORS)
        else:
            x = np.hstack([features if y_prev is None else features[nodes], shallow])
        trained = step not in state.nets
        if trained:
            if not train_missing:
                raise UsageError(f"chain {chain} needs the untrained {step} net")
            if step == "embed":
                run_stage_gnet(state, x)
            elif step == "update":
                run_stage_unet(state, x, y, node_phi(y_prev, y, EPS1))
            else:
                run_stage_wnet(state, int(step[-1]), x, emb, graph.gamma, y)
        emb, tap = state.nets[step].forward_batch(x)[:2]
        if y_prev is None:
            emb = emb[nodes]
        if step == "embed":
            if trained:
                state.gamma0 = _search_work_gamma(state, emb)
            graph, shallow = knn_edges(emb, state.gamma0, layout.shape[0]), tap
            records.append(StageRecord(graph, y))
        elif step == "update":
            graph, shallow = graph_update(graph, y, emb, BETA), tap
        else:
            graph = assign_weights(graph, emb, *partition_edges(graph, y))
    return records


def _work_stages(state: PipelineState, chain: str, train_missing: bool = False
                 ) -> list[StageRecord]:
    return run_chain(state, chain, state.dataset.features[state.work_ids],
                     state.work_signal0, train_missing)


def run_variant(ds: Dataset, cfg: PipelineConfig) -> PipelineState:
    """Train every net the configured variant needs and record per-iteration
    artifacts on the train+val working set."""
    chain, _ = parse_variant(cfg.variant)
    state = PipelineState.fresh(ds, cfg)
    state.stages = _work_stages(state, chain, train_missing=True)
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
    """Deal ids into n_batches groups, class-balanced, shuffled per class, each
    class from group 0; a group left empty raises SamplingError."""
    dealt = [m[rng.permutation(m.size)] for m in (ids[labels == 1], ids[labels == -1])]
    filled = max(m.size for m in dealt)
    if filled < n_batches:
        raise SamplingError(f"rank sampling keeps k={ids.size} train nodes ({dealt[0].size} "
                            f"positive, {dealt[1].size} negative), so reference batch {filled} "
                            f"of batches 0-{n_batches - 1} would be empty")
    return [np.concatenate([m[k::n_batches] for m in dealt]).astype(np.int64)
            for k in range(n_batches)]


def _reference_sets(state: PipelineState, cfg: PipelineConfig, chain: str,
                    sampling: bool) -> list[np.ndarray]:
    ds = state.dataset
    if sampling:
        top = rank_sampling(state, cfg)
        rng = substream(cfg.seed, "predict", "rank-batches")
        return _stratified_batches(top, ds.noisy_labels[top], cfg.rank_sample_batches, rng)
    if chain == "DML-KNN":
        return [ds.indices(TRAIN)]
    rng = substream(cfg.seed, "predict", "refs")
    return [_stratified_train_sample(ds, LABELED_PER_GRAPH, rng)]


def _transduce(state: PipelineState, chain: str, refs: np.ndarray, targets: np.ndarray
               ) -> np.ndarray:
    """Signal of the target nodes given a reference set.

    The baseline's signal is the sign of the vote of each target's gamma0
    nearest references in the embedding space (0 for a tied vote). A graph
    chain runs on the references, which carry their noisy labels, joined by
    each chunk of targets, which carry 0, as blocks of stacked graphs.
    """
    ds = state.dataset
    if chain == "DML-KNN":
        net = state.nets["embed"]
        emb_refs = net.forward_batch(ds.features[refs])[0]
        emb_targets = net.forward_batch(ds.features[targets])[0]
        nn = nearest_rows(emb_targets, emb_refs, state.gamma0)
        return np.sign(ds.noisy_labels[refs][nn].sum(axis=1))
    r, chunk = refs.size, UNLABELED_PER_GRAPH
    # full chunks in stacks of at most STACK_NODES nodes, the short last one alone
    step = chunk * (STACK_NODES // (r + chunk) if r + chunk <= graphs.DENSE_BACKING_MAX else 1)
    whole = targets.size - targets.size % chunk
    bounds = sorted({*range(0, whole, step), whole, targets.size})
    signal = np.empty(targets.size)
    for start, stop in zip(bounds, bounds[1:]):
        size = min(chunk, stop - start)
        blocks = (stop - start) // size
        # block k: every reference, then the k-th chunk of the stack's targets
        layout = np.hstack([np.broadcast_to(np.arange(r), (blocks, r)),
                            r + np.arange(stop - start).reshape(blocks, size)])
        nodes = np.concatenate([refs, targets[start:stop]])
        y0 = np.concatenate([ds.noisy_labels[refs], np.zeros(stop - start)])
        final = run_chain(state, chain, ds.features[nodes], y0, layout=layout)[-1]
        signal[start:stop] = final.y.reshape(blocks, r + size)[:, r:].ravel()
    return signal


def predict(state: PipelineState, test_indices, cfg: PipelineConfig | None = None
            ) -> np.ndarray:
    """Classify nodes by transduction from reference sets of training nodes:
    +1 where the target signal summed over the sets (several in sampling
    mode) is >= 0, else -1, the rule the gamma search and rank sampling use."""
    cfg = cfg or state.config
    if not state.stages:
        raise UsageError("predict called before the pipeline was trained")
    chain, sampling = parse_variant(cfg.variant)
    test_indices = np.asarray(test_indices, dtype=np.int64)
    total = sum(_transduce(state, chain, refs, test_indices)
                for refs in _reference_sets(state, cfg, chain, sampling))
    return np.where(total >= 0, 1, -1).astype(np.int8)


# ---------------------------------------------------------------------------
# rank sampling

def rank_sampling(state: PipelineState, cfg: PipelineConfig | None = None) -> np.ndarray:
    """The rank_sample_k most trusted training nodes by rank-fused accuracy and stability.

    Accuracy: each train node inherits the validation accuracy of the random
    reference batches it appeared in (measured against noisy validation
    labels). Stability: small change of the node's signal across the last two
    denoising passes. Equal-weight rank fusion, deterministic per seed; for
    the baseline without recorded signals, accuracy alone ranks.
    """
    cfg, ds = cfg or state.config, state.dataset
    if not state.stages:
        raise UsageError("rank sampling needs a trained pipeline")
    chain, _ = parse_variant(cfg.variant)
    k = cfg.rank_sample_k
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
    rounds = max(1, math.ceil(cfg.rank_coverage * m / LABELED_PER_GRAPH))
    acc_sum = np.zeros(m)
    acc_cnt = np.zeros(m)
    for rnd in range(rounds):
        rng = substream(cfg.seed, "rank", rnd)
        refs = _stratified_train_sample(ds, LABELED_PER_GRAPH, rng)
        signal = _transduce(state, chain, refs, val_ids)
        acc = float(np.mean(np.where(signal >= 0, 1.0, -1.0) == val_labels))
        members = np.searchsorted(train_ids, refs)
        acc_sum[members] += acc
        acc_cnt[members] += 1
    seen = acc_cnt > 0
    acc_score = np.full(m, acc_sum[seen].sum() / acc_cnt[seen].sum() if seen.any() else 0.0)
    acc_score[seen] = acc_sum[seen] / acc_cnt[seen]

    fused = _ordinal_rank(-acc_score)
    if len(state.stages) >= 2:
        delta = np.abs(state.stages[-1].y - state.stages[-2].y)
        fused = fused + _ordinal_rank(delta[np.searchsorted(state.work_ids, train_ids)])
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

def save_state(state: PipelineState, run_dir, extra: dict | None = None) -> None:
    """Run directory: one checkpoint per net, and manifest.json with the neighbor
    budget, the config, the method's fixed values, the numpy build and extra's
    keys. load_state rebuilds every stage record by replaying the chain."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, net in state.nets.items():
        save_checkpoint(net, run_dir / f"net_{name}.npz")
    cfg = state.config
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    payload = {
        "numpy": {"version": np.__version__, "blas": f"{blas['name']} {blas['version']}"},
        "variant": cfg.variant,
        "seed": cfg.seed,
        "gamma0": state.gamma0,
        "margins": {"triplet": MARGIN_E, "weighted": MARGIN_W},
        "thresholds": {"eps1": EPS1, "eps2": EPS2, "beta": BETA},
        "glr": {"kappa": glr.KAPPA, "mu_fraction": glr.MU_FRACTION,
                "solver_tol": glr.SOLVER_TOL},
        "batching": {"graphs_per_epoch": GRAPHS_PER_EPOCH,
                     "labeled_per_graph": LABELED_PER_GRAPH,
                     "unlabeled_per_graph": UNLABELED_PER_GRAPH},
        "rank_sampling": {"k": cfg.rank_sample_k, "batches": cfg.rank_sample_batches},
        "gamma_candidates": list(GAMMA_CANDIDATES),
        "embedding_dim": EMBEDDING_DIM,
    }
    dataio.write_manifest({**payload, **(extra or {})}, run_dir / "manifest.json")


def load_state(run_dir, ds: Dataset, cfg: PipelineConfig) -> PipelineState:
    """Reload a saved run on its dataset: the nets and the neighbor budget
    from save_state's files, then the stage records by replaying the saved
    variant's chain on the working set. Other files in the directory are
    ignored. A manifest.json without an integer gamma0 raises ConfigError."""
    run_dir = Path(run_dir)
    meta = dataio.read_manifest(run_dir / "manifest.json", {"gamma0": int, "variant": str})
    state = PipelineState.fresh(ds, cfg)
    state.gamma0 = meta["gamma0"]
    for path in sorted(run_dir.glob("net_*.npz")):
        state.nets[path.stem.removeprefix("net_")] = load_checkpoint(path)
    state.stages = _work_stages(state, parse_variant(meta["variant"])[0])
    return state
