"""Dense feedforward embedding networks with hand-written backprop.

Hidden layers are rectified, the output layer is linear, and the activation
of the second-to-last layer is exposed as a "shallow" feature tap that later
stages concatenate onto raw inputs. Training minimizes hinge triplet losses
over squared embedding distances, optionally gated per pair by a binary
attention matrix, using adaptive-moment estimation with a linearly decaying
learning rate. Gradients are exact and are verified against central finite
differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, SamplingError, ShapeError, TrainingError
from .seeds import substream


class Triplet(NamedTuple):
    anchor: int
    positive: int
    negative: int


@dataclass(frozen=True)
class NetConfig:
    """Architecture and schedule for one embedding network.

    layer_widths are the hidden widths; the output width is embedding_dim.
    shallow_tap_index defaults to the last hidden layer. skip_to_layer, when
    set, concatenates the raw input onto that layer's input (used by the
    second-iteration weighting net).
    """

    layer_widths: tuple = ()
    embedding_dim: int = 16
    lr_start: float = 0.02
    lr_end: float = 0.01
    epochs: int = 60
    shallow_tap_index: int | None = None
    skip_to_layer: int | None = None
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        n_layers = len(self.layer_widths) + 1
        if any(w < 1 for w in self.layer_widths) or self.embedding_dim < 1:
            raise ConfigError("layer widths must be positive")
        if not self.lr_start >= self.lr_end > 0:
            raise ConfigError("need lr_start >= lr_end > 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be positive")
        if self.shallow_tap_index is not None and not 0 <= self.shallow_tap_index < n_layers:
            raise ConfigError("shallow_tap_index must index a layer")
        if self.skip_to_layer is not None and not 1 <= self.skip_to_layer < n_layers:
            raise ConfigError("skip_to_layer must index a non-input layer")


class MetricNet:
    """Stack of affine layers; float64 parameters, Glorot-uniform init."""

    def __init__(self, in_dim: int, config: NetConfig):
        self.in_dim = int(in_dim)
        self.config = config
        dims = [self.in_dim] + list(config.layer_widths) + [config.embedding_dim]
        self.n_layers = len(dims) - 1
        tap = config.shallow_tap_index
        self.shallow_tap = tap if tap is not None else max(self.n_layers - 2, 0)
        rng = substream(config.seed, "init")
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for k in range(self.n_layers):
            fan_in = dims[k] + (self.in_dim if config.skip_to_layer == k else 0)
            fan_out = dims[k + 1]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            # small positive bias keeps rectified units off their kink at init
            self.biases.append(np.full(fan_out, 0.01))

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def parameters(self) -> list[np.ndarray]:
        return self.weights + self.biases

    def _forward_cached(self, x: np.ndarray):
        """Batched forward pass keeping layer inputs/pre-activations for backprop."""
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"expected (*, {self.in_dim}) input, got {x.shape}")
        inputs, pres = [], []
        h = x
        shallow = x
        for k in range(self.n_layers):
            inp = np.hstack([h, x]) if self.config.skip_to_layer == k else h
            z = inp @ self.weights[k] + self.biases[k]
            inputs.append(inp)
            pres.append(z)
            h = np.maximum(z, 0.0) if k < self.n_layers - 1 else z
            if k == self.shallow_tap:
                shallow = h
        return h, shallow, (inputs, pres)

    def forward_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(embeddings, shallow activations) for a batch of row vectors."""
        emb, shallow, _ = self._forward_cached(np.asarray(x, dtype=np.float64))
        return emb, shallow

    def _backward(self, cache, d_out: np.ndarray) -> list[np.ndarray]:
        """Gradients of sum(d_out * output) w.r.t. parameters()."""
        inputs, pres = cache
        grad_w = [None] * self.n_layers
        grad_b = [None] * self.n_layers
        delta = d_out
        for k in range(self.n_layers - 1, -1, -1):
            grad_w[k] = inputs[k].T @ delta
            grad_b[k] = delta.sum(axis=0)
            if k == 0:
                break
            d_inp = delta @ self.weights[k].T
            if self.config.skip_to_layer == k:
                d_inp = d_inp[:, : d_inp.shape[1] - self.in_dim]
            delta = d_inp * (pres[k - 1] > 0.0)
        return grad_w + grad_b

    def zero_grads(self) -> list[np.ndarray]:
        return [np.zeros_like(p) for p in self.parameters()]


def _as_index_arrays(triplets) -> np.ndarray:
    arr = np.asarray([tuple(t) for t in triplets], dtype=np.int64) if not isinstance(
        triplets, np.ndarray) else triplets.astype(np.int64, copy=False)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ShapeError("triplets must be (T, 3) index rows")
    return arr


def _pair_attention(attention, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    if sp.issparse(attention):
        return np.asarray(attention[ii, jj]).ravel().astype(np.float64)
    return np.asarray(attention)[ii, jj].astype(np.float64)


def _triplet_core(net: MetricNet, x: np.ndarray, triplets, margin: float,
                  attention) -> tuple[float, list[np.ndarray]]:
    trips = _as_index_arrays(triplets)
    if trips.shape[0] == 0:
        return 0.0, net.zero_grads()
    x = np.asarray(x, dtype=np.float64)
    ia, ip, iq = trips[:, 0], trips[:, 1], trips[:, 2]
    emb_a, _, cache_a = net._forward_cached(x[ia])
    emb_p, _, cache_p = net._forward_cached(x[ip])
    emb_n, _, cache_n = net._forward_cached(x[iq])
    diff_ap = emb_a - emb_p
    diff_an = emb_a - emb_n
    d_ap = (diff_ap * diff_ap).sum(axis=1)
    d_an = (diff_an * diff_an).sum(axis=1)
    if attention is None:
        pi_ap = np.ones(trips.shape[0])
        pi_an = np.ones(trips.shape[0])
    else:
        pi_ap = _pair_attention(attention, ia, ip)
        pi_an = _pair_attention(attention, ia, iq)
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
    grads = [ga + gp + gn for ga, gp, gn in zip(grads_a, grads_p, grads_n)]
    return loss, grads


def triplet_loss_E(net: MetricNet, x: np.ndarray, triplets, margin: float
                   ) -> tuple[float, list[np.ndarray]]:
    """Plain hinge triplet loss: sum max(margin - d(a,n) + d(a,p), 0).

    Distances are squared Euclidean between embeddings. Empty triplet sets
    yield zero loss and zero gradients.
    """
    if margin <= 0:
        raise ConfigError("margin must be positive")
    return _triplet_core(net, x, triplets, margin, attention=None)


def triplet_loss_W(net: MetricNet, x: np.ndarray, triplets, margin: float,
                   attention) -> tuple[float, list[np.ndarray]]:
    """Attention-gated hinge triplet loss.

    The negative-pair term scales by attention[a, n] and the positive-pair
    term by attention[a, p]; attention is a dense or sparse {0,1} matrix
    (absent sparse entries read as 0). Triplets whose two attentions are both
    zero contribute nothing: their hinge is a gradient-free constant that
    would only distort reported loss magnitudes. With all-ones attention this
    is exactly triplet_loss_E, including accumulation order.
    """
    if margin <= 0:
        raise ConfigError("margin must be positive")
    return _triplet_core(net, x, triplets, margin, attention=attention)


def node_attention_matrix(phi: np.ndarray) -> np.ndarray:
    """Pairwise attention min(phi_i, phi_j) from per-node reliability flags."""
    phi = np.asarray(phi, dtype=np.float64)
    return np.minimum(phi[:, None], phi[None, :])


def sample_triplets(labels: np.ndarray, count: int, seed: int) -> list[Triplet]:
    """Uniform anchors over labeled nodes whose class has a distinct partner.

    Positives are drawn from the anchor's class excluding the anchor,
    negatives from the opposite class; deterministic for a fixed seed.
    """
    signs = np.sign(np.asarray(labels, dtype=np.float64))
    pos = np.flatnonzero(signs > 0)
    neg = np.flatnonzero(signs < 0)
    if pos.size == 0 or neg.size == 0:
        raise SamplingError("triplet sampling needs both classes among labeled nodes")
    eligible = np.concatenate([pos if pos.size >= 2 else pos[:0],
                               neg if neg.size >= 2 else neg[:0]])
    if eligible.size == 0:
        raise SamplingError("no class has two labeled members")
    rng = substream(seed, "triplets")
    anchors = rng.choice(eligible, size=count) if count else np.zeros(0, dtype=np.int64)
    positives = np.zeros(count, dtype=np.int64)
    negatives = np.zeros(count, dtype=np.int64)
    for same, other in ((pos, neg), (neg, pos)):
        mask = np.isin(anchors, same)
        if not mask.any():
            continue
        ranks = np.searchsorted(same, anchors[mask])
        draw = rng.integers(0, same.size - 1, size=int(mask.sum()))
        draw += draw >= ranks
        positives[mask] = same[draw]
        negatives[mask] = other[rng.integers(0, other.size, size=int(mask.sum()))]
    return [Triplet(int(a), int(p), int(n)) for a, p, n in zip(anchors, positives, negatives)]


@dataclass
class AdamState:
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_net(cls, net: MetricNet) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in net.parameters()],
                   v=[np.zeros_like(p) for p in net.parameters()])


def adam_step(net: MetricNet, grads: Sequence[np.ndarray], state: AdamState,
              lr: float) -> None:
    """One in-place adaptive-moment update of all net parameters.

    weight_decay adds the l2 penalty gradient on weight matrices (biases
    excluded, as usual).
    """
    cfg = net.config
    state.t += 1
    b1t = 1.0 - cfg.adam_beta1**state.t
    b2t = 1.0 - cfg.adam_beta2**state.t
    n_weights = len(net.weights)
    for k, (p, g, m, v) in enumerate(zip(net.parameters(), grads, state.m, state.v)):
        if cfg.weight_decay and k < n_weights:
            g = g + cfg.weight_decay * p
        m *= cfg.adam_beta1
        m += (1.0 - cfg.adam_beta1) * g
        v *= cfg.adam_beta2
        v += (1.0 - cfg.adam_beta2) * g * g
        p -= lr * (m / b1t) / (np.sqrt(v / b2t) + cfg.adam_eps)


def lr_at(config: NetConfig, epoch: int) -> float:
    """Linear decay from lr_start to lr_end across the epoch range."""
    if config.epochs <= 1:
        return config.lr_start
    frac = epoch / (config.epochs - 1)
    return config.lr_start + (config.lr_end - config.lr_start) * frac


def train(net: MetricNet, batches: Callable[[int], Sequence], loss_fn: Callable,
          name: str = "net") -> list[float]:
    """Run net.config.epochs passes, each over the batches that batches(epoch)
    returns, with one adaptive-moment step per batch.

    loss_fn(batch, epoch, b_idx) returns (loss, gradients aligned with
    net.parameters()), or None to skip the batch. Returns the mean loss per
    epoch, 0.0 for an epoch whose batches were all skipped. Aborts on a
    non-finite loss, naming the net, epoch and batch.
    """
    config = net.config
    state = AdamState.for_net(net)
    epoch_losses = []
    for epoch in range(config.epochs):
        lr = lr_at(config, epoch)
        epoch_batches = batches(epoch)
        if not epoch_batches:
            raise ConfigError("batches must be nonempty")
        losses = []
        for b_idx, batch in enumerate(epoch_batches):
            result = loss_fn(batch, epoch, b_idx)
            if result is None:
                continue
            loss, grads = result
            if not np.isfinite(loss):
                raise TrainingError(f"{name}: non-finite loss at epoch {epoch}, batch {b_idx}")
            losses.append(loss)
            adam_step(net, grads, state, lr)
        epoch_losses.append(float(np.mean(losses)) if losses else 0.0)
    return epoch_losses


def save_checkpoint(net: MetricNet, path) -> None:
    """Versioned npz checkpoint: input width, full NetConfig, parameters."""
    meta = {"version": 2, "in_dim": net.in_dim, "config": asdict(net.config)}
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    for k, w in enumerate(net.weights):
        arrays[f"w{k}"] = w
    for k, b in enumerate(net.biases):
        arrays[f"b{k}"] = b
    np.savez(path, **arrays)


# the NetConfig fields a version-1 checkpoint kept at its top level
_V1_FIELDS = ("layer_widths", "embedding_dim", "lr_start", "lr_end", "epochs",
              "shallow_tap_index", "skip_to_layer", "seed")


def load_checkpoint(path) -> MetricNet:
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        fields = meta.get("config") or {k: meta[k] for k in _V1_FIELDS}
        config = NetConfig(**{**fields, "layer_widths": tuple(fields["layer_widths"])})
        net = MetricNet(meta["in_dim"], config)
        net.weights = [data[f"w{k}"] for k in range(net.n_layers)]
        net.biases = [data[f"b{k}"] for k in range(net.n_layers)]
    return net
