"""Dense feedforward embedding networks with hand-written backprop.

Hidden layers are rectified, the output layer is linear, and the activation
of the second-to-last layer is exposed as a "shallow" feature tap that later
stages concatenate onto raw inputs. This module provides the pieces of
training: hinge triplet losses over squared embedding distances, optionally
gated per pair by a binary attention matrix, triplet sampling, and
adaptive-moment steps with a linearly decaying learning rate. The epoch loop
that combines them is pipeline._train_net. Gradients are exact and are
verified against central finite differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, SamplingError, ShapeError
from .seeds import substream


# adaptive-moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetConfig:
    """Architecture and schedule for one embedding network.

    layer_widths are the hidden widths; the output width is embedding_dim.
    skip_to_layer, when set, concatenates the raw input onto that layer's
    input (used by the second-iteration weighting net).
    """

    layer_widths: tuple = ()
    embedding_dim: int = 16
    lr_start: float = 0.02
    lr_end: float = 0.01
    epochs: int = 60
    skip_to_layer: int | None = None
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self):
        if any(w < 1 for w in self.layer_widths) or self.embedding_dim < 1:
            raise ConfigError("layer widths must be positive")
        if not self.lr_start >= self.lr_end > 0:
            raise ConfigError("need lr_start >= lr_end > 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be positive")
        if self.skip_to_layer is not None and not 1 <= self.skip_to_layer <= len(self.layer_widths):
            raise ConfigError("skip_to_layer must index a non-input layer")


class MetricNet:
    """Stack of affine layers; float64 parameters, Glorot-uniform init."""

    def __init__(self, in_dim: int, config: NetConfig):
        self.in_dim = int(in_dim)
        self.config = config
        dims = [self.in_dim] + list(config.layer_widths) + [config.embedding_dim]
        self.n_layers = len(dims) - 1
        # the last hidden layer (the output layer when there is none)
        self.shallow_tap = max(self.n_layers - 2, 0)
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

    def parameters(self) -> list[np.ndarray]:
        return self.weights + self.biases

    def forward_cached(self, x: np.ndarray):
        """(embeddings, shallow activations, layer inputs and pre-activations)."""
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
        emb, shallow, _ = self.forward_cached(np.asarray(x, dtype=np.float64))
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


def _triplet_core(net: MetricNet, x: np.ndarray, triplets: np.ndarray, margin: float,
                  attention, forward=None) -> tuple[float, list[np.ndarray]]:
    """Embeds rows [0, m) of x once, m being one past the largest triplet
    index (or reads them from forward, net.forward_cached(x)), indexes the
    triplets into the embeddings and backpropagates in one pass."""
    trips = np.asarray(triplets, dtype=np.int64)
    if trips.ndim != 2 or trips.shape[1] != 3 or (trips < 0).any():
        raise ShapeError("triplets must be a (T, 3) array of row numbers >= 0, got "
                         f"shape {trips.shape}")
    if trips.shape[0] == 0:
        return 0.0, net.zero_grads()
    m = int(trips.max()) + 1
    if forward is None:
        forward = net.forward_cached(np.asarray(x, dtype=np.float64)[:m])
    emb, _, (inputs, pres) = forward
    emb, cache = emb[:m], ([a[:m] for a in inputs], [z[:m] for z in pres])
    ia, ip, iq = trips.T
    diff_ap = emb[ia] - emb[ip]
    diff_an = emb[ia] - emb[iq]
    d_ap = (diff_ap * diff_ap).sum(axis=1)
    d_an = (diff_an * diff_an).sum(axis=1)
    if attention is None:
        pi_ap = pi_an = np.ones(trips.shape[0])
    else:
        pi_ap, pi_an = attention[ia, ip], attention[ia, iq]
    hinge = margin - pi_an * d_an + pi_ap * d_ap
    keep = ~((pi_ap == 0.0) & (pi_an == 0.0))
    active = (hinge > 0.0) & keep
    loss = float(hinge[active].sum())
    coef = active.astype(np.float64)
    g_ap = (2.0 * pi_ap * coef)[:, None] * diff_ap
    g_an = (2.0 * pi_an * coef)[:, None] * diff_an
    # one scatter-add over (row, column) keys: a row that recurs across
    # triplets collects every term, anchor terms first, then positive, then
    # negative ones, each in triplet order
    dim = emb.shape[1]
    keys = (np.concatenate([ia, ip, iq])[:, None] * dim + np.arange(dim)).ravel()
    terms = np.concatenate([g_ap - g_an, -g_ap, g_an]).ravel()
    d_emb = np.bincount(keys, weights=terms, minlength=emb.size).reshape(emb.shape)
    return loss, net._backward(cache, d_emb)


def triplet_loss_E(net: MetricNet, x: np.ndarray, triplets, margin: float
                   ) -> tuple[float, list[np.ndarray]]:
    """Plain hinge triplet loss: sum max(margin - d(a,n) + d(a,p), 0).

    triplets is a (T, 3) int array of (anchor, positive, negative) rows of x.
    Distances are squared Euclidean between embeddings. Empty triplet sets
    yield zero loss and zero gradients.
    """
    if margin <= 0:
        raise ConfigError("margin must be positive")
    return _triplet_core(net, x, triplets, margin, attention=None)


def triplet_loss_W(net: MetricNet, x: np.ndarray, triplets, margin: float,
                   attention, forward=None) -> tuple[float, list[np.ndarray]]:
    """Attention-gated hinge triplet loss.

    The negative-pair term scales by attention[a, n] and the positive-pair
    term by attention[a, p]; attention is a dense {0,1} array over the rows
    of x. Triplets whose two attentions are both zero contribute nothing:
    their hinge is a gradient-free constant that would only distort reported
    loss magnitudes. With all-ones attention this is exactly triplet_loss_E,
    including accumulation order. A caller that already ran
    net.forward_cached(x) passes its result as forward.
    """
    if margin <= 0:
        raise ConfigError("margin must be positive")
    return _triplet_core(net, x, triplets, margin, attention, forward)


def node_attention_matrix(phi: np.ndarray) -> np.ndarray:
    """Pairwise attention min(phi_i, phi_j) from per-node reliability flags."""
    phi = np.asarray(phi, dtype=np.float64)
    return np.minimum(phi[:, None], phi[None, :])


def sample_triplets(labels: np.ndarray, count: int, seed: int) -> np.ndarray:
    """(count, 3) int64 rows (anchor, positive, negative): uniform anchors over
    labeled nodes whose class has a distinct partner.

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
    for sign, same, other in ((1.0, pos, neg), (-1.0, neg, pos)):
        mask = signs[anchors] == sign
        if not mask.any():
            continue
        ranks = np.searchsorted(same, anchors[mask])
        draw = rng.integers(0, same.size - 1, size=int(mask.sum()))
        draw += draw >= ranks
        positives[mask] = same[draw]
        negatives[mask] = other[rng.integers(0, other.size, size=int(mask.sum()))]
    return np.stack([anchors, positives, negatives], axis=1)


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
    decay = net.config.weight_decay
    state.t += 1
    b1t = 1.0 - ADAM_BETA1**state.t
    b2t = 1.0 - ADAM_BETA2**state.t
    n_weights = len(net.weights)
    for k, (p, g, m, v) in enumerate(zip(net.parameters(), grads, state.m, state.v)):
        if decay and k < n_weights:
            g = g + decay * p
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


def lr_at(config: NetConfig, epoch: int) -> float:
    """Linear decay from lr_start to lr_end across the epoch range."""
    if config.epochs <= 1:
        return config.lr_start
    frac = epoch / (config.epochs - 1)
    return config.lr_start + (config.lr_end - config.lr_start) * frac


def save_checkpoint(net: MetricNet, path) -> None:
    """Versioned npz checkpoint: input width, full NetConfig, parameters."""
    meta = {"version": 2, "in_dim": net.in_dim, "config": asdict(net.config)}
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    arrays.update({f"w{k}": w for k, w in enumerate(net.weights)})
    arrays.update({f"b{k}": b for k, b in enumerate(net.biases)})
    np.savez(path, **arrays)


def load_checkpoint(path) -> MetricNet:
    """Reads the version-2 layout save_checkpoint writes; refuses any other
    version, and a config whose keys are not exactly NetConfig's fields."""
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        config = meta.get("config")
        names = {f.name for f in fields(NetConfig)}
        if meta.get("version") != 2 or not isinstance(config, dict) or set(config) != names:
            raise ConfigError(f"{path}: not a version-2 checkpoint with config keys "
                              f"{sorted(names)}")
        net = MetricNet(meta["in_dim"],
                        NetConfig(**{**config, "layer_widths": tuple(config["layer_widths"])}))
        net.weights = [data[f"w{k}"] for k in range(net.n_layers)]
        net.biases = [data[f"b{k}"] for k in range(net.n_layers)]
    return net
