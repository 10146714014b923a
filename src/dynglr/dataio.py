"""Tabular binary-class dataset ingestion.

Loads CSV files (plain or KEEL-style with ``@`` headers), deduplicates rows,
assigns a stratified train/val/test split, standardizes features on training
statistics, and injects symmetric label noise into the train and validation
splits. All functions are pure: they return new ``Dataset`` objects and never
mutate their inputs.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .seeds import substream

logger = logging.getLogger(__name__)

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_NAMES = ("train", "val", "test")

# train/val/test shares of each class
SPLIT_FRACTIONS = (0.4, 0.2, 0.4)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with clean/working label signals and split membership.

    features     : (N, n) float64, standardized on the training split
    clean_labels : (N,) int8 in {-1, +1}, never shown to training code
    noisy_labels : (N,) float64 in {-1, 0, +1}; 0 means unknown
    split        : (N,) int8 of TRAIN/VAL/TEST codes
    """

    features: np.ndarray
    clean_labels: np.ndarray
    noisy_labels: np.ndarray
    split: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def mask(self, code: int) -> np.ndarray:
        return self.split == code

    def indices(self, code: int) -> np.ndarray:
        return np.flatnonzero(self.split == code)


@dataclass(frozen=True)
class NoiseSpec:
    """Symmetric label-flip specification: fraction flipped per affected split."""

    rate: float
    seed: int


def _parse_rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    rows = []
    labels = []
    width = None
    for lineno, raw in lines:
        parts = [p.strip() for p in raw.split(",")]
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ParseError(f"line {lineno}: expected {width} fields, got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        rows.append(values[:-1])
        labels.append(values[-1])
    if not rows:
        raise ParseError("no data rows found")
    return np.asarray(rows, dtype=np.float64), np.asarray(labels, dtype=np.float64)


def _map_labels(raw: np.ndarray) -> np.ndarray:
    values = set(np.unique(raw).tolist())
    if values <= {0.0, 1.0}:
        mapped = np.where(raw > 0.5, 1, -1).astype(np.int8)
    elif values <= {-1.0, 1.0}:
        mapped = raw.astype(np.int8)
    else:
        raise ParseError(f"labels must be in {{0,1}} or {{-1,+1}}, got {sorted(values)}")
    if len(np.unique(mapped)) < 2:
        raise ValidationError("file contains a single class")
    return mapped


def _dedup_rows(features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _, first = np.unique(features, axis=0, return_index=True)
    keep = np.sort(first)
    dropped = features.shape[0] - keep.size
    if dropped:
        logger.info("dropped %d duplicate rows", dropped)
    return features[keep], labels[keep]


def _drop_constant_columns(features: np.ndarray) -> np.ndarray:
    spans = features.max(axis=0) - features.min(axis=0)
    keep = spans > 0
    if not keep.all():
        logger.info("dropped %d constant feature columns", int((~keep).sum()))
    return features[:, keep]


def _standardize(features: np.ndarray, train_mask: np.ndarray) -> np.ndarray:
    if not train_mask.any():
        logger.warning("empty training split; standardizing on all rows")
        train_mask = np.ones(features.shape[0], dtype=bool)
    mean = features[train_mask].mean(axis=0)
    std = features[train_mask].std(axis=0)
    scale = np.where(std > 1e-12, std, 1.0)
    return (features - mean) / scale


def _assign_split(labels: np.ndarray, seed: int) -> np.ndarray:
    rng = substream(seed, "split")
    split = np.empty(labels.shape[0], dtype=np.int8)
    for cls in (-1, 1):
        idx = np.flatnonzero(labels == cls)
        if idx.size == 0:
            raise ValidationError("both classes must be present to split")
        perm = idx[rng.permutation(idx.size)]
        b1 = int(round(SPLIT_FRACTIONS[0] * idx.size))
        b2 = int(round((SPLIT_FRACTIONS[0] + SPLIT_FRACTIONS[1]) * idx.size))
        split[perm[:b1]] = TRAIN
        split[perm[b1:b2]] = VAL
        split[perm[b2:]] = TEST
    return split


def _assemble(features, labels, seed) -> Dataset:
    split = _assign_split(labels, seed)
    features = _standardize(features, split == TRAIN)
    noisy = labels.astype(np.float64)
    noisy[split == TEST] = 0.0
    return Dataset(features=features, clean_labels=labels, noisy_labels=noisy, split=split)


def from_arrays(features, labels, seed: int = 0) -> Dataset:
    """Assemble a Dataset from in-memory arrays (dedup, split, standardize)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValidationError("features must be (N, n) with one label per row")
    labels = _map_labels(labels.astype(np.float64))
    features, labels = _dedup_rows(features, labels)
    features = _drop_constant_columns(features)
    return _assemble(features, labels, seed)


def load_csv(path, seed: int = 0) -> Dataset:
    """Load a header-bearing CSV whose last column is the class label.

    KEEL-style ``@`` metadata lines are stripped; the first remaining line is
    treated as the header. Labels {0,1} map to {-1,+1}. Duplicate feature rows
    and constant columns are removed, then the dataset is split and
    standardized on training statistics.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    numbered = [(i + 1, ln) for i, ln in enumerate(path.read_text().splitlines()) if ln.strip()]
    numbered = [(n, ln) for n, ln in numbered if not ln.lstrip().startswith("@")]
    if len(numbered) < 2:
        raise ParseError("file must contain a header row and at least one data row")
    features, raw_labels = _parse_rows(numbered[1:])
    return from_arrays(features, raw_labels, seed)


def stratified_split(ds: Dataset, seed: int = 0) -> Dataset:
    """Reassign splits (per-class proportions within +-1 node) and restandardize.

    Standardization is affine per column, so restandardizing the already
    standardized features on the new training rows equals standardizing the
    raw features on them.
    """
    return _assemble(ds.features, ds.clean_labels, seed)


def inject_label_noise(ds: Dataset, spec: NoiseSpec) -> Dataset:
    """Flip the sign of round(rate * |split|) working labels in train and val.

    Clean labels are untouched; test working labels are forced to 0. Flipping
    twice with the same seed restores the original working labels.
    """
    if not 0.0 <= spec.rate <= 1.0:
        raise ConfigError(f"noise rate must be in [0, 1], got {spec.rate}")
    noisy = ds.noisy_labels.copy()
    for code in (TRAIN, VAL):
        idx = ds.indices(code)
        n_flip = int(round(spec.rate * idx.size))
        if n_flip == 0:
            continue
        rng = substream(spec.seed, "noise", SPLIT_NAMES[code])
        chosen = rng.choice(idx, size=n_flip, replace=False)
        noisy[chosen] *= -1.0
    noisy[ds.mask(TEST)] = 0.0
    return Dataset(features=ds.features, clean_labels=ds.clean_labels,
                   noisy_labels=noisy, split=ds.split)


def dataset_manifest(ds: Dataset, noise: NoiseSpec | None = None, seed: int | None = None) -> dict:
    """Reproducibility manifest: shape, split sizes, and noise settings."""
    manifest = {
        "n_nodes": int(ds.n_nodes),
        "n_features": int(ds.n_features),
        "split_sizes": {SPLIT_NAMES[c]: int(ds.mask(c).sum()) for c in (TRAIN, VAL, TEST)},
        "class_counts": {str(c): int((ds.clean_labels == c).sum()) for c in (-1, 1)},
    }
    if noise is not None:
        manifest["noise"] = {"rate": noise.rate, "seed": noise.seed}
    if seed is not None:
        manifest["split_seed"] = int(seed)
    return manifest


def write_manifest(manifest: dict, path) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path, keys: dict) -> dict:
    """The JSON object at path; ConfigError names the file and any key (a
    dotted path) it lacks, or whose value is not of the type keys gives it."""
    try:
        manifest = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from None
    for key, kind in keys.items():
        node = manifest
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"{path} has no {key!r}")
            node = node[part]
        # an integer is a float here, and bool (a subclass of int) is neither
        if type(node) not in ((int, float) if kind is float else (kind,)):
            raise ConfigError(f"{path}: {key!r} must be {kind.__name__}, not {node!r}")
    return manifest


# Published shapes of the three benchmark tables, used when the real CSVs are
# not on disk: (rows, feature columns, positive-class fraction, class margin,
# cluster spread). Margins are calibrated so a 7-NN vote on the standardized
# raw features lands near each table's reported nearest-neighbor difficulty.
SYNTHETIC_SHAPES = {
    "phoneme": (5404, 5, 0.293, 1.1, 1.0),
    "magic": (19020, 10, 0.648, 1.1, 1.0),
    "spambase": (4597, 57, 0.394, 1.6, 2.0),
}
# unit-variance blobs per class in the synthetic stand-ins
SYNTHETIC_CLUSTERS = 3


def synthetic_features(n: int, dim: int, pos_fraction: float, margin: float,
                       cluster_spread: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-mixture stand-in for a real binary table.

    Every feature is mildly informative: the classes sit at +-margin along a
    fixed direction of uneven per-feature weights, and each class is spread
    over SYNTHETIC_CLUSTERS unit-variance blobs whose centers lie cluster_spread
    from the class mean. Larger margin means an easier problem; larger
    cluster_spread means stronger within-class structure.
    """
    rng = substream(seed, "synthetic", n, dim)
    informative = rng.uniform(0.5, 1.5, size=dim)
    informative /= np.linalg.norm(informative)
    n_pos = int(round(pos_fraction * n))
    counts = {1: n_pos, -1: n - n_pos}
    feats, labels = [], []
    for cls, count in counts.items():
        centers = rng.normal(size=(SYNTHETIC_CLUSTERS, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        assign = rng.integers(0, SYNTHETIC_CLUSTERS, size=count)
        x = (cls * margin * informative + cluster_spread * centers[assign]
             + rng.normal(size=(count, dim)))
        feats.append(x)
        labels.append(np.full(count, cls, dtype=np.int8))
    features = np.vstack(feats)
    labels = np.concatenate(labels)
    order = rng.permutation(n)
    return features[order], labels[order]


def synthetic_dataset(name: str, seed: int = 0, max_nodes: int | None = None) -> Dataset:
    """Dataset shaped like one of the benchmark tables (see SYNTHETIC_SHAPES)."""
    if name not in SYNTHETIC_SHAPES:
        raise ConfigError(f"unknown synthetic dataset {name!r}; known: {sorted(SYNTHETIC_SHAPES)}")
    n, dim, pos_fraction, margin, spread = SYNTHETIC_SHAPES[name]
    if max_nodes is not None:
        n = min(n, max_nodes)
    features, labels = synthetic_features(n, dim, pos_fraction, margin, spread, seed)
    return from_arrays(features, labels, seed)
