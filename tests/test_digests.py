"""Golden digests of the predictions of one tiny seeded cell per chain type.

The pipeline is seeded end to end, so a change that keeps the computation
keeps every prediction vector bit-identical, and its sha256 with it. One
cell per variant of the ladder pins every chain type: the nearest-neighbour
baseline with and without rank sampling (DML-KNN, DML-KNN-s), one
weighting round (G-2), the two-round chains with and without rank sampling
(G-12, G-12s), the graph update (G-1232) and the full chain (G-12312,
G-12312s). A change that moves a digest on purpose updates the constant and
says why in CHANGES.md.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from dynglr import dataio, pipeline

DIGESTS = {
    "G-12312s": "11ecb2d952514d97d35fb7781a09cf64e5fe6501a2ecaef68a762ae413d004a8",
    "G-1232": "991d28bce0e68ccd02c66a10be8054b5dc3275093cecd26c862736acca671915",
    "DML-KNN": "ab057b0348b15cf68e7c6c029a23c296670b1f9876d06c847ef66c449004e5fd",
    "DML-KNN-s": "ac4a93738f95ce838349cdcd3b32a7bf5a00021ed9edf1c1f9283436d011aeff",
    "G-2": "d39ff0a4544cc35d1a08642a73b76a062cef8d4760dabf1889883eaf5fea6bec",
    "G-12": "ab8961dd9abcfaf3cd3535b33bb7fbd6e0db4a3a357b17714f038fe54d7ad8d0",
    "G-12s": "d703ea330dee3116bc72bfb93aae30379704feadaafdd8903bc7a08f7527b1ef",
    "G-12312": "c9f936ae066a3aafe2c78e1e0d2647fb7b3f82845ef688ea11bbc919dffeb644",
}


def tiny_cell(variant):
    """A 1,800-node synthetic spambase with 25% label noise, 4 epochs per
    stage at 15x the learning rates (fewer steps alone leave every
    prediction in one class), and more rank-sampled references than the 720
    train nodes, so k is clamped."""
    ds = dataio.synthetic_dataset("spambase", seed=3, max_nodes=1800)
    ds = dataio.inject_label_noise(dataio.stratified_split(ds, seed=4),
                                   dataio.NoiseSpec(rate=0.25, seed=5))
    preset = pipeline.PRESETS["spambase"]
    arch = dataclasses.replace(preset, **{
        f.name: 4 if f.name.endswith("_epochs") else tuple(15 * lr for lr in getattr(preset, f.name))
        for f in dataclasses.fields(preset) if f.name.endswith(("_epochs", "_lr"))})
    cfg = pipeline.PipelineConfig.for_dataset("spambase", variant=variant, seed=6, arch=arch,
                                              rank_coverage=0.1, rank_sample_k=726)
    return ds, cfg


@pytest.mark.parametrize("variant", list(DIGESTS))
def test_prediction_digest(variant):
    ds, cfg = tiny_cell(variant)
    state = pipeline.run_variant(ds, cfg)
    pred = pipeline.predict(state, ds.indices(dataio.TEST), cfg)
    # a one-class prediction would hide most perturbations of the chain
    assert 0.1 < np.mean(pred == 1) < 0.9
    assert hashlib.sha256(pred.astype(np.int8).tobytes()).hexdigest() == DIGESTS[variant]
