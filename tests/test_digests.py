"""Golden digests of the predictions of one tiny seeded cell per chain type.

The pipeline is seeded end to end, so a change that keeps the computation
keeps every prediction vector bit-identical, and its sha256 with it. The
three cells cover the full chain with rank sampling (G-12312s), the graph
update on one reference set (G-1232) and the nearest-neighbour baseline
(DML-KNN). A change that moves a digest on purpose updates the constant and
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
