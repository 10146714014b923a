"""Checks of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracing.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from dynglr import dataio, graphs, pipeline  # noqa: E402


def _tiny_cell():
    # a 1,080-node working set, above the batch size class
    ds = dataio.synthetic_dataset("spambase", seed=3, max_nodes=1800)
    ds = dataio.inject_label_noise(dataio.stratified_split(ds, seed=4),
                                   dataio.NoiseSpec(rate=0.25, seed=5))
    # 4 epochs per stage at 15x the learning rates: fewer steps alone leave
    # every prediction in one class, which would hide a perturbed computation
    preset = pipeline.PRESETS["spambase"]
    arch = dataclasses.replace(preset, **{
        f.name: 4 if f.name.endswith("_epochs") else tuple(15 * lr for lr in getattr(preset, f.name))
        for f in dataclasses.fields(preset) if f.name.endswith(("_epochs", "_lr"))})
    # more rank-sampled references than the 720 train nodes, so k is clamped
    cfg = pipeline.PipelineConfig.for_dataset("spambase", variant="G-12312s", seed=6,
                                              arch=arch, rank_coverage=0.1,
                                              rank_sample_k=726)
    return ds, cfg


def _train_and_predict(ds, cfg):
    # through the module attributes, as bench.run_cell reaches them
    state = pipeline.run_variant(ds, cfg)
    return pipeline.predict(state, ds.indices(dataio.TEST), cfg)


def test_traced_and_untraced_predictions_identical():
    ds, cfg = _tiny_cell()
    untraced = _train_and_predict(ds, cfg)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = _train_and_predict(ds, cfg)
    assert 0.1 < np.mean(untraced == 1) < 0.9
    assert np.array_equal(untraced, traced)
    metrics = {k: v for k, (v, _) in tracer.metrics().items()}
    for name in ("graphs.knn_edges.batch.calls", "graphs.knn_edges.workset.calls",
                 "glr.denoise.batch.calls", "glr.cg_iters.batch",
                 "metricnet.triplet_loss_W.calls", "metricnet.forward_batch.rows",
                 "pipeline.weight2_s", "pipeline.rank_sampling_s"):
        assert metrics[name] > 0, name
    assert metrics["pipeline.rank_k_clamps"] == 1
    assert len(tracer.spans) == sum(tracer.calls.values())


def test_wrappers_removed_on_exit():
    before = (graphs.knn_edges, pipeline.knn_edges, pipeline.predict,
              pipeline.MetricNet.forward_batch)
    with tracing.Tracer().installed():
        assert pipeline.knn_edges is graphs.knn_edges
        assert pipeline.knn_edges is not before[0]
    assert (graphs.knn_edges, pipeline.knn_edges, pipeline.predict,
            pipeline.MetricNet.forward_batch) == before


def test_missing_function_stops_setup():
    with pytest.raises(tracing.TraceSetupError, match="is gone"):
        with tracing.Tracer({"graphs": ("knn_edges", "no_such_function")}).installed():
            pass
    assert not hasattr(graphs.knn_edges, "__wrapped__")


def test_unwrapped_binding_stops_setup(monkeypatch):
    def stale_copy(embeddings, gamma):
        raise AssertionError("never called")

    monkeypatch.setattr(pipeline, "knn_edges", stale_copy)
    with pytest.raises(tracing.TraceSetupError, match="dynglr.pipeline.knn_edges"):
        with tracing.Tracer().installed():
            pass
    assert pipeline.knn_edges is stale_copy
    assert not hasattr(graphs.knn_edges, "__wrapped__")
