"""Noise-robust semi-supervised binary classification on learned metric graphs.

Feature embeddings trained with triplet losses define sparse KNN graphs;
graph-Laplacian-regularized smoothing denoises the label signal; the graph is
iteratively reweighted and rebuilt from edges that stayed reliable; test
nodes are classified transductively against reference training nodes.
"""

from .dataio import Dataset, NoiseSpec, inject_label_noise, load_csv, stratified_split
from .glr import denoise, mu_max
from .graphs import (Graph, assign_weights, auto_sigma, build_laplacian, gft_spectrum,
                     graph_update, knn_edges, partition_edges)
from .metricnet import (MetricNet, NetConfig, sample_triplets, train, triplet_loss_E,
                        triplet_loss_W)
from .pipeline import (PipelineConfig, PipelineState, predict, rank_sampling,
                       run_variant)
from .bench import (ExperimentGrid, Report, error_rate,
                    mean_edge_weight_proportion, residual_noise, run_grid)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "NoiseSpec", "load_csv", "stratified_split", "inject_label_noise",
    "mu_max", "denoise",
    "Graph", "knn_edges", "partition_edges", "auto_sigma",
    "assign_weights", "build_laplacian", "graph_update", "gft_spectrum",
    "MetricNet", "NetConfig", "triplet_loss_E", "triplet_loss_W",
    "sample_triplets", "train",
    "PipelineConfig", "PipelineState", "run_variant", "predict", "rank_sampling",
    "ExperimentGrid", "Report", "error_rate", "mean_edge_weight_proportion",
    "residual_noise", "run_grid",
]
