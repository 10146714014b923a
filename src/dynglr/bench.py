"""Noise-sweep experiment harness and diagnostics.

A grid cell is (dataset, noise level, repeat, variant); cells sharing
(dataset, noise, repeat) consume identical split assignments and flip sets so
variants are compared on exactly the same corrupted data. Results stream to a
CSV as cells finish, making interrupted grids resumable, and clean labels are
touched only by the diagnostics in this module, never by training code.
"""

from __future__ import annotations

import csv
import logging
import numbers
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import dataio
from .dataio import Dataset, NoiseSpec
from .errors import ConfigError, ParseError
from .graphs import Graph
from .pipeline import VARIANT_LADDER, PipelineConfig, predict, run_variant
from .seeds import substream, substream_seed

logger = logging.getLogger(__name__)

DATA_DIR_ENV = "DYNGLR_DATA_DIR"
DESK_SCALE_MAX_NODES = 6000

NOISE_LEVELS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25)

RESULT_FIELDS = ("dataset", "noise", "repeat", "variant", "status",
                 "error_rate", "n_test", "seed", "runtime_s",
                 "diag_residual_noise", "diag_rho")
# the columns the grid and the report read; a results file may carry others
READ_FIELDS = ("dataset", "noise", "repeat", "variant", "status", "error_rate")


def error_rate(pred: np.ndarray, truth: np.ndarray) -> float:
    """Percentage of mismatched labels."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ConfigError("prediction and truth lengths differ")
    return 100.0 * float(np.mean(pred != truth))


def mean_edge_weight_proportion(g: Graph, labels_clean: np.ndarray) -> float:
    """Total weight on opposite-label edges over the count of positive-weight
    edges; a graph-cleanliness diagnostic (clean labels, evaluation only)."""
    w = g.weights[g.upper]
    opposite = labels_clean[g.rows[g.upper]] != labels_clean[g.cols[g.upper]]
    positive = w > 0
    if not positive.any():
        return 0.0
    return float(w[opposite].sum() / positive.sum())


def residual_noise(denoised: np.ndarray, clean: np.ndarray, train_mask: np.ndarray
                   ) -> float:
    """Fraction of train nodes whose denoised sign misses the clean label;
    exact zeros count as errors."""
    signs = np.sign(np.asarray(denoised)[train_mask])
    return float(np.mean(signs != np.asarray(clean)[train_mask]))


# ---------------------------------------------------------------------------
# dataset registry

def load_dataset(dataset_id: str, data_dir=None, seed: int = 0,
                 desk_scale: bool = False) -> tuple[Dataset, str]:
    """Dataset by id: `<data_dir>/<id>.csv` when present, else the synthetic
    stand-in with the published shape. Returns (dataset, source tag)."""
    data_dir = data_dir or os.environ.get(DATA_DIR_ENV)
    if data_dir:
        candidate = Path(data_dir) / f"{dataset_id}.csv"
        if candidate.exists():
            ds = dataio.load_csv(candidate, seed=seed)
            if desk_scale and ds.n_nodes > DESK_SCALE_MAX_NODES:
                ds = subsample_dataset(ds, DESK_SCALE_MAX_NODES, seed)
            return ds, f"csv:{candidate}"
    max_nodes = DESK_SCALE_MAX_NODES if desk_scale else None
    ds = dataio.synthetic_dataset(dataset_id, seed=seed, max_nodes=max_nodes)
    logger.info("dataset %r not found on disk; using synthetic stand-in", dataset_id)
    return ds, "synthetic"


def subsample_dataset(ds: Dataset, max_nodes: int, seed: int = 0) -> Dataset:
    """Class-stratified subsample, then re-split/standardize."""
    rng = substream(seed, "desk-scale")
    keep = []
    for cls in (-1, 1):
        idx = np.flatnonzero(ds.clean_labels == cls)
        take = int(round(max_nodes * idx.size / ds.n_nodes))
        keep.append(rng.choice(idx, size=min(take, idx.size), replace=False))
    keep = np.sort(np.concatenate(keep))
    return dataio.from_arrays(ds.features[keep], ds.clean_labels[keep], seed=seed)


# ---------------------------------------------------------------------------
# grid runner

@dataclass(frozen=True)
class ExperimentGrid:
    datasets: tuple = ("spambase",)
    noise_levels: tuple = NOISE_LEVELS
    repeats: int = 20
    variants: tuple = VARIANT_LADDER
    base_seed: int = 0
    data_dir: str | None = None
    desk_scale: bool = False

    def __post_init__(self):
        for key in ("repeats", "base_seed"):
            if type(getattr(self, key)) is not int:
                raise ConfigError(f"grid key {key!r} must be an integer, "
                                  f"not {getattr(self, key)!r}")
        for key, kind, what in (("datasets", str, "strings"), ("variants", str, "strings"),
                                ("noise_levels", numbers.Real, "numbers")):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)) or any(
                    isinstance(v, bool) or not isinstance(v, kind) for v in value):
                raise ConfigError(f"grid key {key!r} must hold {what} in a list, not {value!r}")

    def cells(self):
        for dataset_id in self.datasets:
            for noise in self.noise_levels:
                for repeat in range(self.repeats):
                    for variant in self.variants:
                        yield dataset_id, float(noise), repeat, variant


@dataclass
class Report:
    rows: list = field(default_factory=list)

    def mean_errors(self) -> dict:
        """(dataset, variant, noise) -> mean error over completed repeats."""
        sums, counts = {}, {}
        for row in self.rows:
            if row["status"] != "ok":
                continue
            key = (row["dataset"], row["variant"], float(row["noise"]))
            sums[key] = sums.get(key, 0.0) + float(row["error_rate"])
            counts[key] = counts.get(key, 0) + 1
        return {k: sums[k] / counts[k] for k in sums}

    def _table(self) -> tuple[list, list]:
        """Noise levels, and one (dataset, variant, mean per noise level or
        None) row per pair: datasets by name, each with its ladder variants in
        ladder order, then any other variants by name."""
        means = self.mean_errors()
        noises = sorted({k[2] for k in means})
        rank = {v: i for i, v in enumerate(VARIANT_LADDER)}
        pairs = sorted({k[:2] for k in means},
                       key=lambda p: (p[0], rank.get(p[1], len(rank)), p[1]))
        return noises, [(d, v, [means.get((d, v, nz)) for nz in noises]) for d, v in pairs]

    def to_markdown(self) -> str:
        noises, rows = self._table()
        lines = []
        for dataset_id in dict.fromkeys(d for d, _, _ in rows):
            lines += [f"## {dataset_id}",
                      "| variant | " + " | ".join(f"{100 * nz:g}%" for nz in noises) + " |",
                      "|" + "---|" * (len(noises) + 1)]
            for _, variant, vals in (row for row in rows if row[0] == dataset_id):
                cells = [f"{v:.2f}" if v is not None else "-" for v in vals]
                lines.append(f"| {variant} | " + " | ".join(cells) + " |")
            lines.append("")
        return "\n".join(lines)

    def to_csv(self) -> str:
        noises, rows = self._table()
        lines = ["dataset,variant," + ",".join(f"{nz:g}" for nz in noises)]
        for dataset_id, variant, vals in rows:
            cells = [f"{v:.6f}" if v is not None else "" for v in vals]
            lines.append(f"{dataset_id},{variant}," + ",".join(cells))
        return "\n".join(lines) + "\n"


def cell_seed(base_seed: int, dataset_id: str, noise: float, repeat: int) -> int:
    """Identical for every variant of the cell, so seed streams align."""
    return substream_seed(base_seed, "cell", dataset_id, f"{noise:.6f}", repeat)


def split_seed(base_seed: int, dataset_id: str, repeat: int) -> int:
    return substream_seed(base_seed, "split", dataset_id, repeat)


def prepare_cell(ds: Dataset, grid: ExperimentGrid, dataset_id: str, noise: float,
                 repeat: int) -> Dataset:
    """Resplit and inject the cell's noise; identical across variants."""
    ds = dataio.stratified_split(ds, seed=split_seed(grid.base_seed, dataset_id, repeat))
    spec = NoiseSpec(rate=noise, seed=cell_seed(grid.base_seed, dataset_id, noise, repeat))
    return dataio.inject_label_noise(ds, spec)


def run_cell(ds_cell: Dataset, cfg: PipelineConfig) -> dict:
    start = time.perf_counter()
    state = run_variant(ds_cell, cfg)
    test_idx = ds_cell.indices(dataio.TEST)
    pred = predict(state, test_idx, cfg)
    err = error_rate(pred, ds_cell.clean_labels[test_idx])
    result = {"error_rate": err, "n_test": int(test_idx.size),
              "runtime_s": time.perf_counter() - start, "state": state,
              "diag_residual_noise": "", "diag_rho": ""}
    if len(state.stages) >= 2:
        final = state.stages[-1]
        clean_work = ds_cell.clean_labels[state.work_ids]
        train_mask = ds_cell.split[state.work_ids] == dataio.TRAIN
        result["diag_residual_noise"] = f"{residual_noise(final.y, clean_work, train_mask):.6f}"
        result["diag_rho"] = f"{mean_edge_weight_proportion(final.graph, clean_work):.6f}"
    return result


def _cell_key(row: dict) -> tuple:
    return row["dataset"], float(row["noise"]), int(row["repeat"]), row["variant"]


def _read_results(path: Path) -> list[dict]:
    """Rows of a results CSV, the last one only for a cell that was rerun.

    A file without one of READ_FIELDS, or a row whose noise, repeat or (in an
    ok row) error_rate does not parse, raises ParseError naming the file and
    the column or the line."""
    if not path.exists():
        return []
    rows = {}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:  # empty: killed before its header was written
            return []
        for column in READ_FIELDS:
            if column not in reader.fieldnames:
                raise ParseError(f"{path} is not a results CSV: no {column!r} column")
        for row in reader:
            try:
                key = _cell_key(row)
                if row["status"] == "ok":
                    float(row["error_rate"])
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{path}, line {reader.line_num}: {exc}") from None
            rows[key] = row
    return list(rows.values())


def run_grid(grid: ExperimentGrid, out_csv, config_overrides: dict | None = None
             ) -> Report:
    """Run every cell, appending one CSV row per finished cell.

    Completed cells found in an existing results file are not recomputed; a
    failing cell is recorded with an error tag and the grid continues. A
    rerun cell's new row replaces its old one in the report. Invalid
    overrides or variants raise ConfigError before the CSV is opened.
    """
    overrides = config_overrides or {}
    # the grid sets each cell's variant and seed
    settable = [f.name for f in fields(PipelineConfig) if f.name not in ("variant", "seed")]
    unknown = sorted(set(overrides) - set(settable))
    if unknown:
        raise ConfigError(f"unknown config_overrides {unknown}; settable: {settable}")
    configs = {(d, v): PipelineConfig.for_dataset(d, variant=v, **overrides)
               for d in grid.datasets for v in grid.variants}
    out_csv = Path(out_csv)
    rows = {_cell_key(r): r for r in _read_results(out_csv)}
    done = {key for key, r in rows.items() if r["status"] == "ok"}
    # a process killed before its first row leaves an empty file behind
    write_header = not out_csv.exists() or out_csv.stat().st_size == 0
    datasets = {}
    with out_csv.open("a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS)
        if write_header:
            writer.writeheader()
        for dataset_id, noise, repeat, variant in grid.cells():
            if (dataset_id, noise, repeat, variant) in done:
                continue
            if dataset_id not in datasets:
                datasets[dataset_id], source = load_dataset(
                    dataset_id, grid.data_dir, seed=grid.base_seed,
                    desk_scale=grid.desk_scale)
                logger.info("dataset %s from %s (N=%d)", dataset_id, source,
                            datasets[dataset_id].n_nodes)
            seed = cell_seed(grid.base_seed, dataset_id, noise, repeat)
            row = {**dict.fromkeys(RESULT_FIELDS, ""), "dataset": dataset_id,
                   "noise": f"{noise:g}", "repeat": repeat, "variant": variant, "seed": seed}
            try:
                ds_cell = prepare_cell(datasets[dataset_id], grid, dataset_id,
                                       noise, repeat)
                result = run_cell(ds_cell, replace(configs[dataset_id, variant], seed=seed))
                row.update(status="ok", error_rate=f"{result['error_rate']:.12g}",
                           n_test=result["n_test"],
                           runtime_s=f"{result['runtime_s']:.3f}",
                           diag_residual_noise=result["diag_residual_noise"],
                           diag_rho=result["diag_rho"])
            except Exception as exc:  # cell isolation: record and continue
                logger.exception("cell %s failed", (dataset_id, noise, repeat, variant))
                row["status"] = f"error:{type(exc).__name__}"
            writer.writerow(row)
            fh.flush()
            rows[dataset_id, noise, repeat, variant] = {k: str(v) for k, v in row.items()}
    return Report(rows=list(rows.values()))
