"""Grid-cell benchmark for dynglr.

    python3 perfbench/run.py --workload spambase-sampled --seed 1 --seconds 40 --trace 0

Each workload is one noise-sweep grid cell (dataset stand-in, 25% noise,
repeat 0, one variant) run through `bench.run_grid`, the code path behind
`dynglr ablate`. Cells run one after another in this single process (closed
loop, one client) until the next one would overrun `--seconds`. Cell i uses
grid base seed `seed + CELL_SEED_STRIDE * i`, so cell 0 is the grid at
`--seed` and every input derives from `--seed`.

`--trace 0` prints the end-to-end metrics, all wall-clock: `setup_s`, the
median of the load + prepare time over SETUP_ROUNDS extra set-ups and every
cell's own; `train_s`, `predict_s` and `cell_s`, medians over the cells of
the time in `run_variant`, in `predict` and their sum; `peak_rss_mb`; and
`ok_frac`, the share of cells that passed every check. `--trace 1` runs
cells untraced for half of `--seconds`, then cell 0 again with the layer
functions wrapped (see tracing.py), checks that it predicts exactly what
the untraced cell 0 did, and prints the per-layer metrics of the traced
cell. Its spans go to `perfbench/out/`.

Every cell is checked: the CSV status is `ok`, each test node has exactly
one prediction, every prediction is +-1, the CSV error equals the error of
the predictions, and the error figures are finite. One JSON line per cell
(times, error figures and a `pred_sha256` digest of the predictions)
precedes the result; the first line records the machine, the thread pin,
the versions and the seed. The last stdout line is one JSON object with
keys correct, attempted, failed and metrics; the whole log is also written
to `perfbench/out/`.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are sized when numpy loads, so pin them before any import
# that can pull numpy in.
THREAD_PIN = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PIN)
# inputs come from --seed alone, never from a data directory
os.environ.pop("DYNGLR_DATA_DIR", None)

import argparse  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

NOISE = 0.25
CELL_SEED_STRIDE = 1_000_003
# extra load+prepare rounds per run, so setup_s is a median of several
SETUP_ROUNDS = 20


@dataclasses.dataclass(frozen=True)
class Workload:
    dataset: str
    variant: str
    # The published schedules make one cell take about a minute. Each stage
    # runs 1/compress of its epochs at compress times its learning rates, so
    # that several cells fit in one run and the nets still learn (on fewer
    # epochs alone spambase's update net collapses and every prediction is
    # one class). Graph sizes, net widths and batch shapes are unchanged.
    compress: int
    # further PipelineConfig fields
    overrides: dict = dataclasses.field(default_factory=dict)
    desk_scale: bool = False


WORKLOADS = {
    # All four stages, then rank sampling: predict is frozen-chain calls on
    # <=100-node graphs, most of them inside rank sampling. Two reference
    # sets of 80 (the default is six) and a fifteenth of the default
    # sampling rounds keep the cell near 9 s.
    "spambase-sampled": Workload("spambase", "G-12312s", compress=16, overrides={
        "rank_sample_k": 160, "rank_sample_batches": 2, "rank_coverage": 0.2}),
    # 256-wide nets trained for many epochs, one reference set at predict:
    # metric-net training dominates and rank sampling is bypassed.
    "phoneme-train": Workload("phoneme", "G-12", compress=16),
    # Magic at desk scale (6,000 nodes, a 3,600-node working set), with the
    # cheapest chain: the working-set KNN graph is half of the cell. At full
    # scale (11,412-node working set) one cell takes ~24 s, so a run holds a
    # single cell and its 1.5 s predict phase spread 15-33% across seeds.
    "magic-workset": Workload("magic", "G-2", compress=8, desk_scale=True),
}


class BenchmarkError(RuntimeError):
    pass


def import_dynglr():
    """dynglr from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "dynglr" / "__init__.py").is_file():
        raise BenchmarkError(f"no dynglr sources under {src}")
    sys.path.insert(0, str(src))
    import dynglr
    from dynglr import bench, dataio, pipeline

    if Path(dynglr.__file__).resolve().parent != (src / "dynglr").resolve():
        raise BenchmarkError(f"dynglr imported from {dynglr.__file__}, not {src}")
    return bench, dataio, pipeline


def config_overrides(pipeline, wl: Workload) -> dict:
    arch = pipeline.PRESETS.get(wl.dataset, pipeline.PRESETS["default"])
    schedule = {}
    for f in dataclasses.fields(arch):
        value = getattr(arch, f.name)
        if f.name.endswith("_epochs"):
            schedule[f.name] = max(1, math.ceil(value / wl.compress))
        elif f.name.endswith("_lr"):
            schedule[f.name] = tuple(wl.compress * lr for lr in value)
    return {"arch": dataclasses.replace(arch, **schedule), **wl.overrides}


class CellRunner:
    """Runs grid cells through `bench.run_grid` and checks their outputs.

    While `timers()` is active, the names `bench` calls (`load_dataset`,
    `prepare_cell`, `run_variant`, `predict`) are wrapped by timers that
    read the clock and keep the predictions, nothing more.
    """

    TIMED = ("load_dataset", "prepare_cell", "run_variant", "predict")

    def __init__(self, bench, dataio, pipeline, wl: Workload, seed: int, work_dir: Path):
        self.bench, self.dataio = bench, dataio
        self.wl, self.seed, self.work_dir = wl, seed, work_dir
        self.overrides = config_overrides(pipeline, wl)
        self.setup_s = []
        self._timed = {}
        self._last = {}

    @contextmanager
    def timers(self):
        originals = {name: getattr(self.bench, name) for name in self.TIMED}
        try:
            for name, fn in originals.items():
                setattr(self.bench, name, self._timer(name, fn))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(self.bench, name, fn)

    def _timer(self, name, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self._timed[name] = self._timed.get(name, 0.0) + time.perf_counter() - start
            if name == "predict":
                self._last["test_idx"] = args[1]
                self._last["dataset"] = args[0].dataset
                self._last["pred"] = result
            return result

        return timed

    def base_seed(self, i: int) -> int:
        return self.seed + CELL_SEED_STRIDE * i

    def grid(self, i: int):
        return self.bench.ExperimentGrid(datasets=(self.wl.dataset,), noise_levels=(NOISE,),
                                         repeats=1, variants=(self.wl.variant,),
                                         base_seed=self.base_seed(i),
                                         desk_scale=self.wl.desk_scale)

    def setup_only(self, i: int) -> None:
        """One load + prepare, timed like a cell's set-up."""
        self._timed = {}
        grid = self.grid(i)
        ds, _ = self.bench.load_dataset(self.wl.dataset, seed=grid.base_seed,
                                        desk_scale=grid.desk_scale)
        self.bench.prepare_cell(ds, grid, self.wl.dataset, NOISE, 0)
        self.setup_s.append(self._timed["load_dataset"] + self._timed["prepare_cell"])

    def run_cell(self, i: int) -> dict:
        self._timed, self._last = {}, {}
        out_csv = self.work_dir / f"cell{i}.csv"
        out_csv.unlink(missing_ok=True)
        start = time.perf_counter()
        self.bench.run_grid(self.grid(i), out_csv, self.overrides)
        wall = time.perf_counter() - start
        with out_csv.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        cell = {"cell": i, "base_seed": self.base_seed(i), "wall_s": wall,
                "status": rows[-1]["status"] if rows else "missing"}
        if "load_dataset" in self._timed and "prepare_cell" in self._timed:
            self.setup_s.append(self._timed["load_dataset"] + self._timed["prepare_cell"])
        problems = self._check(rows)
        cell["problems"] = problems
        if not problems:
            row = rows[-1]
            cell.update(train_s=self._timed["run_variant"], predict_s=self._timed["predict"],
                        error_pct=float(row["error_rate"]),
                        residual_noise_pct=100.0 * float(row["diag_residual_noise"]),
                        pred_sha256=hashlib.sha256(
                            self._last["pred"].astype("int8").tobytes()).hexdigest())
            cell["cell_s"] = cell["train_s"] + cell["predict_s"]
        return cell

    def _check(self, rows: list) -> list:
        if len(rows) != 1:
            return [f"expected one CSV row, got {len(rows)}"]
        row = rows[0]
        if row["status"] != "ok":
            return [f"status {row['status']}"]
        if "pred" not in self._last:
            return ["predict was not called"]
        ds = self._last["dataset"]
        test_idx = np.asarray(self._last["test_idx"])
        pred = np.asarray(self._last["pred"])
        problems = []
        if not np.array_equal(np.sort(test_idx), ds.indices(self.dataio.TEST)):
            problems.append("predicted nodes are not exactly the test nodes")
        if pred.shape != test_idx.shape:
            problems.append(f"{pred.size} predictions for {test_idx.size} test nodes")
        elif not np.isin(pred, (-1, 1)).all():
            problems.append("a prediction is not +-1")
        else:
            err = 100.0 * float(np.mean(pred != ds.clean_labels[test_idx]))
            if not math.isclose(err, float(row["error_rate"]), rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"CSV error {row['error_rate']} != prediction error {err}")
        for key in ("error_rate", "diag_residual_noise"):
            try:
                finite = math.isfinite(float(row[key]))
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"{key} is not a finite number: {row[key]!r}")
        return problems


def environment(args) -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "thread_pin": THREAD_PIN, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_cells(runner: CellRunner, budget_s: float, emit) -> list:
    """Cells 0, 1, ... until the next would end after budget_s (at least one)."""
    cells, start = [], time.perf_counter()
    while True:
        cell = runner.run_cell(len(cells))
        cells.append(cell)
        emit({k: v for k, v in cell.items() if k != "problems" or v})
        elapsed = time.perf_counter() - start
        if elapsed + median([c["wall_s"] for c in cells]) > budget_s:
            return cells


def end_to_end(cells: list, setup_s: list) -> dict:
    ok = [c for c in cells if not c["problems"]]

    def med(key):
        return median([c[key] for c in ok])

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": (median(setup_s), "s"), "train_s": (med("train_s"), "s"),
            "predict_s": (med("predict_s"), "s"), "cell_s": (med("cell_s"), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"), "ok_frac": (len(ok) / len(cells), "frac")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench, dataio, pipeline = import_dynglr()
    except (BenchmarkError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = environment(args)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    log = []

    def emit(record: dict) -> None:
        log.append(record)
        print(json.dumps(record), flush=True)

    emit({"env": env})
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        runner = CellRunner(bench, dataio, pipeline, wl, args.seed, Path(work_dir))
        if tracer is None:
            with runner.timers():
                for i in range(SETUP_ROUNDS):
                    runner.setup_only(i)
                cells = run_cells(runner, args.seconds, emit)
            metrics = end_to_end(cells, runner.setup_s)
        else:
            with runner.timers():
                cells = run_cells(runner, args.seconds / 2, emit)
            try:
                # timers go outside the tracer's wrappers, which must see
                # bench bind the program's own functions
                with tracer.installed(), runner.timers():
                    traced = runner.run_cell(0)
            finally:
                tracer.write_spans(OUT_DIR / f"{stem}-spans.jsonl")
            traced["traced"] = True
            if cells[0].get("pred_sha256") != traced.get("pred_sha256"):
                traced["problems"].append("traced predictions differ from untraced ones")
            emit({k: v for k, v in traced.items() if k != "problems" or v})
            cells.append(traced)
            metrics = tracer.metrics()
            untraced = median([c["cell_s"] for c in cells[:-1] if "cell_s" in c])
            overhead = 100.0 * (traced["cell_s"] / untraced - 1.0) if (
                untraced and "cell_s" in traced) else 0.0
            metrics["trace_overhead_pct"] = (overhead, "%")
            metrics["trace.cell_s"] = (traced.get("cell_s", 0.0), "s")
            # the traced cell's error figures: across seeds they spread too
            # widely (IQR 14-27% of the median) to carry a regression bound
            metrics["cell.error_pct"] = (traced.get("error_pct", 0.0), "%")
            metrics["cell.residual_noise_pct"] = (traced.get("residual_noise_pct", 0.0), "%")

    failed = sum(1 for c in cells if c["problems"])
    result = {"correct": failed == 0, "attempted": len(cells), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(log + [result], indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
