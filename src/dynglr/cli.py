"""Command-line interface.

Subcommands mirror the experiment workflow: `prepare` ingests a CSV and
writes a dataset manifest, `train` runs one pipeline variant and checkpoints
it, `eval` re-scores a checkpointed run, `ablate` sweeps a grid from a JSON
description, `spectrum` dumps the final graph spectrum, and `report` renders
grid results. The data directory can also come from $DYNGLR_DATA_DIR.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import bench, dataio, graphs, pipeline
from .dataio import NoiseSpec
from .errors import ConfigError, DynglrError, ParseError, UsageError


def _cmd_prepare(args) -> int:
    ds = dataio.load_csv(args.csv, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = dataio.dataset_manifest(ds, seed=args.seed)
    manifest["source_csv"] = str(args.csv)
    dataio.write_manifest(manifest, out / "dataset.json")
    print(f"prepared {ds.n_nodes} nodes x {ds.n_features} features -> {out}")
    return 0


def _noisy_dataset(dataset_id: str, data_dir, seed: int, desk_scale: bool, noise: NoiseSpec):
    """A run's dataset, loaded, split and noised the same way for train and eval."""
    ds, source = bench.load_dataset(dataset_id, data_dir, seed=seed, desk_scale=desk_scale)
    return dataio.inject_label_noise(ds, noise), source


def _cmd_train(args) -> int:
    spec = NoiseSpec(rate=args.noise, seed=args.seed)
    ds, source = _noisy_dataset(args.dataset, args.data_dir, args.seed, args.desk_scale, spec)
    cfg = pipeline.PipelineConfig.for_dataset(args.dataset, variant=args.variant,
                                              seed=args.seed)
    result = bench.run_cell(ds, cfg)
    state, err = result["state"], result["error_rate"]
    manifest = dataio.dataset_manifest(ds, noise=spec, seed=args.seed)
    manifest["source"] = source
    manifest["dataset_id"] = args.dataset
    losses = {stage: vals[-1] for stage, vals in state.stage_losses.items()}
    pipeline.save_state(state, args.out, extra={
        "dataset": manifest, "test_error_rate": err, "final_stage_losses": losses,
        "desk_scale": args.desk_scale, "data_dir": args.data_dir})
    print(f"{args.variant} on {args.dataset} @ {args.noise:.0%} noise: "
          f"test error {err:.2f}%")
    return 0


def _reload_run(run: str):
    """Reload a train run from its directory or its manifest.json."""
    run_path = Path(run)
    if run_path.name == "manifest.json":
        run_path = run_path.parent
    if not (run_path / "manifest.json").is_file():
        raise UsageError(f"{run_path} holds no manifest.json; pass a directory written by train")
    manifest = dataio.read_manifest(run_path / "manifest.json", {
        "dataset.dataset_id": str, "dataset.noise.rate": float, "dataset.noise.seed": int,
        "seed": int, "variant": str, "test_error_rate": float,
        "data_dir": (str, type(None)), "desk_scale": bool})
    dataset_id, seed = manifest["dataset"]["dataset_id"], manifest["seed"]
    noise = manifest["dataset"]["noise"]
    ds, _ = _noisy_dataset(dataset_id, manifest["data_dir"], seed, manifest["desk_scale"],
                           NoiseSpec(rate=noise["rate"], seed=noise["seed"]))
    cfg = pipeline.PipelineConfig.for_dataset(dataset_id, variant=manifest["variant"],
                                              seed=seed)
    state = pipeline.load_state(run_path, ds, cfg)
    return manifest, ds, cfg, state


def _cmd_eval(args) -> int:
    manifest, ds, cfg, state = _reload_run(args.run)
    test_idx = ds.indices(dataio.TEST)
    pred = pipeline.predict(state, test_idx, cfg)
    err = bench.error_rate(pred, ds.clean_labels[test_idx])
    print(f"{manifest['variant']} test error {err:.2f}% "
          f"(recorded {manifest['test_error_rate']:.2f}%)")
    return 0


def _cmd_ablate(args) -> int:
    if not Path(args.grid).is_file():
        raise ParseError(f"no such file: {args.grid}")
    grid_spec = dataio.read_manifest(args.grid, {})
    overrides = grid_spec.pop("config_overrides", None)
    allowed = [f.name for f in dataclasses.fields(bench.ExperimentGrid)]
    unknown = sorted(set(grid_spec) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown grid keys {unknown}; allowed: "
                          f"{allowed + ['config_overrides']}")
    grid_spec["data_dir"] = grid_spec.get("data_dir") or args.data_dir
    grid = bench.ExperimentGrid(**grid_spec)
    report = bench.run_grid(grid, args.out, overrides)
    failed = [r for r in report.rows if r["status"] != "ok"]
    print(f"grid complete: {len(report.rows)} rows, {len(failed)} failed -> {args.out}")
    return 0 if not failed else 1


def _cmd_spectrum(args) -> int:
    _, _, _, state = _reload_run(args.run)
    rec = state.stages[-1]
    eigvals, mags = graphs.gft_spectrum(rec.graph.laplacian, rec.y)
    graphs.dump_spectrum(eigvals, mags, args.out)
    print(f"wrote {eigvals.size} spectral lines -> {args.out}")
    return 0


def _cmd_report(args) -> int:
    if not Path(args.grid_results).is_file():
        raise ParseError(f"no such file: {args.grid_results}")
    rows = bench._read_results(Path(args.grid_results))
    report = bench.Report(rows=rows)
    text = report.to_markdown() if args.format == "md" else report.to_csv()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote report -> {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynglr")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest a CSV and write a dataset manifest")
    p.add_argument("csv")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("train", help="train one variant and checkpoint the run")
    p.add_argument("--dataset", required=True)
    p.add_argument("--variant", default="G-12312")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--desk-scale", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="re-score a checkpointed run")
    p.add_argument("--run", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run a grid described by a JSON file")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--data-dir", default=None)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("spectrum", help="dump the final-stage graph spectrum")
    p.add_argument("--run", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("report", help="render grid results as md or csv")
    p.add_argument("--grid-results", required=True)
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except DynglrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
